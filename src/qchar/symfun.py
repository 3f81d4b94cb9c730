"""Schur and related symmetric functions, the Schur basis, its monomial view
(one-variable branching, no division) and its one product with a symmetric
polynomial (``SchurPoly.times``, by straightening), the two-block branching
rule behind the raising operators whose blocks both have two or more
variables (Littlewood-Richardson fillings, pruned row by row), and the dual
Cauchy expansion behind the subset-fraction lemmas.

Partitions are plain tuples of weakly decreasing nonnegative integers with no
trailing zeros (the empty partition is ``()``).  A partition of length at
most r corresponds to the dominant sl(r+1) weight with labels
``ell_a = lam_a - lam_{a+1}``.  A ``SchurPoly`` keys its terms by weakly
decreasing length-N integer vectors instead, so negative parts (powers of
z_1...z_N) are allowed.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import prod
from operator import add, ge

from .laurent import EXP_MAX, EXP_MIN, SLOT_BITS, UNIT, LaurentPoly, _add_into, box_sum, coefficient_text, offset, pack
from .laurent import require_fit, require_symmetric, split_unit, straighten, unit_slots, unpack, zero_key
from .rings import RING_Q, RING_W, ExponentOverflow


Partition = tuple


def normalize_partition(parts) -> Partition:
    """Strip trailing zeros and validate weak decrease."""
    parts = tuple(parts)
    if any(p < 0 for p in parts):
        raise ValueError("partition parts must be nonnegative")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError("partition parts must be weakly decreasing")
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


def partitions(size: int, max_len: int, max_part: int | None = None):
    """All partitions of ``size`` with at most ``max_len`` parts."""
    if max_part is None:
        max_part = size
    if size == 0:
        yield ()
        return
    if max_len == 0:
        return
    for first in range(min(size, max_part), 0, -1):
        for rest in partitions(size - first, max_len - 1, first):
            yield (first,) + rest


def partitions_up_to(size: int, max_len: int):
    for s in range(size + 1):
        yield from partitions(s, max_len)


def partition_of_weight(ell) -> Partition:
    """The partition of the dominant weight (ell_1, ..., ell_r), with parts
    lam_a - lam_{a+1} = ell_a and the last part pinned to zero."""
    r = len(ell)
    return normalize_partition(tuple(sum(ell[a:]) for a in range(r)) + (0,))


# the most interlacing vectors one call enumerates (rank 1, n = 60 meets 61)
INTERLACING_CAP = 1 << 22


def interlacing(lam, shift=0):
    """An iterator over the rho with lam_{i+1} <= rho_i - shift <= lam_i;
    ValueError when lam is not weakly decreasing (a range is empty) or has
    more than INTERLACING_CAP, both decided before any range is enumerated."""
    ranges = [range(lam[i + 1] + shift, lam[i] + shift + 1) for i in range(len(lam) - 1)]
    if not all(ranges):
        raise ValueError("%r is not weakly decreasing" % (lam,))
    count = prod(map(len, ranges))
    if count > INTERLACING_CAP:
        raise ValueError("%r has %d interlacing vectors, above the cap %d" % (lam, count, INTERLACING_CAP))
    return itertools.product(*ranges)


@lru_cache(maxsize=1 << 10)
def _schur_zcoeffs(lam: Partition, nvars: int) -> LaurentPoly:
    """The Schur polynomial s_lam(z_1..z_N) over the Q ring, cached per
    (partition, N), by branching on the last variable (Macdonald, I.5):
    s_lam = sum of z_N**(|lam| - |mu|) s_mu(z_1..z_{N-1}) over the mu that
    interlace lam, lam_{i+1} <= mu_i <= lam_i, so its terms are the
    Gelfand-Tsetlin patterns of shape lam and nothing is divided.  z_N is
    the top slot of a key, so each term of s_mu moves up by one addition.
    Every exponent lies in [0, lam_1], so a part beyond EXP_MAX raises
    ``ExponentOverflow``, and more than INTERLACING_CAP mu raise ValueError,
    before any pattern is enumerated.
    """
    lam = normalize_partition(lam)
    if len(lam) > nvars:
        raise ValueError("partition longer than the variable count")
    if not lam:
        return LaurentPoly.one(RING_Q, nvars)
    require_fit(lam, lam)
    full = lam + (0,) * (nvars - len(lam))
    size, top = sum(lam), SLOT_BITS * nvars
    out = {}
    for mu in interlacing(full):
        lift = pack((size - sum(mu),)) << top
        for k, c in _schur_zcoeffs(normalize_partition(mu), nvars - 1).coeffs.items():
            out[k + lift] = out.get(k + lift, 0) + c
    return LaurentPoly(RING_Q, nvars, out)


def schur(lam, nvars: int, ring=RING_Q) -> LaurentPoly:
    """The Schur polynomial s_lam(z_1..z_N) over the requested ring."""
    return _schur_zcoeffs(normalize_partition(lam), nvars).with_ring(ring)


def elementary(m: int, nvars: int, ring=RING_Q) -> LaurentPoly:
    """The elementary symmetric polynomial e_m; e_0 = 1, e_m = 0 for m > N."""
    if m < 0 or m > nvars:
        return LaurentPoly.zero(ring, nvars)
    return schur((1,) * m, nvars, ring)


# -- the Schur basis -------------------------------------------------------------


@lru_cache(maxsize=1 << 12)
def _branch_partition(lam, alpha):
    """The two-block expansion s_lam(x, y) = sum c^lam_{mu nu} s_mu(x)
    s_nu(y) of a partition padded to N parts (the last one 0), x the first
    alpha variables and y the rest, as (mu, nu, c) with len(mu) = alpha and
    len(nu) = N - alpha.  By
    c^lam_{mu nu} = c^lam_{nu mu}, the block with m = min(alpha, N - alpha)
    variables is the content of Littlewood-Richardson tableaux of shape
    lam/inner (Macdonald, I.9): rows weakly increase, columns strictly
    increase, and the word read right to left, top to bottom, is a lattice
    word.  A column holds at most m letters, so lam_{i+m} <= inner_i <=
    lam_i.  Each row is filled letter by letter: letter k runs only over
    cells whose entry above is < k, at most counts[k-2] - counts[k-1]
    times, so no filling is built and then rejected.  ``qdiff._terms``
    keys its terms by these pairs (mu, nu) only for m >= 2, and a
    one-variable block by interlacing vectors, as ``_schur_zcoeffs`` does."""
    n = len(lam)
    m = min(alpha, n - alpha)
    if not m:
        return ((lam, (), 1),) if alpha else (((), lam, 1),)
    b = n - m
    out = {}
    inner, counts = [0] * n, [0] * m

    def row(i, bound):
        # bound[k]: the first column of row i - 1 holding a letter > k
        e = lam[i]
        if not e:
            pair = (tuple(counts), tuple(inner[:b]))
            key = pair if m == alpha else pair[::-1]
            out[key] = out.get(key, 0) + 1
            return
        top = min(i + 1, m)
        caps = [e] + [counts[k - 1] - counts[k] for k in range(1, top)]
        for s in range(lam[i + m] if i + m < n else 0, (min(e, bound[0]) if i < b else 0) + 1):
            inner[i] = s
            fill(i, 0, s, e, top, caps, bound, [])

    def fill(i, k, p, e, top, caps, bound, starts):
        # letter k + 1 from column p of row i; starts: where letters 1..k began
        starts.append(p)
        if k == top - 1:
            if min(p + caps[k], bound[k]) >= e:
                counts[k] += e - p
                row(i + 1, starts + [e] * (m - top))
                counts[k] -= e - p
        else:
            for r in range(min(caps[k], bound[k] - p, e - p) + 1):
                counts[k] += r
                fill(i, k + 1, p + r, e, top, caps, bound, starts)
                counts[k] -= r
        starts.pop()

    row(0, [lam[0]] * m)
    return tuple((mu, nu, c) for (mu, nu), c in out.items())


def dual_cauchy(a: int, b: int):
    """The two-block expansion of prod_{i <= a, j <= b} (x_i - q y_j)
    = sum_{lam in the a x b box} (-q)**|lam| s_{lam^c}(x) s_{lam'}(y), the
    dual Cauchy identity (Macdonald, I.4.3') applied to (x_1...x_a)**b
    prod (1 - q y_j / x_i); lam^c = (b - lam_a, .., b - lam_1) is the
    complement in the box.  Yields (|lam|, lam^c, lam'), padded to lengths
    a and b."""
    for size in range(a * b + 1):
        for lam in partitions(size, a, b):
            full = lam + (0,) * (a - len(lam))
            conj = tuple(sum(1 for x in lam if x > i) for i in range(b))
            yield size, tuple(b - x for x in reversed(full)), conj


@lru_cache(maxsize=16)
def _column(nvars):
    """The offset of one full column z_1...z_N in a key with its unit slot."""
    return offset((0,) + (1,) * nvars)


def column_split(key, nvars):
    """(lam_N, key of s_{lam - lam_N}) for the key of s_lam, unit slot kept, by
    key arithmetic; ``ExponentOverflow`` when lam_1 - lam_N leaves the slot."""
    top = (key >> SLOT_BITS * nvars) + EXP_MIN
    if top < 0 and split_unit(key >> SLOT_BITS)[0] - top > EXP_MAX:
        raise ExponentOverflow("a part of s_{lam - lam_N} would leave [%d, %d]" % (EXP_MIN, EXP_MAX))
    return top, key - top * _column(nvars)


@lru_cache(maxsize=1 << 12)
def _pieri_constrained_keys(key, m, nvars):
    """The keys of s_lam * e_m modulo z_1...z_N = 1, key that of s_lam at unit
    exponent 0, by the Pieri rule (Macdonald, I.5): s_{kappa - kappa_N} for each
    weakly decreasing kappa that adds a box to each of m distinct rows of lam,
    none for m < 0 or m > N; ``qdiff.packed_sum`` adds each packed row at them."""
    if m < 0:
        return ()
    lam = unpack(key >> SLOT_BITS, nvars)
    strips = ([x + (i in rows) for i, x in enumerate(lam)] for rows in itertools.combinations(range(nvars), m))
    return tuple(column_split(pack([0] + kappa), nvars)[1] for kappa in strips if all(map(ge, kappa, kappa[1:])))


def _schur_monomials(coeffs, ring, nvars) -> LaurentPoly:
    """sum payload * s_lam over ``coeffs`` = {lam: payload}, lam weakly
    decreasing (negative parts allowed), in the monomial basis over any
    ring, in one pass: payloads are {unit offset: int}, the unit offset as in
    ``laurent.require_symmetric`` (over W and Q the unit exponent), and each
    term adds c times the cached s_{lam - lam_N} moved by the unit offset
    and (z_1...z_N)**lam_N, so every exponent stays in [lam_N, lam_1].  The
    cached keys have one unit slot, at exponent 0: shifted up past the
    ring's other unit slots, once per lam, and given their zero key, they
    are keys of the ring.  In 0 variables lam is () and s_() = 1."""
    slots = unit_slots(ring)
    shift, base = SLOT_BITS * (slots - 1), zero_key(slots - 1)
    column, out = offset((0,) * slots + (1,) * nvars), {}
    get = out.get
    for lam, payload in coeffs.items():
        top = lam[-1] if lam else 0
        core = [(k << shift, x) for k, x in _schur_zcoeffs(tuple(e - top for e in lam if e != top), nvars).coeffs.items()]
        for u, c in payload.items():
            d = u + top * column + base
            for k, x in core:
                out[k + d] = get(k + d, 0) + c * x
    return LaurentPoly(ring, nvars, {k: c for k, c in out.items() if c})


def _require_schur_ring(ring):
    """A Schur form has one unit slot: its keys misread under the QT ring."""
    if ring not in (RING_W, RING_Q):
        raise ValueError("a Schur form lives over the W or Q ring, not %r" % (ring,))


class SchurPoly(LaurentPoly):
    """A symmetric Laurent polynomial in N variables over the W or Q ring,
    in the Schur basis: a term c with exponent vector (j, lam_1, .., lam_N)
    stands for c * u**j * s_lam, lam weakly decreasing, negative parts
    allowed (s_{lam + m} = (z_1...z_N)**m s_lam, so ``times_z`` takes full
    columns only).  Keys are packed as in ``LaurentPoly``, with the same
    exponent range.  Addition, subtraction, ``times_unit`` and ``==`` are
    the keyed arithmetic of ``LaurentPoly``, where a monomial-basis operand
    raises TypeError; ``times`` multiplies by a symmetric one."""

    __slots__ = ()

    @classmethod
    def basis(cls, lam, nvars, ring=RING_Q):
        """The basis element s_lam, lam padded with zeros to length N, over
        the W or Q ring (any other raises ValueError)."""
        _require_schur_ring(ring)
        lam = tuple(lam) + (0,) * (nvars - len(lam))
        if len(lam) != nvars or any(lam[i] < lam[i + 1] for i in range(nvars - 1)):
            raise ValueError("%r is not a weakly decreasing %d-vector" % (lam, nvars))
        return cls.monomial(ring, nvars, lam)

    def with_ring(self, ring):
        """The same terms over the W or Q ring (any other raises ValueError)."""
        _require_schur_ring(ring)
        return LaurentPoly.with_ring(self, ring)

    def __mul__(self, other):
        if not isinstance(other, int):
            raise TypeError("a Schur form multiplies by integers; use times for a symmetric monomial-basis polynomial")
        return LaurentPoly.__mul__(self, other)

    __rmul__ = __mul__

    def times(self, f):
        """The product with a symmetric monomial-basis f of the same ring and
        N: s_lam f = sum of f_beta s_{lam+beta}, straightened once per pair
        of z-parts, as a_{lam+delta} f = sum of f_beta a_{lam+beta+delta}
        (Macdonald, I.3).  TypeError for any other operand, ``NotSymmetric``
        for a non-symmetric f, ``ExponentOverflow`` from the exponent bounds
        (exact, as in a product) before any key is formed."""
        if type(f) is not LaurentPoly or (f.ring, f.nvars) != (self.ring, self.nvars):
            raise TypeError("times takes a monomial-basis polynomial over %s in %d variables" % (self.ring, self.nvars))
        return self._times_parts(require_symmetric(f), f.bounds())

    def _times_parts(self, parts, box):
        """``times`` of the f that ``require_symmetric`` grouped into
        ``parts`` (so f is symmetric), with exponent bounds ``box``."""
        if not self.coeffs or not parts:
            return self._like({})
        box_sum(self.bounds(), box)
        out = {}
        right = [(unpack(z, self.nvars), units) for z, units in parts.items()]
        for lam, left in self.z_terms().items():
            for beta, units in right:
                sign, kappa = straighten(map(add, lam, beta))
                if sign:
                    base = pack((0,) + kappa)
                    for j, c in left.items():
                        for i, d in units.items():
                            k = base + (i + j) * UNIT
                            out[k] = out.get(k, 0) + sign * c * d
        return self._like({k: c for k, c in out.items() if c})

    def constrained(self):
        """The value modulo z_1...z_N = 1: every s_lam becomes s_{lam - lam_N}."""
        return self._like(_add_into({}, ((column_split(key, self.nvars)[1], c) for key, c in self.coeffs.items())))

    def expansion(self) -> dict:
        """{partition: {unit exponent: int}}: the Schur coefficients (parts >= 0)."""
        return {normalize_partition(lam): d for lam, d in self.z_terms().items()}

    def monomials(self) -> LaurentPoly:
        """The same value in the monomial basis (``_schur_monomials``)."""
        return _schur_monomials(self.z_terms(), self.ring, self.nvars)

    def __repr__(self):
        terms = sorted(self.z_terms().items(), reverse=True)
        text = ", ".join("s%s: %s" % (lam, coefficient_text(self.ring, s)) for lam, s in terms)
        return "SchurPoly[%s,%d](%s)" % (self.ring, self.nvars, text)
