"""q-difference operators acting on symmetric Laurent polynomials.

Two families act in r+1 variables:

* ``apply_M(alpha, n, f)``   -- subset operators sum_{|I|=alpha} z_I**n a_I(z) G_I,
  where ``G_I`` scales each z_i, i in I, by q and
  ``a_I = prod_{i in I, j not in I} z_i / (z_i - z_j)``;
* ``apply_D(alpha, n, f)``   -- the same sum with the twisted shift (every
  variable scaled by v, subset variables by q besides) and the prefactor
  ``v**(-lam(a,a)*n/2 - sum_b lam(a,b))``, acting on W-ring coefficients.

The classical (q, t) Macdonald operator, whose t -> oo limit is M at
n = 0, is ``macdonald.apply_macdonald_m``.

``apply_M`` and ``apply_D`` act on Schur forms (``symfun.SchurPoly``) in
closed form.  With x the first alpha variables and y the rest, restrict s_lam
to the two blocks, s_lam(q x, y) = sum c^lam_{mu nu} q**|mu| s_mu(x) s_nu(y).
When one block is a single variable (alpha = 1 or r), c^lam_{mu nu} is 1
exactly when the other block's part interlaces lam (Macdonald, I.5), and the
terms are read off those interlacing vectors; any other block takes the
Littlewood-Richardson fillings of ``symfun._branch_partition``.  Clearing the
Vandermonde turns each term into a bialternant, and the subset sum
antisymmetrizes it, so

    M_{alpha,n} s_lam = sum c^lam_{mu nu} q**|mu| s_{(mu + n, nu)},

each s_{(mu + n, nu)} straightened to +-s_kappa or 0 (``laurent.straighten``);
one rule, ``_terms``, lists those terms by branching key before
straightening: rho for a one-variable block, else the pair (mu, nu).
One kernel, ``operator_sum``, forms every such action: a signed sum of M, D
and identity terms, each with its power of q (or w), in one dict.
``apply_M`` and ``apply_D`` are its one-term calls, and an operator identity
is one residual tested for zero, with no side formed.  A raising chain
steps a ``PackedSchur`` instead, a ``laurent.Packed`` with one row per
Schur coefficient (``packed_step``).  ``operator_sum`` reads the cached
image of each s_lam modulo full columns (``_image``); a step builds no
image, but groups its rows by branching key and builds and straightens
each key's term once.  ``packed_sum`` adds packed values, times e_m or not.
"""

from __future__ import annotations

from functools import lru_cache

from .laurent import (
    EXP_MAX,
    EXP_MIN,
    SLOT_BITS,
    UNIT,
    Packed,
    _add_into,
    kron_add,
    kron_repack,
    kron_width,
    pack,
    require_fit,
    straighten,
    unpack,
    zero_key,
)
from .rings import RING_Q, RING_W, ExponentOverflow
from .symfun import SchurPoly, _branch_partition, _pieri_constrained_keys, column_split, interlacing


def _terms(lam, alpha, n):
    """M_{alpha,n} s_lam = sum q**|mu| s_v over branching keys, lam weakly
    decreasing (negative parts allowed), as (head, keys, term): term(head,
    key) is (|mu|, v), s_v still to be straightened, and depends on lam only
    through the head, so a step groups its rows by head and key and builds
    each term once.  A block of one variable (alpha = 1 or N - 1) has
    c^lam_{mu nu} = 1 exactly when the other block's rho interlaces lam,
    lam_{i+1} <= rho_i <= lam_i (Macdonald, I.5): the keys are those rho
    (``symfun.interlacing``, capped), the head |lam| with its shift, and the
    one variable takes k = head - |rho|.  Any other block takes the
    Littlewood-Richardson pairs (mu, nu) of lam - lam_N
    (``symfun._branch_partition``), each listed once per filling, under the
    head lam_N, which term adds back to both blocks.  The cap and a lam that
    cannot branch raise ValueError here, before any key is listed."""
    nvars = len(lam)
    if min(alpha, nvars - alpha) != 1:
        if not lam or any(lam[i] < lam[i + 1] for i in range(nvars - 1)) or not 0 <= alpha <= nvars:
            raise ValueError("cannot branch %r at alpha = %d" % (lam, alpha))

        def term(top, pair):
            mu, nu = pair
            return sum(mu) + alpha * top, tuple([x + top + n for x in mu] + [x + top for x in nu])

        core = _branch_partition(tuple(x - lam[-1] for x in lam), alpha)
        return lam[-1], ((mu, nu) for mu, nu, c in core for _ in range(c)), term
    # at alpha = N - 1 rho is enumerated as rho + n: s_{(rho, k)}, |mu| = |lam| - k
    shift = 0 if alpha == 1 else n

    def term(head, rho):
        k = head - sum(rho)
        return (k, (k + n,) + rho) if alpha == 1 else (head - (nvars - 1) * n - k, rho + (k,))

    return sum(lam) + (nvars - 1) * shift, interlacing(lam, shift), term


@lru_cache(maxsize=1 << 13)
def _image(zkey, nvars, alpha, n):
    """M_{alpha,n} s_lam, zkey the key of lam, with the q-power left open:
    (|lam|, least and greatest |mu|, ((|mu|, key of s_kappa, c), ...), least
    and greatest part of a kappa), the keys packed with unit exponent 0: the
    terms of ``_terms``, straightened and merged."""
    lam = unpack(zkey, nvars)
    head, keys, term = _terms(lam, alpha, n)
    straightened = ((dmu, straighten(v)) for dmu, v in (term(head, k) for k in keys))
    out = _add_into({}, (((dmu, kappa), sign) for dmu, (sign, kappa) in straightened))
    terms = tuple((dmu, pack((0,) + kappa), c) for (dmu, kappa), c in out.items())
    dmus, firsts, lasts = zip(*((dmu, kappa[0], kappa[-1]) for dmu, kappa in out)) if out else ((0,),) * 3
    return sum(lam), min(dmus), max(dmus), terms, min(lasts), max(firsts)


def _unit_rates(op, alpha, n, ring, nvars):
    """(alpha, du_subset, du_all, du_const): an image term's unit exponent
    grows by du_subset per unit of |mu| (q on the subset), du_all per unit
    of |lam| (a dilation) and by du_const; op None is the identity."""
    if not 0 <= alpha <= nvars:
        raise ValueError("alpha out of range [0, r+1]")
    if op not in (None, "M", "D"):
        raise ValueError("unknown operator %r" % (op,))
    du_subset = 1 if ring == RING_Q else -2 * nvars
    if op != "D":
        return (alpha if op else 0), du_subset, 0, 0
    if ring != RING_W:
        raise ValueError("the twisted operator needs W-ring coefficients")
    # the prefactor w**(-lam(a,a) n - 2 sum_b lam(a,b)), where
    # lam(a,a) = a(r+1-a) and 2 sum_b lam(a,b) = (r+1) lam(a,a)
    return alpha, du_subset, 2 * alpha, -alpha * (nvars - alpha) * (n + nvars)


def operator_sum(terms):
    """The sum of coeff * u**shift * op(alpha, n, f) over the nonempty
    sequence ``terms`` of (op, alpha, n, f, shift, coeff), in one dict: op
    is "M", "D" (W ring only) or None, the identity (as is alpha = 0), and
    every f a Schur form over one ring (W or Q, with unit u) in r+1
    variables."""
    ring, nvars = terms[0][3].ring, terms[0][3].nvars
    out = {}
    get = out.get
    for op, alpha, n, f, shift, coeff in terms:
        if not isinstance(f, SchurPoly) or ring not in (RING_Q, RING_W) or (f.ring, f.nvars) != (ring, nvars):
            raise TypeError("the raising operators act on W- or Q-ring Schur forms of one ring and size")
        alpha, du_subset, du_all, du_const = _unit_rates(op, alpha, n, ring, nvars)
        du_const, step = du_const + shift, du_subset * UNIT
        if alpha == 0 and f.coeffs:
            if du_const:
                lo, hi = f.bounds()
                require_fit((lo[0] + du_const,), (hi[0] + du_const,))
            d = du_const * UNIT
            for key, c in f.coeffs.items():
                out[key + d] = get(key + d, 0) + coeff * c
            continue
        for key, c in f.coeffs.items():
            # s_lam reads the image of lam - lam_N, each kappa, |mu| and |lam|
            # moved by lam_N, alpha lam_N and N lam_N, in one offset per source
            top, core = column_split(key, nvars)
            zcore = core >> SLOT_BITS
            size, lo, hi, image, least, most = _image(zcore, nvars, alpha, n)
            if least + top < EXP_MIN or most + top > EXP_MAX:
                raise ExponentOverflow("a part of s_kappa would leave [%d, %d]" % (EXP_MIN, EXP_MAX))
            j = core - (zcore << SLOT_BITS) + EXP_MIN  # the unit exponent: core's low slot, less the bias
            base = j + du_all * (size + nvars * top) + du_const + du_subset * alpha * top
            if not EXP_MIN <= base + du_subset * lo <= EXP_MAX or not EXP_MIN <= base + du_subset * hi <= EXP_MAX:
                raise ExponentOverflow("unit exponent outside [%d, %d]" % (EXP_MIN, EXP_MAX))
            base = base * UNIT + key - core
            c *= coeff
            for dmu, kappa, b in image:
                kk = kappa + base + step * dmu
                out[kk] = get(kk, 0) + b * c
    return SchurPoly(ring, nvars, {k: c for k, c in out.items() if c})


def apply_M(alpha, n, f):
    """Act with the subset raising operator of index ``alpha`` and power ``n``
    on a Schur form ``f`` in r+1 variables (W- or Q-ring coefficients; the
    shift scales subset variables by q, q = w**(-2(r+1)) in the W ring)."""
    return operator_sum((("M", alpha, n, f, 0, 1),))


def apply_D(alpha, n, f):
    """Act with the twisted raising operator on a W-ring Schur form: subset
    variables are scaled by q*v**alpha, the rest by v**alpha, and the result
    carries the prefactor ``w**(-lam(a,a)*n - 2*sum_b lam(a,b))``."""
    return operator_sum((("D", alpha, n, f, 0, 1),))


class PackedSchur(Packed):
    """A Schur form with each s_lam's coefficient one ``laurent.Packed``
    row, as a raising chain keeps it: rows are keyed by the key of s_lam
    (unit exponent 0), and digit d is the coefficient of u**(offset +
    step*d).  The step is 1 over Q and -2N over W (q = w**(-2N)), so a W
    form has one |lam| and its w-exponents in one class mod 2N, as every
    D-chain value does."""

    __slots__ = ("ring", "nvars", "offset")

    def __init__(self, ring, nvars, offset, width, rows):
        super().__init__(width, rows)
        self.ring, self.nvars, self.offset = ring, nvars, offset

    @classmethod
    def one(cls, ring, nvars):
        return cls(ring, nvars, 0, kron_width(1), {zero_key(nvars + 1): (1, 0, 1)})

    def times_unit(self, k):
        return PackedSchur(self.ring, self.nvars, self.offset + k, *self.packing)

    def constrained(self):
        """The value modulo z_1...z_N = 1: each s_lam becomes s_{lam - lam_N},
        one integer still, as no two lam of one |lam| meet (every chain value
        has one |lam|); ValueError when two do."""
        s, rows = self.packing
        moved = {column_split(key, self.nvars)[1]: row for key, row in rows.items()}
        if len(moved) < len(rows):
            raise ValueError("two s_lam of the form meet modulo z_1...z_N = 1")
        return PackedSchur(self.ring, self.nvars, self.offset, s, moved)

    def top_digits(self):
        """(the greatest place d of a nonzero digit, {key of s_lam: its digit
        at d}), read off each integer: its top place is lo + bit_length //
        width, and the digits below the top are less than half a unit of it."""
        s, rows = self.packing
        places = {key: lo + abs(n).bit_length() // s for key, (_, lo, n) in rows.items()}
        top = max(places.values(), default=None)
        return top, {key: (n + (1 << s * (top - lo) >> 1)) >> s * (top - lo) for key, (_, lo, n) in rows.items() if places[key] == top}

    def _decoded(self):
        """[(key of s_lam, [(unit exponent, c), ...] by increasing place)];
        ``ExponentOverflow`` when an exponent leaves the unit slot."""
        step = 1 if self.ring == RING_Q else -2 * self.nvars
        rows = [(key, [(self.offset + step * d, c) for d, c in self.digits(key)]) for key in self.packing[1]]
        ends = [ds[i][0] for _, ds in rows for i in (0, -1)]
        require_fit((min(ends, default=0),), (max(ends, default=0),))
        return rows

    def coefficients(self):
        """{lam: [(unit exponent, c), ...] by increasing place}, lam the N
        parts of each s_lam."""
        return {unpack(key, self.nvars + 1)[1:]: ds for key, ds in self._decoded()}

    def schur(self) -> SchurPoly:
        return SchurPoly(self.ring, self.nvars, {key + e * UNIT: c for key, ds in self._decoded() for e, c in ds})


def packed_step(op, alpha, n, f: PackedSchur) -> PackedSchur:
    """op(alpha, n) f, op "M" or "D", with no image built: the rows are
    listed by head and branching key (``_terms``), which fix the term s_v
    and so |mu| and |lam|, and each key's term sign * s_kappa is built,
    straightened and packed once.  It adds sign times the sum of its rows'
    n_lam, each first moved to the least place of the form, |mu| places up
    to kappa's integer (``kron_add``): one shift-and-add whatever the
    q-length.  kappa's bound is the sum of bound_lam over the rows of the
    keys landing on it, and f is held at a width for the largest
    (``Packed.hold``).  Each row first passes the images' slot check
    (``column_split``).  D dilates by |lam|, so a D step needs one |lam|
    and raises ValueError before any work otherwise; M steps rows of any
    sizes."""
    ring, nvars = f.ring, f.nvars
    alpha, _, du_all, du_const = _unit_rates(op, alpha, n, ring, nvars)
    rows, groups = f.packing[1], {}
    if du_all:
        sizes = {sum(unpack(key >> SLOT_BITS, nvars)) for key in rows}
        if len(sizes) > 1:
            raise ValueError("a twisted step needs one |lam|, not %s" % sorted(sizes))
        du_const += du_all * next(iter(sizes), 0)
    for i, key in enumerate(rows):
        column_split(key, nvars)
        head, keys, term = _terms(unpack(key >> SLOT_BITS, nvars), alpha, n)
        by_key = groups.setdefault(head, {})
        for k in keys:
            by_key.setdefault(k, []).append(i)
    row_bounds = [bound for bound, _, _ in rows.values()]
    targets, bounds = [], {}
    for head, by_key in groups.items():
        for k, uses in by_key.items():
            dmu, v = term(head, k)
            sign, kappa = straighten(v)
            if sign:
                kappa = pack((0,) + kappa)
                bounds[kappa] = bounds.get(kappa, 0) + sum(map(row_bounds.__getitem__, uses))
                targets.append((kappa, sign, dmu, uses))
    s, rows = f.hold(max(bounds.values(), default=0))
    base = min((lo for _, lo, _ in rows.values()), default=0)
    values = [value << s * (lo - base) for _, lo, value in rows.values()].__getitem__
    acc = {}
    for kappa, sign, dmu, uses in targets:
        kron_add(acc, kappa, base + dmu, sign * sum(map(values, uses)), s)
    return PackedSchur(ring, nvars, f.offset + du_const, s, Packed.summed(acc, s, bounds))


def packed_sum(parts) -> list:
    """The sum of c * u**e * f over ``parts`` (f, e, c, m), f PackedSchurs of
    one ring and size (else TypeError), times e_m mod z_1...z_N = 1 by each
    row's Pieri keys when m is not None: one PackedSchur per u-exponent class
    mod 2N (one over Q), at offset the class, its rows ``kron_add``-ed at the
    widest part's or bound's width, narrower rows repacked; zero iff rowless."""
    classes, listed, s, first = {}, [], 1, parts[0][0] if parts else None
    for f, e, c, m in parts:
        if not isinstance(f, PackedSchur) or (f.ring, f.nvars) != (first.ring, first.nvars):
            raise TypeError("a packed sum takes PackedSchur values of one ring and size")
        place, cls = divmod(f.offset + e, 1 if f.ring == RING_Q else -2 * f.nvars)
        acc, bounds = classes.setdefault(cls, ({}, {}))
        width, rows = f.packing
        s = max(s, width)
        for key, (bound, lo, n) in rows.items():
            keys = (key,) if m is None else _pieri_constrained_keys(key, m, f.nvars)
            for k in keys:
                bounds[k] = bounds.get(k, 0) + abs(c) * bound
            listed.append((acc, keys, place + lo, c, n, width))
    s = max([s] + [kron_width(b) for _, bounds in classes.values() for b in bounds.values()])
    for acc, keys, lo, c, n, width in listed:
        n = c * (n if width == s else kron_repack(n, width, s))
        for k in keys:
            kron_add(acc, k, lo, n, s)
    return [PackedSchur(first.ring, first.nvars, cls, s, Packed.summed(acc, s, bounds)) for cls, (acc, bounds) in classes.items()]
