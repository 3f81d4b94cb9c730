"""q-difference operators acting on symmetric Laurent polynomials.

Three families act in r+1 variables:

* ``apply_M(alpha, n, f)``   -- subset operators sum_{|I|=alpha} z_I**n a_I(z) G_I,
  where ``G_I`` scales each z_i, i in I, by q and
  ``a_I = prod_{i in I, j not in I} z_i / (z_i - z_j)``;
* ``apply_D(alpha, n, f)``   -- the same sum with the twisted shift (every
  variable scaled by v, subset variables by q besides) and the prefactor
  ``v**(-lam(a,a)*n/2 - sum_b lam(a,b))``, acting on W-ring coefficients;
* ``apply_macdonald_qt(alpha, f)`` -- the classical Macdonald operator with
  coefficients prod (t z_i - z_j)/(z_i - z_j), on integer polynomials in
  q, t and the z's.

``apply_M`` and ``apply_D`` act on Schur forms (``symfun.SchurPoly``) in
closed form.  With x the first alpha variables and y the rest, restrict s_lam
to the two blocks, s_lam(q x, y) = sum c^lam_{mu nu} q**|mu| s_mu(x) s_nu(y).
When one block is a single variable (alpha = 1 or r), c^lam_{mu nu} is 1
exactly when the other block's part interlaces lam (Macdonald, I.5), and the
terms are read off those interlacing vectors; any other block takes the
Littlewood-Richardson fillings of ``symfun.branch``.  Clearing the
Vandermonde turns each term into a bialternant, and the subset sum
antisymmetrizes it, so

    M_{alpha,n} s_lam = sum c^lam_{mu nu} q**|mu| s_{(mu + n, nu)},

each s_{(mu + n, nu)} straightened to +-s_kappa or 0 (``laurent.straighten``).
One kernel, ``operator_sum``, forms every such action: a signed sum of M, D
and identity terms, each with its power of q (or w), in one dict.
``apply_M`` and ``apply_D`` are its one-term calls, and an operator identity
is one residual tested for zero, with no side formed.  A raising chain
steps a ``PackedSchur`` instead, a ``laurent.Packed`` with one row per
Schur coefficient (``packed_step``).  Both read the images of s_lam modulo
full columns.
The Macdonald operator has no such form; its Vandermonde-cleared subset sum
is one signed permutation orbit, read off as Schur coefficients
(``signed_buckets``), divided by alpha! (N - alpha)! exactly and expanded
by the one Schur-to-monomial rule (``symfun._schur_monomials``).  The
Kostka matrix is unitriangular over Z, so the Schur coefficients divide
exactly when the monomial ones do.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from .laurent import (
    EXP_MAX,
    EXP_MIN,
    SLOT_BITS,
    UNIT,
    LaurentPoly,
    Packed,
    delta_on,
    kron_add,
    kron_width,
    pack,
    require_fit,
    require_symmetric,
    signed_buckets,
    split_unit,
    straighten,
    unpack,
    zero_key,
)
from .rings import RING_Q, RING_QT, RING_W, ExponentOverflow, NotDivisible
from .symfun import SchurPoly, _schur_monomials, branch, column_split, interlacing


@lru_cache(maxsize=16)
def _pair_delta_qt(nvars, alpha):
    """delta_{I0} * delta_{J0} * prod_{i in I0, j in J0} (t z_i - z_j) for
    I0 = the first alpha variables, J0 the rest."""
    out = delta_on(RING_QT, nvars, range(alpha)) * delta_on(RING_QT, nvars, range(alpha, nvars))
    z = [LaurentPoly.variable(RING_QT, nvars, i) for i in range(nvars)]
    t = LaurentPoly.from_terms(RING_QT, nvars, [((0, 1) + (0,) * nvars, 1)])
    for i in range(alpha):
        for j in range(alpha, nvars):
            out = out * (t * z[i] - z[j])
    return out


@lru_cache(maxsize=1 << 13)
def _image(zkey, nvars, alpha, n):
    """M_{alpha,n} s_lam, zkey the key of lam, with the q-power left open:
    (|lam|, least and greatest |mu|, ((|mu|, key of s_kappa, c), ...), least
    and greatest part of a kappa), the keys packed with unit exponent 0.  A
    block of one variable (alpha = 1 or N - 1) has c^lam_{mu nu} = 1 exactly
    when the other block's rho interlaces lam, lam_{i+1} <= rho_i <= lam_i
    (Macdonald, I.5), the one variable taking k = |lam| - |rho|: its terms
    s_{(k + n, rho)} or s_{(rho + n, k)} come from those rho with no filling
    built (``symfun.interlacing``, capped).  Any other block takes the
    Littlewood-Richardson fillings of ``symfun.branch``."""
    lam = unpack(zkey, nvars)
    size = sum(lam)
    if min(alpha, nvars - alpha) != 1:
        parts = ((sum(mu), tuple(x + n for x in mu) + nu, c) for mu, nu, c in branch(lam, alpha))
    elif any(lam[i] < lam[i + 1] for i in range(nvars - 1)):
        raise ValueError("cannot branch %r at alpha = %d" % (lam, alpha))
    else:
        # at alpha = N - 1 rho is enumerated as rho + n, so |lam| - |rho| = lift - sum
        shift = 0 if alpha == 1 else n
        rhos = interlacing(lam, shift)
        lift = size + (nvars - 1) * shift
        if alpha == 1:
            parts = ((k, (k + n,) + rho, 1) for rho in rhos for k in (lift - sum(rho),))
        else:
            parts = ((size - k, rho + (k,), 1) for rho in rhos for k in (lift - sum(rho),))
    out = {}
    for dmu, v, c in parts:
        sign, kappa = straighten(v)
        if sign:
            key = (dmu, kappa)
            nv = out.get(key, 0) + sign * c
            if nv:
                out[key] = nv
            else:
                del out[key]
    terms = tuple((dmu, pack((0,) + kappa), c) for (dmu, kappa), c in out.items())
    dmus, firsts, lasts = zip(*((dmu, kappa[0], kappa[-1]) for dmu, kappa in out)) if out else ((0,),) * 3
    return size, min(dmus), max(dmus), terms, min(lasts), max(firsts)


@lru_cache(maxsize=1 << 14)
def _column_image(key, nvars, alpha, n):
    """(lam_N, lam_N full columns as a key offset, ``_image`` of lam -
    lam_N), key the key of s_lam with unit exponent 0: images are built
    modulo full columns (``symfun.column_split``), each kappa, |mu| and
    |lam| moving by lam_N, alpha lam_N and N lam_N.  ``ExponentOverflow``
    when a kappa part would leave the slot."""
    top, core = column_split(key, nvars)
    image = _image(core >> SLOT_BITS, nvars, alpha, n)
    if image[4] + top < EXP_MIN or image[5] + top > EXP_MAX:
        raise ExponentOverflow("a part of s_kappa would leave [%d, %d]" % (EXP_MIN, EXP_MAX))
    return top, key - core, image


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
            j = split_unit(key)[0]
            top, move, (size, lo, hi, image, _, _) = _column_image(key - j * UNIT, nvars, alpha, n)
            base = j + du_all * (size + nvars * top) + du_const + du_subset * alpha * top
            if not EXP_MIN <= base + du_subset * lo <= EXP_MAX or not EXP_MIN <= base + du_subset * hi <= EXP_MAX:
                raise ExponentOverflow("unit exponent outside [%d, %d]" % (EXP_MIN, EXP_MAX))
            # one offset per source: its unit exponent and lam_N full columns
            base = base * UNIT + move
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
    """op(alpha, n) f, op "M" or "D": each image term (|mu|, s_kappa, b) of
    s_lam adds n_lam * b, |mu| places up, to kappa's integer (``kron_add``),
    one shift-and-add whatever the q-length.  kappa's bound is the sum of
    bound_lam * |b| over the terms landing on it, and f is held at a width
    for the largest (``Packed.hold``)."""
    ring, nvars = f.ring, f.nvars
    alpha, du_subset, du_all, du_const = _unit_rates(op, alpha, n, ring, nvars)
    sources, bounds = [], {}
    for key, (bound, _, _) in f.packing[1].items():
        top, move, (size, _, _, image, _, _) = _column_image(key, nvars, alpha, n)
        sources.append((move, alpha * top, image))
        for _, kappa, b in image:
            kappa += move
            bounds[kappa] = bounds.get(kappa, 0) + bound * abs(b)
    s, rows = f.hold(max(bounds.values(), default=0))
    acc = {}
    for (move, up, image), (_, lo, value) in zip(sources, rows.values()):
        lo += up
        for dmu, kappa, b in image:
            kron_add(acc, kappa + move, lo + dmu, value * b, s)
    # every lam has one size, so the dilation moves every term alike
    offset = f.offset + du_const + (du_all * (size + nvars * top) if rows else 0)
    return PackedSchur(ring, nvars, offset, s, Packed.summed(acc, s, bounds))


def apply_macdonald_qt(alpha, f):
    """Act with the classical Macdonald operator of index ``alpha`` on a
    symmetric polynomial over the QT ring."""
    if f.ring != RING_QT:
        raise ValueError("Macdonald operator needs QT coefficients")
    nvars = f.nvars
    if not 0 <= alpha <= nvars:
        raise ValueError("alpha out of range [0, N]")
    require_symmetric(f)
    if alpha == 0 or f.is_zero():
        return f
    # q**(z_1 + .. + z_alpha) on each term: a key addition
    lo, hi = f.bounds()
    require_fit((lo[0] + sum(lo[2 : 2 + alpha]),), (hi[0] + sum(hi[2 : 2 + alpha]),))
    shifted = {k + sum(unpack(k, nvars + 2)[2 : 2 + alpha]) * UNIT: c for k, c in f.coeffs.items()}
    t0 = _pair_delta_qt(nvars, alpha) * LaurentPoly(RING_QT, nvars, shifted)
    den = factorial(alpha) * factorial(nvars - alpha)
    buckets = signed_buckets(t0)
    if any(c % den for payload in buckets.values() for c in payload.values()):
        raise NotDivisible("orbit sum not divisible by %d" % den)
    quot = {lam: {u: c // den for u, c in payload.items()} for lam, payload in buckets.items()}
    return _schur_monomials(quot, RING_QT, nvars)
