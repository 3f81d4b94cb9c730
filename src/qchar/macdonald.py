"""The classical Macdonald operator over Z[q, t] and Macdonald polynomials.

``apply_macdonald_m(alpha, m, N)`` acts with the Macdonald operator of index
alpha, coefficients prod (t z_i - z_j)/(z_i - z_j) over the alpha-subsets I
and a q-shift of the z_i, i in I, on m-forms {mu: {unit offset: int}}, the
sum of payload * m_mu over weakly decreasing N-vectors mu.  On m_mu its
Vandermonde-cleared subset sum is one z-part per block orbit of z**mu, each
times each term of the cleared factor straightened once (``_cleared``), the
Schur coefficients divided by alpha! (N - alpha)! exactly and read back by
Kostka numbers (``to_m_basis``).

``macdonald_poly`` builds Macdonald's integral form J_lam = c_lam P_lam,
c_lam = prod_{s in lam} (1 - q**a(s) t**(l(s)+1)) (*Symmetric Functions and
Hall Polynomials*, VI.8), as the eigenvector of the first Macdonald
difference operator with c_lam on m_lam, by a triangular solve on m-forms.
Its m-coefficients lie in Z[q, t] (Knop, *Integrality of two variable
Kostka functions*, 1997), so each one is a single exact division by an
eigenvalue gap (``_divide_gap``), and the result is verified by the
eigen-relation

    M_1^{q,t} J = (sum_i q**lam_i t**(N-i)) J

on m-forms.  This path never touches the raising-operator machinery of
``qdiff``, so its t = 0, q -> q**-1 specialization is a genuine cross-check
of the level-1 characters; since c_lam(q, 0) = 1, that limit is J's t**0
slice.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations
from math import factorial, prod

from .laurent import SLOT_BITS, LaurentPoly, _add_into, divide_binomial, key_bounds, require_fit, straighten, zero_key
from .records import FrozenRecord
from .rings import RING_Q, RING_QT, DegenerateEigenvalue, NotDivisible
from .symfun import _schur_zcoeffs, normalize_partition, partitions


# -- the operator on m-forms -------------------------------------------------


@lru_cache(maxsize=16)
def _pair_delta_qt(nvars, alpha):
    """The terms (z-vector less delta, t-power's unit offset, c) of P = delta_I
    delta_J prod_{i in I, j in J} (t z_i - z_j), I the first alpha variables."""
    z = [LaurentPoly.variable(RING_QT, nvars, i) for i in range(nvars)]
    t, out = LaurentPoly.from_terms(RING_QT, nvars, [((0, 1) + (0,) * nvars, 1)]), LaurentPoly.one(RING_QT, nvars)
    for i, j in combinations(range(nvars), 2):
        out = out * ((t if i < alpha <= j else 1) * z[i] - z[j])
    return tuple((tuple(x - i for x, i in zip(e[2:], range(nvars - 1, -1, -1))), e[1] << SLOT_BITS, c) for e, c in out.terms())


def _splits(mu, alpha):
    """(a + b, |a|, orbit size) for each orbit of S_alpha x S_{N - alpha} on
    the permutations of mu, a + b its member with both blocks decreasing."""
    blocks = {tuple(mu[i] for i in a): tuple(mu[i] for i in range(len(mu)) if i not in a) for a in combinations(range(len(mu)), alpha)}
    return sorted((a + b, sum(a), len(set(permutations(a))) * len(set(permutations(b)))) for a, b in blocks.items())


@lru_cache(maxsize=1 << 12)
def _cleared(mu, alpha):
    """alpha! (N - alpha)! M_alpha m_mu as ((lam, ((unit offset, c), ...)), ...)
    in the Schur basis: the signed orbit of P m_mu(q x, y) over a_delta.  P
    (``_pair_delta_qt``) is antisymmetric and m_mu(q x, y) symmetric under
    S_alpha x S_{N - alpha}, so each block orbit of z**mu adds its size times
    the signed orbit of P z**e, e its member in ``_splits``."""
    out = {}
    for e, shift, size in _splits(mu, alpha):
        for p, v, c in _pair_delta_qt(len(mu), alpha):
            sign, lam = straighten([x + y for x, y in zip(e, p)])
            if sign:
                _add_into(out.setdefault(lam, {}), ((v + shift, sign * size * c),))
    return tuple((lam, tuple(d.items())) for lam, d in out.items())


@lru_cache(maxsize=1 << 12)
def _kostka(lam, nvars):
    """((mu, K_{lam mu}), ...): the dominant terms of the cached s_lam."""
    return tuple((mu, d[0]) for mu, d in _schur_zcoeffs(lam, nvars).z_terms().items() if mu == tuple(sorted(mu, reverse=True)))


def to_m_basis(coeffs, nvars) -> dict:
    """The m-form of sum payload * s_lam over ``coeffs`` = {lam: payload},
    by Kostka numbers: s_lam = sum_mu K_{lam - lam_N, mu} m_{mu + lam_N}."""
    out = {}
    for lam, payload in coeffs.items():
        for mu, k in _kostka(normalize_partition(x - lam[-1] for x in lam), nvars):
            _add_into(out.setdefault(tuple(x + lam[-1] for x in mu), {}), ((u, k * c) for u, c in payload.items()))
    return {mu: d for mu, d in out.items() if d}


def apply_macdonald_m(alpha, m, nvars) -> dict:
    """The Macdonald operator of index alpha on an m-form over QT, {mu: {unit
    offset: int}} for sum payload * m_mu, mu weakly decreasing N-vectors: the
    ``_cleared`` images divided by alpha! (N - alpha)! exactly (else
    ``NotDivisible``) and read back.  The cleared offsets of m_mu run over
    q**|a|, from the alpha least parts of mu to the alpha greatest, times
    t**0 to t**(alpha (N - alpha)), each end reached, so ``ExponentOverflow``
    is raised exactly when a payload offset plus a cleared one leaves a unit
    slot."""
    cleared, zero = {}, zero_key(2)
    for mu, payload in m.items():
        if payload:
            lo, hi = key_bounds([u + zero for u in payload], 2)
            require_fit((lo[0] + sum(mu[nvars - alpha :]),), (hi[0] + sum(mu[:alpha]), hi[1] + alpha * (nvars - alpha)))
        for lam, image in _cleared(mu, alpha):
            acc = cleared.setdefault(lam, {})
            for v, d in image:
                for u, c in payload.items():
                    acc[u + v] = acc.get(u + v, 0) + c * d
    den = factorial(alpha) * factorial(nvars - alpha)
    if any(c % den for d in cleared.values() for c in d.values()):
        raise NotDivisible("orbit sum not divisible by %d" % den)
    return to_m_basis({lam: {u: c // den for u, c in d.items()} for lam, d in cleared.items()}, nvars)


# -- the integral form --------------------------------------------------------


class MacdonaldPoly(FrozenRecord):
    """J_lam as the m-form {mu: {unit offset: int}} over QT that the
    eigen-check verified, c_lam on m_lam, and its eigenvalue sum_i q**lam_i
    t**(N-i), a QT constant (no z-dependence)."""

    __slots__ = ("lam", "nvars", "form", "eigenvalue")

    def __init__(self, lam: tuple, nvars: int, form: dict, eigenvalue: LaurentPoly):
        self._set(lam, nvars, form, eigenvalue)


def _constant(nvars, terms):
    """The QT constant sum c q**i t**j over ((i, j), c) in ``terms``."""
    return LaurentPoly.from_terms(RING_QT, nvars, ((ij + (0,) * nvars, c) for ij, c in terms))


def eigenvalue_formula(lam, nvars):
    """sum_i q**lam_i t**(N-i) with lam padded by zeros to length N."""
    full = tuple(lam) + (0,) * (nvars - len(lam))
    return _constant(nvars, (((part, nvars - 1 - i), 1) for i, part in enumerate(full)))


def integral_norm(lam, nvars):
    """c_lam = prod over the cells (i, j) of lam of 1 - q**(lam_i - j - 1)
    t**(lam'_j - i), 0-based: arm a(s) and leg l(s) + 1."""
    cells = ((part - j - 1, sum(p > j for p in lam[i:])) for i, part in enumerate(lam) for j in range(part))
    return prod((_constant(nvars, (((0, 0), 1), (cell, -1))) for cell in cells), start=LaurentPoly.one(RING_QT, nvars))


def _payload(c: LaurentPoly) -> dict:
    """A constant as an m-form payload, {unit offset: int}."""
    zero = zero_key(c.width)
    return {k - zero: x for k, x in c.coeffs.items()}


def _t_slices(f: LaurentPoly) -> dict:
    """{j: the terms of a QT polynomial with t-exponent j, as a Q-ring
    polynomial}: each key's t slot dropped, the z slots moved down."""
    out, bias = {}, zero_key(1)
    for k, c in f.coeffs.items():
        tz = k >> SLOT_BITS  # the key of (t, z)
        z = tz >> SLOT_BITS
        out.setdefault(tz - (z << SLOT_BITS) - bias, {})[k - (tz << SLOT_BITS) + (z << SLOT_BITS)] = c
    return {j: LaurentPoly(RING_Q, f.nvars, d) for j, d in out.items()}


def _from_payload(nvars, d) -> LaurentPoly:
    """The QT constant of an m-form payload."""
    return LaurentPoly(RING_QT, nvars, {zero_key(nvars + 2) + u: c for u, c in d.items()})


def _column(mu, nvars) -> dict:
    """M_1 m_mu as {nu: QT constant}, mu and nu weakly decreasing N-vectors."""
    return {nu: _from_payload(nvars, d) for nu, d in apply_macdonald_m(1, {mu: {0: 1}}, nvars).items()}


def _divide_gap(f: LaurentPoly, gap: LaurentPoly) -> LaurentPoly:
    """f / gap for QT constants, exactly, the lowest t-slice of ``gap`` a
    binomial +-q**e (1 - q**d), d > 0: for e_lam - e_nu, q**lam_j - q**nu_j
    at the last row j where lam and nu differ.  From the lowest t-order up,
    each quotient slice is one ``divide_binomial`` pass in q over the
    dividend's lowest slice, and the gap's higher slices times it leave the
    dividend's higher ones.  A remainder raises ``NotDivisible``."""
    (low, lowest), *higher = sorted(_t_slices(gap).items())
    binomial = sorted(_payload(lowest).items())
    if [c for _, c in binomial] not in ([1, -1], [-1, 1]):
        raise NotDivisible("the gap's lowest t-slice is no binomial +-q**e (1 - q**d)")
    (e, sign), (top, _) = binomial
    step, rem, pad, quotient = top - e, _t_slices(f), (0,) * f.nvars, []
    zero = LaurentPoly.zero(RING_Q, f.nvars)
    for order in range(min(rem, default=0), max(rem, default=-1) + low - gap.bounds()[1][1] + 1):
        exps = _payload(rem.pop(order, zero))  # {q-exponent: int}
        if not exps:
            continue
        base = min(exps)
        rows = [{0: exps[i]} if i in exps else {} for i in range(base, max(exps) + 1)]
        divide_binomial(rows, 0, step)
        size = len(rows) - step
        if size <= 0 or any(rows[size:]):
            raise NotDivisible("no exact quotient by the binomial 1 - q**%d" % step)
        terms = [(base + i - e, sign * c) for i, row in enumerate(rows[:size]) for c in row.values()]
        part = LaurentPoly.from_terms(RING_Q, f.nvars, (((i,) + pad, c) for i, c in terms))
        for j, g in higher:
            j += order - low
            rem[j] = rem.get(j, zero) - part * g
        quotient += (((i, order - low), c) for i, c in terms)
    if any(rem.values()):
        raise NotDivisible("no exact quotient by the eigenvalue gap")
    return _constant(f.nvars, quotient)


def macdonald_poly(lam, nvars: int) -> MacdonaldPoly:
    """The integral form J_lam(z_1..z_N; q, t) = c_lam P_lam, exactly."""
    lam = normalize_partition(lam)
    if len(lam) > nvars:
        raise ValueError("partition has more parts than variables")
    # an m-form keys m_mu by mu padded to N parts, in the order of the partitions
    basis = [mu + (0,) * (nvars - len(mu)) for mu in sorted(partitions(sum(lam), nvars), reverse=True)]
    columns, top = {mu: _column(mu, nvars) for mu in basis}, lam + (0,) * (nvars - len(lam))
    zero = LaurentPoly.zero(RING_QT, nvars)
    eig = columns[top].get(top, zero)
    # J_lam = sum_mu coeffs[mu] m_mu; each lower coefficient is the column sum
    # over the higher ones, divided by its eigenvalue gap
    coeffs = {top: integral_norm(lam, nvars)}
    for mu in basis:
        if mu >= top:
            continue
        acc = LaurentPoly.sum(RING_QT, nvars, (columns[nu][mu] * c for nu, c in coeffs.items() if mu in columns[nu]))
        if not acc:
            continue
        gap = eig - columns[mu].get(mu, zero)
        if not gap:
            raise DegenerateEigenvalue("eigenvalue collision between %r and %r" % (lam, normalize_partition(mu)))
        coeffs[mu] = _divide_gap(acc, gap)

    if eig != eigenvalue_formula(lam, nvars):
        raise ArithmeticError("triangular eigenvalue disagrees with the formula")
    form = {mu: _payload(c) for mu, c in coeffs.items()}
    if apply_macdonald_m(1, form, nvars) != {mu: _payload(c * eig) for mu, c in coeffs.items()}:
        raise ArithmeticError("eigen-relation failed for %r" % (lam,))
    return MacdonaldPoly(lam, nvars, form, eig)


# -- specializations ---------------------------------------------------------


def qt_t_infinity_limit(f: LaurentPoly, shift: int) -> LaurentPoly:
    """lim_{t -> oo} t**(-shift) f, coefficientwise in the z's, for a QT
    polynomial f: the terms of t-degree ``shift``, as a Q-ring polynomial.
    Raises ``ArithmeticError`` when a coefficient has a higher t-degree and
    the limit diverges."""
    if f and f.bounds()[1][1] > shift:
        raise ArithmeticError("t -> oo limit diverges")
    return _t_slices(f).get(shift, LaurentPoly.zero(RING_Q, f.nvars))


def qwhittaker_specialize(J: MacdonaldPoly) -> dict:
    """The q-Whittaker specialization, t = 0 then q -> q**-1, on m-forms:
    {mu: {q-exponent: int}}, J's t**0 slice read in q**-1.  c_lam(q, 0) = 1,
    so this is P_lam's limit too, and for a Macdonald polynomial exactly a
    level-1 graded character."""
    slices = {mu: _t_slices(_from_payload(J.nvars, d)) for mu, d in J.form.items()}
    return {mu: {-e: x for e, x in _payload(s[0]).items()} for mu, s in slices.items() if 0 in s}
