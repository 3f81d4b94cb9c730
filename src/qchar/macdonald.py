"""Independent Macdonald polynomial construction over Z[q, t].

``macdonald_poly`` builds P_lam as the unique monic-in-m_lam eigenvector of
the first Macdonald difference operator by a triangular solve on m-forms
(``qdiff.apply_macdonald_m``).  The solve is fraction-free: it keeps
P_lam = C / D with C an m-form over Z[q, t] and D in Z[q, t] (the
denominators Macdonald's integral form clears, *Symmetric Functions and
Hall Polynomials*, VI.8), verifies the eigen-relation

    M_1^{q,t} C = (sum_i q**lam_i t**(N-i)) C

on m-forms, and expands C into monomials once (``symfun.m_monomials``),
the numerator of the result.  This path never touches the
raising-operator machinery, so its t = 0, q -> q**-1 specialization is a
genuine cross-check of the level-1 characters; the t = 0 limit peels the
binomials 1 - q**i of D by one-pass divisions (``qt_specialize_t0_qinv``).
"""

from __future__ import annotations

from .laurent import SLOT_BITS, LaurentPoly, divide_binomial, pack, split_unit, zero_key
from .qdiff import apply_macdonald_m
from .records import FrozenRecord
from .rings import RING_Q, RING_QT, DegenerateEigenvalue, NotDivisible, PoleAtZero
from .symfun import m_monomials, normalize_partition, partitions


class MacdonaldPoly(FrozenRecord):
    """P_lam = numerator / denominator, monic on m_lam; the denominator and
    the eigenvalue (sum_i q**lam_i t**(N-i)) are QT constants (no
    z-dependence)."""

    __slots__ = ("lam", "nvars", "numerator", "denominator", "eigenvalue")

    def __init__(self, lam: tuple, nvars: int, numerator: LaurentPoly, denominator: LaurentPoly, eigenvalue: LaurentPoly):
        self._set(lam, nvars, numerator, denominator, eigenvalue)


def _constant(nvars, terms):
    """The QT constant sum c q**i t**j over ((i, j), c) in ``terms``."""
    return LaurentPoly.from_terms(RING_QT, nvars, ((ij + (0,) * nvars, c) for ij, c in terms))


def eigenvalue_formula(lam, nvars):
    """sum_i q**lam_i t**(N-i) with lam padded by zeros to length N."""
    full = tuple(lam) + (0,) * (nvars - len(lam))
    return _constant(nvars, (((part, nvars - 1 - i), 1) for i, part in enumerate(full)))


def _payload(c: LaurentPoly) -> dict:
    """A QT constant as an m-form payload, {unit offset: int}."""
    zero = zero_key(c.width)
    return {k - zero: x for k, x in c.coeffs.items()}


def _column(mu, nvars) -> dict:
    """M_1 m_mu as {nu: QT constant}, mu and nu weakly decreasing N-vectors."""
    image = apply_macdonald_m(1, {mu: {0: 1}}, nvars).items()
    return {nu: LaurentPoly(RING_QT, nvars, {zero_key(nvars + 2) + u: c for u, c in d.items()}) for nu, d in image}


def macdonald_poly(lam, nvars: int) -> MacdonaldPoly:
    """The Macdonald polynomial P_lam(z_1..z_N; q, t), exactly."""
    lam = normalize_partition(lam)
    if len(lam) > nvars:
        raise ValueError("partition has more parts than variables")
    # an m-form keys m_mu by mu padded to N parts, in the order of the partitions
    basis = [mu + (0,) * (nvars - len(mu)) for mu in sorted(partitions(sum(lam), nvars), reverse=True)]
    columns, top = {mu: _column(mu, nvars) for mu in basis}, lam + (0,) * (nvars - len(lam))
    zero = LaurentPoly.zero(RING_QT, nvars)
    eig = columns[top].get(top, zero)
    # P_lam = sum_mu numer[mu] m_mu / den; each nonzero step multiplies the
    # numerators so far and den by its eigenvalue gap, so nothing is divided
    numer = {top: LaurentPoly.one(RING_QT, nvars)}
    den = LaurentPoly.one(RING_QT, nvars)
    for mu in basis:
        if mu >= top:
            continue
        acc = LaurentPoly.sum(RING_QT, nvars, (columns[nu][mu] * c for nu, c in numer.items() if mu in columns[nu]))
        if not acc:
            continue
        gap = eig - columns[mu].get(mu, zero)
        if not gap:
            raise DegenerateEigenvalue("eigenvalue collision between %r and %r" % (lam, normalize_partition(mu)))
        numer = {nu: c * gap for nu, c in numer.items()}
        numer[mu] = acc
        den = den * gap

    if eig != eigenvalue_formula(lam, nvars):
        raise ArithmeticError("triangular eigenvalue disagrees with the formula")
    form = {mu: _payload(c) for mu, c in numer.items()}
    if apply_macdonald_m(1, form, nvars) != {mu: _payload(c * eig) for mu, c in numer.items()}:
        raise ArithmeticError("eigen-relation failed for %r" % (lam,))
    return MacdonaldPoly(lam, nvars, m_monomials(form, RING_QT, nvars), den, eig)


# -- specializations ---------------------------------------------------------


def _t_slice(f: LaurentPoly, j: int) -> LaurentPoly:
    """The terms of a QT polynomial with t-exponent j, as a Q-ring
    polynomial: each key's t slot dropped, the z slots moved down."""
    t, out = zero_key(1) + j, {}
    for k, c in f.coeffs.items():
        tz = k >> SLOT_BITS  # the key of (t, z)
        z = tz >> SLOT_BITS
        if tz - (z << SLOT_BITS) == t:
            out[k - (tz << SLOT_BITS) + (z << SLOT_BITS)] = c
    return LaurentPoly(RING_Q, f.nvars, out)


def _q_rows(f: LaurentPoly):
    """(base, rows) for a nonzero Q-ring polynomial: rows[e] = {z-key: int}
    is its coefficient of q**(base + e)."""
    (base, *_), (top, *_) = f.bounds()
    rows = [{} for _ in range(top - base + 1)]
    for k, c in f.coeffs.items():
        i, z = split_unit(k)
        rows[i - base][z] = c
    return base, rows


def _divides(rows, i: int) -> bool:
    """Divide the rows of a polynomial in q by 1 - q**i in place; True, with
    the quotient left in ``rows``, when the binomial divides it."""
    divide_binomial(rows, 0, i)
    top = max(len(rows) - i, 0)
    if any(rows[top:]):
        return False
    del rows[top:]
    return True


def qt_specialize_t0_qinv(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """t = 0, then q -> q**-1, of num / den for a QT polynomial ``num`` and a
    nonzero QT constant ``den``; a Q-ring polynomial.

    The limit is the quotient of the two coefficients at the lowest t-order
    of ``den``.  Raises ``PoleAtZero`` when some coefficient of ``num`` has a
    lower t-order, ``NotDivisible`` when the quotient is not an integer
    Laurent polynomial in q, and ``ExponentOverflow`` when it leaves the
    exponent range.  ``den``'s slice sheds its factors 1 - q**i one by one,
    ``num``'s is divided by each in one pass, and what is left, c q**m, must
    divide it coefficientwise.  That is exact for Macdonald denominators:
    each eigenvalue gap sum_i (q**lam_i - q**mu_i) t**(N-i) has a binomial
    q**lam_j - q**mu_j as its lowest t-term, and the lowest slice of a
    product is the product of the lowest slices, so ``den``'s slice is
    c q**m prod_k (1 - q**d_k).  Its next term after c q**m is
    -c #{k: d_k = d} q**(m + d) for the least d_k = d, so the factor is read
    off that term; trying 1 - q**i for any i that divides would take 1 - q
    out of 1 - q**2 and strand 1 + q.  Any other factor, such as 1 + q,
    raises ``NotDivisible`` even when ``num`` is a multiple of it; no
    Macdonald denominator has one."""
    if not den:
        raise ZeroDivisionError("zero denominator")
    lo, hi = den.bounds()
    if any(lo[2:]) or any(hi[2:]):
        raise ValueError("the denominator must not depend on the z's")
    order = lo[1]
    if num and num.bounds()[0][1] < order:
        raise PoleAtZero("numerator has a lower t-order than the denominator")
    num = _t_slice(num, order)
    if not num:
        return num
    (nbase, nrows), (dbase, drows) = _q_rows(num), _q_rows(_t_slice(den, order))
    while len(drows) > 1:
        i = next(e for e in range(1, len(drows)) if drows[e])
        if not (_divides(drows, i) and _divides(nrows, i)):
            raise NotDivisible("no exact quotient by the binomial 1 - q**%d" % i)
    (c,) = drows[0].values()
    if any(x % c for row in nrows for x in row.values()):
        raise NotDivisible("a coefficient is not divisible by %d" % c)
    return num._like(
        {(z << SLOT_BITS) + pack((dbase - nbase - e,)): x // c for e, row in enumerate(nrows) for z, x in row.items()}
    )


def qt_t_infinity_limit(f: LaurentPoly, shift: int) -> LaurentPoly:
    """lim_{t -> oo} t**(-shift) f, coefficientwise in the z's, for a QT
    polynomial f: the terms of t-degree ``shift``, as a Q-ring polynomial.
    Raises ``ArithmeticError`` when a coefficient has a higher t-degree and
    the limit diverges."""
    if f and f.bounds()[1][1] > shift:
        raise ArithmeticError("t -> oo limit diverges")
    return _t_slice(f, shift)


def qwhittaker_specialize(P: MacdonaldPoly) -> LaurentPoly:
    """The q-Whittaker specialization: set t = 0, then substitute q -> q**-1.

    Returns a Q-ring polynomial in the same variables; for a Macdonald
    polynomial this is exactly a level-1 graded character."""
    return qt_specialize_t0_qinv(P.numerator, P.denominator)

