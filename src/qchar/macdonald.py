"""Independent Macdonald polynomial construction over Z[q, t].

``macdonald_poly`` builds Macdonald's integral form J_lam = c_lam P_lam,
c_lam = prod_{s in lam} (1 - q**a(s) t**(l(s)+1)) (*Symmetric Functions and
Hall Polynomials*, VI.8), as the eigenvector of the first Macdonald
difference operator with c_lam on m_lam, by a triangular solve on m-forms
(``qdiff.apply_macdonald_m``).  Its m-coefficients lie in Z[q, t] (Knop,
*Integrality of two variable Kostka functions*, 1997), so each one is a
single exact division by an eigenvalue gap (``_divide_gap``), and the
result is verified by the eigen-relation

    M_1^{q,t} J = (sum_i q**lam_i t**(N-i)) J

on m-forms.  This path never touches the raising-operator machinery, so its
t = 0, q -> q**-1 specialization is a genuine cross-check of the level-1
characters; since c_lam(q, 0) = 1, that limit is J's t**0 slice.
"""

from __future__ import annotations

from math import prod

from .laurent import SLOT_BITS, LaurentPoly, divide_binomial, zero_key
from .qdiff import apply_macdonald_m
from .records import FrozenRecord
from .rings import RING_Q, RING_QT, DegenerateEigenvalue, NotDivisible
from .symfun import normalize_partition, partitions


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
