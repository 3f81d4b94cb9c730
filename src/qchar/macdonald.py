"""Independent Macdonald polynomial construction over QQ(q, t).

``macdonald_poly`` builds P_lam as the unique monic-in-m_lam eigenvector of
the first Macdonald difference operator by a triangular solve on the
monomial-symmetric basis, and verifies the eigen-relation

    M_1^{q,t} P_lam = (sum_i q**lam_i t**(N-i)) P_lam

before returning.  This path never touches the raising-operator machinery,
so its t = 0, q -> q**-1 specialization is a genuine cross-check of the
level-1 characters.
"""

from __future__ import annotations

from dataclasses import dataclass

from .laurent import LaurentPoly
from .qdiff import apply_macdonald_qt
from .rings import (
    QT_FIELD,
    RING_Q,
    RING_QT,
    DegenerateEigenvalue,
    NotDivisible,
    PoleAtZero,
    qt_int,
    qt_q,
    qt_t,
)
from .symfun import monomial_sym, normalize_partition, partitions


@dataclass(frozen=True)
class MacdonaldPoly:
    lam: tuple
    nvars: int
    poly: LaurentPoly  # QT coefficients, monic on m_lam
    eigenvalue: object  # field element, sum_i q**lam_i t**(N-i)


def eigenvalue_formula(lam, nvars):
    """sum_i q**lam_i t**(N-i) with lam padded by zeros to length N."""
    full = tuple(lam) + (0,) * (nvars - len(lam))
    out = QT_FIELD.zero
    for i, part in enumerate(full):
        out = out + qt_q**part * qt_t ** (nvars - 1 - i)
    return out


def _m_expand(f: LaurentPoly) -> dict:
    """Monomial-symmetric expansion of a symmetric QT polynomial."""
    out = {}
    for exps, c in f.terms():
        if all(exps[i] >= exps[i + 1] for i in range(len(exps) - 1)):
            out[normalize_partition(exps)] = c
    return out


def macdonald_poly(lam, nvars: int) -> MacdonaldPoly:
    """The Macdonald polynomial P_lam(z_1..z_N; q, t), exactly."""
    lam = normalize_partition(lam)
    if len(lam) > nvars:
        raise ValueError("partition has more parts than variables")
    size = sum(lam)
    basis = sorted(partitions(size, nvars), reverse=True)
    columns = {}
    for mu in basis:
        image = apply_macdonald_qt(1, monomial_sym(mu, nvars, RING_QT), checked=True)
        columns[mu] = _m_expand(image)

    eig = columns[lam].get(lam, QT_FIELD.zero)
    coeffs = {lam: qt_int(1)}
    for mu in basis:
        if mu >= lam:
            continue
        acc = QT_FIELD.zero
        for nu, cnu in coeffs.items():
            a = columns[nu].get(mu)
            if a is not None:
                acc = acc + a * cnu
        if not acc:
            continue
        gap = eig - columns[mu].get(mu, QT_FIELD.zero)
        if not gap:
            raise DegenerateEigenvalue(
                "eigenvalue collision between %r and %r" % (lam, mu)
            )
        coeffs[mu] = acc / gap

    poly = LaurentPoly.zero(RING_QT, nvars)
    for mu, c in coeffs.items():
        poly = poly + monomial_sym(mu, nvars, RING_QT).times_scalar_raw(c)

    expected = eigenvalue_formula(lam, nvars)
    if eig != expected:
        raise ArithmeticError("triangular eigenvalue disagrees with the formula")
    if apply_macdonald_qt(1, poly, checked=True) != poly.times_scalar_raw(eig):
        raise ArithmeticError("eigen-relation failed for %r" % (lam,))
    return MacdonaldPoly(lam, nvars, poly, eig)


# -- specializations ---------------------------------------------------------


def _poly_terms(pe):
    """terms() of a sympy PolyElement as a plain dict {(eq, et): QQ}."""
    return dict(pe.terms())


def _univariate_div(num, den):
    """Exact division of Laurent polynomials in one variable over QQ,
    given as {exponent: QQ coefficient}; raises NotDivisible on remainder."""
    from sympy.polys.domains import QQ

    if not den:
        raise ZeroDivisionError
    if not num:
        return {}
    lo_n, lo_d = min(num), min(den)
    n = {e - lo_n: c for e, c in num.items()}
    d = {e - lo_d: c for e, c in den.items()}
    dtop = max(d)
    quot = {}
    work = dict(n)
    while work:
        top = max(work)
        if top < dtop:
            raise NotDivisible("univariate remainder is nonzero")
        qe = top - dtop
        qc = work[top] / d[dtop]
        quot[qe] = qc
        for e, c in d.items():
            ee = qe + e
            nv = work.get(ee, QQ.zero) - qc * c
            if nv:
                work[ee] = nv
            else:
                work.pop(ee, None)
    return {e + lo_n - lo_d: c for e, c in quot.items()}


def _as_int_dict(d):
    from sympy.polys.domains import QQ

    out = {}
    for e, c in d.items():
        if QQ.denom(c) != 1:
            raise NotDivisible("coefficient %s is not an integer" % (c,))
        out[e] = int(QQ.numer(c))
    return out


def qt_specialize_t0_qinv(c) -> dict:
    """t = 0 then q -> q**-1 of a field element; returns {q-exponent: int}.

    Raises ``PoleAtZero`` when the denominator vanishes at t = 0 and
    ``NotDivisible`` when the result is not an integer Laurent polynomial."""
    num = {m[0]: v for m, v in _poly_terms(c.numer).items() if m[1] == 0}
    den = {m[0]: v for m, v in _poly_terms(c.denom).items() if m[1] == 0}
    if not den:
        raise PoleAtZero("denominator vanishes at t = 0")
    if not num:
        return {}
    num = {-e: v for e, v in num.items()}
    den = {-e: v for e, v in den.items()}
    return _as_int_dict(_univariate_div(num, den))


def qt_t_infinity_limit(c, shift: int) -> dict:
    """lim_{t -> oo} t**(-shift) * c as {q-exponent: int}; error when the
    limit diverges or is not an integer Laurent polynomial in q."""
    if not c:
        return {}
    nterms = _poly_terms(c.numer)
    dterms = _poly_terms(c.denom)
    ntop = max(m[1] for m in nterms)
    dtop = max(m[1] for m in dterms)
    if ntop - dtop > shift:
        raise ArithmeticError("t -> oo limit diverges")
    if ntop - dtop < shift:
        return {}
    num = {m[0]: v for m, v in nterms.items() if m[1] == ntop}
    den = {m[0]: v for m, v in dterms.items() if m[1] == dtop}
    return _as_int_dict(_univariate_div(num, den))


def qwhittaker_specialize(P: MacdonaldPoly) -> LaurentPoly:
    """The q-Whittaker specialization: set t = 0, then substitute q -> q**-1.

    Returns a Q-ring polynomial in the same variables; for a Macdonald
    polynomial this is exactly a level-1 graded character."""
    return LaurentPoly.from_terms(
        RING_Q,
        P.nvars,
        (
            ((qe,) + exps, ival)
            for exps, c in P.poly.terms()
            for qe, ival in qt_specialize_t0_qinv(c).items()
        ),
    )


def lift_q_to_qt(f: LaurentPoly) -> LaurentPoly:
    """Embed a Q-ring polynomial into the QT ring (t-free coefficients)."""
    if f.ring != RING_Q:
        raise ValueError("expected a Q-ring polynomial")
    return LaurentPoly.from_terms(
        RING_QT,
        f.nvars,
        (
            (z, sum((qt_int(c) * qt_q**j for j, c in s.data.items()), QT_FIELD.zero))
            for z, s in f.z_terms().items()
        ),
    )
