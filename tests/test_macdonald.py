"""Macdonald oracle tests: triangular construction, duality, and both
degenerate limits."""

import pytest

from oracles import dominates, project_qt_to_q
from qchar.characters import NVector, graded_character
from qchar.laurent import LaurentPoly
from qchar.macdonald import (
    eigenvalue_formula,
    lift_q_to_qt,
    macdonald_poly,
    qt_specialize_t0_qinv,
    qt_t_infinity_limit,
    qwhittaker_specialize,
)
from qchar.qdiff import apply_macdonald_qt
from qchar.rings import (
    QT_FIELD,
    RING_Q,
    RING_QT,
    PoleAtZero,
    qt_int,
    qt_q,
    qt_t,
)
from qchar.symfun import elementary, monomial_sym, partitions


def test_single_class_cases():
    assert macdonald_poly((1,), 3).poly == elementary(1, 3, RING_QT)
    assert macdonald_poly((1, 1), 3).poly == elementary(2, 3, RING_QT)
    assert macdonald_poly((), 2).poly == LaurentPoly.one(RING_QT, 2)


def test_two_class_case_and_duality():
    P = macdonald_poly((2,), 2)
    c = P.poly.scalar_coeff((1, 1)).data
    # classical coefficient (1+q)(1-t)/(1-qt), eigen-validated in-module
    assert c * (qt_int(1) - qt_q * qt_t) == (qt_int(1) + qt_q) * (qt_int(1) - qt_t)

    def qt_invert(e):
        def flip(pe):
            out = QT_FIELD.zero
            for m, v in pe.terms():
                out = out + (QT_FIELD.one * v) * qt_q ** (-m[0]) * qt_t ** (-m[1])
            return out

        return flip(e.numer) / flip(e.denom)

    assert qt_invert(c) == c


def test_triangularity():
    P = macdonald_poly((2, 1), 3)
    for key, _ in P.poly.terms():
        mu = tuple(sorted(key, reverse=True))
        mu = tuple(x for x in mu if x)
        assert dominates((2, 1), mu)


def test_eigen_relation_second_operator():
    # the construction uses only the first operator; the second one must then
    # also act diagonally, with eigenvalue t**(-a(a-1)/2) e_a(q^lam_i t^(N-i))
    # (the bare subset form carries no t-power normalization)
    P = macdonald_poly((2,), 3)
    full = (2, 0, 0)
    spectrum = [qt_q ** full[i] * qt_t ** (3 - 1 - i) for i in range(3)]
    e2 = (
        spectrum[0] * spectrum[1]
        + spectrum[0] * spectrum[2]
        + spectrum[1] * spectrum[2]
    ) / qt_t
    assert apply_macdonald_qt(2, P.poly) == P.poly.times_scalar_raw(e2)


def test_eigenvalue_formula():
    assert eigenvalue_formula((), 2) == qt_t + qt_int(1)
    assert eigenvalue_formula((3, 1), 2) == qt_q**3 * qt_t + qt_q


def test_whittaker_specialization_matches_characters():
    for nvars in (2, 3):
        r = nvars - 1
        for size in range(0, 5):
            for lam in partitions(size, nvars):
                P = macdonald_poly(lam, nvars)
                w = qwhittaker_specialize(P)
                full = tuple(lam) + (0,) * (nvars - len(lam))
                n = NVector.level_one(r, tuple(full[a] - full[a + 1] for a in range(r)))
                chi = graded_character(n).poly
                if full[-1]:
                    chi = chi.times_z((full[-1],) * nvars)
                assert w == chi, (nvars, lam)


def test_scalar_specialization_helpers():
    c = (qt_int(1) + qt_q) * (qt_int(1) - qt_t) / (qt_int(1) - qt_q * qt_t)
    assert qt_specialize_t0_qinv(c) == {0: 1, -1: 1}
    with pytest.raises(PoleAtZero):
        qt_specialize_t0_qinv(qt_int(1) / qt_t)
    assert qt_t_infinity_limit(qt_t**2 * qt_q + qt_t, 2) == {1: 1}
    assert qt_t_infinity_limit(qt_t, 2) == {}
    with pytest.raises(ArithmeticError):
        qt_t_infinity_limit(qt_t**3, 2)


def test_lift_and_project_roundtrip():
    chi = graded_character(NVector.level_one(2, (1, 1))).poly
    assert project_qt_to_q(lift_q_to_qt(chi)) == chi


def test_degenerate_limit_eigenrelation():
    n = NVector.level_one(2, (1, 1))
    chi = graded_character(n).poly
    lifted = lift_q_to_qt(chi)
    for alpha in (1, 2):
        g = apply_macdonald_qt(alpha, lifted, checked=True)
        out = {}
        for key, c in g.terms():
            for qe, iv in qt_t_infinity_limit(c, alpha * (3 - alpha)).items():
                out[(qe,) + key] = iv
        ev = sum(min(alpha, b) for b in (1, 2))
        assert LaurentPoly.from_terms(RING_Q, 3, out) == chi.times_unit(ev)
