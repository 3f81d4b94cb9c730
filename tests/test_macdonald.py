"""Macdonald oracle tests: the fraction-free triangular construction against
the field solve of ``oracles``, duality, both degenerate limits, and
negative controls."""

import pytest

from oracles import (
    dominates,
    project_qt_to_q,
    qt_to_ref,
    ref_exact_div,
    ref_macdonald_poly,
    ref_specialize_t0_qinv,
)
import qchar.macdonald as macdonald
from qchar.characters import NVector, graded_character
from qchar.laurent import EXP_MIN, LaurentPoly
from qchar.macdonald import (
    eigenvalue_formula,
    macdonald_poly,
    qt_specialize_t0_qinv,
    qt_t_infinity_limit,
    qwhittaker_specialize,
)
from qchar.qdiff import apply_macdonald_qt
from qchar.rings import RING_Q, RING_QT, RING_W, ExponentOverflow, NotDivisible, PoleAtZero
from qchar.symfun import elementary, partitions, partitions_up_to


def qt_const(nvars, terms):
    """The QT constant sum c q**i t**j over {(i, j): c}."""
    return LaurentPoly.from_terms(RING_QT, nvars, {ij + (0,) * nvars: c for ij, c in terms.items()})


def coeff_at(f, z):
    """The coefficient of z**z in a QT polynomial, as a QT constant."""
    return qt_const(f.nvars, {e[:2]: c for e, c in f.terms() if e[2:] == z})


def test_single_class_cases():
    for lam, nvars, expected in [
        ((1,), 3, elementary(1, 3, RING_QT)),
        ((1, 1), 3, elementary(2, 3, RING_QT)),
        ((), 2, LaurentPoly.one(RING_QT, 2)),
    ]:
        P = macdonald_poly(lam, nvars)
        assert P.denominator == LaurentPoly.one(RING_QT, nvars)
        assert P.numerator == expected


def test_two_class_case_and_duality():
    P = macdonald_poly((2,), 2)
    c = coeff_at(P.numerator, (1, 1))
    # the classical coefficient c / D = (1+q)(1-t)/(1-qt), eigen-validated in-module
    lhs = c * qt_const(2, {(0, 0): 1, (1, 1): -1})
    assert lhs == P.denominator * qt_const(2, {(0, 0): 1, (1, 0): 1, (0, 1): -1, (1, 1): -1})

    def invert(f):
        return LaurentPoly.from_terms(RING_QT, 2, {(-e[0], -e[1]) + e[2:]: v for e, v in f.terms()})

    # invariant under (q, t) -> (1/q, 1/t)
    assert invert(c) * P.denominator == c * invert(P.denominator)


def test_triangularity():
    P = macdonald_poly((2, 1), 3)
    for key, _ in P.numerator.terms():
        mu = tuple(x for x in sorted(key[2:], reverse=True) if x)
        assert dominates((2, 1), mu)


def test_eigen_relation_second_operator():
    # the construction uses only the first operator; the second one must then
    # also act diagonally, with eigenvalue t**(-a(a-1)/2) e_a(q^lam_i t^(N-i))
    # (the bare subset form carries no t-power normalization); for lam = (2)
    # the spectrum is q^2 t^2, t, 1, so e_2 / t = q^2 t^2 + q^2 t + 1
    P = macdonald_poly((2,), 3)
    e2 = qt_const(3, {(2, 2): 1, (2, 1): 1, (0, 0): 1})
    assert apply_macdonald_qt(2, P.numerator) == P.numerator * e2


def test_eigenvalue_formula():
    assert eigenvalue_formula((), 2) == qt_const(2, {(0, 1): 1, (0, 0): 1})
    assert eigenvalue_formula((3, 1), 2) == qt_const(2, {(3, 1): 1, (1, 0): 1})


def test_fraction_free_solve_matches_field_solve():
    # C == D * P_ref coefficientwise, equal eigenvalues, equal t = 0 limits
    for nvars in (1, 2, 3):
        for lam in partitions_up_to(4, nvars):
            P = macdonald_poly(lam, nvars)
            ref, ref_eig = ref_macdonald_poly(lam, nvars)
            (den,) = qt_to_ref(P.denominator).values()
            numer = qt_to_ref(P.numerator)
            assert numer.keys() == ref.keys(), (nvars, lam)
            assert all(numer[z] == den * ref[z] for z in ref), (nvars, lam)
            assert qt_to_ref(P.eigenvalue) == {(0,) * nvars: ref_eig}
            expected = LaurentPoly.from_terms(
                RING_Q,
                nvars,
                [((qe,) + z, v) for z, c in ref.items() for qe, v in ref_specialize_t0_qinv(c).items()],
            )
            assert qwhittaker_specialize(P) == expected, (nvars, lam)


def test_whittaker_specialization_matches_characters():
    for nvars in (2, 3):
        r = nvars - 1
        for size in range(0, 5):
            for lam in partitions(size, nvars):
                P = macdonald_poly(lam, nvars)
                w = qwhittaker_specialize(P)
                full = tuple(lam) + (0,) * (nvars - len(lam))
                n = NVector.level_one(r, tuple(full[a] - full[a + 1] for a in range(r)))
                chi = graded_character(n).monomials()
                if full[-1]:
                    chi = chi.times_z((full[-1],) * nvars)
                assert w == chi, (nvars, lam)


def test_scalar_specialization_helpers():
    one = qt_const(1, {(0, 0): 1})
    # (1+q)(1-t)/(1-qt) -> 1 + q**-1
    num = qt_const(1, {(0, 0): 1, (1, 0): 1, (0, 1): -1, (1, 1): -1})
    den = qt_const(1, {(0, 0): 1, (1, 1): -1})
    expected = LaurentPoly.from_terms(RING_Q, 1, {(0, 0): 1, (-1, 0): 1})
    assert qt_specialize_t0_qinv(num, den) == expected
    # a common factor t cancels: the limit reads the lowest t-orders
    t = qt_const(1, {(0, 1): 1})
    assert qt_specialize_t0_qinv(num * t, den * t) == expected
    assert qt_specialize_t0_qinv(t, one).is_zero()
    with pytest.raises(PoleAtZero):
        qt_specialize_t0_qinv(qt_const(1, {(0, -1): 1}), one)
    with pytest.raises(PoleAtZero):
        qt_specialize_t0_qinv(num, den * t)
    with pytest.raises(NotDivisible):
        qt_specialize_t0_qinv(one, one * 2)
    with pytest.raises(NotDivisible):
        qt_specialize_t0_qinv(one, qt_const(1, {(0, 0): 1, (1, 0): 1}))

    assert qt_t_infinity_limit(qt_const(1, {(1, 2): 1, (0, 1): 1}), 2) == LaurentPoly.from_terms(
        RING_Q, 1, {(1, 0): 1}
    )
    assert qt_t_infinity_limit(t, 2).is_zero()
    with pytest.raises(ArithmeticError):
        qt_t_infinity_limit(qt_const(1, {(0, 3): 1}), 2)


def lowest_slice(f, order):
    """The t**order terms of a QT polynomial as {(q, z..): c}."""
    return {e[:1] + e[2:]: c for e, c in f.terms() if e[1] == order}


def test_t0_limit_matches_oracle_quotient_of_lowest_slices():
    # the binomial peel against the greedy quotient of the two lowest
    # t-slices, on every lam with N = 2, |lam| <= 6; N = 3, |lam| <= 5; and
    # N = 4, |lam| <= 4
    cases = [(nvars, lam) for nvars, size in ((2, 6), (3, 5), (4, 4)) for lam in partitions_up_to(size, nvars)]
    assert len(cases) == 44
    peeled = 0
    for nvars, lam in cases:
        P = macdonald_poly(lam, nvars)
        order = P.denominator.bounds()[0][1]
        dslice = lowest_slice(P.denominator, order)
        quot = ref_exact_div(lowest_slice(P.numerator, order), dslice)
        expected = LaurentPoly.from_terms(RING_Q, nvars, {(-e[0],) + e[1:]: c for e, c in quot.items()})
        assert qt_specialize_t0_qinv(P.numerator, P.denominator) == expected, (nvars, lam)
        peeled += len(dslice) > 1
    # the other 18 denominators are 1: each such lam is a column plus full
    # columns, so P_lam is e_k times a power of z_1 ... z_N
    assert peeled == 26


def test_t0_limit_peel_edges():
    def qpoly(terms, j=0):
        return qt_const(2, {(i, j): c for i, c in terms.items()})

    one = qpoly({0: 1})
    # q**EXP_MIN flips to q**(EXP_MAX + 1): no key holds it
    with pytest.raises(ExponentOverflow):
        qt_specialize_t0_qinv(qpoly({EXP_MIN: 1}), one)
    # a slice -q**2 (1 - q)**3 (1 - q**2), with a t-term above it that the
    # limit never reads: the sign and the q-shift come through
    b1, b2 = qpoly({0: 1, 1: -1}), qpoly({0: 1, 2: -1})
    den = qpoly({2: -1}) * b1 ** 3 * b2 + qpoly({0: 5}, j=1)
    quot = LaurentPoly.from_terms(RING_QT, 2, {(-1, 0, 1, 0): 3, (4, 0, 0, -1): -2, (0, 0, 0, 0): 1})
    expected = LaurentPoly.from_terms(RING_Q, 2, {(1, 1, 0): 3, (-4, 0, -1): -2, (0, 0, 0): 1})
    assert qt_specialize_t0_qinv(quot * den, den) == expected
    # 1 - q**2 is peeled whole, never as 1 - q with 1 + q left over
    assert qt_specialize_t0_qinv(b2, b2) == LaurentPoly.one(RING_Q, 2)
    # (1 - q) / (1 - q**2) = 1 / (1 + q): the numerator is no multiple of
    # the peeled factor
    with pytest.raises(NotDivisible):
        qt_specialize_t0_qinv(b1, b2)
    with pytest.raises(NotDivisible):
        qt_specialize_t0_qinv(quot * den + one, den)
    # a factor 1 + q is no binomial 1 - q**i: refused even when it divides
    with pytest.raises(NotDivisible):
        qt_specialize_t0_qinv(qpoly({0: 1, 1: 1}), qpoly({0: 1, 1: 1}))
    # a scalar denominator divides exactly or not at all
    assert qt_specialize_t0_qinv(one * 2, one * 2) == LaurentPoly.one(RING_Q, 2)
    with pytest.raises(NotDivisible):
        qt_specialize_t0_qinv(one, one * 2)


def test_shifted_gap_is_caught(monkeypatch):
    # negative control: multiply the diagonal entry of every column but
    # lam's by q, so each eigenvalue gap of the solve is off by one q-power;
    # the integer eigen-check must then reject the result
    lam = (2, 1)
    true_column = macdonald._column

    def shifted(mu, nvars):
        out = true_column(mu, nvars)
        top = max(out)
        if top != (2, 1, 0):
            out[top] = out[top].times_unit(1)
        return out

    monkeypatch.setattr(macdonald, "_column", shifted)
    with pytest.raises(ArithmeticError, match="eigen-relation failed"):
        macdonald_poly(lam, 3)


def test_lift_and_project_roundtrip():
    chi = graded_character(NVector.level_one(2, (1, 1))).monomials()
    assert project_qt_to_q(chi.with_ring(RING_QT)) == chi
    # only a Q-ring polynomial lifts to the QT ring
    for other in (chi.with_ring(RING_W), chi.with_ring(RING_QT)):
        with pytest.raises(ValueError):
            other.with_ring(RING_QT)


def test_degenerate_limit_eigenrelation():
    n = NVector.level_one(2, (1, 1))
    chi = graded_character(n).monomials()
    lifted = chi.with_ring(RING_QT)
    for alpha in (1, 2):
        g = apply_macdonald_qt(alpha, lifted)
        ev = sum(min(alpha, b) for b in (1, 2))
        assert qt_t_infinity_limit(g, alpha * (3 - alpha)) == chi.times_unit(ev)
