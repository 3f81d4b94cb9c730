"""Whittaker series tests: frozen expansions, an independent sympy expansion,
series ring axioms, the three-term relation, the class-one combination, and
the general-rank level-1 equation.  Series coefficients are integer Laurent
polynomials in s = p**(1/2), keyed (u-exponent, s-exponent)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import check_toda_eigen, whittaker_series_sympy
from qchar.verify import check_level1_report
from qchar.whittaker import (
    TruncatedSeries,
    char_to_series,
    class_one_coefficient,
    class_one_combination,
    toda_residual,
    w_series,
)


def test_leading_coefficients():
    # order-0 coefficient of the series at argument n is p**(n - 1/2)
    for n in (0, 1, 4):
        assert w_series(n, False, 0).coeffs == {(0, 2 * n - 1): 1}
    assert w_series(2, True, 0).coeffs == {(0, -3): 1}


def test_frozen_order2_expansion():
    # direct expansion of the a-sum at n = 0 through order 2:
    # p**(-1/2) (1 + u + (2 + p**2) u**2)
    s = w_series(0, False, 2)
    assert s.coeffs == {(0, -1): 1, (1, -1): 1, (2, -1): 2, (2, 3): 1}


def test_reflection_is_p_inversion():
    w = w_series(3, False, 6)
    wr = w_series(3, True, 6)
    assert wr.coeffs == {(e, -k): c for (e, k), c in w.coeffs.items()}


def test_against_sympy_series():
    # independent expansion by sympy ``series``, truncated to every order
    for n in range(4):
        for refl in (False, True):
            brute = whittaker_series_sympy(n, refl, 6)
            for order in range(7):
                assert w_series(n, refl, order) == TruncatedSeries(order, brute), (n, refl, order)


def small_series(order):
    term = st.tuples(
        st.tuples(st.integers(0, order), st.integers(-3, 3)),
        st.integers(-4, 4),
    )
    return st.lists(term, max_size=5).map(lambda terms: TruncatedSeries(order, dict(terms)))


@settings(max_examples=60, deadline=None)
@given(small_series(5), small_series(5), small_series(5), st.integers(0, 5))
def test_series_ring_axioms(f, g, h, cut):
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f * g == g * f
    assert f - f == TruncatedSeries.zero(5)
    # truncating commutes with multiplication
    def trunc(x):
        return TruncatedSeries(cut, x.coeffs)

    assert trunc(f * g) == trunc(f) * trunc(g)


def test_toda_relation():
    assert check_toda_eigen(range(0, 7), 20)
    assert toda_residual(3, 0, False).is_zero()  # leading order already matches
    with pytest.raises(ValueError):
        toda_residual(0, 5, False)


def test_toda_negative_control():
    bad = w_series(3, False, 12)
    perturbed = dict(bad.coeffs)
    perturbed[(5, 1)] = perturbed.get((5, 1), 0) + 1
    bad = TruncatedSeries(12, perturbed)
    gate = TruncatedSeries(12, {(0, 0): 1, (2, 0): -1})
    eigen = TruncatedSeries(12, {(0, 2): 1, (0, -2): 1})
    lhs = bad + gate * w_series(1, False, 12)
    assert not (lhs - eigen * w_series(2, False, 12)).is_zero()


def test_class_one_combination():
    assert class_one_combination(range(0, 5), 20)
    # chi_0 = 1 and chi_1 = p + 1/p as series
    assert char_to_series(0, 8).coeffs == {(0, 0): 1}
    assert char_to_series(1, 8).coeffs == {(0, 2): 1, (0, -2): 1}
    # the coefficients times (1 - p**-2): s and -s**-5 at order 0
    assert class_one_coefficient(0, False).coeffs == {(0, 1): 1}
    assert class_one_coefficient(0, True).coeffs == {(0, -5): -1}


def test_class_one_negative_control(monkeypatch):
    import qchar.whittaker as wh

    exact = wh.char_to_series

    def perturbed(n, order):
        out = exact(n, order)
        return out + TruncatedSeries(order, {(1, 2): 1})

    monkeypatch.setattr(wh, "char_to_series", perturbed)
    assert not class_one_combination([2], 8)


def test_level1_difference_equation():
    # the general-rank level-1 equation on the n with sigma(n) <= bound:
    # 11, 21 and 20 points, each report collapsed to one point
    for rank, sigma, points in ((1, 10, 11), (2, 5, 21), (3, 3, 20)):
        rep = check_level1_report(rank, sigma)
        assert rep.passed and rep.total == 1 and rep.notes["points"] == points, rep.failures[:1]
