"""Whittaker series tests: frozen expansions, an independent sympy expansion,
series ring axioms, the three-term relation, the class-one combination, and
the general-rank level-1 equation.  Series coefficients are integer Laurent
polynomials in s = p**(1/2), written as {(u-exponent, s-exponent): int}
through ``oracles.series_of`` and ``oracles.pairs_of``."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import check_toda_eigen, pairs_of, series_of, whittaker_series_sympy
from qchar.laurent import EXP_MAX, EXP_MIN
from qchar.rings import RING_Q, RING_W, ExponentOverflow
from qchar.verify import check_level1_report
from qchar.whittaker import (
    TruncatedSeries,
    _times_coefficient,
    char_to_series,
    class_one_combination,
    toda_residual,
    w_series,
)


def test_leading_coefficients():
    # order-0 coefficient of the series at argument n is p**(n - 1/2)
    for n in (0, 1, 4):
        assert pairs_of(w_series(n, False, 0)) == {(0, 2 * n - 1): 1}
    assert pairs_of(w_series(2, True, 0)) == {(0, -3): 1}


def test_frozen_order2_expansion():
    # direct expansion of the a-sum at n = 0 through order 2:
    # p**(-1/2) (1 + u + (2 + p**2) u**2)
    s = w_series(0, False, 2)
    assert pairs_of(s) == {(0, -1): 1, (1, -1): 1, (2, -1): 2, (2, 3): 1}


def test_reflection_is_p_inversion():
    w = w_series(3, False, 6)
    wr = w_series(3, True, 6)
    assert pairs_of(wr) == {(e, -k): c for (e, k), c in pairs_of(w).items()}


def test_against_sympy_series():
    # independent expansion by sympy ``series``, truncated to every order
    for n in range(4):
        for refl in (False, True):
            brute = whittaker_series_sympy(n, refl, 6)
            for order in range(7):
                assert w_series(n, refl, order) == series_of(order, brute), (n, refl, order)


def small_series(order):
    term = st.tuples(
        st.tuples(st.integers(0, order), st.integers(-3, 3)),
        st.integers(-4, 4),
    )
    return st.lists(term, max_size=5).map(lambda terms: series_of(order, dict(terms)))


@settings(max_examples=60, deadline=None)
@given(small_series(5), small_series(5), small_series(5), st.integers(0, 5))
def test_series_ring_axioms(f, g, h, cut):
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f * g == g * f
    assert f - f == TruncatedSeries.zero(5)
    # truncating commutes with multiplication
    def trunc(x):
        return series_of(cut, pairs_of(x))

    assert trunc(f * g) == trunc(f) * trunc(g)


def test_series_of_two_orders_do_not_combine():
    # no value is truncated silently: a sum, a product or == of two
    # orders raises
    f, g = w_series(1, False, 3), w_series(1, False, 4)
    for combine in (lambda: f + g, lambda: g - f, lambda: f * g, lambda: f == g):
        with pytest.raises(ValueError, match="do not combine"):
            combine()


def test_product_drops_exactly_the_terms_above_the_order():
    # the s-exponents reach both ends of their slot: u**3 s**EXP_MAX stays
    # and u**4 s**EXP_MIN, the least key above the order, goes
    f = {(0, EXP_MAX): 1, (1, EXP_MIN): 1, (3, 0): 2, (2, 7): -3}
    g = {(0, 0): 1, (2, 0): 5, (3, 0): -1, (1, 0): 4}
    full = {}
    for (e1, k1), c1 in f.items():
        for (e2, k2), c2 in g.items():
            full[e1 + e2, k1 + k2] = full.get((e1 + e2, k1 + k2), 0) + c1 * c2
    product = pairs_of(series_of(3, f) * series_of(3, g))
    assert product == {(e, k): c for (e, k), c in full.items() if c and e <= 3}
    assert (3, EXP_MAX) in product and (4, EXP_MIN) in full


def test_s_exponent_edge():
    # at order 0 the series at n is s**(2n - 1): n = 2**24 reaches EXP_MAX
    # and reads back, the next n would carry into the u slot and raises
    edge = 2**24
    assert pairs_of(w_series(edge, False, 0)) == {(0, EXP_MAX): 1}
    assert pairs_of(w_series(edge, True, 0)) == {(0, -EXP_MAX): 1}
    for refl in (False, True):
        with pytest.raises(ExponentOverflow):
            w_series(edge + 1, refl, 0)


def test_toda_relation():
    assert check_toda_eigen(range(0, 7), 20)
    assert toda_residual(3, 0, False).is_zero()  # leading order already matches
    with pytest.raises(ValueError):
        toda_residual(0, 5, False)


def test_toda_negative_control():
    bad = w_series(3, False, 12)
    perturbed = pairs_of(bad)
    perturbed[(5, 1)] = perturbed.get((5, 1), 0) + 1
    bad = series_of(12, perturbed)
    gate = series_of(12, {(0, 0): 1, (2, 0): -1})
    eigen = series_of(12, {(0, 2): 1, (0, -2): 1})
    lhs = bad + gate * w_series(1, False, 12)
    assert not (lhs - eigen * w_series(2, False, 12)).is_zero()


def test_class_one_combination():
    assert class_one_combination(range(0, 5), 20)
    # chi_0 = 1 and chi_1 = p + 1/p as series
    assert pairs_of(char_to_series(0, 8)) == {(0, 0): 1}
    assert pairs_of(char_to_series(1, 8)) == {(0, 2): 1, (0, -2): 1}
    # the coefficients times (1 - p**-2): s and -s**-5 at order 0
    assert pairs_of(_times_coefficient(TruncatedSeries.one(0), False)) == {(0, 1): 1}
    assert pairs_of(_times_coefficient(TruncatedSeries.one(0), True)) == {(0, -5): -1}


def test_class_one_negative_control(monkeypatch):
    import qchar.whittaker as wh

    exact = wh.char_to_series

    def perturbed(n, order):
        out = exact(n, order)
        return out + series_of(order, {(1, 2): 1})

    monkeypatch.setattr(wh, "char_to_series", perturbed)
    assert not class_one_combination([2], 8)


def test_level1_difference_equation():
    # the general-rank level-1 equation on the n with sigma(n) <= bound:
    # 11, 21 and 20 points, each report collapsed to one point
    for rank, sigma, points in ((1, 10, 11), (2, 5, 21), (3, 3, 20)):
        rep = check_level1_report(rank, sigma)
        assert rep.passed and rep.total == 1 and rep.notes["points"] == points, rep.failures[:1]


def test_repr_is_written_in_s_and_u():
    assert repr(w_series(1, False, 3)) == "TruncatedSeries(order=3, (s^5 + s^1)*u^3 + s^1*u^2 + s^1)"
    assert repr(series_of(2, {(0, 0): -1, (2, 0): 1})) == "TruncatedSeries(order=2, u^2 - 1)"
    assert repr(TruncatedSeries.zero(4)) == "TruncatedSeries(order=4, 0)"


@pytest.mark.parametrize(
    "name, args",
    [
        ("from_terms", (RING_W, 1, {(0, 0): 1})),
        ("from_int", (RING_W, 1, 1)),
        ("monomial", (RING_W, 1, (1,))),
        ("variable", (RING_W, 1, 0)),
        ("unit_power", (RING_W, 1, 2)),
        ("with_ring", (RING_Q,)),
    ],
)
def test_laurent_constructors_are_refused(name, args):
    # LaurentPoly's (ring, nvars, ...) arguments do not fit (order, coeffs)
    for owner in (TruncatedSeries, TruncatedSeries.one(3)):
        with pytest.raises(TypeError, match="LaurentPoly.%s does not fit TruncatedSeries" % name):
            getattr(owner, name)(*args)
