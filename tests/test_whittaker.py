"""Whittaker series tests: frozen expansions, an independent sympy expansion,
the row shift, the three-term relation, the class-one combination, strict
inputs, and the general-rank level-1 equation.  A series is its rows
{s-exponent: int}, s = p**(1/2); the tests write its terms as
{(u-exponent, s-exponent): int} through ``oracles.series_of`` and
``oracles.pairs_of``."""

import pytest

import qchar.whittaker as wh
from oracles import check_toda_eigen, pairs_of, ref_series_mul, series_of, series_plus, whittaker_series_sympy
from qchar.verify import check_level1_report, check_whittaker
from qchar.whittaker import (
    _add_shifted,
    _times_coefficient,
    char_to_series,
    class_one_combination,
    class_one_difference,
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


def test_product_drops_exactly_the_terms_above_the_order():
    # a monomial times a series through u**3 is a row shift: the terms
    # shifted past u**3 go, every s-exponent stays, however large
    f = {(0, 2**40): 1, (1, -(2**40)): 1, (3, 0): 2, (2, 7): -3}
    for u_shift, s_shift, c in ((0, 0, 1), (1, 5, -2), (2, -(2**41), 3), (3, 1, 1), (4, 0, 1)):
        out = series_of(3, {})
        _add_shifted(out, series_of(3, f), u_shift, s_shift, c)
        assert pairs_of(out) == ref_series_mul(f, {(u_shift, s_shift): c}, 3), (u_shift, s_shift)
    # a sum that cancels leaves no zero coefficient behind
    out = series_of(3, f)
    _add_shifted(out, series_of(3, f), 0, 0, -1)
    assert out == [{}, {}, {}, {}]


def test_s_exponent_edge():
    # at order 0 the series at n is s**(2n - 1); a row has no exponent
    # slot, so n = 2**24 + 1 reads s**(2**25 + 1), reflected s**-(2**25 + 1)
    edge = 2**24 + 1
    assert pairs_of(w_series(edge, False, 0)) == {(0, 2**25 + 1): 1}
    assert pairs_of(w_series(edge, True, 0)) == {(0, -(2**25 + 1)): 1}


def test_toda_relation():
    assert check_toda_eigen(range(0, 7), 20)
    assert not any(toda_residual(3, 0, False))  # leading order already matches
    # for n > order the term u**n W(n-1) lies wholly above the order
    for order in range(4):
        assert check_toda_eigen(range(order + 1, order + 4), order), order
    with pytest.raises(ValueError):
        toda_residual(0, 5, False)


def test_toda_negative_control(monkeypatch):
    # W(3) with its u**5 term moved from s**k to s**(k + 4): the relation
    # at n = 2, which reads W(3), fails from u**5 on; at n = 1 it holds
    exact = wh.w_series

    def moved(n, reflected, order):
        rows = exact(n, reflected, order)
        if n != 3:
            return rows
        k, c = min(rows[5].items())
        return series_plus(rows, {(5, k): -c, (5, k + 4): c})

    monkeypatch.setattr(wh, "w_series", moved)
    residual = toda_residual(2, 12, False)
    assert next(e for e, row in enumerate(residual) if row) == 5
    assert not any(toda_residual(1, 12, False))


def test_class_one_combination():
    assert class_one_combination(range(0, 5), 20)
    # chi_0 = 1 and chi_1 = p + 1/p as series
    assert pairs_of(char_to_series(0, 8)) == {(0, 0): 1}
    assert pairs_of(char_to_series(1, 8)) == {(0, 2): 1, (0, -2): 1}
    # the coefficients times (1 - p**-2): s and -s**-5 at order 0
    one = series_of(0, {(0, 0): 1})
    assert pairs_of(_times_coefficient(one, False)) == {(0, 1): 1}
    assert pairs_of(_times_coefficient(one, True)) == {(0, -5): -1}


def test_class_one_negative_control(monkeypatch):
    exact = wh.char_to_series
    monkeypatch.setattr(wh, "char_to_series", lambda n, order: series_plus(exact(n, order), {(1, 2): 1}))
    assert not class_one_combination([2], 8)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: w_series(True, False, 2), id="w_series-n"),
        pytest.param(lambda: w_series(1, False, True), id="w_series-order"),
        pytest.param(lambda: w_series(1.0, False, 2), id="w_series-float-n"),
        pytest.param(lambda: toda_residual(True, 3, False), id="toda_residual-n"),
        pytest.param(lambda: toda_residual(2, True, False), id="toda_residual-order"),
        pytest.param(lambda: class_one_combination([True], 3), id="class_one_combination-n"),
        pytest.param(lambda: class_one_combination([1], True), id="class_one_combination-order"),
        pytest.param(lambda: class_one_difference([1], 2.0), id="class_one_difference-float-order"),
    ],
)
def test_whittaker_inputs_are_ints(call):
    # as NVector takes its entries: an int, and a bool is not one
    with pytest.raises(ValueError, match="a bool is not one"):
        call()


def test_empty_or_negative_ranges_are_rejected():
    # an empty n range compares nothing, so it is no class-one point
    for n_values in ([], range(0), iter(())):
        with pytest.raises(ValueError, match="at least one n"):
            class_one_combination(n_values, 3)
    for kwargs in ({"toda_n": -1}, {"classone_n": -1}):
        with pytest.raises(ValueError, match="must be >= 0"):
            check_whittaker(order=2, **kwargs)


def test_level1_difference_equation():
    # the general-rank level-1 equation on the n with sigma(n) <= bound:
    # 11, 21 and 20 points, each report collapsed to one point
    for rank, sigma, points in ((1, 10, 11), (2, 5, 21), (3, 3, 20)):
        rep = check_level1_report(rank, sigma)
        assert rep.passed and rep.total == 1 and rep.notes["points"] == points, rep.failures[:1]
