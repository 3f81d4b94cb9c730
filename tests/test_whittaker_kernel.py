"""The Whittaker series kernel against its convolution oracle: the
fundamental series and the class-one products on grids and at large
s-exponents, a negative control for the one-pass division, negative
orders, and the class-one failure detail."""

import pytest

import qchar.verify as verify
import qchar.whittaker as wh
from oracles import pairs_of, ref_class_one_coefficient, ref_series_mul, ref_w_series, series_of, series_plus
from qchar.whittaker import (
    class_one_combination,
    toda_residual,
    w_series,
)

ORDERS = range(0, 21)


def _series_grid_matches():
    return all(
        pairs_of(w_series(n, refl, order)) == ref_w_series(n, refl, order)
        for order in ORDERS
        for refl in (False, True)
        for n in range(0, 9)
    )


@pytest.fixture
def fresh_prefixes():
    # the shared prefixes are cached per order: start and end with none
    wh._pochhammer_prefixes.cache_clear()
    yield
    wh._pochhammer_prefixes.cache_clear()


def test_series_match_convolution_oracle(fresh_prefixes):
    assert _series_grid_matches()
    for order in ORDERS:
        for refl in (False, True):
            one = series_of(order, {(0, 0): 1})
            assert pairs_of(wh._times_coefficient(one, refl)) == ref_class_one_coefficient(order, refl)


def test_class_one_products_are_exact_at_large_s():
    # at n = 2**24 the series is s**(2**25 - 1) (s**(1 - 2**25) reflected)
    # through u**n; the class-one factor s (-s**-5) moves it past 2**25
    n = 2**24
    assert pairs_of(wh._times_coefficient(w_series(n, False, 0), False)) == {(0, 2**25): 1}
    assert pairs_of(wh._times_coefficient(w_series(n, True, 0), True)) == {(0, -(2**25) - 4): -1}
    for refl in (False, True):
        product = ref_series_mul(ref_class_one_coefficient(3, refl), ref_w_series(n, refl, 3), 3)
        assert pairs_of(wh._times_coefficient(w_series(n, refl, 3), refl)) == product


def test_class_one_products_match_oracle_product():
    for order in (0, 1, 5, 12, 20):
        for refl in (False, True):
            coeff = ref_class_one_coefficient(order, refl)
            for n in range(0, 5):
                product = ref_series_mul(coeff, ref_w_series(n, refl, order), order)
                assert pairs_of(wh._times_coefficient(w_series(n, refl, order), refl)) == product, (n, refl, order)


def test_division_one_step_off_fails_the_grid(monkeypatch, fresh_prefixes):
    # dividing by 1 - x u**3 for 1 - x u**2 changes T_2 at u**2, so W(0)
    # from u**4 on
    real = wh.divide_binomial

    def off_by_one(rows, shift, step):
        real(rows, shift, step + 1 if (shift, step) == (1, 2) else step)

    monkeypatch.setattr(wh, "divide_binomial", off_by_one)
    assert not _series_grid_matches()
    assert pairs_of(w_series(0, False, 3)) == ref_w_series(0, False, 3)
    assert pairs_of(w_series(0, False, 4)) != ref_w_series(0, False, 4)


def test_negative_order_is_rejected():
    for call in (
        lambda: w_series(0, False, -1),
        lambda: toda_residual(1, -1, False),
        lambda: class_one_combination([0, 1], -1),
        lambda: class_one_combination([], -1),
        lambda: verify.check_whittaker(-1),
        lambda: verify.check_whittaker(-1, toda_n=0, classone_n=0),
        lambda: verify.check_whittaker(-1, toda_n=-1, classone_n=-1),
    ):
        with pytest.raises(ValueError, match="order must be >= 0"):
            call()


def test_class_one_failure_names_first_n_and_u_order(monkeypatch):
    exact = wh.char_to_series

    def perturbed(n, order):
        out = exact(n, order)
        return series_plus(out, {(3, 2): 1}) if n == 2 else out

    monkeypatch.setattr(wh, "char_to_series", perturbed)
    rep = verify.check_whittaker(order=6, toda_n=1, classone_n=4)
    assert [f["point"] for f in rep.failures] == [str(("class-one", 4, 6))]
    # head * chi_2 gains (1 - s**-4) s**2 u**3
    assert rep.failures[0]["detail"] == (
        "n 2, u**3: combination {}, head*chi {-2: -1, 2: 1}"
    )
    assert rep.total == 5


def test_class_one_failure_detail_is_capped(monkeypatch):
    exact = wh.char_to_series
    noise = {(0, 8 * k): 1000003 for k in range(40)}
    monkeypatch.setattr(wh, "char_to_series", lambda n, order: series_plus(exact(n, order), noise))
    detail = verify.check_whittaker(order=2, toda_n=0, classone_n=0).failures[0]["detail"]
    assert detail.startswith("n 0, u**0: combination {") and len(detail) == 200 and detail.endswith("...")
