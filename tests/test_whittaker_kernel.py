"""The Whittaker series kernel against its convolution oracle: the
fundamental series and the class-one products on grids, a negative control
for the one-pass division, negative orders, and the class-one failure
detail."""

import pytest

import qchar.verify as verify
import qchar.whittaker as wh
from oracles import ref_class_one_coefficient, ref_w_series, series_of
from qchar.laurent import key_bounds
from qchar.rings import ExponentOverflow
from qchar.whittaker import (
    TruncatedSeries,
    class_one_combination,
    toda_residual,
    w_series,
)

ORDERS = range(0, 21)


def _series_grid_matches():
    return all(
        w_series(n, refl, order) == ref_w_series(n, refl, order)
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
            assert wh._times_coefficient(TruncatedSeries.one(order), refl) == ref_class_one_coefficient(order, refl)


def test_series_boxes_are_exact():
    # w_series states its exponent box rather than scanning its keys;
    # products and the class-one divisions check slot ranges against it
    for order in ORDERS:
        for refl in (False, True):
            for n in range(0, 9):
                w = w_series(n, refl, order)
                assert w.bounds() == key_bounds(w.coeffs, 2), (n, refl, order)


def test_class_one_products_range_check_s():
    # at n = 2**24 the series is s**(2**25 - 1) (s**(1 - 2**25) reflected);
    # the class-one factor s (-s**-5) moves it out of the slot
    for refl in (False, True):
        with pytest.raises(ExponentOverflow):
            wh._times_coefficient(w_series(2**24, refl, 0), refl)


def test_class_one_products_match_oracle_product():
    for order in (0, 1, 5, 12, 20):
        for refl in (False, True):
            coeff = ref_class_one_coefficient(order, refl)
            for n in range(0, 5):
                product = coeff * ref_w_series(n, refl, order)
                assert wh._times_coefficient(w_series(n, refl, order), refl) == product, (n, refl, order)


def test_division_one_step_off_fails_the_grid(monkeypatch, fresh_prefixes):
    # dividing by 1 - x u**3 for 1 - x u**2 changes T_2 at u**2, so W(0)
    # from u**4 on
    real = wh.divide_binomial

    def off_by_one(rows, shift, step):
        real(rows, shift, step + 1 if (shift, step) == (1, 2) else step)

    monkeypatch.setattr(wh, "divide_binomial", off_by_one)
    assert not _series_grid_matches()
    assert w_series(0, False, 3) == ref_w_series(0, False, 3)
    assert w_series(0, False, 4) != ref_w_series(0, False, 4)


def test_negative_order_is_rejected():
    for call in (
        lambda: w_series(0, False, -1),
        lambda: toda_residual(1, -1, False),
        lambda: class_one_combination([0, 1], -1),
        lambda: class_one_combination([], -1),
        lambda: verify.check_whittaker(-1),
        lambda: verify.check_whittaker(-1, toda_n=0, classone_n=0),
    ):
        with pytest.raises(ValueError, match="order must be >= 0"):
            call()


def test_class_one_failure_names_first_n_and_u_order(monkeypatch):
    exact = wh.char_to_series

    def perturbed(n, order):
        out = exact(n, order)
        return out + series_of(order, {(3, 2): 1}) if n == 2 else out

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
    monkeypatch.setattr(wh, "char_to_series", lambda n, order: exact(n, order) + series_of(order, noise))
    detail = verify.check_whittaker(order=2, toda_n=0, classone_n=0).failures[0]["detail"]
    assert detail.startswith("n 0, u**0: combination {") and len(detail) == 200 and detail.endswith("...")
