"""Kernel tests: exact Laurent arithmetic, division, symmetrization, maps."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import antisymmetrize, divide_int, ref_div, signed_orbit_sum, symmetrize, vandermonde
from qchar.laurent import (
    LaurentPoly,
    constrain,
)
from qchar.rings import (
    RING_Q,
    NotDivisible,
)


def zvar(i, nvars, ring=RING_Q):
    return LaurentPoly.variable(ring, nvars, i)


def small_polys(nvars=2, ring=RING_Q, max_terms=4):
    term = st.tuples(
        st.tuples(*([st.integers(-2, 2)] * (nvars + 1))),
        st.integers(-5, 5).filter(bool),
    )
    def build(terms):
        out = LaurentPoly.zero(ring, nvars)
        for key, c in terms:
            out = out + LaurentPoly.from_terms(ring, nvars, {tuple(key): c})
        return out
    return st.lists(term, min_size=0, max_size=max_terms).map(build)


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(f, g, h):
    assert (f + g) * h == f * h + g * h
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f + (-f) == LaurentPoly.zero(RING_Q, 2)


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys())
def test_exact_div_roundtrip(f, g):
    # the oracle division behind the Vandermonde quotients of ``oracles``
    if g.is_zero():
        return
    assert ref_div(f * g, g) == f


@settings(max_examples=40, deadline=None)
@given(small_polys(nvars=3), small_polys(nvars=3))
def test_constrain_is_ring_map(f, g):
    assert constrain(f * g, 2) == constrain(f, 2) * constrain(g, 2)
    assert constrain(f + g, 2) == constrain(f, 2) + constrain(g, 2)


@settings(max_examples=40, deadline=None)
@given(small_polys(nvars=3))
def test_signed_orbit_idempotence(f):
    # the N!-cleared antisymmetrizer repeats up to the N! factor, and the
    # signed orbit of an antisymmetric polynomial is N! times itself
    once = signed_orbit_sum(f)
    assert signed_orbit_sum(once) == once * 6


def test_exact_div_examples():
    z1, z2 = zvar(0, 2), zvar(1, 2)
    assert ref_div(z1 * z1 - z2 * z2, z1 - z2) == z1 + z2
    with pytest.raises(NotDivisible):
        ref_div(z1 * z1 + z2, z1 - z2)
    with pytest.raises(ZeroDivisionError):
        ref_div(z1, LaurentPoly.zero(RING_Q, 2))


def test_exact_div_with_unit_coefficients():
    # coefficient divisibility in the scalar ring matters too
    f = LaurentPoly.monomial(RING_Q, 1, (0,), 2)
    g = LaurentPoly.monomial(RING_Q, 1, (0,), 3)
    with pytest.raises(NotDivisible):
        ref_div(f, g)
    h = LaurentPoly.monomial(RING_Q, 1, (1,), 6, unit=2)
    assert ref_div(h, g) == LaurentPoly.monomial(RING_Q, 1, (1,), 2, unit=2)


def test_vandermonde_values():
    assert vandermonde(RING_Q, 1) == LaurentPoly.one(RING_Q, 1)
    z1, z2 = zvar(0, 2), zvar(1, 2)
    assert vandermonde(RING_Q, 2) == z1 - z2
    v3 = vandermonde(RING_Q, 3)
    assert len(v3.coeffs) == 6
    assert all(c in (1, -1) for c in v3.coeffs.values())


def test_antisymmetrize_fixes_vandermonde():
    for n in (2, 3, 4):
        d = vandermonde(RING_Q, n)
        assert antisymmetrize(d) == d


def test_antisymmetrize_kills_symmetric():
    z1, z2 = zvar(0, 2), zvar(1, 2)
    assert antisymmetrize(z1 * z2).is_zero()
    assert symmetrize(z1 + z2) == z1 + z2


def test_antisymmetrize_inexact_raises():
    # the signed orbit of z1 is z1 - z2, not divisible by 2! over ZZ
    z1 = zvar(0, 2)
    with pytest.raises(NotDivisible):
        antisymmetrize(z1)
    z2 = zvar(1, 2)
    assert signed_orbit_sum(z1) == z1 - z2


def test_constrain_examples():
    from qchar.symfun import elementary, schur

    assert constrain(elementary(3, 3), 2) == LaurentPoly.one(RING_Q, 2)
    z3 = zvar(2, 3)
    assert constrain(z3, 2) == LaurentPoly.monomial(RING_Q, 2, (-1, -1))
    assert constrain(schur((1, 1, 1), 3), 2) == LaurentPoly.one(RING_Q, 2)


def test_sums_drop_zero_sums_and_repeated_keys():
    # from_terms, sum, + and - share one add loop: a repeated vector adds
    # up, a zero coefficient or a zero sum leaves no key behind
    x, y = (1, 0, 2), (0, -1, 1)
    f = LaurentPoly.from_terms(RING_Q, 2, [(x, 2), (y, 3), (x, -2), ((0, 0, 0), 0), (y, 1)])
    assert f.coeffs == LaurentPoly.monomial(RING_Q, 2, y[1:], 4).coeffs
    assert LaurentPoly.from_terms(RING_Q, 2, {x: 0}).coeffs == {}
    g = LaurentPoly.from_terms(RING_Q, 2, [(x, 1), (y, -4)])
    assert (f + g).coeffs == LaurentPoly.monomial(RING_Q, 2, x[1:], unit=1).coeffs
    assert (f - f).coeffs == {} and (g - g + g).coeffs == g.coeffs
    assert LaurentPoly.sum(RING_Q, 2, [f, g, -f, -g]).coeffs == {}
    assert LaurentPoly.sum(RING_Q, 2, [f, g, f]) == f * 2 + g
    assert (f + g).at_unit_one() == LaurentPoly.monomial(RING_Q, 2, x[1:])
    with pytest.raises(ValueError, match="wrong length"):
        LaurentPoly.from_terms(RING_Q, 2, [(x, 1), ((0, 0), 1)])


def test_divide_int():
    f = LaurentPoly.from_int(RING_Q, 1, 6)
    assert divide_int(f, 3) == LaurentPoly.from_int(RING_Q, 1, 2)
    with pytest.raises(NotDivisible):
        divide_int(f, 4)


def test_serialization_canonical():
    # (1 - q^-1)*z1^2*z2^-1 style output, lexicographically sorted terms
    f = LaurentPoly.monomial(RING_Q, 2, (2, -1), 1, unit=0) + LaurentPoly.monomial(
        RING_Q, 2, (2, -1), -1, unit=-1
    )
    assert f.to_text() == "(1 - q^-1)*z1^2*z2^-1"
    g = f + LaurentPoly.one(RING_Q, 2)
    assert g.to_text() == "(1 - q^-1)*z1^2*z2^-1 + 1"
    assert LaurentPoly.zero(RING_Q, 2).to_text() == "0"


def test_pow_and_unit_shift():
    z1, z2 = zvar(0, 2), zvar(1, 2)
    assert (z1 + z2) ** 0 == LaurentPoly.one(RING_Q, 2)
    assert (z1 + z2) ** 3 == (z1 + z2) * (z1 + z2) * (z1 + z2)
    assert dict(z1.times_unit(2).terms()) == {(2, 1, 0): 1}


# -- the Kronecker codec and its packed rows -----------------------------------


def test_balanced_digits_need_two_bits():
    # at s = 1 the walk would never advance (n stays 1, each step appending
    # a digit -1), so it refuses; zero has no digits at any width
    from qchar.laurent import kron_digits

    for n in (1, -1, 5):
        with pytest.raises(ValueError):
            kron_digits(n, 1)
        with pytest.raises(ValueError):
            kron_digits(n, 0)
    assert kron_digits(0, 1) == [] and kron_digits(1, 2) == [(0, 1)]


def test_packed_rows_hold_and_sum_on_a_grid():
    # random signed rows at their derived width keep every digit when held
    # at each wider width, at max(need, 2 * width); a bound the width holds
    # repacks nothing.  summed drops the rows that cancel and puts lo at the
    # least nonzero digit
    import random

    from qchar.laurent import Packed, kron_add, kron_width

    rng = random.Random(11)
    for bound in (1, 2, 3, 7, 8, 1000, 2**31 - 1, 2**31, 2**40 + 5):
        s = kron_width(bound)
        want = {}
        for key in range(5):
            places = rng.sample(range(-4, 9), rng.randint(1, 6))
            want[key] = sorted((d, rng.choice((-1, 1)) * rng.randint(1, bound)) for d in places)
        rows = {key: (bound, ds[0][0], sum(c << s * (d - ds[0][0]) for d, c in ds)) for key, ds in want.items()}
        packed = Packed(s, rows)
        assert packed.hold(bound) == (s, rows) and packed.packing[1] is rows
        for need in (s + 1, 5 * s, 5 * s + 1):
            width = max(need, 2 * packed.packing[0])
            assert packed.hold(2 ** (need - 2)) == packed.packing and packed.packing[0] == width
            assert {key: packed.digits(key) for key in want} == want, (bound, width)
        s, acc, cancel = packed.packing[0], {}, {}
        for key, ds in want.items():
            for d, c in ds:
                kron_add(acc, key, d, c, s)
            low = ds[: rng.randint(0, len(ds))]
            for d, c in low:
                kron_add(acc, key, d, -c, s)
            cancel[key] = ds[len(low):]
        summed = Packed(s, Packed.summed(acc, s, dict.fromkeys(acc, bound)))
        assert set(summed.packing[1]) == {key for key, ds in cancel.items() if ds}
        for key, (b, lo, _) in summed.packing[1].items():
            assert b == bound and lo == cancel[key][0][0] and summed.digits(key) == cancel[key]
