"""Quantum torus tests: normal ordering, the recursion table, evaluation
maps, and exact noncommutative division."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ref_nc_div, ref_nc_mul
from qchar.cartan import CartanData
from qchar.qtorus import (
    NcLaurent,
    check_polynomiality,
    evaluate,
    nc_div_left,
    nc_div_right,
    q_recursion,
)
from qchar.rings import NcNotDivisible


def gen(rank, alpha, k, power=1):
    return NcLaurent.generator(rank, alpha, k, power)


def test_normal_ordering_twist():
    # Q_{1,1} Q_{1,0} = v^{-1} Q_{1,0} Q_{1,1} at rank 1
    lhs = gen(1, 1, 1) * gen(1, 1, 0)
    rhs = (gen(1, 1, 0) * gen(1, 1, 1)).times_unit(-2)
    assert lhs == rhs
    # same level, different labels commute
    assert gen(2, 1, 1) * gen(2, 2, 1) == gen(2, 2, 1) * gen(2, 1, 1)
    f = gen(2, 1, 0) + gen(2, 2, 1).times_unit(3)
    assert NcLaurent.one(2) * f == f


def test_recursion_hand_value():
    table = q_recursion(1, 2)
    expected = NcLaurent.from_terms(1, {((-1,), (2,)): {2: 1}, ((-1,), (0,)): {-2: -1}})
    assert table[(1, 2)] == expected


def test_evaluation_maps():
    table = q_recursion(1, 2)
    q12 = table[(1, 2)]
    assert evaluate(q12, "ev") == NcLaurent.from_terms(
        1, {((0,), (2,)): {2: 1}, ((0,), (0,)): {-2: -1}}
    )
    assert evaluate(q12, "ev0") == NcLaurent.from_terms(
        1, {((0,), (2,)): {4: 1}, ((0,), (0,)): {0: -1}}
    )
    assert evaluate(NcLaurent.one(3), "ev") == NcLaurent.one(3)
    with pytest.raises(ValueError):
        evaluate(q12, "ev1")


def test_backward_recursion_consistency():
    table = q_recursion(1, 2, -1)
    lhs = gen(1, 1, 1) * table[(1, -1)]
    rhs = (gen(1, 1, 0) * gen(1, 1, 0) - NcLaurent.one(1)).times_unit(-2)
    assert lhs == rhs


def test_defining_relation_across_table():
    for rank in (1, 2, 3):
        cart = CartanData(rank)
        table = q_recursion(rank, 4, -2)

        def get(a, k):
            return NcLaurent.one(rank) if a in (0, rank + 1) else table[(a, k)]

        for k in range(-1, 4):
            for a in range(1, rank + 1):
                lhs = (get(a, k + 1) * get(a, k - 1)).times_unit(2 * cart.lam(a, a))
                rhs = get(a, k) * get(a, k) - get(a + 1, k) * get(a - 1, k)
                assert lhs == rhs, (rank, a, k)


def test_division_roundtrip_and_failure():
    rng = random.Random(7)
    rank = 2
    for _ in range(25):
        terms = {}
        for _ in range(3):
            a = tuple(rng.randint(-1, 1) for _ in range(rank))
            b = tuple(rng.randint(-1, 1) for _ in range(rank))
            terms[(a, b)] = {rng.randint(-2, 2): rng.randint(-4, 4)}
        x = NcLaurent.from_terms(rank, terms)
        d = gen(rank, 1, 1) + gen(rank, 2, 0).times_unit(2)
        if x.is_zero():
            continue
        assert nc_div_right(x * d, d) == x
        assert nc_div_left(d * x, d) == x
    with pytest.raises(NcNotDivisible):
        nc_div_right(NcLaurent.one(2), gen(2, 1, 1) + NcLaurent.one(2))


SIDES = {"left": nc_div_left, "right": nc_div_right}


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2), st.sampled_from(sorted(SIDES)), st.booleans(), st.data())
def test_division_matches_reference(rank, side, exact, data):
    # inexact pairs as drawn, exact ones multiplied out: the quotients agree,
    # or both sides find none
    vec = st.tuples(*[st.integers(-1, 1)] * rank)
    coeff = st.dictionaries(st.integers(-2, 2), st.integers(-3, 3).filter(bool), min_size=1, max_size=3)
    num = data.draw(st.dictionaries(st.tuples(vec, vec), coeff, max_size=3))
    den = data.draw(st.dictionaries(st.tuples(vec, vec), coeff, min_size=1, max_size=2))
    if exact:
        num = ref_nc_mul(rank, num, den) if side == "right" else ref_nc_mul(rank, den, num)
    x, d = NcLaurent.from_terms(rank, num), NcLaurent.from_terms(rank, den)
    try:
        expected = ref_nc_div(rank, dict(x.terms()), dict(d.terms()), side)
    except NcNotDivisible:
        assert not exact
        with pytest.raises(NcNotDivisible):
            SIDES[side](x, d)
    else:
        assert dict(SIDES[side](x, d).terms()) == expected


def test_division_controls():
    def scalar(c):
        return NcLaurent.from_terms(1, {((0,), (0,)): c})

    # (1 + w) / (1 + w^2) has no quotient: the w-floor stops the descent
    for side, divide in SIDES.items():
        with pytest.raises(NcNotDivisible):
            divide(scalar({0: 1, 1: 1}), scalar({0: 1, 2: 1}))
        with pytest.raises(NcNotDivisible):
            ref_nc_div(1, {((0,), (0,)): {0: 1, 1: 1}}, {((0,), (0,)): {0: 1, 2: 1}}, side)
    s, c = gen(1, 1, 0) + gen(1, 1, 1), scalar({0: 1, 2: -1})
    for side, divide in SIDES.items():
        assert divide(c * s, s) == c
        assert ref_nc_div(1, dict((c * s).terms()), dict(s.terms()), side) == dict(c.terms())


def test_polynomiality_words():
    assert check_polynomiality(1, [(1, 1)])
    assert check_polynomiality(1, [(1, 2)])
    assert check_polynomiality(1, [(1, 3)])
    assert check_polynomiality(2, [(1, 2), (2, 3)])
    table = q_recursion(2, 4)
    assert check_polynomiality(2, [(1, 2), (1, 2), (2, 2)], table)
    with pytest.raises(ValueError):
        check_polynomiality(1, [(1, 0)])


def test_polynomiality_catches_a_left_q_a0(monkeypatch):
    # negative control: with evaluation switched off, every word with a
    # letter k >= 2 keeps its Q_{a,0} powers, and the check must say so;
    # Q_{1,3} at rank 1 has Q_{1,0}-exponents -2 and 0 only
    import qchar.qtorus as qtorus

    real = qtorus.evaluate
    monkeypatch.setattr(qtorus, "evaluate", lambda f, mode="ev": f)
    assert check_polynomiality(2, [(1, 1), (2, 1)])
    words = ((1, [(1, 2)]), (1, [(1, 3)]), (2, [(1, 2), (2, 3)]), (2, [(2, 2)]), (3, [(1, 1), (3, 2)]))
    for rank, word in words:
        with pytest.raises(AssertionError, match="Q_"):
            check_polynomiality(rank, word)
    # an evaluation that keeps a copy times Q_{1,0}: exponents 0 and 1
    monkeypatch.setattr(qtorus, "evaluate", lambda f, mode="ev": real(f, mode) * (gen(1, 1, 0) + NcLaurent.one(1)))
    with pytest.raises(AssertionError, match="Q_"):
        check_polynomiality(1, [(1, 2)])


def test_intertwining_of_evaluations():
    rng = random.Random(3)
    for rank in (1, 2):
        ones = NcLaurent.monomial(rank, (0,) * rank, (1,) * rank)
        for _ in range(15):
            f = NcLaurent.zero(rank)
            for _ in range(4):
                a = tuple(rng.randint(-2, 2) for _ in range(rank))
                b = tuple(rng.randint(-2, 2) for _ in range(rank))
                f = f + NcLaurent.monomial(rank, a, b, rng.randint(-3, 3), rng.randint(-5, 5))
            assert evaluate(ones * f, "ev") == ones * evaluate(f, "ev0")


def test_commutation_window_on_computed_values():
    rank = 2
    cart = CartanData(rank)
    table = q_recursion(rank, 5, -2)

    def get(a, k):
        return NcLaurent.one(rank) if a in (0, rank + 1) else table[(a, k)]

    for a in (1, 2):
        for b in (1, 2):
            for k in range(-2, 6):
                for kp in range(-2, 6):
                    if abs(k - kp) > abs(a - b) + 1 or (a, k) >= (b, kp):
                        continue
                    lhs = get(a, k) * get(b, kp)
                    rhs = (get(b, kp) * get(a, k)).times_unit(
                        2 * cart.lam(a, b) * (kp - k)
                    )
                    assert lhs == rhs, (a, b, k, kp)
