"""Quantum torus tests: normal ordering, the recursion table, evaluation
maps, and exact noncommutative division."""

import itertools
import random
import re
from functools import reduce
from operator import mul

import qchar.qtorus as qtorus

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import check_polynomiality, image_nc, ref_ev0_word, ref_nc_div, ref_nc_mul
from qchar.cartan import CartanData
from qchar.laurent import EXP_MAX, EXP_MIN, SLOT_BITS, LaurentPoly, key_bounds, kron_digits, pack, split_unit, zero_key
from qchar.qtorus import (
    NcLaurent,
    PackedImage,
    ev0_image,
    ev0_negative_term,
    ev0_times,
    evaluate,
    nc_div_left,
    nc_div_right,
    q_commutator,
    q_recursion,
    relation_rhs,
)
from qchar.rings import RING_W, ExponentOverflow, NcNotDivisible


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


def test_generator_rejects_alpha_outside_the_diagram():
    assert gen(2, 0, 0) == gen(2, 3, 1) == NcLaurent.one(2)
    for alpha, k in ((5, 0), (-1, 1), (4, 0)):
        with pytest.raises(ValueError, match=re.escape("alpha in [0, 3]")):
            gen(2, alpha, k)
    with pytest.raises(ValueError):
        gen(2, 1, 2)


@pytest.mark.parametrize("name, args", [("from_int", (RING_W, 2, 1)), ("variable", (RING_W, 2, 0)), ("unit_power", (RING_W, 2, 3))])
def test_laurent_constructors_are_refused(name, args):
    # LaurentPoly's (ring, nvars, ...) arguments do not fit the rank
    for owner in (NcLaurent, NcLaurent.one(1)):
        with pytest.raises(TypeError, match="LaurentPoly.%s does not fit NcLaurent" % name):
            getattr(owner, name)(*args)


def test_ev0_image_names_a_letter_outside_the_table():
    table = q_recursion(2, 3)
    for letter in ((4, 1), (1, 4), (-1, 2)):
        with pytest.raises(ValueError, match=re.escape(str(letter))):
            ev0_image(2, [(1, 1), letter], table)
    # the boundary letters alpha = 0, r+1 stand for 1 at any k >= 1
    assert image_nc(ev0_image(2, [(0, 7), (1, 1), (3, 9)], table)) == image_nc(ev0_image(2, [(1, 1)], table))


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
    # negative control: with the ev0 step a plain product (packed again,
    # position keys and all), every word with a letter k >= 2 keeps its
    # Q_{a,0} powers, and the mask test must say so; Q_{1,3} at rank 1 has
    # Q_{1,0}-exponents -2 and 0 only
    real = qtorus.ev0_times
    monkeypatch.setattr(qtorus, "ev0_times", lambda img, x: PackedImage.of(image_nc(img) * x))
    assert check_polynomiality(2, [(1, 1), (2, 1)])
    words = ((1, [(1, 2)]), (1, [(1, 3)]), (2, [(1, 2), (2, 3)]), (2, [(2, 2)]), (3, [(1, 1), (3, 2)]))
    for rank, word in words:
        with pytest.raises(AssertionError, match="Q_"):
            check_polynomiality(rank, word)
    # an ev0 step that keeps a copy times Q_{1,0}: exponents 0 and 1
    copy = gen(1, 1, 0) + NcLaurent.one(1)
    monkeypatch.setattr(qtorus, "ev0_times", lambda img, x: PackedImage.of(image_nc(real(img, x)) * copy))
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


def window_pairs(rank, table, k_min, k_max):
    """(f, g, c) for every in-window pair Q_{a,k}, Q_{b,k'} with (a, k) < (b, k'):
    f g = w**c g f."""
    cart = CartanData(rank)
    for a, b in itertools.product(range(1, rank + 1), repeat=2):
        for k, kp in itertools.product(range(k_min, k_max + 1), repeat=2):
            if abs(k - kp) <= abs(a - b) + 1 and (a, k) < (b, kp):
                yield table[(a, k)], table[(b, kp)], 2 * cart.lam(a, b) * (kp - k)


def test_q_commutator_matches_the_two_products_on_every_window_pair():
    # zero exactly where the products agree, in either order and with f
    # scaled (a wider packing); with c +- 1 the commutator is the nonzero
    # difference of the products on every pair (a domain), and the reversed
    # one is -w**(-c) times it.  At rank 4, k in [-2, 4] (228 pairs; most
    # of their position pairs have differing twists): zero at c, and the
    # difference of the products at c + 1
    for rank in (1, 2, 3):
        table = q_recursion(rank, 5, -2)
        for f, g, c in window_pairs(rank, table, -2, 5):
            fg, gf = f * g, g * f
            assert not q_commutator(f, g, c) and fg == gf.times_unit(c)
            assert not q_commutator(g, f, -c) and not q_commutator(f * 1000, g, c)
            for moved in (c - 1, c + 1):
                comm = q_commutator(f, g, moved)
                assert comm and comm == fg - gf.times_unit(moved)
                assert q_commutator(g, f, -moved) == -comm.times_unit(-moved)
    pairs = list(window_pairs(4, q_recursion(4, 4, -2), -2, 4))
    assert len(pairs) == 228
    for f, g, c in pairs:
        assert not q_commutator(f, g, c)
        comm = q_commutator(f, g, c + 1)
        assert comm and comm == f * g - (g * f).times_unit(c + 1)


def test_q_commutator_packed_sums_are_the_commutator(monkeypatch):
    # every window pair at ranks 1-3 passes the gate, and the packed sums
    # behind the zero test, read back digit by digit, are exactly the
    # commutator's terms: with c moved by one (nonzero, formed by the
    # twisted products), and empty digits where it is zero
    seen = []
    real = qtorus._packed_sums

    def spy(s, left, right, twists, backs):
        seen.append((s, real(s, left, right, twists, backs)))
        return seen[-1][1]

    monkeypatch.setattr(qtorus, "_packed_sums", spy)
    for rank in (1, 2, 3):
        table = q_recursion(rank, 5, -2)
        for f, g, c in window_pairs(rank, table, -2, 5):
            for moved in (c, c + 1):
                seen.clear()
                comm = q_commutator(f, g, moved)
                assert len(seen) == 1, (rank, moved)
                s, sums = seen[0]
                # a target is the sum of two position keys: one zero key too many
                read = {
                    (target - zero_key(2 * rank) << SLOT_BITS) + pack((lo + i,)): x
                    for target, (lo, n) in sums.items()
                    for i, x in kron_digits(n, s)
                }
                assert read == comm.coeffs and bool(comm) == (moved != c), (rank, moved)


def test_q_commutator_packing_is_wide_enough_near_2_to_the_40():
    # [(w - 2**40) Q_{1,0}, Q_{1,1}] with c = 0 is (w - 2**40)(1 - w**-2)
    # Q_{1,0} Q_{1,1}, nonzero; packed at w = 2**40, three bits below the
    # width used, its only target position reads 0.  (Two bits below is still
    # exact: every coefficient is at most |f|_1 |g|_1 < 2**41.)
    f = NcLaurent.from_terms(1, {((1,), (0,)): {0: -(2**40), 1: 1}})
    g = gen(1, 1, 1)
    comm = q_commutator(f, g, 0)
    assert comm and comm == f * g - g * f
    assert dict(comm.terms()) == {((1,), (1,)): {-2: 2**40, -1: -1, 0: -(2**40), 1: 1}}
    assert not q_commutator(f, g, 2) and f * g == (g * f).times_unit(2)


def test_q_commutator_at_edge_exponents_takes_the_product_route():
    # Q_{1,2} times w-exponents at both ends of the slot against Q_{1,3}, at
    # rank 1: packing would need about 2**28 bits, so the gate declines and
    # the twisted products form the commutator.  At c = 2 it is zero
    # although its position pairs' twists differ; otherwise it is the
    # difference of the products
    table = q_recursion(1, 3)
    ends = NcLaurent.from_terms(1, {((0,), (0,)): {EXP_MIN + 100: 1, EXP_MAX - 100: -3}})
    f, g = table[(1, 2)] * ends, table[(1, 3)]
    assert not q_commutator(f, g, 2)
    for c in (-5, 1, 3):
        comm = q_commutator(f, g, c)
        assert comm and comm == f * g - (g * f).times_unit(c), c
    with pytest.raises(ExponentOverflow):
        q_commutator(f, g, -200)


def test_q_commutator_gate_declines_where_every_formed_term_fits(monkeypatch):
    # the gate's w-range is f's and g's plus the least and greatest raise,
    # which here come from different position pairs: a w at one edge of the
    # slot sits at raise 0 and the raise of 2 (or -2) on a w far from it,
    # so the gate declines although every term either product forms fits.
    # The products give the commutator, zero against Q_{1,0} Q_{1,1} (which
    # commutes with every term of f) and nonzero against Q_{1,1}; c moved
    # towards that edge forms a term outside the slot.  So does a zero
    # commutator whose products leave the slot, which the width rule alone
    # would let the packed test pass
    monkeypatch.setattr(qtorus, "_packed_sums", lambda *args: pytest.fail("the gate should decline"))
    x, y = gen(1, 1, 0), gen(1, 1, 1)
    high = NcLaurent.from_terms(1, {((0,), (0,)): {EXP_MAX: 1}, ((-1,), (-1,)): {EXP_MIN + 10: 1}})
    low = NcLaurent.from_terms(1, {((0,), (0,)): {EXP_MIN: 1}, ((1,), (1,)): {EXP_MAX - 10: 1}})
    for f, out in ((high, 1), (low, -1)):
        assert not q_commutator(f, x * y, 0) and f * (x * y) == (x * y) * f
        comm = q_commutator(f, y, 0)
        assert comm and comm == f * y - (y * f).times_unit(0)
        for g in (y, x * y):
            with pytest.raises(ExponentOverflow):
                q_commutator(f, g, out)
    assert dict(q_commutator(high, y, 0).terms()) == {((-1,), (0,)): {EXP_MIN + 10: 1, EXP_MIN + 12: -1}}
    top = NcLaurent.from_terms(1, {((0,), (0,)): {EXP_MAX: 1}, ((-1,), (-1,)): {EXP_MAX: 1}})
    with pytest.raises(ExponentOverflow):
        q_commutator(top, x * y, 0)


def scalar_poly(rank, c):
    return NcLaurent.from_terms(rank, {((0,) * rank, (0,) * rank): c})


def test_q_commutator_small_cases():
    x, y = gen(1, 1, 0), gen(1, 1, 1)
    assert not q_commutator(x, y, 2)  # Q_{1,0} Q_{1,1} = w**2 Q_{1,1} Q_{1,0}
    assert q_commutator(x, y, 0) == x * y - y * x
    assert not q_commutator(NcLaurent.zero(1), y, 5)
    assert q_commutator(x + NcLaurent.one(1), NcLaurent.one(1), 1) == (x + NcLaurent.one(1)) * scalar_poly(1, {0: 1, 1: -1})


def sorted_words(rank, k_max, length):
    letters = [(a, k) for a in range(1, rank + 1) for k in range(1, k_max + 1)]
    return [w for n in range(1, length + 1) for w in itertools.combinations_with_replacement(letters, n)]


def test_folded_ev0_images_match_the_full_products():
    # every sorted word of length <= 4 at ranks 1-3 (957 words), in the
    # order check_torus builds them: each packed image, one ev0 step from
    # its prefix's, unpacks to the image folded from one and to ev0 of the
    # full product, with each position's least and greatest w; at length
    # <= 3 also to the tuple-keyed oracle
    count = 0
    for rank in (1, 2, 3):
        table = q_recursion(rank, 3)
        images, products = {}, {(): NcLaurent.one(rank)}
        for word in sorted_words(rank, 3, 4):
            products[word] = products[word[:-1]] * table[word[-1]]
            shared = ev0_image(rank, word, table, images)
            image = image_nc(shared)
            assert image == image_nc(ev0_image(rank, word, table)) == evaluate(products[word], "ev0"), word
            s, rows = shared.packing
            for pos, (_, wlo, n) in rows.items():
                ws = [w for w, p in map(split_unit, image.coeffs) if p == pos]
                assert (wlo, wlo + abs(n).bit_length() // s) == (min(ws), max(ws)), word
            if len(word) <= 3:
                assert dict(image.terms()) == ref_ev0_word(rank, word, table), word
            assert ev0_negative_term(shared) is None
            assert check_polynomiality(rank, word, table)
            count += 1
        assert len(images) == len(sorted_words(rank, 3, 4))
    assert count == 957


def test_a_stored_prefix_image_is_repacked_once(monkeypatch):
    # at rank 1 the image of Q_{1,3} sits at width 4, and times Q_{1,2} or
    # Q_{1,3} each needs a wider one: the first step holds the stored
    # prefix image at width 8 in place, and the second reads it there
    import qchar.laurent as laurent

    table, images = q_recursion(1, 4), {}
    prefix = ev0_image(1, [(1, 3)], table, images)
    assert prefix.packing[0] == 4
    widths, digits = [], laurent.kron_digits
    monkeypatch.setattr(laurent, "kron_digits", lambda n, s: widths.append(s) or digits(n, s))
    for letter in ((1, 2), (1, 3)):
        assert ev0_image(1, [(1, 3), letter], table, images).packing[0] == 8
    assert prefix.packing[0] == 8 and widths == [4] * len(prefix.packing[1])


def test_ev0_step_width_at_the_coefficient_bound():
    # c * Q_{1,1} packs at width bit_length(|c|) + 1 and times a monomial
    # steps at that width: |c| = 2**m - 1 sits at the bound just below a
    # wider width, 2**m just past it, and both come back exactly.  One bit
    # narrower, a positive coefficient at the bound is read back wrong: the
    # width is as narrow as it can be
    x = gen(1, 1, 1)
    for m in (1, 2, 7, 40):
        for c in (2**m - 1, 2**m, -(2**m - 1), -(2**m)):
            img = PackedImage.of(NcLaurent.monomial(1, (0,), (1,), 3, c))
            step = ev0_times(img, x)
            s, groups = step.packing
            ((_, (bound, _, n)),) = groups.items()
            assert s == img.packing[0] == abs(c).bit_length() + 1 and bound == abs(c)
            assert image_nc(step) == NcLaurent.monomial(1, (0,), (2,), 3, c)
            assert kron_digits(n, s) == [(0, c)]
            if c > 1:
                assert kron_digits(n, s - 1) != [(0, c)]
    # two coefficients at the bound in one w-polynomial, and a step that
    # must widen the image: every digit comes back
    f = NcLaurent.from_terms(1, {((0,), (1,)): {0: 2**20, 1: -(2**20)}})
    y = NcLaurent.from_terms(1, {((0,), (1,)): {0: 1, 5: 1}})
    step = ev0_times(PackedImage.of(f), y)
    assert step.packing[0] > PackedImage.of(f).packing[0] and image_nc(step) == evaluate(f * y, "ev0")


def test_ev0_step_checks_every_b_slot():
    # a b-exponent pushed one past either end of its slot raises, at the
    # end itself it does not, as the product-then-evaluate route
    for b, step in ((EXP_MAX - 1, 1), (EXP_MIN + 1, -1)):
        x = NcLaurent.monomial(2, (0, 0), (0, step))
        img = PackedImage.of(NcLaurent.monomial(2, (0, 0), (5, b)))
        assert image_nc(ev0_times(img, x)) == evaluate(image_nc(img) * x, "ev0")
        beyond = PackedImage.of(NcLaurent.monomial(2, (0, 0), (5, b + step)))
        for route in (lambda: ev0_times(beyond, x), lambda: evaluate(image_nc(beyond) * x, "ev0")):
            with pytest.raises(ExponentOverflow):
                route()
    with pytest.raises(TypeError):
        ev0_times(PackedImage.of(NcLaurent.one(1)), NcLaurent.one(2))


def test_packed_positions_memo_is_bounded():
    f = q_recursion(2, 4)[(1, 4)]
    widths = range(3, 3 + 2 * qtorus._PACKS_KEPT)
    for s in widths:
        assert f._packed(s) == [sum(c << s * (k - p[6]) for k, c in p[5]) for p in f._position_groups()[2]]
    assert [width for width, _ in f._packs] == list(widths)[-qtorus._PACKS_KEPT:]


def test_ev0_step_at_the_edge_of_the_w_slot():
    # at rank 1, Q_{1,0}**a moved left past Q_{1,1} costs w**(-2a) and ev0
    # adds w**(-2a): the step reaches either end of the slot exactly and
    # raises one step beyond, as the product-then-evaluate oracle does
    for a, w in ((1, EXP_MIN + 4), (-1, EXP_MAX - 4)):
        x, step = NcLaurent.monomial(1, (a,), (0,)), 1 if a > 0 else -1
        img = NcLaurent.monomial(1, (0,), (1,), w)
        edge = ev0_times(PackedImage.of(img), x)
        assert image_nc(edge) == evaluate(img * x, "ev0") == NcLaurent.monomial(1, (0,), (1,), w - 4 * a)
        assert edge.packing[1] == {pack((0, 1)): (1, w - 4 * a, 1)}
        beyond = NcLaurent.monomial(1, (0,), (1,), w - step)
        for route in (lambda: ev0_times(PackedImage.of(beyond), x), lambda: evaluate(beyond * x, "ev0")):
            with pytest.raises(ExponentOverflow):
                route()


def test_powers_equal_repeated_products():
    f = NcLaurent.from_terms(2, {((1, 0), (0, -1)): {0: 2, 3: -1}, ((0, 0), (1, 1)): {1: 1}})
    p = LaurentPoly.from_terms(RING_W, 2, {(1, 2, 0): 3, (0, -1, 1): -2, (0, 0, 0): 1})
    for x, one in ((f, NcLaurent.one(2)), (p, LaurentPoly.one(RING_W, 2))):
        for n in (0, 1, 2, 3, 5):
            power = x**n
            assert power == reduce(mul, [x] * n, one), n
            assert power.bounds() == key_bounds(power.coeffs, power.width), n
    with pytest.raises(ValueError):
        f ** -1


def test_rank3_table_round_trips_through_the_reference_product():
    # every relation of the table through k in [-2, 5], in the tuple-keyed
    # reference product: Q_{a,k+1} Q_{a,k-1} = w**(-2 lam) (Q_{a,k}**2 -
    # Q_{a+1,k} Q_{a-1,k}); and both divisions of that product give the two
    # factors back, with exact boxes
    rank, cart = 3, CartanData(3)
    table = q_recursion(rank, 5, -2)
    terms = {key: dict(x.terms()) for key, x in table.items()}
    for k in range(-1, 5):
        for a in range(1, rank + 1):
            prod = ref_nc_mul(rank, terms[(a, k + 1)], terms[(a, k - 1)])
            rhs = relation_rhs(table, rank, a, k).times_unit(-2 * cart.lam(a, a))
            assert prod == dict(rhs.terms()), (a, k)
            num = NcLaurent.from_terms(rank, prod)
            for quot, want in ((nc_div_right(num, table[(a, k - 1)]), table[(a, k + 1)]),
                               (nc_div_left(num, table[(a, k + 1)]), table[(a, k - 1)])):
                assert quot == want and quot.bounds() == key_bounds(quot.coeffs, quot.width), (a, k)

