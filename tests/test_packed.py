"""Packed exponent keys: the kernels of ``qchar.laurent`` and ``qchar.qtorus``
against the tuple-keyed reference kernels of ``oracles``, with exponents at
the edges of the key slots, and the overflow rule at the exact edge."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    packed_parts,
    ref_div,
    ref_ev,
    ref_ev0,
    ref_mul,
    ref_nc_mul,
    ref_times_z,
)
from qchar.laurent import (
    EXP_MAX,
    EXP_MIN,
    SLOT_BITS,
    LaurentPoly,
    offset,
    outside_box,
    unit_slots,
)
from qchar.macdonald import apply_macdonald_m
from qchar.qdiff import apply_M, packed_sum
from qchar.qtorus import NcLaurent, _twisted, evaluate, nc_div_left, nc_div_right, q_commutator
from qchar.rings import RING_Q, RING_QT, RING_W, ExponentOverflow
from qchar.symfun import SchurPoly, schur

RINGS = (RING_Q, RING_W, RING_QT)


def exponents(scale=1):
    """Small exponents, and exponents within 3 of the slot edges divided by
    ``scale`` (so that products of ``scale`` factors stay in range)."""
    return st.one_of(
        st.integers(-3, 3),
        st.integers(-(-EXP_MIN // scale), -(-EXP_MIN // scale) + 3),
        st.integers(EXP_MAX // scale - 3, EXP_MAX // scale),
    )


@st.composite
def term_dicts(draw, ring, nvars, scale=1, max_terms=4):
    """{exponent tuple: coefficient}, the unit entries (q and t over QT)
    first."""
    width = nvars + unit_slots(ring)
    keys = draw(st.lists(st.tuples(*[exponents(scale)] * width), max_size=max_terms, unique=True))
    return {k: draw(st.integers(-5, 5).filter(bool)) for k in keys}


def fits(terms):
    return all(EXP_MIN <= e <= EXP_MAX for k in terms for e in k)


def view(f):
    return dict(f.terms())


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5), st.data())
def test_outside_box_is_the_slotwise_test(width, data):
    # entries of the difference within +-3 of 0, of the limit and of the
    # slot range, where a borrow or a missing check would show
    half = 1 << (SLOT_BITS - 1)
    top = data.draw(st.lists(st.sampled_from([0, 1, 2, half - 2, half - 1]), min_size=width, max_size=width))
    near = [st.integers(t - 3, t + 3) for t in top]
    d = [data.draw(st.one_of(x, st.integers(-3, 3), st.integers(1 - half, 4 - half))) for x in near]
    d = [max(1 - half, min(half - 1, x)) for x in d]
    expected = not all(0 <= x <= t for x, t in zip(d, top))
    assert bool(outside_box(offset(d), offset(top), width)) == expected


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(RINGS), st.integers(1, 3), st.data())
def test_product_matches_reference_or_overflows(ring, nvars, data):
    a = data.draw(term_dicts(ring, nvars))
    b = data.draw(term_dicts(ring, nvars))
    f, g = LaurentPoly.from_terms(ring, nvars, a), LaurentPoly.from_terms(ring, nvars, b)
    assert view(f) == a
    expected = ref_mul(a, b)
    if fits(expected):
        assert view(f * g) == expected
    else:
        with pytest.raises(ExponentOverflow):
            f * g


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(RINGS), st.integers(1, 3), st.data())
def test_shifts_match_reference_or_overflow(ring, nvars, data):
    a = data.draw(term_dicts(ring, nvars))
    f = LaurentPoly.from_terms(ring, nvars, a)
    zshift = data.draw(st.tuples(*[exponents()] * nvars))
    zoff = f.zoff
    expected = ref_times_z(a, zshift, zoff)
    if fits(expected):
        assert view(f.times_z(zshift)) == expected
    else:
        with pytest.raises(ExponentOverflow):
            f.times_z(zshift)
    j = data.draw(exponents())
    expected = {(k[0] + j,) + k[1:]: c for k, c in a.items()}
    if fits(expected):
        assert view(f.times_unit(j)) == expected
    else:
        with pytest.raises(ExponentOverflow):
            f.times_unit(j)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(RINGS), st.integers(1, 3), st.data())
def test_ring_axioms_near_the_edges(ring, nvars, data):
    f, g, h = (LaurentPoly.from_terms(ring, nvars, data.draw(term_dicts(ring, nvars, scale=3, max_terms=3)))
               for _ in range(3))
    zero = LaurentPoly.zero(ring, nvars)
    assert (f + g) * h == f * h + g * h
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f + (-f) == zero
    assert f * LaurentPoly.one(ring, nvars) == f
    if g:
        assert ref_div(f * g, g) == f


def nc_terms(rank, scale=1, max_terms=4):
    vec = st.tuples(*[exponents(scale)] * rank)
    coeff = st.dictionaries(st.integers(-3, 3), st.integers(-4, 4).filter(bool), min_size=1, max_size=2)
    return st.dictionaries(st.tuples(vec, vec), coeff, max_size=max_terms)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.data())
def test_torus_product_matches_reference_or_overflows(rank, data):
    # x*y, and w**c x*y (``_twisted``) for a drawn c, against the reference
    # product shifted by c
    a, b = data.draw(nc_terms(rank)), data.draw(nc_terms(rank))
    c = data.draw(st.one_of(st.integers(-4, 4), exponents(2)))
    x, y = NcLaurent.from_terms(rank, a), NcLaurent.from_terms(rank, b)
    assert dict(x.terms()) == a
    expected = ref_nc_mul(rank, a, b)
    # every term the product forms, before like terms add up: the twisted w
    # of a term that later cancels must fit as well
    formed = [
        ref_nc_mul(rank, {k1: {e1: 1}}, {k2: {e2: 1}})
        for k1, c1 in a.items() for k2, c2 in b.items() for e1 in c1 for e2 in c2
    ]
    ab_fit = all(EXP_MIN <= e <= EXP_MAX for t in formed for u, v in t for e in (*u, *v))
    ws = [e for t in formed for w in t.values() for e in w]
    for shift, product in ((0, lambda: x * y), (c, lambda: _twisted(x, y, c))):
        if ab_fit and all(EXP_MIN <= e + shift <= EXP_MAX for e in ws):
            assert dict(product().terms()) == {k: {e + shift: v for e, v in d.items()} for k, d in expected.items()}
        else:
            with pytest.raises(ExponentOverflow):
                product()


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.sampled_from(["ev", "ev0"]), st.data())
def test_evaluation_matches_reference_or_overflows(rank, mode, data):
    # the reference that ev0_times is tested against, against the tuple
    # oracle: it must raise exactly when a term it forms, before like terms
    # add up, has w outside its slot (ev never moves w).  Every w is moved
    # by j, so that terms sit at the edges of the w slot as well
    a, j = data.draw(nc_terms(rank)), data.draw(st.one_of(st.just(0), exponents()))
    a = {k: {e + j: v for e, v in c.items()} for k, c in a.items()}
    assume(all(EXP_MIN <= e <= EXP_MAX for c in a.values() for e in c))
    x = NcLaurent.from_terms(rank, a)
    ref = ref_ev0 if mode == "ev0" else ref_ev
    formed = [ref(rank, {k: {e: 1}}) for k, c in a.items() for e in c]
    if all(EXP_MIN <= w <= EXP_MAX for t in formed for d in t.values() for w in d):
        assert dict(evaluate(x, mode).terms()) == ref(rank, a)
    else:
        assert mode == "ev0"
        with pytest.raises(ExponentOverflow):
            evaluate(x, mode)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.data())
def test_q_commutator_matches_reference_or_overflows(rank, data):
    # f*g - w**c g*f against the reference products; it must raise exactly
    # when a term of f*g or of w**c g*f, as formed, leaves its slot
    a, b = data.draw(nc_terms(rank)), data.draw(nc_terms(rank))
    c = data.draw(st.one_of(st.integers(-4, 4), exponents(2)))
    x, y = NcLaurent.from_terms(rank, a), NcLaurent.from_terms(rank, b)
    expected = ref_nc_mul(rank, a, b)
    for key, coeff in ref_nc_mul(rank, b, a).items():
        cur = expected.setdefault(key, {})
        for e, v in coeff.items():
            cur[e + c] = cur.get(e + c, 0) - v
    expected = {k: {e: v for e, v in d.items() if v} for k, d in expected.items()}
    expected = {k: d for k, d in expected.items() if d}
    formed = [ref_nc_mul(rank, {k1: {e1: 1}}, {k2: {e2: 1}}) for k1, c1 in a.items() for k2, c2 in b.items() for e1 in c1 for e2 in c2]
    formed += [
        {k: {e + c: v for e, v in d.items()} for k, d in ref_nc_mul(rank, {k2: {e2: 1}}, {k1: {e1: 1}}).items()}
        for k1, c1 in a.items() for k2, c2 in b.items() for e1 in c1 for e2 in c2
    ]
    if all(EXP_MIN <= e <= EXP_MAX for t in formed for (u, v), w in t.items() for e in (*u, *v, *w)):
        assert dict(q_commutator(x, y, c).terms()) == expected
    else:
        with pytest.raises(ExponentOverflow):
            q_commutator(x, y, c)


def test_q_commutator_and_division_w_slot_at_the_edge():
    # Q_{1,0} Q_{1,1} = w**2 Q_{1,1} Q_{1,0}: at the edge of the w slot only
    # the side w**c * g*f leaves it, below with c = 0 and above with c = 1
    q10, q11 = NcLaurent.generator(1, 1, 0), NcLaurent.generator(1, 1, 1)
    low, high = q10.times_unit(EXP_MIN), q11.times_unit(EXP_MAX)
    assert not q_commutator(low, q11, 2) and not q_commutator(high, q10, -2)
    for f, g, c in ((low, q11, 0), (high, q10, 1)):
        with pytest.raises(ExponentOverflow):
            q_commutator(f, g, c)
    # the first quotient term w**EXP_MIN times den forms w**(EXP_MIN - 3) Q_{1,0}
    num, den = (q11 + q10).times_unit(EXP_MIN), q11 + q10.times_unit(-3)
    for divide in (nc_div_left, nc_div_right):
        with pytest.raises(ExponentOverflow):
            divide(num, den)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2), st.booleans(), st.data())
def test_torus_division_round_trip_near_the_edges(rank, edge_in_a, data):
    # x has edge exponents in w and in one block, d is zero in the block the
    # twist pairs with that one: an edge exponent times any other nonzero
    # exponent twists w out of its slot at rank 2
    edge, small, zero = exponents(3), st.integers(-1, 1), st.just(0)

    def terms(a, b, w, max_terms):
        vecs = st.tuples(st.tuples(*[a] * rank), st.tuples(*[b] * rank))
        coeff = st.dictionaries(w, st.integers(-4, 4).filter(bool), min_size=1, max_size=2)
        return st.dictionaries(vecs, coeff, max_size=max_terms)

    x = data.draw(terms(edge, small, edge, 3) if edge_in_a else terms(small, edge, edge, 3))
    d = data.draw(terms(small, zero, small, 2) if edge_in_a else terms(zero, small, small, 2))
    x, d = NcLaurent.from_terms(rank, x), NcLaurent.from_terms(rank, d)
    assume(x and d)
    try:
        xd, dx = x * d, d * x
    except ExponentOverflow:
        assume(False)  # a twisted w-exponent of the product leaves its slot
    assert nc_div_right(xd, d) == x
    assert nc_div_left(dx, d) == x


# -- the exact edge ----------------------------------------------------------------


@pytest.mark.parametrize("ring", RINGS)
def test_laurent_edge_round_trips_and_one_past_raises(ring):
    n = 2
    unit = (0,) * unit_slots(ring)
    for edge in ((EXP_MAX, EXP_MIN), (EXP_MIN, EXP_MAX)):
        f = LaurentPoly.monomial(ring, n, edge, 3)
        assert [k for k, _ in f.terms()] == [unit + edge]
    for e in (EXP_MAX + 1, EXP_MIN - 1):
        with pytest.raises(ExponentOverflow):
            LaurentPoly.monomial(ring, n, (e, 0))
        with pytest.raises(ExponentOverflow):
            LaurentPoly.from_terms(ring, n, {unit + (0, e): 1})
    z1 = LaurentPoly.variable(ring, n, 0)
    top = LaurentPoly.monomial(ring, n, (EXP_MAX - 1, 0))
    assert [k for k, _ in (top * z1).terms()] == [unit + (EXP_MAX, 0)]
    assert [k for k, _ in top.times_z((1, 0)).terms()] == [unit + (EXP_MAX, 0)]
    with pytest.raises(ExponentOverflow):
        top * z1 * z1
    with pytest.raises(ExponentOverflow):
        top.times_z((2, 0))
    bottom = LaurentPoly.monomial(ring, n, (0, EXP_MIN))
    with pytest.raises(ExponentOverflow):
        bottom.times_z((0, -1))
    # a sum whose extreme term cancelled fits again
    near = (top * z1 + z1) - top * z1
    assert near.times_z((EXP_MAX - 1, 0)) == LaurentPoly.monomial(ring, n, (EXP_MAX, 0))
    u = LaurentPoly.unit_power(ring, n, EXP_MAX)
    assert [k for k, _ in u.terms()] == [(EXP_MAX,) + unit[1:] + (0, 0)]
    with pytest.raises(ExponentOverflow):
        u.times_unit(1)
    assert u.times_unit(EXP_MIN - EXP_MAX) == LaurentPoly.unit_power(ring, n, EXP_MIN)
    with pytest.raises(ExponentOverflow):
        LaurentPoly.unit_power(ring, n, EXP_MIN).times_unit(-1)


def test_qt_unit_slots_at_the_edge():
    # q is the lowest slot and t the next; each overflows on its own
    n = 2

    def qt(q, t, z=(0, 0), c=1):
        return LaurentPoly.from_terms(RING_QT, n, {(q, t) + z: c})

    for slot in (0, 1):
        top = [0, 0]
        top[slot] = EXP_MAX
        low = [0, 0]
        low[slot] = EXP_MIN
        step = [0, 0]
        step[slot] = 1
        f, g, s = qt(*top), qt(*low), qt(*step)
        assert [k for k, _ in f.terms()] == [tuple(top) + (0, 0)]
        with pytest.raises(ExponentOverflow):
            f * s
        with pytest.raises(ExponentOverflow):
            g * qt(-step[0], -step[1])
        with pytest.raises(ExponentOverflow):
            LaurentPoly.from_terms(RING_QT, n, {tuple(x + y for x, y in zip(top, step)) + (0, 0): 1})
        assert (f * qt(-step[0], -step[1])) * s == f
        # the other slot and the z's are untouched at the edge
        assert [k for k, _ in (f * qt(1 - step[0], 1 - step[1], (1, 0))).terms()] == [
            tuple(x + 1 - y for x, y in zip(top, step)) + (1, 0)
        ]
    # the q-shift of the Macdonald operator checks the q slot, also where
    # an unchecked shift would carry into the t slot and leave a valid key;
    # its t-powers t**0 .. t**(alpha (N - alpha)) check the t slot, and the
    # least q-shift, of the alpha least parts of mu, the bottom of the q slot;
    # in two variables M_1 m_mu = (q**mu_2 + q**mu_1 t) m_mu
    m1, low = (1, 0), (0, -1)
    assert apply_macdonald_m(1, {m1: {offset((EXP_MAX - 1,)): 1}}, n) == {m1: {offset((EXP_MAX - 1,)): 1, offset((EXP_MAX, 1)): 1}}
    with pytest.raises(ExponentOverflow):
        apply_macdonald_m(1, {m1: {offset((EXP_MAX,)): 1}}, n)
    with pytest.raises(ExponentOverflow):
        apply_macdonald_m(3, {(EXP_MAX - 2,) * 3: {offset((EXP_MAX,)): 1}}, 3)
    assert apply_macdonald_m(1, {m1: {offset((0, EXP_MAX - 1)): 1}}, n) == {m1: {offset((0, EXP_MAX - 1)): 1, offset((1, EXP_MAX)): 1}}
    with pytest.raises(ExponentOverflow):
        apply_macdonald_m(1, {m1: {offset((0, EXP_MAX)): 1}}, n)
    assert apply_macdonald_m(1, {low: {offset((EXP_MIN + 1,)): 1}}, n) == {low: {offset((EXP_MIN,)): 1, offset((EXP_MIN + 1, 1)): 1}}
    with pytest.raises(ExponentOverflow):
        apply_macdonald_m(1, {low: {offset((EXP_MIN,)): 1}}, n)


def test_schur_keys_at_the_edge():
    s = SchurPoly.basis((EXP_MAX, 0), 2, RING_Q)
    assert [k for k, _ in s.terms()] == [(0, EXP_MAX, 0)]
    with pytest.raises(ExponentOverflow):
        SchurPoly.basis((EXP_MAX + 1, 0), 2, RING_Q)
    with pytest.raises(ExponentOverflow):
        packed_sum(packed_parts(s, 2, 1))
    one = SchurPoly.one(RING_Q, 2)
    assert apply_M(1, 0, one.times_unit(EXP_MAX - 1)) == one.times_unit(EXP_MAX - 1)
    with pytest.raises(ExponentOverflow):
        apply_M(1, 2, SchurPoly.basis((1, 1), 2).times_unit(EXP_MAX))
    with pytest.raises(ExponentOverflow):
        one.times_unit(EXP_MAX).times_unit(1)
    # taking lam_N full columns off s_lam (``symfun.column_split``) moves
    # lam_1 up by -lam_N: at EXP_MAX it fits, one past it raises in every
    # view that takes columns off, the packed chain value's included
    from qchar.qdiff import PackedSchur

    assert SchurPoly.basis((EXP_MAX - 1, -1), 2).constrained() == SchurPoly.basis((EXP_MAX, 0), 2)
    wide = SchurPoly.basis((EXP_MAX, -1), 2)
    packed = PackedSchur(RING_Q, 2, 0, 2, {key: (1, 0, 1) for key in wide.coeffs})
    for view in (wide.constrained, lambda: packed_sum([(packed, 0, 1, 0)]), lambda: apply_M(1, 0, wide), packed.constrained):
        with pytest.raises(ExponentOverflow):
            view()
    # a packed sum keeps any unit exponent; its Schur view checks the slot
    top = packed_sum([(PackedSchur.one(RING_Q, 2).times_unit(EXP_MAX - 1), 1, 1, None)])
    assert top[0].schur() == one.times_unit(EXP_MAX)
    with pytest.raises(ExponentOverflow):
        packed_sum([(PackedSchur.one(RING_Q, 2).times_unit(EXP_MAX), 1, 1, None)])[0].schur()
    # the monomial view by branching: every slot value is range-checked.
    # (s_(EXP_MAX) in two variables would have 2**25 terms, so the edge in
    # two variables is s_(EXP_MAX, EXP_MAX - 2) = (z1 z2)**(EXP_MAX - 2) h_2)
    assert schur((EXP_MAX,), 1) == LaurentPoly.monomial(RING_Q, 1, (EXP_MAX,))
    assert schur((EXP_MAX,), 1, RING_QT) == LaurentPoly.monomial(RING_QT, 1, (EXP_MAX,))
    edge = schur((EXP_MAX, EXP_MAX - 2), 2)
    assert sorted(k for k, _ in edge.terms()) == [
        (0, EXP_MAX - 2, EXP_MAX), (0, EXP_MAX - 1, EXP_MAX - 1), (0, EXP_MAX, EXP_MAX - 2)
    ]
    assert SchurPoly.basis((EXP_MAX, EXP_MAX - 2), 2).monomials() == edge
    for lam, nvars in (((EXP_MAX + 1,), 1), ((EXP_MAX + 1,), 2), ((EXP_MAX + 1, EXP_MAX - 1), 2)):
        with pytest.raises(ExponentOverflow):
            schur(lam, nvars)


def test_torus_edge_round_trips_and_one_past_raises():
    x = NcLaurent.monomial(1, (EXP_MAX,), (EXP_MIN,), wexp=5)
    assert dict(x.terms()) == {((EXP_MAX,), (EXP_MIN,)): {5: 1}}
    with pytest.raises(ExponentOverflow):
        NcLaurent.monomial(1, (EXP_MAX + 1,), (0,))
    with pytest.raises(ExponentOverflow):
        x * NcLaurent.generator(1, 1, 0)
    with pytest.raises(ExponentOverflow):
        x * NcLaurent.monomial(1, (0,), (-1,))
    # moving Q_{1,1}**EXP_MIN past Q_{1,0}**-1 would give w**(5 + 2 EXP_MIN)
    with pytest.raises(ExponentOverflow):
        x * NcLaurent.monomial(1, (-1,), (1,))


def test_torus_w_slot_at_the_edge():
    top = NcLaurent.monomial(1, (0,), (0,), wexp=EXP_MAX)
    assert dict(top.terms()) == {((0,), (0,)): {EXP_MAX: 1}}
    with pytest.raises(ExponentOverflow):
        top.times_unit(1)
    with pytest.raises(ExponentOverflow):
        NcLaurent.monomial(1, (0,), (0,), wexp=EXP_MIN - 1)
    assert top.times_unit(EXP_MIN - EXP_MAX) == NcLaurent.monomial(1, (0,), (0,), wexp=EXP_MIN)
    # Q_{1,1}**m Q_{1,0}**n = w**(-2mn) Q_{1,0}**n Q_{1,1}**m at rank 1
    q10, q11 = NcLaurent.generator(1, 1, 0), NcLaurent.generator(1, 1, 1)
    low = NcLaurent.monomial(1, (0,), (1,), wexp=EXP_MIN + 2)
    assert dict((low * q10).terms()) == {((1,), (1,)): {EXP_MIN: 1}}
    with pytest.raises(ExponentOverflow):
        low.times_unit(-1) * q10
    m = 1 << 12  # the twist alone reaches -2 m**2 = EXP_MIN
    edge = NcLaurent.generator(1, 1, 1, m) * NcLaurent.generator(1, 1, 0, m)
    assert dict(edge.terms()) == {((m,), (m,)): {EXP_MIN: 1}}
    with pytest.raises(ExponentOverflow):
        NcLaurent.generator(1, 1, 1, m + 1) * NcLaurent.generator(1, 1, 0, m)
    # Q_{1,1}**-1 Q_{1,0} = w**2 Q_{1,0} Q_{1,1}**-1 pushes w up
    high = NcLaurent.monomial(1, (0,), (-1,), wexp=EXP_MAX - 2)
    assert dict((high * q10).terms()) == {((1,), (-1,)): {EXP_MAX: 1}}
    with pytest.raises(ExponentOverflow):
        high.times_unit(1) * q10
    assert q11 * top == top * q11
    # ev0 sets Q_{1,0} to w**-2 at rank 1
    near = NcLaurent.monomial(1, (1,), (0,), wexp=EXP_MIN + 2)
    assert evaluate(near, "ev0") == NcLaurent.monomial(1, (0,), (0,), wexp=EXP_MIN)
    with pytest.raises(ExponentOverflow):
        evaluate(near.times_unit(-1), "ev0")


def test_torus_and_plain_polynomials_do_not_mix():
    x, plain = NcLaurent.one(1), LaurentPoly.one(RING_W, 2)
    for op in (lambda f, g: f + g, lambda f, g: f - g, lambda f, g: f == g, lambda f, g: f * g):
        with pytest.raises(TypeError):
            op(x, plain)
        with pytest.raises(TypeError):
            op(plain, x)


def test_every_cache_is_bounded():
    import importlib
    import pkgutil

    import qchar

    caches = {}
    for info in pkgutil.iter_modules(qchar.__path__):
        module = importlib.import_module("qchar." + info.name)
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_parameters") and obj.__module__ == module.__name__:
                caches["%s.%s" % (info.name, name)] = obj.cache_parameters()["maxsize"]
    assert {"symfun._schur_zcoeffs", "laurent.zero_key", "qdiff._image"} <= caches.keys()
    assert [name for name, maxsize in caches.items() if maxsize is None] == []
