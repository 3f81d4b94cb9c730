"""Schur functions, expansions, the Pieri rule, straightening, two-block
branching and the dual Cauchy expansion against classical facts and their
definitions."""

from collections import Counter
from itertools import combinations_with_replacement
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    NonzeroRemainder,
    branch,
    dominates,
    monomial_sym,
    packed_parts,
    pieri_e,
    ref_branch,
    ref_schur,
    ref_signed_buckets,
    schur_expand,
    schur_form,
    tableau_schur,
    times_e,
    weight_of,
)
from qchar.laurent import EXP_MAX, EXP_MIN, LaurentPoly, offset
from qchar.qdiff import packed_sum
from qchar.rings import RING_Q, RING_QT, RING_W, ExponentOverflow, NotSymmetric
from qchar.symfun import (
    SchurPoly,
    _pieri_constrained_keys,
    _schur_monomials,
    _schur_zcoeffs,
    dual_cauchy,
    elementary,
    interlacing,
    partition_of_weight,
    partitions,
    partitions_up_to,
    schur,
    straighten,
)


def test_schur_small_values():
    e1 = elementary(1, 3)
    e2 = elementary(2, 3)
    e3 = elementary(3, 3)
    assert schur((1,), 3) == e1
    assert schur((1, 1), 3) == e2
    s21 = schur((2, 1), 3)
    assert s21 == e1 * e2 - e3
    assert len(s21.coeffs) == 7  # 8 monomials, two collide at z1 z2 z3


SCHUR_GRID = [(lam, nvars) for nvars in range(1, 7) for lam in partitions_up_to(8 if nvars < 6 else 6, nvars)]


def reference_schur(lam, nvars, ring):
    """Alternant / Vandermonde for N <= 4; semistandard tableaux for N >= 5,
    where the exact division of 120- and 720-term alternants is slow."""
    return ref_schur(lam, nvars, ring) if nvars <= 4 else tableau_schur(lam, nvars, ring)


def test_tableau_oracle_matches_alternant_over_vandermonde():
    # the two references agree wherever the division is cheap
    for nvars in range(1, 6):
        for lam in partitions_up_to(6 if nvars < 5 else 3, nvars):
            assert tableau_schur(lam, nvars) == ref_schur(lam, nvars), (lam, nvars)


@pytest.mark.parametrize("ring", [RING_Q, RING_W, RING_QT])
def test_branching_schur_matches_alternant_over_vandermonde(ring):
    # every lam with N <= 5 and |lam| <= 8, and N = 6 with |lam| <= 6
    for lam, nvars in SCHUR_GRID:
        assert _schur_zcoeffs(lam, nvars).with_ring(ring) == reference_schur(lam, nvars, ring), (lam, nvars)


@pytest.mark.parametrize("ring", [RING_Q, RING_W])
def test_monomial_view_matches_alternant_over_vandermonde(ring):
    # Schur forms with negative columns, a unit power and a coefficient,
    # one basis element at a time and summed over each (N, |lam|); the
    # view is defined on the W and Q rings only
    for nvars in range(1, 7):
        for size in range(9 if nvars < 6 else 7):
            form = SchurPoly.zero(ring, nvars)
            expected = LaurentPoly.zero(ring, nvars)
            for i, lam in enumerate(partitions(size, nvars)):
                cols, coeff = -1 - (i % 3), (-1) ** i * (i + 2)
                full = tuple(lam) + (0,) * (nvars - len(lam))
                term = SchurPoly.basis(tuple(x + cols for x in full), nvars, ring).times_unit(i - 2) * coeff
                ref = reference_schur(lam, nvars, ring).times_z((cols,) * nvars).times_unit(i - 2) * coeff
                assert term.monomials() == ref, (lam, nvars)
                form, expected = form + term, expected + ref
            assert form.monomials() == expected, (size, nvars)


def test_one_schur_to_monomial_rule_on_every_ring():
    # W and Q: sums of s_lam with negative full columns and unit shifts
    # round-trip through oracles.schur_form; QT: payloads keyed by the unit
    # offsets of (q, t) powers, as require_symmetric groups them
    for nvars in range(1, 5):
        for ring in (RING_Q, RING_W):
            f = LaurentPoly.zero(ring, nvars)
            for i, lam in enumerate(partitions_up_to(3, nvars)):
                f = f + schur(lam, nvars, ring).times_z((-1 - i % 2,) * nvars).times_unit(i - 3) * (i - 2 or 5)
            form = schur_form(f)
            assert _schur_monomials(form.z_terms(), ring, nvars) == form.monomials() == f, (nvars, ring)
        payloads, expected = {}, LaurentPoly.zero(RING_QT, nvars)
        for i, lam in enumerate(partitions_up_to(3, nvars)):
            full = tuple(x - 1 for x in lam) + (-1,) * (nvars - len(lam))
            q, t = i - 2, 1 - i % 3
            payloads[full] = {offset((q, t)): i + 1, offset((0, 1)): -2}
            scalar = LaurentPoly.from_terms(RING_QT, nvars, {(q, t) + (0,) * nvars: i + 1, (0, 1) + (0,) * nvars: -2})
            expected = expected + schur(lam, nvars, RING_QT).times_z((-1,) * nvars) * scalar
        assert _schur_monomials(payloads, RING_QT, nvars) == expected, nvars


def test_monomial_view_in_zero_variables():
    # s_() = 1 is the one Schur function in 0 variables: its key has no
    # z-part, so lam_N is read as 0
    for ring in (RING_Q, RING_W):
        assert SchurPoly.one(ring, 0).monomials() == LaurentPoly.one(ring, 0)
        assert SchurPoly.zero(ring, 0).monomials() == LaurentPoly.zero(ring, 0)
        assert SchurPoly.unit_power(ring, 0, -3, 2).monomials() == LaurentPoly.unit_power(ring, 0, -3, 2)


def test_elementary_bounds():
    assert elementary(0, 3) == LaurentPoly.one(RING_Q, 3)
    assert elementary(4, 3).is_zero()
    assert elementary(1, 3).to_text() == "z1^1 + z2^1 + z3^1"


def test_schur_expand_roundtrip():
    for nvars in (2, 3, 4):
        for size in range(0, 7 if nvars < 4 else 5):
            for lam in partitions(size, nvars):
                assert schur_expand(schur(lam, nvars)) == {
                    lam: {0: 1}
                }


def test_schur_expand_pieri_example():
    f = elementary(1, 3) * elementary(2, 3)
    out = schur_expand(f)
    one = {0: 1}
    assert out == {(2, 1): one, (1, 1, 1): one}


def test_schur_expand_errors():
    z1 = LaurentPoly.variable(RING_Q, 2, 0)
    z2 = LaurentPoly.variable(RING_Q, 2, 1)
    with pytest.raises(NotSymmetric):
        schur_expand(z1 + z2 * 2)
    with pytest.raises(NonzeroRemainder):
        inv = LaurentPoly.monomial(RING_Q, 2, (-1, -1))
        schur_expand(z1 * z2 + inv)  # symmetric but Laurent


def test_littlewood_richardson_positivity():
    # products of Schur functions re-expand with nonnegative coefficients
    for lam, mu, nvars in [((2,), (1, 1), 3), ((2, 1), (1,), 3), ((1, 1), (1, 1), 4)]:
        out = schur_expand(schur(lam, nvars) * schur(mu, nvars))
        for coeff in out.values():
            assert set(coeff) == {0} and coeff[0] > 0


def pieri_sum(lam, m, nvars):
    """The sum of s_mu over the vertical-strip reference ``pieri_e``."""
    return SchurPoly.sum(RING_Q, nvars, (SchurPoly.basis(mu, nvars) for mu in pieri_e(lam, m, nvars)))


def test_pieri_rule_cases():
    cases = [(((), 2, 3), [(1, 1)]), (((1,), 1, 3), [(2,), (1, 1)]), (((1, 1), 1, 2), [(2, 1)]),
             (((2, 1), 0, 3), [(2, 1)]), (((1,), 4, 3), [])]
    for (lam, m, nvars), mus in cases:
        assert pieri_e(lam, m, nvars) == mus
        # the product rule straightens s_{lam + beta}: every coefficient is 1
        product = SchurPoly.basis(lam, nvars).times(elementary(m, nvars))
        assert product == pieri_sum(lam, m, nvars) and set(product.coeffs.values()) <= {1}


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([lam for lam in partitions_up_to(4, 3)]), st.integers(0, 4))
def test_pieri_matches_polynomial_product(lam, m):
    nvars = 3
    lhs = schur(lam, nvars) * elementary(m, nvars)
    rhs = LaurentPoly.zero(RING_Q, nvars)
    for mu in pieri_e(lam, m, nvars):
        rhs = rhs + schur(mu, nvars)
    assert lhs == rhs
    assert SchurPoly.basis(lam, nvars).times(elementary(m, nvars)) == pieri_sum(lam, m, nvars)


@pytest.mark.parametrize("nvars", [2, 3, 4, 5])
def test_pieri_keys_match_the_vertical_strips(nvars):
    # the Pieri keys of packed_sum, as sets, against the vertical strips of
    # times_e modulo full columns: every m in [-1, N + 1], and lam with
    # repeated parts and a zero or negative last part
    shapes = list(combinations_with_replacement((3, 2, 1, 0, -1), nvars))
    assert any(lam[-1] < 0 for lam in shapes) and any(len(set(lam)) < nvars for lam in shapes)
    for lam in shapes:
        f = SchurPoly.basis(lam, nvars)
        (key,) = f.coeffs
        for m in range(-1, nvars + 2):
            keys = _pieri_constrained_keys(key, m, nvars)
            assert len(keys) == len(set(keys))
            assert set(keys) == set(times_e(f, m).constrained().coeffs), (lam, m)


def test_monomial_symmetric():
    m21 = monomial_sym((2, 1), 3)
    assert len(m21.coeffs) == 6
    assert schur((2, 1), 3) - m21 == monomial_sym((1, 1, 1), 3) * 2


def test_weight_partition_bijection():
    assert weight_of((2, 1), 2) == (1, 1)
    assert partition_of_weight((1, 1)) == (2, 1)
    assert partition_of_weight((0, 0)) == ()
    assert weight_of((3,), 1) == (3,)
    for lam in partitions_up_to(5, 3):
        ell = weight_of(lam, 3)
        full = tuple(lam) + (0,) * (4 - len(lam))
        assert partition_of_weight(ell) == tuple(
            x - full[-1] for x in lam if x - full[-1]
        ) or partition_of_weight(ell) == lam


def test_dominance():
    assert dominates((3,), (2, 1))
    assert dominates((2, 1), (1, 1, 1))
    assert not dominates((2, 2), (3, 1))
    assert dominates((2, 2), (2, 2))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-4, 6), min_size=1, max_size=5))
def test_straighten_is_the_sorted_alternant(v):
    # a_{v+delta} = sign * a_{lam+delta}: sort v + delta with its parity
    nvars = len(v)
    shifted = tuple(x + nvars - 1 - i for i, x in enumerate(v))
    sorted_alternant = ref_signed_buckets({shifted: 1}, 0)
    if sorted_alternant:
        [(ordered, sign)] = sorted_alternant.items()
        lam = tuple(x - (nvars - 1 - i) for i, x in enumerate(ordered))
        assert straighten(v) == (sign, lam)
    else:
        assert straighten(v) == (0, None)


def _block_schur(vec, first, nvars):
    """s_vec in the variables first, .., first + len(vec) - 1 of N."""
    if not vec:
        return LaurentPoly.one(RING_Q, nvars)
    off = vec[-1]
    core = schur(tuple(x - off for x in vec if x - off), len(vec)).times_z((off,) * len(vec))
    pad = (0,) * (nvars - first - len(vec))
    return LaurentPoly.from_terms(
        RING_Q, nvars, {k[:1] + (0,) * first + k[1:] + pad: c for k, c in core.terms()}
    )


@pytest.mark.parametrize("a,b", [(1, 1), (1, 3), (2, 2), (3, 1), (2, 3)])
def test_dual_cauchy_multiplies_out_to_the_cross_product(a, b):
    # sum (-q)**|lam| s_{lam^c}(x) s_{lam'}(y) over the a x b box is the
    # product of (x_i - q y_j), x the first a variables and y the last b
    nvars = a + b
    z = [LaurentPoly.variable(RING_Q, nvars, i) for i in range(nvars)]
    expected = LaurentPoly.one(RING_Q, nvars)
    for i in range(a):
        for j in range(a, nvars):
            expected = expected * (z[i] - z[j].times_unit(1))
    terms = list(dual_cauchy(a, b))
    assert len(terms) == comb(nvars, a)
    total = LaurentPoly.zero(RING_Q, nvars)
    for size, left, right in terms:
        assert len(left) == a and len(right) == b
        block = _block_schur(left, 0, nvars) * _block_schur(right, a, nvars)
        total = total + block.times_unit(size) * (-1) ** size
    assert total == expected


@st.composite
def _weakly_decreasing(draw):
    nvars = draw(st.integers(2, 4))
    low = draw(st.integers(-2, 1))
    steps = draw(st.lists(st.integers(0, 2), min_size=nvars - 1, max_size=nvars - 1))
    lam = [low]
    for step in steps:
        lam.insert(0, lam[0] + step)
    return tuple(lam)


@settings(max_examples=60, deadline=None)
@given(_weakly_decreasing(), st.data())
def test_branch_multiplies_out_to_the_schur_polynomial(lam, data):
    # sum c s_mu(x) s_nu(y), multiplied out as monomials, is s_lam(x, y),
    # for every alpha in [0, N]
    nvars = len(lam)
    alpha = data.draw(st.integers(0, nvars), label="alpha")
    total = LaurentPoly.zero(RING_Q, nvars)
    for mu, nu, c in branch(lam, alpha):
        assert len(mu) == alpha and len(nu) == nvars - alpha and c > 0
        total = total + _block_schur(mu, 0, nvars) * _block_schur(nu, alpha, nvars) * c
    off = lam[-1]
    expected = schur(tuple(x - off for x in lam if x - off), nvars).times_z((off,) * nvars)
    assert total == expected


def test_branch_examples_and_guards():
    # s_21(x; y1, y2) = x^2 s_1(y) + x (s_2(y) + s_11(y)) + s_21(y)
    assert sorted(branch((2, 1, 0), 1)) == [
        ((0,), (2, 1), 1),
        ((1,), (1, 1), 1),
        ((1,), (2, 0), 1),
        ((2,), (1, 0), 1),
    ]
    # c^{21}_{1,1}-type multiplicity 2: s_321 restricted to 3 + 3 variables
    assert dict(((mu, nu), c) for mu, nu, c in branch((3, 2, 1, 0, 0, 0), 3))[
        ((2, 1, 0), (2, 1, 0))
    ] == 2
    with pytest.raises(ValueError):
        branch((1, 2), 1)
    with pytest.raises(ValueError):
        branch((1, 0), 3)
    with pytest.raises(ValueError):
        branch((), 0)


def test_interlacing_refuses_a_vector_that_is_not_weakly_decreasing():
    # an increasing pair leaves one range empty: that is an error, not an
    # empty expansion, whatever the shift and wherever the pair sits
    assert list(interlacing((2, 0))) == [(0,), (1,), (2,)]
    assert list(interlacing((2, 1, 1), shift=-1)) == [(0, 0), (1, 0)]
    for lam, shift in (((0, 2), 0), ((0, 2), 3), ((3, 1, 2), 0), ((1, 2, -1, -1), -2)):
        with pytest.raises(ValueError, match="not weakly decreasing"):
            interlacing(lam, shift)


def _branch_grid():
    for nvars in range(1, 7):
        for lam in partitions_up_to(8, nvars):
            full = lam + (0,) * (nvars - len(lam))
            for alpha in range(nvars + 1):
                yield full, alpha
                # the same shape with negative last parts
                yield tuple(x - 1 - sum(lam) % 3 for x in full), alpha


def test_branch_matches_the_unpruned_fillings_on_a_grid():
    # every lam with N <= 6 and |lam| <= 8, and a shift of it with negative
    # parts, at every alpha: the same (mu, nu, c) multiset as the oracle
    cases = 0
    for lam, alpha in _branch_grid():
        assert Counter(branch(lam, alpha)) == Counter(ref_branch(lam, alpha)), (lam, alpha)
        cases += 1
    assert cases == 2 * 1330


def test_schur_form_views_and_guards():
    # Laurent input round-trips through the Schur basis
    f = schur((2, 1), 3).times_z((-1, -1, -1)) + schur((1,), 3).times_unit(2)
    form = schur_form(f)
    assert form == SchurPoly.basis((1, 0, -1), 3) + SchurPoly.basis((1,), 3).times_unit(2)
    assert form.monomials() == f
    assert form.constrained() == SchurPoly.basis((2, 1), 3) + SchurPoly.basis((1,), 3).times_unit(2)
    s1, s2, s11 = (SchurPoly.basis(lam, 3) for lam in ((1,), (2,), (1, 1)))
    assert times_e(s1, 1) == s2 + s11
    assert times_e(SchurPoly.basis((1, 1, -1), 3), 2).monomials() == (
        schur((2, 2), 3) * elementary(2, 3)
    ).times_z((-1, -1, -1))
    # a Schur form never meets a monomial-basis value
    with pytest.raises(TypeError):
        form + f
    with pytest.raises(TypeError):
        f - form
    with pytest.raises(TypeError):
        form == f
    with pytest.raises(TypeError):
        f == form
    with pytest.raises(TypeError):
        form * form
    with pytest.raises(ValueError):
        SchurPoly.basis((1, 2), 3)
    assert schur_form(schur((1,), 2, RING_W)).ring == RING_W


def test_schur_form_rejects_the_qt_ring():
    # the QT ring has two unit slots, so a Schur key would misread its q
    # and t exponents: both ways in raise, and W <-> Q still converts
    with pytest.raises(ValueError, match="W or Q ring"):
        SchurPoly.basis((2, 1), 2, RING_QT)
    form = SchurPoly.basis((2, 1), 2) + SchurPoly.basis((1,), 2).times_unit(3)
    with pytest.raises(ValueError, match="W or Q ring"):
        form.with_ring(RING_QT)
    assert form.with_ring(RING_W).with_ring(RING_Q) == form
    assert form.with_ring(RING_W).ring == RING_W and type(form.with_ring(RING_W)) is SchurPoly


def _packed_value(parts, ring, nvars):
    return sum((f.schur() for f in packed_sum(parts)), SchurPoly.zero(ring, nvars))


def test_pieri_into_constrained_basis_matches_two_passes():
    # the Pieri side of ``qdiff.packed_sum``, each row added at its keys in
    # one pass, equals Pieri then the constraint (``oracles.times_e``):
    # every lam up to size 6, one and two terms of it with unit and column
    # shifts and a q-coefficient of several digits, ranks 1-3, both rings,
    # every m in [0, N], the zero form, and parts at two widths in one sum
    for rank in (1, 2, 3):
        nvars = rank + 1
        for ring in (RING_Q, RING_W):
            zero = SchurPoly.zero(ring, nvars)
            for m in range(nvars + 1):
                assert _packed_value(packed_parts(zero, 2, m), ring, nvars) == zero
            for lam in partitions_up_to(6, nvars):
                s = SchurPoly.basis(lam, nvars, ring)
                spread = s.times_unit(-1) * 3 + s.times_unit(2 * nvars) - s.times_unit(5 * nvars) * 7
                for f in (s, s.times_unit(3) - 5 * s.times_z((-2,) * nvars), spread):
                    for m in range(nvars + 1):
                        want = times_e(f, m).constrained()
                        assert _packed_value(packed_parts(f, 5, m), ring, nvars) == want, (lam, m, ring)
                        # one more part at another width: the narrower rows are repacked
                        parts = packed_parts(f, 5, m) + packed_parts(s.times_unit(1) * -2, 19, m)
                        assert _packed_value(parts, ring, nvars) == want - 2 * times_e(s, m).constrained().times_unit(1)


def test_times_matches_the_monomial_product():
    # s_lam f = sum of f_beta s_{lam + beta}, straightened, against the
    # product of the monomial expansions peeled back into Schur functions:
    # ranks 1-3, both rings, q-coefficients and negative full columns on
    # either side
    for rank in (1, 2, 3):
        n = rank + 1
        column = (-1,) * n
        factors = [
            elementary(1, n),
            schur((2, 1), n).times_unit(2) - elementary(n, n) * 3,
            schur((1,), n).times_z(column) + schur((2,), n).times_unit(-1),
        ]
        for ring in (RING_Q, RING_W):
            for lam in partitions_up_to(3 if rank < 3 else 2, n):
                s = SchurPoly.basis(lam, n, ring)
                for f in (s, s.times_unit(3) - 5 * s.times_z((-2,) * n)):
                    for g in factors:
                        g = g.with_ring(ring)
                        assert f.times(g) == schur_form(f.monomials() * g), (lam, ring, g)
        assert SchurPoly.basis((1,), n).times(LaurentPoly.zero(RING_Q, n)) == SchurPoly.zero(RING_Q, n)
        assert SchurPoly.zero(RING_Q, n).times(elementary(1, n)) == SchurPoly.zero(RING_Q, n)


def test_times_rejects_bad_operands():
    s = SchurPoly.basis((1,), 2)
    z1, z2 = (LaurentPoly.variable(RING_Q, 2, i) for i in (0, 1))
    with pytest.raises(NotSymmetric):
        s.times(z1 + z2 * 2)
    # the z-parts are closed under the swap, but a swapped coefficient differs
    with pytest.raises(NotSymmetric):
        s.times(z1 + z2.times_unit(1))
    for other in (SchurPoly.basis((1,), 2), elementary(1, 2, RING_W), elementary(1, 3), elementary(1, 2, RING_QT), 2):
        with pytest.raises(TypeError):
            s.times(other)
    with pytest.raises(TypeError, match="use times"):
        s * elementary(1, 2)


def test_times_keeps_the_unit_slot():
    # a unit exponent j + i one step past either end raises before any key
    # is formed; at the ends it fits
    s = SchurPoly.basis((1,), 2)
    e1 = elementary(1, 2)
    for j, i in ((EXP_MAX - 3, 3), (EXP_MIN + 3, -3)):
        assert s.times_unit(j).times(e1.times_unit(i)) == s.times(e1).times_unit(j + i)
    for j, i in ((EXP_MAX - 3, 4), (EXP_MIN + 3, -4)):
        with pytest.raises(ExponentOverflow):
            s.times_unit(j).times(e1.times_unit(i))
    # one unit term that overflows is enough, whatever the others do
    with pytest.raises(ExponentOverflow):
        (s + s.times_unit(EXP_MAX)).times(e1 + e1.times_unit(1))
    # a part of kappa past EXP_MAX raises too
    with pytest.raises(ExponentOverflow):
        SchurPoly.basis((EXP_MAX, 0), 2).times(e1)
