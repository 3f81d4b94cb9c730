"""Macdonald tests: the operator on m-forms against the literal subset sum,
with its exact read-off controls; the integral form J_lam against the field
solve of ``oracles``, integrality, duality and the top t-slice on a grid,
the exact division by an eigenvalue gap, both degenerate limits, and
negative controls.  (q, t) values are compared as QT dicts and {(i, j): c}
pairs, multiplied by ``ref_mul`` and divided by ``ref_exact_div``, never
with the package's arithmetic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    QT_REF,
    apply_macdonald_qt,
    dominates,
    m_monomials,
    qt_monomial_sym,
    qt_terms,
    qt_to_ref,
    ref_exact_div,
    ref_macdonald_poly,
    ref_mul,
    ref_specialize_t0_qinv,
    subset_apply_macdonald_qt,
)
import qchar.macdonald as macdonald
from qchar.characters import NVector, graded_character
from qchar.laurent import EXP_MAX, EXP_MIN, offset, pack, unpack
from qchar.macdonald import (
    _divide_gap,
    apply_macdonald_m,
    eigenvalue_formula,
    integral_norm,
    macdonald_poly,
    qt_t_infinity_limit,
    qwhittaker_specialize,
)
from qchar.rings import RING_Q, RING_W, ExponentOverflow, NotDivisible, NotSymmetric
from qchar.symfun import partitions_up_to

# every lam with N = 2, |lam| <= 6; N = 3, |lam| <= 5; and N = 4, |lam| <= 4
GRID = [(nvars, lam) for nvars, size in ((2, 6), (3, 5), (4, 4)) for lam in partitions_up_to(size, nvars)]


def payload(terms):
    """The m-form payload of sum c q**i t**j over {(i, j): c}."""
    return {offset(ij): c for ij, c in terms.items()}


def pairs(d):
    """A payload as {(i, j): c}."""
    return {unpack(u + pack((0, 0)), 2): c for u, c in d.items()}


def qt_const(nvars, terms):
    """The QT dict of the constant sum c q**i t**j over {(i, j): c}."""
    return {ij + (0,) * nvars: c for ij, c in terms.items()}


def coefficients(J):
    """J's m-coefficients as {(i, j): c} pairs."""
    return {mu: pairs(d) for mu, d in J.form.items()}


def invert(f):
    """f(1/q, 1/t) for {(i, j): c} pairs."""
    return {(-i, -j): v for (i, j), v in f.items()}


def ref_element(f):
    """{(i, j): c} pairs as an element of ``QT_REF``."""
    return qt_to_ref({ij + (0,): c for ij, c in f.items()}).get((0,), QT_REF.zero)


def level_one(nvars, lam):
    """The level-1 character of lam - lam_N times (z_1...z_N)**lam_N, in monomials."""
    full = tuple(lam) + (0,) * (nvars - len(lam))
    n = NVector.level_one(nvars - 1, tuple(full[a] - full[a + 1] for a in range(nvars - 1)))
    return graded_character(n).monomials().times_z((full[-1],) * nvars)


def n_of(lam):
    """n(lam) = sum_i (i - 1) lam_i."""
    return sum(i * part for i, part in enumerate(lam))


def conjugate(lam):
    """lam', the column lengths of lam."""
    return tuple(sum(p > j for p in lam) for j in range(lam[0])) if lam else ()


def q_binomial(e, d, j=0):
    """q**e (1 - q**d) t**j as a payload."""
    return payload({(e, j): 1, (e + d, j): -1})


def test_macdonald_m_matches_the_subset_sum():
    # the kernel on m-forms and its monomial view apply_macdonald_qt against
    # the literal subset sum: every m_mu with N in {2, 3, 4} and |mu| <= 5
    # (<= 4 at N = 4), every alpha in [0, N], with payload 1 and with several
    # (q, t) terms moved by (z_1...z_N)**-1; repeated parts of mu make block
    # orbits of size > 1
    cases = 0
    for nvars, size in ((2, 5), (3, 5), (4, 4)):
        for lam in partitions_up_to(size, nvars):
            for terms, shift in (({(0, 0): 1}, 0), ({(1, 0): 2, (0, -1): -1, (3, 2): 1}, -1)):
                mu = tuple(x + shift for x in lam + (0,) * (nvars - len(lam)))
                f = ref_mul(qt_monomial_sym(lam, nvars), {ij + (shift,) * nvars: c for ij, c in terms.items()})
                m = {mu: payload(terms)}
                for alpha in range(nvars + 1):
                    expected = subset_apply_macdonald_qt(alpha, f, nvars)
                    assert qt_terms(apply_macdonald_m(alpha, m, nvars)) == expected, (mu, alpha)
                    assert apply_macdonald_qt(alpha, f, nvars) == expected, (mu, alpha)
                    cases += 1
    assert cases == 2 * 160


def test_kernel_rejects_misread_inputs():
    # a key of the wrong length, a key that is not weakly decreasing, and an
    # alpha outside [0, N] raise ValueError naming the bad input before any
    # work, where they were read as m_(1,0) or died in math.factorial; so
    # does the integral form in 0 variables
    before = macdonald._cleared.cache_info()
    for alpha, m, bad in [
        (1, {(1, 0, 0): {0: 1}}, r"\(1, 0, 0\) is not a weakly decreasing 2-vector"),
        (1, {(1, 0): {0: 1}, (0, 1): {0: 1}}, r"\(0, 1\) is not a weakly decreasing 2-vector"),
        (3, {(1, 0): {0: 1}}, r"alpha 3 outside \[0, 2\]"),
        (-1, {}, r"alpha -1 outside \[0, 2\]"),
    ]:
        with pytest.raises(ValueError, match=bad):
            apply_macdonald_m(alpha, m, 2)
    assert macdonald._cleared.cache_info() == before
    with pytest.raises(ValueError, match=r"partition \(\) does not fit 0 variables"):
        macdonald_poly((), 0)
    with pytest.raises(ValueError, match=r"partition \(1, 1, 1\) does not fit 2 variables"):
        macdonald_poly((1, 1, 1), 2)


def test_macdonald_qt_read_off_is_exact(monkeypatch):
    # an input the block group does not fix: each block orbit of m_(2,1,0)
    # counted once, not by its size, as if z**e stood for its orbit; the
    # orbit sum is then not divisible by alpha! (N - alpha)!, and the
    # read-off raises, never rounds
    f = {(0, 0, 2, 1, 0): 1}
    with pytest.raises(NotSymmetric):
        apply_macdonald_qt(1, f, 3)
    true_splits = macdonald._splits
    monkeypatch.setattr(macdonald, "_splits", lambda mu, alpha: [(e, s, 1) for e, s, _ in true_splits(mu, alpha)])
    monkeypatch.setattr(macdonald, "_cleared", macdonald._cleared.__wrapped__)  # no cached image
    with pytest.raises(NotDivisible):
        apply_macdonald_qt(1, qt_monomial_sym((2, 1), 3), 3)


def test_macdonald_qt_divides_the_schur_coefficients(monkeypatch):
    # negative control: one cleared payload off by one at alpha = 1, N = 3,
    # where alpha! (N - alpha)! = 2, leaves a Schur coefficient that 2 does
    # not divide; the division on Schur coefficients raises
    f = qt_monomial_sym((2, 1), 3)
    true_cleared = macdonald._cleared

    def off_by_one(mu, alpha):
        out = dict(true_cleared(mu, alpha))
        lam = max(out)
        (v, c), *rest = out[lam]
        out[lam] = ((v, c + 1), *rest)
        return tuple(out.items())

    apply_macdonald_qt(1, f, 3)
    monkeypatch.setattr(macdonald, "_cleared", off_by_one)
    with pytest.raises(NotDivisible):
        apply_macdonald_qt(1, f, 3)


def test_single_class_cases():
    one_t, one_t2 = qt_const(3, {(0, 0): 1, (0, 1): -1}), qt_const(3, {(0, 0): 1, (0, 2): -1})
    for lam, nvars, expected in [
        ((1,), 3, ref_mul(qt_monomial_sym((1,), 3), one_t)),
        ((1, 1), 3, ref_mul(ref_mul(qt_monomial_sym((1, 1), 3), one_t), one_t2)),
        ((), 2, qt_const(2, {(0, 0): 1})),
    ]:
        J = macdonald_poly(lam, nvars)
        assert len(J.form) == 1
        assert qt_terms(J.form) == expected


def test_two_class_case_and_duality():
    J = macdonald_poly((2,), 2)
    # c_(2) = (1 - t)(1 - q t) on m_2; the classical coefficient
    # (1+q)(1-t)/(1-qt) of P times c_(2) on m_11
    assert coefficients(J) == {
        (2, 0): {(0, 0): 1, (0, 1): -1, (1, 1): -1, (1, 2): 1},
        (1, 1): {(0, 0): 1, (1, 0): 1, (0, 1): -2, (1, 1): -2, (0, 2): 1, (1, 2): 1},
    }
    # under (q, t) -> (1/q, 1/t) each coefficient picks up q**-1 t**-2
    for c in coefficients(J).values():
        assert invert(c) == ref_mul(c, {(-1, -2): 1})


def test_triangularity():
    J = macdonald_poly((2, 1), 3)
    assert J.form[(2, 1, 0)] == integral_norm((2, 1))
    # c_(2,1) = (1 - q t**2)(1 - t)(1 - t)
    assert coefficients(J)[(2, 1, 0)] == ref_mul(ref_mul({(0, 0): 1, (1, 2): -1}, {(0, 0): 1, (0, 1): -1}), {(0, 0): 1, (0, 1): -1})
    assert all(dominates((2, 1), mu) for mu in J.form)


def test_eigen_relation_second_operator():
    # the construction uses only the first operator; the second one must then
    # also act diagonally, with eigenvalue t**(-a(a-1)/2) e_a(q^lam_i t^(N-i))
    # (the bare subset form carries no t-power normalization); for lam = (2)
    # the spectrum is q^2 t^2, t, 1, so e_2 / t = q^2 t^2 + q^2 t + 1
    J = qt_terms(macdonald_poly((2,), 3).form)
    e2 = qt_const(3, {(2, 2): 1, (2, 1): 1, (0, 0): 1})
    assert apply_macdonald_qt(2, J, 3) == ref_mul(J, e2)


def test_eigenvalue_formula():
    assert pairs(eigenvalue_formula((), 2)) == {(0, 1): 1, (0, 0): 1}
    assert pairs(eigenvalue_formula((3, 1), 2)) == {(3, 1): 1, (1, 0): 1}


def test_integral_form_matches_field_solve():
    # J == c_lam * P_ref coefficientwise, equal eigenvalues, equal t = 0 limits
    for nvars in (1, 2, 3):
        for lam in partitions_up_to(4, nvars):
            J = macdonald_poly(lam, nvars)
            ref, ref_eig = ref_macdonald_poly(lam, nvars)
            norm = ref_element(pairs(integral_norm(lam)))
            ours = qt_to_ref(qt_terms(J.form))
            assert ours.keys() == ref.keys(), (nvars, lam)
            assert all(ours[z] == norm * ref[z] for z in ref), (nvars, lam)
            assert ref_element(pairs(J.eigenvalue)) == ref_eig
            limits = {mu: ref_specialize_t0_qinv(ref[mu]) for mu in J.form}
            assert qwhittaker_specialize(J) == {mu: d for mu, d in limits.items() if d}, (nvars, lam)


def test_integral_form_is_integral():
    # every m-coefficient of J lies in Z[q, t]: no negative power of q or t
    assert len(GRID) == 44
    for nvars, lam in GRID:
        for mu, c in coefficients(macdonald_poly(lam, nvars)).items():
            assert c and min(map(min, c)) >= 0, (nvars, lam, mu)


def test_integral_form_duality():
    # J(1/q, 1/t) = (-1)**|lam| q**-n(lam') t**(-n(lam) - |lam|) J
    for nvars, lam in GRID:
        factor = {(-n_of(conjugate(lam)), -n_of(lam) - sum(lam)): (-1) ** sum(lam)}
        for mu, c in coefficients(macdonald_poly(lam, nvars)).items():
            assert invert(c) == ref_mul(c, factor), (nvars, lam, mu)


def test_top_t_slice_is_the_level1_character():
    # the t**(n(lam) + |lam|) slice of J is (-1)**|lam| q**n(lam') times the
    # level-1 character, and no coefficient reaches a higher power of t
    for nvars, lam in GRID:
        top = n_of(lam) + sum(lam)
        J = macdonald_poly(lam, nvars)
        assert max(k[1] for k in qt_terms(J.form)) == top, (nvars, lam)
        chi = level_one(nvars, lam).times_unit(n_of(conjugate(lam))) * (-1) ** sum(lam)
        assert m_monomials(qt_t_infinity_limit(J.form, top), RING_Q, nvars) == chi, (nvars, lam)


def test_whittaker_specialization_matches_characters():
    # the t**0 slice read in 1/q, expanded into monomials: the level-1 character
    for nvars, lam in GRID:
        w = qwhittaker_specialize(macdonald_poly(lam, nvars))
        assert m_monomials(w, RING_Q, nvars) == level_one(nvars, lam), (nvars, lam)


def test_scalar_specialization_helpers():
    t = {(0,): payload({(0, 1): 1})}
    assert qt_t_infinity_limit({(0,): payload({(1, 2): 1, (0, 1): 1})}, 2) == {(0,): {1: 1}}
    assert qt_t_infinity_limit(t, 2) == {}
    with pytest.raises(ArithmeticError):
        qt_t_infinity_limit({(0,): payload({(0, 3): 1})}, 2)


small_qt = st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(-2, 2)), st.integers(-4, 4).filter(bool), max_size=6)


@settings(max_examples=80, deadline=None)
@given(
    quot=small_qt,
    e=st.integers(-3, 3),
    d=st.integers(1, 4),
    sign=st.sampled_from((1, -1)),
    low=st.integers(-2, 2),
    higher=st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(1, 3)), st.integers(-2, 2).filter(bool), max_size=4),
)
def test_gap_division_matches_the_oracle(quot, e, d, sign, low, higher):
    # a gap with the binomial sign q**e (1 - q**d) as its lowest t-slice
    # divides each of its multiples exactly, as leading-term division does,
    # and leaves a remainder on a multiple plus a monomial
    gap = {(e, low): sign, (e + d, low): -sign, **{(i, low + j): c for (i, j), c in higher.items()}}
    f = ref_mul(quot, gap)
    assert pairs(_divide_gap(payload(f), payload(gap))) == quot == ref_exact_div(f, gap)
    bumped = {**f, (e, low + 1): f.get((e, low + 1), 0) + 1}
    with pytest.raises(NotDivisible):
        _divide_gap(payload({k: c for k, c in bumped.items() if c}), payload(gap))


def test_gap_division_remainders():
    gap = {(1, 0): 1, (3, 0): -1, (0, 1): 2, (2, 2): -1}  # q (1 - q**2) + 2 t - q**2 t**2
    quot = {(0, 0): 1, (1, 1): -3}
    f = ref_mul(quot, gap)
    assert pairs(_divide_gap(payload(f), payload(gap))) == quot
    # a q-order remainder: q**2 is no multiple of 1 - q**2
    assert (2, 0) not in f and (0, 3) not in f
    with pytest.raises(NotDivisible, match="binomial"):
        _divide_gap(payload({**f, (2, 0): 1}), payload(gap))
    # a remainder left on a coefficient above the quotient's t-degree
    with pytest.raises(NotDivisible, match="eigenvalue gap"):
        _divide_gap(payload({**f, (0, 3): 1}), payload(gap))
    # a lowest slice that is no binomial +-q**e (1 - q**d)
    for bad in ({(0, 0): 1, (1, 0): 1}, {(0, 0): 2, (1, 0): -2}, {(0, 0): 1}):
        with pytest.raises(NotDivisible, match="no binomial"):
            _divide_gap(payload(quot), payload(bad))


def test_gap_division_exponent_edges():
    # the quotient's q-exponent leaves the slot at either edge
    with pytest.raises(ExponentOverflow):
        _divide_gap(q_binomial(EXP_MIN, 1), q_binomial(1, 1))
    with pytest.raises(ExponentOverflow):
        _divide_gap(q_binomial(EXP_MAX - 1, 1), q_binomial(-2, 1))
    # and its t-exponent
    with pytest.raises(ExponentOverflow):
        _divide_gap(q_binomial(0, 1, EXP_MIN), q_binomial(0, 1, 1))
    with pytest.raises(ExponentOverflow):
        _divide_gap(q_binomial(0, 1, EXP_MAX), q_binomial(0, 1, -1))
    # at the edges themselves the quotient fits
    assert pairs(_divide_gap(q_binomial(EXP_MIN, 1), q_binomial(0, 1))) == {(EXP_MIN, 0): 1}
    assert pairs(_divide_gap(q_binomial(0, 1, EXP_MAX), q_binomial(0, 1))) == {(0, EXP_MAX): 1}


def test_shifted_gap_is_caught(monkeypatch):
    # negative control: multiply the diagonal entry of every column but
    # lam's by q, so each eigenvalue gap of the solve is off by one q-power;
    # a gap division or the integer eigen-check must then reject the result
    lam = (2, 1)
    true_column = macdonald._column

    def shifted(mu, nvars):
        out = true_column(mu, nvars)
        top = max(out)
        if top != (2, 1, 0):
            out[top] = {u + offset((1,)): c for u, c in out[top].items()}
        return out

    monkeypatch.setattr(macdonald, "_column", shifted)
    with pytest.raises(ArithmeticError, match="eigen-relation failed|no exact quotient|no binomial"):
        macdonald_poly(lam, 3)


def test_lift_and_project_roundtrip():
    # a Q coefficient lifts to (q, t) as it is, q**j being the offset j in
    # both, so a character's m-form is a (q, t) m-form of t-degree 0, and its
    # t**0 slice gives it back
    chi = graded_character(NVector.level_one(2, (1, 1))).monomials()
    m = {mu: d for mu, d in chi.z_terms().items() if list(mu) == sorted(mu, reverse=True)}
    for j in (EXP_MIN, -1, 0, 1, EXP_MAX):
        assert macdonald._qt(j, 0) == offset((j,))
    assert qt_t_infinity_limit(m, 0) == m
    assert m_monomials(qt_t_infinity_limit(m, 0), RING_Q, 3) == chi
    # no polynomial lifts to a (q, t) ring: only W and Q take one
    for other in (chi, chi.with_ring(RING_W)):
        with pytest.raises(ValueError):
            other.with_ring("qt")


def test_degenerate_limit_eigenrelation():
    # the character's dominant monomials as an m-form: q**j is the offset j
    # over (q, t) too
    n = NVector.level_one(2, (1, 1))
    chi = graded_character(n).monomials()
    m = {mu: d for mu, d in chi.z_terms().items() if list(mu) == sorted(mu, reverse=True)}
    assert m_monomials(m, RING_Q, 3) == chi
    for alpha in (1, 2):
        g = apply_macdonald_m(alpha, m, 3)
        ev = sum(min(alpha, b) for b in (1, 2))
        assert m_monomials(qt_t_infinity_limit(g, alpha * (3 - alpha)), RING_Q, 3) == chi.times_unit(ev)
