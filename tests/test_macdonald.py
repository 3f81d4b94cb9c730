"""Macdonald tests: the operator on m-forms against the literal subset sum,
with its exact read-off controls; the integral form J_lam against the field
solve of ``oracles``, integrality, duality and the top t-slice on a grid,
the exact division by an eigenvalue gap, both degenerate limits, and
negative controls."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    apply_macdonald_qt,
    dominates,
    m_monomials,
    monomial_sym,
    project_qt_to_q,
    qt_to_ref,
    ref_div,
    ref_macdonald_poly,
    ref_specialize_t0_qinv,
    subset_apply_macdonald_qt,
)
import qchar.macdonald as macdonald
from qchar.characters import NVector, graded_character
from qchar.laurent import EXP_MAX, EXP_MIN, LaurentPoly, offset, zero_key
from qchar.macdonald import (
    _divide_gap,
    apply_macdonald_m,
    eigenvalue_formula,
    integral_norm,
    macdonald_poly,
    qt_t_infinity_limit,
    qwhittaker_specialize,
)
from qchar.rings import RING_Q, RING_QT, RING_W, ExponentOverflow, NotDivisible, NotSymmetric
from qchar.symfun import elementary, partitions_up_to

# every lam with N = 2, |lam| <= 6; N = 3, |lam| <= 5; and N = 4, |lam| <= 4
GRID = [(nvars, lam) for nvars, size in ((2, 6), (3, 5), (4, 4)) for lam in partitions_up_to(size, nvars)]


def qt_const(nvars, terms):
    """The QT constant sum c q**i t**j over {(i, j): c}."""
    return LaurentPoly.from_terms(RING_QT, nvars, {ij + (0,) * nvars: c for ij, c in terms.items()})


def monomials(J):
    """J in the monomial basis."""
    return m_monomials(J.form, RING_QT, J.nvars)


def coefficients(J):
    """J's m-coefficients as QT constants."""
    zero = zero_key(J.nvars + 2)
    return {mu: LaurentPoly(RING_QT, J.nvars, {zero + u: c for u, c in d.items()}) for mu, d in J.form.items()}


def invert(f):
    """f(1/q, 1/t)."""
    return LaurentPoly.from_terms(RING_QT, f.nvars, {(-e[0], -e[1]) + e[2:]: v for e, v in f.terms()})


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
    """q**e (1 - q**d) t**j as a QT constant in 2 variables."""
    return qt_const(2, {(e, j): 1, (e + d, j): -1})


def test_macdonald_m_matches_the_subset_sum():
    # the kernel on m-forms and its monomial view apply_macdonald_qt against
    # the literal subset sum: every m_mu with N in {2, 3, 4} and |mu| <= 5
    # (<= 4 at N = 4), every alpha in [0, N], with payload 1 and with several
    # (q, t) terms moved by (z_1...z_N)**-1; repeated parts of mu make block
    # orbits of size > 1
    cases = 0
    for nvars, size in ((2, 5), (3, 5), (4, 4)):
        for lam in partitions_up_to(size, nvars):
            for payload, shift in (({(0, 0): 1}, 0), ({(1, 0): 2, (0, -1): -1, (3, 2): 1}, -1)):
                mu = tuple(x + shift for x in lam + (0,) * (nvars - len(lam)))
                weight = LaurentPoly.from_terms(RING_QT, nvars, {ij + (shift,) * nvars: c for ij, c in payload.items()})
                f = monomial_sym(lam, nvars, RING_QT) * weight
                m = {mu: {offset(ij): c for ij, c in payload.items()}}
                for alpha in range(nvars + 1):
                    expected = subset_apply_macdonald_qt(alpha, f)
                    assert m_monomials(apply_macdonald_m(alpha, m, nvars), RING_QT, nvars) == expected, (mu, alpha)
                    assert apply_macdonald_qt(alpha, f) == expected, (mu, alpha)
                    cases += 1
    assert cases == 2 * 160


def test_macdonald_qt_read_off_is_exact(monkeypatch):
    # an input the block group does not fix: each block orbit of m_(2,1,0)
    # counted once, not by its size, as if z**e stood for its orbit; the
    # orbit sum is then not divisible by alpha! (N - alpha)!, and the
    # read-off raises, never rounds
    f = LaurentPoly.monomial(RING_QT, 3, (2, 1, 0))
    with pytest.raises(NotSymmetric):
        apply_macdonald_qt(1, f)
    true_splits = macdonald._splits
    monkeypatch.setattr(macdonald, "_splits", lambda mu, alpha: [(e, s, 1) for e, s, _ in true_splits(mu, alpha)])
    monkeypatch.setattr(macdonald, "_cleared", macdonald._cleared.__wrapped__)  # no cached image
    with pytest.raises(NotDivisible):
        apply_macdonald_qt(1, monomial_sym((2, 1), 3, RING_QT))


def test_macdonald_qt_divides_the_schur_coefficients(monkeypatch):
    # negative control: one cleared payload off by one at alpha = 1, N = 3,
    # where alpha! (N - alpha)! = 2, leaves a Schur coefficient that 2 does
    # not divide; the division on Schur coefficients raises
    f = monomial_sym((2, 1), 3, RING_QT)
    true_cleared = macdonald._cleared

    def off_by_one(mu, alpha):
        out = dict(true_cleared(mu, alpha))
        lam = max(out)
        (v, c), *rest = out[lam]
        out[lam] = ((v, c + 1), *rest)
        return tuple(out.items())

    apply_macdonald_qt(1, f)
    monkeypatch.setattr(macdonald, "_cleared", off_by_one)
    with pytest.raises(NotDivisible):
        apply_macdonald_qt(1, f)


def test_single_class_cases():
    one_t, one_t2 = qt_const(3, {(0, 0): 1, (0, 1): -1}), qt_const(3, {(0, 0): 1, (0, 2): -1})
    for lam, nvars, expected in [
        ((1,), 3, elementary(1, 3, RING_QT) * one_t),
        ((1, 1), 3, elementary(2, 3, RING_QT) * one_t * one_t2),
        ((), 2, LaurentPoly.one(RING_QT, 2)),
    ]:
        J = macdonald_poly(lam, nvars)
        assert len(J.form) == 1
        assert monomials(J) == expected


def test_two_class_case_and_duality():
    J = macdonald_poly((2,), 2)
    # c_(2) = (1 - t)(1 - q t) on m_2; the classical coefficient
    # (1+q)(1-t)/(1-qt) of P times c_(2) on m_11
    assert coefficients(J) == {
        (2, 0): qt_const(2, {(0, 0): 1, (0, 1): -1, (1, 1): -1, (1, 2): 1}),
        (1, 1): qt_const(2, {(0, 0): 1, (1, 0): 1, (0, 1): -2, (1, 1): -2, (0, 2): 1, (1, 2): 1}),
    }
    # under (q, t) -> (1/q, 1/t) each coefficient picks up q**-1 t**-2
    for c in coefficients(J).values():
        assert invert(c) == c * qt_const(2, {(-1, -2): 1})


def test_triangularity():
    J = macdonald_poly((2, 1), 3)
    assert coefficients(J)[(2, 1, 0)] == integral_norm((2, 1), 3)
    assert all(dominates((2, 1), mu) for mu in J.form)


def test_eigen_relation_second_operator():
    # the construction uses only the first operator; the second one must then
    # also act diagonally, with eigenvalue t**(-a(a-1)/2) e_a(q^lam_i t^(N-i))
    # (the bare subset form carries no t-power normalization); for lam = (2)
    # the spectrum is q^2 t^2, t, 1, so e_2 / t = q^2 t^2 + q^2 t + 1
    J = monomials(macdonald_poly((2,), 3))
    e2 = qt_const(3, {(2, 2): 1, (2, 1): 1, (0, 0): 1})
    assert apply_macdonald_qt(2, J) == J * e2


def test_eigenvalue_formula():
    assert eigenvalue_formula((), 2) == qt_const(2, {(0, 1): 1, (0, 0): 1})
    assert eigenvalue_formula((3, 1), 2) == qt_const(2, {(3, 1): 1, (1, 0): 1})


def test_integral_form_matches_field_solve():
    # J == c_lam * P_ref coefficientwise, equal eigenvalues, equal t = 0 limits
    for nvars in (1, 2, 3):
        for lam in partitions_up_to(4, nvars):
            J = macdonald_poly(lam, nvars)
            ref, ref_eig = ref_macdonald_poly(lam, nvars)
            (norm,) = qt_to_ref(integral_norm(lam, nvars)).values()
            ours = qt_to_ref(monomials(J))
            assert ours.keys() == ref.keys(), (nvars, lam)
            assert all(ours[z] == norm * ref[z] for z in ref), (nvars, lam)
            assert qt_to_ref(J.eigenvalue) == {(0,) * nvars: ref_eig}
            limits = {mu: ref_specialize_t0_qinv(ref[mu]) for mu in J.form}
            assert qwhittaker_specialize(J) == {mu: d for mu, d in limits.items() if d}, (nvars, lam)


def test_integral_form_is_integral():
    # every m-coefficient of J lies in Z[q, t]: no negative power of q or t
    assert len(GRID) == 44
    for nvars, lam in GRID:
        for mu, c in coefficients(macdonald_poly(lam, nvars)).items():
            assert c and min(c.bounds()[0][:2]) >= 0, (nvars, lam, mu)


def test_integral_form_duality():
    # J(1/q, 1/t) = (-1)**|lam| q**-n(lam') t**(-n(lam) - |lam|) J
    for nvars, lam in GRID:
        factor = qt_const(nvars, {(-n_of(conjugate(lam)), -n_of(lam) - sum(lam)): (-1) ** sum(lam)})
        for mu, c in coefficients(macdonald_poly(lam, nvars)).items():
            assert invert(c) == c * factor, (nvars, lam, mu)


def test_top_t_slice_is_the_level1_character():
    # the t**(n(lam) + |lam|) slice of J is (-1)**|lam| q**n(lam') times the
    # level-1 character, and no coefficient reaches a higher power of t
    for nvars, lam in GRID:
        top = n_of(lam) + sum(lam)
        J = monomials(macdonald_poly(lam, nvars))
        assert J.bounds()[1][1] == top, (nvars, lam)
        chi = level_one(nvars, lam).times_unit(n_of(conjugate(lam))) * (-1) ** sum(lam)
        assert qt_t_infinity_limit(J, top) == chi, (nvars, lam)


def test_whittaker_specialization_matches_characters():
    # the t**0 slice read in 1/q, expanded into monomials: the level-1 character
    for nvars, lam in GRID:
        w = qwhittaker_specialize(macdonald_poly(lam, nvars))
        assert m_monomials(w, RING_Q, nvars) == level_one(nvars, lam), (nvars, lam)


def test_scalar_specialization_helpers():
    t = qt_const(1, {(0, 1): 1})
    assert qt_t_infinity_limit(qt_const(1, {(1, 2): 1, (0, 1): 1}), 2) == LaurentPoly.from_terms(
        RING_Q, 1, {(1, 0): 1}
    )
    assert qt_t_infinity_limit(t, 2).is_zero()
    with pytest.raises(ArithmeticError):
        qt_t_infinity_limit(qt_const(1, {(0, 3): 1}), 2)


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
    gap = qt_const(2, {(e, low): sign, (e + d, low): -sign, **{(i, low + j): c for (i, j), c in higher.items()}})
    q = qt_const(2, quot)
    f = q * gap
    assert _divide_gap(f, gap) == q == ref_div(f, gap)
    with pytest.raises(NotDivisible):
        _divide_gap(f + qt_const(2, {(e, low + 1): 1}), gap)


def test_gap_division_remainders():
    gap = qt_const(2, {(1, 0): 1, (3, 0): -1, (0, 1): 2, (2, 2): -1})  # q (1 - q**2) + 2 t - q**2 t**2
    quot = qt_const(2, {(0, 0): 1, (1, 1): -3})
    assert _divide_gap(quot * gap, gap) == quot
    # a q-order remainder: q**2 is no multiple of 1 - q**2
    with pytest.raises(NotDivisible, match="binomial"):
        _divide_gap(quot * gap + qt_const(2, {(2, 0): 1}), gap)
    # a remainder left on a coefficient above the quotient's t-degree
    with pytest.raises(NotDivisible, match="eigenvalue gap"):
        _divide_gap(quot * gap + qt_const(2, {(0, 3): 1}), gap)
    # a lowest slice that is no binomial +-q**e (1 - q**d)
    for bad in ({(0, 0): 1, (1, 0): 1}, {(0, 0): 2, (1, 0): -2}, {(0, 0): 1}):
        with pytest.raises(NotDivisible, match="no binomial"):
            _divide_gap(quot, qt_const(2, bad))


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
    assert _divide_gap(q_binomial(EXP_MIN, 1), q_binomial(0, 1)) == qt_const(2, {(EXP_MIN, 0): 1})
    assert _divide_gap(q_binomial(0, 1, EXP_MAX), q_binomial(0, 1)) == qt_const(2, {(0, EXP_MAX): 1})


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
            out[top] = out[top].times_unit(1)
        return out

    monkeypatch.setattr(macdonald, "_column", shifted)
    with pytest.raises(ArithmeticError, match="eigen-relation failed|no exact quotient|no binomial"):
        macdonald_poly(lam, 3)


def test_lift_and_project_roundtrip():
    chi = graded_character(NVector.level_one(2, (1, 1))).monomials()
    assert project_qt_to_q(chi.with_ring(RING_QT)) == chi
    # only a Q-ring polynomial lifts to the QT ring
    for other in (chi.with_ring(RING_W), chi.with_ring(RING_QT)):
        with pytest.raises(ValueError):
            other.with_ring(RING_QT)


def test_degenerate_limit_eigenrelation():
    n = NVector.level_one(2, (1, 1))
    chi = graded_character(n).monomials()
    lifted = chi.with_ring(RING_QT)
    for alpha in (1, 2):
        g = apply_macdonald_qt(alpha, lifted)
        ev = sum(min(alpha, b) for b in (1, 2))
        assert qt_t_infinity_limit(g, alpha * (3 - alpha)) == chi.times_unit(ev)
