"""Acceptance criteria.

Each test runs one criterion at its stated scale, with exact (tolerance
zero) comparisons, asserts its runtime budget, and prints one PASS/FAIL
line (visible with ``pytest -s``)."""

import time
from contextlib import contextmanager

from qchar.characters import NVector, g_coefficient, graded_character
from qchar.laurent import LaurentPoly, constrain
from qchar.rings import RING_Q, RING_W
from qchar.symfun import elementary
from qchar.verify import (
    check_subset_identities,
    check_difference_equation,
    check_dual_qsystem,
    check_eigen,
    check_level1_report,
    check_limits,
    check_macdonald,
    check_sl3_level2_G,
    check_torus,
    check_whittaker,
)


@contextmanager
def criterion(num, desc, budget):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print("FAIL criterion-%02d %s" % (num, desc))
        raise
    dt = time.perf_counter() - t0
    print("PASS criterion-%02d (%6.1fs < %3ds) %s" % (num, dt, budget, desc))
    assert dt < budget, "runtime budget exceeded: %.1fs" % dt


def test_criterion_01_rank2_level1_g_values():
    with criterion(1, "five published rank-2 level-1 G values, verbatim", 1):
        e1 = constrain(elementary(1, 3, RING_W), 2)
        e2 = constrain(elementary(2, 3, RING_W), 2)

        def G(n, p):
            return g_coefficient(NVector.level_one(2, (n, p)))

        def wpow(k):
            return LaurentPoly.unit_power(RING_W, 2, k)

        assert G(1, 0) == e1.times_unit(-8)
        assert G(0, 1) == e2.times_unit(-8)
        assert G(2, 0) == (e1 * e1).times_unit(-20) + e2.times_unit(-14) - e2.times_unit(-20)
        assert G(1, 1) == (e1 * e2).times_unit(-18) + wpow(-12) - wpow(-18)
        assert G(0, 2) == (e2 * e2).times_unit(-20) + e1.times_unit(-14) - e1.times_unit(-20)


def test_criterion_02_rank1_recursion():
    with criterion(2, "rank-1 level-1 three-term recursion, n <= 10", 1):
        zpz = constrain(elementary(1, 2, RING_Q), 1)

        def chi(n):
            return constrain(graded_character(NVector.level_one(1, (n,))).monomials(), 1)

        # the recursion holds on the built characters...
        for n in range(0, 10):
            prev = chi(n - 1) if n >= 1 else LaurentPoly.zero(RING_Q, 1)
            gated = prev - prev.times_unit(-n)
            assert chi(n + 1) + gated == zpz * chi(n), n
        # ...and the closed recursion from chi_0 = 1 reproduces them
        closed = [LaurentPoly.one(RING_Q, 1), zpz]
        for n in range(1, 10):
            closed.append(zpz * closed[n] - (closed[n - 1] - closed[n - 1].times_unit(-n)))
        for n in range(0, 11):
            assert chi(n) == closed[n], n


def test_criterion_03_rank2_level2_relations():
    with criterion(3, "both rank-2 level-2 G relations + compatibility", 30):
        rep = check_sl3_level2_G(2)
        assert rep.passed, rep.failures[:1]
        assert rep.total == 33  # 16 points x 2 relations + compatibility


def test_criterion_04_dual_qsystem():
    with criterion(4, "dual Q-system, both forms, degree <= 6, r = 2 and 3", 120):
        for r in (2, 3):
            rep = check_dual_qsystem(r, degree_bound=6, n_lo=-1, n_hi=2)
            assert rep.passed, (r, rep.failures[:1])


def test_criterion_05_difference_equations():
    with criterion(5, "level-k difference equation, r <= 3, k = 2, 3, sigma <= 5", 120):
        for r in (1, 2, 3):
            for k in (2, 3):
                rep = check_difference_equation(r, k, 5)
                assert rep.passed, (r, k, rep.failures[:1])
                if r == 3:
                    # admissibility needs sigma >= 6 at rank 3: grid is empty
                    assert rep.notes["points"] == 0


def test_criterion_06_eigenfunctions():
    with criterion(6, "degenerate-operator eigenrelations, r <= 3, sigma <= 4", 60):
        for r in (1, 2, 3):
            rep = check_eigen(r, 4)
            assert rep.passed, (r, rep.failures[:1])


def test_criterion_07_macdonald_oracle():
    with criterion(7, "independent Macdonald path equals characters, |lam| <= 4, N <= 3", 120):
        rep = check_macdonald(nvars_max=3, weight_max=4)
        assert rep.passed, rep.failures[:1]


def test_criterion_08_subset_identities():
    with criterion(8, "subset-fraction identities, a <= b <= 3; moments r <= 4", 60):
        rep = check_subset_identities(bound=3, rank_max=4)
        assert rep.passed, rep.failures[:1]


def test_criterion_09_whittaker_series():
    with criterion(9, "Toda relation to order 20, n <= 6; class-one to order 20, n <= 4", 30):
        rep = check_whittaker(order=20, toda_n=6, classone_n=4)
        assert rep.passed, rep.failures[:1]


def test_criterion_10_torus():
    with criterion(10, "torus: Laurent table k in [-2,6] r <= 3, windows, words, intertwining", 120):
        rep = check_torus(rank_max=3, k_min=-2, k_max=6, word_len=4)
        assert rep.passed, rep.failures[:1]


def test_criterion_11_property_suite():
    with criterion(11, "q-structure, limits, order independence, two-path consistency", 120):
        rep = check_limits(rank_max=3, sigma_max=3)
        assert rep.passed, rep.failures[:1]
        rep = check_level1_report(2, 5)
        assert rep.passed and rep.notes["points"] == 21, rep.failures[:1]
