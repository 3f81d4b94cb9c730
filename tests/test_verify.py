"""Verification-suite tests, including sensitivity (negative) controls."""

import itertools

import pytest

import qchar.verify as verify
from oracles import image_nc, ref_ev0, ref_square_buckets, ref_swap_buckets, schur_form
from qchar.cartan import CartanData
from qchar.characters import NVector, g_coefficient, graded_character
from qchar.laurent import LaurentPoly, constrain
from qchar.rings import RING_Q, RING_W, ExponentOverflow, NcNotDivisible
from qchar.symfun import SchurPoly, elementary, partitions_up_to
from qchar.verify import (
    CheckReport,
    check_difference_equation,
    check_level1_report,
    check_dual_qsystem,
    check_eigen,
    check_limits,
    check_macdonald,
    check_macdonald_commuting,
    check_sl2_levelk_G,
    check_sl3_level1_G,
    check_sl3_level2_G,
    check_subset_identities,
    check_torus,
    check_whittaker,
    run_suite,
    subset_moment_value,
    subset_square_identity_holds,
    subset_swap_identity_holds,
)


def test_report_bookkeeping():
    rep = CheckReport("demo")
    rep.record("a", True)
    rep.record("b", False, "broke")
    assert not rep.passed and rep.total == 2
    assert rep.failures[:1] == [{"point": "b", "detail": "broke"}]
    data = rep.to_json()
    assert data["points"] == 2 and data["failures"]


def test_swap_identity_window():
    # inside the window the identity holds; at the first p outside it fails
    for (a, b) in [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3), (1, 4)]:
        for p in range(-(b - a + 1), b - a + 2):
            assert subset_swap_identity_holds(a, b, p), (a, b, p)
        assert not subset_swap_identity_holds(a, b, b - a + 2), (a, b)
        assert not subset_swap_identity_holds(a, b, -(b - a + 2)), (a, b)


def test_square_identity():
    for a in (1, 2, 3):
        assert subset_square_identity_holds(a)


def test_two_block_buckets_match_full_expansion():
    # the Schur forms read off the two-block form equal, key for key, the
    # alternant buckets of the fully expanded cleared products, each key
    # lam + delta read as lam, in the window and one step out
    def schur_keys(sides, nvars):
        return tuple({tuple(x - (nvars - 1 - i) for i, x in enumerate(key)): d for key, d in side.items()} for side in sides)

    def terms(sides):
        return tuple(side.z_terms() for side in sides)

    blocks = [(a, b) for b in (1, 2) for a in range(1, b + 1)] + [(1, 3), (2, 3), (1, 4)]
    for a, b in blocks:
        w = b - a + 2
        for p in range(-w, w + 1):
            assert terms(verify._swap_sides(a, b, p)) == schur_keys(ref_swap_buckets(a, b, p), a + b), (a, b, p)
    for a in (1, 2):
        assert terms(verify._square_sides(a)) == schur_keys(ref_square_buckets(a), 2 * a), a


def test_swap_identity_rejects_negative_blocks():
    assert subset_swap_identity_holds(0, 2, 0)
    for a, b in [(-1, 2), (1, -1), (-2, -2)]:
        with pytest.raises(ValueError):
            subset_swap_identity_holds(a, b, 0)
    with pytest.raises(ValueError):
        subset_square_identity_holds(0)


def test_lemma_failure_names_first_differing_schur_coefficient(monkeypatch):
    # widen the swap window by one: exactly the new edge points fail, each
    # with the first differing Schur coefficient and both payloads
    monkeypatch.setattr(verify, "_swap_window", lambda a, b: range(-(b - a + 2), b - a + 3))
    rep = check_subset_identities(bound=2, rank_max=1)
    edges = [(a, b, p) for a in range(3) for b in range(max(a, 1), 3) for p in (-(b - a + 2), b - a + 2)]
    failed = [f["point"] for f in rep.failures]
    assert failed == [str(("swap",) + e) for e in edges if e[0]]
    one_two = rep.failures[failed.index("('swap', 1, 2, 3)")]
    assert one_two["detail"] == "schur (6, 4, 2): lhs {3: -2}, rhs {4: -2}"
    assert all(f["detail"].startswith("schur (") and len(f["detail"]) <= 200 for f in rep.failures)
    long = verify._first_difference({(3, 1): {j: 7 for j in range(100)}}, {}, "schur")
    assert len(long) == 200 and long.endswith("...")


def test_lemmas_check_each_pair_product_once(monkeypatch):
    # from cold caches, the lemmas at bound 3 check the symmetry of W_m once
    # per block size m = 0..4, not once per block partition; times still
    # checks every operand it is handed
    from qchar import laurent

    calls = []
    true_check = laurent._swap_closed
    monkeypatch.setattr(laurent, "_swap_closed", lambda parts, n: calls.append(n) or true_check(parts, n))
    for cached in (verify._pair_parts, verify._times_pairs, verify._two_block_form):
        cached.cache_clear()
    assert check_subset_identities(bound=3).passed
    assert sorted(calls) == [0, 1, 2, 3, 4]
    SchurPoly.basis((1,), 2).times(elementary(1, 2))
    assert calls[5:] == [2]


def test_moment_identity_and_window():
    one = SchurPoly.one(RING_Q, 4)
    assert subset_moment_value(1, 0, 4) == one
    for p in (-1, -2, -3):
        assert subset_moment_value(1, p, 4).is_zero()
    # far enough outside the window the sum is nonzero (frozen from a direct
    # symbolic expansion of the rational subset sum)
    assert subset_moment_value(1, -4, 4).monomials() == LaurentPoly.monomial(
        RING_Q, 4, (-1, -1, -1, -1), -1
    )
    assert subset_moment_value(2, -4, 4).monomials() == LaurentPoly.monomial(
        RING_Q, 4, (-2, -2, -2, -2), 1
    )


def test_difference_equation_negative_control():
    # perturbing the q-exponent of the coefficient breaks the identity
    rank, k = 1, 2
    n = NVector.from_rows(1, 2, ((1, 1),))
    e1 = constrain(elementary(1, 2, RING_Q), 1)
    chi = constrain(graded_character(n).monomials(), 1)
    lhs = LaurentPoly.zero(RING_Q, 1)
    for alpha in (1, 2):
        shifted = n.shift((alpha - 1, k - 1, +1), (alpha, k - 1, -1), (alpha, k, +1), (alpha - 1, k, -1))
        lhs = lhs + constrain(graded_character(shifted).monomials(), 1)
    shifted = n.shift((0, k - 1, +1), (1, k - 1, -1), (2, k, +1), (1, k, -1))
    correct = k - 1 - sum(i * n.entry(1, i) for i in (1, 2))
    good = lhs - constrain(graded_character(shifted).monomials(), 1).times_unit(correct)
    bad = lhs - constrain(graded_character(shifted).monomials(), 1).times_unit(correct + 1)
    assert good == e1 * chi
    assert bad != e1 * chi


def test_generator_negative_control(monkeypatch):
    # moving one q-exponent of one generated coefficient breaks every
    # check that runs through the generator, in both forms and at level 1
    import qchar.characters as characters

    generate = characters.difference_equation_terms

    def perturbed(n, dual=False):
        terms = generate(n, dual)
        idx = max(t for t, (_, c) in enumerate(terms) if c)
        m, c = terms[idx]
        data = dict(c)
        top = max(data)
        data[top + 1] = data.pop(top)
        terms[idx] = (m, data)
        return terms

    monkeypatch.setattr(characters, "difference_equation_terms", perturbed)
    checked = (check_sl2_levelk_G(2, 5), check_difference_equation(1, 2, 5))
    level1 = check_level1_report(2, 5)
    for rep in checked + (level1,):
        assert rep.total and len(rep.failures) == rep.total, rep.name
    # the level-1 report is one point per grid, naming its first failing n
    assert level1.failures == [
        {"point": "('level1', 2, 5)", "detail": "n 0,0: schur (1, 0, 0): lhs {1: 1}, rhs {0: 1}"}
    ]
    whittaker = check_whittaker(order=2, toda_n=1, classone_n=0)
    assert [f["point"] for f in whittaker.failures] == ["('level1', 1, 10)", "('level1', 2, 5)"]
    assert whittaker.failures[1] == level1.failures[0]
    # the G-form relations name a failing point by its entries, level by level
    level1, level2 = check_sl3_level1_G(1), check_sl3_level2_G(1)
    assert [f["point"] for f in level1.failures[2:4]] == [
        "('first', 0, 1)",
        "('second', 0, 1)",
    ]
    # every failing equation point names the first differing Schur
    # coefficient of its two sides
    for rep in checked + (level1, level2):
        assert all(f["detail"].startswith("schur (") and len(f["detail"]) <= 200 for f in rep.failures)
    assert level2.failures[:1] == [{
        "point": "('first', 1, 1, 1, 1)",
        "detail": "schur (5, 2, 0): lhs {-60: 1, -48: 2, -42: 2, -36: 1}, rhs {-54: 1, -48: 2, -42: 2, -36: 1}",
    }]
    assert checked[1].failures[:1] == [{
        "point": "1;1",
        "detail": "schur (2, 0): lhs {-1: 1, 1: 1}, rhs {-1: 1, 0: 1}",
    }]
    # a weighted term off the grid has no value: every point fails, saying so
    monkeypatch.setattr(characters, "difference_equation_terms", lambda n, dual=False: generate(n, dual) + [(None, {0: 1})])
    rep = check_difference_equation(1, 2, 5)
    assert rep.total and rep.failures == [
        {"point": str(n), "detail": "a term off the grid has a nonzero coefficient"} for n in verify._admissible_grids(1, 2, 5)
    ]


def test_qsystem_negative_control():
    # a misstated q-power in the recursion relation fails on some basis input
    from oracles import monomial_sym
    from qchar.qdiff import apply_M

    f = schur_form(monomial_sym((1,), 3))
    a, n = 1, 0
    lhs = apply_M(a, n + 1, apply_M(a, n - 1, f))
    rhs = apply_M(a, n, apply_M(a, n, f)) - apply_M(a + 1, n, apply_M(a - 1, n, f))
    assert lhs.times_unit(a) == rhs
    assert lhs.times_unit(a + 1) != rhs


def test_sl3_g_relation_negative_control():
    # swapping the two elementary symmetric functions breaks the first relation
    e1c = constrain(elementary(1, 3, RING_W), 2)
    e2c = constrain(elementary(2, 3, RING_W), 2)
    G10 = g_coefficient(NVector.level_one(2, (1, 0)))
    G01 = g_coefficient(NVector.level_one(2, (0, 1)))
    assert e2c * G10 == e1c * G01
    assert e1c * G10 != e2c * G01


def test_suite_reports_pass():
    assert all(r.passed for r in run_suite("eigen", rank=2, bound=3))
    assert all(r.passed for r in run_suite("lemmas", bound=2))
    rep = check_dual_qsystem(2, degree_bound=3)
    assert rep.passed and rep.total > 100
    assert check_difference_equation(2, 2, 5).passed
    assert check_difference_equation(1, 3, 6).passed
    assert check_sl3_level1_G(4).passed
    assert check_sl3_level2_G(2).passed
    assert check_sl2_levelk_G(2, 5).passed
    assert check_eigen(2, 3).passed
    assert check_limits(2, 2).passed
    assert check_macdonald(3, 3).passed
    assert check_macdonald_commuting(3, 3).passed
    assert check_torus(rank_max=2, k_max=4, samples=5).passed
    assert check_whittaker(order=10, toda_n=3, classone_n=2).passed


def test_eigen_and_limits_failures_name_first_differing_schur_coefficient(monkeypatch):
    # an M operator with one extra power of q: every eigen point fails, each with
    # the first differing Schur coefficient and both sides
    # (the check runs through the kernel, so the extra power is put on its
    # M terms)
    real = verify.operator_sum

    def raised(terms, **kw):
        return real([(op, a, n, f, s + (op == "M"), c) for op, a, n, f, s, c in terms], **kw)

    monkeypatch.setattr(verify, "operator_sum", raised)
    rep = check_eigen(2, 2)
    assert rep.total and len(rep.failures) == rep.total
    assert all(f["detail"].startswith("schur (") and len(f["detail"]) <= 200 for f in rep.failures)
    assert rep.failures[0] == {
        "point": "(NVector(rank=2, level=1, rows=((0,), (0,))), 1)",
        "detail": "schur (0, 0, 0): lhs {1: 1}, rhs {0: 1}",
    }
    monkeypatch.undo()

    # perturbed top component, raising product and G path: exactly the
    # three Schur-form limits fail at every point, each with a detail
    monkeypatch.setattr(verify, "top_component", lambda n, real=verify.top_component: (sum(real(n)) + 1,))
    for name in ("raising_product", "char_from_g"):
        real_path = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda n, real_path=real_path: real_path(n).times_unit(-1))
    rep = check_limits(1, 1)
    kinds = {"top-component", "within-level-order", "two-paths"}
    assert {f["point"].split(", ")[-1].strip("')") for f in rep.failures} == kinds
    assert len(rep.failures) == 3 * rep.notes["points"]
    assert all(f["detail"].startswith("schur (") and len(f["detail"]) <= 200 for f in rep.failures)


def test_boolean_points_name_their_first_difference(monkeypatch):
    # a D operator that also adds its input, a moment value that also adds
    # 1 and a q = 1 product that also carries q: exactly the boundary, moment
    # and classical-limit points fail, each naming its first difference
    real_D, real_moment, real_rectangle = verify.apply_D, verify.subset_moment_value, verify._rectangle_product
    monkeypatch.setattr(verify, "apply_D", lambda alpha, n, f: real_D(alpha, n, f) + f)
    monkeypatch.setattr(verify, "subset_moment_value", lambda a, p, n: real_moment(a, p, n) + SchurPoly.one(RING_Q, n))
    monkeypatch.setattr(verify, "_rectangle_product", lambda n: real_rectangle(n).times_unit(1))
    lemmas = check_subset_identities(bound=1, rank_max=2)
    kinds = [f["point"].split(",")[0] for f in lemmas.failures]
    assert set(kinds) == {"('moment'", "('boundary-zero-power'", "('boundary-vanishing'"}
    assert len(kinds) == 14 and lemmas.total == 14 + 9  # the 8 swap points and the square pass
    assert lemmas.failures[:2] == [
        {"point": "('moment', 1, 1, 0)", "detail": "schur (0, 0): lhs {0: 2}, rhs {0: 1}"},
        {"point": "('moment', 1, 1, -1)", "detail": "schur (0, 0): lhs {0: 1}, rhs {}"},
    ]
    limits = check_limits(1, 1)
    assert [f["point"] for f in limits.failures] == [str((n, "classical-limit")) for n in verify._level1_grid(1, 1)] + [
        str((n, "classical-limit")) for n in verify._admissible_grids(1, 2, 2)
    ]
    assert limits.failures[1]["detail"] == "schur (1, 0): lhs {0: 1}, rhs {1: 1}"
    # G_{1,0} with one more power of w breaks the compatibility of the two
    # G relations, and nothing else
    real_g = verify._equation_value
    monkeypatch.setattr(verify, "_equation_value", lambda n, form: real_g(n, form).times_unit(n.entry(1, 1)))
    assert check_sl3_level1_G(1).failures == [{"point": "('compatibility',)", "detail": "schur (2, 1, 0): lhs {-7: 1}, rhs {-8: 1}"}]
    for rep in (lemmas, limits):
        assert all(f["detail"].startswith(("schur (", "monomial (")) and len(f["detail"]) <= 200 for f in rep.failures)
    # a character with a positive q-exponent names the largest one
    monkeypatch.setattr(verify, "graded_character", lambda n: graded_character(n).times_unit(2))
    positive = [f for f in check_limits(1, 1).failures if "poly-in-q-inverse" in f["point"]]
    assert len(positive) == limits.notes["points"] and all(f["detail"] == "largest q-exponent 2" for f in positive)


def test_rank3_difference_equation_smallest_grid():
    rep = check_difference_equation(3, 2, 6)
    assert rep.passed and rep.notes["points"] == 1


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("nonsense")


def test_torus_failure_names_first_differing_monomial(monkeypatch):
    # shift every lam(a, b) the check uses by one: exactly the relation points
    # and the window points with k != k' fail, each with the first differing
    # (a, b) monomial and both w-coefficients
    class Shifted(CartanData):
        def lam(self, a, b):
            return super().lam(a, b) + 1

    monkeypatch.setattr(verify, "CartanData", Shifted)
    grid = dict(rank_max=2, k_min=-1, k_max=3, word_k_max=1, word_len=1, samples=3)
    rep = check_torus(**grid)
    ks = range(-1, 4)
    expected = {str(("relation", r, a, k)) for r in (1, 2) for a in range(1, r + 1) for k in range(0, 3)}
    expected |= {
        str(("window", r, a, b, k, kp))
        for r in (1, 2)
        for a, b in itertools.product(range(1, r + 1), repeat=2)
        for k, kp in itertools.product(ks, ks)
        if k != kp and abs(k - kp) <= abs(a - b) + 1 and (a, k) < (b, kp)
    }
    failed = [f["point"] for f in rep.failures]
    assert set(failed) == expected and len(failed) == len(expected)
    first = rep.failures[0]
    assert first == {
        "point": "('relation', 1, 1, 0)",
        "detail": "monomial ((2,), (0,)): lhs {2: 1}, rhs {0: 1}",
    }
    assert all(f["detail"].startswith("monomial ((") and len(f["detail"]) <= 200 for f in rep.failures)
    monkeypatch.undo()

    # an ev that also multiplies by w: every intertwining point fails
    real = verify.evaluate
    monkeypatch.setattr(verify, "evaluate", lambda f, mode="ev": real(f, mode).times_unit(1 if mode == "ev" else 0))
    rep = check_torus(**grid)
    assert [f["point"] for f in rep.failures] == [str(("intertwine", r, i)) for r in (1, 2) for i in range(3)]
    assert all(f["detail"].startswith("monomial ((") for f in rep.failures)


def test_polynomiality_failure_names_first_negative_monomial(monkeypatch):
    # an ev0 step that also divides by Q_{1,1} on the right: exactly the
    # words whose lowered image, re-derived step by step through the oracle
    # (full product, then ev0), has a negative Q_{b,1}-exponent fail, each
    # naming the greatest such monomial and its w-coefficient
    import qchar.qtorus as qtorus

    def lowered(img, x, step=qtorus.ev0_times):
        return qtorus.PackedImage.of(image_nc(step(img, x)) * qtorus.NcLaurent.generator(img.rank, 1, 1, -1))

    grid = dict(rank_max=2, k_min=-1, k_max=3, word_k_max=2, word_len=2, samples=0)
    expected = []
    for rank in (1, 2):
        table = qtorus.q_recursion(rank, 3, -1)
        letters = [(a, k) for a in range(1, rank + 1) for k in (1, 2)]
        images = {(): qtorus.NcLaurent.one(rank)}
        for word in [w for n in (1, 2) for w in itertools.combinations_with_replacement(letters, n)]:
            image = ref_ev0(rank, dict((images[word[:-1]] * table[word[-1]]).terms()))
            images[word] = qtorus.NcLaurent.from_terms(rank, image) * qtorus.NcLaurent.generator(rank, 1, 1, -1)
            negative = {b: c for (_, b), c in images[word].terms() if min(b) < 0}
            if negative:
                b = max(negative)
                detail = "ev0 monomial Q_{b,1}**%s: w-coefficient %s" % (b, dict(sorted(negative[b].items())))
                expected.append({"point": str(("polynomiality", rank, word)), "detail": detail})
    monkeypatch.setattr(qtorus, "ev0_times", lowered)
    rep = check_torus(**grid)
    assert expected and rep.failures == expected
    # ev0(Q_{1,2}) = w**4 Q_{1,1}**2 - 1 at rank 1
    assert rep.failures[0] == {
        "point": str(("polynomiality", 1, ((1, 2),))),
        "detail": "ev0 monomial Q_{b,1}**(-1,): w-coefficient {0: -1}",
    }


def test_torus_rejects_words_beyond_the_table():
    with pytest.raises(ValueError, match="word_k_max 3 exceeds k_max 2"):
        check_torus(1, k_max=2)


def test_torus_rejects_a_table_range_without_k_0_and_1(monkeypatch):
    # a usage error, raised before any work, not two failing recursion points
    calls = []
    monkeypatch.setattr(verify, "q_recursion", lambda *args: calls.append(args))
    for kwargs in ({"k_max": 0, "word_k_max": 0}, {"k_min": 1}, {"k_min": -1, "k_max": 0, "word_k_max": 0}):
        with pytest.raises(ValueError, match="k_min <= 0 < 1 <= k_max"):
            check_torus(2, **kwargs)
    assert calls == []


def test_torus_reports_a_failed_division_and_raises_anything_else(monkeypatch):
    # a division that fails or overflows is a failed point; any other
    # exception is a fault of the program and propagates
    for exc in (NcNotDivisible("no exact quotient"), ExponentOverflow("w out of range"), KeyError("bug")):

        def q_recursion(*args, exc=exc):
            raise exc

        monkeypatch.setattr(verify, "q_recursion", q_recursion)
        if isinstance(exc, ArithmeticError):
            rep = check_torus(1, k_max=2, word_k_max=1)
            assert rep.failures == [{"point": str(("recursion", 1)), "detail": str(exc)}]
        else:
            with pytest.raises(KeyError):
                check_torus(1, k_max=2, word_k_max=1)


def test_qsystem_failure_names_first_differing_schur_coefficient(monkeypatch):
    # shift every lam(a, b) the check uses by one: exactly the D-form points
    # whose relation carries lam (recursion, and commutation with n != p)
    # and whose two-operator side is nonzero fail, each naming the first
    # differing Schur coefficient; the M form uses no lam
    class Shifted(CartanData):
        def lam(self, a, b):
            return super().lam(a, b) + 1

    from qchar.qdiff import apply_D

    rank, bound = 2, 2
    rep = check_dual_qsystem(rank, degree_bound=bound)
    assert rep.passed
    monkeypatch.setattr(verify, "CartanData", Shifted)
    rep = check_dual_qsystem(rank, degree_bound=bound)
    basis = [SchurPoly.basis(lam, rank + 1, RING_W) for lam in partitions_up_to(bound, rank + 1)]
    expected = []  # in the check's order: D commutation points, then recursion
    for alpha, beta in itertools.combinations_with_replacement(range(1, rank + 1), 2):
        for n, p in itertools.product(range(-1, 3), repeat=2):
            if n != p and abs(p - n) <= beta - alpha + 1:
                expected += [
                    str(("D", "commute", alpha, beta, n, p, idx))
                    for idx, f in enumerate(basis)
                    if apply_D(alpha, n, apply_D(beta, p, f))
                ]
    for alpha, n in itertools.product(range(1, rank + 1), (0, 1)):
        expected += [
            str(("D", "recursion", alpha, n, idx))
            for idx, f in enumerate(basis)
            if apply_D(alpha, n + 1, apply_D(alpha, n - 1, f))
        ]
    assert expected and [f["point"] for f in rep.failures] == expected
    assert all(f["detail"].startswith("schur (") and len(f["detail"]) <= 200 for f in rep.failures)
    assert rep.failures[0] == {
        "point": "('D', 'commute', 1, 1, -1, 0, 1)",
        "detail": "schur (0, 0, 0): lhs {-18: 1, -12: -1}, rhs {-20: 1, -14: -1}",
    }


def test_macdonald_failures_name_first_differing_monomial(monkeypatch):
    # a q-Whittaker specialization that also multiplies by q: every
    # whittaker point fails, each naming its first differing monomial
    real = verify.qwhittaker_specialize
    monkeypatch.setattr(verify, "qwhittaker_specialize", lambda J: {mu: {u + 1: c for u, c in d.items()} for mu, d in real(J).items()})
    rep = check_macdonald(3, 2)
    whittaker = [f for f in rep.failures if f["point"].startswith("('whittaker'")]
    assert len(whittaker) == len(rep.failures) == 8
    assert rep.failures[0] == {"point": "('whittaker', 2, ())", "detail": "monomial (0, 0): lhs {1: 1}, rhs {0: 1}"}
    monkeypatch.undo()

    # a t -> oo limit that also multiplies by z_1...z_N: every
    # degenerate-limit point fails
    real_limit = verify.qt_t_infinity_limit
    monkeypatch.setattr(verify, "qt_t_infinity_limit", lambda g, d: real_limit(g, d).times_z((1,) * g.nvars))
    rep = check_macdonald(3, 2)
    assert len(rep.failures) == 15 and all(f["point"].startswith("('degenerate-limit'") for f in rep.failures)
    assert rep.failures[0]["detail"] == "monomial (1, 1): lhs {0: 1}, rhs {}"
    assert all(f["detail"].startswith("monomial (") and len(f["detail"]) <= 200 for f in rep.failures)
    monkeypatch.undo()

    # M_1 that also adds the constant 1 no longer commutes with M_2: the
    # constant monomial differs, its payload keyed by (q, t) exponents
    real_op = verify.apply_macdonald_m

    def shifted(alpha, f, nvars):
        out = dict(real_op(alpha, f, nvars))
        if alpha == 1:
            one = out.get((0,) * nvars, {})
            out[(0,) * nvars] = {**one, 0: one.get(0, 0) + 1}
        return out

    monkeypatch.setattr(verify, "apply_macdonald_m", shifted)
    rep = check_macdonald_commuting(3, 2)
    assert rep.total == len(rep.failures) == 4
    assert rep.failures[1] == {
        "point": "('commute', 1, 2, 1)",
        "detail": "monomial (0, 0, 0): lhs {(0, 0): 1}, rhs {(0, 0): 1, (0, 1): 1, (0, 2): 1}",
    }
    assert all(f["detail"].startswith("monomial (0, 0, 0): lhs {(") and len(f["detail"]) <= 200 for f in rep.failures)
