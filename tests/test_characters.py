"""Graded character tests: published rank-2 values, the rank-1 recursion
oracle, structural limits, and the two operator paths."""

import itertools

import pytest

from oracles import times_e
from qchar import characters
from qchar.cartan import CartanData
from qchar.characters import (
    NVector,
    char_from_g,
    char_q_exponent,
    difference_equation_terms,
    equation_sides,
    g_coefficient,
    g_form_terms,
    graded_character,
    multiplicities,
    top_component,
)
from qchar.laurent import LaurentPoly, constrain
from qchar.qtorus import NcLaurent
from qchar.rings import RING_Q, RING_W, ExponentNotDivisible
from qchar.symfun import SchurPoly, elementary, schur
from qchar.verify import CheckReport


def wpow(k, nvars=2):
    return LaurentPoly.unit_power(RING_W, nvars, k)


def test_nvector_validation():
    with pytest.raises(ValueError):
        NVector.from_rows(2, 1, ((1,),))  # wrong row count
    with pytest.raises(ValueError):
        NVector.from_rows(1, 1, ((-1,),))
    # a bool is an int subclass, equal and hash-equal to 0 or 1; it is no entry
    for entries in ((True, False), (1, False), (0, True)):
        with pytest.raises(ValueError, match="a bool is not one"):
            NVector.level_one(2, entries)
    with pytest.raises(ValueError):
        NVector.from_rows(1, 2, ((1, 2.0),))
    assert str(NVector.level_one(2, (1, 0))) == "1,0"
    n = NVector.from_levels(2, 2, [[1, 0], [0, 1]])
    assert n.rows == ((1, 0), (0, 1))
    assert n.entry(1, 1) == 1 and n.entry(2, 2) == 1
    assert sum(map(sum, n.rows)) == 2
    assert sum(map(sum, n._on(n._moved([(1, 1, -1), (2, 2, -1)])).rows)) == 0
    assert n._on(n._moved([(1, 2, -1)])) is None
    assert n._on(n._moved([(0, 1, -1), (3, 1, -1)])) == n  # boundary moves dropped
    # no negative-index wrap-around: entries outside the matrix are errors,
    # level-0 moves drop out, other out-of-range moves are errors
    m = NVector.from_rows(1, 2, ((3, 5),))
    for alpha, i in ((1, 0), (0, 1), (2, 1), (1, 3), (-1, 1)):
        with pytest.raises(ValueError):
            m.entry(alpha, i)
    assert m._on(m._moved([(1, 0, -1)])) == m
    assert m._on(m._moved([(0, 0, 1), (2, 0, -1)])) == m
    for move in ((1, -1, -1), (1, 3, 1), (-1, 1, 1), (3, 1, 1)):
        with pytest.raises(ValueError):
            m._on(m._moved([move]))
    assert n.dual().rows == ((0, 1), (1, 0)) and n.dual().dual() == n


def test_records_keep_value_semantics():
    # repr, equality by class and fields, hashing and immutability, as the
    # dataclasses they replace had them
    n = NVector.from_rows(2, 2, ((1, 0), (2, 1)))
    assert repr(n) == "NVector(rank=2, level=2, rows=((1, 0), (2, 1)))" and str(n) == "1,2;0,1"
    assert repr(CartanData(3)) == "CartanData(rank=3)"
    assert n == NVector(2, 2, ((1, 0), (2, 1))) and hash(n) == hash(NVector(2, 2, ((1, 0), (2, 1))))
    assert n != (2, 2, ((1, 0), (2, 1))) and (2, 2, ((1, 0), (2, 1))) != n and n != n.dual()
    assert CartanData(2) == CartanData(2) != CartanData(3) and len({CartanData(2), CartanData(2)}) == 1
    assert CartanData(1) != NVector.level_one(1, (1,)) and CartanData(1) != (1,)
    for record, field in ((n, "rows"), (CartanData(2), "rank")):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.extra = 0
    report = CheckReport("demo", total=1)
    report.record("p", False, "d")
    assert repr(report) == "CheckReport(name='demo', total=2, failures=[{'point': 'p', 'detail': 'd'}], notes={})"
    assert report == CheckReport("demo", 2, [{"point": "p", "detail": "d"}]) != CheckReport("demo", 2)
    assert CheckReport("a").failures is not CheckReport("a").failures
    with pytest.raises(TypeError):
        hash(report)


def test_empty_product_is_one():
    for r in (1, 2):
        n = NVector.level_one(r, (0,) * r)
        assert graded_character(n).monomials() == LaurentPoly.one(RING_Q, r + 1)


def test_coefficient_text_is_pinned():
    # the strings of the one coefficient renderer, as the README shows them:
    # one term bare, several in parentheses by descending exponent
    chi = graded_character(NVector.level_one(2, (1, 1)))
    assert repr(chi) == "SchurPoly[q,3](s(2, 1, 0): 1, s(1, 1, 1): q^-1)"
    assert repr(graded_character(NVector.level_one(1, (4,)))) == (
        "SchurPoly[q,2](s(4, 0): 1, s(3, 1): (q^-1 + q^-2 + q^-3), s(2, 2): (q^-2 + q^-4))"
    )
    assert graded_character(NVector.level_one(1, (3,))).monomials().to_text() == (
        "z1^3 + (1 + q^-1 + q^-2)*z1^2*z2^1 + (1 + q^-1 + q^-2)*z1^1*z2^2 + z2^3"
    )
    f = NcLaurent.from_terms(
        2, [(((1, 0), (0, -1)), {3: 2, 0: -1, -2: 1}), (((0, 0), (0, 0)), {-1: -1}), (((0, 1), (1, 0)), {1: 1, 0: 3})]
    )
    assert f.to_text() == "(2*w^3 - 1 + w^-2)*Q[1,0]^1*Q[2,1]^-1 + (w^1 + 3)*Q[2,0]^1*Q[1,1]^1 - w^-1"


def test_rank2_level1_characters():
    n11 = NVector.level_one(2, (1, 1))
    chi = graded_character(n11)
    assert chi.monomials() == schur((2, 1), 3) + schur((1, 1, 1), 3).times_unit(-1)
    assert chi.expansion() == {
        (2, 1): {0: 1},
        (1, 1, 1): {-1: 1},
    }
    assert multiplicities(n11) == {
        (2, 1): {0: 1},
        (): {-1: 1},
    }
    assert graded_character(NVector.level_one(2, (1, 0))).monomials() == schur((1,), 3)


def test_rank2_level1_g_values():
    # all five published sigma <= 1 values of the renormalized coefficients,
    # constrained to z1 z2 z3 = 1, v-exponents included verbatim
    e1 = constrain(elementary(1, 3, RING_W), 2)
    e2 = constrain(elementary(2, 3, RING_W), 2)

    def G(n, p):
        return g_coefficient(NVector.level_one(2, (n, p)))

    assert G(1, 0) == e1.times_unit(-8)  # v^-4 e1
    assert G(0, 1) == e2.times_unit(-8)  # v^-4 e2
    # v^-7 (v^-3 e1^2 + (1 - v^-3) e2)
    assert G(2, 0) == (e1 * e1).times_unit(-20) + e2.times_unit(-14) - e2.times_unit(-20)
    # v^-6 (v^-3 e1 e2 + 1 - v^-3)
    assert G(1, 1) == (e1 * e2).times_unit(-18) + wpow(-12) - wpow(-18)
    # v^-7 (v^-3 e2^2 + (1 - v^-3) e1)
    assert G(0, 2) == (e2 * e2).times_unit(-20) + e1.times_unit(-14) - e1.times_unit(-20)


def test_rank1_recursion_oracle():
    # chi_{n+1} = (z + 1/z) chi_n - (1 - q^-n) chi_{n-1} determines the whole
    # family from chi_0 = 1; the raising construction must reproduce it
    zplus = constrain(elementary(1, 2, RING_Q), 1)
    chis = [LaurentPoly.one(RING_Q, 1), zplus]
    for n in range(1, 10):
        nxt = zplus * chis[n] - (chis[n - 1] - chis[n - 1].times_unit(-n))
        chis.append(nxt)
    for n in range(0, 11):
        built = constrain(graded_character(NVector.level_one(1, (n,))).monomials(), 1)
        assert built == chis[n], n


def test_top_component_and_prefactor():
    n = NVector.level_one(2, (1, 1))
    assert top_component(n) == (2, 1)
    assert top_component(NVector.level_one(1, (0,))) == ()
    assert top_component(NVector.from_rows(1, 2, ((1, 1),))) == (3,)
    assert char_q_exponent(n) == -1
    assert char_q_exponent(NVector.level_one(1, (2,))) == -1
    assert char_q_exponent(NVector.level_one(1, (0,))) == 0


def test_q_one_specialization_is_tensor_character():
    n = NVector.from_rows(1, 2, ((1, 1),))
    chi = graded_character(n).monomials()
    assert chi.at_unit_one() == schur((1,), 2) * schur((2,), 2)
    n2 = NVector.level_one(2, (1, 1))
    chi2 = graded_character(n2).monomials()
    assert chi2.at_unit_one() == schur((1,), 3) * schur((1, 1), 3)


def test_paths_agree_through_prefactor():
    grids = [NVector.level_one(1, (n,)) for n in range(0, 5)]
    grids += [NVector.level_one(2, c) for c in itertools.product(range(3), repeat=2)]
    grids += [NVector.from_rows(1, 2, ((a, b),)) for a in range(2) for b in range(1, 3)]
    for n in grids:
        assert char_from_g(n) == graded_character(n), n
        assert char_from_g(n).monomials() == graded_character(n).monomials(), n


def test_multiplicity_coefficients_are_nonnegative_integers():
    # nonnegativity is reported, not assumed: any violation fails loudly here
    for n in [NVector.level_one(2, (2, 1)), NVector.from_rows(1, 2, ((2, 1),))]:
        for coeff in multiplicities(n).values():
            assert all(c > 0 for c in coeff.values()), (n, coeff)


def test_within_level_order_irrelevant():
    from qchar.qdiff import apply_M

    f = SchurPoly.one(RING_Q, 3)
    for alpha in (1, 1, 2):
        f = apply_M(alpha, 1, f)
    g = SchurPoly.one(RING_Q, 3)
    for alpha in (2, 1, 1):
        g = apply_M(alpha, 1, g)
    assert f == g


def test_g_unconstrained_conversion_is_clean(monkeypatch):
    # the twisted product times its prefactor w**E is a function of q: its
    # packed value is read in q by its offset alone, and equals the
    # character; one stray w-power and the offset is no multiple of 2(r+1)
    grid = [NVector.level_one(2, (1, 1)), NVector.from_rows(1, 2, ((1, 2),))]
    for n in grid:
        assert char_from_g(n) == graded_character(n), n
    true_exponent = characters.g_to_char_w_exponent
    monkeypatch.setattr(characters, "g_to_char_w_exponent", lambda n: true_exponent(n) + 1)
    for n in grid:
        with pytest.raises(ExponentNotDivisible):
            char_from_g(n)


# -- the difference-equation generator -----------------------------------------


def _wcoeff(*pairs):
    out = {}
    for e, c in pairs:
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _normalised_g_form(n, norm, dual=False):
    """The generated G-form terms with nonzero coefficients, keyed by the
    shifted rows, every w-exponent moved by ``norm``."""
    out = {}
    for m, coeff in g_form_terms(n, difference_equation_terms(n, dual)):
        if coeff:
            assert m is not None, (n, coeff)
            out[m.rows] = {e + norm: c for e, c in coeff.items()}
    return out


def _nonzero(expected):
    return {rows: c for rows, c in expected.items() if c}


def test_generated_g_form_matches_handwritten_recursions():
    # the v-form recursions once written out by hand, each with right-hand
    # side w**norm * e_1 G (or e_2 G); the generator's G-form has right-hand
    # side e G, so its coefficients times w**norm must be these
    for n, p in itertools.product(range(6), repeat=2):
        nv = NVector.level_one(2, (n, p))
        first = {
            ((n + 1,), (p,)): _wcoeff((6, 1)),
            ((n - 1,), (p + 1,)): _wcoeff((-6 * n, 1), (0, -1)),
            ((n,), (p - 1,)): _wcoeff((-6 - 6 * n - 6 * p, 1), (-6 - 6 * n, -1)),
        }
        second = {
            ((n,), (p + 1,)): _wcoeff((6, 1)),
            ((n + 1,), (p - 1,)): _wcoeff((-6 * p, 1), (0, -1)),
            ((n - 1,), (p,)): _wcoeff((-6 - 6 * n - 6 * p, 1), (-6 - 6 * p, -1)),
        }
        assert _normalised_g_form(nv, -4 * n - 2 * p - 2) == _nonzero(first), (n, p)
        assert _normalised_g_form(nv, -2 * n - 4 * p - 2, dual=True) == _nonzero(second), (n, p)

    for n1, p1, n2, p2 in itertools.product(range(1, 3), repeat=4):
        nv = NVector.from_rows(2, 2, ((n1, n2), (p1, p2)))
        first = {
            ((n1 - 1, n2 + 1), (p1, p2)): {0: 1},
            ((n1 + 1, n2 - 1), (p1 - 1, p2 + 1)): {-6 * n2: 1},
            ((n1, n2), (p1 + 1, p2 - 1)): {-6 * n2 - 6 * p2: 1},
            ((n1 - 1, n2 - 1), (p1, p2 + 1)): {-6: -1},
            ((n1 + 1, n2), (p1 - 1, p2 - 1)): {-6 - 6 * n2: -1},
        }
        second = {
            ((n1, n2), (p1 - 1, p2 + 1)): {0: 1},
            ((n1 - 1, n2 + 1), (p1 + 1, p2 - 1)): {-6 * p2: 1},
            ((n1 + 1, n2 - 1), (p1, p2)): {-6 * n2 - 6 * p2: 1},
            ((n1, n2 + 1), (p1 - 1, p2 - 1)): {-6: -1},
            ((n1 - 1, n2 - 1), (p1 + 1, p2)): {-6 - 6 * p2: -1},
        }
        assert _normalised_g_form(nv, -2 - 4 * n2 - 2 * p2) == first
        assert _normalised_g_form(nv, -2 - 2 * n2 - 4 * p2, dual=True) == second

    for k in (2, 3):
        for rows in itertools.product(range(4), repeat=k):
            if rows[-1] < 1 or rows[-2] < 1:
                continue
            nv = NVector.from_rows(1, k, (rows,))
            nk = rows[-1]
            expected = {
                nv._on(nv._moved([(1, k - 1, -1), (1, k, 1)])).rows: {2 * (nk + 1): 1},
                nv._on(nv._moved([(1, k - 1, 1), (1, k, -1)])).rows: {2 * (1 - nk): 1},
                nv._on(nv._moved([(1, k - 1, -1), (1, k, -1)])).rows: {2 * (nk - 1): -1},
            }
            assert _normalised_g_form(nv, 1) == expected, rows


def test_level1_generator_merges_the_two_sums():
    # at k = 1 the level-0 moves drop out and the sums merge into
    # 1 - q**(-n^(a)); a negative shift carries the zero coefficient 1 - q**0
    terms = difference_equation_terms(NVector.level_one(2, (0, 3)))
    by_rows = {None if m is None else m.rows: c for m, c in terms}
    assert by_rows == {((1,), (3,)): {0: 1}, None: {}, ((0,), (2,)): {0: 1, -3: -1}}
    assert len(terms) == 3


def test_dual_terms_are_the_relabelled_equation():
    # the dual terms, formed on the dual rows, are those of the equation at
    # n.dual() relabelled a -> r+1-a, term for term and in order
    for rank, level in itertools.product((1, 2, 3), repeat=2):
        for entries in itertools.product(range(3), repeat=rank * level):
            if sum(entries) > 3:
                continue
            n = NVector(rank, level, tuple(entries[a * level : (a + 1) * level] for a in range(rank)))
            relabelled = [(m and m.dual(), c) for m, c in difference_equation_terms(n.dual())]
            assert difference_equation_terms(n, dual=True) == relabelled, n


def test_rank3_g_form_and_dual_equations():
    # coverage beyond the verify suite: rank 3, the G-form and both duals
    for entries in itertools.product(range(4), repeat=3):
        if sum(entries) > 3:
            continue
        n = NVector.level_one(3, entries)
        assert equation_sides(n, "G") is None, n
        assert equation_sides(n, "G", dual=True) is None, n
        assert equation_sides(n, "chi", dual=True) is None, n
    n = NVector.from_rows(3, 2, ((1, 1),) * 3)  # the one admissible point at sigma = 6
    assert equation_sides(n, "G") is None
    assert equation_sides(n, "chi", dual=True) is None
    with pytest.raises(ValueError):
        equation_sides(n, "bogus")


def _operator_grids():
    """Every n of the diffeq, eigen and limits grids at their default scales
    (ranks 1-3, levels 1-3), in the order the suites visit them."""
    from qchar import verify

    grid = [verify._level1_grid(r, 5) for r in (1, 2, 3)]
    grid += [verify._admissible_grids(r, k, 5) for r in (1, 2) for k in (2, 3)]
    grid.append(verify._admissible_grids(3, 2, 6))
    grid.append([NVector.from_rows(2, 2, rows) for rows in itertools.product(itertools.product((1, 2), repeat=2), repeat=2)])
    grid += [verify._admissible_grids(r, 2, 4) for r in (1, 2)]
    return [n for part in grid for n in part]


def test_prefix_chains_match_products_from_scratch():
    # each chain value is one raising step from its cached prefix; from
    # empty tables, every value on the grids equals the full product
    from qchar import characters
    from qchar.qdiff import apply_D, apply_M

    characters._CHAINS.clear()
    grid = _operator_grids()
    assert {n.rank for n in grid} == {1, 2, 3} and {n.level for n in grid} == {1, 2, 3}
    for n in grid:
        assert characters.raising_product(n) == characters.operator_product(n, apply_M, RING_Q), n
        assert characters._chain(n, "D", RING_W).schur() == characters.operator_product(n, apply_D, RING_W), n
    # a prefix is keyed by its word of factors (alpha, i), whatever the
    # level of the matrix it came from
    assert (RING_Q, 2, ((1, 1),)) in characters._CHAINS


def test_long_chain_needs_no_recursion():
    # the walk down to the cached prefix is a loop: a chain far longer than
    # the remaining recursion depth still builds
    import sys

    from qchar import characters
    from qchar.qdiff import apply_M

    def depth():
        frame, d = sys._getframe(), 0
        while frame:
            frame, d = frame.f_back, d + 1
        return d

    characters._CHAINS.clear()
    n = NVector.level_one(1, (32,))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth() + 24)
    try:
        chain = characters.raising_product(n)
    finally:
        sys.setrecursionlimit(limit)
    assert chain == characters.operator_product(n, apply_M, RING_Q)


def test_a_cached_prefix_is_repacked_once(monkeypatch):
    # n = (4) at rank 1 sits at width 4, and the two words that extend it,
    # n = (5) and the level-2 ((4, 1)), each need a wider one: the first
    # step holds the cached prefix at width 8 in place, and the second
    # reads it there, so its rows are repacked once between them
    from qchar import characters, laurent

    characters._CHAINS.clear()
    prefix = characters._chain(NVector.level_one(1, (4,)), "M", RING_Q)
    assert prefix.packing[0] == 4
    widths, digits = [], laurent.kron_digits
    monkeypatch.setattr(laurent, "kron_digits", lambda n, s: widths.append(s) or digits(n, s))
    for n in (NVector.level_one(1, (5,)), NVector.from_rows(1, 2, ((4, 1),))):
        assert characters._chain(n, "M", RING_Q).packing[0] == 8
    assert prefix.packing[0] == 8 and widths == [4] * len(prefix.packing[1])


@pytest.mark.parametrize("perturbed", [False, True])
def test_equation_residual_matches_two_sided_sums(monkeypatch, perturbed):
    # on every n with entries <= 1 (admissible or not), ranks 1-2, levels
    # 1-3: the packed residual gives the verdict of the sum of the unpacked
    # shifted values against the Pieri side, and a failure returns those
    # two sides (lhs None for a term off the grid); with one q-exponent
    # moved in the generator, the failures are genuine
    from qchar import characters

    generate = characters.difference_equation_terms

    def moved(n, dual=False):
        terms = generate(n, dual)
        m, c = terms[0]
        return [(m, {e + 1: x for e, x in c.items()})] + terms[1:]

    if perturbed:
        monkeypatch.setattr(characters, "difference_equation_terms", moved)
    counts = {"holds": 0, "off-grid": 0, "sides": 0}
    for r, k in itertools.product((1, 2), (1, 2, 3)):
        for entries in itertools.product((0, 1), repeat=r * k):
            n = NVector(r, k, tuple(entries[a * k : (a + 1) * k] for a in range(r)))
            for form, dual in itertools.product(("chi", "G"), (False, True)):
                terms = characters.difference_equation_terms(n, dual)
                if form == "G":
                    terms = g_form_terms(n, terms)
                rhs = times_e(characters._equation_value(n, form).schur(), r if dual else 1).constrained()
                if any(c and m is None for m, c in terms):
                    lhs = None
                else:
                    lhs = SchurPoly.zero(rhs.ring, r + 1)
                    for m, c in terms:
                        for e, x in c.items():
                            lhs = lhs + characters._equation_value(m, form).schur().times_unit(e) * x
                sides = characters.equation_sides(n, form, dual)
                assert (lhs == rhs) == (sides is None)
                assert sides is None or sides == (lhs, rhs), (n, form, dual)
                counts["holds" if sides is None else "off-grid" if lhs is None else "sides"] += 1
    assert counts == ({"holds": 0, "off-grid": 336, "sides": 56} if perturbed else {"holds": 56, "off-grid": 336, "sides": 0})


def test_packed_residual_sums_each_w_class_apart():
    # a W-form residual whose parts lie in two w-classes mod 2N holds only
    # when each class sums to 0: u and u**2N times G are one place apart
    # in q, and u**1 G is in another class, where nothing cancels it
    from qchar.characters import _equation_value, packed_sides
    from qchar.qdiff import packed_sum

    g = _equation_value(NVector.level_one(2, (1, 0)), "G")
    assert g.ring == RING_W and g.packing[1]
    both = [(g, 0, 1, None), (g, 1, 2, None)]
    assert packed_sides(both, [(g, 1, 2, None), (g, 0, 1, None)]) is None
    assert len(packed_sum(both)) == 2
    for lhs, rhs in (
        ([(g, 0, 1, None)], [(g, 1, 1, None)]),
        ([(g, 0, 1, None), (g, 1, 1, None)], [(g, 0, 1, None), (g, 7, 1, None)]),
        ([(g, 0, 1, None)], [(g, 6, 1, None)]),
    ):
        sides = packed_sides(lhs, rhs)
        assert sides is not None
        for side, parts in zip(sides, (lhs, rhs)):
            assert side == sum((g.schur().times_unit(e) * c for _, e, c, _ in parts), SchurPoly.zero(RING_W, 3))
    assert packed_sides([(g, 6, 1, None)], [(g.times_unit(6), 0, 1, None)]) is None
    # parts of two rings or two sizes are refused
    chi = _equation_value(NVector.level_one(2, (1, 0)), "chi")
    other = _equation_value(NVector.level_one(1, (1,)), "G")
    for parts in ([(g, 0, 1, None), (chi, 0, 1, None)], [(g, 0, 1, None), (other, 0, 1, 1)], [(g.schur(), 0, 1, None)]):
        with pytest.raises(TypeError):
            packed_sum(parts)
