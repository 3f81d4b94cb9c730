"""Difference operator tests: boundary actions, the Schur-basis action
against the signed-orbit and literal subset-sum paths and an independent
symbolic oracle, and the operator algebra.  Monomial inputs enter the Schur
action through ``oracles.schur_form``."""

import itertools
from collections import Counter

import pytest
import sympy

from oracles import (
    orbit_apply_D,
    orbit_apply_M,
    poly_to_sympy,
    qt_to_ref,
    ref_apply_macdonald_qt,
    ref_branch,
    schur_form,
    subset_apply_D,
    subset_apply_M,
    subset_apply_macdonald_qt,
    subset_operator_bruteforce,
    sympy_equal,
)
from qchar import characters, qdiff, qtorus, symfun
from qchar.cartan import CartanData
from qchar.laurent import EXP_MAX, EXP_MIN, LaurentPoly, pack, unpack
from qchar.qdiff import apply_D, apply_M, apply_macdonald_qt
from qchar.macdonald import qt_t_infinity_limit
from qchar.rings import RING_Q, RING_QT, RING_W, ExponentOverflow, NotDivisible, NotSymmetric
from qchar.symfun import SchurPoly, elementary, monomial_sym, partitions_up_to, schur


def one(ring, nvars):
    return SchurPoly.one(ring, nvars)


def test_action_on_constant():
    for r in (1, 2, 3):
        n = r + 1
        for alpha in range(1, r + 1):
            assert apply_M(alpha, 0, one(RING_Q, n)) == one(RING_Q, n)
            for p in range(1, n - alpha + 1):
                assert apply_M(alpha, -p, one(RING_Q, n)).is_zero()
    assert apply_M(1, 1, one(RING_Q, 3)).monomials() == elementary(1, 3)
    assert apply_M(2, 1, one(RING_Q, 3)).monomials() == elementary(2, 3)


def test_twisted_action_on_constant():
    for r in (1, 2, 3):
        n = r + 1
        cart = CartanData(r)
        for alpha in range(1, r + 1):
            expected = SchurPoly.unit_power(RING_W, n, -2 * cart.lam_row_sum(alpha))
            assert apply_D(alpha, 0, one(RING_W, n)) == expected
            for p in range(1, n - alpha + 1):
                assert apply_D(alpha, -p, one(RING_W, n)).is_zero()


def test_boundary_indices():
    f = schur_form(elementary(2, 3))
    assert apply_M(0, 5, f) == f
    g = apply_M(3, 1, f)  # multiply by z1 z2 z3 and scale all variables by q
    assert g == f.times_z((1, 1, 1)).times_unit(2)
    assert g.monomials() == elementary(2, 3).times_z((1, 1, 1)).times_unit(2)


def test_asymmetric_input_rejected():
    # an asymmetric polynomial has no Schur form, and the operators take
    # nothing else
    z1 = LaurentPoly.variable(RING_Q, 2, 0)
    with pytest.raises(NotSymmetric):
        schur_form(z1)
    with pytest.raises(NotSymmetric):
        schur_form(LaurentPoly.variable(RING_W, 2, 0))
    with pytest.raises(TypeError):
        apply_M(1, 1, z1)
    with pytest.raises(TypeError):
        apply_D(1, 1, elementary(1, 2, RING_W))


def test_orbit_and_subset_paths_agree():
    for lam in partitions_up_to(3, 3):
        f = monomial_sym(lam, 3)
        fw = monomial_sym(lam, 3, RING_W)
        fqt = monomial_sym(lam, 3, RING_QT)
        for alpha in (1, 2, 3):
            for n in (-1, 0, 1, 2):
                expected = subset_apply_M(alpha, n, f)
                assert orbit_apply_M(alpha, n, f) == expected
                assert apply_M(alpha, n, schur_form(f)).monomials() == expected
                expected = subset_apply_D(alpha, n, fw)
                assert orbit_apply_D(alpha, n, fw) == expected
                assert apply_D(alpha, n, schur_form(fw)).monomials() == expected
            assert apply_macdonald_qt(alpha, fqt) == subset_apply_macdonald_qt(alpha, fqt)


def test_against_symbolic_oracle():
    # full rational-arithmetic recomputation in sympy, no shared code
    for (alpha, n, lam, nvars) in [
        (1, 1, (), 3),
        (1, 1, (1,), 2),
        (2, 1, (1,), 3),
        (1, 2, (2,), 2),
        (2, -1, (1, 1), 3),
    ]:
        f = monomial_sym(lam, nvars)
        ours = poly_to_sympy(apply_M(alpha, n, schur_form(f)).monomials())
        brute = subset_operator_bruteforce(alpha, n, f, kind="gamma")
        assert sympy_equal(ours, brute), (alpha, n, lam)


def test_twisted_against_symbolic_oracle():
    cart = CartanData(1)
    f = monomial_sym((1,), 2, RING_W)
    ours = poly_to_sympy(apply_D(1, 1, schur_form(f)).monomials())
    brute = subset_operator_bruteforce(1, 1, f, kind="twisted")
    w = sympy.Symbol("w")
    pref = w ** (-cart.lam(1, 1) * 1 - 2 * cart.lam_row_sum(1))
    assert sympy_equal(ours, pref * brute)


def test_twisted_vs_plain_dilation_identity():
    # the two operator families differ by a pre-dilation and a unit:
    # apply_D(a, n, f) = w**(-lam(a,a) n - 2 sum lam(a,b)) apply_M(a, n, dilation**a f),
    # the prefactor read off the Cartan pairing at every rank and label
    for r in (1, 2, 3, 4):
        nvars = r + 1
        cart = CartanData(r)

        def dilate(f, power):
            # z -> v z scales s_lam by v**|lam| = w**(2 |lam|)
            return SchurPoly.from_terms(
                RING_W,
                nvars,
                {(k[0] + 2 * power * sum(k[1:]),) + k[1:]: c for k, c in f.terms()},
            )

        for alpha in range(0, r + 2):
            for n in (-1, 0, 1, 2):
                for lam in [(), (1,), (2, 1)]:
                    fw = schur_form(monomial_sym(lam, nvars, RING_W))
                    lhs = apply_D(alpha, n, fw)
                    rhs = apply_M(alpha, n, dilate(fw, alpha)).times_unit(
                        -cart.lam(alpha, alpha) * n - 2 * cart.lam_row_sum(alpha)
                    )
                    assert lhs == rhs, (r, alpha, n, lam)


def test_macdonald_qt_values():
    f = LaurentPoly.one(RING_QT, 3)
    out = apply_macdonald_qt(1, f)
    assert out == LaurentPoly.from_terms(RING_QT, 3, {(0, j, 0, 0, 0): 1 for j in range(3)})


def test_macdonald_qt_read_off_is_exact(monkeypatch):
    # the orbit sum of an asymmetric input, let through unchecked, is not
    # divisible by alpha! (N - alpha)!: the read-off raises, never rounds
    f = LaurentPoly.monomial(RING_QT, 3, (2, 1, 0))
    with pytest.raises(NotSymmetric):
        apply_macdonald_qt(1, f)
    monkeypatch.setattr(qdiff, "require_symmetric", lambda f: None)
    with pytest.raises(NotDivisible):
        apply_macdonald_qt(1, f)


def test_macdonald_qt_divides_the_schur_coefficients(monkeypatch):
    # negative control: one orbit payload off by one at alpha = 1, N = 3,
    # where alpha! (N - alpha)! = 2, leaves a Schur coefficient that 2 does
    # not divide; the division on Schur coefficients raises
    f = monomial_sym((2, 1), 3, RING_QT)
    true_buckets = qdiff.signed_buckets

    def off_by_one(g):
        out = true_buckets(g)
        lam = max(out)
        u = max(out[lam])
        out[lam] = {**out[lam], u: out[lam][u] + 1}
        return out

    apply_macdonald_qt(1, f)
    monkeypatch.setattr(qdiff, "signed_buckets", off_by_one)
    with pytest.raises(NotDivisible):
        apply_macdonald_qt(1, f)


def test_macdonald_qt_against_the_field_oracle():
    # the division on Schur coefficients and the one expansion over QT
    # against the orbit read off in Q(q, t): inputs with negative parts,
    # q- and t-powers
    shift = LaurentPoly.from_terms(RING_QT, 3, {(1, 0, 0, 0, 0): 2, (0, -1, 0, 0, 0): -1})
    for lam in partitions_up_to(3, 3):
        base = monomial_sym(lam, 3, RING_QT)
        for f in (base, (base * shift).times_z((-1, -1, -1))):
            for alpha in (1, 2, 3):
                ours = qt_to_ref(apply_macdonald_qt(alpha, f))
                assert ours == ref_apply_macdonald_qt(alpha, qt_to_ref(f), 3), (lam, alpha)


def test_macdonald_qt_against_symbolic_oracle():
    # the integer operator against the subset sum in sympy's rational
    # functions of q, t and the z's, no shared code
    for lam in partitions_up_to(3, 3):
        f = monomial_sym(lam, 3, RING_QT)
        for alpha in (1, 2, 3):
            ours = poly_to_sympy(apply_macdonald_qt(alpha, f))
            assert sympy_equal(ours, subset_operator_bruteforce(alpha, 0, f, kind="qt")), (lam, alpha)


def test_macdonald_qt_commuting_family():
    for lam in partitions_up_to(3, 3):
        f = monomial_sym(lam, 3, RING_QT)
        ab = apply_macdonald_qt(1, apply_macdonald_qt(2, f))
        ba = apply_macdonald_qt(2, apply_macdonald_qt(1, f))
        assert ab == ba


def test_rescaled_t_limit_is_plain_operator():
    # lim_{t->oo} t**(-a(N-a)) M_a^{q,t} agrees with the zero-power subset
    # operator on test inputs
    for lam in [(), (1,), (2,), (1, 1)]:
        fqt = monomial_sym(lam, 3, RING_QT)
        fq = monomial_sym(lam, 3)
        for alpha in (1, 2):
            lim = qt_t_infinity_limit(apply_macdonald_qt(alpha, fqt), alpha * (3 - alpha))
            assert lim == apply_M(alpha, 0, schur_form(fq)).monomials(), (lam, alpha)


def test_symmetry_preserved():
    f = schur_form(schur((2, 1), 3))
    for alpha in (1, 2):
        assert apply_M(alpha, 1, f).monomials().is_symmetric()


def test_dual_qsystem_relations_small():
    r = 2
    cart = CartanData(r)
    fs = [schur_form(monomial_sym(lam, r + 1)) for lam in partitions_up_to(3, r + 1)]
    for (a, b) in itertools.product(range(1, r + 1), repeat=2):
        for n, p in itertools.product(range(-1, 3), repeat=2):
            if abs(p - n) > abs(b - a) + 1:
                continue
            for f in fs:
                lhs = apply_M(a, n, apply_M(b, p, f))
                rhs = apply_M(b, p, apply_M(a, n, f))
                assert lhs == rhs.times_unit(min(a, b) * (p - n))
    for a in (1, 2):
        for n in (0, 1):
            for f in fs:
                lhs = apply_M(a, n + 1, apply_M(a, n - 1, f))
                rhs = apply_M(a, n, apply_M(a, n, f)) - apply_M(a + 1, n, apply_M(a - 1, n, f))
                assert lhs.times_unit(a) == rhs


def _with_column(lam, nvars, column):
    """s_lam times (z_1...z_N)**column, in both bases."""
    full = tuple(lam) + (0,) * (nvars - len(lam))
    mono = schur(lam, nvars).times_z((column,) * nvars)
    return SchurPoly.basis(tuple(x + column for x in full), nvars), mono


def _gate_inputs(r):
    nvars = r + 1
    inputs = [_with_column(lam, nvars, 0) for lam in partitions_up_to(6, nvars)]
    inputs += [_with_column(lam, nvars, -c) for lam in partitions_up_to(3, nvars) for c in (1, 2)]
    return inputs


# (Schur action, orbit oracle, ring) for both operator families
OPERATORS = [(apply_M, orbit_apply_M, RING_Q), (apply_D, orbit_apply_D, RING_W)]


def _in_ring(f, ring):
    return f.with_ring(ring)


def test_schur_action_matches_orbit_oracle():
    # s_lam with |lam| <= 6, and s_lam (z_1...z_N)**-c with |lam| <= 3,
    # under M and D for every alpha in [1, r+1] and n in [-1, 2]
    for r in (2, 3):
        for fs, fm in _gate_inputs(r):
            for act, oracle, ring in OPERATORS:
                fs_r, fm_r = _in_ring(fs, ring), _in_ring(fm, ring)
                for alpha in range(1, r + 2):
                    for n in range(-1, 3):
                        got = act(alpha, n, fs_r)
                        assert got.monomials() == oracle(alpha, n, fm_r), (r, fs, alpha, n)


def test_chained_schur_action_matches_orbit_oracle():
    # pairs of applications, Laurent intermediates included (n = -1 on a
    # small input leaves negative parts)
    for r in (2, 3):
        nvars = r + 1
        inputs = [_with_column(lam, nvars, 0) for lam in partitions_up_to(2, nvars)]
        inputs.append(_with_column((1,), nvars, -1))
        for fs, fm in inputs:
            for act, oracle, ring in OPERATORS:
                fs_r, fm_r = _in_ring(fs, ring), _in_ring(fm, ring)
                for alpha, beta in itertools.product(range(1, r + 2), repeat=2):
                    for n, p in ((-1, 2), (2, -1), (0, 1)):
                        got = act(alpha, n, act(beta, p, fs_r))
                        want = oracle(alpha, n, oracle(beta, p, fm_r))
                        assert got.monomials() == want, (r, fs, alpha, n, beta, p)


def test_branch_and_image_caches_are_bounded():
    # both caches hold at least the working set of a long raising chain
    # (a few hundred branchings, about a thousand images) but not without end
    for cached in (symfun._branch_partition, qdiff._image):
        maxsize = cached.cache_parameters()["maxsize"]
        assert maxsize is not None and maxsize >= 4096


def _image_by_fillings(lam, alpha, n, fillings):
    """The terms of ``qdiff._image`` from the (mu, nu, c) of a two-block
    expansion, each s_{(mu + n, nu)} straightened."""
    out = Counter()
    for mu, nu, c in fillings(lam, alpha):
        sign, kappa = symfun.straighten(tuple(x + n for x in mu) + nu)
        if sign:
            out[sum(mu), pack((0,) + kappa)] += sign * c
    return {key: c for key, c in out.items() if c}


def test_one_variable_images_match_the_fillings_on_a_grid():
    # alpha = 1 and N - 1 take the interlacing path: the same terms as the
    # pruned and the unpruned fillings, for lam with zero and negative last
    # parts, and the same size and |mu| range
    cases = 0
    for nvars in range(2, 6):
        for part in partitions_up_to(4, nvars):
            full = part + (0,) * (nvars - len(part))
            for lam in (full, tuple(x - 2 for x in full)):
                for alpha in {1, nvars - 1}:
                    for n in range(4):
                        size, lo, hi, terms, least, most = qdiff._image(pack(lam), nvars, alpha, n)
                        got = {(dmu, key): c for dmu, key, c in terms}
                        kappas = [unpack(key, nvars + 1)[1:] for _, key in got] or [(0,)]
                        assert (least, most) == (min(k[-1] for k in kappas), max(k[0] for k in kappas))
                        assert len(got) == len(terms) and size == sum(lam), (lam, alpha, n)
                        assert got == _image_by_fillings(lam, alpha, n, symfun.branch), (lam, alpha, n)
                        assert got == _image_by_fillings(lam, alpha, n, ref_branch), (lam, alpha, n)
                        dmus = [dmu for dmu, _ in got] or [0]
                        assert (lo, hi) == (min(dmus), max(dmus)), (lam, alpha, n)
                        cases += 1
    # partitions of at most 4 in N = 2..5 parts: 9, 11, 12, 12
    assert cases == 4 * 2 * (9 + 2 * (11 + 12 + 12))


@pytest.mark.parametrize("alpha", [1, 2])
def test_one_variable_image_guards(alpha):
    # a key that is not weakly decreasing raises as branch() does, before
    # any rho is enumerated, never an empty image
    with pytest.raises(ValueError):
        qdiff._image(pack((0, 1, 0)), 3, alpha, 0)
    bad = SchurPoly(RING_Q, 3, {pack((0, 0, 1, 0)): 1})
    with pytest.raises(ValueError):
        apply_M(alpha, 1, bad)
    # a kappa part one past EXP_MAX raises, never wraps into another slot
    top = pack((EXP_MAX, EXP_MAX - 1, EXP_MAX - 2))
    assert qdiff._image(top, 3, alpha, 0)[3]
    with pytest.raises(ExponentOverflow):
        qdiff._image(top, 3, alpha, 1)


def test_character_and_torus_caches_are_bounded():
    # char-ladder, verify-operators and `verify --suite all` in one process
    # hold 532 chain prefixes and at most 440 entries in any other character
    # cache; the twist rows are per rank
    assert characters._CHARACTER_CACHE >= 1024
    for cached, least in (
        (characters.graded_character, 1024),
        (characters._equation_value, 1024),
        (qtorus._twist_rows, 16),
        (qtorus._twist_vector, 1 << 14),
    ):
        maxsize = cached.cache_parameters()["maxsize"]
        assert maxsize is not None and maxsize >= least


def test_chain_table_drops_its_oldest_entry(monkeypatch):
    # the prefix table holds at most _CHARACTER_CACHE chain values
    monkeypatch.setattr(characters, "_CHARACTER_CACHE", 3)
    characters._CHAINS.clear()
    n = characters.NVector.level_one(2, (2, 3))
    assert characters.raising_product(n) == characters.operator_product(n, apply_M, RING_Q)
    word = ((1, 1), (1, 1), (2, 1), (2, 1), (2, 1))
    assert list(characters._CHAINS) == [(RING_Q, 2, word[:t]) for t in (3, 4, 5)]
    characters._CHAINS.clear()


def _two_sided(terms, split=1):
    """lhs - rhs by the operators one at a time and SchurPoly arithmetic."""
    side = []
    for op, alpha, n, f, shift, coeff in terms:
        value = f if op is None else {"M": apply_M, "D": apply_D}[op](alpha, n, f)
        side.append(value.times_unit(shift) * coeff)
    lhs = sum(side[1:split], side[0])
    rhs = -sum(side[split + 1 :], side[split])
    return lhs - rhs


def test_residual_kernel_matches_two_sided_difference():
    # every qsystem point (rank 2 degree 3, rank 3 degree 2, both forms):
    # the one-dict residual is zero as recorded, and with the first term's
    # shift moved by +-1 it is nonzero exactly when that term is, and still
    # equals the two-sided difference
    from qchar import verify

    points = 0
    for rank, degree in ((2, 3), (3, 2)):
        for form, ring in (("M", RING_Q), ("D", RING_W)):
            basis = [SchurPoly.basis(lam, rank + 1, ring) for lam in partitions_up_to(degree, rank + 1)]
            for point, terms in verify._qsystem_residuals(rank, form, basis, -1, 2):
                points += 1
                assert not qdiff.operator_sum(terms) and not _two_sided(terms), point
                first = bool(qdiff.operator_sum(terms[:1]))
                for d in (-1, 1):
                    op, alpha, n, f, shift, coeff = terms[0]
                    moved = [(op, alpha, n, f, shift + d, coeff)] + terms[1:]
                    residual = qdiff.operator_sum(moved)
                    assert bool(residual) == first and residual == _two_sided(moved), (point, d)
    assert points == 420 + 544  # the totals of check_dual_qsystem(2, 3) and (3, 2)


def test_operator_sum_rejects_mixed_terms():
    f, g = one(RING_Q, 3), one(RING_W, 3)
    with pytest.raises(TypeError):
        qdiff.operator_sum([("M", 1, 1, f, 0, 1), ("M", 1, 1, g, 0, 1)])
    with pytest.raises(ValueError):
        qdiff.operator_sum([("D", 1, 1, f, 0, 1)])
    with pytest.raises(ValueError):
        qdiff.operator_sum([("X", 1, 1, f, 0, 1)])


# -- raising chains on packed Schur coefficients --------------------------------


def _pack(f):
    """The Schur form f as a ``qdiff.PackedSchur`` at the least width its
    coefficients allow: places d from the least exponent over Q, from the
    greatest over W; ValueError when f is no form a packed chain can hold."""
    from qchar.laurent import kron_width, split_unit

    step = 1 if f.ring == RING_Q else -2 * f.nvars
    exps = [split_unit(k)[0] for k in f.coeffs]
    off = min(exps) if step > 0 else max(exps)
    if any((j - off) % step for j in exps) or step < 0 and len({sum(unpack(k, f.nvars + 1)[1:]) for k in f.coeffs}) > 1:
        raise ValueError("a packed W form needs one |lam| and one class of exponents mod %d" % -step)
    rows = {}
    for key, c in f.coeffs.items():
        j = split_unit(key)[0]
        rows.setdefault(key - j, {})[(j - off) // step] = c
    s = kron_width(max(map(abs, f.coeffs.values())))
    terms = {}
    for key, row in rows.items():
        lo = min(row)
        terms[key] = max(map(abs, row.values())), lo, sum(c << s * (d - lo) for d, c in row.items())
    return qdiff.PackedSchur(f.ring, f.nvars, off, s, terms)


def _random_chain_form(rng, ring, nvars):
    """A random signed Schur form a packed chain can hold: over W one |lam|
    and one class of w-exponents mod 2N (as D-chain values have), over Q
    any sizes; a last part of -1 on some terms."""
    step = 1 if ring == RING_Q else -2 * nvars
    size, off = rng.randrange(5), rng.randrange(-6, 7)
    out = {}
    for _ in range(rng.randrange(1, 6)):
        if ring == RING_Q:
            size = rng.randrange(5)
        lam = rng.choice([p for p in partitions_up_to(size, nvars) if sum(p) == size])
        cols = 0 if ring == RING_W else rng.choice((0, 0, 1, -1))
        full = tuple(x + cols for x in lam + (0,) * (nvars - len(lam)))
        for d in rng.sample(range(6), rng.randrange(1, 4)):
            c = rng.choice((-1, 1)) * rng.randrange(1, 60)
            key = pack((off + step * d,) + full)
            out[key] = out.get(key, 0) + c
    return SchurPoly(ring, nvars, {k: c for k, c in out.items() if c})


def test_packed_step_matches_the_operators_term_for_term():
    # random signed forms on ranks 1-4, M over Q and D over W, every alpha
    # and n in [-1, 3]: the packed step, unpacked, is apply_M / apply_D
    import random

    rng = random.Random(7)
    cases = 0
    for nvars in range(2, 6):
        for ring, op, apply in ((RING_Q, "M", apply_M), (RING_W, "D", apply_D)):
            for _ in range(4):
                f = _random_chain_form(rng, ring, nvars)
                packed = _pack(f)
                assert packed.schur() == f
                for alpha in range(nvars + 1):
                    for n in range(-1, 4):
                        got = qdiff.packed_step(op, alpha, n, packed).schur()
                        assert got.coeffs == apply(alpha, n, f).coeffs, (ring, nvars, alpha, n)
                        cases += 1
    assert cases == 2 * 4 * 5 * (3 + 4 + 5 + 6)


def test_packed_width_at_the_coefficient_bound():
    # coefficients +-(2**(s-1) - 1) round-trip at the derived width s; a
    # bound of exactly 2**(s-1) takes one bit more
    from qchar.laurent import kron_digits, kron_width

    for s in (2, 3, 8, 31, 32, 33, 64, 65):
        edge = 2 ** (s - 1) - 1
        assert kron_width(edge) == s and kron_width(edge + 1) == s + 1
        f = SchurPoly(RING_Q, 2, {pack((d, 1, 0)): (-1) ** d * edge for d in range(5)})
        packed = _pack(f)
        assert packed.packing[0] == s and packed.schur() == f
        ((_, (_, _, n)),) = packed.packing[1].items()
        assert kron_digits(n, s) == [(d, (-1) ** d * edge) for d in range(5)]
        assert _pack(f + SchurPoly.basis((1, 0), 2)).packing[0] == s + 1


def test_packed_form_unpacks_only_inside_the_unit_slot():
    # each exponent a packed form unpacks to is range-checked, the least and
    # the greatest of a two-term coefficient alike: at EXP_MAX and EXP_MIN
    # it unpacks, one past raises
    for ring, nvars in ((RING_Q, 2), (RING_W, 3)):
        f = SchurPoly.basis((1,), nvars, ring)
        step = 1 if ring == RING_Q else -2 * nvars
        for edge, past in ((EXP_MAX, 1), (EXP_MIN, -1)):
            g = f.times_unit(edge) + f.times_unit(edge - past * 3 * abs(step))
            packed = _pack(g)
            assert packed.schur() == g
            for view in ("schur", "coefficients"):
                with pytest.raises(ExponentOverflow):
                    getattr(packed.times_unit(past), view)()


def test_packed_constrained_is_the_schur_view_constrained():
    # on chain values (one |lam| each) the packed value modulo
    # z_1...z_N = 1 unpacks to the unpacked value's constrained view; two
    # s_lam that would meet there are refused
    characters._CHAINS.clear()
    for rank, rows in ((1, (3,)), (2, (1, 2)), (3, (1, 0, 1))):
        n = characters.NVector.level_one(rank, rows)
        for op, ring in (("M", RING_Q), ("D", RING_W)):
            value = characters._chain(n, op, ring)
            assert value.constrained().schur() == value.schur().constrained(), (n, op)
    meet = SchurPoly.basis((1, 0), 2) + SchurPoly.basis((2, 1), 2)
    with pytest.raises(ValueError):
        _pack(meet).constrained()


def test_packed_step_one_bit_under_the_derived_width_misreads(monkeypatch):
    # M_{1,1} sends c q s_(2,0) and c q s_(1,1) both to 2c q**2 s_(2,1); with
    # c = 2**m - 1 the sources pack at m + 1 bits and the step derives m + 2.
    # Stepping at one bit under (the width rule of ``Packed.hold`` one bit
    # narrower than derived) reads a wrong character; at the derived width
    # it is exact.  The step holds its source at the wider width in place,
    # so the control steps a second copy, packed before the patch
    from qchar import laurent

    for m in (1, 5, 40):
        c = 2**m - 1
        f = SchurPoly(RING_Q, 3, {pack((1, 2, 0, 0)): c, pack((1, 1, 1, 0)): c})
        packed, narrow = _pack(f), _pack(f)
        assert packed.packing[0] == m + 1
        step = qdiff.packed_step("M", 1, 1, packed)
        assert step.packing[0] == packed.packing[0] == max(m + 2, 2 * m + 2)
        assert step.schur() == apply_M(1, 1, f)
        with monkeypatch.context() as patch:
            patch.setattr(laurent, "kron_width", lambda bound: bound.bit_length())
            assert qdiff.packed_step("M", 1, 1, narrow).schur() != apply_M(1, 1, f)


def test_images_are_cached_modulo_full_columns():
    # s_{lam + c} for full columns c reads the image of lam: one cached
    # image, each kappa moved by c and |mu| by alpha c
    qdiff._image.cache_clear()
    qdiff._column_image.cache_clear()
    for c in (-2, 0, 3):
        lam = SchurPoly.basis((3 + c, 1 + c, c), 3)
        for alpha in (1, 2):
            assert apply_M(alpha, 2, lam) == apply_M(alpha, 2, SchurPoly.basis((3, 1, 0), 3)).times_z((c,) * 3).times_unit(alpha * c)
    assert qdiff._image.cache_info().currsize == 2
    # a kappa part moved past the slot raises; at the edge it does not
    edge = SchurPoly.basis((EXP_MAX,) * 3, 3)
    assert apply_M(1, 0, edge) == edge.times_unit(EXP_MAX)
    with pytest.raises(ExponentOverflow):
        apply_M(1, 1, edge)
    with pytest.raises(ExponentOverflow):
        qdiff.packed_step("M", 1, 1, _pack(edge))


def test_image_enumeration_is_bounded_before_it_starts():
    # s_(2**25 - 1, 0, 0) under M_1 would enumerate 2**25 interlacing
    # vectors: it raises at once, as does its monomial view
    wide = pack((2**25 - 1, 0, 0))
    with pytest.raises(ValueError, match="above the cap"):
        qdiff._image(wide, 3, 1, 1)
    with pytest.raises(ValueError, match="above the cap"):
        apply_M(1, 1, SchurPoly(RING_Q, 3, {pack((0, 2**25 - 1, 0, 0)): 1}))
    with pytest.raises(ValueError, match="above the cap"):
        symfun._schur_zcoeffs((2**25 - 1,), 3)
    cap = symfun.INTERLACING_CAP
    assert sum(1 for _ in itertools.islice(symfun.interlacing((cap - 1, 0)), 3)) == 3
    with pytest.raises(ValueError):
        symfun.interlacing((cap, 0))
