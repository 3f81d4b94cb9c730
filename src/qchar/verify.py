"""Executable certification of the operator and character identities.

Every check is a decidable exact-arithmetic assertion over a finite
parameter grid, reported as a ``CheckReport`` (pass/fail per point plus the
first counterexample).  The subset-fraction identities behind the operator
algebra are verified in N!-cleared form: both sides are multiplied by the
Vandermonde determinant and by the symmetric product of all (z_x - q z_y),
which turns them into polynomial statements, and the signed permutation
orbits, each over a_delta, are compared as Schur forms.  Each side is read
off the two-block Schur form of the cleared factor (the cross product by
the dual Cauchy identity, the within-block products by the one product
rule ``SchurPoly.times``, as are the Pieri sides and the classical limit),
each two-block term straightened once, so no cleared product is ever
expanded into monomials; the full expansion is the reference in the
tests.  A qsystem or eigen point is one ``qdiff.operator_sum`` residual
tested for zero, a difference-equation or compatibility point one packed
residual (``characters.packed_sides``), and only a failure forms its two
sides.  Every difference-equation report is built by
``_equation_report`` from its grid and relation rows; the level-1 report
is that report collapsed to one point per grid.  A failing point of those,
of the lemmas, of the limits (the classical limit included) or a moment,
boundary or compatibility point names the first differing Schur
coefficient with both payloads, a failing level-1 point its first failing
n and that coefficient, a failing Macdonald point the first differing
monomial (m_mu coefficient), and a failing class-one point the first n and
u-order where the two series differ.  The lemma, operator, character,
equation and limit checks compare Schur forms; the Macdonald oracle
compares m-forms, its q-Whittaker points included, and the Whittaker oracle
monomial expansions.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache
from math import factorial, prod

from .cartan import CartanData
from .characters import (
    NVector,
    char_from_g,
    _equation_value,
    equation_sides,
    graded_character,
    operator_product,
    packed_sides,
    raising_product,
    top_component,
)
from .laurent import UNIT, LaurentPoly, pack, require_symmetric, straighten, unpack, zero_key
from .macdonald import (
    apply_macdonald_m,
    macdonald_poly,
    qt_t_infinity_limit,
    qwhittaker_specialize,
    to_m_basis,
)
from .qdiff import apply_D, apply_M, operator_sum
from .qtorus import NcLaurent, ev0_image, ev0_negative_term, evaluate, q_commutator, q_recursion, relation_rhs
from .records import Record
from .rings import RING_Q, RING_W
from .symfun import SchurPoly, dual_cauchy, partitions, partitions_up_to, schur
from .whittaker import _require_int, class_one_combination, class_one_difference, toda_residual


class CheckReport(Record):
    """Outcome of one named check over a parameter grid."""

    __slots__ = ("name", "total", "failures", "notes")

    def __init__(self, name: str, total: int = 0, failures=None, notes=None):
        self.name, self.total = name, total
        self.failures = [] if failures is None else failures
        self.notes = {} if notes is None else notes

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, point, ok, detail=None):
        self.total += 1
        if not ok:
            entry = {"point": str(point)}
            if detail is not None:
                entry["detail"] = str(detail)
            self.failures.append(entry)

    def to_json(self):
        """The report as a JSON object; one that checked no point is marked
        ``"vacuous": true``, so it never reads as a plain pass."""
        out = {"name": self.name, "points": self.total, "passed": self.passed}
        if not self.total:
            out["vacuous"] = True
        out["failures"] = self.failures
        if self.notes:
            out["notes"] = {k: self.notes[k] for k in sorted(self.notes)}
        return out


# -- subset-fraction identities ----------------------------------------------
#
# Both identities are stated on two blocks of variables, I (the first a) and
# J (the last b), and cleared by the block Vandermonde Delta_I Delta_J and by
# P = W_I W_J X, where W_m is the product of (z_x - q z_y) over the ordered
# pairs x != y of one block and X the product over x in I, y in J (or over
# x in J, y in I).  P is symmetric in each block, so Delta_I Delta_J P is a
# sum of products a_{kappa+delta}(z_I) a_{nu+delta}(z_J) of block
# alternants, and the signed permutation orbit of such a product times
# z_I**s z_J**t is a!b! a_delta s_{(kappa + s - b, nu + t)}, straightened.
# Each side is that sum of Schur functions, a ``SchurPoly`` in a + b
# variables read off the two-block form, which never depends on the power
# of z.


@lru_cache(maxsize=8)
def _pair_parts(m: int):
    """W_m on m variables, in the monomial basis, as ``require_symmetric``
    groups it, checked once per m, and its exponent bounds."""
    z = [LaurentPoly.variable(RING_Q, m, i) for i in range(m)]
    w = prod((z[x] - z[y].times_unit(1) for x, y in itertools.permutations(range(m), 2)), start=LaurentPoly.one(RING_Q, m))
    return require_symmetric(w), w.bounds()


@lru_cache(maxsize=256)
def _times_pairs(mu):
    """s_mu W_m on m = len(mu) variables as {kappa: {q-exponent: c}}, the
    Schur coefficients of ``SchurPoly.times``."""
    m = len(mu)
    return SchurPoly.basis(mu, m)._times_parts(*_pair_parts(m)).z_terms()


@lru_cache(maxsize=32)
def _two_block_form(a: int, b: int, forward: bool):
    """Delta_I Delta_J W_I W_J X as ((kappa, nu, {q-exponent: c}), ...), the
    sum of c q**j a_{kappa+delta}(z_I) a_{nu+delta}(z_J); X is the cross
    product over x in I, y in J when ``forward``, else over x in J, y in I,
    both by the dual Cauchy identity."""
    if forward:
        cross = dual_cauchy(a, b)
    else:
        cross = ((size, left, right) for size, right, left in dual_cauchy(b, a))
    acc = {}
    for size, left, right in cross:
        sign = -1 if size % 2 else 1
        lows = _times_pairs(left).items()
        for nu, d2 in _times_pairs(right).items():
            for kappa, d1 in lows:
                d = acc.setdefault((kappa, nu), {})
                for j2, c2 in d2.items():
                    for j1, c1 in d1.items():
                        j = size + j1 + j2
                        d[j] = d.get(j, 0) + sign * c1 * c2
    acc = {pair: {j: c for j, c in d.items() if c} for pair, d in acc.items()}
    return tuple((kappa, nu, d) for (kappa, nu), d in acc.items() if d)


def _lemma_side(a: int, b: int, forward: bool, parts) -> SchurPoly:
    """The signed orbit sum of Delta_I Delta_J W_I W_J X times the sum of
    scale * q**k z_I**s z_J**t over ``parts`` (s, t, k, scale), divided by
    a_delta: each two-block term lands on a!b! s_{(kappa + s - b, nu + t)},
    straightened."""
    fact = factorial(a) * factorial(b)
    out = {}
    for kappa, nu, payload in _two_block_form(a, b, forward):
        for s, t, k, scale in parts:
            sign, lam = straighten([e + s - b for e in kappa] + [e + t for e in nu])
            if sign:
                base, unit = pack((k,) + lam), sign * scale * fact
                for j, c in payload.items():
                    key = base + j * UNIT
                    out[key] = out.get(key, 0) + unit * c
    return SchurPoly(RING_Q, a + b, {key: c for key, c in out.items() if c})


def _swap_sides(a: int, b: int, p: int):
    """The two cleared orbit sums of the swap identity, the second with its
    factor (-1)**(ab) q**(pa)."""
    sign = -1 if (a * b) % 2 else 1
    return (
        _lemma_side(a, b, True, ((b, p + a, 0, 1),)),
        _lemma_side(a, b, False, ((b, p + a, p * a, sign),)),
    )


def _square_sides(a: int):
    """(a+1) x left and a x right of the square identity, each cleared on its
    own blocks."""
    left = ((a, a, 0, a + 1), (a + 1, a - 1, a, -(a + 1)))
    return (
        _lemma_side(a, a, True, left),
        _lemma_side(a + 1, a - 1, True, ((a - 1, a + 1, 0, a),)),
    )


def subset_swap_identity_holds(a: int, b: int, p: int) -> bool:
    """The two-block subset sum

        sum_{I | J = [1, a+b], |I| = a}  z_J**p (a_{I,J} b_{J,I} - q**(pa) a_{J,I} b_{I,J})

    vanishes (claimed for |p| <= b - a + 1).  Checked in cleared form: both
    orbit sums are compared in the Schur basis after multiplying by the
    Vandermonde and by the symmetric product of all (z_x - q z_y)."""
    if a < 0 or b < 0:
        raise ValueError("block sizes must be >= 0")
    lhs, rhs = _swap_sides(a, b, p)
    return lhs == rhs


def subset_square_identity_holds(a: int) -> bool:
    """The equal-block identity

        sum_{|I|=|J|=a} a_{I,J} b_{J,I} (1 - q**a z_I/z_J)
          = sum_{|I|=a+1, |J|=a-1} a_{I,J} b_{J,I}

    on 2a variables, in the same cleared Schur form (combinatorial
    normalizations reduce to comparing (a+1) x left against a x right)."""
    if a < 1:
        raise ValueError("a must be >= 1")
    lhs, rhs = _square_sides(a)
    return lhs == rhs


def _cap(text: str) -> str:
    return text if len(text) <= 200 else text[:197] + "..."


def _first_difference(lhs, rhs, label: str) -> str:
    """The first key, in decreasing order, whose payloads differ between two
    dicts of {exponent: int} payloads (Schur or monomial coefficients, or
    the ``terms()`` of torus elements), named by ``label``, with both
    payloads, cut to 200 characters."""
    for key in sorted(lhs.keys() | rhs.keys(), reverse=True):
        if lhs.get(key) != rhs.get(key):
            return _cap("%s %s: lhs %s, rhs %s" % (
                label, key, dict(sorted(lhs.get(key, {}).items())), dict(sorted(rhs.get(key, {}).items()))
            ))


def _record_equal(rep, point, lhs: LaurentPoly, rhs: LaurentPoly):
    """Record whether two values agree; a failure names the first differing
    Schur coefficient (Schur forms) or monomial with both sides, keyed by
    the unit exponent."""
    if lhs == rhs:
        rep.record(point, True)
        return
    sides = []
    for f in (lhs, rhs):
        payloads = {}
        for vec, c in f.terms():
            payloads.setdefault(vec[1:], {})[vec[0]] = c
        sides.append(payloads)
    rep.record(point, False, _first_difference(*sides, "schur" if isinstance(lhs, SchurPoly) else "monomial"))


def _record_residual(rep, point, terms):
    """Record whether the ``operator_sum`` of ``terms`` vanishes, forming no
    side; a failure compares lhs = the first term with rhs = minus the rest."""
    if operator_sum(terms):
        _record_equal(rep, point, operator_sum(terms[:1]), -operator_sum(terms[1:]))
    else:
        rep.record(point, True)


def _swap_window(a: int, b: int):
    return range(-(b - a + 1), b - a + 2)


def subset_moment_value(alpha: int, p: int, nvars: int) -> SchurPoly:
    """sum_{|I| = alpha} z_I**p a_I(z), evaluated exactly as a Schur form (the
    action of the raising operator on the constant)."""
    return apply_M(alpha, p, SchurPoly.one(RING_Q, nvars))


def check_subset_identities(bound: int = 3, rank_max: int = 4) -> CheckReport:
    """The two subset-fraction kernel identities (within their validity
    windows), the moment identity, and the boundary action of the twisted
    operators on the constant function."""
    rep = CheckReport("lemmas")
    for a in range(0, bound + 1):
        for b in range(max(a, 1), bound + 1):
            for p in _swap_window(a, b):
                _record_equal(rep, ("swap", a, b, p), *_swap_sides(a, b, p))
    for a in range(1, bound + 1):
        _record_equal(rep, ("square", a), *_square_sides(a))
    for r in range(1, rank_max + 1):
        n = r + 1
        one_q, zero_q = SchurPoly.one(RING_Q, n), SchurPoly.zero(RING_Q, n)
        one_w, zero_w = SchurPoly.one(RING_W, n), SchurPoly.zero(RING_W, n)
        cart = CartanData(r)
        for alpha in range(1, r + 1):
            _record_equal(rep, ("moment", r, alpha, 0), subset_moment_value(alpha, 0, n), one_q)
            for p in range(-(n - alpha), 0):
                _record_equal(rep, ("moment", r, alpha, p), subset_moment_value(alpha, p, n), zero_q)
            power = SchurPoly.unit_power(RING_W, n, -2 * cart.lam_row_sum(alpha))
            _record_equal(rep, ("boundary-zero-power", r, alpha), apply_D(alpha, 0, one_w), power)
            for p in range(1, n - alpha + 1):
                _record_equal(rep, ("boundary-vanishing", r, alpha, p), apply_D(alpha, -p, one_w), zero_w)
    return rep


# -- operator algebra ---------------------------------------------------------


def _qsystem_residuals(rank: int, form: str, basis, n_lo: int, n_hi: int):
    """(point, terms) for every commutation and recursion point: the
    ``operator_sum`` of ``terms`` is lhs - rhs, the first term the lhs."""
    cart = CartanData(rank)
    op = apply_M if form == "M" else apply_D
    cache = {}

    def level1(alpha, n, idx, f):
        key = (alpha, n, idx)
        if key not in cache:
            cache[key] = op(alpha, n, f)
        return cache[key]

    for alpha in range(1, rank + 1):
        for beta in range(alpha, rank + 1):
            pair = min(alpha, beta) if form == "M" else -2 * cart.lam(alpha, beta)
            for n, p in itertools.product(range(n_lo, n_hi + 1), repeat=2):
                if abs(p - n) > abs(beta - alpha) + 1 or (alpha == beta and n == p):
                    continue
                for idx, f in enumerate(basis):
                    yield (form, "commute", alpha, beta, n, p, idx), [
                        (form, alpha, n, level1(beta, p, idx, f), 0, 1),
                        (form, beta, p, level1(alpha, n, idx, f), pair * (p - n), -1),
                    ]
    for alpha in range(1, rank + 1):
        top, low = (alpha, 0) if form == "M" else (-2 * cart.lam(alpha, alpha), -2 * (rank + 1))
        for n in range(n_lo + 1, n_hi):
            for idx, f in enumerate(basis):
                yield (form, "recursion", alpha, n, idx), [
                    (form, alpha, n + 1, level1(alpha, n - 1, idx, f), top, 1),
                    (form, alpha, n, level1(alpha, n, idx, f), 0, -1),
                    (form, alpha + 1, n, level1(alpha - 1, n, idx, f), low, 1),
                ]


def check_dual_qsystem(
    rank: int,
    degree_bound: int = 6,
    n_lo: int = -1,
    n_hi: int = 2,
) -> CheckReport:
    """Commutation and recursion relations of the operator family, verified
    on the Schur basis s_lam, |lam| <= the degree bound.  The relations are
    linear in the test polynomial, so spanning the basis verifies them on the
    whole space up to that degree.  Each point is one residual tested for
    zero; a failing point names the first differing Schur coefficient."""
    rep = CheckReport("qsystem")
    for form in ("M", "D"):
        ring = RING_Q if form == "M" else RING_W
        basis = [SchurPoly.basis(lam, rank + 1, ring) for lam in partitions_up_to(degree_bound, rank + 1)]
        rep.notes["basis-%s" % form] = len(basis)
        for point, terms in _qsystem_residuals(rank, form, basis, n_lo, n_hi):
            _record_residual(rep, point, terms)
    return rep


def _m_terms(m, nvars) -> LaurentPoly:
    """The terms z**mu of a Q m-form, one per m_mu: they agree iff the
    m-forms do, and a unit shift or a full column (z_1...z_N)**c acts on
    them term by term."""
    return LaurentPoly(RING_Q, nvars, {pack((0,) + mu) + u: c for mu, d in m.items() for u, c in d.items()})


def check_macdonald_commuting(nvars: int = 3, degree_bound: int = 4) -> CheckReport:
    """[M_a^{q,t}, M_b^{q,t}] = 0 on the m-basis up to the bound, on m-forms;
    a failure names the first differing m_mu coefficient, keyed by (q, t)
    exponent pairs."""
    rep = CheckReport("macdonald-commuting")
    basis = [{lam + (0,) * (nvars - len(lam)): {0: 1}} for lam in partitions_up_to(degree_bound, nvars)]
    for a in range(1, nvars):
        for b in range(a + 1, nvars):
            for idx, f in enumerate(basis):
                lhs = apply_macdonald_m(a, apply_macdonald_m(b, f, nvars), nvars)
                rhs = apply_macdonald_m(b, apply_macdonald_m(a, f, nvars), nvars)
                if lhs == rhs:
                    rep.record(("commute", a, b, idx), True)
                    continue
                sides = [{mu: {unpack(u + zero_key(2), 2): c for u, c in d.items()} for mu, d in side.items()} for side in (lhs, rhs)]
                rep.record(("commute", a, b, idx), False, _first_difference(*sides, "monomial"))
    return rep


# -- character difference equations ------------------------------------------


def _compositions(total, slots):
    if slots == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, slots - 1):
            yield (first,) + rest


def _admissible_grids(rank, level, sigma_max):
    """Occupation matrices with the two highest levels strictly positive and
    total size bounded."""
    slots = rank * level
    out = []
    for total in range(2 * rank, sigma_max + 1):
        for comp in _compositions(total, slots):
            rows = tuple(
                tuple(comp[a * level + i] for i in range(level)) for a in range(rank)
            )
            n = NVector(rank, level, rows)
            if all(
                n.entry(a, level) >= 1 and n.entry(a, level - 1) >= 1
                for a in range(1, rank + 1)
            ):
                out.append(n)
    return out


# relation rows (label, form, dual) of ``_equation_report``
_CHI = ((None, "chi", False),)
_G_PAIR = (("first", "G", False), ("second", "G", True))


def _equation_report(name, grid, relations) -> CheckReport:
    """The difference equation (``characters.equation_sides``) at every n of
    the grid, once per relation row (label, form, dual): label None names the
    point n, any other label the point (label, entries of n level by level).
    A failing point names the first differing Schur coefficient of its two
    sides.  The report of the two G-form relations ends with their
    compatibility e_2 G_{1,0} = e_1 G_{0,1}; any other notes its grid size."""
    rep, checked = CheckReport(name), []
    for n in grid:
        entries = tuple(x for level in zip(*n.rows) for x in level)
        for label, form, dual in relations:
            checked.append((n if label is None else (label,) + entries, equation_sides(n, form, dual)))
    if relations == _G_PAIR:
        g10, g01 = (_equation_value(NVector.level_one(2, x), "G") for x in ((1, 0), (0, 1)))
        checked.append((("compatibility",), packed_sides([(g10, 0, 1, 2)], [(g01, 0, 1, 1)])))
    else:
        rep.notes["points"] = len(grid)
    for point, sides in checked:
        if not sides:
            rep.record(point, True)
        elif sides[0] is None:
            rep.record(point, False, "a term off the grid has a nonzero coefficient")
        else:
            _record_equal(rep, point, *sides)
    return rep


def check_difference_equation(rank: int, level: int, sigma_max: int = 5) -> CheckReport:
    """The level-k (k >= 2) difference equation on exact constrained
    characters, over every admissible grid point with sigma(n) <= bound."""
    if level < 2:
        raise ValueError("the level-1 equation is covered by check_level1_report")
    return _equation_report("diffeq-r%d-k%d" % (rank, level), _admissible_grids(rank, level, sigma_max), _CHI)


def check_level1_report(rank: int, sigma_max: int) -> CheckReport:
    """The level-1 equation over ``_level1_grid`` as one point (level1, rank,
    bound); a failure names the first failing n and its Schur difference."""
    full = _equation_report("diffeq-level1-r%d" % rank, _level1_grid(rank, sigma_max), _CHI)
    rep = CheckReport(full.name, notes=full.notes)
    detail = None if full.passed else _cap("n %(point)s: %(detail)s" % full.failures[0])
    rep.record(("level1", rank, sigma_max), full.passed, detail)
    return rep


def check_sl3_level1_G(sigma_max: int = 5) -> CheckReport:
    """The two rank-2 level-1 three-term recursions on the renormalized
    coefficients G_{n,p} (both conserved-quantity insertions), in v-form."""
    return _equation_report("sl3-level1-G", _level1_grid(2, sigma_max), _G_PAIR)


def check_sl3_level2_G(entry_max: int = 2) -> CheckReport:
    """Both rank-2 level-2 recursions on G (the two conserved-quantity
    insertions), for all admissible occupation entries in [1, entry_max]."""
    quads = itertools.product(range(1, entry_max + 1), repeat=4)
    grid = [NVector.from_rows(2, 2, ((n1, n2), (p1, p2))) for n1, p1, n2, p2 in quads]
    return _equation_report("sl3-level2-G", grid, _G_PAIR)


def check_sl2_levelk_G(level: int = 2, sigma_max: int = 5) -> CheckReport:
    """The rank-1 level-k recursion on G in v-form, over the admissible grid."""
    return _equation_report("sl2-levelk-G", _admissible_grids(1, level, sigma_max), ((None, "G", False),))


# -- eigenfunctions and limits ------------------------------------------------


def _level1_grid(rank, sigma_max):
    """Level-1 occupation vectors (n^(1), ..., n^(r)) with sigma(n) <= bound."""
    comps = [()]
    for _ in range(rank):
        comps = [c + (x,) for c in comps for x in range(sigma_max + 1 - sum(c))]
    return [NVector.level_one(rank, comp) for comp in comps]


def check_eigen(rank: int, sigma_max: int = 4) -> CheckReport:
    """Level-1 characters are eigenfunctions of the zero-power operators with
    eigenvalue q**(sum_b min(a,b) n^(b))."""
    rep = CheckReport("eigen-r%d" % rank)
    for n in _level1_grid(rank, sigma_max):
        chi = graded_character(n)
        for alpha in range(1, rank + 1):
            ev = sum(min(alpha, b) * n.entry(b, 1) for b in range(1, rank + 1))
            _record_residual(rep, (n, alpha), [("M", alpha, 0, chi, 0, 1), (None, 0, 0, chi, ev, -1)])
    return rep


def _rectangle_product(n: NVector) -> SchurPoly:
    """The product of the rectangles' Schur functions, the character at q = 1."""
    out = SchurPoly.one(RING_Q, n.rank + 1)
    for a, i, count in n.cells():
        for _ in range(count):
            out = out.times(schur((i,) * a, n.rank + 1))
    return out


def check_limits(rank_max: int = 3, sigma_max: int = 3) -> CheckReport:
    """Structural limits of the characters: polynomiality in q**-1, the top
    component, the classical (q = 1) tensor factorization, within-level
    order independence, and agreement of the two operator paths."""
    rep = CheckReport("limits")
    grids = []
    for r in range(1, rank_max + 1):
        grids += _level1_grid(r, sigma_max)
    for r in range(1, min(rank_max, 2) + 1):
        grids += _admissible_grids(r, 2, min(sigma_max + 1, 4))
    rep.notes["points"] = len(grids)
    for n in grids:
        chi = graded_character(n)
        top_q = max(chi.unit_exponents(), default=0)
        rep.record((n, "poly-in-q-inverse"), top_q <= 0, "largest q-exponent %d" % top_q)
        top = SchurPoly.basis(top_component(n), n.rank + 1)
        _record_equal(rep, (n, "top-component"), chi.unit_slice(0), top)
        _record_equal(rep, (n, "classical-limit"), chi.at_unit_one(), _rectangle_product(n))
        reordered = operator_product(n, apply_M, RING_Q, reverse=True)
        _record_equal(rep, (n, "within-level-order"), reordered, raising_product(n))
        _record_equal(rep, (n, "two-paths"), char_from_g(n), chi)
    return rep


# -- torus --------------------------------------------------------------------


def _random_torus_element(rank, rng, terms=4):
    def vec():
        return tuple(rng.randint(-2, 2) for _ in range(rank))

    return NcLaurent.from_terms(rank, [((vec(), vec()), {rng.randint(-3, 3): rng.randint(-5, 5)}) for _ in range(terms)])


def check_torus(
    rank_max: int = 3,
    k_min: int = -2,
    k_max: int = 6,
    word_k_max: int = 3,
    word_len: int = 4,
    samples: int = 20,
    seed: int = 0,
) -> CheckReport:
    """Laurent property of the Q-system solution (exact division never
    fails), the defining relation across the computed table, in-window
    commutations, polynomiality of evaluated words, and the evaluation-map
    intertwining on random elements.  A failing relation, window or
    intertwining point names the first differing (a, b) monomial with both
    w-coefficients, a failing word the first monomial of its ev0 with a
    negative Q_{b,1}-exponent, and its w-coefficient."""
    if not k_min <= 0 < 1 <= k_max:
        raise ValueError("need k_min <= 0 < 1 <= k_max, got k_min %d, k_max %d" % (k_min, k_max))
    if word_k_max > k_max:
        raise ValueError("word_k_max %d exceeds k_max %d" % (word_k_max, k_max))
    rep = CheckReport("torus")
    rng = random.Random(seed)

    def compare(point, lhs, rhs):
        ok = lhs == rhs
        detail = None if ok else _first_difference(dict(lhs.terms()), dict(rhs.terms()), "monomial")
        rep.record(point, ok, detail)

    for rank in range(1, rank_max + 1):
        cart = CartanData(rank)
        try:
            table = q_recursion(rank, k_max, k_min)
        except ArithmeticError as exc:  # NcNotDivisible, ExponentOverflow: reported, not raised
            rep.record(("recursion", rank), False, exc)
            continue
        rep.record(("recursion", rank), True)

        for k in range(k_min + 1, k_max):
            for a in range(1, rank + 1):
                lhs = (table[(a, k + 1)] * table[(a, k - 1)]).times_unit(2 * cart.lam(a, a))
                compare(("relation", rank, a, k), lhs, relation_rhs(table, rank, a, k))

        for a, b in itertools.product(range(1, rank + 1), repeat=2):
            for k, kp in itertools.product(range(k_min, k_max + 1), repeat=2):
                if abs(k - kp) > abs(a - b) + 1 or (a, k) >= (b, kp):
                    continue
                f, g, c = table[(a, k)], table[(b, kp)], 2 * cart.lam(a, b) * (kp - k)
                if q_commutator(f, g, c):
                    # only a failure forms the two products, for the detail
                    compare(("window", rank, a, b, k, kp), f * g, (g * f).times_unit(c))
                else:
                    rep.record(("window", rank, a, b, k, kp), True)

        letters = [(a, k) for a in range(1, rank + 1) for k in range(1, word_k_max + 1)]
        words = [w for n in range(1, word_len + 1) for w in itertools.combinations_with_replacement(letters, n)]
        if rank >= 3 and word_len >= 4:
            long_words = [w for w in words if len(w) == word_len]
            keep = rng.sample(long_words, min(len(long_words), 120))
            words = [w for w in words if len(w) < word_len] + keep
            rep.notes["torus-words-sampled-r%d" % rank] = len(keep)
        # every prefix of a sorted word is an earlier word: one ev0 step each
        images = {}
        for word in words:
            bad = ev0_negative_term(ev0_image(rank, word, table, images))
            detail = bad and _cap("ev0 monomial Q_{b,1}**%s: w-coefficient %s" % (bad[0], dict(sorted(bad[1].items()))))
            rep.record(("polynomiality", rank, word), bad is None, detail)

        ones = NcLaurent.monomial(rank, (0,) * rank, (1,) * rank)
        for i in range(samples):
            f = _random_torus_element(rank, rng)
            compare(("intertwine", rank, i), evaluate(ones * f, "ev"), ones * evaluate(f, "ev0"))
    return rep


# -- oracle suites -------------------------------------------------------------


def check_macdonald(nvars_max: int = 3, weight_max: int = 4) -> CheckReport:
    """The independent eigen-solve path: the t**0 slice of each integral form
    J_lam, read in 1/q, equals the level-1 character on m-forms, and the
    rescaled t -> oo operator limit acts on characters with the degenerate
    eigenvalue."""
    rep = CheckReport("macdonald")
    for nvars in range(2, nvars_max + 1):
        r = nvars - 1
        for size in range(0, weight_max + 1):
            for lam in partitions(size, nvars):
                w = qwhittaker_specialize(macdonald_poly(lam, nvars))
                full = tuple(lam) + (0,) * (nvars - len(lam))
                n = NVector.level_one(r, tuple(full[a] - full[a + 1] for a in range(r)))
                # the character of lam - lam_N by Kostka numbers, times (z_1...z_N)**lam_N
                chi = _m_terms(to_m_basis(graded_character(n).z_terms(), nvars), nvars).times_z((full[-1],) * nvars)
                _record_equal(rep, ("whittaker", nvars, lam), _m_terms(w, nvars), chi)
    for r in range(1, nvars_max):
        nvars = r + 1
        for n in _level1_grid(r, 2):
            # the character's m-form by Kostka numbers: q**j is the offset j over (q, t) too
            m = to_m_basis(graded_character(n).z_terms(), nvars)
            chi = _m_terms(m, nvars)
            for alpha in range(1, r + 1):
                g = apply_macdonald_m(alpha, m, nvars)
                try:
                    lim = qt_t_infinity_limit(g, alpha * (nvars - alpha))
                except ArithmeticError as exc:
                    rep.record(("degenerate-limit", r, n, alpha), False, exc)
                    continue
                ev = sum(min(alpha, b) * n.entry(b, 1) for b in range(1, r + 1))
                _record_equal(rep, ("degenerate-limit", r, n, alpha), _m_terms(lim, nvars), chi.times_unit(ev))
    return rep


def check_whittaker(order: int = 20, toda_n: int = 6, classone_n: int = 4) -> CheckReport:
    _require_int(order, 0, "the truncation order")
    _require_int(toda_n, 0, "toda_n")
    _require_int(classone_n, 0, "classone_n")
    rep = CheckReport("whittaker")
    for n in range(1, toda_n + 1):
        for refl in (False, True):
            first_bad = next((e for e, row in enumerate(toda_residual(n, order, refl)) if row), None)
            rep.record(
                ("toda-residual", n, "reflected" if refl else "plain"),
                first_bad is None,
                None if first_bad is None else "first nonzero residual at order %d" % first_bad,
            )
    rep.notes["residual-order"] = order
    ns = range(0, classone_n + 1)
    ok = class_one_combination(ns, order)
    rep.record(
        ("class-one", classone_n, order),
        ok,
        None if ok else _cap("n %d, u**%d: combination %s, head*chi %s" % class_one_difference(ns, order)),
    )
    for rank, sigma in ((1, 10), (2, 5)):
        level1 = check_level1_report(rank, sigma)
        rep.total += level1.total
        rep.failures += level1.failures
    return rep


# -- suite registry -------------------------------------------------------------


def _diffeq_suite(bound):
    out = [check_level1_report(r, bound) for r in (1, 2, 3)] + [check_sl3_level1_G(bound)]
    out += [check_difference_equation(r, k, bound) for r in (1, 2) for k in (2, 3)]
    # the rank-3 admissibility floor is sigma = 6; use the smallest
    # nonempty grid there
    out.append(check_difference_equation(3, 2, max(bound, 6)))
    return out + [check_sl3_level2_G(2), check_sl2_levelk_G(2, bound)]


# name -> (the flags the suite reads, with their defaults; its reports from
# them), in the order ``--suite all`` runs the suites.  A rank of None runs
# the suite's default ranks.
_SUITES = {
    "lemmas": ({"bound": 3}, lambda bound: [check_subset_identities(bound)]),
    "torus": ({"rank": 3}, lambda rank: [check_torus(rank)]),
    "whittaker": ({"order": 20}, lambda order: [check_whittaker(order)]),
    "macdonald": ({"bound": 4}, lambda bound: [check_macdonald(3, bound), check_macdonald_commuting()]),
    "eigen": ({"rank": None, "bound": 4}, lambda rank, bound: [check_eigen(r, bound) for r in ((1, 2, 3) if rank is None else (rank,))]),
    "diffeq": ({"bound": 5}, _diffeq_suite),
    "limits": ({"rank": 3, "bound": 3}, lambda rank, bound: [check_limits(rank, bound)]),
    "qsystem": ({"rank": None, "bound": 6}, lambda rank, bound: [check_dual_qsystem(r, bound) for r in ((2, 3) if rank is None else (rank,))]),
}


def run_suite(name: str, rank=None, bound=None, order=None):
    """Run a named verification suite, or every suite for "all"; returns a
    list of CheckReports.  An argument left as None takes the suite's
    default."""
    if name == "all":
        return [rep for suite in _SUITES for rep in run_suite(suite, rank, bound, order)]
    if name not in _SUITES:
        raise ValueError("unknown suite %r" % name)
    defaults, reports = _SUITES[name]
    given = {"rank": rank, "bound": bound, "order": order}
    return reports(**{flag: value if given[flag] is None else given[flag] for flag, value in defaults.items()})


# the flags each suite reads; "all" reads every flag one of its suites reads
SUITE_FLAGS = {name: " ".join(defaults) for name, (defaults, _) in _SUITES.items()}
SUITE_FLAGS["all"] = " ".join(f for f in ("rank", "bound", "order") if any(f in d for d, _ in _SUITES.values()))
