"""Independent slow paths used only by the tests.

* ``subset_operator_bruteforce`` recomputes the subset difference operators
  with sympy's symbolic rational-function arithmetic (no shared code with the
  package kernel), so an agreement is a genuine two-path check.
* ``apply_macdonald_qt`` is the classical Macdonald operator on symmetric
  QT polynomials: the monomial view of ``qchar.macdonald.apply_macdonald_m``
  on the polynomial's m-form, read back by ``m_monomials``.
* ``subset_apply_M``/``subset_apply_D``/``subset_apply_macdonald_qt`` expand
  the same operators subset by subset and divide once by the Vandermonde.
  Unlike the sympy oracle this path shares ``LaurentPoly`` arithmetic with
  the package; it checks the signed-orbit compression and the Schur
  read-off, not the kernel.
* ``orbit_apply_M``/``orbit_apply_D`` act on monomial polynomials by one
  signed permutation orbit: the Vandermonde-cleared summand for the first
  alpha variables is antisymmetrized in alternant form and divided by the
  Vandermonde Schur function by Schur function.  ``qchar.qdiff`` acts on
  Schur forms by branching instead; this is the cross-check on grids.
* ``ref_schur`` is the Schur polynomial as the alternant at lam + delta
  divided by the Vandermonde determinant, the way ``qchar.symfun`` built it
  before it branched on one variable at a time; ``schur_expand`` peels a
  symmetric polynomial into Schur functions against it.  ``tableau_schur``
  counts semistandard tableaux directly, a cheaper reference for five and
  more variables.
* ``symmetrize``, ``antisymmetrize`` and ``signed_orbit_sum`` expand the
  (signed) permutation orbit term by term, the signed one as a sum of
  alternants by ``ref_signed_buckets``.  ``monomial_sym`` is the monomial
  symmetric polynomial m_lam, through ``m_monomials``, which writes an
  m-form {mu: {unit offset: int}} in the monomial basis.
* ``schur_form`` turns a symmetric Laurent polynomial into a Schur form at
  the boundary of the tests (through ``schur_expand``); ``pieri_e`` is the
  Pieri rule by vertical strips, and ``times_e`` the Pieri product with e_m
  before the constraint z_1...z_N = 1, the reference for
  ``SchurPoly.times`` with e_m and for the Pieri side of
  ``qdiff.packed_sum``, whose inputs ``packed_parts`` packs digit by digit
  from a Schur form; ``dominates`` and
  ``project_qt_to_q`` are the dominance order and the inverse of
  ``with_ring(RING_QT)`` on a Q-ring polynomial; ``image_nc`` reads a
  packed ev0 image (``qtorus.PackedImage``) back as an ``NcLaurent``
  through ``Packed.digits``.
* ``ref_apply_macdonald_qt``, ``ref_macdonald_poly`` and
  ``ref_specialize_t0_qinv`` are the Macdonald path over the fraction field
  ``QT_REF`` = Q(q, t) of sympy, as it ran before the package cleared its
  denominators: the operator as one signed orbit on tuple-keyed dicts, the
  triangular solve dividing by each eigenvalue gap, and the t = 0 limit of
  a reduced fraction.
* ``whittaker_series_sympy`` expands the rank-one Whittaker series as
  products of truncated geometric series in sympy's polynomial ring.
  ``ref_w_series`` and ``ref_class_one_coefficient`` are the series and the
  class-one coefficient as ``qchar.whittaker`` built them before it divided
  by each binomial in one pass: every factor 1/(1 - s**a u**i) a truncated
  geometric series, multiplied in by a full ``TruncatedSeries``
  convolution, and every W(n) rebuilt from scratch.  ``series_of`` and
  ``pairs_of`` turn {(u-exponent, s-exponent): int} maps into series and
  back.
* ``ref_swap_buckets`` and ``ref_square_buckets`` certify the
  subset-fraction lemmas the way ``qchar.verify`` did before it read them
  off the two-block Schur form: every cleared product expanded as a
  monomial polynomial (10**4 to 10**5 terms) and bucketed term by term by
  ``ref_signed_buckets``, keyed by the alternant's strictly decreasing
  exponents lam + delta.
* ``ref_mul``, ``ref_times_z``, ``ref_exact_div`` and ``ref_nc_mul`` recode
  the packed-key kernels on plain exponent tuples, and
  ``ref_signed_buckets`` sorts every term of a signed orbit into its
  alternant, the read-off behind the orbit paths above;
  ``ref_div`` runs ``ref_exact_div`` on two ``LaurentPoly`` values (the
  Vandermonde quotients above).
* ``branch`` is the two-block expansion of any weakly decreasing lam by
  the pruned fillings of ``qchar.symfun._branch_partition``, the full
  column (z_1...z_N)**lam_N factored out; ``qchar.qdiff._terms`` keys its
  terms by the same pairs.  ``ref_branch`` is the rule as ``qchar.symfun``
  ran it before it pruned its fillings: every inner shape mu in the
  x-block, and for each row the full product of letter counts, filtered
  afterwards by row length and column strictness.
* ``weight_of`` (partition to dominant weight), ``check_toda_eigen`` (the
  rank-one three-term relation over a range of n) and
  ``check_polynomiality`` (ev0 of a word polynomial in the Q_{b,1}) are
  cross-checks only the tests call.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import factorial

import sympy
from sympy.polys.domains import QQ, ZZ
from sympy.polys.fields import field
from sympy.polys.rings import ring

from qchar.cartan import CartanData
from qchar.laurent import (
    LaurentPoly,
    pack,
    require_symmetric,
    unit_slots,
    unpack,
)
from qchar.macdonald import apply_macdonald_m
from qchar.qdiff import PackedSchur
from qchar.qtorus import NcLaurent, ev0_image, ev0_negative_term, q_recursion
from qchar.rings import (
    RING_Q,
    RING_QT,
    RING_W,
    NcNotDivisible,
    NotDivisible,
)
from qchar.symfun import SchurPoly, _branch_partition, normalize_partition, partitions
from qchar.whittaker import TruncatedSeries, toda_residual

Q = sympy.Symbol("q")
T = sympy.Symbol("t")
W = sympy.Symbol("w")


def delta_on(ring, nvars, indices):
    """Product of (z_i - z_j) over pairs i < j drawn from ``indices``
    (0-based variable indices, taken in increasing order)."""
    idx = sorted(indices)
    out = LaurentPoly.one(ring, nvars)
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            out = out * (LaurentPoly.variable(ring, nvars, idx[a]) - LaurentPoly.variable(ring, nvars, idx[b]))
    return out


def zsyms(nvars):
    return sympy.symbols("z1:%d" % (nvars + 1))


def poly_to_sympy(f: LaurentPoly):
    symbols = {RING_W: (W,), RING_Q: (Q,), RING_QT: (Q, T)}[f.ring] + zsyms(f.nvars)
    total = sympy.Integer(0)
    for key, c in f.terms():
        term = sympy.Integer(c)
        for x, e in zip(symbols, key):
            term *= x**e
        total += term
    return sympy.together(total)


def sympy_equal(a, b) -> bool:
    return sympy.simplify(sympy.together(a - b)) == 0


# -- Schur polynomials as alternant / Vandermonde ----------------------------------


@lru_cache(maxsize=None)
def perms_with_sign(n):
    out = []
    for p in itertools.permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])
        out.append((p, -1 if inv % 2 else 1))
    return out


def vandermonde(ring, nvars):
    """The Vandermonde product over all pairs i < j of (z_i - z_j)."""
    return delta_on(ring, nvars, range(nvars))


def alternant(ring, nvars, exps):
    """The alternating sum over permutations sigma of sgn(sigma) z**(sigma . exps).

    ``exps`` must have pairwise distinct entries; the term ``z**exps`` itself
    appears with coefficient +1.
    """
    exps = tuple(exps)
    if len(set(exps)) != len(exps):
        raise ValueError("alternant exponents must be distinct")
    unit = (0,) * unit_slots(ring)
    terms = []
    for perm, sign in perms_with_sign(nvars):
        new = [0] * nvars
        for i, e in enumerate(exps):
            new[perm[i]] = e
        terms.append((unit + tuple(new), sign))
    return LaurentPoly.from_terms(ring, nvars, terms)


@lru_cache(maxsize=None)
def ref_schur(lam, nvars, ring=RING_Q) -> LaurentPoly:
    """s_lam(z_1..z_N) as the alternant at lam + delta divided exactly by
    the Vandermonde determinant."""
    full = tuple(lam) + (0,) * (nvars - len(lam))
    exps = tuple(full[i] + (nvars - 1 - i) for i in range(nvars))
    return ref_div(alternant(ring, nvars, exps), vandermonde(ring, nvars))


@lru_cache(maxsize=None)
def _tableau_contents(lam, nvars) -> dict:
    """{content: count} over the semistandard tableaux of shape ``lam`` with
    entries in [0, nvars), filled row by row and left to right: rows weakly
    increase, columns strictly increase, and an entry leaves room below it
    for the rest of its column."""
    rows = [x for x in lam if x]
    heights = [sum(1 for x in rows if x > j) for j in range(rows[0])] if rows else []
    counts = {}
    content = [0] * nvars

    def fill(i, j, above, row):
        if i == len(rows):
            key = tuple(content)
            counts[key] = counts.get(key, 0) + 1
        elif j == rows[i]:
            fill(i + 1, 0, row, [])
        else:
            lo = max(row[-1] if row else 0, above[j] + 1 if i else 0)
            for e in range(lo, nvars - (heights[j] - i) + 1):
                content[e] += 1
                fill(i, j + 1, above, row + [e])
                content[e] -= 1

    fill(0, 0, [], [])
    return counts


def tableau_schur(lam, nvars, ring=RING_Q) -> LaurentPoly:
    """s_lam(z_1..z_N) as the sum of z**content over semistandard tableaux
    of shape lam with entries at most N."""
    unit = (0,) * unit_slots(ring)
    return LaurentPoly.from_terms(ring, nvars, [(unit + k, c) for k, c in _tableau_contents(tuple(lam), nvars).items()])


def constant(ring, nvars, coeff) -> LaurentPoly:
    """The constant polynomial of a one-variable coefficient {j: c} (W and
    Q rings): the sum of c u**j."""
    return LaurentPoly.from_terms(ring, nvars, {(j,) + (0,) * nvars: c for j, c in coeff.items()})


class NonzeroRemainder(ArithmeticError):
    """Schur-expansion peeling left a nonzero remainder."""


def schur_expand(f: LaurentPoly) -> dict:
    """Expand a symmetric polynomial (W or Q ring) in the Schur basis by
    peeling leading monomials against ``ref_schur``.

    Returns {partition: {unit exponent: int}}.  Raises ``NotSymmetric`` for asymmetric
    input and ``NonzeroRemainder`` when peeling gets stuck (negative
    exponents, or a leading monomial that is not a partition)."""
    require_symmetric(f)
    zo = f.zoff
    if f and min(f.bounds()[0][zo:]) < 0:
        raise NonzeroRemainder("input has negative exponents")

    out = {}
    work = f
    while work:
        groups = work.z_terms()
        lam = max(groups)
        if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
            raise NonzeroRemainder("leading exponent %r is not a partition" % (lam,))
        key = normalize_partition(lam)
        out[key] = groups[lam]
        work = work - ref_schur(key, f.nvars, f.ring) * constant(f.ring, f.nvars, groups[lam])
    return out


def subset_operator_bruteforce(alpha, n, f: LaurentPoly, kind="gamma"):
    """sum_{|I|=alpha} z_I**n a_I(z) (shift_I f) as a sympy expression.

    kind='gamma' scales subset variables by q; kind='twisted' scales every
    variable by w**2 and subset variables by q = w**(-2(r+1)) besides (the
    bare sum, no prefactor); kind='qt' uses the (t z_i - z_j)/(z_i - z_j)
    coefficients with q-scaling.
    """
    nvars = f.nvars
    z = list(zsyms(nvars))
    expr = poly_to_sympy(f)
    rank = nvars - 1
    total = sympy.Integer(0)
    for subset in itertools.combinations(range(nvars), alpha):
        if kind == "qt":
            coeff = sympy.Integer(1)
            for i in subset:
                for j in range(nvars):
                    if j not in subset:
                        coeff *= (T * z[i] - z[j]) / (z[i] - z[j])
        else:
            coeff = sympy.Integer(1)
            for i in subset:
                coeff *= z[i] ** n
                for j in range(nvars):
                    if j not in subset:
                        coeff *= z[i] / (z[i] - z[j])
        subs = {}
        if kind == "gamma" or kind == "qt":
            for i in subset:
                subs[z[i]] = Q * z[i]
        elif kind == "twisted":
            qw = W ** (-2 * (rank + 1))
            for i in range(nvars):
                subs[z[i]] = (W**2) ** alpha * (qw if i in subset else 1) * z[i]
        total += coeff * expr.subs(subs, simultaneous=True)
    return sympy.cancel(sympy.together(total))


def _subset_data(nvars, alpha):
    """(subset, complement, sign) for all subsets of size alpha; the sign is
    the parity of the number of split pairs whose subset element is larger."""
    out = []
    for subset in itertools.combinations(range(nvars), alpha):
        comp = tuple(i for i in range(nvars) if i not in subset)
        inv = sum(1 for i in subset for j in comp if j < i)
        out.append((subset, comp, -1 if inv % 2 else 1))
    return out


def _subset_apply_folded(f, alpha, power, du_subset, du_all):
    """Literal subset-by-subset Vandermonde clearing; one exact division.

    ``du_subset``/``du_all`` give the unit-exponent shift per unit of
    z-degree inside the subset / across all variables."""
    nvars = f.nvars
    num = LaurentPoly.zero(f.ring, f.nvars)
    step = power + nvars - alpha
    for subset, comp, sign in _subset_data(nvars, alpha):
        shifted = {}
        for k, c in f.terms():
            du = du_subset * sum(k[1 + i] for i in subset) + du_all * sum(k[1:])
            shifted[(k[0] + du,) + k[1:]] = sign * c
        part = delta_on(f.ring, nvars, subset) * delta_on(f.ring, nvars, comp)
        part = part * LaurentPoly.from_terms(f.ring, nvars, shifted)
        if step:
            part = part.times_z(tuple(step if i in subset else 0 for i in range(nvars)))
        num = num + part
    return ref_div(num, vandermonde(f.ring, nvars))


def subset_apply_M(alpha, n, f):
    """``qdiff.apply_M`` for Q-ring input, by the literal subset sum."""
    return _subset_apply_folded(f, alpha, n, 1, 0)


def subset_apply_D(alpha, n, f):
    """``qdiff.apply_D`` by the literal subset sum, prefactor included."""
    r = f.nvars - 1
    cart = CartanData(r)
    out = _subset_apply_folded(f, alpha, n, -2 * (r + 1), 2 * alpha)
    return out.times_unit(-cart.lam(alpha, alpha) * n - 2 * cart.lam_row_sum(alpha))


def apply_macdonald_qt(alpha, f):
    """The classical Macdonald operator of index ``alpha`` on a symmetric QT
    polynomial: the monomial view of ``qchar.macdonald.apply_macdonald_m``
    on its m-form."""
    if f.ring != RING_QT:
        raise ValueError("Macdonald operator needs QT coefficients")
    nvars = f.nvars
    if not 0 <= alpha <= nvars:
        raise ValueError("alpha out of range [0, N]")
    parts = require_symmetric(f)
    if alpha == 0 or f.is_zero():
        return f
    m = {mu: d for mu, d in ((unpack(z, nvars), d) for z, d in parts.items()) if mu == tuple(sorted(mu, reverse=True))}
    return m_monomials(apply_macdonald_m(alpha, m, nvars), RING_QT, nvars)


def subset_apply_macdonald_qt(alpha, f):
    """``apply_macdonald_qt`` by the literal subset sum."""
    nvars = f.nvars
    num = LaurentPoly.zero(RING_QT, nvars)
    t = LaurentPoly.from_terms(RING_QT, nvars, {(0, 1) + (0,) * nvars: 1})
    for subset, comp, sign in _subset_data(nvars, alpha):
        shifted = {}
        for k, c in f.terms():
            s = sum(k[2 + i] for i in subset)
            shifted[(k[0] + s,) + k[1:]] = sign * c
        part = delta_on(RING_QT, nvars, subset) * delta_on(RING_QT, nvars, comp)
        for i in subset:
            for j in comp:
                zi = LaurentPoly.variable(RING_QT, nvars, i)
                zj = LaurentPoly.variable(RING_QT, nvars, j)
                part = part * (t * zi - zj)
        num = num + part * LaurentPoly.from_terms(RING_QT, nvars, shifted)
    return ref_div(num, vandermonde(RING_QT, nvars))


def whittaker_series_sympy(n, reflected, order):
    """p**(n-1/2) sum_a u**(a(n+1)) / prod_{i<=a} (1-u**i)(1-p**(+-2) u**i)
    with s = p**(1/2) (s -> 1/s when reflected), through u**order, in
    sympy's sparse polynomial ring ZZ[u, x] with x = p**(+-2): each factor
    is its geometric series, truncated at u**order after each product;
    ``{(u-exponent, s-exponent): int}``."""
    R, u, x = ring("u,x", ZZ)
    total = R.zero
    for a in range(order // (n + 1) + 1):
        term = u ** (a * (n + 1))
        for i in range(1, a + 1):
            for base in (u**i, x * u**i):
                geometric = sum((base**k for k in range(order // i + 1)), R.zero)
                term = R({m: c for m, c in (term * geometric).items() if m[0] <= order})
        total += term
    sign = -1 if reflected else 1
    out = {}
    for (e, l), c in total.items():
        key = (e, sign * (4 * l + 2 * n - 1))
        out[key] = out.get(key, 0) + int(c)
    return {k: c for k, c in out.items() if c}


def series_of(order, pairs):
    """The ``TruncatedSeries`` through u**order with the terms of ``pairs``,
    {(u-exponent, s-exponent): int}: terms above the order and zero
    coefficients dropped."""
    return TruncatedSeries(order, {pack((k, e)): c for (e, k), c in pairs.items() if c and e <= order})


def pairs_of(series):
    """The terms of a ``TruncatedSeries`` as {(u-exponent, s-exponent): int}."""
    return {(e, k): c for (k, e), c in series.terms()}


def _geometric(order, s_exp, step):
    """1 / (1 - s**s_exp * u**step) to the given order."""
    return series_of(order, {(j * step, j * s_exp): 1 for j in range(order // step + 1)})


def ref_w_series(n, reflected, order):
    """The fundamental series at argument n >= 0 (``whittaker.w_series``),
    each Pochhammer prefix rebuilt by convolutions for every a."""
    s4 = -4 if reflected else 4
    pref = 1 - 2 * n if reflected else 2 * n - 1
    total = TruncatedSeries.zero(order)
    a = 0
    while a * (n + 1) <= order:
        shift = a * (n + 1)
        term = TruncatedSeries.one(order - shift)
        for i in range(1, a + 1):
            term = term * _geometric(term.order, 0, i)
            term = term * _geometric(term.order, s4, i)
        total = total + series_of(order, {(e + shift, k + pref): c for (e, k), c in pairs_of(term).items()})
        a += 1
    return total


def ref_class_one_coefficient(order, reflected):
    """The class-one coefficient times 1 - p**-2 (``whittaker._times_coefficient``
    of the series 1) as the product of ``order`` truncated geometric
    series."""
    s4 = 4 if reflected else -4
    series = series_of(order, {(0, -5): -1} if reflected else {(0, 1): 1})
    for i in range(1, order + 1):
        series = series * _geometric(order, s4, i)
    return series


# -- the subset-fraction lemmas by full expansion --------------------------------


def qpair_product(nvars, excluded):
    """prod over ordered pairs x != y, (x, y) not excluded, of (z_x - q z_y)."""
    z = [LaurentPoly.variable(RING_Q, nvars, i) for i in range(nvars)]
    out = LaurentPoly.one(RING_Q, nvars)
    for x in range(nvars):
        for y in range(nvars):
            if x != y and (x, y) not in excluded:
                out = out * (z[x] - z[y].times_unit(1))
    return out


def _bucket_adjust(buckets, qshift, sign):
    return {
        key: {e + qshift: sign * c for e, c in payload.items()}
        for key, payload in buckets.items()
    }


@lru_cache(maxsize=8)
def _swap_cores(a: int, b: int):
    n = a + b
    i0 = tuple(range(a))
    j0 = tuple(range(a, n))
    base = delta_on(RING_Q, n, i0) * delta_on(RING_Q, n, j0)
    core1 = base * qpair_product(n, frozenset((x, y) for x in j0 for y in i0))
    core2 = base * qpair_product(n, frozenset((x, y) for x in i0 for y in j0))
    return core1, core2


def _alternant_buckets(f: LaurentPoly) -> dict:
    """{lam + delta: {unit exponent: c}}: the signed orbit sum of the W- or
    Q-ring polynomial f as a sum of alternants, by ``ref_signed_buckets``."""
    return {key: {u[0]: c for u, c in d.items()} for key, d in ref_signed_buckets(dict(f.terms()), 1).items()}


def ref_swap_buckets(a, b, p):
    """The two sides of ``verify.subset_swap_identity_holds`` by expanding
    each cleared core as a monomial polynomial and bucketing every term
    into alternants: the first, and the second with its factor
    (-1)**(ab) q**(pa)."""
    n = a + b
    core1, core2 = _swap_cores(a, b)
    zpow = tuple(b if x < a else p + a for x in range(n))
    sign = -1 if (a * b) % 2 else 1
    return (
        _alternant_buckets(core1.times_z(zpow)),
        _bucket_adjust(_alternant_buckets(core2.times_z(zpow)), p * a, sign),
    )


def ref_square_buckets(a):
    """The two sides of ``verify.subset_square_identity_holds`` by full
    expansion: the buckets of (a+1) x left and of a x right."""
    n = 2 * a
    i0, j0 = tuple(range(a)), tuple(range(a, n))
    base = delta_on(RING_Q, n, i0) * delta_on(RING_Q, n, j0)
    top = base.times_z(tuple(a if x < a else a for x in range(n)))
    low = base.times_z(tuple(a + 1 if x < a else a - 1 for x in range(n))).times_unit(a)
    left = (top - low) * qpair_product(n, {(x, y) for x in j0 for y in i0})

    i2, j2 = tuple(range(a + 1)), tuple(range(a + 1, n))
    base2 = delta_on(RING_Q, n, i2) * delta_on(RING_Q, n, j2)
    base2 = base2.times_z(tuple(a - 1 if x <= a else a + 1 for x in range(n)))
    right = base2 * qpair_product(n, {(x, y) for x in j2 for y in i2})
    return _alternant_buckets(left * (a + 1)), _alternant_buckets(right * a)


# -- the signed-orbit operator path ----------------------------------------------


@lru_cache(maxsize=None)
def _pair_delta(ring, nvars, alpha):
    """delta_{I0} * delta_{J0} for I0 = first alpha variables."""
    return delta_on(ring, nvars, range(alpha)) * delta_on(ring, nvars, range(alpha, nvars))


def _unit_shift_gamma(ring, rank):
    """Unit-exponent increment of the q-scaling of the first alpha variables."""
    if ring == RING_Q:
        return 1
    if ring == RING_W:
        return -2 * (rank + 1)
    raise ValueError("unexpected ring %r" % ring)


def _schur_reconstruct_folded(buckets, ring, nvars, den):
    """Rebuild sum_buckets payload * s_lam / den from the alternant buckets
    {lam + delta: {unit exponent: int}} of the orbit (``_alternant_buckets``),
    each a_{lam + delta} read as a_delta s_lam, for the folded integer
    rings."""
    out = {}
    for shifted, payload in buckets.items():
        lam = tuple(x - (nvars - 1 - i) for i, x in enumerate(shifted))
        off = lam[-1]
        core = normalize_partition(tuple(x - off for x in lam))
        for ez, cs in ref_schur(core, nvars).terms():
            zz = tuple(e + off for e in ez[1:])
            for u, cu in payload.items():
                kk = (u,) + zz
                nv = out.get(kk, 0) + cu * cs
                if nv:
                    out[kk] = nv
                else:
                    del out[kk]
    for k, c in out.items():
        q, r = divmod(c, den)
        if r:
            raise NotDivisible("orbit sum not divisible by %d" % den)
        out[k] = q
    return LaurentPoly.from_terms(ring, nvars, out)


def _orbit_apply_folded(f, alpha, power, du_subset, du_all):
    """``du_subset``/``du_all`` give the unit-exponent shift per unit of
    z-degree inside the subset / across all variables."""
    require_symmetric(f)
    nvars = f.nvars
    shifted = {}
    for k, c in f.terms():
        du = du_subset * sum(k[1 : 1 + alpha]) + du_all * sum(k[1:])
        shifted[(k[0] + du,) + k[1:]] = c
    t0 = _pair_delta(f.ring, nvars, alpha) * LaurentPoly.from_terms(f.ring, nvars, shifted)
    step = power + nvars - alpha
    t0 = t0.times_z(tuple(step if i < alpha else 0 for i in range(nvars)))
    den = factorial(alpha) * factorial(nvars - alpha)
    return _schur_reconstruct_folded(_alternant_buckets(t0), f.ring, nvars, den)


def orbit_apply_M(alpha, n, f):
    """``qdiff.apply_M`` on a monomial polynomial, by the signed orbit."""
    if alpha == 0:
        return f
    return _orbit_apply_folded(f, alpha, n, _unit_shift_gamma(f.ring, f.nvars - 1), 0)


def orbit_apply_D(alpha, n, f):
    """``qdiff.apply_D`` on a monomial polynomial, prefactor included."""
    r = f.nvars - 1
    cart = CartanData(r)
    out = f if alpha == 0 else _orbit_apply_folded(f, alpha, n, -2 * (r + 1), 2 * alpha)
    return out.times_unit(-cart.lam(alpha, alpha) * n - 2 * cart.lam_row_sum(alpha))


# -- helpers only the tests use -----------------------------------------------------


def schur_form(f: LaurentPoly) -> SchurPoly:
    """The Schur form of a symmetric Laurent polynomial (W or Q ring): the
    power (z_1...z_N)**m at the least z-exponent m is factored out and the
    rest peeled by ``schur_expand``."""
    low = min((min(k[1:]) for k, _ in f.terms()), default=0)
    out = {}
    for lam, coeff in schur_expand(f.times_z((-low,) * f.nvars)).items():
        full = tuple(x + low for x in lam) + (low,) * (f.nvars - len(lam))
        for j, c in coeff.items():
            out[(j,) + full] = c
    return SchurPoly.from_terms(f.ring, f.nvars, out)


def m_monomials(m, ring, nvars) -> LaurentPoly:
    """An m-form {mu: {unit offset: int}}, sum payload * m_mu over mu weakly
    decreasing N-vectors, in the monomial basis."""
    zero = (0,) * unit_slots(ring)
    return LaurentPoly(ring, nvars, {k + u: c for mu, d in m.items() for k in {pack(zero + e) for e in itertools.permutations(mu)} for u, c in d.items()})


def monomial_sym(lam, nvars: int, ring=RING_Q) -> LaurentPoly:
    """The monomial symmetric polynomial m_lam(z_1..z_N) over ``ring``."""
    lam = normalize_partition(lam)
    return m_monomials({lam + (0,) * (nvars - len(lam)): {0: 1}} if len(lam) <= nvars else {}, ring, nvars)


def pieri_e(lam, m: int, nvars: int):
    """Partitions mu with s_lam * e_m = sum of s_mu in N variables, by the
    vertical strips: add m boxes, at most one per row, keeping at most N
    rows.  ``qchar.symfun`` read the Pieri rule this way before
    ``SchurPoly.times`` straightened s_{lam + beta} over the terms of e_m."""
    lam = normalize_partition(lam)
    if len(lam) > nvars:
        raise ValueError("partition longer than the variable count")
    out = []

    def grow(row, remaining, current):
        if remaining == 0:
            out.append(normalize_partition(tuple(current)))
            return
        if row >= nvars or remaining > nvars - row:
            return
        # add one box in this row, against the (possibly grown) row above
        if row == 0 or current[row] + 1 <= current[row - 1]:
            current[row] += 1
            grow(row + 1, remaining - 1, current)
            current[row] -= 1
        grow(row + 1, remaining, current)

    if 0 <= m <= nvars:
        grow(0, m, list(lam) + [0] * (nvars - len(lam)))
    return sorted(out, reverse=True)


def times_e(f: SchurPoly, m: int) -> SchurPoly:
    """f times the elementary symmetric polynomial e_m by ``pieri_e``, with
    no constraint, full columns of each s_lam kept: the reference for
    ``SchurPoly.times`` with e_m and for the Pieri side of ``packed_sum``."""
    n, out = f.nvars, {}
    for vec, c in f.terms():
        j, lam = vec[0], vec[1:]
        for kappa in pieri_e(tuple(x - lam[-1] for x in lam), m, n):
            kappa += (0,) * (n - len(kappa))
            key = (j,) + tuple(x + lam[-1] for x in kappa)
            out[key] = out.get(key, 0) + c
    return SchurPoly.from_terms(f.ring, n, out)


def packed_parts(f: SchurPoly, width: int, m=None) -> list:
    """f as ``qdiff.packed_sum`` parts (g, 0, 1, m), one ``PackedSchur`` g per
    class of unit exponents (mod 2N over W), each row the digits of one
    s_lam read at x = 2**width, from its least place."""
    step = 1 if f.ring == RING_Q else -2 * f.nvars
    classes = {}
    for vec, c in f.terms():
        place, cls = divmod(vec[0], step)
        classes.setdefault(cls, {}).setdefault(pack((0,) + vec[1:]), {})[place] = c
    parts = []
    for cls, rows in classes.items():
        packed = {}
        for key, digits in rows.items():
            lo, bound = min(digits), max(map(abs, digits.values()))
            assert bound < 1 << (width - 1), "a digit needs more than %d bits" % width
            packed[key] = bound, lo, sum(c << width * (d - lo) for d, c in digits.items())
        parts.append((PackedSchur(f.ring, f.nvars, cls, width, packed), 0, 1, m))
    return parts


def dominates(lam, mu) -> bool:
    """True when lam >= mu in dominance order (equal sizes assumed)."""
    tot_l = tot_m = 0
    for i in range(max(len(lam), len(mu))):
        tot_l += lam[i] if i < len(lam) else 0
        tot_m += mu[i] if i < len(mu) else 0
        if tot_l < tot_m:
            return False
    return tot_l == tot_m


def project_qt_to_q(f: LaurentPoly) -> LaurentPoly:
    """Inverse of ``with_ring(RING_QT)`` on a Q-ring polynomial: no term may
    involve t."""
    terms = list(f.terms())
    if any(key[1] for key, _ in terms):
        raise NotDivisible("polynomial involves t")
    return LaurentPoly.from_terms(RING_Q, f.nvars, ((key[:1] + key[2:], c) for key, c in terms))


# -- (signed) permutation orbits, term by term ----------------------------------------


def divide_int(f: LaurentPoly, m: int) -> LaurentPoly:
    """Divide every coefficient by the integer ``m`` exactly."""
    if m == 0:
        raise ZeroDivisionError("division by zero")
    out = {}
    for k, c in f.coeffs.items():
        q, r = divmod(c, m)
        if r:
            raise NotDivisible("coefficient %d is not divisible by %d" % (c, m))
        out[k] = q
    return f._like(out)


def symmetrize(f: LaurentPoly) -> LaurentPoly:
    """(1/N!) * sum over permutations of f; exact, error if N! does not divide."""
    zo = f.zoff
    acc = LaurentPoly.zero(f.ring, f.nvars)
    for perm, _ in perms_with_sign(f.nvars):
        moved = {}
        for k, c in f.terms():
            new = [0] * f.nvars
            for i, e in enumerate(k[zo:]):
                new[perm[i]] = e
            moved[k[:zo] + tuple(new)] = c
        acc = acc + f.from_terms(f.ring, f.nvars, moved)
    return divide_int(acc, factorial(f.nvars))


def antisymmetrize(f: LaurentPoly) -> LaurentPoly:
    """(1/N!) * signed sum over permutations of f; exact, error if inexact."""
    return divide_int(signed_orbit_sum(f), factorial(f.nvars))


def signed_orbit_sum(f: LaurentPoly) -> LaurentPoly:
    """N! times the antisymmetrization, expanded as a polynomial (W and Q
    rings)."""
    n = f.nvars
    out = LaurentPoly.zero(f.ring, n)
    for shifted, payload in _alternant_buckets(f).items():
        out = out + alternant(f.ring, n, shifted) * constant(f.ring, n, payload)
    return out


# -- tuple-keyed reference kernels ---------------------------------------------------
#
# The packed kernels of ``qchar.laurent`` and ``qchar.qtorus``, recoded on
# dicts keyed by plain exponent tuples (the ``terms()`` view): no packing, no
# bounds, no key arithmetic.


def ref_mul(a: dict, b: dict, zero=0) -> dict:
    """Product of two {exponent tuple: coefficient} dicts."""
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = tuple(x + y for x, y in zip(k1, k2))
            out[k] = out.get(k, zero) + c1 * c2
    return {k: c for k, c in out.items() if c}


def ref_times_z(a: dict, zshift, zoff: int) -> dict:
    """Multiply by z**zshift; the first ``zoff`` entries are not z-exponents."""
    return {k[:zoff] + tuple(x + y for x, y in zip(k[zoff:], zshift)): c for k, c in a.items()}


def ref_signed_buckets(a: dict, zoff: int) -> dict:
    """The signed permutation-orbit sum of {exponent tuple: coefficient} as
    a sum of alternants: every term sorted, its sign the parity of its
    inversions, keyed by the sorted alternant exponents lam + delta (a
    term with a repeated z-exponent cancels); payloads are keyed by the
    tuple of the first ``zoff`` exponents, or are single field elements when
    ``zoff`` is 0."""
    out = {}
    for k, c in a.items():
        z = k[zoff:]
        if len(set(z)) < len(z):
            continue
        inversions = sum(1 for i in range(len(z)) for j in range(i + 1, len(z)) if z[i] < z[j])
        skey = tuple(sorted(z, reverse=True))
        c = -c if inversions % 2 else c
        if zoff:
            d = out.setdefault(skey, {})
            d[k[:zoff]] = d.get(k[:zoff], 0) + c
        else:
            out[skey] = out[skey] + c if skey in out else c
    if zoff:
        out = {k: {j: c for j, c in d.items() if c} for k, d in out.items()}
    return {k: d for k, d in out.items() if d}


def ref_exact_div(f: dict, g: dict) -> dict:
    """f / g by leading-term division, leading terms the greatest tuples.
    Quotient exponents are confined to min f - min g .. max f - max g, per
    entry, so an inexact division raises ``NotDivisible`` after finitely many
    steps."""
    if not g:
        raise ZeroDivisionError
    width = len(next(iter(g)))
    lo = [min(k[i] for k in f) - min(k[i] for k in g) for i in range(width)] if f else []
    hi = [max(k[i] for k in f) - max(k[i] for k in g) for i in range(width)] if f else []
    glead = max(g)
    rem, quot = dict(f), {}
    while rem:
        lead = max(rem)
        qk = tuple(x - y for x, y in zip(lead, glead))
        if any(not lo[i] <= qk[i] <= hi[i] for i in range(width)):
            raise NotDivisible("no exact quotient")
        qc, r = divmod(rem[lead], g[glead])
        if r:
            raise NotDivisible("coefficient not divisible")
        quot[qk] = qc
        for k, c in ref_mul({qk: qc}, g).items():
            nv = rem.get(k, 0) - c
            if nv:
                rem[k] = nv
            else:
                rem.pop(k, None)
    return quot


def ref_div(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """``ref_exact_div`` on the ``terms()`` views of two polynomials."""
    return LaurentPoly.from_terms(f.ring, f.nvars, ref_exact_div(dict(f.terms()), dict(g.terms())))


def ref_nc_mul(rank: int, a: dict, b: dict) -> dict:
    """Product of normal-ordered torus elements {(a-tuple, b-tuple): {w: int}}:
    Q_{b,1}**b1 moved left past Q_{a,0}**a2 costs w**(-2 a2 . lam . b1)."""
    cart = CartanData(rank)
    out = {}
    for (a1, b1), c1 in a.items():
        for (a2, b2), c2 in b.items():
            twist = -2 * sum(
                a2[i] * cart.lam(i + 1, j + 1) * b1[j] for i in range(rank) for j in range(rank)
            )
            key = (tuple(x + y for x, y in zip(a1, a2)), tuple(x + y for x, y in zip(b1, b2)))
            cur = out.setdefault(key, {})
            for e1, x1 in c1.items():
                for e2, x2 in c2.items():
                    cur[e1 + e2 + twist] = cur.get(e1 + e2 + twist, 0) + x1 * x2
    out = {k: {e: x for e, x in c.items() if x} for k, c in out.items()}
    return {k: c for k, c in out.items() if c}


def ref_ev(rank: int, f: dict, ev0=False) -> dict:
    """ev of {(a-tuple, b-tuple): {w: int}}: every Q_{a,0} set to 1; with
    ``ev0``, Q_{a,0} set to v**(-sum_b lam(a, b)) instead, which is
    w**(-2 sum_b lam(a, b)) (moving Q_{b,1} past Q_{a,0} costs
    w**(-2 lam(a, b)))."""
    cart = CartanData(rank)
    out = {}
    for (a, b), c in f.items():
        shift = -2 * sum(a[i] * cart.lam(i + 1, j + 1) for i in range(rank) for j in range(rank)) if ev0 else 0
        cur = out.setdefault(((0,) * rank, b), {})
        for e, x in c.items():
            cur[e + shift] = cur.get(e + shift, 0) + x
    out = {k: {e: x for e, x in c.items() if x} for k, c in out.items()}
    return {k: c for k, c in out.items() if c}


def ref_ev0(rank: int, f: dict) -> dict:
    """``ref_ev`` with Q_{a,0} set to v**(-sum_b lam(a, b))."""
    return ref_ev(rank, f, ev0=True)


def ref_ev0_word(rank: int, word, table: dict) -> dict:
    """ref_ev0 of a word's full product: the letters' Q_{alpha,k} (alpha 0 or
    r+1 gives 1) multiplied left to right."""
    prod = NcLaurent.one(rank)
    for alpha, k in word:
        if alpha not in (0, rank + 1):
            prod = prod * table[(alpha, k)]
    return ref_ev0(rank, dict(prod.terms()))


def image_nc(img) -> NcLaurent:
    """A packed ev0 image (``qtorus.PackedImage``) as an ``NcLaurent``: row by
    row, each digit d of a position's integer the coefficient of w**d."""
    r = img.rank
    positions = {pos: unpack(pos, 2 * r) for pos in img.packing[1]}
    return NcLaurent.from_terms(r, [((e[:r], e[r:]), dict(img.digits(pos))) for pos, e in positions.items()])


def ref_nc_div(rank: int, num: dict, den: dict, side: str) -> dict:
    """X with X*den = num (side 'right') or den*X = num (side 'left'), on
    {(a-tuple, b-tuple): {w: int}} dicts, by greedy division on the
    greatest (a, b) in tuple order: its w-coefficient is divided by the
    twisted leading w-coefficient of den as a univariate Laurent polynomial
    (``ref_exact_div`` on 1-tuples).  Quotient positions are confined as in
    ``ref_exact_div``; no exact quotient raises ``NcNotDivisible``."""
    if not den:
        raise ZeroDivisionError
    if not num:
        return {}
    nk, dk = [a + b for a, b in num], [a + b for a, b in den]
    lo = [min(k[i] for k in nk) - min(k[i] for k in dk) for i in range(2 * rank)]
    hi = [max(k[i] for k in nk) - max(k[i] for k in dk) for i in range(2 * rank)]
    dlead = max(den)
    rem, quot = {k: dict(c) for k, c in num.items()}, {}
    while rem:
        lead = max(rem)
        q = tuple(tuple(x - y for x, y in zip(u, v)) for u, v in zip(lead, dlead))
        if any(not lo[i] <= x <= hi[i] for i, x in enumerate(q[0] + q[1])):
            raise NcNotDivisible("no exact quotient")
        pair = ({q: {0: 1}}, {dlead: {0: 1}}) if side == "right" else ({dlead: {0: 1}}, {q: {0: 1}})
        (twist,) = ref_nc_mul(rank, *pair)[lead]
        try:
            qc = ref_exact_div(
                {(e,): c for e, c in rem[lead].items()},
                {(e + twist,): c for e, c in den[dlead].items()},
            )
        except NotDivisible as exc:
            raise NcNotDivisible("w-coefficient not divisible") from exc
        quot[q] = {e: c for (e,), c in qc.items()}
        prod = ref_nc_mul(rank, {q: quot[q]}, den) if side == "right" else ref_nc_mul(rank, den, {q: quot[q]})
        for k, c in prod.items():
            cur = rem.setdefault(k, {})
            for e, x in c.items():
                nv = cur.get(e, 0) - x
                if nv:
                    cur[e] = nv
                else:
                    cur.pop(e, None)
            if not cur:
                del rem[k]
    return quot


# -- the Macdonald path over the fraction field Q(q, t) --------------------------------

QT_REF, ref_q, ref_t = field("q,t", QQ)


def qt_to_ref(f: LaurentPoly) -> dict:
    """A QT polynomial as {z-tuple: element of QT_REF}."""
    out = {}
    for key, c in f.terms():
        out[key[2:]] = out.get(key[2:], QT_REF.zero) + c * ref_q ** key[0] * ref_t ** key[1]
    return {z: c for z, c in out.items() if c}


def _ref_monomial_sym(mu, nvars):
    full = tuple(mu) + (0,) * (nvars - len(mu))
    return {e: QT_REF.one for e in set(itertools.permutations(full))}


def ref_apply_macdonald_qt(alpha: int, f: dict, nvars: int) -> dict:
    """The Macdonald operator on {z-tuple: QT_REF element}: the subset sum
    cleared by Vandermonde, as one signed orbit of the first alpha
    variables, read off Schur function by Schur function and divided by
    alpha! (N - alpha)! in the field."""
    one, zero = QT_REF.one, QT_REF.zero

    def z(i):
        return tuple(int(k == i) for k in range(nvars))

    cleared = {(0,) * nvars: one}
    for block in (range(alpha), range(alpha, nvars)):
        for i, j in itertools.combinations(block, 2):
            cleared = ref_mul(cleared, {z(i): one, z(j): -one}, zero)
    for i in range(alpha):
        for j in range(alpha, nvars):
            cleared = ref_mul(cleared, {z(i): ref_t, z(j): -one}, zero)
    shifted = {e: c * ref_q ** sum(e[:alpha]) for e, c in f.items()}
    inv = one / (factorial(alpha) * factorial(nvars - alpha))
    out = {}
    for zkey, payload in ref_signed_buckets(ref_mul(cleared, shifted, zero), 0).items():
        lam = tuple(zkey[i] - (nvars - 1 - i) for i in range(nvars))
        off = lam[-1]
        for e, cs in ref_schur(normalize_partition(tuple(x - off for x in lam)), nvars).terms():
            key = tuple(x + off for x in e[1:])
            out[key] = out.get(key, zero) + payload * inv * cs
    return {k: c for k, c in out.items() if c}


def ref_macdonald_poly(lam, nvars: int):
    """(P_lam as {z-tuple: QT_REF element}, eigenvalue) by the triangular
    solve in the field: c_mu = (sum_nu a_{mu nu} c_nu) / (eig - a_{mu mu})."""
    lam = normalize_partition(lam)
    basis = sorted(partitions(sum(lam), nvars), reverse=True)
    columns = {}
    for mu in basis:
        image = ref_apply_macdonald_qt(1, _ref_monomial_sym(mu, nvars), nvars)
        columns[mu] = {
            normalize_partition(e): c for e, c in image.items() if list(e) == sorted(e, reverse=True)
        }
    eig = columns[lam].get(lam, QT_REF.zero)
    coeffs = {lam: QT_REF.one}
    for mu in basis:
        if mu >= lam:
            continue
        acc = sum((columns[nu][mu] * c for nu, c in coeffs.items() if mu in columns[nu]), QT_REF.zero)
        if acc:
            coeffs[mu] = acc / (eig - columns[mu].get(mu, QT_REF.zero))
    poly = {}
    for mu, c in coeffs.items():
        for e in _ref_monomial_sym(mu, nvars):
            poly[e] = c
    return poly, eig


def _univariate_div(num: dict, den: dict) -> dict:
    """Exact division of Laurent polynomials in one variable over QQ, given
    as {exponent: QQ coefficient}; raises NotDivisible on a remainder."""
    lo_n, lo_d = min(num), min(den)
    work = {e - lo_n: c for e, c in num.items()}
    d = {e - lo_d: c for e, c in den.items()}
    dtop = max(d)
    quot = {}
    while work:
        top = max(work)
        if top < dtop:
            raise NotDivisible("univariate remainder is nonzero")
        qe, qc = top - dtop, work[top] / d[dtop]
        quot[qe] = qc
        for e, c in d.items():
            nv = work.get(qe + e, QQ.zero) - qc * c
            if nv:
                work[qe + e] = nv
            else:
                work.pop(qe + e, None)
    return {e + lo_n - lo_d: c for e, c in quot.items()}


class PoleAtZero(ArithmeticError):
    """A reduced fraction's denominator vanishes at t = 0."""


def ref_specialize_t0_qinv(c) -> dict:
    """t = 0 then q -> q**-1 of a QT_REF element (a reduced fraction), as
    {q-exponent: int}; ``PoleAtZero`` when the denominator vanishes at t = 0."""
    num = {m[0]: v for m, v in c.numer.terms() if m[1] == 0}
    den = {m[0]: v for m, v in c.denom.terms() if m[1] == 0}
    if not den:
        raise PoleAtZero("denominator vanishes at t = 0")
    if not num:
        return {}
    out = {}
    for e, v in _univariate_div({-e: v for e, v in num.items()}, {-e: v for e, v in den.items()}).items():
        if QQ.denom(v) != 1:
            raise NotDivisible("coefficient %s is not an integer" % (v,))
        out[e] = int(QQ.numer(v))
    return out


# -- the two-block branching rule ----------------------------------------------------


def branch(lam, alpha: int):
    """The two-block expansion s_lam(x, y) = sum c^lam_{mu nu} s_mu(x) s_nu(y)
    in N = len(lam) variables, x the first ``alpha`` and y the rest, as
    (mu, nu, c) with len(mu) = alpha and len(nu) = N - alpha, by pruned
    Littlewood-Richardson fillings from the block with fewer variables.
    Negative parts are allowed: the full column (z_1...z_N)**lam_N is
    factored out, and the expansion of the partition left over is cached."""
    lam = tuple(lam)
    if not lam or any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)) or not 0 <= alpha <= len(lam):
        raise ValueError("cannot branch %r at alpha = %d" % (lam, alpha))
    off = lam[-1]
    core = _branch_partition(tuple(x - off for x in lam), alpha)
    return tuple((tuple(x + off for x in mu), tuple(x + off for x in nu), c) for mu, nu, c in core)


def _ref_lr_contents(lam, mu, letters):
    """{nu: c^lam_{mu nu}} over nu with at most ``letters`` parts, counting
    the Littlewood-Richardson tableaux of shape lam/mu (Macdonald, I.9): rows
    weakly increase, columns strictly increase, and the word read right to
    left, top to bottom, is a lattice word."""
    out = {}

    def fill(i, counts, above):
        if i == len(lam):
            out[counts] = out.get(counts, 0) + 1
            return
        lo, hi = mu[i], lam[i]
        # row i holds letters <= i + 1, read largest first, so letter k > 1
        # occurs at most counts[k-2] - counts[k-1] times
        top = min(i + 1, letters)
        caps = [hi - lo] + [counts[k - 1] - counts[k] for k in range(1, top)]
        for m in itertools.product(*(range(min(c, hi - lo) + 1) for c in caps[:top])):
            row = tuple(k + 1 for k, mk in enumerate(m) for _ in range(mk))
            if len(row) == hi - lo and all(row[j - lo] > above[j] for j in range(lo, hi)):
                grown = tuple(c + m[k] if k < top else c for k, c in enumerate(counts))
                fill(i + 1, grown, (0,) * lo + row)

    fill(0, (0,) * letters, (0,) * lam[0])
    return out


def ref_branch(lam, alpha: int) -> list:
    """(mu, nu, c) with s_lam(x, y) = sum c s_mu(x) s_nu(y), x the first
    ``alpha`` of the len(lam) variables: every mu inside lam[:alpha] is
    tried, and the full column (z_1...z_N)**lam_N is factored out first."""
    lam = tuple(lam)
    off = lam[-1]
    core = tuple(x - off for x in lam)
    out = []
    for mu in itertools.product(*(range(p + 1) for p in core[:alpha])):
        if all(mu[i] >= mu[i + 1] for i in range(alpha - 1)):
            padded = mu + (0,) * (len(core) - alpha)
            for nu, c in _ref_lr_contents(core, padded, len(core) - alpha).items():
                out.append((tuple(x + off for x in mu), tuple(x + off for x in nu), c))
    return out


def weight_of(lam, rank: int):
    """The dominant-weight labels (ell_1, ..., ell_r) of a partition, the
    inverse of ``symfun.partition_of_weight``."""
    if len(lam) > rank + 1:
        raise ValueError("partition is too long for the rank")
    lam = tuple(lam) + (0,) * (rank + 1 - len(lam))
    return tuple(lam[a] - lam[a + 1] for a in range(rank))


def check_toda_eigen(n_values, order: int) -> bool:
    """Both fundamental series satisfy the three-term relation to the given
    truncation order for every n >= 1 in ``n_values`` (n = 0 entries are
    skipped; see ``whittaker.toda_residual``)."""
    return all(
        toda_residual(n, order, refl).is_zero()
        for n in n_values
        if n >= 1
        for refl in (False, True)
    )


def check_polynomiality(rank: int, word, table=None) -> bool:
    """ev0 of a product of Q_{a,k} with k >= 1 must be polynomial in the
    Q_{b,1}; ``word`` is a sequence of (alpha, k) letters."""
    table = table or q_recursion(rank, max([k for _, k in word] + [1]))
    return ev0_negative_term(ev0_image(rank, word, table)) is None
