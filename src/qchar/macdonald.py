"""The classical Macdonald operator over Z[q, t] and Macdonald polynomials.

A coefficient in Z[q, q**-1, t, t**-1] is a payload {unit offset: int}, the
offset of (i, j) (``laurent.offset``) for c q**i t**j: q in the lowest slot,
t in the next, so adding offsets multiplies monomials.  ``_qt`` forms an
offset with its range check, ``_times`` multiplies payloads and
``_t_slices`` reads one by powers of t; no (q, t) coefficient is ever a
``LaurentPoly``.

``apply_macdonald_m(alpha, m, N)`` acts with the Macdonald operator of index
alpha, coefficients prod (t z_i - z_j)/(z_i - z_j) over the alpha-subsets I
and a q-shift of the z_i, i in I, on m-forms {mu: payload}, the sum of
payload * m_mu over weakly decreasing N-vectors mu.  On m_mu its
Vandermonde-cleared subset sum is one z-part per block orbit of z**mu, each
times each term of the cleared factor straightened once (``_cleared``), the
Schur coefficients divided by alpha! (N - alpha)! exactly and read back by
Kostka numbers (``to_m_basis``).

``macdonald_poly`` builds Macdonald's integral form J_lam = c_lam P_lam,
c_lam = prod_{s in lam} (1 - q**a(s) t**(l(s)+1)) (*Symmetric Functions and
Hall Polynomials*, VI.8), as the eigenvector of the first Macdonald
difference operator with c_lam on m_lam, by a triangular solve on m-forms.
Its m-coefficients lie in Z[q, t] (Knop, *Integrality of two variable
Kostka functions*, 1997), so each one is a single exact division by an
eigenvalue gap (``_divide_gap``) on payloads, and the result is verified
by the eigen-relation

    M_1^{q,t} J = (sum_i q**lam_i t**(N-i)) J

on m-forms.  This path never touches the raising-operator machinery of
``qdiff``, so its t = 0, q -> q**-1 specialization is a genuine cross-check
of the level-1 characters; since c_lam(q, 0) = 1, that limit is J's t**0
slice.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import combinations, permutations
from math import factorial

from .laurent import SLOT_BITS, LaurentPoly, _add_into, box_sum, divide_binomial, key_bounds, pack, require_fit, split_unit, straighten, zero_key
from .records import FrozenRecord
from .rings import RING_Q, DegenerateEigenvalue, NotDivisible
from .symfun import _schur_zcoeffs, normalize_partition, partitions


# -- (q, t) payloads ---------------------------------------------------------


def _qt(i, j):
    """The unit offset of q**i t**j; ``ExponentOverflow`` outside the slots."""
    return pack((i, j)) - zero_key(2)


def _times(a, b):
    """The product of two payloads; ``ExponentOverflow`` from their slot
    bounds before any term is formed."""
    if not a or not b:
        return {}
    zero = zero_key(2)
    box_sum(key_bounds([u + zero for u in a], 2), key_bounds([u + zero for u in b], 2))
    out = {}
    for u, c in a.items():
        for v, d in b.items():
            out[u + v] = out.get(u + v, 0) + c * d
    return {k: c for k, c in out.items() if c}


def _t_slices(d) -> dict:
    """{j: {i: c}}: the terms c q**i t**j of a payload by their t-exponent."""
    out, zero, bias = {}, zero_key(2), zero_key(1)
    for u, c in d.items():
        i, j = split_unit(u + zero)
        out.setdefault(j - bias, {})[i] = c
    return out


# -- the operator on m-forms -------------------------------------------------


@lru_cache(maxsize=16)
def _pair_delta_qt(nvars, alpha):
    """The terms (z-vector less delta, t-power's unit offset, c) of P = delta_I
    delta_J prod_{i in I, j in J} (t z_i - z_j), I the first alpha variables,
    built over the Q ring with t in the unit slot."""
    z = [LaurentPoly.variable(RING_Q, nvars, i) for i in range(nvars)]
    out = LaurentPoly.one(RING_Q, nvars)
    for i, j in combinations(range(nvars), 2):
        out = out * ((z[i].times_unit(1) if i < alpha <= j else z[i]) - z[j])
    return tuple((tuple(x - i for x, i in zip(e[1:], range(nvars - 1, -1, -1))), e[0] << SLOT_BITS, c) for e, c in out.terms())


def _splits(mu, alpha):
    """(a + b, |a|, orbit size) for each orbit of S_alpha x S_{N - alpha} on
    the permutations of mu, a + b its member with both blocks decreasing."""
    blocks = {tuple(mu[i] for i in a): tuple(mu[i] for i in range(len(mu)) if i not in a) for a in combinations(range(len(mu)), alpha)}
    return sorted((a + b, sum(a), len(set(permutations(a))) * len(set(permutations(b)))) for a, b in blocks.items())


@lru_cache(maxsize=1 << 12)
def _cleared(mu, alpha):
    """alpha! (N - alpha)! M_alpha m_mu as ((lam, ((unit offset, c), ...)), ...)
    in the Schur basis: the signed orbit of P m_mu(q x, y) over a_delta.  P
    (``_pair_delta_qt``) is antisymmetric and m_mu(q x, y) symmetric under
    S_alpha x S_{N - alpha}, so each block orbit of z**mu adds its size times
    the signed orbit of P z**e, e its member in ``_splits``."""
    out = {}
    for e, shift, size in _splits(mu, alpha):
        for p, v, c in _pair_delta_qt(len(mu), alpha):
            sign, lam = straighten([x + y for x, y in zip(e, p)])
            if sign:
                _add_into(out.setdefault(lam, {}), ((v + shift, sign * size * c),))
    return tuple((lam, tuple(d.items())) for lam, d in out.items())


@lru_cache(maxsize=1 << 12)
def _kostka(lam, nvars):
    """((mu, K_{lam mu}), ...): the dominant terms of the cached s_lam."""
    return tuple((mu, d[0]) for mu, d in _schur_zcoeffs(lam, nvars).z_terms().items() if mu == tuple(sorted(mu, reverse=True)))


def to_m_basis(coeffs, nvars) -> dict:
    """The m-form of sum payload * s_lam over ``coeffs`` = {lam: payload},
    by Kostka numbers: s_lam = sum_mu K_{lam - lam_N, mu} m_{mu + lam_N}."""
    out = {}
    for lam, payload in coeffs.items():
        for mu, k in _kostka(normalize_partition(x - lam[-1] for x in lam), nvars):
            _add_into(out.setdefault(tuple(x + lam[-1] for x in mu), {}), ((u, k * c) for u, c in payload.items()))
    return {mu: d for mu, d in out.items() if d}


def apply_macdonald_m(alpha, m, nvars) -> dict:
    """The Macdonald operator of index alpha in [0, N] on an m-form {mu:
    payload} for sum payload * m_mu, mu weakly decreasing N-vectors (else
    ValueError, before any work): the ``_cleared`` images divided by alpha!
    (N - alpha)! exactly (else ``NotDivisible``) and read back.  The cleared
    offsets of m_mu run over q**|a|, from the alpha least parts of mu to the
    alpha greatest, times t**0 to t**(alpha (N - alpha)), each end reached,
    so ``ExponentOverflow`` is raised exactly when a payload offset plus a
    cleared one leaves a unit slot."""
    if not 0 <= alpha <= nvars:
        raise ValueError("alpha %r outside [0, %d]" % (alpha, nvars))
    for mu in m:
        if len(mu) != nvars or any(a < b for a, b in zip(mu, mu[1:])):
            raise ValueError("m-form key %r is not a weakly decreasing %d-vector" % (mu, nvars))
    cleared, zero = {}, zero_key(2)
    for mu, payload in m.items():
        if payload:
            lo, hi = key_bounds([u + zero for u in payload], 2)
            require_fit((lo[0] + sum(mu[nvars - alpha :]),), (hi[0] + sum(mu[:alpha]), hi[1] + alpha * (nvars - alpha)))
        for lam, image in _cleared(mu, alpha):
            acc = cleared.setdefault(lam, {})
            for v, d in image:
                for u, c in payload.items():
                    acc[u + v] = acc.get(u + v, 0) + c * d
    den = factorial(alpha) * factorial(nvars - alpha)
    if any(c % den for d in cleared.values() for c in d.values()):
        raise NotDivisible("orbit sum not divisible by %d" % den)
    return to_m_basis({lam: {u: c // den for u, c in d.items()} for lam, d in cleared.items()}, nvars)


# -- the integral form --------------------------------------------------------


class MacdonaldPoly(FrozenRecord):
    """J_lam as the m-form {mu: payload} that the eigen-check verified,
    c_lam on m_lam, and its eigenvalue sum_i q**lam_i t**(N-i), a payload."""

    __slots__ = ("lam", "nvars", "form", "eigenvalue")

    def __init__(self, lam: tuple, nvars: int, form: dict, eigenvalue: dict):
        self._set(lam, nvars, form, eigenvalue)


def eigenvalue_formula(lam, nvars):
    """sum_i q**lam_i t**(N-i) with lam padded by zeros to length N."""
    full = tuple(lam) + (0,) * (nvars - len(lam))
    return {_qt(part, nvars - 1 - i): 1 for i, part in enumerate(full)}


def integral_norm(lam):
    """c_lam = prod over the cells (i, j) of lam of 1 - q**(lam_i - j - 1)
    t**(lam'_j - i), 0-based: arm a(s) and leg l(s) + 1."""
    cells = ((part - j - 1, sum(p > j for p in lam[i:])) for i, part in enumerate(lam) for j in range(part))
    return reduce(_times, ({0: 1, _qt(*cell): -1} for cell in cells), {0: 1})


def _column(mu, nvars) -> dict:
    """M_1 m_mu as {nu: payload}, mu and nu weakly decreasing N-vectors."""
    return apply_macdonald_m(1, {mu: {0: 1}}, nvars)


def _divide_gap(f: dict, gap: dict) -> dict:
    """f / gap for payloads, exactly, the lowest t-slice of ``gap`` a
    binomial +-q**e (1 - q**d), d > 0: for e_lam - e_nu, q**lam_j - q**nu_j
    at the last row j where lam and nu differ.  From the lowest t-order up,
    each quotient slice is one ``divide_binomial`` pass in q over the
    dividend's lowest slice, and the gap's higher slices times it leave the
    dividend's higher ones.  A remainder raises ``NotDivisible``."""
    higher = _t_slices(gap)
    low, high = min(higher), max(higher)
    binomial = sorted(higher.pop(low).items())
    if [c for _, c in binomial] not in ([1, -1], [-1, 1]):
        raise NotDivisible("the gap's lowest t-slice is no binomial +-q**e (1 - q**d)")
    (e, sign), (top, _) = binomial
    step, rem, quotient = top - e, _t_slices(f), {}
    for order in range(min(rem, default=0), max(rem, default=-1) + low - high + 1):
        exps = rem.pop(order, None)  # {q-exponent: int}
        if not exps:
            continue
        base = min(exps)
        rows = [{0: exps[i]} if i in exps else {} for i in range(base, max(exps) + 1)]
        divide_binomial(rows, 0, step)
        size = len(rows) - step
        if size <= 0 or any(rows[size:]):
            raise NotDivisible("no exact quotient by the binomial 1 - q**%d" % step)
        part = [(base + i - e, sign * c) for i, row in enumerate(rows[:size]) for c in row.values()]
        quotient.update((_qt(i, order - low), c) for i, c in part)
        for j, g in higher.items():
            _add_into(rem.setdefault(j + order - low, {}), ((i + k, -c * x) for i, c in part for k, x in g.items()))
    if any(rem.values()):
        raise NotDivisible("no exact quotient by the eigenvalue gap")
    return quotient


def macdonald_poly(lam, nvars: int) -> MacdonaldPoly:
    """The integral form J_lam(z_1..z_N; q, t) = c_lam P_lam, exactly."""
    lam = normalize_partition(lam)
    if nvars < 1 or len(lam) > nvars:
        raise ValueError("partition %r does not fit %d variables" % (lam, nvars))
    # an m-form keys m_mu by mu padded to N parts, in the order of the partitions
    basis = [mu + (0,) * (nvars - len(mu)) for mu in sorted(partitions(sum(lam), nvars), reverse=True)]
    columns, top = {mu: _column(mu, nvars) for mu in basis}, lam + (0,) * (nvars - len(lam))
    eig = columns[top].get(top, {})
    # J_lam = sum_mu coeffs[mu] m_mu; each lower coefficient is the column sum
    # over the higher ones, divided by its eigenvalue gap
    coeffs = {top: integral_norm(lam)}
    for mu in basis:
        if mu >= top:
            continue
        acc = {}
        for nu, c in coeffs.items():
            if mu in columns[nu]:
                _add_into(acc, _times(columns[nu][mu], c).items())
        if not acc:
            continue
        gap = _add_into(dict(eig), ((u, -c) for u, c in columns[mu].get(mu, {}).items()))
        if not gap:
            raise DegenerateEigenvalue("eigenvalue collision between %r and %r" % (lam, normalize_partition(mu)))
        coeffs[mu] = _divide_gap(acc, gap)

    if eig != eigenvalue_formula(lam, nvars):
        raise ArithmeticError("triangular eigenvalue disagrees with the formula")
    if apply_macdonald_m(1, coeffs, nvars) != {mu: _times(c, eig) for mu, c in coeffs.items()}:
        raise ArithmeticError("eigen-relation failed for %r" % (lam,))
    return MacdonaldPoly(lam, nvars, coeffs, eig)


# -- specializations ---------------------------------------------------------


def qt_t_infinity_limit(m: dict, shift: int) -> dict:
    """lim_{t -> oo} t**(-shift) m, coefficientwise, for an m-form m over
    (q, t): each payload's terms of t-degree ``shift``, as a Q m-form {mu:
    {q-exponent: int}}.  Raises ``ArithmeticError`` when a coefficient has a
    higher t-degree and the limit diverges."""
    slices = {mu: _t_slices(d) for mu, d in m.items()}
    if any(max(s, default=shift) > shift for s in slices.values()):
        raise ArithmeticError("t -> oo limit diverges")
    return {mu: s[shift] for mu, s in slices.items() if shift in s}


def qwhittaker_specialize(J: MacdonaldPoly) -> dict:
    """The q-Whittaker specialization, t = 0 then q -> q**-1, on m-forms:
    {mu: {q-exponent: int}}, J's t**0 slice read in q**-1.  c_lam(q, 0) = 1,
    so this is P_lam's limit too, and for a Macdonald polynomial exactly a
    level-1 graded character."""
    slices = {mu: _t_slices(d) for mu, d in J.form.items()}
    return {mu: {-e: x for e, x in s[0].items()} for mu, s in slices.items() if 0 in s}
