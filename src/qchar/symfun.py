"""Schur and related symmetric functions, plus the Pieri rule.

Partitions are plain tuples of weakly decreasing nonnegative integers with no
trailing zeros (the empty partition is ``()``).  A partition of length at
most r corresponds to the dominant sl(r+1) weight with labels
``ell_a = lam_a - lam_{a+1}``.
"""

from __future__ import annotations

from functools import lru_cache

from .laurent import (
    LaurentPoly,
    alternant,
    exact_div,
    vandermonde,
)
from .rings import RING_Q, RING_QT, NonzeroRemainder, NotSymmetric, Scalar


Partition = tuple


def normalize_partition(parts) -> Partition:
    """Strip trailing zeros and validate weak decrease."""
    parts = tuple(parts)
    if any(p < 0 for p in parts):
        raise ValueError("partition parts must be nonnegative")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError("partition parts must be weakly decreasing")
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


def partitions(size: int, max_len: int, max_part: int | None = None):
    """All partitions of ``size`` with at most ``max_len`` parts."""
    if max_part is None:
        max_part = size
    if size == 0:
        yield ()
        return
    if max_len == 0:
        return
    for first in range(min(size, max_part), 0, -1):
        for rest in partitions(size - first, max_len - 1, first):
            yield (first,) + rest


def partitions_up_to(size: int, max_len: int):
    for s in range(size + 1):
        yield from partitions(s, max_len)


def dominates(lam: Partition, mu: Partition) -> bool:
    """True when lam >= mu in dominance order (equal sizes assumed)."""
    tot_l = tot_m = 0
    for i in range(max(len(lam), len(mu))):
        tot_l += lam[i] if i < len(lam) else 0
        tot_m += mu[i] if i < len(mu) else 0
        if tot_l < tot_m:
            return False
    return tot_l == tot_m


def weight_of(lam: Partition, rank: int):
    """The dominant-weight labels (ell_1, ..., ell_r) of a partition."""
    if len(lam) > rank + 1:
        raise ValueError("partition is too long for the rank")
    lam = tuple(lam) + (0,) * (rank + 1 - len(lam))
    return tuple(lam[a] - lam[a + 1] for a in range(rank))


def partition_of_weight(ell) -> Partition:
    """Inverse of ``weight_of`` with the last part pinned to zero."""
    r = len(ell)
    return normalize_partition(tuple(sum(ell[a:]) for a in range(r)) + (0,))


@lru_cache(maxsize=None)
def _schur_zcoeffs(lam: Partition, nvars: int):
    """Coefficient dict {z-exponents: int} of the Schur polynomial s_lam.

    Computed as the ratio of the alternant at lam + delta by the Vandermonde
    determinant; the division is exact.
    """
    lam = normalize_partition(lam)
    if len(lam) > nvars:
        raise ValueError("partition longer than the variable count")
    full = tuple(lam) + (0,) * (nvars - len(lam))
    exps = tuple(full[i] + (nvars - 1 - i) for i in range(nvars))
    num = alternant(RING_Q, nvars, exps)
    s = exact_div(num, vandermonde(RING_Q, nvars))
    return {k[1:]: c for k, c in s.coeffs.items()}


def schur(lam, nvars: int, ring=RING_Q) -> LaurentPoly:
    """The Schur polynomial s_lam(z_1..z_N) over the requested ring."""
    from .rings import qt_int

    zc = _schur_zcoeffs(normalize_partition(lam), nvars)
    if ring == RING_QT:
        return LaurentPoly(ring, nvars, {k: qt_int(c) for k, c in zc.items()})
    return LaurentPoly(ring, nvars, {(0,) + k: c for k, c in zc.items()})


def elementary(m: int, nvars: int, ring=RING_Q) -> LaurentPoly:
    """The elementary symmetric polynomial e_m; e_0 = 1, e_m = 0 for m > N."""
    if m < 0 or m > nvars:
        return LaurentPoly.zero(ring, nvars)
    return schur((1,) * m, nvars, ring) if m else LaurentPoly.one(ring, nvars)


def monomial_sym(lam, nvars: int, ring=RING_Q) -> LaurentPoly:
    """The monomial symmetric polynomial m_lam(z_1..z_N)."""
    from itertools import permutations

    from .rings import qt_int

    lam = normalize_partition(lam)
    if len(lam) > nvars:
        return LaurentPoly.zero(ring, nvars)
    full = tuple(lam) + (0,) * (nvars - len(lam))
    orbit = set(permutations(full))
    if ring == RING_QT:
        one = qt_int(1)
        return LaurentPoly(ring, nvars, {e: one for e in orbit})
    return LaurentPoly(ring, nvars, {(0,) + e: 1 for e in orbit})


def schur_expand(f: LaurentPoly) -> dict:
    """Expand a symmetric polynomial in the Schur basis.

    Returns {partition: Scalar}.  Raises ``NotSymmetric`` for asymmetric
    input and ``NonzeroRemainder`` when peeling gets stuck (negative
    exponents, or a leading monomial that is not a partition)."""
    if not f.is_symmetric():
        raise NotSymmetric("Schur expansion needs a symmetric polynomial")
    zo = f.zoff
    for k in f.coeffs:
        if any(e < 0 for e in k[zo:]):
            raise NonzeroRemainder("input has negative exponents")

    out = {}
    work = dict(f.coeffs)
    nvars = f.nvars
    while work:
        lead = max(work, key=lambda k: k[zo:])
        lam = lead[zo:]
        if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
            raise NonzeroRemainder("leading exponent %r is not a partition" % (lam,))
        if zo:
            coeff = Scalar(f.ring, {k[0]: c for k, c in work.items() if k[1:] == lam})
        else:
            coeff = Scalar(f.ring, work[lead])
        key = normalize_partition(lam)
        out[key] = coeff
        piece = schur(key, nvars, f.ring).times_scalar(coeff)
        for k, c in piece.coeffs.items():
            cur = work.get(k)
            nv = -c if cur is None else cur - c
            if nv:
                work[k] = nv
            else:
                work.pop(k, None)
    return out


def pieri_e(lam, m: int, nvars: int):
    """Partitions mu with s_lam * e_m = sum of s_mu in N variables: add m
    boxes, at most one per row, keeping at most N rows."""
    lam = normalize_partition(lam)
    if len(lam) > nvars:
        raise ValueError("partition longer than the variable count")
    full = list(lam) + [0] * (nvars - len(lam))
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
        grow(0, m, list(full))
    return sorted(out, reverse=True)
