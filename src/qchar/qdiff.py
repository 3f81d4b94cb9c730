"""q-difference operators acting on symmetric Laurent polynomials.

Three families act in r+1 variables:

* ``apply_M(alpha, n, f)``   -- subset operators sum_{|I|=alpha} z_I**n a_I(z) G_I,
  where ``G_I`` scales each z_i, i in I, by q and
  ``a_I = prod_{i in I, j not in I} z_i / (z_i - z_j)``;
* ``apply_D(alpha, n, f)``   -- the same sum with the twisted shift (every
  variable scaled by v, subset variables by q besides) and the prefactor
  ``v**(-lam(a,a)*n/2 - sum_b lam(a,b))``, acting on W-ring coefficients;
* ``apply_macdonald_qt(alpha, f)`` -- the classical Macdonald operator with
  coefficients prod (t z_i - z_j)/(z_i - z_j), over QQ(q, t).

Every rational subset sum is evaluated exactly by clearing the Vandermonde
denominator, compressed into a single signed permutation orbit: with
``I0 = {1..alpha}``, the Vandermonde-cleared summand for ``I0`` is
antisymmetrized in canonical alternant form, and the quotient by the
Vandermonde is read off Schur-function by Schur-function.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from .cartan import CartanData
from .laurent import (
    LaurentPoly,
    delta_on,
    require_symmetric,
    signed_buckets,
)
from .rings import (
    RING_Q,
    RING_QT,
    RING_W,
    NotDivisible,
    qt_int,
    qt_q,
    qt_t,
)
from .symfun import _schur_zcoeffs, normalize_partition


@lru_cache(maxsize=None)
def _pair_delta(ring, nvars, alpha):
    """delta_{I0} * delta_{J0} for I0 = first alpha variables."""
    return delta_on(ring, nvars, range(alpha)) * delta_on(
        ring, nvars, range(alpha, nvars)
    )


@lru_cache(maxsize=None)
def _pair_delta_qt(nvars, alpha):
    """delta_{I0} * delta_{J0} * prod_{i in I0, j in J0} (t z_i - z_j)."""
    out = _pair_delta(RING_QT, nvars, alpha)
    for i in range(alpha):
        for j in range(alpha, nvars):
            zi = LaurentPoly.variable(RING_QT, nvars, i)
            zj = LaurentPoly.variable(RING_QT, nvars, j)
            out = out * (zi.times_scalar_raw(qt_t) - zj)
    return out


def _unit_shift_gamma(ring, rank):
    """Unit-exponent increment of the q-scaling of the first alpha variables."""
    if ring == RING_Q:
        return 1
    if ring == RING_W:
        return -2 * (rank + 1)
    raise ValueError("unexpected ring %r" % ring)


def _schur_reconstruct_folded(buckets, nvars, den):
    """Rebuild sum_buckets payload * alternant(key) / Vandermonde / den for
    the folded integer rings."""
    out = {}
    for zkey, payload in buckets.items():
        lam = tuple(zkey[i] - (nvars - 1 - i) for i in range(nvars))
        off = lam[-1]
        core = normalize_partition(tuple(x - off for x in lam))
        for ez, cs in _schur_zcoeffs(core, nvars).items():
            if off:
                zz = tuple(e + off for e in ez)
            else:
                zz = ez
            for u, cu in payload.items():
                kk = (u,) + zz
                nv = out.get(kk, 0) + cu * cs
                if nv:
                    out[kk] = nv
                else:
                    del out[kk]
    if den != 1:
        for k, c in out.items():
            q, r = divmod(c, den)
            if r:
                raise NotDivisible("orbit sum not divisible by %d" % den)
            out[k] = q
    return out


def _schur_reconstruct_qt(buckets, nvars, den):
    out = {}
    inv = QTONE / qt_int(den)
    for zkey, payload in buckets.items():
        lam = tuple(zkey[i] - (nvars - 1 - i) for i in range(nvars))
        off = lam[-1]
        core = normalize_partition(tuple(x - off for x in lam))
        c0 = payload * inv
        for ez, cs in _schur_zcoeffs(core, nvars).items():
            zz = tuple(e + off for e in ez) if off else ez
            cur = out.get(zz)
            nv = c0 * cs if cur is None else cur + c0 * cs
            if nv:
                out[zz] = nv
            else:
                del out[zz]
    return out


QTONE = qt_int(1)


def _orbit_apply_folded(f, alpha, power, du_subset, du_all):
    """Shared orbit kernel for the integer rings.

    ``du_subset``/``du_all`` give the unit-exponent shift per unit of
    z-degree inside the subset / across all variables.
    """
    nvars = f.nvars
    shifted = {}
    for k, c in f.coeffs.items():
        du = du_subset * sum(k[1 : 1 + alpha]) + du_all * sum(k[1:])
        shifted[(k[0] + du,) + k[1:]] = c
    t0 = _pair_delta(f.ring, nvars, alpha) * LaurentPoly(f.ring, nvars, shifted)
    step = power + nvars - alpha
    if step:
        t0 = t0.times_z(tuple(step if i < alpha else 0 for i in range(nvars)))
    den = factorial(alpha) * factorial(nvars - alpha)
    return LaurentPoly(
        f.ring, nvars, _schur_reconstruct_folded(signed_buckets(t0), nvars, den)
    )


def apply_M(alpha, n, f, *, rank=None, checked=False):
    """Act with the subset raising operator of index ``alpha`` and power ``n``
    on a symmetric polynomial ``f`` in r+1 variables (integer-ring
    coefficients; the shift scales subset variables by q)."""
    r = f.nvars - 1 if rank is None else rank
    if f.nvars != r + 1:
        raise ValueError("operator rank does not match the variable count")
    if not 0 <= alpha <= r + 1:
        raise ValueError("alpha out of range [0, r+1]")
    if not checked:
        require_symmetric(f)
    if alpha == 0 or f.is_zero():
        return f
    return _orbit_apply_folded(f, alpha, n, _unit_shift_gamma(f.ring, r), 0)


def apply_D(alpha, n, f, *, rank=None, checked=False):
    """Act with the twisted raising operator (W-ring): subset variables are
    scaled by q*v, the rest by v, and the result carries the prefactor
    ``w**(-lam(a,a)*n - 2*sum_b lam(a,b))``."""
    if f.ring != RING_W:
        raise ValueError("the twisted operator needs W-ring coefficients")
    r = f.nvars - 1 if rank is None else rank
    if f.nvars != r + 1:
        raise ValueError("operator rank does not match the variable count")
    if not 0 <= alpha <= r + 1:
        raise ValueError("alpha out of range [0, r+1]")
    if not checked:
        require_symmetric(f)
    cart = CartanData(r)
    wshift = -cart.lam(alpha, alpha) * n - 2 * cart.lam_row_sum(alpha)
    if f.is_zero():
        return f
    if alpha == 0:
        return f.times_unit(wshift)
    out = _orbit_apply_folded(f, alpha, n, -2 * (r + 1), 2 * alpha)
    return out.times_unit(wshift)


def apply_macdonald_qt(alpha, f, *, checked=False):
    """Act with the classical Macdonald operator of index ``alpha`` on a
    symmetric polynomial with QQ(q, t) coefficients."""
    if f.ring != RING_QT:
        raise ValueError("Macdonald operator needs QT coefficients")
    nvars = f.nvars
    if not 0 <= alpha <= nvars:
        raise ValueError("alpha out of range [0, N]")
    if not checked:
        require_symmetric(f)
    if alpha == 0 or f.is_zero():
        return f
    shifted = {}
    for k, c in f.coeffs.items():
        s = sum(k[:alpha])
        shifted[k] = c * qt_q**s if s else c
    t0 = _pair_delta_qt(nvars, alpha) * LaurentPoly(RING_QT, nvars, shifted)
    den = factorial(alpha) * factorial(nvars - alpha)
    return LaurentPoly(
        RING_QT, nvars, _schur_reconstruct_qt(signed_buckets(t0), nvars, den)
    )
