"""Sparse multivariate Laurent polynomials with exact coefficients.

A polynomial in ``z_1 .. z_N`` is a finite map from exponent vectors to
nonzero coefficients.  For the integer rings (``RING_W``, ``RING_Q``) the
scalar exponent is folded into slot 0 of the key, so the term
``c * u**j * z1**e1 * ... * zN**eN`` is stored as ``{(j, e1, .., eN): c}``
with ``c`` a Python integer.  For ``RING_QT`` the key is just the z-exponent
vector and the coefficient is a sympy fraction-field element.

Everything here is exact; division raises ``NotDivisible`` rather than
truncating.  Values are immutable by convention: no method mutates ``self``.
"""

from __future__ import annotations

import heapq
import itertools
from functools import lru_cache

from .rings import (
    RING_Q,
    RING_QT,
    RING_W,
    ExponentNotDivisible,
    NotDivisible,
    NotSymmetric,
    Scalar,
    qt_int,
)


def _sorted_sign(exps):
    """Sort a tuple into weakly decreasing order, tracking permutation parity.

    Returns ``(sorted_tuple, sign)``; the sign is 0 when an entry repeats.
    """
    lst = list(exps)
    n = len(lst)
    sign = 1
    for i in range(1, n):
        x = lst[i]
        j = i - 1
        while j >= 0 and lst[j] < x:
            lst[j + 1] = lst[j]
            j -= 1
            sign = -sign
        lst[j + 1] = x
    for i in range(n - 1):
        if lst[i] == lst[i + 1]:
            return tuple(lst), 0
    return tuple(lst), sign


@lru_cache(maxsize=None)
def perms_with_sign(n):
    out = []
    for p in itertools.permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])
        out.append((p, -1 if inv % 2 else 1))
    return out


class LaurentPoly:
    """A sparse Laurent polynomial over one of the scalar rings."""

    __slots__ = ("ring", "nvars", "coeffs")

    def __init__(self, ring, nvars, coeffs):
        # Trusted constructor: ``coeffs`` must already be canonical
        # (no zero values, correct key length).
        self.ring = ring
        self.nvars = nvars
        self.coeffs = coeffs

    @property
    def zoff(self) -> int:
        """Index of the first z-slot in exponent keys."""
        return 0 if self.ring == RING_QT else 1

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring, nvars):
        return cls(ring, nvars, {})

    @classmethod
    def from_int(cls, ring, nvars, n: int):
        if not n:
            return cls.zero(ring, nvars)
        if ring == RING_QT:
            return cls(ring, nvars, {(0,) * nvars: qt_int(n)})
        return cls(ring, nvars, {(0,) * (nvars + 1): n})

    @classmethod
    def one(cls, ring, nvars):
        return cls.from_int(ring, nvars, 1)

    @classmethod
    def monomial(cls, ring, nvars, zexps, coeff=1, unit=0):
        """coeff * u**unit * z**zexps  (``unit`` ignored for the QT ring)."""
        zexps = tuple(zexps)
        if len(zexps) != nvars:
            raise ValueError("exponent vector has wrong length")
        if ring == RING_QT:
            c = coeff if not isinstance(coeff, int) else qt_int(coeff)
            return cls(ring, nvars, {zexps: c} if c else {})
        if not coeff:
            return cls.zero(ring, nvars)
        return cls(ring, nvars, {(unit,) + zexps: coeff})

    @classmethod
    def variable(cls, ring, nvars, i):
        """The generator ``z_{i+1}`` (0-based index ``i``)."""
        e = [0] * nvars
        e[i] = 1
        return cls.monomial(ring, nvars, tuple(e))

    @classmethod
    def unit_power(cls, ring, nvars, k, coeff=1):
        """coeff * u**k as a constant polynomial (integer rings only)."""
        if ring == RING_QT:
            raise ValueError("QT ring has no distinguished unit variable")
        if not coeff:
            return cls.zero(ring, nvars)
        return cls(ring, nvars, {(k,) + (0,) * nvars: coeff})

    # -- basic structure ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return False
        self._check_basis(other)
        return (
            self.ring == other.ring
            and self.nvars == other.nvars
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def _like(self, coeffs):
        return type(self)(self.ring, self.nvars, coeffs)

    def _check_basis(self, other):
        """Subclasses key their terms by other bases (``symfun.SchurPoly``);
        a value in one basis never meets a value in another."""
        if type(other) is not type(self):
            names = type(self).__name__, type(other).__name__
            raise TypeError("%s and %s use different bases" % names)

    def _check_compatible(self, other):
        if (
            not isinstance(other, LaurentPoly)
            or other.ring != self.ring
            or other.nvars != self.nvars
        ):
            raise TypeError("incompatible polynomials: %r vs %r" % (self, other))
        self._check_basis(other)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        self._check_compatible(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            cur = out.get(k)
            nv = c if cur is None else cur + c
            if nv:
                out[k] = nv
            else:
                out.pop(k, None)
        return self._like(out)

    def __neg__(self):
        return self._like({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        self._check_compatible(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            cur = out.get(k)
            nv = -c if cur is None else cur - c
            if nv:
                out[k] = nv
            else:
                out.pop(k, None)
        return self._like(out)

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return self.zero(self.ring, self.nvars)
            return self._like({k: c * other for k, c in self.coeffs.items()})
        self._check_compatible(other)
        a, b = self.coeffs, other.coeffs
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = tuple(x + y for x, y in zip(k1, k2))
                cur = out.get(k)
                nv = c1 * c2 if cur is None else cur + c1 * c2
                if nv:
                    out[k] = nv
                else:
                    del out[k]
        return self._like(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative powers of polynomials are not defined")
        result = self.one(self.ring, self.nvars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    def times_unit(self, k: int):
        """Multiply by u**k (shift the folded scalar exponent)."""
        if self.ring == RING_QT:
            raise ValueError("QT ring has no distinguished unit variable")
        if not k:
            return self
        return self._like({(key[0] + k,) + key[1:]: c for key, c in self.coeffs.items()})

    def times_z(self, zshift):
        """Multiply by the monomial z**zshift."""
        zshift = tuple(zshift)
        zo = self.zoff
        if zo:
            return self._like(
                {key[:1] + tuple(a + b for a, b in zip(key[1:], zshift)): c
                 for key, c in self.coeffs.items()}
            )
        return self._like(
            {tuple(a + b for a, b in zip(key, zshift)): c for key, c in self.coeffs.items()}
        )

    def times_scalar_raw(self, c):
        """Multiply by a raw coefficient (field element for QT, int otherwise)."""
        if not c:
            return self.zero(self.ring, self.nvars)
        return self._like({k: v * c for k, v in self.coeffs.items()})

    def times_scalar(self, s: Scalar):
        if s.ring != (RING_QT if self.ring == RING_QT else self.ring):
            raise TypeError("scalar ring mismatch")
        if self.ring == RING_QT:
            out = {k: c * s.data for k, c in self.coeffs.items()}
            return self._like({k: c for k, c in out.items() if c})
        out = {}
        for k, c in self.coeffs.items():
            for j, cj in s.data.items():
                kk = (k[0] + j,) + k[1:]
                nv = out.get(kk, 0) + c * cj
                if nv:
                    out[kk] = nv
                else:
                    del out[kk]
        return self._like(out)

    # -- views -------------------------------------------------------------

    def z_terms(self):
        """Group terms by z-exponent: a dict {z-tuple: Scalar}."""
        out = {}
        if self.ring == RING_QT:
            for k, c in self.coeffs.items():
                out[k] = Scalar(RING_QT, c)
            return out
        for k, c in self.coeffs.items():
            out.setdefault(k[1:], {})[k[0]] = c
        return {k: Scalar(self.ring, d) for k, d in out.items()}

    def scalar_coeff(self, zexps) -> Scalar:
        zexps = tuple(zexps)
        if self.ring == RING_QT:
            c = self.coeffs.get(zexps)
            return Scalar(RING_QT, c if c is not None else qt_int(0))
        d = {k[0]: c for k, c in self.coeffs.items() if k[1:] == zexps}
        return Scalar(self.ring, d)

    def unit_exponents(self):
        if self.ring == RING_QT:
            raise ValueError("QT ring has no distinguished unit variable")
        return {k[0] for k in self.coeffs}

    def at_unit_one(self):
        """Set the scalar variable to 1 (integer rings); unit slot collapses to 0."""
        if self.ring == RING_QT:
            raise ValueError("QT ring has no distinguished unit variable")
        out = {}
        for k, c in self.coeffs.items():
            kk = (0,) + k[1:]
            nv = out.get(kk, 0) + c
            if nv:
                out[kk] = nv
            else:
                del out[kk]
        return self._like(out)

    def unit_slice(self, j: int):
        """Terms whose scalar exponent equals ``j``, with the unit reset to 0."""
        if self.ring == RING_QT:
            raise ValueError("QT ring has no distinguished unit variable")
        return self._like({(0,) + k[1:]: c for k, c in self.coeffs.items() if k[0] == j})

    # -- symmetry ----------------------------------------------------------

    def is_symmetric(self) -> bool:
        """True when invariant under all permutations of the z variables."""
        n = self.nvars
        zo = self.zoff
        for i in range(n - 1):
            perm = list(range(n))
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
            for k, c in self.coeffs.items():
                ez = list(k[zo:])
                ez[i], ez[i + 1] = ez[i + 1], ez[i]
                if self.coeffs.get(k[:zo] + tuple(ez)) != c:
                    return False
        return True

    # -- presentation ------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form: terms sorted lexicographically by z-exponent
        vector (descending), coefficients printed as integer polynomials in
        the ring variable."""
        if not self.coeffs:
            return "0"
        groups = self.z_terms()
        bits = []
        for zex in sorted(groups, reverse=True):
            coeff = groups[zex].to_text()
            zpart = "*".join(
                "z%d^%d" % (i + 1, e) for i, e in enumerate(zex) if e
            )
            if zpart:
                bits.append("%s*%s" % (coeff, zpart) if coeff != "1" else zpart)
            else:
                bits.append(coeff)
        return " + ".join(bits).replace("+ -", "- ")

    def __repr__(self):
        text = self.to_text()
        if len(text) > 120:
            text = text[:117] + "..."
        return "LaurentPoly[%s,%d](%s)" % (self.ring, self.nvars, text)


# -- construction helpers ----------------------------------------------------


def vandermonde(ring, nvars):
    """The Vandermonde product over all pairs i < j of (z_i - z_j)."""
    return delta_on(ring, nvars, range(nvars))


def delta_on(ring, nvars, indices):
    """Product of (z_i - z_j) over pairs i < j drawn from ``indices``
    (0-based variable indices, taken in increasing order)."""
    idx = sorted(indices)
    out = LaurentPoly.one(ring, nvars)
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            out = out * (
                LaurentPoly.variable(ring, nvars, idx[a])
                - LaurentPoly.variable(ring, nvars, idx[b])
            )
    return out


def alternant(ring, nvars, exps):
    """The alternating sum over permutations sigma of sgn(sigma) z**(sigma . exps).

    ``exps`` must have pairwise distinct entries; the term ``z**exps`` itself
    appears with coefficient +1.
    """
    exps = tuple(exps)
    if len(set(exps)) != len(exps):
        raise ValueError("alternant exponents must be distinct")
    out = {}
    zo = 0 if ring == RING_QT else 1
    one = qt_int(1) if ring == RING_QT else 1
    for perm, sign in perms_with_sign(nvars):
        new = [0] * nvars
        for i, e in enumerate(exps):
            new[perm[i]] = e
        key = ((0,) * zo) + tuple(new)
        out[key] = one * sign if ring == RING_QT else sign
    return LaurentPoly(ring, nvars, out)


# -- signed orbits -----------------------------------------------------------


def signed_buckets(f: LaurentPoly):
    """Canonical form of the signed permutation-orbit sum of ``f``.

    Returns ``{strictly-decreasing z-tuple: payload}`` such that
    ``sum_sigma sgn(sigma) sigma(f) = sum_key payload * alternant(key)``.
    Payloads are ``{unit-exponent: int}`` dicts for the integer rings and
    field elements for the QT ring.  Monomials with a repeated z-exponent
    cancel and are dropped.
    """
    zo = f.zoff
    buckets: dict = {}
    if f.ring == RING_QT:
        for k, c in f.coeffs.items():
            skey, sign = _sorted_sign(k)
            if not sign:
                continue
            cur = buckets.get(skey)
            nv = sign * c if cur is None else cur + sign * c
            if nv:
                buckets[skey] = nv
            else:
                del buckets[skey]
        return buckets
    for k, c in f.coeffs.items():
        skey, sign = _sorted_sign(k[1:])
        if not sign:
            continue
        d = buckets.setdefault(skey, {})
        nv = d.get(k[0], 0) + sign * c
        if nv:
            d[k[0]] = nv
        else:
            del d[k[0]]
            if not d:
                del buckets[skey]
    return buckets


# -- exact division ----------------------------------------------------------


def exact_div(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """The exact quotient f / g; raises ``NotDivisible`` when g does not
    divide f.  Greedy leading-term division in lexicographic order; since the
    coefficient ring is a domain, the greedy quotient exists iff f is
    divisible by g."""
    f._check_compatible(g)
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero():
        return f

    width = len(next(iter(g.coeffs)))
    fmin = [min(k[i] for k in f.coeffs) for i in range(width)]
    gmin = [min(k[i] for k in g.coeffs) for i in range(width)]
    fs = {tuple(a - b for a, b in zip(k, fmin)): c for k, c in f.coeffs.items()}
    gs = {tuple(a - b for a, b in zip(k, gmin)): c for k, c in g.coeffs.items()}

    glead = max(gs)
    glc = gs[glead]
    gtail = [(k, c) for k, c in gs.items() if k != glead]

    is_qt = f.ring == RING_QT
    work = dict(fs)
    heap = [tuple(-x for x in k) for k in work]
    heapq.heapify(heap)
    quot = {}
    while work:
        k = tuple(-x for x in heapq.heappop(heap))
        c = work.pop(k, None)
        if c is None:
            continue
        qk = tuple(a - b for a, b in zip(k, glead))
        if any(x < 0 for x in qk):
            raise NotDivisible("no exact quotient")
        if is_qt:
            qc = c / glc
        else:
            qc, rem = divmod(c, glc)
            if rem:
                raise NotDivisible("leading coefficient %r not divisible by %r" % (c, glc))
        quot[qk] = qc
        for gk, gc in gtail:
            kk = tuple(a + b for a, b in zip(qk, gk))
            cur = work.get(kk)
            if cur is None:
                work[kk] = -qc * gc
                heapq.heappush(heap, tuple(-x for x in kk))
            else:
                nv = cur - qc * gc
                if nv:
                    work[kk] = nv
                else:
                    del work[kk]

    shift = tuple(a - b for a, b in zip(fmin, gmin))
    return f._like({tuple(a + b for a, b in zip(k, shift)): c for k, c in quot.items()})


# -- ring maps ---------------------------------------------------------------


def constrain(f: LaurentPoly, rank: int) -> LaurentPoly:
    """Impose z_1 * ... * z_{r+1} = 1 by substituting the last variable,
    z_{r+1} := (z_1 ... z_r)**(-1).  Result lives in ``rank`` variables."""
    if type(f) is not LaurentPoly:
        raise TypeError("constrain takes a polynomial in the monomial basis")
    if f.nvars != rank + 1:
        raise ValueError("expected a polynomial in %d variables" % (rank + 1))
    zo = f.zoff
    out = {}
    for k, c in f.coeffs.items():
        ez = k[zo:]
        last = ez[-1]
        kk = k[:zo] + tuple(e - last for e in ez[:-1])
        cur = out.get(kk)
        nv = c if cur is None else cur + c
        if nv:
            out[kk] = nv
        else:
            out.pop(kk, None)
    return LaurentPoly(f.ring, rank, out)


def w_to_q(f: LaurentPoly, rank: int) -> LaurentPoly:
    """Convert a W-ring polynomial (either basis) to the Q-ring through
    w**(-2*(r+1)) = q.

    Raises ``ExponentNotDivisible`` when some w-exponent is not a multiple of
    2*(r+1), i.e. the input is not a function of q alone."""
    if f.ring != RING_W:
        raise ValueError("w_to_q expects a W-ring polynomial")
    m = 2 * (rank + 1)
    out = {}
    for k, c in f.coeffs.items():
        if k[0] % m:
            raise ExponentNotDivisible(
                "w-exponent %d is not a multiple of %d" % (k[0], m)
            )
        out[(-(k[0] // m),) + k[1:]] = c
    return type(f)(RING_Q, f.nvars, out)


def require_symmetric(f: LaurentPoly):
    if not f.is_symmetric():
        raise NotSymmetric("polynomial is not symmetric in the z variables")
