"""The quantum torus on the initial cluster and the Q-system recursion.

Generators Q_{a,0}, Q_{a,1} (a in [1, r]) q-commute:

    Q_{a,k} Q_{b,k'} = v**(lam(a,b) * (k' - k)) Q_{b,k'} Q_{a,k}
                                                (|k - k'| <= |a - b| + 1)

and every Q_{a,k}, k in ZZ, is a Laurent polynomial in the initial cluster
(the quantum cluster Laurent property).  Elements are stored normal ordered:
all Q_{a,0} to the left of all Q_{b,1}, encoded as exponent pairs
(a-vector, b-vector), packed into one int key by ``laurent.pack``, with
W-ring scalar coefficients.  Moving Q_{b,1}**m left past Q_{a,0}**l costs
v**(-lam(a,b)*l*m); the pairing -2 lam is built once per rank.

The recursion

    v**lam(a,a) Q_{a,k+1} Q_{a,k-1} = Q_{a,k}**2 - Q_{a+1,k} Q_{a-1,k},
    Q_{0,k} = Q_{r+1,k} = 1

is solved forwards and backwards by exact one-sided division (greedy on the
leading key, a lexicographic monomial order, with every quotient exponent
checked against the bounds an exact quotient must meet; leading terms
multiply to leading terms, so the greedy quotient exists whenever any
quotient does).  Failure would falsify the
Laurent property and raises ``NcNotDivisible``.
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from operator import mul, sub

from .cartan import CartanData
from .laurent import (
    SLOT_BITS,
    box_sum,
    key_bounds,
    offset,
    outside_box,
    pack,
    require_fit,
    unpack,
    zero_key,
)
from .rings import RING_W, NcNotDivisible, Scalar


def _wdivexact(c1, c2):
    """Exact division in ZZ[w**±1]; returns None when inexact."""
    if not c2:
        raise ZeroDivisionError
    if not c1:
        return {}
    lo1, lo2 = min(c1), min(c2)
    n = {k - lo1: v for k, v in c1.items()}
    d = {k - lo2: v for k, v in c2.items()}
    dtop = max(d)
    dlc = d[dtop]
    quot = {}
    work = dict(n)
    while work:
        top = max(work)
        qk = top - dtop
        if qk < 0:
            return None
        qc, rem = divmod(work[top], dlc)
        if rem:
            return None
        quot[qk] = qc
        for k, v in d.items():
            kk = qk + k
            nv = work.get(kk, 0) - qc * v
            if nv:
                work[kk] = nv
            else:
                work.pop(kk, None)
    return {k + lo1 - lo2: v for k, v in quot.items()}


@lru_cache(maxsize=None)
def _twist_rows(rank):
    """The rows of -2 lam: moving Q_{b,1}**b_j left past Q_{a,0}**a_i costs
    w**(sum_i a_i t_i) with t = rows . b."""
    return tuple(tuple(-2 * x for x in row) for row in CartanData(rank).matrix())


@lru_cache(maxsize=1 << 14)
def _twist_vector(rank, bkey):
    """t = rows . b for the b-part key ``bkey`` (a key shifted right by the
    a-slots)."""
    b = unpack(bkey, rank)
    return tuple(sum(map(mul, row, b)) for row in _twist_rows(rank))


def _pair_twist(rank, left_key, right_key):
    """The w-exponent of normal ordering left_key * right_key."""
    t = _twist_vector(rank, left_key >> (SLOT_BITS * rank))
    return sum(map(mul, unpack(right_key, rank), t))


class NcLaurent:
    """Normal-ordered element of the quantum torus; immutable by convention.

    ``coeffs`` maps the packed key of the exponent vector (a_1..a_r,
    b_1..b_r) (``laurent.pack``, same slots and range) to a {w-exponent: int}
    coefficient; ``terms()`` and ``from_terms()`` use (a-tuple, b-tuple)."""

    __slots__ = ("rank", "coeffs", "_box")

    def __init__(self, rank, coeffs, box=None):
        # Trusted constructor: canonical coefficients, exact ``box`` or None.
        self.rank = rank
        self.coeffs = coeffs
        self._box = box

    @classmethod
    def zero(cls, rank):
        return cls(rank, {})

    @classmethod
    def from_terms(cls, rank, terms):
        """The element with the given ((a-tuple, b-tuple), {w-exponent: int})
        pairs (a mapping or an iterable); repeated monomials add up."""
        out = {}
        for (a, b), c in terms.items() if hasattr(terms, "items") else terms:
            if len(a) != rank or len(b) != rank:
                raise ValueError("exponent vectors need %d entries" % rank)
            cur = out.setdefault(pack(tuple(a) + tuple(b)), {})
            for e, x in c.items():
                nv = cur.get(e, 0) + x
                if nv:
                    cur[e] = nv
                else:
                    cur.pop(e, None)
        return cls(rank, {k: c for k, c in out.items() if c})

    @classmethod
    def from_int(cls, rank, n, wexp=0):
        z = (0,) * rank
        return cls.from_terms(rank, [((z, z), {wexp: n})])

    @classmethod
    def one(cls, rank):
        return cls.from_int(rank, 1)

    @classmethod
    def monomial(cls, rank, a, b, wexp=0, coeff=1):
        return cls.from_terms(rank, [((a, b), {wexp: coeff})])

    @classmethod
    def generator(cls, rank, alpha, k, power=1):
        """Q_{alpha,k}**power for k in {0, 1}; alpha 0 or r+1 gives 1."""
        if alpha == 0 or alpha == rank + 1:
            return cls.one(rank)
        if k not in (0, 1):
            raise ValueError("generators live at k = 0, 1")
        e = [0] * rank
        e[alpha - 1] = power
        z = (0,) * rank
        return cls.monomial(rank, tuple(e) if k == 0 else z, tuple(e) if k == 1 else z)

    def terms(self):
        """Iterate over ((a-tuple, b-tuple), {w-exponent: int}) pairs."""
        r = self.rank
        for k, c in self.coeffs.items():
            v = unpack(k, 2 * r)
            yield (v[:r], v[r:]), c

    def bounds(self):
        """(lo, hi) of the exponent vectors (a, b), or None for zero."""
        if self._box is None and self.coeffs:
            self._box = key_bounds(self.coeffs, 2 * self.rank)
        return self._box

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, NcLaurent)
            and self.rank == other.rank
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def __add__(self, other):
        out = {k: dict(v) for k, v in self.coeffs.items()}
        for k, c in other.coeffs.items():
            cur = out.setdefault(k, {})
            for e, x in c.items():
                nv = cur.get(e, 0) + x
                if nv:
                    cur[e] = nv
                else:
                    del cur[e]
            if not cur:
                del out[k]
        return NcLaurent(self.rank, out)

    def __neg__(self):
        return NcLaurent(
            self.rank,
            {k: {e: -x for e, x in c.items()} for k, c in self.coeffs.items()},
            self._box,
        )

    def __sub__(self, other):
        return self + (-other)

    def times_unit(self, wexp):
        if not wexp:
            return self
        return NcLaurent(
            self.rank,
            {k: {e + wexp: x for e, x in c.items()} for k, c in self.coeffs.items()},
            self._box,
        )

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return NcLaurent.zero(self.rank)
            return NcLaurent(
                self.rank,
                {k: {e: x * other for e, x in c.items()} for k, c in self.coeffs.items()},
                self._box,
            )
        r = self.rank
        if not self.coeffs or not other.coeffs:
            return NcLaurent.zero(r)
        box = box_sum(self.bounds(), other.bounds())
        zero = zero_key(2 * r)
        right = [(k - zero, unpack(k, r), list(c.items())) for k, c in other.coeffs.items()]
        out = {}
        get = out.get
        for k1, c1 in self.coeffs.items():
            t = _twist_vector(r, k1 >> (SLOT_BITS * r))
            c1 = list(c1.items())
            for k2, a2, c2 in right:
                twist = sum(map(mul, a2, t))
                key = k1 + k2
                cur = get(key)
                if cur is None:
                    cur = out[key] = {}
                for e1, x1 in c1:
                    e1 += twist
                    for e2, x2 in c2:
                        e = e1 + e2
                        cur[e] = cur.get(e, 0) + x1 * x2
        out = {k: {e: x for e, x in c.items() if x} for k, c in out.items()}
        return NcLaurent(r, {k: c for k, c in out.items() if c}, box)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative powers need explicit division")
        result = NcLaurent.one(self.rank)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def min_b_exponent(self):
        return min(self.bounds()[0][self.rank:]) if self.coeffs else 0

    def to_text(self):
        if not self.coeffs:
            return "0"
        bits = []
        for (a, b), c in sorted(self.terms(), reverse=True):
            c = Scalar(RING_W, c).to_text()
            mono = ["Q[%d,0]^%d" % (i + 1, e) for i, e in enumerate(a) if e]
            mono += ["Q[%d,1]^%d" % (i + 1, e) for i, e in enumerate(b) if e]
            mono = "*".join(mono)
            bits.append("%s*%s" % (c, mono) if mono else c)
        return " + ".join(bits).replace("+ -", "- ")

    def __repr__(self):
        return "NcLaurent(r=%d, %s)" % (self.rank, self.to_text())


def _nc_div(num: NcLaurent, den: NcLaurent, side: str) -> NcLaurent:
    """Exact quotient X with X*den = num (side='right') or den*X = num
    (side='left').  An exact quotient has its exponents between the least
    exponents of num less those of den and the greatest less the greatest;
    the greedy descent checks every quotient term against these bounds, so
    it stops after finitely many steps."""
    if den.is_zero():
        raise ZeroDivisionError("division by zero in the quantum torus")
    rank = num.rank
    if num.is_zero():
        return NcLaurent.zero(rank)
    width = 2 * rank
    (nlo, nhi), (dlo, dhi) = num.bounds(), den.bounds()
    qlo, qhi = tuple(map(sub, nlo, dlo)), tuple(map(sub, nhi, dhi))
    if any(map(int.__gt__, qlo, qhi)):
        raise NcNotDivisible("no exact quotient in the quantum torus")
    require_fit(qlo, qhi)
    top, base = offset(tuple(map(sub, qhi, qlo))), offset(qlo)
    zero = zero_key(width)

    dlead = max(den.coeffs)
    dlc = den.coeffs[dlead]

    work = {k: dict(c) for k, c in num.coeffs.items()}
    heap = [-k for k in work]
    heapq.heapify(heap)
    quot = {}
    while work:
        k = -heapq.heappop(heap)
        c = work.get(k)
        if c is None:
            continue
        qloc = k - dlead
        if outside_box(qloc - base, top, width):
            raise NcNotDivisible("no exact quotient in the quantum torus")
        qkey = qloc + zero
        if side == "right":
            tw = _pair_twist(rank, qkey, dlead)
        else:
            tw = _pair_twist(rank, dlead, qkey)
        qc = _wdivexact(c, {e + tw: x for e, x in dlc.items()})
        if qc is None:
            raise NcNotDivisible("scalar coefficient not divisible")
        quot[qkey] = qc
        term = NcLaurent(rank, {qkey: qc})
        rest = (term * den) if side == "right" else (den * term)
        # the leading term of ``rest`` equals the popped leading term of the
        # remainder by construction, so the subtraction cancels it
        for kk, cc in rest.coeffs.items():
            cur = work.get(kk)
            fresh = cur is None
            if fresh:
                cur = {}
            for e, x in cc.items():
                nv = cur.get(e, 0) - x
                if nv:
                    cur[e] = nv
                else:
                    del cur[e]
            if cur:
                work[kk] = cur
                if fresh:
                    heapq.heappush(heap, -kk)
            else:
                work.pop(kk, None)
    return NcLaurent(rank, quot, (qlo, qhi))


def nc_div_right(num: NcLaurent, den: NcLaurent) -> NcLaurent:
    """X with X * den = num, exactly."""
    return _nc_div(num, den, "right")


def nc_div_left(num: NcLaurent, den: NcLaurent) -> NcLaurent:
    """X with den * X = num, exactly."""
    return _nc_div(num, den, "left")


def q_recursion(rank: int, k_max: int, k_min: int = 0) -> dict:
    """Solve the quantum Q-system for all Q_{a,k}, k_min <= k <= k_max, as
    normal-ordered Laurent polynomials in the initial cluster."""
    if not (k_min <= 0 and k_max >= 1):
        raise ValueError("need k_min <= 0 <= 1 <= k_max")
    cart = CartanData(rank)
    table = {}
    for a in range(1, rank + 1):
        table[(a, 0)] = NcLaurent.generator(rank, a, 0)
        table[(a, 1)] = NcLaurent.generator(rank, a, 1)

    def get(a, k):
        if a == 0 or a == rank + 1:
            return NcLaurent.one(rank)
        return table[(a, k)]

    for k in range(1, k_max):
        for a in range(1, rank + 1):
            rhs = get(a, k) ** 2 - get(a + 1, k) * get(a - 1, k)
            table[(a, k + 1)] = nc_div_right(
                rhs.times_unit(-2 * cart.lam(a, a)), get(a, k - 1)
            )
    for k in range(0, k_min, -1):
        for a in range(1, rank + 1):
            rhs = get(a, k) ** 2 - get(a + 1, k) * get(a - 1, k)
            table[(a, k - 1)] = nc_div_left(
                rhs.times_unit(-2 * cart.lam(a, a)), get(a, k + 1)
            )
    return table


def evaluate(f: NcLaurent, mode: str = "ev") -> NcLaurent:
    """Evaluate the left (Q_{a,0}) part of a normal-ordered element.

    mode='ev'  sets every Q_{a,0} to 1;
    mode='ev0' sets Q_{a,0} to v**(-sum_b lam(a,b)).
    """
    if mode not in ("ev", "ev0"):
        raise ValueError("mode must be 'ev' or 'ev0'")
    rank = f.rank
    cart = CartanData(rank)
    row = [-2 * cart.lam_row_sum(a) for a in range(1, rank + 1)]
    a_slots = (1 << (SLOT_BITS * rank)) - 1
    zero_a = zero_key(rank)
    out = {}
    for k, c in f.coeffs.items():
        shift = sum(map(mul, unpack(k, rank), row)) if mode == "ev0" else 0
        key = k - (k & a_slots) + zero_a
        cur = out.setdefault(key, {})
        for e, x in c.items():
            nv = cur.get(e + shift, 0) + x
            if nv:
                cur[e + shift] = nv
            else:
                del cur[e + shift]
        if not cur:
            del out[key]
    return NcLaurent(rank, out)


def check_polynomiality(rank: int, word, table=None) -> bool:
    """ev0 of a product of Q_{a,k} with k >= 1 must be polynomial in the
    Q_{b,1}; ``word`` is a sequence of (alpha, k) letters."""
    if table is None:
        kmax = max((k for _, k in word), default=1)
        table = q_recursion(rank, max(kmax, 1))
    prod = NcLaurent.one(rank)
    for alpha, k in word:
        if k < 1:
            raise ValueError("polynomiality words use k >= 1 only")
        gen = table[(alpha, k)] if not (alpha in (0, rank + 1)) else NcLaurent.one(rank)
        prod = prod * gen
    ev0 = evaluate(prod, "ev0")
    if any(any(a) for (a, _), _ in ev0.terms()):
        raise AssertionError("evaluation left a Q_{a,0} behind")
    return ev0.min_b_exponent() >= 0
