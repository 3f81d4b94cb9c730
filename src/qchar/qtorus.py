"""The quantum torus on the initial cluster and the Q-system recursion.

Generators Q_{a,0}, Q_{a,1} (a in [1, r]) q-commute:

    Q_{a,k} Q_{b,k'} = v**(lam(a,b) * (k' - k)) Q_{b,k'} Q_{a,k}
                                                (|k - k'| <= |a - b| + 1)

and every Q_{a,k}, k in ZZ, is a Laurent polynomial in the initial cluster
(the quantum cluster Laurent property).  Elements are stored normal ordered:
all Q_{a,0} to the left of all Q_{b,1}.  ``NcLaurent`` is a W-ring
``LaurentPoly`` in the 2r exponents (a_1..a_r, b_1..b_r): the w-exponent of
a term sits in the unit slot of its packed key, so an element is one flat
{key: int} map, and sums, ``==``, ``times_unit``, integer scaling and their
range checks are the keyed arithmetic of ``LaurentPoly``.  Only the product
is twisted: moving Q_{b,1}**m left past Q_{a,0}**l costs
v**(-lam(a,b)*l*m); the pairing -2 lam is built once per rank.  The w
slot has the range of every slot: a product raises ``ExponentOverflow``
when a term it forms, twist included, has w outside [EXP_MIN, EXP_MAX].

The recursion

    v**lam(a,a) Q_{a,k+1} Q_{a,k-1} = Q_{a,k}**2 - Q_{a+1,k} Q_{a-1,k},
    Q_{0,k} = Q_{r+1,k} = 1

is solved forwards and backwards by exact one-sided division (greedy on the
leading key, a lexicographic monomial order in which the position (a, b)
decides and the w-exponent breaks ties; leading terms multiply to leading
terms, so the greedy quotient exists whenever any quotient does).  Every
quotient position is checked against the bounds an exact quotient must
meet, and every w-exponent against a floor at its position, so the descent
stops after finitely many steps.  Failure would falsify the Laurent property
and raises ``NcNotDivisible``.
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from operator import add, mul, sub

from .cartan import CartanData
from .laurent import (
    EXP_MAX,
    EXP_MIN,
    SLOT_BITS,
    LaurentPoly,
    offset,
    outside_box,
    pack,
    require_fit,
    split_unit,
    unpack,
    zero_key,
)
from .rings import RING_W, ExponentOverflow, NcNotDivisible, Scalar

# the w-exponent of a key k is (k & _W_MASK) - _W_ZERO, in [0, _W_TOP] when
# it fits its slot
_W_MASK = (1 << SLOT_BITS) - 1
_W_ZERO = zero_key(1)
_W_TOP = EXP_MAX - EXP_MIN


@lru_cache(maxsize=16)
def _twist_rows(rank):
    """The rows of -2 lam: moving Q_{b,1}**b_j left past Q_{a,0}**a_i costs
    w**(sum_i a_i t_i) with t = rows . b."""
    return tuple(tuple(-2 * x for x in row) for row in CartanData(rank).matrix())


@lru_cache(maxsize=1 << 14)
def _twist_vector(rank, bkey):
    """t = rows . b for the b-part key ``bkey`` (a position key shifted right
    by the a-slots)."""
    b = unpack(bkey, rank)
    return tuple(sum(map(mul, row, b)) for row in _twist_rows(rank))


def _pair_twist(rank, left, right):
    """The w-exponent of normal ordering left * right, for the keys of two
    positions (a, b)."""
    t = _twist_vector(rank, left >> (SLOT_BITS * rank))
    return sum(map(mul, unpack(right, rank), t))


class NcLaurent(LaurentPoly):
    """Normal-ordered element of the quantum torus; immutable by convention.

    The term c * w**j * Q_{.,0}**a * Q_{.,1}**b has the exponent vector
    (j, a_1..a_r, b_1..b_r) of a W-ring ``LaurentPoly`` in 2r variables.
    The constructors take the rank, and ``terms()`` and ``from_terms()`` use
    ((a-tuple, b-tuple), {w-exponent: int}) pairs.  A plain ``LaurentPoly``
    operand raises TypeError."""

    __slots__ = ("_groups",)

    @property
    def rank(self):
        return self.nvars // 2

    def _right_groups(self):
        """The terms as a right factor, grouped by a-part: (a-vector, least
        and greatest w, [(key less the zero key, coefficient)]) per group;
        built once per element, which is often a right factor many times."""
        try:
            return self._groups
        except AttributeError:
            pass
        r = self.rank
        zero = zero_key(2 * r + 1)
        a_part = (1 << (SLOT_BITS * r)) - 1
        groups = {}
        for k in self.coeffs:
            groups.setdefault((k >> SLOT_BITS) & a_part, []).append(k)
        self._groups = []
        for akey, keys in groups.items():
            ws = [k & _W_MASK for k in keys]
            group = [(k - zero, self.coeffs[k]) for k in keys]
            self._groups.append((unpack(akey, r), min(ws) - _W_ZERO, max(ws) - _W_ZERO, group))
        return self._groups

    @classmethod
    def zero(cls, rank):
        return cls(RING_W, 2 * rank, {})

    @classmethod
    def from_terms(cls, rank, terms):
        """The element with the given ((a-tuple, b-tuple), {w-exponent: int})
        pairs (a mapping or an iterable); repeated monomials add up."""
        flat = []
        for (a, b), c in terms.items() if hasattr(terms, "items") else terms:
            if len(a) != rank or len(b) != rank:
                raise ValueError("exponent vectors need %d entries" % rank)
            flat += [((e, *a, *b), x) for e, x in c.items()]
        return super().from_terms(RING_W, 2 * rank, flat)

    @classmethod
    def one(cls, rank):
        return cls.monomial(rank, (0,) * rank, (0,) * rank)

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
        for v, s in self.z_terms().items():
            yield (v[:r], v[r:]), s.data

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly.__mul__(self, other)
        self._check_compatible(other)
        if not self.coeffs or not other.coeffs:
            return self._like({})
        r = self.rank
        (lo1, hi1), (lo2, hi2) = self.bounds(), other.bounds()
        # the (a, b) slots add up; the twisted w slot is checked below, once
        # per left term and right a-part, where the twist is computed
        lo, hi = tuple(map(add, lo1[1:], lo2[1:])), tuple(map(add, hi1[1:], hi2[1:]))
        require_fit(lo, hi)
        right = other._right_groups()
        b_shift = SLOT_BITS * (r + 1)
        out = {}
        get = out.get
        for k1, c1 in self.coeffs.items():
            w1 = k1 & _W_MASK
            t = _twist_vector(r, k1 >> b_shift)
            for a2, wlo, whi, group in right:
                twist = sum(map(mul, a2, t))
                if w1 + twist + wlo < 0 or w1 + twist + whi > _W_TOP:
                    raise ExponentOverflow("a w-exponent would leave [%d, %d]" % (EXP_MIN, EXP_MAX))
                base = k1 + twist
                for k2, c2 in group:
                    k = base + k2
                    out[k] = get(k, 0) + c1 * c2
        # nonzero, since the torus is a domain
        out = {k: c for k, c in out.items() if c}
        ws = [k & _W_MASK for k in out]
        return self._like(out, ((min(ws) - _W_ZERO, *lo), (max(ws) - _W_ZERO, *hi)))

    __rmul__ = __mul__

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
    (side='left').  An exact quotient has its positions between the least
    (a, b) exponents of num less those of den and the greatest less the
    greatest.  At a position P, the w-coefficient of the remainder when P
    is first reached is the quotient's w-coefficient times den's leading
    block, so while the division is exact the remainder's leading w there
    stays at least its least w then plus the w-spread of that block.  The
    greedy descent checks both, so it stops after finitely many steps."""
    num._check_compatible(den)
    if den.is_zero():
        raise ZeroDivisionError("division by zero in the quantum torus")
    if num.is_zero():
        return num
    rank = num.rank
    width = 2 * rank
    (nlo, nhi), (dlo, dhi) = num.bounds(), den.bounds()
    qlo, qhi = tuple(map(sub, nlo[1:], dlo[1:])), tuple(map(sub, nhi[1:], dhi[1:]))
    if any(map(int.__gt__, qlo, qhi)):
        raise NcNotDivisible("no exact quotient in the quantum torus")
    require_fit(qlo, qhi)
    top, base = offset(tuple(map(sub, qhi, qlo))), offset(qlo)
    zero = zero_key(width)

    dlead = max(den.coeffs)
    dlc = den.coeffs[dlead]
    dw, dpos = split_unit(dlead)
    spread = dw - min(w for w, p in map(split_unit, den.coeffs) if p == dpos)

    low = {}  # position -> least w-exponent seen there in the remainder

    def note(key):
        w, p = split_unit(key)
        low[p] = min(low.get(p, w), w)

    work = dict(num.coeffs)
    for k in work:
        note(k)
    heap = [-k for k in work]
    heapq.heapify(heap)
    quot = {}
    pos = None
    while work:
        k = -heapq.heappop(heap)
        c = work.get(k)
        if c is None:
            continue
        w, p = split_unit(k)
        if p != pos:
            # nothing lands at or above a position once it is reached
            pos, floor = p, low[p] + spread
        qloc = p - dpos
        if outside_box(qloc - base, top, width):
            raise NcNotDivisible("no exact quotient in the quantum torus")
        if w < floor:
            raise NcNotDivisible("w-coefficient not divisible")
        qc, rem = divmod(c, dlc)
        if rem:
            raise NcNotDivisible("scalar coefficient not divisible")
        qpos = qloc + zero
        twist = _pair_twist(rank, qpos, dpos) if side == "right" else _pair_twist(rank, dpos, qpos)
        qkey = (qpos << SLOT_BITS) + pack((w - dw - twist,))
        quot[qkey] = qc
        term = num._like({qkey: qc})
        rest = (term * den) if side == "right" else (den * term)
        # the leading term of ``rest`` equals the popped leading term of the
        # remainder by construction, so the subtraction cancels it
        for kk, cc in rest.coeffs.items():
            cur = work.get(kk)
            if cur is None:
                work[kk] = -cc
                heapq.heappush(heap, -kk)
                note(kk)
            elif cur == cc:
                del work[kk]
            else:
                work[kk] = cur - cc
    return num._like(quot)


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
    a_slots = ((1 << (SLOT_BITS * rank)) - 1) << SLOT_BITS
    zero_a = zero_key(rank) << SLOT_BITS
    shifts = {}  # a-part -> w-shift
    out = {}
    for k, c in f.coeffs.items():
        a = k & a_slots
        key = k - a + zero_a
        if mode == "ev0":
            shift = shifts.get(a)
            if shift is None:
                shift = shifts[a] = sum(map(mul, unpack(a >> SLOT_BITS, rank), row))
            if not 0 <= (k & _W_MASK) + shift <= _W_TOP:
                raise ExponentOverflow("a w-exponent would leave [%d, %d]" % (EXP_MIN, EXP_MAX))
            key += shift
        out[key] = out.get(key, 0) + c
    return f._like({k: c for k, c in out.items() if c})


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
    if not ev0:
        return True
    lo, hi = ev0.bounds()
    if any(lo[1 : rank + 1]) or any(hi[1 : rank + 1]):
        raise AssertionError("evaluation left a Q_{a,0} behind")
    return min(lo[rank + 1 :]) >= 0
