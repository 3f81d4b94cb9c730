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
v**(-lam(a,b)*l*m), a twist that depends only on the left b-part and the
right a-part, so the product runs over those pairs of groups.

``q_commutator`` tests f*g = w**c * g*f exactly without forming terms:
only position pairs whose twists differ contribute, and reading each
position's w-polynomial at w = 2**s (Kronecker substitution), 2**s beyond
every coefficient the difference can have, makes each target position one
integer that is 0 iff all its coefficients are.  ``ev0_times`` forms
ev0(img * x) from a word prefix's image, x's a-part moved left already
evaluated.  The w slot has the range of every slot: products raise
``ExponentOverflow`` when a term they form has w outside [EXP_MIN, EXP_MAX].

The recursion

    v**lam(a,a) Q_{a,k+1} Q_{a,k-1} = Q_{a,k}**2 - Q_{a+1,k} Q_{a-1,k},
    Q_{0,k} = Q_{r+1,k} = 1

is solved forwards and backwards by exact one-sided division (greedy on the
leading key, a lexicographic monomial order in which the position (a, b)
decides and the w-exponent breaks ties; leading terms multiply to leading
terms, so the greedy quotient exists whenever any quotient does); each
quotient term's multiple of the divisor is subtracted straight from the
divisor's a-part groups (right division) or b-part groups (left).  Every
quotient position is checked against the bounds an exact quotient must
meet, and every w-exponent against a floor at its position, so the
descent stops after finitely many steps.  Failure would falsify the
Laurent property and raises ``NcNotDivisible``.
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
    coefficient_text,
    offset,
    outside_box,
    pack,
    require_fit,
    split_unit,
    unpack,
    zero_key,
)
from .rings import RING_W, ExponentOverflow, NcNotDivisible

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


class NcLaurent(LaurentPoly):
    """Normal-ordered element of the quantum torus; immutable by convention.

    The term c * w**j * Q_{.,0}**a * Q_{.,1}**b has the exponent vector
    (j, a_1..a_r, b_1..b_r) of a W-ring ``LaurentPoly`` in 2r variables.
    The constructors take the rank, and ``terms()`` and ``from_terms()`` use
    ((a-tuple, b-tuple), {w-exponent: int}) pairs.  A plain ``LaurentPoly``
    operand raises TypeError."""

    __slots__ = ("_positions", "_parts")

    @property
    def rank(self):
        return self.nvars // 2

    def _position_groups(self):
        """(a-vectors, twist vectors of b-parts, positions): per position
        (a, b), (a-vector index, twist vector index, position key, least w,
        greatest w, [(key less the zero key, coefficient)], least such key,
        which differs from each by w less the least w); built once."""
        if hasattr(self, "_positions"):
            return self._positions
        r = self.rank
        zero, a_part = zero_key(2 * r + 1), (1 << (SLOT_BITS * r)) - 1
        groups, a_index, b_index = {}, {}, {}
        for k in self.coeffs:
            groups.setdefault(k >> SLOT_BITS, []).append(k)
        positions = []
        for pos, keys in groups.items():
            ws = [k & _W_MASK for k in keys]
            group = [(k - zero, self.coeffs[k]) for k in keys]
            ia = a_index.setdefault(pos & a_part, len(a_index))
            ib = b_index.setdefault(pos >> (SLOT_BITS * r), len(b_index))
            positions.append((ia, ib, pos, min(ws) - _W_ZERO, max(ws) - _W_ZERO, group, min(keys) - zero))
        tvecs = [_twist_vector(r, b) for b in b_index]
        self._positions = [unpack(a, r) for a in a_index], tvecs, positions
        return self._positions

    def _groups(self, part):
        """[(vector, least w, greatest w, [(key less the zero key, coefficient)])]
        by b-part (``part`` 'b', the vector its twist vector), by a-part ('a'),
        or by a-part evaluated ('ev', 'ev0' as ``evaluate``); built once."""
        if not hasattr(self, "_parts"):
            self._parts = {}
        if part in self._parts:
            return self._parts[part]
        r = self.rank
        zero, a_bits = zero_key(self.width), ((1 << (SLOT_BITS * r)) - 1) << SLOT_BITS
        split = {}
        for k in self.coeffs:
            split.setdefault(k >> (SLOT_BITS * (r + 1)) if part == "b" else k & a_bits, []).append(k)
        # ev0: Q_{.,0}**a -> w**(a . row), row_a = -2 sum_b lam(a, b) = sum of twist row a
        row = tuple(map(sum, _twist_rows(r))) if part == "ev0" else (0,) * r
        groups = self._parts[part] = []
        for g, keys in split.items():
            vec = _twist_vector(r, g) if part == "b" else unpack(g >> SLOT_BITS, r)
            shift = sum(map(mul, vec, row))
            at = shift - zero - (g - (zero_key(r) << SLOT_BITS) if part in ("ev", "ev0") else 0)
            ws = [(k & _W_MASK) - _W_ZERO for k in keys]
            groups.append((vec, min(ws) + shift, max(ws) + shift, [(k + at, self.coeffs[k]) for k in keys]))
        return groups

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
        e, z = tuple(power if i == alpha - 1 else 0 for i in range(rank)), (0,) * rank
        return cls.monomial(rank, *((e, z) if k == 0 else (z, e)))

    def terms(self):
        """Iterate over ((a-tuple, b-tuple), {w-exponent: int}) pairs."""
        r = self.rank
        for v, s in self.z_terms().items():
            yield (v[:r], v[r:]), s

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly.__mul__(self, other)
        return _grouped(self, other, "a")

    __rmul__ = __mul__

    def to_text(self):
        if not self.coeffs:
            return "0"
        bits = []
        for (a, b), c in sorted(self.terms(), reverse=True):
            c = coefficient_text(RING_W, c)
            mono = ["Q[%d,0]^%d" % (i + 1, e) for i, e in enumerate(a) if e]
            mono += ["Q[%d,1]^%d" % (i + 1, e) for i, e in enumerate(b) if e]
            mono = "*".join(mono)
            bits.append("%s*%s" % (c, mono) if mono else c)
        return " + ".join(bits).replace("+ -", "- ")

    def __repr__(self):
        return "NcLaurent(r=%d, %s)" % (self.rank, self.to_text())


def _grouped(f: NcLaurent, g: NcLaurent, part: str) -> NcLaurent:
    """f * g from f's b-part and g's a-part groups (``part`` 'a'), or ev0(f * g)
    from g's evaluated ones ('ev0'): moving g's a-part left past f's b-part
    raises w by their twist, one for all term pairs of the two groups.
    Raises ``ExponentOverflow`` when a term it forms has w out of range."""
    f._check_compatible(g)
    if not f.coeffs or not g.coeffs:
        return f._like({})
    (lo1, hi1), (lo2, hi2) = f.bounds(), g.bounds()
    # the (a, b) slots add up; the twisted w slot is checked per group pair
    lo, hi = tuple(map(add, lo1[1:], lo2[1:])), tuple(map(add, hi1[1:], hi2[1:]))
    require_fit(lo, hi)
    out, zero = {}, zero_key(f.width)
    get = out.get
    for t, wlo1, whi1, group1 in f._groups("b"):
        for a, wlo2, whi2, group2 in g._groups(part):
            twist = sum(map(mul, a, t))
            if twist + wlo1 + wlo2 < EXP_MIN or twist + whi1 + whi2 > EXP_MAX:
                raise ExponentOverflow("a w-exponent would leave [%d, %d]" % (EXP_MIN, EXP_MAX))
            for k1, c1 in group1:
                k1 += zero + twist
                for k2, c2 in group2:
                    k = k1 + k2
                    out[k] = get(k, 0) + c1 * c2
    out = {k: x for k, x in out.items() if x}
    if part == "ev0":  # ev0 may cancel extreme terms
        return f._like(out)
    ws = [k & _W_MASK for k in out]  # nonzero, since the torus is a domain
    return f._like(out, ((min(ws) - _W_ZERO, *lo), (max(ws) - _W_ZERO, *hi)))


def q_commutator(f: NcLaurent, g: NcLaurent, c: int) -> NcLaurent:
    """f*g - w**c * g*f, exactly.  Positions P of f and R of g meet at P + R,
    raised by the twist of P before R in f*g and by c plus that of R before
    P in w**c * g*f; only the pairs whose raises differ contribute.

    Zero test: read each position's w-polynomial at w = 2**s as one integer,
    s = bit_length(|f|_1 |g|_1) + 2, |.|_1 the sum of absolute coefficients.
    Each term pair lands on a coefficient of the difference at most once, so
    every such coefficient is at most |f|_1 |g|_1 < 2**(s-2) in absolute
    value; a base-2**s number with digits below 2**s in absolute value is 0
    only when every digit is, so the commutator is zero iff each target
    position's sum of shifted products is 0.  A nonzero commutator, or one
    whose packed numbers would be wider than 64 bits per term of f and g
    (edge w-exponents only), is formed term by term.  Raises
    ``ExponentOverflow`` when a pair would form a term with w out of range."""
    f._check_compatible(g)
    if not f.coeffs or not g.coeffs:
        return f._like({})
    (lo1, hi1), (lo2, hi2) = f.bounds(), g.bounds()
    require_fit(tuple(map(add, lo1[1:], lo2[1:])), tuple(map(add, hi1[1:], hi2[1:])))
    avecs1, tvecs1, left = f._position_groups()
    avecs2, tvecs2, right = g._position_groups()
    twists = [[sum(map(mul, a, t)) for a in avecs2] for t in tvecs1]  # [ib1][ia2]
    backs = [[sum(map(mul, a, t)) + c for t in tvecs2] for a in avecs1]  # [ia1][ib2]
    pairs = []
    for p1 in left:
        row, brow, wlo1, whi1 = twists[p1[1]], backs[p1[0]], p1[3], p1[4]
        safe = wlo1 + lo2[0] + min(min(row), min(brow)) >= EXP_MIN and whi1 + hi2[0] + max(max(row), max(brow)) <= EXP_MAX
        for p2 in right:
            twist, back = row[p2[0]], brow[p2[1]]
            if not safe and (min(twist, back) + wlo1 + p2[3] < EXP_MIN or max(twist, back) + whi1 + p2[4] > EXP_MAX):
                raise ExponentOverflow("a w-exponent would leave [%d, %d]" % (EXP_MIN, EXP_MAX))
            if twist != back:
                pairs.append((p1, p2, twist, back))
    if not pairs:
        return f._like({})
    s = (sum(map(abs, f.coeffs.values())) * sum(map(abs, g.coeffs.values()))).bit_length() + 2
    raises = [x for table in (twists, backs) for row in table for x in row]
    wbase = lo1[0] + lo2[0] + min(raises)
    if s * (hi1[0] + hi2[0] + max(raises) - wbase + 1) <= 64 * (len(f.coeffs) + len(g.coeffs)):
        pf, pg = ({p[2]: sum(x << s * (k - p[6]) for k, x in p[5]) for p in side} for side in (left, right))
        acc = {}
        for p1, p2, twist, back in pairs:
            prod, at, target = pf[p1[2]] * pg[p2[2]], p1[3] + p2[3] - wbase, p1[2] + p2[2]
            acc[target] = acc.get(target, 0) + (prod << s * (at + twist)) - (prod << s * (at + back))
        if not any(acc.values()):
            return f._like({})
    out, zero = {}, zero_key(f.width)
    get = out.get
    for p1, p2, twist, back in pairs:
        for k1, c1 in p1[5]:
            k1 += zero + twist
            for k2, c2 in p2[5]:
                x, k = c1 * c2, k1 + k2
                out[k] = get(k, 0) + x
                k += back - twist
                out[k] = get(k, 0) - x
    return f._like({k: x for k, x in out.items() if x})


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
    # q's twist against a term of den is u . v: u from q's b-part, v den's
    # a-part on the right; u q's a-part, v from den's b-part on the left
    b_shift = SLOT_BITS * rank
    right = side == "right"
    dvec = unpack(dpos, rank) if right else _twist_vector(rank, dpos >> b_shift)
    groups = den._groups("a" if right else "b")

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
        u = _twist_vector(rank, qpos >> b_shift) if right else unpack(qpos, rank)
        qkey = (qpos << SLOT_BITS) + pack((w - dw - sum(map(mul, u, dvec)),))
        quot[qkey] = qc
        # subtract qc * q * den (or qc * den * q), q the new monomial, from
        # den's groups; its leading term cancels the popped one
        wq = qkey & _W_MASK
        for v, wlo, whi, group in groups:
            twist = sum(map(mul, u, v))
            if wq + twist + wlo < 0 or wq + twist + whi > _W_TOP:
                raise ExponentOverflow("a w-exponent would leave [%d, %d]" % (EXP_MIN, EXP_MAX))
            at = qkey + twist
            for k2, c2 in group:
                kk, cc = at + k2, qc * c2
                cur = work.get(kk)
                if cur is None:
                    work[kk] = -cc
                    heapq.heappush(heap, -kk)
                    note(kk)
                elif cur == cc:
                    del work[kk]
                else:
                    work[kk] = cur - cc
    ws = [k & _W_MASK for k in quot]
    return num._like(quot, ((min(ws) - _W_ZERO, *qlo), (max(ws) - _W_ZERO, *qhi)))


def nc_div_right(num: NcLaurent, den: NcLaurent) -> NcLaurent:
    """X with X * den = num, exactly."""
    return _nc_div(num, den, "right")


def nc_div_left(num: NcLaurent, den: NcLaurent) -> NcLaurent:
    """X with den * X = num, exactly."""
    return _nc_div(num, den, "left")


def relation_rhs(table: dict, rank: int, a: int, k: int) -> NcLaurent:
    """Q_{a,k}**2 - Q_{a+1,k} Q_{a-1,k} from ``table``; the boundary values
    Q_{0,k} = Q_{r+1,k} = 1 are left out, not multiplied in."""
    side = [table[(b, k)] for b in (a + 1, a - 1) if 0 < b <= rank]
    cross = side[0] * side[1] if len(side) == 2 else side[0] if side else NcLaurent.one(rank)
    return table[(a, k)] ** 2 - cross


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
    # forwards Q_{a,k+1} = rhs / Q_{a,k-1}, backwards Q_{a,k-1} = Q_{a,k+1} \ rhs
    steps = [(k, 1, nc_div_right) for k in range(1, k_max)] + [(k, -1, nc_div_left) for k in range(0, k_min, -1)]
    for k, step, divide in steps:
        for a in range(1, rank + 1):
            rhs = relation_rhs(table, rank, a, k).times_unit(-2 * cart.lam(a, a))
            table[(a, k + step)] = divide(rhs, table[(a, k - step)])
    return table


def evaluate(f: NcLaurent, mode: str = "ev") -> NcLaurent:
    """Evaluate the left (Q_{a,0}) part of a normal-ordered element.

    mode='ev'  sets every Q_{a,0} to 1;
    mode='ev0' sets Q_{a,0} to v**(-sum_b lam(a,b)).
    """
    if mode not in ("ev", "ev0"):
        raise ValueError("mode must be 'ev' or 'ev0'")
    zero, out = zero_key(f.width), {}
    for _, wlo, whi, group in f._groups(mode):
        if wlo < EXP_MIN or whi > EXP_MAX:
            raise ExponentOverflow("a w-exponent would leave [%d, %d]" % (EXP_MIN, EXP_MAX))
        for k, c in group:
            out[k + zero] = out.get(k + zero, 0) + c
    return f._like({k: c for k, c in out.items() if c})


def ev0_times(img: NcLaurent, x: NcLaurent) -> NcLaurent:
    """ev0(img * x) for an ``img`` free of Q_{a,0}, which equals ev0(f * x)
    for every f with ev0(f) = img: the Q_{a,0} of f stay leftmost in f * x.
    x's a-part moves left already evaluated, raised by its twist past img's
    b-part and by its ev0 row; no a-part key is formed.  Raises
    ``ExponentOverflow`` when a term of the image has w out of range."""
    return _grouped(img, x, "ev0")


def ev0_image(rank: int, word, table: dict, images=None) -> NcLaurent:
    """ev0 of the product of the Q_{alpha,k} (k >= 1) of ``word``, (alpha, k)
    letters left to right (alpha 0 or r+1 gives 1), by one ``ev0_times``
    step per letter.  With a dict ``images`` of images by word, a stored
    word[:-1] is reused and the word stored."""
    word = tuple(word)
    if any(k < 1 for _, k in word):
        raise ValueError("polynomiality words use k >= 1 only")
    img = (images or {}).get(word[:-1])
    img, letters = (NcLaurent.one(rank), word) if img is None else (img, word[-1:])
    for alpha, k in letters:
        if alpha not in (0, rank + 1):
            img = ev0_times(img, table[(alpha, k)])
    return img if images is None else images.setdefault(word, img)


def ev0_negative_term(img: NcLaurent):
    """The first term of the ev0 image ``img``, in decreasing order, with a
    negative Q_{b,1}-exponent, as (b-tuple, {w-exponent: int}); None when
    it is a polynomial in the Q_{b,1}.  A Q_{a,0} left in ``img`` raises
    AssertionError."""
    if not img:
        return None
    (lo, hi), r = img.bounds(), img.rank
    if any(lo[1:r + 1]) or any(hi[1:r + 1]):
        raise AssertionError("evaluation left a Q_{a,0} behind")
    # b-tuples are distinct, so max never compares the w-coefficients
    return max((b, c) for (_, b), c in img.terms() if min(b) < 0) if min(lo[r + 1:]) < 0 else None
