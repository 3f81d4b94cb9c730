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
right a-part.  The product, commutator, division and ev0 steps read one
view of an element, its terms grouped by position (a, b)
(``NcLaurent._position_groups``), and run over position pairs, each twist
a table lookup; ``evaluate`` makes one pass over the keys.

Two checks read each position's w-polynomial at w = 2**s as one integer
(``laurent``'s Kronecker codec), s derived from a bound on the coefficients
(the sum of absolute coefficients of the factors), never fixed; an element
builds its packed positions once per width (``NcLaurent._packed``, a
bounded memo).  ``q_commutator`` tests f*g = w**c * g*f exactly without
forming terms: only position pairs whose twists differ contribute, and at
2**s beyond every coefficient the difference can have, each target
position is one integer that is 0 iff all its coefficients are; a nonzero
commutator, or one at the edge of the w slot, is formed by the twisted
product (``_twisted``, w**c * f*g).  The ev0 images of polynomiality
words stay packed (``PackedImage``, a ``laurent.Packed`` by position): one
``ev0_times`` step multiplies the image's positions by the letter's, one
integer product per pair, x's a-part moved left already evaluated;
polynomiality is then a mask test on the position keys, and an image is
unpacked only to name a failing monomial.  The w slot has the range of
every slot: products and steps raise ``ExponentOverflow`` when a term they
form has w outside [EXP_MIN, EXP_MAX].

The recursion

    v**lam(a,a) Q_{a,k+1} Q_{a,k-1} = Q_{a,k}**2 - Q_{a+1,k} Q_{a-1,k},
    Q_{0,k} = Q_{r+1,k} = 1

is solved forwards and backwards by exact one-sided division (greedy on the
leading key, a lexicographic monomial order in which the position (a, b)
decides and the w-exponent breaks ties; leading terms multiply to leading
terms, so the greedy quotient exists whenever any quotient does); each
quotient term's multiple of the divisor is subtracted straight from the
divisor's positions, twisted by their a-vectors (right division) or
b-parts (left).  Every quotient position is checked against the bounds an
exact quotient must meet, and every w-exponent against a floor at its
position, so the descent stops after finitely many steps.  Failure would
falsify the Laurent property and raises ``NcNotDivisible``.
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from operator import add, itemgetter, mul, sub

from .cartan import CartanData
from .laurent import (
    EXP_MAX,
    EXP_MIN,
    SLOT_BITS,
    LaurentPoly,
    Packed,
    _guard,
    coefficient_text,
    kron_add,
    kron_width,
    offset,
    outside_box,
    pack,
    refused,
    require_fit,
    split_unit,
    unpack,
    zero_key,
)
from .rings import RING_W, ExponentOverflow, NcNotDivisible

# the w-exponent of a key k is (k & _W_MASK) - _W_ZERO
_W_MASK = (1 << SLOT_BITS) - 1
_W_ZERO = zero_key(1)
# how many widths an element keeps packed positions for (NcLaurent._packed);
# with 8, check_torus(3) builds no packing twice
_PACKS_KEPT = 8


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

    __slots__ = ("_positions", "_packs")
    from_int, variable, unit_power = map(refused, ("from_int", "variable", "unit_power"))

    @property
    def rank(self):
        return self.nvars // 2

    def _position_groups(self):
        """The one grouped view of the terms, built once: (avecs, tvecs,
        positions, |self|_1), the distinct a-vectors, the twist vectors of the
        distinct b-parts, and per position (a, b) the tuple (ia, ib, pos, wlo,
        whi, group, low): indexes into avecs and tvecs, the position key (a
        term key shifted past the w slot), the least and greatest w, [(key
        less the zero key, coefficient)], and the least such key, which
        differs from each by w less wlo; |self|_1 sums |coefficients|."""
        if hasattr(self, "_positions"):
            return self._positions
        r = self.rank
        zero, a_part = zero_key(2 * r + 1), (1 << (SLOT_BITS * r)) - 1
        groups, a_index, b_index = {}, {}, {}
        for k in self.coeffs:
            groups.setdefault(k >> SLOT_BITS, []).append(k)
        positions = []
        for pos, keys in groups.items():
            lo, hi = min(keys), max(keys)  # the keys of a position differ in w only
            group = [(k - zero, self.coeffs[k]) for k in keys]
            ia = a_index.setdefault(pos & a_part, len(a_index))
            ib = b_index.setdefault(pos >> (SLOT_BITS * r), len(b_index))
            positions.append((ia, ib, pos, (lo & _W_MASK) - _W_ZERO, (hi & _W_MASK) - _W_ZERO, group, lo - zero))
        tvecs = [_twist_vector(r, b) for b in b_index]
        l1 = sum(map(abs, self.coeffs.values()))
        self._positions = [unpack(a, r) for a in a_index], tvecs, positions, l1
        return self._positions

    def _packed(self, s):
        """Each position's w-polynomial read at w = 2**s from its least w, in
        ``_position_groups`` order.  A bounded memo: the packings of the
        last _PACKS_KEPT widths asked for are kept, the oldest dropped (a
        tuple of (width, packing) pairs, replaced in one assignment)."""
        packs = getattr(self, "_packs", ())
        for width, packed in packs:
            if width == s:
                return packed
        packed = [sum(x << s * (k - p[6]) for k, x in p[5]) for p in self._position_groups()[2]]
        self._packs = packs[1 - _PACKS_KEPT:] + ((s, packed),)
        return packed

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
        if k not in (0, 1) or not 0 < alpha <= rank:
            raise ValueError("generators are Q_{alpha,k} with alpha in [0, %d] and k = 0, 1" % (rank + 1))
        e, z = tuple(power if i == alpha - 1 else 0 for i in range(rank)), (0,) * rank
        return cls.monomial(rank, *((e, z) if k == 0 else (z, e)))

    def terms(self):
        """Iterate over ((a-tuple, b-tuple), {w-exponent: int}) pairs."""
        r = self.rank
        for v, s in self.z_terms().items():
            yield (v[:r], v[r:]), s

    def __mul__(self, other):
        """The twisted product (``_twisted`` with c = 0)."""
        if isinstance(other, int):
            return LaurentPoly.__mul__(self, other)
        return _twisted(self, other, 0)

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


def _twisted(f: NcLaurent, g: NcLaurent, c: int) -> NcLaurent:
    """w**c * f*g.  Moving g's a-part left past f's b-part raises w by their
    twist, one for all term pairs of two positions, and c raises every term.
    Raises ``ExponentOverflow`` when a term it forms has w out of range."""
    f._check_compatible(g)
    if not f.coeffs or not g.coeffs:
        return f._like({})
    (lo1, hi1), (lo2, hi2) = f.bounds(), g.bounds()
    # the (a, b) slots add up; the twisted w slot is checked per position pair
    lo, hi = tuple(map(add, lo1[1:], lo2[1:])), tuple(map(add, hi1[1:], hi2[1:]))
    require_fit(lo, hi)
    _, tvecs, left, _ = f._position_groups()
    avecs, _, right, _ = g._position_groups()
    twists = [[sum(map(mul, a, t)) + c for a in avecs] for t in tvecs]  # [ib1][ia2]
    out, zero = {}, zero_key(f.width)
    get = out.get
    for _, ib1, _, wlo1, whi1, group1, _ in left:
        row = twists[ib1]
        for ia2, _, _, wlo2, whi2, group2, _ in right:
            twist = row[ia2]
            if twist + wlo1 + wlo2 < EXP_MIN or twist + whi1 + whi2 > EXP_MAX:
                raise ExponentOverflow("a w-exponent would leave [%d, %d]" % (EXP_MIN, EXP_MAX))
            for k1, c1 in group1:
                k1 += zero + twist
                for k2, c2 in group2:
                    k = k1 + k2
                    out[k] = get(k, 0) + c1 * c2
    out = {k: x for k, x in out.items() if x}
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
    position's sum of shifted products is 0 (``_packed_sums``, over the
    packed positions each element builds once per width).  The test runs
    behind one gate: every term either product forms has w in [wlo, whi],
    the w-ranges of f and g plus the least and greatest raise, and that
    range must fit the slot (so no pair needs a check) and pack in at most
    64 bits per term of f and g.  A nonzero commutator, or one the gate
    declines (edge w only), is the difference of the twisted products
    (``_twisted``), which raises ``ExponentOverflow`` exactly when a term
    it forms has w out of range."""
    f._check_compatible(g)
    if not f.coeffs or not g.coeffs:
        return f._like({})
    (lo1, hi1), (lo2, hi2) = f.bounds(), g.bounds()
    require_fit(tuple(map(add, lo1[1:], lo2[1:])), tuple(map(add, hi1[1:], hi2[1:])))
    avecs1, tvecs1, left, l1f = f._position_groups()
    avecs2, tvecs2, right, l1g = g._position_groups()
    twists = [[sum(map(mul, a, t)) for a in avecs2] for t in tvecs1]  # [ib1][ia2]
    backs = [[sum(map(mul, a, t)) + c for t in tvecs2] for a in avecs1]  # [ia1][ib2]
    raises = [x for table in (twists, backs) for row in table for x in row]
    s = (l1f * l1g).bit_length() + 2
    wlo, whi = lo1[0] + lo2[0] + min(raises), hi1[0] + hi2[0] + max(raises)
    if EXP_MIN <= wlo and whi <= EXP_MAX and s * (whi - wlo + 1) <= 64 * (len(f.coeffs) + len(g.coeffs)):
        sums = _packed_sums(s, zip(left, f._packed(s)), zip(right, g._packed(s)), twists, backs)
        if not any(x for _, x in sums.values()):
            return f._like({})
    return _twisted(f, g, 0) - _twisted(g, f, c)


def _packed_sums(s, left, right, twists, backs):
    """{target position: [least w, n]} for ``q_commutator``: n the target's
    w-polynomial of f*g - w**c g*f read at w = 2**s from that w, summed
    over the pairs of (position, packed integer) of f (``left``) and of g
    (``right``) whose raises differ, each target from the least w it has
    met."""
    acc = {}
    right = [(ia, ib, pos, wlo, n) for (ia, ib, pos, wlo, _, _, _), n in right]
    for (ia1, ib1, pos1, wlo1, _, _, _), n1 in left:
        row, brow = twists[ib1], backs[ia1]
        for ia2, ib2, pos2, wlo, n2 in right:
            twist, back = row[ia2], brow[ib2]
            if twist != back:
                prod = n1 * n2
                if twist < back:
                    kron_add(acc, pos1 + pos2, wlo1 + wlo + twist, prod - (prod << s * (back - twist)), s)
                else:
                    kron_add(acc, pos1 + pos2, wlo1 + wlo + back, (prod << s * (twist - back)) - prod, s)
    return acc


def _nc_div(num: NcLaurent, den: NcLaurent, side: str) -> NcLaurent:
    """Exact quotient X with X*den = num (side='right') or den*X = num
    (side='left').  An exact quotient has its positions between the least
    (a, b) exponents of num less those of den and the greatest less the
    greatest.  At a position P, the w-coefficient of the remainder when P
    is first reached is the quotient's w-coefficient times den's leading
    block, so while the division is exact the remainder's leading w there
    stays at least its least w then plus the w-spread of that block.  The
    greedy descent checks both, so it stops after finitely many steps.
    A quotient term's twists against den's distinct a-vectors (right) or
    twist vectors (left) are computed once, then read per den position."""
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

    # q's twist against a position of den is u . v: u from q's b-part, v
    # den's a-vector on the right; u q's a-part, v den's twist vector on the left
    right = side == "right"
    avecs, tvecs, positions, _ = den._position_groups()
    ia, ib, dpos, dwlo, dw, _, _ = max(positions, key=itemgetter(2))
    vecs, dvec = (avecs, avecs[ia]) if right else (tvecs, tvecs[ib])
    dlc, spread = den.coeffs[(dpos << SLOT_BITS) + dw + _W_ZERO], dw - dwlo
    groups = [(p[0] if right else p[1], p[3], p[4], p[5]) for p in positions]

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
        u = _twist_vector(rank, qpos >> SLOT_BITS * rank) if right else unpack(qpos, rank)
        wq = w - dw - sum(map(mul, u, dvec))
        qkey = (qpos << SLOT_BITS) + pack((wq,))
        quot[qkey] = qc
        # subtract qc * q * den (or qc * den * q), q the new monomial, from
        # den's positions; its leading term cancels the popped one
        twists = [sum(map(mul, u, v)) for v in vecs]
        for i, wlo, whi, group in groups:
            twist = twists[i]
            if wq + twist + wlo < EXP_MIN or wq + twist + whi > EXP_MAX:
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
    table = {(a, k): NcLaurent.generator(rank, a, k) for a in range(1, rank + 1) for k in (0, 1)}
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
    Raises ``ExponentOverflow`` when a term would have w out of range."""
    if mode not in ("ev", "ev0"):
        raise ValueError("mode must be 'ev' or 'ev0'")
    r = f.rank
    # ev0: Q_{.,0}**a -> w**(a . row), row_a = -2 sum_b lam(a, b) = sum of twist row a
    row = tuple(map(sum, _twist_rows(r))) if mode == "ev0" else (0,) * r
    a_slots = ((1 << SLOT_BITS * r) - 1) << SLOT_BITS
    # per a-part: its w raise, and the key move that adds it and clears the a-slots
    moves, out = {}, {}
    for k, c in f.coeffs.items():
        a = k & a_slots
        if a not in moves:
            avec = unpack(a >> SLOT_BITS, r)
            up = sum(map(mul, avec, row))
            moves[a] = up, up - offset((0, *avec))
        up, move = moves[a]
        if not EXP_MIN <= (k & _W_MASK) - _W_ZERO + up <= EXP_MAX:
            raise ExponentOverflow("a w-exponent would leave [%d, %d]" % (EXP_MIN, EXP_MAX))
        out[k + move] = out.get(k + move, 0) + c
    return f._like({k: c for k, c in out.items() if c})


class PackedImage(Packed):
    """An ev0 image as ``laurent.Packed`` rows: each is keyed by a position
    (a and b slots, as in ``NcLaurent``; the a-part is zero in a true ev0
    image), and its digit d is the coefficient of w**d."""

    __slots__ = ("rank",)

    def __init__(self, rank, width, rows):
        super().__init__(width, rows)
        self.rank = rank

    @classmethod
    def of(cls, f: NcLaurent):
        """f packed position by position at the least width its |f|_1 allows;
        a Q_{a,0} in f stays in its position key."""
        _, _, positions, l1 = f._position_groups()
        s = kron_width(l1)
        return cls(f.rank, s, {p[2]: (l1, p[3], n) for p, n in zip(positions, f._packed(s))})


def ev0_times(img: PackedImage, x: NcLaurent) -> PackedImage:
    """ev0(f * x) from the image ``img`` = ev0(f) (the Q_{a,0} of f stay
    leftmost in f * x): x's a-part moves left already evaluated, raised by
    its twist past each position of img and by its ev0 row, and each
    (position of img, position of x) pair costs one product of packed
    integers.  Every coefficient of the result is at most B |x|_1, B the
    largest bound of img's rows, and img is held at a width for that
    (``Packed.hold``).  Raises ``ExponentOverflow`` when a term of the
    image would have w, or a b-exponent, out of range."""
    if not isinstance(x, NcLaurent) or x.rank != img.rank:
        raise TypeError("incompatible operands: %r vs %r" % (img, x))
    rank = img.rank
    if not img.packing[1] or not x.coeffs:
        return PackedImage(rank, img.packing[0], {})
    avecs, _, positions, l1 = x._position_groups()
    bound = max(b for b, _, _ in img.packing[1].values()) * l1
    s, rows = img.hold(bound)
    # the top bit of every slot: a valid key never sets one
    guard, b_shift = _guard(2 * rank), SLOT_BITS * rank
    # x's b-part adds to an image position key; x's a-part moves left past
    # the position's Q_{b,1}**b, raising w by a . rows . b, and evaluates to
    # w**(a . rows . (1, .., 1)) (``evaluate``): a . t, t the twist vector of b + 1
    ones, b_zero = offset((1,) * rank), zero_key(2 * rank) - zero_key(rank)
    right = [(p[0], (p[2] >> b_shift << b_shift) - b_zero, p[3], p[4] - p[3], n) for p, n in zip(positions, x._packed(s))]
    acc = {}
    for pos, (_, wlo1, n1) in rows.items():
        t, span1 = _twist_vector(rank, (pos >> b_shift) + ones), abs(n1).bit_length() // s
        lows = [wlo1 + sum(map(mul, a, t)) for a in avecs]  # the least w per a-vector of x
        for ia, b, wlo, span, n2 in right:
            target, lo, prod = pos + b, lows[ia] + wlo, n1 * n2
            # a b-slot, or w, left its range
            if target & guard or lo < EXP_MIN or lo + span1 + span > EXP_MAX:
                raise ExponentOverflow("exponents would leave [%d, %d]" % (EXP_MIN, EXP_MAX))
            kron_add(acc, target, lo, prod, s)
    return PackedImage(rank, s, Packed.summed(acc, s, dict.fromkeys(acc, bound)))


def ev0_image(rank: int, word, table: dict, images=None) -> PackedImage:
    """ev0 of the product of the Q_{alpha,k} (k >= 1) of ``word``, (alpha, k)
    letters left to right (alpha 0 or r+1 gives 1), by one ``ev0_times``
    step per letter.  With a dict ``images`` of images by word, a stored
    word[:-1] is reused and the word stored.  A letter with k < 1 or not in
    ``table`` raises ValueError."""
    word = tuple(word)
    bad = [(alpha, k) for alpha, k in word if k < 1 or (alpha not in (0, rank + 1) and (alpha, k) not in table)]
    if bad:
        raise ValueError("letter %r: polynomiality words use k >= 1 and letters of the table" % (bad[0],))
    img = (images or {}).get(word[:-1])
    img, letters = (PackedImage.of(NcLaurent.one(rank)), word) if img is None else (img, word[-1:])
    for alpha, k in letters:
        if alpha not in (0, rank + 1):
            img = ev0_times(img, table[(alpha, k)])
    return img if images is None else images.setdefault(word, img)


def ev0_negative_term(img: PackedImage):
    """The first term of the ev0 image ``img``, in decreasing order, with a
    negative Q_{b,1}-exponent, as (b-tuple, {w-exponent: int}); None when
    it is a polynomial in the Q_{b,1}.  One mask test per position: the
    a-slots must hold zero and the b-slots their sign bit (a biased slot is
    at least the bias iff its exponent is nonnegative).  A Q_{a,0} left in
    ``img`` raises AssertionError."""
    r, groups = img.rank, img.packing[1]
    b_shift = SLOT_BITS * r
    a_mask = (1 << b_shift) - 1
    signs = offset((0,) * r + (-EXP_MIN,) * r)
    mask, want = a_mask | signs, zero_key(r) | signs
    bad = [pos for pos in groups if pos & mask != want]
    if not bad:
        return None
    if any(pos & a_mask != zero_key(r) for pos in bad):
        raise AssertionError("evaluation left a Q_{a,0} behind")
    # b-tuples are distinct, so max never compares the w-coefficients
    b, pos = max((unpack(pos >> b_shift, r), pos) for pos in bad)
    return b, dict(img.digits(pos))
