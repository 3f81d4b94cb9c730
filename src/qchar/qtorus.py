"""The quantum torus on the initial cluster and the Q-system recursion.

Generators Q_{a,0}, Q_{a,1} (a in [1, r]) q-commute:

    Q_{a,k} Q_{b,k'} = v**(lam(a,b) * (k' - k)) Q_{b,k'} Q_{a,k}
                                                (|k - k'| <= |a - b| + 1)

and every Q_{a,k}, k in ZZ, is a Laurent polynomial in the initial cluster
(the quantum cluster Laurent property).  Elements are stored normal ordered:
all Q_{a,0} to the left of all Q_{b,1}, encoded as exponent pairs
(a-vector, b-vector) with W-ring scalar coefficients.  Moving Q_{b,1}**m
left past Q_{a,0}**l costs v**(-lam(a,b)*l*m).

The recursion

    v**lam(a,a) Q_{a,k+1} Q_{a,k-1} = Q_{a,k}**2 - Q_{a+1,k} Q_{a-1,k},
    Q_{0,k} = Q_{r+1,k} = 1

is solved forwards and backwards by exact one-sided division (greedy on the
graded-lex leading monomial; torus monomials are units, so the greedy
quotient exists whenever any quotient does).  Failure would falsify the
Laurent property and raises ``NcNotDivisible``.
"""

from __future__ import annotations

import heapq

from .cartan import CartanData
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


class NcLaurent:
    """Normal-ordered element of the quantum torus; immutable by convention."""

    __slots__ = ("rank", "coeffs")

    def __init__(self, rank, coeffs):
        self.rank = rank
        self.coeffs = coeffs  # {(a-tuple, b-tuple): {w-exponent: int}}

    @classmethod
    def zero(cls, rank):
        return cls(rank, {})

    @classmethod
    def from_int(cls, rank, n, wexp=0):
        if not n:
            return cls.zero(rank)
        z = (0,) * rank
        return cls(rank, {(z, z): {wexp: n}})

    @classmethod
    def one(cls, rank):
        return cls.from_int(rank, 1)

    @classmethod
    def monomial(cls, rank, a, b, wexp=0, coeff=1):
        if not coeff:
            return cls.zero(rank)
        return cls(rank, {(tuple(a), tuple(b)): {wexp: coeff}})

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
        )

    def __sub__(self, other):
        return self + (-other)

    def times_unit(self, wexp):
        if not wexp:
            return self
        return NcLaurent(
            self.rank,
            {k: {e + wexp: x for e, x in c.items()} for k, c in self.coeffs.items()},
        )

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return NcLaurent.zero(self.rank)
            return NcLaurent(
                self.rank,
                {k: {e: x * other for e, x in c.items()} for k, c in self.coeffs.items()},
            )
        r = self.rank
        lam = CartanData(r).matrix()
        out = {}
        for (a1, b1), c1 in self.coeffs.items():
            for (a2, b2), c2 in other.coeffs.items():
                twist = -2 * sum(
                    a2[i] * lam[i][j] * b1[j]
                    for i in range(r)
                    if a2[i]
                    for j in range(r)
                    if b1[j]
                )
                key = (
                    tuple(x + y for x, y in zip(a1, a2)),
                    tuple(x + y for x, y in zip(b1, b2)),
                )
                cur = out.setdefault(key, {})
                for e1, x1 in c1.items():
                    for e2, x2 in c2.items():
                        e = e1 + e2 + twist
                        nv = cur.get(e, 0) + x1 * x2
                        if nv:
                            cur[e] = nv
                        else:
                            del cur[e]
                if not cur:
                    del out[key]
        return NcLaurent(self.rank, out)

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
        return min((min(b) for (_, b) in self.coeffs), default=0)

    def to_text(self):
        if not self.coeffs:
            return "0"
        bits = []
        for (a, b) in sorted(self.coeffs, reverse=True):
            c = Scalar(RING_W, self.coeffs[(a, b)]).to_text()
            mono = ["Q[%d,0]^%d" % (i + 1, e) for i, e in enumerate(a) if e]
            mono += ["Q[%d,1]^%d" % (i + 1, e) for i, e in enumerate(b) if e]
            mono = "*".join(mono)
            bits.append("%s*%s" % (c, mono) if mono else c)
        return " + ".join(bits).replace("+ -", "- ")

    def __repr__(self):
        return "NcLaurent(r=%d, %s)" % (self.rank, self.to_text())


def _flat(key):
    return key[0] + key[1]


def _grade(flat):
    return (sum(flat),) + flat


def _nc_div(num: NcLaurent, den: NcLaurent, side: str) -> NcLaurent:
    """Exact quotient X with X*den = num (side='right') or den*X = num
    (side='left')."""
    if den.is_zero():
        raise ZeroDivisionError("division by zero in the quantum torus")
    if num.is_zero():
        return NcLaurent.zero(num.rank)
    rank = num.rank
    width = 2 * rank
    nmin = [min(_flat(k)[i] for k in num.coeffs) for i in range(width)]
    dmin = [min(_flat(k)[i] for k in den.coeffs) for i in range(width)]

    # Normalize supports into the nonnegative cone.  For right division,
    # X*den = num  <=>  (M num M') with den*M' shifted; the quotient of the
    # shifted problem is M_left * X and lives in the cone, which makes the
    # graded-lex descent a well-order.  Build the shifted problem by actual
    # monomial multiplication so all unit twists stay exact.
    m_d = [-x for x in dmin]
    m_n = [a - b for a, b in zip(dmin, nmin)]
    mono = lambda off: NcLaurent.monomial(rank, off[:rank], off[rank:])
    if side == "right":
        dd = den * mono(m_d)
        nn = mono(m_n) * num * mono(m_d)
    else:
        dd = mono(m_d) * den
        nn = mono(m_d) * num * mono(m_n)

    lam = CartanData(rank).matrix()

    def pair_twist(left_key, right_key):
        (_, b1), (a2, _) = left_key, right_key
        return -2 * sum(
            a2[i] * lam[i][j] * b1[j]
            for i in range(rank)
            if a2[i]
            for j in range(rank)
            if b1[j]
        )

    dflat = {_flat(k): k for k in dd.coeffs}
    dlead_flat = max(dflat, key=_grade)
    dlead = dflat[dlead_flat]
    dlc = dd.coeffs[dlead]

    work = {k: dict(c) for k, c in nn.coeffs.items()}
    heap = [tuple(-x for x in _grade(_flat(k))) for k in work]
    heapq.heapify(heap)
    quot = {}
    while work:
        item = heapq.heappop(heap)
        flat = tuple(-x for x in item[1:])
        key = (flat[:rank], flat[rank:])
        c = work.get(key)
        if c is None:
            continue
        qflat = tuple(a - b for a, b in zip(flat, dlead_flat))
        if any(x < 0 for x in qflat):
            raise NcNotDivisible("no exact quotient in the quantum torus")
        qkey = (qflat[:rank], qflat[rank:])
        tw = pair_twist(qkey, dlead) if side == "right" else pair_twist(dlead, qkey)
        qc = _wdivexact(c, {e + tw: x for e, x in dlc.items()})
        if qc is None:
            raise NcNotDivisible("scalar coefficient not divisible")
        quot[qkey] = qc
        term = NcLaurent(rank, {qkey: qc})
        rest = (term * dd) if side == "right" else (dd * term)
        # the leading term of ``rest`` equals the popped leading term of the
        # remainder by construction, so the subtraction cancels it
        for k, cc in rest.coeffs.items():
            cur = work.get(k)
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
                work[k] = cur
                if fresh:
                    heapq.heappush(heap, tuple(-x for x in _grade(_flat(k))))
            else:
                work.pop(k, None)

    shifted = NcLaurent(rank, quot)
    # Undo the normalization by the exact inverse monomial:
    # M(m)^{-1} = w**(-2 m_a.lam.m_b) M(-m).
    corr = -2 * sum(
        m_n[i] * lam[i][j] * m_n[rank + j]
        for i in range(rank)
        if m_n[i]
        for j in range(rank)
        if m_n[rank + j]
    )
    undo = mono([-x for x in m_n]).times_unit(corr)
    return (undo * shifted) if side == "right" else (shifted * undo)


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
    row = [cart.lam_row_sum(a) for a in range(1, rank + 1)]
    zero_a = (0,) * rank
    out = {}
    for (a, b), c in f.coeffs.items():
        shift = 0
        if mode == "ev0":
            shift = -2 * sum(a[i] * row[i] for i in range(rank) if a[i])
        key = (zero_a, b)
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
    if any(a != (0,) * rank for (a, _) in ev0.coeffs):
        raise AssertionError("evaluation left a Q_{a,0} behind")
    return ev0.min_b_exponent() >= 0
