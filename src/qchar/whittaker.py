"""Rank-one Whittaker series and the level-1 Toda difference equation.

The two fundamental series, as functions of an integer n >= 0 truncated at
order N in u = q**-1:

    W(n)      = p**(n-1/2)  sum_{a>=0} u**(a(n+1)) / prod_{i=1}^{a} (1-u**i)(1-p**2 u**i)
    W_ref(n)  = p**(1/2-n)  sum_{a>=0} u**(a(n+1)) / prod_{i=1}^{a} (1-u**i)(1-p**-2 u**i)

Every coefficient is an integer Laurent polynomial in s = p**(1/2), so the
series live in Z[s, s**-1][u] / (u**(N+1)): ``RING_W`` polynomials in u,
s in the unit slot (``TruncatedSeries``).  The reflection p -> 1/p is
s -> 1/s.  Both satisfy the three-term relation

    W(n+1) + (1 - u**n) W(n-1) = (p + p**-1) W(n),

which is the rank-one level-1 difference equation for graded characters with
z = p.  The class-one combination ``c W(n) + c_ref W_ref(n)`` reproduces the
graded character itself: all series coefficients beyond the polynomial
degree cancel order by order.  The coefficients carry a 1/(1 - p**-2) head,
so the identity is checked multiplied through by 1 - p**-2, which is not a
zero divisor in the series ring.

Each factor 1/(1 - s**a u**i) is applied as a division, and dividing by a
binomial with constant term 1 is one pass in increasing u-order
(``laurent.divide_binomial`` on rows {s-exponent: int}).  The Pochhammer
prefixes T_a = prod_{i<=a} 1/((1-u**i)(1-x u**i)), x = p**(+-2), do not
depend on n, so they are built once per order, each from the last by two
such divisions, and every W(n) is a shifted sum of them; the class-one
products c W(n) are ``order`` divisions of the head times W(n).  The
general-rank level-1 equation is checked on the characters themselves by
``verify.check_level1_report``.
"""

from __future__ import annotations

from functools import lru_cache

from .characters import NVector, graded_character
from .laurent import EXP_MIN, SLOT_BITS, LaurentPoly, constrain, divide_binomial, refused, require_fit, zero_key
from .rings import RING_W

_ZERO = zero_key(2)  # the key of s**0 u**0
_U = 1 << SLOT_BITS  # adding e * _U to a key multiplies by u**e
_LOW = _ZERO + EXP_MIN  # divmod(key - _LOW, _U) is (e, k - EXP_MIN) for s**k u**e


class TruncatedSeries(LaurentPoly):
    """A power series in u through u**order with integer Laurent-polynomial
    coefficients in s = p**(1/2): a ``RING_W`` polynomial in the one
    variable u, s in the unit slot, so c s**k u**e has the exponent vector
    (k, e) and no term has e > order.  Sums, ``==`` and products of two
    orders raise ValueError."""

    __slots__ = ("order",)
    _symbols = ("s", ("u",))
    from_terms, from_int, monomial, variable, unit_power, sum, with_ring = map(refused, ("from_terms", "from_int", "monomial", "variable", "unit_power", "sum", "with_ring"))

    def __init__(self, order, coeffs, box=None):
        super().__init__(RING_W, 1, coeffs, box)
        self.order = order

    @classmethod
    def zero(cls, order):
        return cls(order, {})

    @classmethod
    def one(cls, order):
        return cls(order, {_ZERO: 1})

    def _like(self, coeffs, box=None):
        return TruncatedSeries(self.order, coeffs, box)

    def __repr__(self):
        return "TruncatedSeries(order=%d, %s)" % (self.order, self.to_text())

    def _check_basis(self, other):
        super()._check_basis(other)
        if other.order != self.order:
            raise ValueError("series truncated at orders %d and %d do not combine" % (self.order, other.order))

    def __mul__(self, other):
        """The product through u**order: u is the top slot, so the terms
        above the order are the keys from that of s**EXP_MIN u**(order+1) on."""
        cut = _LOW + (self.order + 1) * _U
        return self._like({k: c for k, c in super().__mul__(other).coeffs.items() if k < cut})

    def lowest_order(self):
        """The least u-exponent with a nonzero coefficient (None for zero)."""
        return divmod(min(self.coeffs) - _LOW, _U)[0] if self.coeffs else None


def _check_order(order: int):
    if order < 0:
        raise ValueError("the truncation order must be >= 0, not %d" % order)


@lru_cache(maxsize=4)
def _pochhammer_prefixes(order: int):
    """T_a = prod_{i<=a} 1/((1-u**i)(1-x u**i)) for a = 0..order, x = s**4
    (s**-4 in the reflected series, which only relabels x), each T_a from
    T_{a-1} by two one-pass divisions.  W(n) shifts T_a by u**(a(n+1)) with
    n >= 0, so T_a is kept through u**(order-a) only.  Rows of
    (x-exponent, int) pairs, as immutable tuples."""
    rows = [{0: 1}] + [{} for _ in range(order)]
    out = []
    for a in range(order + 1):
        if a:
            del rows[order - a + 1:]
            divide_binomial(rows, 0, a)
            divide_binomial(rows, 1, a)
        out.append(tuple(tuple(row.items()) for row in rows))
    return tuple(out)


def w_series(n: int, reflected: bool, order: int) -> TruncatedSeries:
    """The fundamental series at argument n >= 0, truncated at the order:
    the sum over a of s**pref u**(a(n+1)) T_a (see ``_pochhammer_prefixes``).
    Its exponent box is exact: T_0 = 1 gives s**pref at u**0, and x**e u**e
    in T_1, moved to u**(n+1+e), the far end of the s-range and of u."""
    _check_order(order)
    if n < 0:
        raise ValueError("the series is only summable for n >= 0")
    sign = -1 if reflected else 1
    pref, x = sign * (2 * n - 1), sign * 4
    far = pref + x * max(order - n - 1, 0)
    box = (min(pref, far), 0), (max(pref, far), order if order > n else 0)
    require_fit(*box)
    out = {}
    get = out.get
    for a, prefix in enumerate(_pochhammer_prefixes(order)):
        shift = a * (n + 1)
        if shift > order:
            break
        base = _ZERO + pref + shift * _U
        for row in prefix[: order - shift + 1]:
            for l, c in row:
                k = base + x * l
                out[k] = get(k, 0) + c
            base += _U
    return TruncatedSeries(order, out, box)


def toda_residual(n: int, order: int, reflected: bool) -> TruncatedSeries:
    """W(n+1) + (1 - u**n) W(n-1) - (p + p**-1) W(n); zero when the relation
    holds.  Defined for n >= 1: at n = 0 the middle coefficient vanishes but
    the series at argument -1 is not u-adically summable, so the three-term
    relation has no content there (the n = 0 boundary is exactly the
    class-one condition, verified by ``class_one_combination``)."""
    _check_order(order)
    if n < 1:
        raise ValueError("the three-term relation needs n >= 1")
    gate = TruncatedSeries(order, {_ZERO: 1, _ZERO + n * _U: -1} if n <= order else {_ZERO: 1})
    lhs = w_series(n + 1, reflected, order) + gate * w_series(n - 1, reflected, order)
    eigen = TruncatedSeries(order, {_ZERO + 2: 1, _ZERO - 2: 1})
    return lhs - eigen * w_series(n, reflected, order)


def _times_coefficient(series: TruncatedSeries, reflected: bool) -> TruncatedSeries:
    """``series`` times the class-one coefficient times 1 - p**-2, the product
    truncated at its order.  The coefficient p**(1/2) / ((1-p**-2) prod_{i>=1}
    (1-p**-2 u**i)) makes this s * series / prod (1 - s**-4 u**i); reflected,
    p**(-1/2) / ((1-p**2) prod (1-p**2 u**i)) and (1-p**-2)/(1-p**2) = -p**-2
    make it -s**-5 * series / prod (1 - s**4 u**i).  Each of the ``order``
    divisions (i = 1..order) is one pass that moves an s-exponent by x at
    most once per power of u."""
    order = series.order
    shift, sign, x = (-5, -1, 4) if reflected else (1, 1, -4)
    rows = [{} for _ in range(order + 1)]
    for key, c in series.coeffs.items():
        e, k = divmod(key - _LOW, _U)
        rows[e][k + EXP_MIN + shift] = sign * c
    (lo, _), (hi, _) = series.bounds() or ((0, 0), (0, 0))
    require_fit((lo + shift + min(x * order, 0),), (hi + shift + max(x * order, 0),))
    for i in range(1, order + 1):
        divide_binomial(rows, x, i)
    bases = range(_ZERO, _ZERO + (order + 1) * _U, _U)
    return TruncatedSeries(order, {base + k: c for base, row in zip(bases, rows) for k, c in row.items()})


def char_to_series(n: int, order: int) -> TruncatedSeries:
    """The rank-one level-1 character chi_n constrained to z = p, as a
    u-series (exact; a polynomial in u = q**-1, so truncation only forgets
    its terms above the order)."""
    chi = constrain(graded_character(NVector.level_one(1, (n,))).monomials(), 1)
    (_, lo), (_, hi) = chi.bounds()
    require_fit((2 * lo,), (2 * hi,))
    out = {}
    for key, c in chi.coeffs.items():
        z, j = divmod(key - _LOW, _U)  # the term q**(j + EXP_MIN) z**z
        if -EXP_MIN - j <= order:
            out[_ZERO + (-EXP_MIN - j) * _U + 2 * z] = c
    return TruncatedSeries(order, out)


def class_one_difference(n_values, order: int):
    """None when the class-one combination reproduces every character of
    ``n_values`` through the order, else (n, e, combination, head * chi_n)
    for the first n that fails and the lowest u-order e where they differ,
    the two u**e coefficients as {s-exponent: int}.  Both sides are
    multiplied by 1 - p**-2 (see ``_times_coefficient``)."""
    _check_order(order)
    head = TruncatedSeries(order, {_ZERO: 1, _ZERO - 4: -1})
    for n in n_values:
        plain, refl = (_times_coefficient(w_series(n, r, order), r) for r in (False, True))
        combo, target = plain + refl, head * char_to_series(n, order)
        if combo != target:
            e = (combo - target).lowest_order()
            return n, e, *(dict(sorted(f.z_terms().get((e,), {}).items())) for f in (combo, target))
    return None


def class_one_combination(n_values, order: int) -> bool:
    """The class-one combination of the two fundamental series reproduces the
    exact character for every n: all coefficients beyond the polynomial
    degree cancel up to the truncation order."""
    return class_one_difference(n_values, order) is None
