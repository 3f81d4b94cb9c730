"""Rank-one Whittaker series and the level-1 Toda difference equation.

The two fundamental series, as functions of an integer n >= 0 truncated at
order N in u = q**-1:

    W(n)      = p**(n-1/2)  sum_{a>=0} u**(a(n+1)) / prod_{i=1}^{a} (1-u**i)(1-p**2 u**i)
    W_ref(n)  = p**(1/2-n)  sum_{a>=0} u**(a(n+1)) / prod_{i=1}^{a} (1-u**i)(1-p**-2 u**i)

Every coefficient is an integer Laurent polynomial in s = p**(1/2), so the
series live in Z[s, s**-1][u] / (u**(N+1)), and the reflection p -> 1/p is
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
from .laurent import constrain, divide_binomial


class TruncatedSeries:
    """Truncated power series in u with integer Laurent-polynomial
    coefficients in s = p**(1/2), stored as {(u-exponent, s-exponent): int}."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs=None):
        self.order = order
        self.coeffs = {} if coeffs is None else {
            k: c for k, c in coeffs.items() if c and k[0] <= order
        }

    @classmethod
    def zero(cls, order):
        return cls(order, {})

    @classmethod
    def one(cls, order):
        return cls(order, {(0, 0): 1})

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def __add__(self, other):
        order = min(self.order, other.order)
        out = {k: c for k, c in self.coeffs.items() if k[0] <= order}
        for k, c in other.coeffs.items():
            if k[0] > order:
                continue
            nv = out.get(k, 0) + c
            if nv:
                out[k] = nv
            else:
                out.pop(k, None)
        return TruncatedSeries(order, out)

    def __neg__(self):
        return TruncatedSeries(self.order, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        order = min(self.order, other.order)
        out = {}
        for (e1, k1), c1 in self.coeffs.items():
            if e1 > order:
                continue
            for (e2, k2), c2 in other.coeffs.items():
                e = e1 + e2
                if e > order:
                    continue
                key = (e, k1 + k2)
                nv = out.get(key, 0) + c1 * c2
                if nv:
                    out[key] = nv
                else:
                    del out[key]
        return TruncatedSeries(order, out)

    def is_zero(self):
        return not self.coeffs

    def lowest_order(self):
        """The least u-exponent with a nonzero coefficient (None for zero)."""
        return min((e for e, _ in self.coeffs), default=None)

    def __repr__(self):
        bits = ["%d s^%d u^%d" % (c, k, e) for (e, k), c in sorted(self.coeffs.items())]
        return "TruncatedSeries(%s + O(u^%d))" % (" + ".join(bits) or "0", self.order + 1)


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
    the sum over a of s**pref u**(a(n+1)) T_a (see ``_pochhammer_prefixes``)."""
    _check_order(order)
    if n < 0:
        raise ValueError("the series is only summable for n >= 0")
    sign = -1 if reflected else 1
    pref, x = sign * (2 * n - 1), sign * 4
    out = {}
    for a, prefix in enumerate(_pochhammer_prefixes(order)):
        shift = a * (n + 1)
        if shift > order:
            break
        for e, row in enumerate(prefix[: order - shift + 1], shift):
            for l, c in row:
                key = (e, pref + x * l)
                out[key] = out.get(key, 0) + c
    return TruncatedSeries(order, out)


def toda_residual(n: int, order: int, reflected: bool) -> TruncatedSeries:
    """W(n+1) + (1 - u**n) W(n-1) - (p + p**-1) W(n); zero when the relation
    holds.  Defined for n >= 1: at n = 0 the middle coefficient vanishes but
    the series at argument -1 is not u-adically summable, so the three-term
    relation has no content there (the n = 0 boundary is exactly the
    class-one condition, verified by ``class_one_combination``)."""
    _check_order(order)
    if n < 1:
        raise ValueError("the three-term relation needs n >= 1")
    gate = TruncatedSeries(order, {(0, 0): 1, (n, 0): -1})
    lhs = w_series(n + 1, reflected, order) + gate * w_series(n - 1, reflected, order)
    eigen = TruncatedSeries(order, {(0, 2): 1, (0, -2): 1})
    return lhs - eigen * w_series(n, reflected, order)


def _times_coefficient(series: TruncatedSeries, reflected: bool) -> TruncatedSeries:
    """``class_one_coefficient(order, reflected) * series``, as ``order``
    one-pass divisions of s * series (of -s**-5 * series when reflected) by
    1 - s**-4 u**i (by 1 - s**4 u**i), i = 1..order."""
    order = series.order
    shift, sign, x = (-5, -1, 4) if reflected else (1, 1, -4)
    rows = [{} for _ in range(order + 1)]
    for (e, k), c in series.coeffs.items():
        rows[e][k + shift] = sign * c
    for i in range(1, order + 1):
        divide_binomial(rows, x, i)
    return TruncatedSeries(order, {(e, k): c for e, row in enumerate(rows) for k, c in row.items()})


def class_one_coefficient(order: int, reflected: bool) -> TruncatedSeries:
    """The combination coefficient times 1 - p**-2, with the infinite product
    truncated.  The coefficient is  p**(1/2) / ((1-p**-2) prod_{i>=1} (1-p**-2 u**i)),
    so this is  s / prod (1 - s**-4 u**i);  the reflected coefficient is
    p**(-1/2) / ((1-p**2) prod (1-p**2 u**i)), and (1-p**-2)/(1-p**2) = -p**-2
    makes this  -s**-5 / prod (1 - s**4 u**i)."""
    _check_order(order)
    return _times_coefficient(TruncatedSeries.one(order), reflected)


def char_to_series(n: int, order: int) -> TruncatedSeries:
    """The rank-one level-1 character chi_n constrained to z = p, as a
    u-series (exact; polynomial, so truncation only forgets nothing)."""
    chi = constrain(graded_character(NVector.level_one(1, (n,))).monomials(), 1)
    return TruncatedSeries(order, {(-qe, 2 * ze): c for (qe, ze), c in chi.terms()})


def class_one_difference(n_values, order: int):
    """None when the class-one combination reproduces every character of
    ``n_values`` through the order, else (n, e, combination, head * chi_n)
    for the first n that fails and the lowest u-order e where they differ,
    the two u**e coefficients as {s-exponent: int}.  Both sides are
    multiplied by 1 - p**-2 (see ``class_one_coefficient``)."""
    _check_order(order)
    head = TruncatedSeries(order, {(0, 0): 1, (0, -4): -1})
    for n in n_values:
        combo = _times_coefficient(w_series(n, False, order), False) + _times_coefficient(
            w_series(n, True, order), True
        )
        target = head * char_to_series(n, order)
        if combo != target:
            e = (combo - target).lowest_order()
            return n, e, *({k: c for (u, k), c in sorted(f.coeffs.items()) if u == e} for f in (combo, target))
    return None


def class_one_combination(n_values, order: int) -> bool:
    """The class-one combination of the two fundamental series reproduces the
    exact character for every n: all coefficients beyond the polynomial
    degree cancel up to the truncation order."""
    return class_one_difference(n_values, order) is None
