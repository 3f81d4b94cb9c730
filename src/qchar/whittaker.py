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

``check_level1_toda`` verifies the level-1 difference equation for general
rank on the exact constrained characters, with the terms of the level-k
generator ``characters.difference_equation_terms`` at k = 1: a shifted term
whose occupation would drop below zero carries a vanishing coefficient.
"""

from __future__ import annotations

from .characters import NVector, difference_equation_holds, graded_character
from .laurent import constrain


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


def _geometric(order, s_exp, step):
    """1 / (1 - s**s_exp * u**step) to the given order."""
    return TruncatedSeries(order, {(j * step, j * s_exp): 1 for j in range(order // step + 1)})


def w_series(n: int, reflected: bool, order: int) -> TruncatedSeries:
    """The fundamental series at argument n >= 0, truncated at the order."""
    if n < 0:
        raise ValueError("the series is only summable for n >= 0")
    s4 = -4 if reflected else 4
    pref = 1 - 2 * n if reflected else 2 * n - 1
    total = TruncatedSeries.zero(order)
    a = 0
    while a * (n + 1) <= order:
        shift = a * (n + 1)
        term = TruncatedSeries.one(order - shift)
        for i in range(1, a + 1):
            term = term * _geometric(term.order, 0, i)
            term = term * _geometric(term.order, s4, i)
        total = total + TruncatedSeries(
            order, {(e + shift, k + pref): c for (e, k), c in term.coeffs.items()}
        )
        a += 1
    return total


def toda_residual(n: int, order: int, reflected: bool) -> TruncatedSeries:
    """W(n+1) + (1 - u**n) W(n-1) - (p + p**-1) W(n); zero when the relation
    holds.  Defined for n >= 1: at n = 0 the middle coefficient vanishes but
    the series at argument -1 is not u-adically summable, so the three-term
    relation has no content there (the n = 0 boundary is exactly the
    class-one condition, verified by ``class_one_combination``)."""
    if n < 1:
        raise ValueError("the three-term relation needs n >= 1")
    gate = TruncatedSeries(order, {(0, 0): 1, (n, 0): -1})
    lhs = w_series(n + 1, reflected, order) + gate * w_series(n - 1, reflected, order)
    eigen = TruncatedSeries(order, {(0, 2): 1, (0, -2): 1})
    return lhs - eigen * w_series(n, reflected, order)


def class_one_coefficient(order: int, reflected: bool) -> TruncatedSeries:
    """The combination coefficient times 1 - p**-2, with the infinite product
    truncated.  The coefficient is  p**(1/2) / ((1-p**-2) prod_{i>=1} (1-p**-2 u**i)),
    so this is  s / prod (1 - s**-4 u**i);  the reflected coefficient is
    p**(-1/2) / ((1-p**2) prod (1-p**2 u**i)), and (1-p**-2)/(1-p**2) = -p**-2
    makes this  -s**-5 / prod (1 - s**4 u**i)."""
    s4 = 4 if reflected else -4
    series = TruncatedSeries(order, {(0, -5): -1} if reflected else {(0, 1): 1})
    for i in range(1, order + 1):
        series = series * _geometric(order, s4, i)
    return series


def char_to_series(n: int, order: int) -> TruncatedSeries:
    """The rank-one level-1 character chi_n constrained to z = p, as a
    u-series (exact; polynomial, so truncation only forgets nothing)."""
    chi = constrain(graded_character(NVector.level_one(1, (n,))).poly, 1)
    return TruncatedSeries(order, {(-qe, 2 * ze): c for (qe, ze), c in chi.terms()})


def class_one_combination(n_values, order: int) -> bool:
    """The class-one combination of the two fundamental series reproduces the
    exact character for every n: all coefficients beyond the polynomial
    degree cancel up to the truncation order.  Both sides are multiplied by
    1 - p**-2 (see ``class_one_coefficient``)."""
    c_plus = class_one_coefficient(order, False)
    c_minus = class_one_coefficient(order, True)
    head = TruncatedSeries(order, {(0, 0): 1, (0, -4): -1})
    for n in n_values:
        combo = c_plus * w_series(n, False, order) + c_minus * w_series(n, True, order)
        if combo != head * char_to_series(n, order):
            return False
    return True


def check_level1_toda(rank: int, n_vectors) -> bool:
    """The level-1 difference equation for general rank, on exact constrained
    characters:

        sum_{a=0}^{r} chi[n - eps_a + eps_{a+1}]
          - sum_{a=1}^{r} q**(-n^(a)) chi[n - eps_a + eps_{a+1}]  =  e_1 chi[n]

    with eps_0 = eps_{r+1} = 0, generated by ``difference_equation_terms`` at
    k = 1.  ``n_vectors`` holds the entries (n^(1), ..., n^(r)) of each point.
    """
    return all(
        difference_equation_holds(NVector.level_one(rank, tuple(n))) for n in n_vectors
    )
