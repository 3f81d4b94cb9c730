"""Rank-one Whittaker series and the level-1 Toda difference equation.

The two fundamental series, as functions of an integer n >= 0 truncated at
order N in u = q**-1:

    W(n)      = p**(n-1/2)  sum_{a>=0} u**(a(n+1)) / prod_{i=1}^{a} (1-u**i)(1-p**2 u**i)
    W_ref(n)  = p**(1/2-n)  sum_{a>=0} u**(a(n+1)) / prod_{i=1}^{a} (1-u**i)(1-p**-2 u**i)

Every coefficient is an integer Laurent polynomial in s = p**(1/2), so the
series live in Z[s, s**-1][u] / (u**(N+1)).  A series is its N + 1 rows:
rows[e] = {s-exponent: int}, the u**e coefficient, with no zero values.
The reflection p -> 1/p is s -> 1/s.  Both satisfy the three-term relation

    W(n+1) + (1 - u**n) W(n-1) = (p + p**-1) W(n),

which is the rank-one level-1 difference equation for graded characters with
z = p.  The class-one combination ``c W(n) + c_ref W_ref(n)`` reproduces the
graded character itself: all series coefficients beyond the polynomial
degree cancel order by order.  The coefficients carry a 1/(1 - p**-2) head,
so the identity is checked multiplied through by 1 - p**-2, which is not a
zero divisor in the series ring.

Every multiplier here is a monomial or a binomial (1 - u**n, s**2 + s**-2,
1 - s**-4), applied as a sum of shifted rows (``_add_shifted``), and each
factor 1/(1 - s**a u**i) as a division: by a binomial with constant term 1
it is one pass in increasing u-order (``laurent.divide_binomial``).  The
Pochhammer prefixes T_a = prod_{i<=a} 1/((1-u**i)(1-x u**i)), x = p**(+-2),
do not depend on n, so they are built once per order, each from the last
by two such divisions, and every W(n) is a shifted sum of them; the
class-one products c W(n) are ``order`` divisions of the head times W(n).
The general-rank level-1 equation is checked on the characters themselves
by ``verify.check_level1_report``.
"""

from __future__ import annotations

from functools import lru_cache

from .characters import NVector, graded_character
from .laurent import _add_into, constrain, divide_binomial


def _require_int(value, least: int, name: str):
    """Raise ValueError unless ``value`` is an int >= ``least`` (as in ``NVector``, a bool is not one)."""
    if type(value) is not int or value < least:
        raise ValueError("%s must be >= %d, an int (a bool is not one), not %r" % (name, least, value))


def _add_shifted(out, rows, u_shift: int, s_shift: int, c: int = 1):
    """Add c s**s_shift u**u_shift times the series ``rows`` to ``out`` in
    place, through out's order: a shift past the order adds nothing."""
    for e in range(len(out) - u_shift):
        _add_into(out[e + u_shift], ((k + s_shift, c * v) for k, v in rows[e].items()))


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


def w_series(n: int, reflected: bool, order: int) -> list:
    """The rows of the fundamental series at argument n >= 0 through the
    order: the sum over a of s**pref u**(a(n+1)) T_a (``_pochhammer_prefixes``),
    whose coefficients are all positive, so no sum cancels."""
    _require_int(order, 0, "the truncation order")
    _require_int(n, 0, "the series argument n")
    sign = -1 if reflected else 1
    pref, x = sign * (2 * n - 1), sign * 4
    out = [{} for _ in range(order + 1)]
    for a, prefix in enumerate(_pochhammer_prefixes(order)):
        shift = a * (n + 1)
        if shift > order:
            break
        for dst, row in zip(out[shift:], prefix):
            get = dst.get
            for l, c in row:
                k = pref + x * l
                dst[k] = get(k, 0) + c
    return out


def toda_residual(n: int, order: int, reflected: bool) -> list:
    """The rows of W(n+1) + (1 - u**n) W(n-1) - (p + p**-1) W(n), all empty
    when the relation holds.  Defined for n >= 1: at n = 0 the middle
    coefficient vanishes but W(-1) is not u-adically summable, so the
    relation has no content there (the n = 0 boundary is exactly the
    class-one condition, verified by ``class_one_combination``)."""
    _require_int(order, 0, "the truncation order")
    _require_int(n, 1, "n in the three-term relation")
    out = w_series(n + 1, reflected, order)
    lower, middle = w_series(n - 1, reflected, order), w_series(n, reflected, order)
    _add_shifted(out, lower, 0, 0)
    _add_shifted(out, lower, n, 0, -1)
    _add_shifted(out, middle, 0, 2, -1)
    _add_shifted(out, middle, 0, -2, -1)
    return out


def _times_coefficient(rows, reflected: bool) -> list:
    """The series ``rows`` times the class-one coefficient times 1 - p**-2,
    truncated at its order.  The coefficient p**(1/2) / ((1-p**-2)
    prod_{i>=1} (1-p**-2 u**i)) makes this s * series / prod (1 - s**-4 u**i);
    reflected, p**(-1/2) / ((1-p**2) prod (1-p**2 u**i)) and
    (1-p**-2)/(1-p**2) = -p**-2 make it -s**-5 * series / prod (1 - s**4 u**i).
    Each of the ``order`` divisions (i = 1..order) is one pass."""
    shift, sign, x = (-5, -1, 4) if reflected else (1, 1, -4)
    out = [{k + shift: sign * c for k, c in row.items()} for row in rows]
    for i in range(1, len(out)):
        divide_binomial(out, x, i)
    return out


def char_to_series(n: int, order: int) -> list:
    """The rank-one level-1 character chi_n constrained to z = p, as the rows
    of a u-series (exact; a polynomial in u = q**-1, so truncation only
    forgets its terms above the order)."""
    chi = constrain(graded_character(NVector.level_one(1, (n,))).monomials(), 1)
    out = [{} for _ in range(order + 1)]
    for (j, z), c in chi.terms():  # the term q**j z**z, j <= 0
        if -j <= order:
            out[-j][2 * z] = c
    return out


def class_one_difference(n_values, order: int):
    """None when the class-one combination reproduces every character of
    ``n_values`` (at least one n) through the order, else (n, e, combination,
    head * chi_n) for the first n that fails and the lowest u-order e where
    they differ, the two u**e rows.  Both sides are multiplied by the head
    1 - p**-2 (see ``_times_coefficient``)."""
    _require_int(order, 0, "the truncation order")
    n_values = tuple(n_values)
    if not n_values:
        raise ValueError("the class-one combination needs at least one n")
    for n in n_values:
        combo = _times_coefficient(w_series(n, False, order), False)
        _add_shifted(combo, _times_coefficient(w_series(n, True, order), True), 0, 0)
        target = char_to_series(n, order)
        _add_shifted(target, [dict(row) for row in target], 0, -4, -1)
        for e, (got, want) in enumerate(zip(combo, target)):
            if got != want:
                return n, e, dict(sorted(got.items())), dict(sorted(want.items()))
    return None


def class_one_combination(n_values, order: int) -> bool:
    """The class-one combination of the two fundamental series reproduces the
    exact character for every n: all coefficients beyond the polynomial
    degree cancel up to the truncation order."""
    return class_one_difference(n_values, order) is None
