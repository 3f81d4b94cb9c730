"""Independent slow paths used only by the tests.

* ``subset_operator_bruteforce`` recomputes the subset difference operators
  with sympy's symbolic rational-function arithmetic (no shared code with the
  package kernel), so an agreement is a genuine two-path check.
* ``subset_apply_M``/``subset_apply_D``/``subset_apply_macdonald_qt`` expand
  the same operators subset by subset and divide once by the Vandermonde.
  Unlike the sympy oracle this path shares ``LaurentPoly`` arithmetic with
  the package; it checks the signed-orbit compression and the Schur
  read-off of ``qchar.qdiff``, not the kernel.
* ``whittaker_series_sympy`` expands the rank-one Whittaker series with
  sympy ``series`` in u.
"""

from __future__ import annotations

import itertools

import sympy

from qchar.cartan import CartanData
from qchar.laurent import LaurentPoly, delta_on, exact_div, vandermonde
from qchar.rings import RING_Q, RING_QT, RING_W, qt_q, qt_t

Q = sympy.Symbol("q")
T = sympy.Symbol("t")
W = sympy.Symbol("w")
S = sympy.Symbol("s")
U = sympy.Symbol("u")


def zsyms(nvars):
    return sympy.symbols("z1:%d" % (nvars + 1))


def _qq_rational(c):
    from sympy.polys.domains import QQ

    return sympy.Rational(int(QQ.numer(c)), int(QQ.denom(c)))


def _pe_to_sympy(pe):
    out = sympy.Integer(0)
    for m, c in pe.terms():
        out += _qq_rational(c) * Q ** m[0] * T ** m[1]
    return out


def poly_to_sympy(f: LaurentPoly):
    z = zsyms(f.nvars)
    total = sympy.Integer(0)
    if f.ring == RING_QT:
        for key, c in f.coeffs.items():
            term = _pe_to_sympy(c.numer) / _pe_to_sympy(c.denom)
            for i, e in enumerate(key):
                term *= z[i] ** e
            total += term
    else:
        unit = W if f.ring == RING_W else Q
        for key, c in f.coeffs.items():
            term = sympy.Integer(c) * unit ** key[0]
            for i, e in enumerate(key[1:]):
                term *= z[i] ** e
            total += term
    return sympy.together(total)


def sympy_equal(a, b) -> bool:
    return sympy.simplify(sympy.together(a - b)) == 0


def subset_operator_bruteforce(alpha, n, f: LaurentPoly, kind="gamma"):
    """sum_{|I|=alpha} z_I**n a_I(z) (shift_I f) as a sympy expression.

    kind='gamma' scales subset variables by q; kind='twisted' scales every
    variable by w**2 and subset variables by q = w**(-2(r+1)) besides (the
    bare sum, no prefactor); kind='qt' uses the (t z_i - z_j)/(z_i - z_j)
    coefficients with q-scaling.
    """
    nvars = f.nvars
    z = list(zsyms(nvars))
    expr = poly_to_sympy(f)
    rank = nvars - 1
    total = sympy.Integer(0)
    for subset in itertools.combinations(range(nvars), alpha):
        if kind == "qt":
            coeff = sympy.Integer(1)
            for i in subset:
                for j in range(nvars):
                    if j not in subset:
                        coeff *= (T * z[i] - z[j]) / (z[i] - z[j])
        else:
            coeff = sympy.Integer(1)
            for i in subset:
                coeff *= z[i] ** n
                for j in range(nvars):
                    if j not in subset:
                        coeff *= z[i] / (z[i] - z[j])
        subs = {}
        if kind == "gamma" or kind == "qt":
            for i in subset:
                subs[z[i]] = Q * z[i]
        elif kind == "twisted":
            qw = W ** (-2 * (rank + 1))
            for i in range(nvars):
                subs[z[i]] = (W**2) ** alpha * (qw if i in subset else 1) * z[i]
        total += coeff * expr.subs(subs, simultaneous=True)
    return sympy.cancel(sympy.together(total))


def _subset_data(nvars, alpha):
    """(subset, complement, sign) for all subsets of size alpha; the sign is
    the parity of the number of split pairs whose subset element is larger."""
    out = []
    for subset in itertools.combinations(range(nvars), alpha):
        comp = tuple(i for i in range(nvars) if i not in subset)
        inv = sum(1 for i in subset for j in comp if j < i)
        out.append((subset, comp, -1 if inv % 2 else 1))
    return out


def _subset_apply_folded(f, alpha, power, du_subset, du_all):
    """Literal subset-by-subset Vandermonde clearing; one exact division.

    ``du_subset``/``du_all`` give the unit-exponent shift per unit of
    z-degree inside the subset / across all variables."""
    nvars = f.nvars
    num = LaurentPoly.zero(f.ring, f.nvars)
    step = power + nvars - alpha
    for subset, comp, sign in _subset_data(nvars, alpha):
        shifted = {}
        for k, c in f.coeffs.items():
            du = du_subset * sum(k[1 + i] for i in subset) + du_all * sum(k[1:])
            shifted[(k[0] + du,) + k[1:]] = sign * c
        part = delta_on(f.ring, nvars, subset) * delta_on(f.ring, nvars, comp)
        part = part * LaurentPoly(f.ring, nvars, shifted)
        if step:
            part = part.times_z(tuple(step if i in subset else 0 for i in range(nvars)))
        num = num + part
    return exact_div(num, vandermonde(f.ring, nvars))


def subset_apply_M(alpha, n, f):
    """``qdiff.apply_M`` for Q-ring input, by the literal subset sum."""
    return _subset_apply_folded(f, alpha, n, 1, 0)


def subset_apply_D(alpha, n, f):
    """``qdiff.apply_D`` by the literal subset sum, prefactor included."""
    r = f.nvars - 1
    cart = CartanData(r)
    out = _subset_apply_folded(f, alpha, n, -2 * (r + 1), 2 * alpha)
    return out.times_unit(-cart.lam(alpha, alpha) * n - 2 * cart.lam_row_sum(alpha))


def subset_apply_macdonald_qt(alpha, f):
    """``qdiff.apply_macdonald_qt`` by the literal subset sum."""
    nvars = f.nvars
    num = LaurentPoly.zero(RING_QT, nvars)
    for subset, comp, sign in _subset_data(nvars, alpha):
        shifted = {}
        for k, c in f.coeffs.items():
            s = sum(k[i] for i in subset)
            shifted[k] = sign * (c * qt_q**s if s else c)
        part = delta_on(RING_QT, nvars, subset) * delta_on(RING_QT, nvars, comp)
        for i in subset:
            for j in comp:
                zi = LaurentPoly.variable(RING_QT, nvars, i)
                zj = LaurentPoly.variable(RING_QT, nvars, j)
                part = part * (zi.times_scalar_raw(qt_t) - zj)
        num = num + part * LaurentPoly(RING_QT, nvars, shifted)
    return exact_div(num, vandermonde(RING_QT, nvars))


def whittaker_series_sympy(n, reflected, order):
    """p**(n-1/2) sum_a u**(a(n+1)) / prod_{i<=a} (1-u**i)(1-p**(+-2) u**i)
    with s = p**(1/2) (s -> 1/s when reflected), each summand expanded by
    sympy ``series`` in u through u**order; ``{(u-exponent, s-exponent): int}``."""
    s = 1 / S if reflected else S
    total = sympy.Integer(0)
    for a in range(order // (n + 1) + 1):
        den = sympy.Integer(1)
        for i in range(1, a + 1):
            den *= (1 - U**i) * (1 - s**4 * U**i)
        rest = order - a * (n + 1)
        total += U ** (a * (n + 1)) * sympy.series(1 / sympy.expand(den), U, 0, rest + 1).removeO()
    out = {}
    for term in sympy.Add.make_args(sympy.expand(s ** (2 * n - 1) * total)):
        coeff, powers = term.as_coeff_Mul()
        degs = powers.as_powers_dict()
        out[(int(degs.get(U, 0)), int(degs.get(S, 0)))] = int(coeff)
    return {k: c for k, c in out.items() if c}
