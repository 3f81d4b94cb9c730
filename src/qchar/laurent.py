"""Sparse multivariate Laurent polynomials with exact coefficients.

A polynomial in ``z_1 .. z_N`` is a finite map from exponent vectors to
nonzero Python integers.  The exponents of the ring variables come first:
for ``RING_W`` and ``RING_Q`` the term ``c * u**j * z1**e1 * ... * zN**eN``
has the exponent vector ``(j, e1, .., eN)``, and for ``RING_QT`` the term
``c * q**i * t**j * z**e`` has ``(i, j, e1, .., eN)``: one unit slot, or
two (``zoff``).

Packed keys.  The map is a dict keyed by one Python int per term (Monagan &
Pearce, CASC 2007): entry i of the exponent vector, plus the bias 2**25,
fills bits [27 i, 27 i + 27) of the key, so the unit slots are lowest,
then z_1 .. z_N.  Packing is additive, ``pack(a) + offset(b) ==
pack(a + b)``, so multiplying two monomials is one integer addition.
Exponents must lie in [EXP_MIN, EXP_MAX] = [-2**25, 2**25 - 1]: products,
shifts and constructors prove from the exponent bounds of their operands
that the result fits, and raise ``ExponentOverflow`` otherwise instead of
carrying into a neighbouring slot.  A valid key never sets the top bit of
a slot, which the torus division ``qtorus._nc_div`` uses to see a negative
quotient exponent in one mask test.  This module and ``qtorus`` mask key
slots themselves; the other modules use ``terms()``, ``from_terms()`` and
the codec: ``pack``, ``unpack``, ``split_unit``, ``offset``, ``zero_key``
and ``UNIT``, shifts by multiples of ``SLOT_BITS`` (``symfun._schur_zcoeffs``
puts z_N on top, ``macdonald`` drops the t slot of a QT key,
``qdiff.operator_sum`` reads the unit slot off a key less its z-part,
``whittaker`` steps u), range checks against ``EXP_MIN``/``EXP_MAX``
(``qdiff.operator_sum``, ``cli``) and unit offsets, the payloads of the
z-parts of ``require_symmetric`` and of m-forms (``qdiff``).  No value is
keyed by alternant exponents: ``straighten`` (a_{v+delta} = +-a_{lam+delta}
or 0) reads an alternant as a Schur function, in ``SchurPoly.times``, the
operator images, the Macdonald operator and the lemma sides.

A one-variable coefficient read off on its own is an ``{exponent: int}``
dict, printed by ``coefficient_text``.  The Kronecker codec packs such a
polynomial with coefficients at most a bound into one integer, its value at
x = 2**s (Harvey, J. Symb. Comp. 2009), s derived from the bound and never
fixed: ``kron_width``, ``kron_digits`` (balanced digits), ``kron_repack``
(the same digits at another width), ``kron_add`` (rebase-and-add from the
least exponent) and ``Packed``, rows of such integers at one width with the
widening rule (``hold``) and the least-digit normalization (``summed``).
The torus commutator packs positions with the codec; the raising chains
(``qdiff.PackedSchur``) and the torus's ev0 images (``qtorus.PackedImage``)
are ``Packed`` values.

Subclasses keep the keys and change the basis or the product:
``symfun.SchurPoly`` keys Schur functions, ``qtorus.NcLaurent`` (W ring,
the 2r torus exponents, w in the unit slot) twists the product, and
``whittaker.TruncatedSeries`` (W ring, u, s = p**(1/2) in the unit slot)
truncates it.  Their constructors take other arguments, so the methods
here build zero and one through ``_like``, and refuse the others (``refused``).

``from_terms``, ``sum``, ``+``, ``-``, ``at_unit_one``,
``SchurPoly.constrained`` and the operator images (``qdiff._image``) add
through one loop, ``_add_into``: repeated keys add up, zero sums drop out.
The binomial division adds a few terms per row, where a call per row
measured slower, so it keeps an inline loop.

Everything here is exact.  The one division is ``divide_binomial``, by
1 - x u**i in one pass, for the Whittaker series and the eigenvalue gaps of
the Macdonald solve; Schur polynomials are built by branching (``symfun``).
Values are immutable by convention: no method mutates ``self``, but for
``Packed.hold``, which changes the representation, never the value.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, neg

from .rings import (
    RING_Q,
    RING_QT,
    ExponentOverflow,
    NotSymmetric,
)

# -- the key codec -------------------------------------------------------------

# Python hashes an int modulo 2**61 - 1, which folds slot i onto bit
# 27 i mod 61; for up to 9 slots those bits stay at least 6 apart, so keys
# that differ by small exponent steps do not collide in a dict.
SLOT_BITS = 27
_BIAS = 1 << (SLOT_BITS - 2)
_MASK = (1 << SLOT_BITS) - 1
EXP_MIN, EXP_MAX = -_BIAS, _BIAS - 1


def pack(exps) -> int:
    """The key of an exponent vector; ``ExponentOverflow`` when an entry is
    outside [EXP_MIN, EXP_MAX]."""
    key = 0
    for e in reversed(exps):
        if not EXP_MIN <= e <= EXP_MAX:
            raise ExponentOverflow("exponent %d outside [%d, %d]" % (e, EXP_MIN, EXP_MAX))
        key = (key << SLOT_BITS) | (e + _BIAS)
    return key


def unpack(key: int, width: int) -> tuple:
    """The exponent vector of length ``width`` packed in ``key``."""
    return tuple([((key >> s) & _MASK) - _BIAS for s in _shifts(width)])


@lru_cache(maxsize=32)
def _shifts(width: int) -> tuple:
    return tuple(SLOT_BITS * i for i in range(width))


def offset(exps) -> int:
    """What adding the vector ``exps`` adds to a key: ``pack(a) + offset(b)
    == pack(a + b)`` whenever a + b is in range (trailing zeros may be left
    off ``exps``)."""
    return sum(e << (SLOT_BITS * i) for i, e in enumerate(exps))


# adding j * UNIT to the key of an integer-ring term multiplies it by u**j
UNIT = offset((1,))


def split_unit(key: int):
    """(j, zkey) for the key of (j, e_1, .., e_N): the unit exponent and the
    key of (e_1, .., e_N); ``pack((0,) + e) + j * UNIT`` is the key again."""
    return (key & _MASK) - _BIAS, key >> SLOT_BITS


@lru_cache(maxsize=32)
def zero_key(width: int) -> int:
    """The key of the zero vector; ``k1 + k2 - zero_key`` multiplies monomials."""
    return pack((0,) * width)


@lru_cache(maxsize=32)
def _guard(width: int) -> int:
    """The top bit of every slot."""
    return offset((1 << (SLOT_BITS - 1),) * width)


def key_bounds(keys, width: int, slots=None):
    """(lo, hi): the least and greatest entry of each slot over ``keys``
    (of the listed ``slots`` only, when given)."""
    lo, hi = [], []
    for i in range(width) if slots is None else slots:
        shift = SLOT_BITS * i
        slot = [(k >> shift) & _MASK for k in keys]
        lo.append(min(slot) - _BIAS)
        hi.append(max(slot) - _BIAS)
    return tuple(lo), tuple(hi)


def require_fit(lo, hi):
    """Raise ``ExponentOverflow`` unless every slot range [lo_i, hi_i] fits."""
    if min(lo) < EXP_MIN or max(hi) > EXP_MAX:
        raise ExponentOverflow(
            "exponents would reach [%d, %d], outside [%d, %d]"
            % (min(lo), max(hi), EXP_MIN, EXP_MAX)
        )


def box_sum(a, b):
    """The exponent bounds of a product from those of its factors; exact,
    since the coefficients form a domain, so extreme terms never cancel."""
    lo = tuple(map(add, a[0], b[0]))
    hi = tuple(map(add, a[1], b[1]))
    require_fit(lo, hi)
    return lo, hi


def outside_box(local: int, top: int, width: int) -> bool:
    """True unless every entry d_i of ``local`` lies in [0, top_i], where
    ``local`` is the offset of a vector d with every |d_i| < 2**(SLOT_BITS-1)
    (as is any difference of two valid keys) and ``top`` the offset of
    upper limits in [0, 2**(SLOT_BITS-1)).  The lowest negative entry
    borrows from the next slot and so sets its own top bit."""
    guard = _guard(width)
    rest = top - local
    return local < 0 or local & guard or rest < 0 or rest & guard


def straighten(v):
    """The bialternant s_v = a_{v+delta} / a_delta of an integer vector v as
    ``(sign, lam)``, s_v = sign * s_lam with lam weakly decreasing, or
    ``(0, None)`` when s_v = 0, by s_{.., a, b, ..} = -s_{.., b-1, a+1, ..}
    (Macdonald, I.3): the one sort-with-sign rule."""
    v = list(v)
    sign, i, last = 1, 0, len(v) - 1
    while i < last:
        a, b = v[i], v[i + 1]
        if a >= b:
            i += 1
        elif b == a + 1:
            return 0, None
        else:
            v[i], v[i + 1] = b - 1, a + 1
            sign, i = -sign, max(i - 1, 0)
    return sign, tuple(v)


# -- the Kronecker codec -------------------------------------------------------
# sum c_i x**i read at x = 2**s: with every |c_i| <= bound < 2**(s-1), the
# balanced base-2**s digits of the integer are the c_i


def kron_width(bound: int) -> int:
    """The least width s whose balanced digits hold every |c| <= bound."""
    return bound.bit_length() + 1


def kron_digits(n: int, s: int):
    """[(i, c)]: the nonzero digits c of n in balanced base 2**s, i the place
    (n = sum c * 2**(s*i), every |c| < 2**(s-1)); ValueError for s < 2 and
    n != 0, where the walk would never advance."""
    if s < 2 and n:
        raise ValueError("balanced digits need a width of at least 2 bits, not %d" % s)
    out, i, mask, half = [], 0, (1 << s) - 1, 1 << (s - 1)
    while n:
        c = n & mask
        if c >= half:
            c -= mask + 1
        if c:
            out.append((i, c))
        n = (n - c) >> s
        i += 1
    return out


def kron_repack(n, s, width):
    """n, read at x = 2**s, read at x = 2**width instead: the same digits."""
    return sum(c << width * i for i, c in kron_digits(n, s))


def kron_add(acc, target, lo, n, s):
    """Add n, a polynomial read at x = 2**s from x**lo, to acc[target] =
    [least exponent, the sum read from it], rebasing the sum when lo is
    lower."""
    cur = acc.get(target)
    if cur is None:
        acc[target] = [lo, n]
    elif lo >= cur[0]:
        cur[1] += n << s * (lo - cur[0])
    else:
        cur[1] = (cur[1] << s * (cur[0] - lo)) + n
        cur[0] = lo


class Packed:
    """Rows of one-variable polynomials at one width: ``packing`` is (width,
    rows), rows mapping a key to (bound, lo, n), n = sum_d c_d 2**(width*(d -
    lo)) with every |c_d| <= bound < 2**(width-1) and c_lo != 0; the top place
    lo + bit_length(|n|) // width is never stored.  ``hold`` replaces
    ``packing`` in one assignment, so a reader that takes it once reads one
    width.  Subclasses say what the keys and places stand for."""

    __slots__ = ("packing",)

    def __init__(self, width, rows):
        self.packing = width, rows

    @staticmethod
    def summed(acc, s, bounds):
        """Rows at width s from a ``kron_add`` accumulator, bounds[key] each
        row's bound: zero rows dropped, lo moved up past zero low digits."""
        rows, mask = {}, (1 << s) - 1
        for key, (lo, n) in acc.items():
            if n & mask:
                rows[key] = bounds[key], lo, n
            elif n:
                low = ((n & -n).bit_length() - 1) // s
                rows[key] = bounds[key], lo + low, n >> s * low
        return rows

    def hold(self, bound):
        """The packing at a width whose digits hold every |c| <= bound; a narrower
        one is first repacked at max(kron_width(bound), 2 * width), stored back."""
        s, rows = self.packing
        if kron_width(bound) > s:
            width = max(kron_width(bound), 2 * s)
            self.packing = width, {key: (b, lo, kron_repack(n, s, width)) for key, (b, lo, n) in rows.items()}
        return self.packing

    def digits(self, key):
        """[(place, c)]: the nonzero digits of row ``key``, by increasing place."""
        s, rows = self.packing
        _, lo, n = rows[key]
        return [(lo + i, c) for i, c in kron_digits(n, s)]


def unit_slots(ring) -> int:
    """How many ring-variable exponents precede the z-exponents: 2 (q, t)
    for ``RING_QT``, 1 for the W and Q rings."""
    return 2 if ring == RING_QT else 1


def _add_into(out, pairs):
    """Add each (key, c) of ``pairs`` into the dict ``out``, a key whose sum
    is zero dropping out, and return ``out``: the one add loop of
    ``from_terms``, ``sum``, ``+``, ``-``, ``at_unit_one``,
    ``SchurPoly.constrained`` and ``qdiff._image``."""
    for k, c in pairs:
        if k in out:
            c += out[k]
            if c:
                out[k] = c
            else:
                del out[k]
        elif c:
            out[k] = c
    return out


class LaurentPoly:
    """A sparse Laurent polynomial over one of the scalar rings."""

    __slots__ = ("ring", "nvars", "coeffs", "_box")
    _symbols = None  # (unit, z names) for to_text; None is the ring's and z1..zN

    def __init__(self, ring, nvars, coeffs, box=None):
        # Trusted constructor: ``coeffs`` must already be canonical (no zero
        # values, packed keys of the right width); ``box``, when given, is the
        # exact (lo, hi) exponent bounds of the terms.
        self.ring = ring
        self.nvars = nvars
        self.coeffs = coeffs
        self._box = box

    @property
    def zoff(self) -> int:
        """Index of the first z-entry in exponent vectors."""
        return unit_slots(self.ring)

    @property
    def width(self) -> int:
        """Length of the exponent vectors."""
        return self.nvars + self.zoff

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring, nvars):
        return cls(ring, nvars, {})

    @classmethod
    def from_int(cls, ring, nvars, n: int):
        if not n:
            return cls.zero(ring, nvars)
        return cls(ring, nvars, {zero_key(nvars + unit_slots(ring)): n})

    @classmethod
    def one(cls, ring, nvars):
        return cls.from_int(ring, nvars, 1)

    @classmethod
    def from_terms(cls, ring, nvars, terms):
        """The polynomial with the given ``(exponent vector, coefficient)``
        pairs (a mapping or an iterable); repeated vectors add up, zero
        coefficients drop out."""
        width = nvars + unit_slots(ring)
        keyed = []
        for exps, c in terms.items() if hasattr(terms, "items") else terms:
            if len(exps) != width:
                raise ValueError("exponent vector has wrong length")
            keyed.append((pack(exps), c))
        return cls(ring, nvars, _add_into({}, keyed))

    @classmethod
    def monomial(cls, ring, nvars, zexps, coeff=1, unit=0):
        """coeff * u**unit * z**zexps, u = q over the QT ring."""
        zexps = tuple(zexps)
        if len(zexps) != nvars:
            raise ValueError("exponent vector has wrong length")
        lead = (unit,) + (0,) * (unit_slots(ring) - 1)
        return cls.from_terms(ring, nvars, [(lead + zexps, coeff)])

    @classmethod
    def variable(cls, ring, nvars, i):
        """The generator ``z_{i+1}`` (0-based index ``i``)."""
        e = [0] * nvars
        e[i] = 1
        return cls.monomial(ring, nvars, tuple(e))

    @classmethod
    def unit_power(cls, ring, nvars, k, coeff=1):
        """coeff * u**k as a constant polynomial (u = q over QT)."""
        return cls.monomial(ring, nvars, (0,) * nvars, coeff, unit=k)

    @classmethod
    def sum(cls, ring, nvars, polys):
        """The sum of ``polys``, accumulated in one dict."""
        out = {}
        for f in polys:
            _add_into(out, f.coeffs.items())
        return cls(ring, nvars, out)

    # -- basic structure ---------------------------------------------------

    def terms(self):
        """Iterate over ``(exponent vector, coefficient)`` pairs."""
        width = self.width
        for k, c in self.coeffs.items():
            yield unpack(k, width), c

    def bounds(self):
        """(lo, hi): the least and greatest exponent in each entry of the
        exponent vectors, or None for zero."""
        if self._box is None and self.coeffs:
            self._box = key_bounds(self.coeffs, self.width)
        return self._box

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return False
        self._check_basis(other)
        return (
            self.ring == other.ring
            and self.nvars == other.nvars
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def _like(self, coeffs, box=None):
        return type(self)(self.ring, self.nvars, coeffs, box)

    def with_ring(self, ring):
        """The same terms over another ring: W <-> Q keeps every unit
        exponent as it is, and Q -> QT embeds each q-polynomial coefficient
        with t-exponent 0."""
        if RING_QT not in (ring, self.ring):
            return type(self)(ring, self.nvars, self.coeffs, self._box)
        if (self.ring, ring) != (RING_Q, RING_QT):
            raise ValueError("with_ring cannot map the %s ring to %s" % (self.ring, ring))
        # the q slot stays lowest; the z slots move up past a zero t slot
        t0 = _BIAS << SLOT_BITS
        coeffs = {(k & _MASK) + t0 + (k >> SLOT_BITS << 2 * SLOT_BITS): c for k, c in self.coeffs.items()}
        return type(self)(ring, self.nvars, coeffs)

    def _check_basis(self, other):
        """Subclasses key their terms by other bases (``symfun.SchurPoly``);
        a value in one basis never meets a value in another."""
        if type(other) is not type(self):
            names = type(self).__name__, type(other).__name__
            raise TypeError("%s and %s use different bases" % names)

    def _check_compatible(self, other):
        if (
            not isinstance(other, LaurentPoly)
            or other.ring != self.ring
            or other.nvars != self.nvars
        ):
            raise TypeError("incompatible polynomials: %r vs %r" % (self, other))
        self._check_basis(other)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        self._check_compatible(other)
        return self._like(_add_into(dict(self.coeffs), other.coeffs.items()))

    def __neg__(self):
        return self._like({k: -c for k, c in self.coeffs.items()}, self._box)

    def __sub__(self, other):
        self._check_compatible(other)
        return self._like(_add_into(dict(self.coeffs), zip(other.coeffs, map(neg, other.coeffs.values()))))

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return self._like({})
            return self._like({k: c * other for k, c in self.coeffs.items()}, self._box)
        self._check_compatible(other)
        if not self.coeffs or not other.coeffs:
            return self._like({})
        box = box_sum(self.bounds(), other.bounds())
        a, b = self.coeffs, other.coeffs
        if len(a) > len(b):
            a, b = b, a
        zero = zero_key(self.width)
        inner = [(k - zero, c) for k, c in b.items()]
        out = {}
        get = out.get
        for k1, c1 in a.items():
            for k2, c2 in inner:
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
        return self._like({k: c for k, c in out.items() if c}, box)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative powers of polynomials are not defined")
        if n < 2:  # square and multiply down to the base: no product by one
            return self if n else self._like({zero_key(self.width): 1})
        half = self ** (n >> 1)
        return half * half * self if n & 1 else half * half

    def _shifted(self, shift):
        """Multiply by the monomial with exponent vector ``shift``."""
        if not self.coeffs or not any(shift):
            return self
        box = self._box
        if box is None:
            # only the moved slots need checking
            moved = [i for i, d in enumerate(shift) if d]
            lo, hi = key_bounds(self.coeffs, self.width, moved)
            require_fit(tuple(map(add, lo, (shift[i] for i in moved))),
                        tuple(map(add, hi, (shift[i] for i in moved))))
        else:
            box = tuple(map(add, box[0], shift)), tuple(map(add, box[1], shift))
            require_fit(*box)
        d = offset(shift)
        return self._like({k + d: c for k, c in self.coeffs.items()}, box)

    def times_unit(self, k: int):
        """Multiply by u**k (shift the first unit exponent; u = q over QT)."""
        return self._shifted((k,) + (0,) * (self.width - 1))

    def times_z(self, zshift):
        """Multiply by the monomial z**zshift."""
        zshift = tuple(zshift)
        if len(zshift) != self.nvars:
            raise ValueError("exponent vector has wrong length")
        return self._shifted((0,) * self.zoff + zshift)

    # -- views -------------------------------------------------------------

    def z_terms(self):
        """Group terms by z-exponent: a dict {z-tuple: {unit exponent: int}}
        (W and Q rings)."""
        if self.ring == RING_QT:
            raise ValueError("QT coefficients have no one-variable view; use terms()")
        n = self.nvars
        return {unpack(z, n): d for z, d in _z_parts(self).items()}

    def unit_exponents(self):
        if self.ring == RING_QT:
            raise ValueError("QT ring has no distinguished unit variable")
        return {(k & _MASK) - _BIAS for k in self.coeffs}

    def at_unit_one(self):
        """Set the scalar variable to 1 (integer rings); unit slot collapses to 0."""
        if self.ring == RING_QT:
            raise ValueError("QT ring has no distinguished unit variable")
        return self._like(_add_into({}, ((k - (k & _MASK) + _BIAS, c) for k, c in self.coeffs.items())))

    def unit_slice(self, j: int):
        """Terms whose scalar exponent equals ``j``, with the unit reset to 0."""
        if self.ring == RING_QT:
            raise ValueError("QT ring has no distinguished unit variable")
        if not EXP_MIN <= j <= EXP_MAX:
            return self._like({})
        slot = j + _BIAS
        return self._like({k - j: c for k, c in self.coeffs.items() if k & _MASK == slot})

    # -- presentation ------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form: terms sorted lexicographically by z-exponent
        vector (descending), coefficients printed as integer polynomials in
        the ring variable (or a subclass's ``_symbols``); over QT, the terms
        ``c*q^i*t^j*z1^e1...`` in descending order of their exponent vectors."""
        if not self.coeffs:
            return "0"
        if self.ring == RING_QT:
            names = ("q", "t") + tuple("z%d" % (i + 1) for i in range(self.nvars))
            bits = []
            for exps, c in sorted(self.terms(), reverse=True):
                mono = "*".join("%s^%d" % (x, e) for x, e in zip(names, exps) if e)
                bits.append(str(c) if not mono else mono if c == 1 else "%d*%s" % (c, mono))
            return " + ".join(bits).replace("+ -", "- ")
        unit, zs = self._symbols or (self.ring, ["z%d" % (i + 1) for i in range(self.nvars)])
        groups = self.z_terms()
        bits = []
        for zex in sorted(groups, reverse=True):
            coeff = coefficient_text(unit, groups[zex])
            zpart = "*".join("%s^%d" % (zs[i], e) for i, e in enumerate(zex) if e)
            if zpart:
                bits.append("%s*%s" % (coeff, zpart) if coeff != "1" else zpart)
            else:
                bits.append(coeff)
        return " + ".join(bits).replace("+ -", "- ")

    def __repr__(self):
        text = self.to_text()
        if len(text) > 120:
            text = text[:117] + "..."
        return "LaurentPoly[%s,%d](%s)" % (self.ring, self.nvars, text)


def refused(name):
    """The ``LaurentPoly`` classmethod ``name`` for a subclass whose own
    constructor takes other arguments: it raises TypeError."""

    def refuse(cls, *args, **kwargs):
        raise TypeError("LaurentPoly.%s does not fit %s, whose constructor takes other arguments" % (name, cls.__name__))

    return classmethod(refuse)


def coefficient_text(var, data) -> str:
    """The text of a one-variable coefficient {exponent: int} in ``var``:
    terms by descending exponent, e.g. ``(q^2 - 3*q^-1)``, parenthesized
    when there are several."""
    if not data:
        return "0"
    bits = []
    for exp in sorted(data, reverse=True):
        c = data[exp]
        if exp == 0:
            bits.append(str(c))
            continue
        mono = "%s^%d" % (var, exp)
        bits.append(mono if c == 1 else "-" + mono if c == -1 else "%d*%s" % (c, mono))
    text = " + ".join(bits).replace("+ -", "- ")
    return "(%s)" % text if len(bits) > 1 else text


# -- binomial division -------------------------------------------------------


def divide_binomial(rows, shift: int, step: int):
    """Divide the series ``rows`` (rows[e] = {key: int}, the u**e coefficient)
    in place by 1 - x u**step, x the monomial that adds ``shift`` to a key, in
    one pass of increasing u-order: out[e] = f[e] + x out[e - step].  Exact,
    because the binomial's constant term is 1; a polynomial is a multiple of
    the binomial iff the top ``step`` rows of its quotient series are empty."""
    for e in range(step, len(rows)):
        row = rows[e]
        for k, c in rows[e - step].items():
            k += shift
            v = row.get(k, 0) + c
            if v:
                row[k] = v
            else:
                del row[k]


# -- the constraint ----------------------------------------------------------


def constrain(f: LaurentPoly, rank: int) -> LaurentPoly:
    """Impose z_1 * ... * z_{r+1} = 1 by substituting the last variable,
    z_{r+1} := (z_1 ... z_r)**(-1).  Result lives in ``rank`` variables."""
    if type(f) is not LaurentPoly:
        raise TypeError("constrain takes a polynomial in the monomial basis")
    if f.nvars != rank + 1:
        raise ValueError("expected a polynomial in %d variables" % (rank + 1))
    zo = f.zoff
    return LaurentPoly.from_terms(
        f.ring,
        rank,
        ((e[:zo] + tuple(x - e[-1] for x in e[zo:-1]), c) for e, c in f.terms()),
    )


def _z_parts(f: LaurentPoly):
    """{key of a z-part: {unit offset: int}}: the terms of f grouped by their
    z-exponents, a unit offset the ``offset`` of the ring-variable exponents
    (the unit exponent itself over W and Q, ``offset((i, j))`` for q**i t**j)."""
    shift = SLOT_BITS * f.zoff
    low, base = (1 << shift) - 1, zero_key(f.zoff)
    out = {}
    for k, c in f.coeffs.items():
        out.setdefault(k >> shift, {})[(k & low) - base] = c
    return out


def _swap_closed(parts, nvars) -> bool:
    """True when every adjacent swap of z-exponents maps each z-part of
    ``parts`` to one with the same payload: the symmetry check, one dict
    lookup per z-part and transposition, not per term."""
    for i in range(nvars - 1):
        shift = SLOT_BITS * i
        # swapping slots i and i+1 adds (b - a) * step to a key
        step = (1 << shift) - (1 << (shift + SLOT_BITS))
        for z, d in parts.items():
            a = (z >> shift) & _MASK
            b = (z >> (shift + SLOT_BITS)) & _MASK
            if parts.get(z + (b - a) * step) != d:
                return False
    return True


def require_symmetric(f: LaurentPoly):
    """The terms of f grouped by z-part, as ``{key of the z-part: {unit
    offset: int}}``; ``NotSymmetric`` unless f is symmetric in the z
    variables."""
    parts = _z_parts(f)
    if not _swap_closed(parts, f.nvars):
        raise NotSymmetric("polynomial is not symmetric in the z variables")
    return parts
