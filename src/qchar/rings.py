"""Exact scalar rings used as polynomial coefficients.

Three rings appear throughout the package:

* ``RING_W``  -- integer Laurent polynomials in ``w``, where ``w**2 = v`` is
  the dilation parameter.  Working with ``w`` keeps every half-integer power
  of ``v`` at an integer exponent.
* ``RING_Q``  -- integer Laurent polynomials in ``q``.  The two variables are
  tied by ``q = v**-(r+1)``, i.e. ``q = w**(-2*(r+1))`` at rank ``r``.
* ``RING_QT`` -- integer Laurent polynomials in two variables ``q`` and
  ``t``, the ring of the Macdonald operators once their denominators are
  cleared (Macdonald, *Symmetric Functions and Hall Polynomials*, VI.8).

``RING_W``/``RING_Q`` scalars are stored as plain ``{exponent: int}`` dicts;
a ``RING_QT`` coefficient lives in the two unit slots of a polynomial's
exponent vectors and has no ``Scalar`` view.  Every coefficient is an
integer: the package uses no fraction field.  The rank-one Whittaker series
use the same integer trick as ``RING_W``, with s = p**(1/2).
"""

from __future__ import annotations

RING_W = "w"
RING_Q = "q"
RING_QT = "qt"


class NotDivisible(ArithmeticError):
    """Exact division failed; signals a violated divisibility guarantee."""


class ExponentNotDivisible(ArithmeticError):
    """A w-exponent is not a multiple of 2*(r+1), so the value is not a
    function of q alone."""


class ExponentOverflow(OverflowError):
    """An exponent does not fit the slot of a packed key (see
    ``laurent.EXP_MIN``/``EXP_MAX``); raised before any key is formed."""


class NotSymmetric(ValueError):
    """Input polynomial is not symmetric under permutations of the z's."""


class NcNotDivisible(ArithmeticError):
    """Exact division failed in the quantum torus."""


class DegenerateEigenvalue(ArithmeticError):
    """Two partitions share a symbolic eigenvalue; the triangular solve
    cannot proceed."""


class PoleAtZero(ArithmeticError):
    """A coefficient has a pole at t = 0."""


class Scalar:
    """A read-only view of one coefficient: a w- or q-Laurent polynomial over
    the integers, as ``z_terms`` and ``expansion`` return it.  Values are
    canonical: zero coefficients are never stored.  Arithmetic on
    coefficients lives in ``LaurentPoly`` (its unit slot) and
    ``laurent.w_to_q``.
    """

    __slots__ = ("ring", "data")

    def __init__(self, ring, data):
        self.ring = ring
        self.data = data

    def __eq__(self, other):
        return (
            isinstance(other, Scalar)
            and self.ring == other.ring
            and self.data == other.data
        )

    def __bool__(self):
        return bool(self.data)

    # -- presentation ------------------------------------------------------

    def to_text(self) -> str:
        if not self.data:
            return "0"
        bits = []
        for exp in sorted(self.data, reverse=True):
            c = self.data[exp]
            if exp == 0:
                term = str(c)
            else:
                mono = "%s^%d" % (self.ring, exp)
                if c == 1:
                    term = mono
                elif c == -1:
                    term = "-" + mono
                else:
                    term = "%d*%s" % (c, mono)
            bits.append(term)
        text = " + ".join(bits).replace("+ -", "- ")
        if len(bits) > 1:
            return "(%s)" % text
        return text

    def __repr__(self):
        return "Scalar[%s](%s)" % (self.ring, self.to_text())
