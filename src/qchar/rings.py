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

A coefficient lives in the unit slots of a polynomial's exponent vectors.
Read off on its own (``z_terms``, ``expansion``, the difference-equation
terms), a ``RING_W``/``RING_Q`` coefficient is a plain ``{exponent: int}``
dict with no zero values; a ``RING_QT`` one is read through ``terms()``.
Every coefficient is an integer: the package uses no fraction field.  The
rank-one Whittaker series are ``RING_W`` values too, with s = p**(1/2) in
the unit slot (``whittaker.TruncatedSeries``).
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
