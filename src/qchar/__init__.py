"""Exact graded characters of KR fusion products via q-difference raising
operators, with a full identity-verification suite."""

from .cartan import CartanData
from .characters import (
    NVector,
    char_from_g,
    g_coefficient,
    graded_character,
    multiplicities,
    top_component,
)
from .laurent import LaurentPoly, constrain
from .macdonald import MacdonaldPoly, macdonald_poly, qwhittaker_specialize
from .qdiff import apply_D, apply_M, apply_macdonald_qt
from .qtorus import NcLaurent, evaluate, q_recursion
from .rings import (
    RING_Q,
    RING_QT,
    RING_W,
    DegenerateEigenvalue,
    ExponentNotDivisible,
    ExponentOverflow,
    NcNotDivisible,
    NotDivisible,
    NotSymmetric,
    PoleAtZero,
)
from .symfun import SchurPoly, elementary, schur
from .whittaker import TruncatedSeries, class_one_combination, w_series

__version__ = "0.1.0"
