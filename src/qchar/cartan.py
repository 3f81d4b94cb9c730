"""Rank data for sl(r+1): the symmetrized inverse-Cartan pairing.

``lam(a, b) = min(a, b) * (r + 1 - max(a, b))`` for labels in [1, r]; the
same formula extends the pairing by zero to the boundary labels 0 and r+1,
which is the convention used by the boundary difference operators.
"""

from __future__ import annotations

from .records import FrozenRecord


class CartanData(FrozenRecord):
    __slots__ = ("rank",)

    def __init__(self, rank: int):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        self._set(rank)

    def lam(self, a: int, b: int) -> int:
        """Pairing entry; defined for labels in [0, r+1] (zero on the boundary)."""
        r = self.rank
        if not (0 <= a <= r + 1 and 0 <= b <= r + 1):
            raise ValueError("labels out of range [0, %d]" % (r + 1))
        return min(a, b) * (r + 1 - max(a, b))

    def lam_row_sum(self, a: int) -> int:
        """Sum over beta in [1, r] of lam(a, beta)."""
        return sum(self.lam(a, b) for b in range(1, self.rank + 1))

    def matrix(self):
        r = self.rank
        return [[self.lam(a, b) for b in range(1, r + 1)] for a in range(1, r + 1)]
