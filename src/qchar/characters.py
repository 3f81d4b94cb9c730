"""Graded characters of fusion products, built by iterated raising operators.

An occupation matrix ``n`` (rank r, level k, entries n_i^(a) >= 0) indexes a
tensor product of KR modules with highest weights i*omega_a.  Its graded
character in the variable ``q**-1`` is

    chi_n = q**X(n) * prod_a M_{a,k}^{n_k^(a)} ... prod_a M_{a,1}^{n_1^(a)} . 1

with the level-1 factors applied first and the integer exponent

    X(n) = -1/2 sum n_i^(a) min(i,j) min(a,b) n_j^(b) + 1/2 sum i a n_i^(a).

The same product in the twisted operators, constrained to z_1...z_{r+1} = 1,
gives the renormalized coefficients G_n; the two paths are related by an
explicit power of v and cross-check each other (``char_from_g`` reads the
packed twisted product times that power in q, q = v**-(r+1), by moving
its offset).  Both chains, and the difference equations, run on Schur
forms (``symfun.SchurPoly`` or its packed ``qdiff.PackedSchur``);
monomial expansions are views computed on demand.

Each chain value is one raising step from the cached value of its prefix,
the word of factors M_{a,i} less its last letter, and is kept packed: each
Schur coefficient one integer (``qdiff.packed_step``).  A step
straightens the term of each branching key once and builds no per-s_lam
image; the cached images, modulo full columns, serve
``qdiff.operator_sum``.  The character is checked on that value
(``packed_character``, which ``qchar char`` prints), then cached per n as
a Schur form; the equation values, modulo z_1...z_{r+1} = 1, stay packed.

``difference_equation_terms`` generates the level-k difference equation at
every rank and level; ``equation_sides`` checks it on chi or G as one
packed residual (``qdiff.packed_sum``), each integer tested for zero, and
unpacks its two sides only when it fails.  Every equation report of
``verify`` goes through ``equation_sides``.
"""

from __future__ import annotations

from functools import lru_cache

from .cartan import CartanData
from .laurent import LaurentPoly, constrain
from .qdiff import PackedSchur, packed_step, packed_sum
from .records import FrozenRecord
from .rings import RING_Q, RING_W, ExponentNotDivisible
from .symfun import SchurPoly, partition_of_weight


class NVector(FrozenRecord):
    """Occupation numbers n_i^(a), a in [1, r], i in [1, k]: rows[a-1][i-1]."""

    __slots__ = ("rank", "level", "rows")

    def __init__(self, rank: int, level: int, rows: tuple):
        if rank < 1 or level < 1:
            raise ValueError("rank and level must be >= 1")
        if len(rows) != rank:
            raise ValueError("expected %d rows" % rank)
        for row in rows:
            if len(row) != level:
                raise ValueError("every row needs %d entries" % level)
            if any(type(x) is not int or x < 0 for x in row):
                raise ValueError("entries must be nonnegative integers (a bool is not one)")
        self._set(rank, level, rows)

    @classmethod
    def from_rows(cls, rank, level, rows):
        return cls(rank, level, tuple(tuple(r) for r in rows))

    @classmethod
    def from_levels(cls, rank, level, levels):
        """Build from level-major data: levels[i-1][a-1] = n_i^(a)."""
        if len(levels) != level or any(len(l) != rank for l in levels):
            raise ValueError("level-major data has wrong shape")
        rows = tuple(
            tuple(levels[i][a] for i in range(level)) for a in range(rank)
        )
        return cls(rank, level, rows)

    @classmethod
    def level_one(cls, rank, entries):
        return cls(rank, 1, tuple((x,) for x in entries))

    def entry(self, alpha: int, i: int) -> int:
        if not (1 <= alpha <= self.rank and 1 <= i <= self.level):
            raise ValueError("entry (%d, %d) outside the occupation matrix" % (alpha, i))
        return self.rows[alpha - 1][i - 1]

    def sigma(self) -> int:
        return sum(sum(row) for row in self.rows)

    def cells(self):
        """(alpha, i, n_i^(alpha)) for every nonzero entry."""
        return [(a + 1, i + 1, x) for a, row in enumerate(self.rows) for i, x in enumerate(row) if x]

    def dual(self):
        """The occupation matrix relabelled a -> r+1-a."""
        return NVector(self.rank, self.level, self.rows[::-1])

    def _moved(self, moves):
        """Rows after unit moves (alpha, i, delta), negative entries kept.
        Moves at label 0 or r+1, or at level 0, drop out."""
        rows = [list(r) for r in self.rows]
        for alpha, i, delta in moves:
            if not (0 <= alpha <= self.rank + 1 and 0 <= i <= self.level):
                raise ValueError("move (%d, %d) outside labels and levels" % (alpha, i))
            if 0 < alpha <= self.rank and i:
                rows[alpha - 1][i - 1] += delta
        return tuple(tuple(r) for r in rows)

    def shift(self, *moves):
        """Apply unit moves (see ``_moved``); None when an entry goes negative."""
        return self._on(self._moved(moves))

    def _on(self, rows):
        """The NVector with these rows, None when an entry is negative."""
        return None if min(map(min, rows)) < 0 else NVector(self.rank, self.level, rows)

    def top_weight(self):
        """Dominant-weight labels of the leading component: sum_i i n_i^(a)."""
        return tuple(
            sum((i + 1) * x for i, x in enumerate(row)) for row in self.rows
        )

    def __str__(self):
        return ";".join(
            ",".join(str(self.entry(a, i)) for a in range(1, self.rank + 1))
            for i in range(1, self.level + 1)
        )


# entries per cache: char-ladder, verify-operators and ``verify --suite all``
# in one process hold 532 chain prefixes (324 M, 208 D), 269 character forms
# and 440 equation values
_CHARACTER_CACHE = 1 << 10
_CHAINS = {}  # (ring, rank, word of factors (alpha, i)) -> packed chain value; oldest out first


def _chain(n: NVector, op, ring) -> PackedSchur:
    """``operator_product(n, op, ring)``, op "M" or "D", packed: find the
    longest cached prefix of the word of factors, then step up by
    ``packed_step``, caching every prefix."""
    word = tuple((a, i) for i in range(1, n.level + 1) for a, row in enumerate(n.rows, 1) for _ in range(row[i - 1]))
    t = len(word)
    while t and (ring, n.rank, word[:t]) not in _CHAINS:
        t -= 1
    f = _CHAINS[ring, n.rank, word[:t]] if t else PackedSchur.one(ring, n.rank + 1)
    for k in range(t, len(word)):
        f = packed_step(op, *word[k], f)
        if len(_CHAINS) >= _CHARACTER_CACHE:
            del _CHAINS[next(iter(_CHAINS))]
        _CHAINS[ring, n.rank, word[: k + 1]] = f
    return f


def raising_product(n: NVector) -> SchurPoly:
    """The bare operator product applied to 1 (Q-ring, r+1 variables,
    no prefactor); level-1 factors act first, higher levels after."""
    return _chain(n, "M", RING_Q).schur()


def operator_product(n: NVector, op, ring, reverse: bool = False) -> SchurPoly:
    """op(alpha, i) applied n_i^(alpha) times to 1, from scratch: level 1
    first, labels in increasing order within a level (decreasing with
    ``reverse``)."""
    f = SchurPoly.one(ring, n.rank + 1)
    for i in range(1, n.level + 1):
        for alpha in range(n.rank, 0, -1) if reverse else range(1, n.rank + 1):
            for _ in range(n.entry(alpha, i)):
                f = op(alpha, i, f)
    return f


def _pairing(n: NVector, pair) -> int:
    """sum over entries of n_i^(a) min(i, j) pair(a, b) n_j^(b)."""
    cells = n.cells()
    return sum(x * y * min(i, j) * pair(a, b) for a, i, x in cells for b, j, y in cells)


def char_q_exponent(n: NVector) -> int:
    """The (nonpositive) q-exponent of the character prefactor."""
    diff = _pairing(n, min) - sum(i * a * x for a, i, x in n.cells())
    if diff % 2:
        raise ArithmeticError("prefactor exponent is not an integer")
    return -(diff // 2)


def packed_character(n: NVector) -> PackedSchur:
    """chi_n(q**-1, z) packed: the raising product times q**X(n), checked
    on its top digits.  Every q-exponent is nonpositive, and the q**0 part
    is the top component's Schur function: the top digits sit at q**0, 1 at
    the top component and nowhere else."""
    form = _chain(n, "M", RING_Q).times_unit(char_q_exponent(n))
    place, leads = form.top_digits()
    if place is not None and form.offset + place > 0:
        raise ArithmeticError("character has a positive q-exponent")
    top = SchurPoly.basis(top_component(n), n.rank + 1).coeffs
    if place is None or form.offset + place < 0 or leads != dict.fromkeys(top, 1):
        raise ArithmeticError("q**0 part differs from the top component")
    return form


@lru_cache(maxsize=_CHARACTER_CACHE)
def graded_character(n: NVector) -> SchurPoly:
    """chi_n(q**-1, z) as an exact Schur form in z_1..z_{r+1}, cached per n:
    the checked ``packed_character`` unpacked; ``expansion()`` and
    ``monomials()`` are its two views."""
    return packed_character(n).schur()


def multiplicities(n: NVector) -> dict:
    """Schur coefficients of the character, keyed by the partition of the
    dominant weight (full columns removed)."""
    return graded_character(n).constrained().expansion()


def top_component(n: NVector):
    """Partition of the top (q**0) component."""
    return partition_of_weight(n.top_weight())


def g_coefficient(n: NVector) -> LaurentPoly:
    """The renormalized coefficient G_n: the twisted product on 1, with
    z_1...z_{r+1} = 1 imposed (W-ring, r variables, monomial basis): the
    packed G_n of ``_equation_value`` unpacked and expanded."""
    return constrain(_equation_value(n, "G").schur().monomials(), n.rank)


@lru_cache(maxsize=_CHARACTER_CACHE)
def g_to_char_w_exponent(n: NVector) -> int:
    """w-exponent of the prefactor relating the twisted product to the
    character: chi_n = w**E * (twisted product on 1)."""
    cart = CartanData(n.rank)
    lin = sum(x * cart.lam_row_sum(a) for a, i, x in n.cells())
    return 2 * lin + _pairing(n, cart.lam)


def char_from_g(n: NVector) -> SchurPoly:
    """The character computed through the twisted-operator path: the packed
    unconstrained product times its prefactor w**E, read in q.  Digit d of
    that value is w**(offset - 2Nd) = q**(d - offset/2N), so the same rows
    at offset -offset/2N over Q are the character; ``ExponentNotDivisible``
    when 2N does not divide the offset (the value is no function of q).
    Equals ``graded_character(n)`` exactly."""
    packed = _chain(n, "D", RING_W).times_unit(g_to_char_w_exponent(n))
    step = 2 * (n.rank + 1)
    if packed.offset % step:
        raise ExponentNotDivisible("w-exponent %d is not a multiple of %d" % (packed.offset, step))
    return PackedSchur(RING_Q, n.rank + 1, -packed.offset // step, *packed.packing).schur()


# -- difference equations ------------------------------------------------------


def difference_equation_terms(n: NVector, dual: bool = False) -> list:
    """The level-k difference equation at n,

        sum_{a=1}^{r+1} chi[n + e(a-1,k-1) - e(a,k-1) + e(a,k) - e(a-1,k)]
          - sum_{a=1}^{r} q**(k-1 - sum_i i n_i^(a))
                chi[n + e(a-1,k-1) - e(a,k-1) + e(a+1,k) - e(a,k)]  =  e_1 chi[n],

    as (shifted NVector or None, q-coefficient {exponent: int}) pairs, one
    per distinct shift.  Moves at label 0 or r+1 and at level 0 drop out, so
    at k = 1 the sums merge into the level-1 coefficients 1 - q**(-n^(a)).
    A negative shift (None) must carry a zero coefficient.  ``dual``
    relabels a -> r+1-a, which puts e_r on the right-hand side: the shifts
    are formed on the dual rows and each NVector built from them reversed."""
    m, flip = (n.dual(), -1) if dual else (n, 1)
    r, k = n.rank, n.level
    merged = {}
    for a in range(1, r + 2):
        low = ((a - 1, k - 1, 1), (a, k - 1, -1))
        sums = [(low + ((a, k, 1), (a - 1, k, -1)), 0, 1)]
        if a <= r:
            qexp = k - 1 - sum(i * m.entry(a, i) for i in range(1, k + 1))
            sums.append((low + ((a + 1, k, 1), (a, k, -1)), qexp, -1))
        for moves, qexp, sign in sums:
            coeff = merged.setdefault(m._moved(moves), {})
            coeff[qexp] = coeff.get(qexp, 0) + sign
    return [(n._on(rows[::flip]), {e: c for e, c in coeff.items() if c}) for rows, coeff in merged.items()]


def g_form_terms(n: NVector, terms) -> list:
    """The terms for G_n instead of chi_n: chi_m = w**E(m) G_m on the
    constraint (E = ``g_to_char_w_exponent``), so q = w**(-2(r+1)) and each
    term is multiplied by w**(E(n_t) - E(n))."""
    scale, base = -2 * (n.rank + 1), g_to_char_w_exponent(n)
    out = []
    for m, coeff in terms:
        shift = 0 if m is None else g_to_char_w_exponent(m) - base
        out.append((m, {scale * e + shift: c for e, c in coeff.items()}))
    return out


@lru_cache(maxsize=_CHARACTER_CACHE)
def _equation_value(m: NVector, form: str) -> PackedSchur:
    """G_m, or the checked chi_m, modulo z_1...z_{r+1} = 1, packed."""
    return (_chain(m, "D", RING_W) if form == "G" else packed_character(m)).constrained()


def packed_sides(lhs, rhs):
    """None when the ``qdiff.packed_sum`` parts lhs and rhs (rhs nonempty)
    have one sum, every integer of lhs - rhs 0; else both sums unpacked."""
    if not any(f.packing[1] for f in packed_sum(lhs + [(f, e, -c, m) for f, e, c, m in rhs])):
        return None
    zero = SchurPoly.zero(rhs[0][0].ring, rhs[0][0].nvars)
    return tuple(sum((f.schur() for f in packed_sum(side)), zero) for side in (lhs, rhs))


def equation_sides(n: NVector, form: str = "chi", dual: bool = False):
    """None when the difference equation holds at n, else its sides (lhs,
    rhs), lhs None for a weighted term off the grid: constrained characters
    in q (form "chi") or G_n in w (form "G") as Schur forms, e_1 (e_r) by
    the Pieri rule, nonzero (R(SL_{r+1}) is a domain).  The packed values
    are summed as one residual; only a failing point unpacks its sides."""
    if form not in ("chi", "G"):
        raise ValueError("unknown equation form %r" % form)
    terms = difference_equation_terms(n, dual)
    if form == "G":
        terms = g_form_terms(n, terms)
    rhs = [(_equation_value(n, form), 0, 1, n.rank if dual else 1)]
    if any(coeff and m is None for m, coeff in terms):
        return None, packed_sides([], rhs)[1]
    return packed_sides([(_equation_value(m, form), e, c, None) for m, coeff in terms for e, c in coeff.items()], rhs)
