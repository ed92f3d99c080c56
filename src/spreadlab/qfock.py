"""q-deformed Fock space at a finite truncation, -1 < q < 1.

Basis labels are all integer tuples over the window of length at most
``depth`` (repetitions allowed, any order), plus the empty tuple for the
vacuum.  The inner product is deformed by counting permutation inversions;
it is computed by explicit enumeration over the symmetric group, which is
the obviously-correct route at desk scale (tuple lengths stay small).  It is
block-diagonal by multiset: one enumeration (:func:`q_pairings`) gives a
tuple's pairing with every rearrangement of it, and every other pair is 0.
The convention 0**0 = 1 makes q = 0 the free Fock inner product.

Deformation parameters may be floats or ``fractions.Fraction`` values; the
arithmetic is generic, so exact rational cross-checks cost nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import permutations, product
from typing import Iterator

import numpy as np

from .operators import (
    Kind,
    LabelModel,
    Letter,
    StateFunctional,
    Term,
    Word,
    annihilator_matrix,
    budget_count,
    check_budget,
    check_space,
    creator_matrix,
    label_state,
    position_matrix,
    walk,
)

Label = tuple[int, ...]
VACUUM: Label = ()

# Most permutations a deformed Gram matrix may enumerate, one label and one
# permutation of the label's length at a time.  Window 0..3 at depth 4 takes
# 6,565; a single site at depth 11 would take about 44 M within a dimension
# of 12.
MAX_GRAM_PERMUTATIONS = 1_000_000


def inversions(pi: tuple[int, ...]) -> int:
    n = len(pi)
    return sum(1 for a in range(n) for b in range(a + 1, n) if pi[a] > pi[b])


def q_inner(u: Label, v: Label, q) -> complex | float:
    """Deformed inner product of two basis tuples, read from v's
    :func:`q_pairings` column.  No permutation matches unless v rearranges u,
    so every other pair (different lengths included) is zero without
    enumerating.  Works for float or Fraction q.
    """
    if sorted(u) != sorted(v):
        return 0 * q**0
    return q_pairings(v, q)[tuple(u)]


def q_pairings(v: Label, q) -> dict[Label, complex | float]:
    """<u, v>_q for every rearrangement u of v, from the one enumeration of
    the permutations: each pi adds q**inversions(pi) to the u it matches.
    The powers, up to the most inversions, and the zero are computed once."""
    n = len(v)
    powers = [q**k for k in range(n * (n - 1) // 2 + 1)]
    zero = 0 * powers[0]
    out: dict = {}
    for pi in permutations(range(n)):
        u = tuple(v[k] for k in pi)
        out[u] = out.get(u, zero) + powers[inversions(pi)]
    return out


class SubPairTable(dict):
    """A table of sub-pair values for :func:`q_inner_recursive` at one q, with
    q's zero and the powers q**k it has needed, so that every pair it serves
    reads them from here instead of computing them again."""

    def __init__(self, q) -> None:
        super().__init__()
        self.q = q
        self.powers = [q**0]
        self.zero = 0 * self.powers[0]

    def powers_below(self, n: int) -> list:
        """The table's powers, q**k for every k < n at least."""
        while len(self.powers) < n:
            self.powers.append(self.q ** len(self.powers))
        return self.powers


def q_inner_recursive(u: Label, v: Label, q, memo: dict | None = None) -> complex | float:
    """Same inner product by peeling the head of u through the annihilator
    slot weights instead of enumerating permutations; must agree with
    :func:`q_pairings` exactly.

    ``memo`` is a table of the sub-pairs' values at this same q, fresh for
    each call without one: each sub-pair (u[1:], v without one slot) is read
    from it or stored into it, and (u, v) itself is not stored.  The powers
    of q and its zero come from the memo when it is a :class:`SubPairTable`
    of this q object, and are computed once for this call otherwise."""
    if memo is None:
        memo = SubPairTable(q)
    table = memo if isinstance(memo, SubPairTable) and memo.q is q else SubPairTable(q)
    return _peel(u, v, table.powers_below(len(v)), table.zero, memo)


def _peel(u: Label, v: Label, powers: list, zero, memo: dict):
    """:func:`q_inner_recursive` with q**k read as ``powers[k]``."""
    if len(u) != len(v):
        return zero
    if not u:
        return powers[0]
    total = zero
    for k, entry in enumerate(v):
        if entry == u[0]:
            pair = (u[1:], v[:k] + v[k + 1 :])
            if (rest := memo.get(pair)) is None:
                rest = memo[pair] = _peel(*pair, powers, zero, memo)
            if rest:  # adding a zero term would leave the total as it is
                total += powers[k] * rest
    return total


@dataclass(frozen=True)
class QBasis(LabelModel):
    window: tuple[int, int]
    depth: int
    q: float  # or a fractions.Fraction, for exact walks

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.depth < 1:
            raise ValueError("depth must be at least 1")
        if not abs(self.q) < 1:
            raise ValueError(f"deformation must satisfy |q| < 1, got {self.q}")

    @cached_property
    def labels(self) -> tuple[Label, ...]:
        lo, hi = self.window
        out: list[Label] = []
        for k in range(self.depth + 1):
            out.extend(product(range(lo, hi + 1), repeat=k))
        return tuple(out)

    def check_gram(self) -> None:
        """Reject a Gram matrix above the dense budget, or one whose columns
        enumerate more than :data:`MAX_GRAM_PERMUTATIONS` permutations (n!
        for each label of length n)."""
        check_space(self.window, self.dim)
        lo, hi = self.window
        count = budget_count(  # within the dense budget, depth < 4096
            ((hi - lo + 1) ** n * math.factorial(n) for n in range(self.depth + 1)),
            MAX_GRAM_PERMUTATIONS,
        )
        check_budget(
            self.window, count, MAX_GRAM_PERMUTATIONS,
            f"at depth {self.depth} needs {count} or more Gram permutations",
        )

    @cached_property
    def gram(self) -> np.ndarray:
        """Gram matrix, column v filled from one :func:`q_pairings` enumeration
        (entries on and above the diagonal, mirrored below); positive definite
        for |q| < 1."""
        self.check_gram()
        labels = self.labels
        position = {lab: pos for pos, lab in enumerate(labels)}
        g = np.zeros((len(labels), len(labels)))
        for b, v in enumerate(labels):
            for u, value in q_pairings(v, self.q).items():
                a = position[u]
                if a <= b:
                    g[a, b] = g[b, a] = float(value)
        return g

    def has_label(self, label) -> bool:
        """A tuple of window indices, at most depth long."""
        lo, hi = self.window
        return (
            isinstance(label, tuple)
            and len(label) <= self.depth
            and all(lo <= i <= hi for i in label)
        )

    @property
    def dim(self) -> int:
        lo, hi = self.window
        return budget_count((hi - lo + 1) ** k for k in range(self.depth + 1))

    # -- label action; walker and letter matrices are derived from it -------

    def act(self, kind: Kind, j: int, label: Label) -> list[tuple[Label, float]]:
        """Weighted images of one basis label: the creator prepends j below the
        depth cap; the annihilator removes slot k holding j with weight q**k
        (0-based k, i.e. q**(k-1) in 1-based slot counting), of q's own type."""
        if kind is Kind.CREATOR:
            if len(label) == self.depth:
                return []
            return [((j,) + label, 1)]
        return [
            (label[:k] + label[k + 1 :], self.q**k)
            for k, entry in enumerate(label)
            if entry == j
        ]

    apply_word = walk
    creator = creator_matrix
    annihilator = annihilator_matrix
    position = position_matrix

    # -- states --------------------------------------------------------------------

    def vacuum_state(self) -> StateFunctional:
        # The vacuum has norm 1 and is orthogonal to every other label, so its
        # coordinate is the deformed inner product.
        return label_state(self, VACUUM)

    def vector_state(self, label: Label) -> StateFunctional:
        """w -> <e, w e>_q / <e, e>_q for the basis vector e of the label: the
        label state (and its label check), read through its q_pairings dual."""
        state = label_state(self, label)
        pairings = q_pairings(label, self.q)
        dual = tuple((u, float(value)) for u, value in pairings.items())
        norm = float(pairings[label])  # positive for |q| < 1
        return replace(state, terms=(Term(1, self, label, dual, norm),))


def words_over(
    indices: list[int], max_length: int, kinds: tuple[Kind, ...]
) -> Iterator[Word]:
    """All words up to the length bound with letters of the given kinds."""
    alphabet = [Letter(kind, i) for kind in kinds for i in indices]
    for n in range(max_length + 1):
        for combo in product(alphabet, repeat=n):
            yield Word(tuple(combo))
