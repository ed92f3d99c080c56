"""Discrete monotone Fock space at a finite truncation.

Basis labels are the strictly increasing integer tuples with entries in the
window and length at most ``depth``, plus the empty tuple for the vacuum,
enumerated in graded lexicographic order.  The creation operator prepends its
index when that keeps the tuple strictly increasing (and the tuple below the
depth cap); the annihilation operator strips a matching head.  Words applied
to a basis vector therefore stay supported on a single label, which the state
functionals exploit instead of building matrices.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import combinations
from math import comb
from typing import Iterable, Iterator, Sequence

from .operators import (
    Kind,
    LabelModel,
    StateFunctional,
    Word,
    annihilator as annihilator_letter,
    annihilator_matrix,
    budget_count,
    creator as creator_letter,
    creator_matrix,
    label_state,
    position_matrix,
    walk,
)

Label = tuple[int, ...]
VACUUM: Label = ()


@dataclass(frozen=True)
class MonotoneBasis(LabelModel):
    window: tuple[int, int]
    depth: int

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.depth < 1:
            raise ValueError("depth must be at least 1")

    @cached_property
    def labels(self) -> tuple[Label, ...]:
        lo, hi = self.window
        out: list[Label] = []
        for k in range(min(self.depth, hi - lo + 1) + 1):  # no label outgrows the window
            out.extend(combinations(range(lo, hi + 1), k))
        return tuple(out)

    def has_label(self, label) -> bool:
        """A strictly increasing tuple of window indices, at most depth long."""
        lo, hi = self.window
        return (
            isinstance(label, tuple)
            and len(label) <= self.depth
            and all(lo <= i <= hi for i in label)
            and all(a < b for a, b in zip(label, label[1:]))
        )

    @property
    def dim(self) -> int:
        lo, hi = self.window
        return budget_count(comb(hi - lo + 1, k) for k in range(min(self.depth, hi - lo + 1) + 1))

    # -- label action; walker and letter matrices are derived from it -------

    def act(self, kind: Kind, i: int, label: Label) -> list[tuple[Label, int]]:
        """Weighted images of one basis label under the creator or annihilator at i."""
        if kind is Kind.CREATOR:
            if len(label) == self.depth or (label and i >= label[0]):
                return []
            return [((i,) + label, 1)]
        if label and label[0] == i:
            return [(label[1:], 1)]
        return []

    apply_word = walk
    creator = creator_matrix
    annihilator = annihilator_matrix
    position = position_matrix

    def truncation_columns(self, i: int) -> tuple[Label, ...]:
        """Labels where the creator at i is killed only by the depth cap."""
        return tuple(
            t
            for t in self.labels
            if len(t) == self.depth and (not t or i < t[0])
        )

    # -- states ----------------------------------------------------------------

    def vacuum_state(self) -> StateFunctional:
        return label_state(self, VACUUM)

    def state_at_infinity(self) -> StateFunctional:
        """Vector state at the probe label (hi,), the window top, which words
        may not use: its window stops one below.  The value does not depend on
        the probe as long as it stays above every index in the word."""
        lo, hi = self.window
        return replace(label_state(self, (hi,)), window=(lo, hi - 1))


# ---------------------------------------------------------------------------
# Normally ordered words


@dataclass(frozen=True)
class LambdaForm:
    """Creators with strictly increasing indices followed by annihilators with
    strictly decreasing indices; both empty means the identity."""

    creators: tuple[int, ...] = ()
    annihilators: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if any(a >= b for a, b in zip(self.creators, self.creators[1:])):
            raise ValueError(f"creator indices must increase: {self.creators}")
        if any(a <= b for a, b in zip(self.annihilators, self.annihilators[1:])):
            raise ValueError(f"annihilator indices must decrease: {self.annihilators}")

    @property
    def length(self) -> int:
        return len(self.creators) + len(self.annihilators)

    def word(self) -> Word:
        letters = tuple(creator_letter(i) for i in self.creators) + tuple(
            annihilator_letter(j) for j in self.annihilators
        )
        return Word(letters)

    def to_text(self) -> str:
        return (
            f"D[{','.join(str(i) for i in self.creators)}]"
            f"A[{','.join(str(j) for j in self.annihilators)}]"
        )

    @classmethod
    def from_text(cls, text: str) -> "LambdaForm":
        m = re.fullmatch(r"D\[([-\d,\s]*)\]A\[([-\d,\s]*)\]", text.strip())
        if m is None:
            raise ValueError(f"not a normally-ordered word literal: {text!r}")

        def parse(body: str) -> tuple[int, ...]:
            body = body.strip()
            return tuple(int(x) for x in body.split(",")) if body else ()

        return cls(parse(m.group(1)), parse(m.group(2)))

    def __str__(self) -> str:
        return self.to_text()


def lambda_forms(
    indices: Sequence[int],
    max_creators: int,
    max_annihilators: int,
    max_length: int | None = None,
) -> Iterator[LambdaForm]:
    """All normally ordered words over the index set within the size bounds,
    the identity excluded."""
    idx = sorted(indices)
    for m in range(max_creators + 1):
        for cs in combinations(idx, m):
            for n in range(max_annihilators + 1):
                if max_length is not None and m + n > max_length:
                    continue
                if m == n == 0:
                    continue
                for asc in combinations(idx, n):
                    yield LambdaForm(cs, tuple(reversed(asc)))


def diagonal_number_words(indices: Iterable[int]) -> Iterator[Word]:
    """The words annihilator-then-creator at one index (not normally ordered)."""
    for i in indices:
        yield Word((annihilator_letter(i), creator_letter(i)))
