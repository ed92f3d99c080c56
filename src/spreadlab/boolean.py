"""Boolean Fock space over a finite index window, exact on the window.

The space is spanned by a distinguished vacuum label ``#`` plus one label per
window index.  Algebra elements are carried as (compact matrix, scalar)
pairs X = K + gamma*I; the multiplication and adjoint work on the pairs
directly.  The states are word-level label states: the vacuum label, and the
scalar part, read at a site above the window.

Cofinite-range increasing maps act by X -> V_f X V_f* + gamma * P_gaps,
where V_f relabels e_k -> e_f(k) and fixes #.  The output window is the
interval hull [f(lo), f(hi)] of the mapped window; there every site is an
image or a gap, so V_f V_f* + P_gaps = I and the action is a relabeling of
the pair: the compact entries move through f and gamma stays.  Finite
permutations relabel the same way inside the window.  The hull keeps the
action unital and makes the composition law exact.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Union

import numpy as np

from .monoid import FinitePermutation, IncreasingMap
from .operators import (
    Kind,
    LabelModel,
    StateFunctional,
    check_space,
    check_window,
    label_state,
    walk,
)

SHARP = "#"
Label = Union[str, int]


class WindowOverflowError(ValueError):
    """Raised when a map image escapes the target window."""


@dataclass(frozen=True)
class BooleanSpace(LabelModel):
    window: tuple[int, int]

    @cached_property
    def labels(self) -> tuple[Label, ...]:
        lo, hi = self.window
        return (SHARP,) + tuple(range(lo, hi + 1))

    def has_label(self, label) -> bool:
        """The vacuum label # or a window index."""
        lo, hi = self.window
        return label == SHARP or (isinstance(label, (int, np.integer)) and lo <= label <= hi)

    @property
    def dim(self) -> int:
        lo, hi = self.window
        return hi - lo + 2

    def index(self, label: Label) -> int:
        if label == SHARP:
            return 0
        lo, hi = self.window
        if not lo <= label <= hi:
            raise IndexError(f"label {label} outside window [{lo}, {hi}]")
        return 1 + label - lo

    # -- elements ----------------------------------------------------------------

    def element(self, compact: np.ndarray, scalar: complex = 0.0) -> "BooleanElement":
        return BooleanElement(self, np.asarray(compact, dtype=complex), complex(scalar))

    def _square(self) -> np.ndarray:
        """A zero dim x dim matrix, allocated once the dim fits the budget."""
        check_space(self.window, self.dim)
        return np.zeros((self.dim, self.dim), dtype=complex)

    def zero(self) -> "BooleanElement":
        return self.element(self._square())

    def identity(self) -> "BooleanElement":
        return self.element(self._square(), 1.0)

    def matrix_unit(self, k: Label, l: Label) -> "BooleanElement":
        m = self._square()
        m[self.index(k), self.index(l)] = 1.0
        return self.element(m)

    def creator(self, j: int) -> "BooleanElement":
        check_window(self, j)  # a site, never the vacuum label
        return self.matrix_unit(j, SHARP)

    def annihilator(self, j: int) -> "BooleanElement":
        check_window(self, j)
        return self.matrix_unit(SHARP, j)

    # -- label action; walker and letter matrices are derived from it -------

    def act(self, kind: Kind, j: int, label: Label) -> list[tuple[Label, int]]:
        """The creator at j sends # to j; the annihilator sends j to #."""
        if kind is Kind.CREATOR:
            return [(j, 1)] if label == SHARP else []
        return [(SHARP, 1)] if label == j else []

    apply_word = walk

    # -- word-level states ---------------------------------------------------------

    def sharp_state(self) -> StateFunctional:
        return label_state(self, SHARP)

    def infinity_state(self) -> StateFunctional:
        """The scalar part of a word: products of generators are compact, and
        the empty word is the identity.  It is the vector state
        at the site one above the window, which every letter of a word inside
        the window kills."""
        lo, hi = self.window
        return replace(label_state(BooleanSpace((lo, hi + 1)), hi + 1), window=(lo, hi))


@dataclass(frozen=True, eq=False)
class BooleanElement:
    """Pair X = compact + scalar * I with exact pair arithmetic."""

    home: BooleanSpace
    compact: np.ndarray
    scalar: complex = 0.0

    def __post_init__(self) -> None:
        m = np.asarray(self.compact, dtype=complex)
        if m.shape != (self.home.dim, self.home.dim):
            raise ValueError(f"compact part shape {m.shape} != dim {self.home.dim}")
        object.__setattr__(self, "compact", m)
        object.__setattr__(self, "scalar", complex(self.scalar))

    def __mul__(self, other: "BooleanElement") -> "BooleanElement":
        if other.home != self.home:
            raise ValueError("elements live on different windows")
        compact = (
            self.compact @ other.compact
            + self.scalar * other.compact
            + other.scalar * self.compact
        )
        return BooleanElement(self.home, compact, self.scalar * other.scalar)

    def __add__(self, other: "BooleanElement") -> "BooleanElement":
        return BooleanElement(
            self.home, self.compact + other.compact, self.scalar + other.scalar
        )

    def __sub__(self, other: "BooleanElement") -> "BooleanElement":
        return BooleanElement(
            self.home, self.compact - other.compact, self.scalar - other.scalar
        )

    def __rmul__(self, c: complex) -> "BooleanElement":
        return BooleanElement(self.home, complex(c) * self.compact, complex(c) * self.scalar)

    def adjoint(self) -> "BooleanElement":
        return BooleanElement(self.home, self.compact.conj().T, self.scalar.conjugate())

    def total_matrix(self) -> np.ndarray:
        return self.compact + self.scalar * np.eye(self.home.dim)

    def allclose(self, other: "BooleanElement", tol: float = 0.0) -> bool:
        return (
            self.home == other.home
            and abs(self.scalar - other.scalar) <= tol
            and bool(np.max(np.abs(self.compact - other.compact), initial=0.0) <= tol)
        )


# ---------------------------------------------------------------------------
# The index-map action


def image_window(f: IncreasingMap, window: tuple[int, int]) -> tuple[int, int]:
    """Interval hull of the mapped window; the canonical output window."""
    lo, hi = window
    return f(lo), f(hi)


def alpha(f: IncreasingMap | FinitePermutation, x: BooleanElement) -> BooleanElement:
    """Endomorphism action X -> V_f X V_f* + (scalar part of X) * P_gaps.

    V_f relabels e_k -> e_f(k) and fixes #.  An increasing map lands on the
    interval hull [f(lo), f(hi)] of the input window, where every site is an
    image or a gap, so V_f V_f* + P_gaps is the identity there: the action
    moves the compact entries through f and keeps the scalar part, which
    keeps it unital and multiplicative on the truncation.  A finite
    permutation (support inside the window) acts on the input window itself,
    as a *-automorphism.
    """
    space_in = x.home
    lo, hi = space_in.window
    if isinstance(f, FinitePermutation):
        if any(not lo <= s <= hi for s in f.support):
            raise WindowOverflowError(f"support {sorted(f.support)} escapes [{lo}, {hi}]")
        space_out = space_in
    else:
        space_out = BooleanSpace(image_window(f, space_in.window))
    rows = [space_out.index(SHARP), *(space_out.index(f(k)) for k in range(lo, hi + 1))]
    compact = space_out._square()
    compact[np.ix_(rows, rows)] = x.compact
    return BooleanElement(space_out, compact, x.scalar)
