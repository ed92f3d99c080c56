"""Boolean Fock space over a finite index window, exact on the window.

The space is spanned by a distinguished vacuum label ``#`` plus one label per
window index.  Algebra elements are carried as (compact matrix, scalar)
pairs X = K + gamma*I, so the state at infinity X -> gamma needs no limit:
the multiplication and adjoint work on the pairs directly.

Cofinite-range increasing maps act through isometries V_f (index relabeling
fixing #) by X -> V_f X V_f* + gamma * P over the in-window gap set; finite
permutations act by the same conjugation with a permutation matrix, where
the gap term vanishes.  Output windows are integer intervals; taking the
interval hull of the mapped window keeps the action unital and makes the
composition law exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Union

import numpy as np

from .monoid import FinitePermutation, IncreasingMap
from .operators import (
    Kind,
    StateFunctional,
    TruncatedSpace,
    annihilator_matrix,
    check_space,
    creator_matrix,
    label_state,
    walk,
)

SHARP = "#"
Label = Union[str, int]


class WindowOverflowError(ValueError):
    """Raised when a map image escapes the target window."""


@dataclass(frozen=True)
class BooleanSpace:
    window: tuple[int, int]

    def __post_init__(self) -> None:
        check_space(self.window)

    @cached_property
    def labels(self) -> tuple[Label, ...]:
        lo, hi = self.window
        return (SHARP,) + tuple(range(lo, hi + 1))

    @cached_property
    def space(self) -> TruncatedSpace:
        return TruncatedSpace(self.labels)

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

    def zero(self) -> "BooleanElement":
        return self.element(np.zeros((self.dim, self.dim)))

    def identity(self) -> "BooleanElement":
        return self.element(np.zeros((self.dim, self.dim)), 1.0)

    def matrix_unit(self, k: Label, l: Label) -> "BooleanElement":
        m = np.zeros((self.dim, self.dim), dtype=complex)
        m[self.index(k), self.index(l)] = 1.0
        return self.element(m)

    def creator(self, j: int) -> "BooleanElement":
        return self.element(creator_matrix(self, j).matrix)

    def annihilator(self, j: int) -> "BooleanElement":
        return self.element(annihilator_matrix(self, j).matrix)

    def projection(self, labels) -> np.ndarray:
        m = np.zeros((self.dim, self.dim), dtype=complex)
        for label in labels:
            i = self.index(label)
            m[i, i] = 1.0
        return m

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
        a word of unit letters only is the identity.  It is the vector state
        at the site one above the window, which every letter of a word inside
        the window kills."""
        lo, hi = self.window
        return replace(label_state(BooleanSpace((lo, hi + 1)), hi + 1), window=(lo, hi))

    def vector_state(self, label: Label) -> StateFunctional:
        return label_state(self, label)


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

    def to_json(self) -> str:
        """Dense row-major complex pairs plus the scalar part."""
        return json.dumps(
            {
                "window": list(self.home.window),
                "scalar": [self.scalar.real, self.scalar.imag],
                "compact": [
                    [[z.real, z.imag] for z in row] for row in self.compact.tolist()
                ],
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "BooleanElement":
        data = json.loads(text)
        home = BooleanSpace(tuple(data["window"]))
        compact = np.array(
            [[complex(re, im) for re, im in row] for row in data["compact"]]
        )
        return cls(home, compact, complex(*data["scalar"]))


def omega_sharp(x: BooleanElement) -> complex:
    """Vector state at the vacuum label: the (#, #) entry of the full matrix."""
    return complex(x.compact[0, 0]) + x.scalar


def omega_infinity(x: BooleanElement) -> complex:
    """State at infinity: the scalar part, exact on the pair representation."""
    return x.scalar


# ---------------------------------------------------------------------------
# The index-map action


def _sharp_image(f, label: Label) -> Label:
    return SHARP if label == SHARP else int(f(label))


def image_window(f: IncreasingMap, window: tuple[int, int]) -> tuple[int, int]:
    """Interval hull of the mapped window; the canonical output window."""
    lo, hi = window
    return f(lo), f(hi)


def isometry(f, space_in: BooleanSpace, space_out: BooleanSpace) -> np.ndarray:
    """Matrix of the label relabeling e_k -> e_{f(k)} with # fixed.

    Columns are orthonormal because f is injective; the image of the input
    window must stay inside the output window.
    """
    v = np.zeros((space_out.dim, space_in.dim), dtype=complex)
    lo, hi = space_out.window
    for col, label in enumerate(space_in.labels):
        image = _sharp_image(f, label)
        if image != SHARP and not lo <= image <= hi:
            raise WindowOverflowError(
                f"image {image} of {label} escapes window [{lo}, {hi}]"
            )
        v[space_out.index(image), col] = 1.0
    return v


def alpha(
    f: IncreasingMap | FinitePermutation,
    x: BooleanElement,
    space_out: BooleanSpace | None = None,
) -> BooleanElement:
    """Endomorphism action X -> V_f X V_f* + (scalar part of X) * P_gaps.

    For increasing maps the default output window is the interval hull of the
    mapped input window, which keeps the action unital and multiplicative on
    the truncation; gaps falling outside the output window are dropped.  For
    finite permutations (support inside the window) the gap term is empty and
    the action is a *-automorphism of the same space.
    """
    space_in = x.home
    if isinstance(f, FinitePermutation):
        if space_out is None:
            space_out = space_in
        lo, hi = space_in.window
        if any(not lo <= s <= hi for s in f.support):
            raise WindowOverflowError(f"support {sorted(f.support)} escapes [{lo}, {hi}]")
        gaps: tuple[int, ...] = ()
    else:
        if space_out is None:
            space_out = BooleanSpace(image_window(f, space_in.window))
        gaps = f.gaps

    v = isometry(f, space_in, space_out)
    lo_out, hi_out = space_out.window
    in_window_gaps = [g for g in gaps if lo_out <= g <= hi_out]
    proj = space_out.projection(in_window_gaps)
    eye = np.eye(space_out.dim)
    compact = v @ x.compact @ v.conj().T + x.scalar * (v @ v.conj().T + proj - eye)
    return BooleanElement(space_out, compact, x.scalar)


def chain_windows(
    f: IncreasingMap, g: IncreasingMap, window: tuple[int, int]
) -> tuple[tuple[int, int], tuple[int, int]]:
    """Intermediate and final interval windows for acting by g then f."""
    mid = image_window(g, window)
    return mid, image_window(f, mid)
