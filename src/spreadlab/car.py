"""Canonical anticommutation relations on a finite window of sites.

Basis labels are the 0/1 occupation tuples of the sites in the window.  The
annihilator at j empties an occupied site j and the creator fills an empty
one, each with the Jordan-Wigner sign (-1)**(occupied sites before j).  All
matrix entries are 0 or +-1, so every relation check below is exact integer
arithmetic.

The two-point function T implements the translation-invariant kernel
i * 3C / (pi^2 (m-n)^2) above the diagonal (Hermitian below, constant on the
diagonal).  Shifting both arguments preserves it, while a forward partial
shift that straddles the index pair changes the separation |m - n|, which is
the strict stationary-but-not-spreadable witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .monoid import theta
from .operators import (
    Kind,
    LabelModel,
    annihilator_matrix,
    budget_count,
    check_budget,
    check_space,
    creator_matrix,
    position_matrix,
    walk,
)
from .reports import Deviations

Label = tuple[int, ...]


@dataclass(frozen=True)
class FermionChain(LabelModel):
    window: tuple[int, int]

    @cached_property
    def labels(self) -> tuple[Label, ...]:
        lo, hi = self.window
        return tuple(product((0, 1), repeat=hi - lo + 1))

    @property
    def dim(self) -> int:
        sites = self.window[1] - self.window[0] + 1  # 2**sites, in bounded work
        return budget_count(math.comb(sites, k) for k in range(sites + 1))

    # -- label action; walker and letter matrices are derived from it -------

    def act(self, kind: Kind, j: int, label: Label) -> list[tuple[Label, int]]:
        """Fill (creator) or empty (annihilator) site j, with the sign of the
        occupied sites before it; killed when the site is already so."""
        site = j - self.window[0]
        target = 1 if kind is Kind.CREATOR else 0
        if label[site] == target:
            return []
        sign = -1 if sum(label[:site]) % 2 else 1
        return [(label[:site] + (target,) + label[site + 1 :], sign)]

    apply_word = walk
    creator = creator_matrix
    annihilator = annihilator_matrix
    position = position_matrix


def coupling_error(coupling: float) -> str | None:
    """Why a coupling is bad, if it is: it must be finite, nonnegative and at
    most float max / 3 (about 5.99e307), so that 3C and every kernel value stay finite."""
    if not 0 <= coupling < math.inf:
        return f"coupling must be finite and nonnegative, got {coupling}"
    if 3.0 * coupling == math.inf:
        return f"coupling must be at most float max / 3, where 3C stays finite, got {coupling}"
    return None


@dataclass(frozen=True)
class TwoPointFunction:
    """Hermitian translation-invariant kernel with purely imaginary
    off-diagonal values decaying like the inverse square of the separation."""

    coupling: float = 1.0
    diagonal: float = 0.5

    def __post_init__(self) -> None:
        if error := coupling_error(self.coupling):
            raise ValueError(error)
        if not 0.0 <= self.diagonal <= 1.0:
            raise ValueError("diagonal value must lie in [0, 1]")

    def value(self, m: int, n: int) -> complex:
        if m == n:
            return complex(self.diagonal)
        if m > n:
            return 1j * 3.0 * self.coupling / (math.pi**2 * (m - n) ** 2)
        return self.value(n, m).conjugate()

    def section(self, lo: int, hi: int) -> np.ndarray:
        idx = range(lo, hi + 1)
        return np.array([[self.value(m, n) for n in idx] for m in idx])


# Most index pairs (m, n) of a window that a kernel check may visit: the
# stationarity check evaluates the kernel twice per pair, and the positivity
# probe builds the W x W section and takes its spectrum.  A window of 1000
# sites is exactly at the budget.
MAX_INDEX_PAIRS = 1_000_000


def check_index_square(lo: int, hi: int) -> None:
    """Reject an empty window, or one with more than :data:`MAX_INDEX_PAIRS`
    index pairs, before any kernel value is computed."""
    check_space((lo, hi))
    pairs = (hi - lo + 1) ** 2
    check_budget((lo, hi), pairs, MAX_INDEX_PAIRS, f"has {pairs} index pairs")


def twopoint_stationarity(t: TwoPointFunction, lo: int, hi: int) -> Deviations:
    """|T(m+1, n+1) - T(m, n)| over the index square, one sample per pair;
    the maximum is exactly 0 here."""
    check_index_square(lo, hi)
    found = Deviations()
    for m in range(lo, hi + 1):
        for n in range(lo, hi + 1):
            found.add(t.value(m + 1, n + 1) - t.value(m, n))
    return found


def spreadability_witness(t: TwoPointFunction) -> dict:
    """A spreading map and index pair on which the kernel is not invariant.

    The forward shift pivoted between the pair (1, -1) stretches the
    separation from 2 to 3, scaling the off-diagonal value by 4/9; this
    always witnesses non-spreadability when the coupling is positive.  At a
    subnormal coupling both values of that pair can underflow to 0, and a
    later pair is the witness.
    """
    f = theta(0)
    candidates = [(1, -1)] + [(m, n) for m, n in product(range(-3, 4), repeat=2) if m > n]
    for m, n in candidates:
        lhs = t.value(m, n)
        rhs = t.value(f(m), f(n))
        if lhs != rhs:
            return {"map": f.to_text(), "m": m, "n": n, "lhs": lhs, "rhs": rhs,
                    "deviation": abs(lhs - rhs)}
    raise ValueError("kernel is spreading invariant on the probed pairs (coupling 0?)")


def positivity_probe(t: TwoPointFunction, lo: int, hi: int) -> dict:
    """Advisory spectrum probe of the kernel section on [lo, hi] against [0, 1]."""
    check_index_square(lo, hi)
    least, greatest = map(float, np.linalg.eigvalsh(t.section(lo, hi))[[0, -1]])
    return {"window": [lo, hi], "min_eigenvalue": least, "max_eigenvalue": greatest,
            "in_unit_interval": least >= 0.0 and greatest <= 1.0}
