"""Generic stationarity / exchangeability / spreadability checker.

A symmetry family is a finite sampled set of index maps (shifts, finite
permutations, or increasing maps).  ``check_symmetry`` compares a state on
each word against the state on each relabeled word; relabelings that escape
the state's index window are skipped and counted, never fatal.  Sampling is
deterministic from the seed each family records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .monoid import (
    FinitePermutation,
    IncreasingMap,
    cycle_for_interval,
    psi,
    random_increasing_map,
    random_permutation,
    tau_pow,
    theta,
)
from .operators import StateFunctional, Word, relabel
from .reports import Deviations

SHIFT = "shift"
PERMUTATIONS = "permutations"
SPREADING = "spreading"


@dataclass(frozen=True)
class SymmetryFamily:
    """Named finite family of index maps, with the seed that produced it."""

    name: str
    maps: tuple
    seed: int = 0


def shift_family() -> SymmetryFamily:
    """Both one-step shifts; invariance under them is shift invariance."""
    return SymmetryFamily(SHIFT, (tau_pow(1), tau_pow(-1)))


def permutation_family(
    lo: int, hi: int, n_random: int = 10, seed: int = 0
) -> SymmetryFamily:
    """Interval cycles inside [lo, hi] plus seeded random finite permutations."""
    maps: list[FinitePermutation] = []
    for k in range(lo, hi):
        maps.append(cycle_for_interval(k, hi - 1))
    rng = np.random.default_rng(seed)
    for _ in range(n_random):
        maps.append(random_permutation(rng, lo, hi))
    return SymmetryFamily(PERMUTATIONS, tuple(maps), seed)


def spreading_family(
    h_lo: int,
    h_hi: int,
    n_random: int = 20,
    seed: int = 0,
    offset_range: tuple[int, int] = (-2, 2),
    max_gaps: int = 3,
    gap_range: tuple[int, int] = (-8, 8),
) -> SymmetryFamily:
    """All partial shifts with pivot in [h_lo, h_hi] plus seeded random
    cofinite-range increasing maps."""
    maps: list[IncreasingMap] = []
    for h in range(h_lo, h_hi + 1):
        maps.append(theta(h))
        maps.append(psi(h))
    rng = np.random.default_rng(seed)
    for _ in range(n_random):
        maps.append(random_increasing_map(rng, offset_range, max_gaps, gap_range))
    return SymmetryFamily(SPREADING, tuple(maps), seed)


def empty_family(name: str = SPREADING) -> SymmetryFamily:
    return SymmetryFamily(name, ())


def describe_map(g) -> str:
    if isinstance(g, (IncreasingMap, FinitePermutation)):
        return g.to_text()
    return repr(g)


def _kinds(w: Word) -> tuple[str, ...]:
    return tuple(letter.kind.value for letter in w.letters)


class _Relabeling(dict):
    """Index -> int image under one map, filled on first use."""

    def __init__(self, g) -> None:
        super().__init__()
        self.g = g

    def __missing__(self, index: int) -> int:
        image = self[index] = int(self.g(index))
        return image


def check_symmetry(
    state: StateFunctional,
    words: Iterable[Word],
    family: SymmetryFamily,
    tol: float = 1e-10,
) -> Deviations:
    """Max deviation |phi(w) - phi(w∘g)| over all words and family maps.

    Each (word, map) pair whose relabeled indices leave the state window is
    counted as skipped.  Only nonzero deviations (NaN included) reach the
    accumulator: an exact zero moves neither the maximum nor the verdict.  The
    first 10 cases beyond ``tol`` are kept as witnesses.

    Words are carried as their kind values and their int indices, and each
    map relabels the indices through its own :class:`_Relabeling` table.
    Values are cached by the exact relabeled word, never by its pattern:
    every admitted input word keeps its value for the whole check, and any
    other relabeled word keeps it only while its source word is checked, so
    the caches stay bounded by the word list.  Both hold admitted words
    only, so a hit needs no window test.  ``words`` is read into a list
    first, since it is walked twice.
    """
    words = list(words)
    lo, hi = state.window
    # kind values -> indices -> value: one entry per admitted input word.
    values: dict[tuple, dict[tuple, complex]] = {}
    for w in words:
        if state.admits(w):
            known = values.setdefault(_kinds(w), {})
            indices = w.indices()
            if indices not in known:
                known[indices] = state(w)
    tables = [(g, _Relabeling(g)) for g in family.maps]
    found = Deviations(tol, 10)
    samples = skipped = 0
    for w in words:
        if not state.admits(w):
            skipped += len(family.maps)
            continue
        known = values[_kinds(w)]
        indices = w.indices()
        base = known[indices]
        local = {}  # relabelings of w outside the word list
        for g, table in tables:
            image = tuple(map(table.__getitem__, indices))
            value = known.get(image)
            if value is None:
                value = local.get(image)
            if value is None:
                if not all(lo <= i <= hi for i in image):
                    skipped += 1
                    continue
                value = local[image] = state(relabel(w, table.__getitem__))
            samples += 1
            dev = abs(base - value)
            if dev:
                found.observe(
                    dev,
                    lambda size: {
                        "word": w.to_text(),
                        "map": describe_map(g),
                        "lhs": [base.real, base.imag],
                        "rhs": [value.real, value.imag],
                        "deviation": size,
                    },
                )
    found.samples = samples
    found.skipped = skipped
    return found
