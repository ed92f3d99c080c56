"""Generic stationarity / exchangeability / spreadability checker.

A symmetry family is a finite sampled set of index maps (shifts, finite
permutations, or increasing maps).  ``check_symmetry`` compares a state on
each word against the state on each relabeled word; relabelings that escape
the state's index window are skipped and counted, never fatal.  Sampling is
deterministic from the seed recorded in every report.
"""

from __future__ import annotations

import json
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


@dataclass(frozen=True)
class SymmetryWitness:
    word: str
    map: str
    lhs: complex
    rhs: complex
    deviation: float

    def to_dict(self) -> dict:
        return {
            "word": self.word,
            "map": self.map,
            "lhs": [self.lhs.real, self.lhs.imag],
            "rhs": [self.rhs.real, self.rhs.imag],
            "deviation": self.deviation,
        }


@dataclass(frozen=True)
class SymmetryReport:
    family: str
    samples: int
    skipped: int
    max_deviation: float
    witnesses: tuple[SymmetryWitness, ...]
    seed: int
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tol

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "samples": self.samples,
            "skipped": self.skipped,
            "max_deviation": self.max_deviation,
            "witnesses": [w.to_dict() for w in self.witnesses],
            "seed": self.seed,
            "tol": self.tol,
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def to_text(self) -> str:
        lines = [
            f"family        {self.family}",
            f"samples       {self.samples}",
            f"skipped       {self.skipped}",
            f"max deviation {self.max_deviation:.3e}",
            f"tolerance     {self.tol:.3e}",
            f"seed          {self.seed}",
            f"verdict       {'pass' if self.passed else 'FAIL'}",
        ]
        for w in self.witnesses:
            lines.append(f"  witness: word {w.word} under {w.map}: "
                         f"{w.lhs:.6g} vs {w.rhs:.6g}")
        return "\n".join(lines)


def check_symmetry(
    state: StateFunctional,
    words: Iterable[Word],
    family: SymmetryFamily,
    tol: float = 1e-10,
    max_witnesses: int = 10,
) -> SymmetryReport:
    """Max deviation |phi(w) - phi(w∘g)| over all words and family maps.

    Each (word, map) pair whose relabeled indices leave the state window is
    counted as skipped.
    """
    samples = skipped = 0
    max_dev = 0.0
    witnesses: list[SymmetryWitness] = []
    for w in words:
        if not state.admits(w):
            skipped += len(family.maps)
            continue
        base = state(w)
        for g in family.maps:
            wg = relabel(w, g)
            if not state.admits(wg):
                skipped += 1
                continue
            samples += 1
            value = state(wg)
            dev = abs(base - value)
            if dev > max_dev:
                max_dev = dev
            if dev > tol and len(witnesses) < max_witnesses:
                witnesses.append(
                    SymmetryWitness(w.to_text(), describe_map(g), base, value, dev)
                )
    return SymmetryReport(
        family=family.name,
        samples=samples,
        skipped=skipped,
        max_deviation=max_dev,
        witnesses=tuple(witnesses),
        seed=family.seed,
        tol=tol,
    )
