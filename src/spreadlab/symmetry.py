"""Generic stationarity / exchangeability / spreadability checker.

A symmetry family is a finite sampled set of index maps (shifts, finite
permutations, or increasing maps).  ``check_symmetry`` compares a state on
each word against the state on each relabeled word; relabelings that escape
the state's index window are skipped and counted, never fatal.  Sampling is
deterministic from the seed a family is built with.
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
from .operators import StateFunctional, Word
from .reports import Deviations

SHIFT = "shift"
PERMUTATIONS = "permutations"
SPREADING = "spreading"


@dataclass(frozen=True)
class SymmetryFamily:
    """Named finite family of index maps."""

    name: str
    maps: tuple


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
    return SymmetryFamily(PERMUTATIONS, tuple(maps))


def spreading_family(h_lo: int, h_hi: int, n_random: int = 20, seed: int = 0) -> SymmetryFamily:
    """All partial shifts with pivot in [h_lo, h_hi] plus seeded random
    cofinite-range increasing maps: offset in -2..2, up to 3 gaps in -8..8."""
    maps: list[IncreasingMap] = []
    for h in range(h_lo, h_hi + 1):
        maps.append(theta(h))
        maps.append(psi(h))
    rng = np.random.default_rng(seed)
    for _ in range(n_random):
        maps.append(random_increasing_map(rng, (-2, 2), 3, (-8, 8)))
    return SymmetryFamily(SPREADING, tuple(maps))


def describe_map(g) -> str:
    if isinstance(g, (IncreasingMap, FinitePermutation)):
        return g.to_text()
    return repr(g)


def _codes(digits: np.ndarray, base: int) -> np.ndarray:
    """Exact integer code of each row of ``digits`` (each below ``base``):
    int64 while ``base ** width`` fits, Python ints otherwise, so a code never
    overflows."""
    dtype = np.int64 if base ** digits.shape[1] < 2**63 else object
    code = np.zeros(len(digits), dtype)
    for column in digits.T.astype(dtype):
        code = code * base + column
    return code


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
    first 10 cases beyond ``tol``, in (word, map) order, are kept as
    witnesses.

    Admitted words are grouped by their letters' kinds.  A group's indices
    are stacked as digits (ranks among every index its words and their
    images take) and relabeled one map at a time through the map's table
    over the group's distinct indices.  Each row then has an exact integer
    code, so one code is one word: values are looked up by code, never by a
    word's pattern, and each distinct word, in the list or not, is evaluated
    once per check.  A word is evaluated straight from its group's kinds and
    its row of indices (:meth:`StateFunctional.values`); the rows of a map's
    new words come out of one array step, and no ``Word`` is built for them.
    ``words`` is read into a list first, since it is walked twice.
    """
    words = list(words)
    lo, hi = state.window
    maps = family.maps
    found = Deviations(tol, 10)
    groups: dict[tuple, list[int]] = {}  # kinds -> input positions
    for pos, w in enumerate(words):
        if all(lo <= i <= hi for i in w.indices()):
            groups.setdefault(tuple(l.kind for l in w.letters), []).append(pos)
        else:
            found.skipped += len(maps)
    kept = []  # the first cases beyond tol: (position, map, lhs, rhs)
    for kinds, positions in groups.items():
        rows = [words[pos].indices() for pos in positions]  # one group's at a time
        uniq = sorted(set().union(*rows))
        at_uniq = {i: r for r, i in enumerate(uniq)}
        digits = np.array([[at_uniq[i] for i in row] for row in rows], np.int64)
        images = [[int(g(i)) for i in uniq] for g in maps]
        every = {i: r for r, i in enumerate(sorted(set(uniq).union(*images)))}
        base = len(every)
        codes = _codes(np.array([every[i] for i in uniq], np.int64)[digits], base)
        known, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
        values = np.array(state.values(kinds, [rows[r] for r in first]), complex)
        before = values[inverse]  # the value of each row's own word
        for m, (g, image) in enumerate(zip(maps, images)):
            inside = np.flatnonzero(
                np.array([lo <= j <= hi for j in image], bool)[digits].all(axis=1)
            )
            found.samples += len(inside)
            found.skipped += len(rows) - len(inside)
            code = _codes(np.array([every[j] for j in image], np.int64)[digits[inside]], base)
            at = np.searchsorted(known, code)
            miss = np.flatnonzero(known[np.minimum(at, len(known) - 1)] != code)
            if len(miss):
                new, seen = np.unique(code[miss], return_index=True)
                moved = np.array(image, object)[digits[inside[miss[seen]]]].tolist()
                slots = np.searchsorted(known, new)
                known = np.insert(known, slots, new)
                values = np.insert(values, slots, state.values(kinds, moved))
                at = np.searchsorted(known, code)
            dev = before[inside] - values[at]
            # Rounded as Python's complex abs rounds (np.abs may differ in the
            # last place); NaN and inf - inf count as nonzero.
            size = np.hypot(dev.real, dev.imag)
            if not size.any():
                continue
            found.observe(abs(complex(dev[np.argmax(size)])))  # argmax finds a NaN
            for r in np.flatnonzero(~(size <= tol))[:10]:
                row = inside[r]
                kept.append((positions[row], m, complex(before[row]), complex(values[at[r]])))
            kept.sort(key=lambda case: case[:2])
            del kept[10:]
    for pos, m, lhs, rhs in kept:
        found.observe(
            abs(lhs - rhs),
            lambda size: {
                "word": words[pos].to_text(),
                "map": describe_map(maps[m]),
                "lhs": [lhs.real, lhs.imag],
                "rhs": [rhs.real, rhs.imag],
                "deviation": size,
            },
        )
    return found
