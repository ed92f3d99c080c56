"""Generic stationarity / exchangeability / spreadability checker.

A symmetry family is a finite sampled set of index maps (shifts, finite
permutations, or increasing maps).  ``check_symmetry`` compares a state on
each word against the state on each relabeled word; relabelings that escape
the state's index window are skipped and counted, never fatal.  Sampling is
deterministic from the seed a family is built with.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator

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
from .operators import Letter, StateFunctional, Word
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


# Input words per batch of a check: whole kind groups are stacked until the
# next one would pass this many, so only a kind group larger than this makes
# a larger batch.  Each batch has its own table of word codes and values.
BATCH = 2048

# A map's letter table entry for an image outside the state window.
_OUTSIDE = -2


def _batches(groups: Iterable[tuple[tuple, tuple]]) -> Iterator[list]:
    """Kind groups, as (kinds, (positions, rows)) pairs, stacked in order
    into batches of at most :data:`BATCH` input words, or of one larger
    group."""
    batch: list = []
    size = 0
    for group in groups:
        count = len(group[1][0])
        if batch and size + count > BATCH:
            yield batch
            batch, size = [], 0
        batch.append(group)
        size += count
    if batch:
        yield batch


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

    ``words`` is read once.  Each letter of an admitted word becomes an id
    into the check's alphabet of (kind, index) letters, and each word a row
    of ids, right-aligned and padded on the left with -1.  A map acts on the
    alphabet once, as a table from each input letter to its image's id, so
    relabeling a row is one array lookup.  Maps keep kinds, so the words of
    one kind pattern (a kind group) go only to words of that pattern: whole
    kind groups are stacked into batches of about :data:`BATCH` input words,
    and one batch never needs another's values.  In a batch every row, input
    or image, has an exact integer code (int64 while it fits, Python ints
    past that), so one code is one word: values are looked up by code in the
    batch's sorted table, never by a word's pattern, and each distinct word,
    in the list or not, is evaluated once per check.  The rows a table lacks
    are evaluated in one :meth:`StateFunctional.values` call per map, which
    walks them as a suffix trie; no ``Word`` is built but a witness's.
    """
    lo, hi = state.window
    maps = family.maps
    found = Deviations(tol, 10)
    ids: dict[tuple, int] = {}  # (kind, index) -> the letter's id
    # kinds -> the group's input positions and its rows, flat (4 bytes an id)
    groups: dict[tuple, tuple[array, array]] = {}
    for pos, w in enumerate(words):
        letters = w.letters
        if all(lo <= l.index <= hi for l in letters):
            kinds = tuple(l.kind for l in letters)
            if kinds not in groups:
                groups[kinds] = (array("q"), array("i"))
            positions, rows = groups[kinds]
            positions.append(pos)
            rows.extend([ids.setdefault((l.kind, l.index), len(ids)) for l in letters])
        else:
            found.skipped += len(maps)
    inputs = list(ids)
    indices = {i for _, i in inputs}
    tables = []  # per map: each input letter's image id, then -1 for the padding
    for g in maps:
        image = {i: int(g(i)) for i in indices}
        tables.append(np.array([
            ids.setdefault((kind, image[i]), len(ids)) if lo <= image[i] <= hi else _OUTSIDE
            for kind, i in inputs
        ] + [-1], np.int64))
    alphabet = list(ids)
    base = len(alphabet) + 1  # digit 0 is the padding
    kept = []  # the first cases beyond tol: (position, map, lhs, rhs, row)
    for batch in _batches(groups.items()):
        positions = np.concatenate([np.frombuffer(where, np.int64) for _, (where, _) in batch])
        width = max(len(kinds) for kinds, _ in batch)
        letters = np.full((len(positions), width), -1, np.int64)
        start = 0
        for kinds, (where, rows) in batch:
            stop = start + len(where)
            letters[start:stop, width - len(kinds):] = np.frombuffer(rows, np.intc).reshape(
                len(where), len(kinds))
            start = stop
        codes = _codes(letters + 1, base)
        known, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
        values = np.array(state.values(alphabet, letters[first]), complex)
        before = values[inverse]  # the value of each row's own word
        for m, table in enumerate(tables):
            moved = table[letters]  # the padding stays -1
            inside = np.flatnonzero((moved != _OUTSIDE).all(axis=1))
            found.samples += len(inside)
            found.skipped += len(letters) - len(inside)
            moved = moved[inside]
            code = _codes(moved + 1, base)
            at = np.searchsorted(known, code)
            miss = np.flatnonzero(known[np.minimum(at, len(known) - 1)] != code)
            if len(miss):
                new, seen = np.unique(code[miss], return_index=True)
                slots = np.searchsorted(known, new)
                known = np.insert(known, slots, new)
                values = np.insert(values, slots, state.values(alphabet, moved[miss[seen]]))
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
                kept.append((int(positions[row]), m, complex(before[row]), complex(values[at[r]]),
                             letters[row].tolist()))
            kept.sort(key=lambda case: case[:2])
            del kept[10:]
    for pos, m, lhs, rhs, row in kept:
        found.observe(
            abs(lhs - rhs),
            lambda size: {
                "word": Word(tuple(Letter(*alphabet[c]) for c in row if c >= 0)).to_text(),
                "map": describe_map(maps[m]),
                "lhs": [lhs.real, lhs.imag],
                "rhs": [rhs.real, rhs.imag],
                "deviation": size,
            },
        )
    return found
