"""Generic stationarity / exchangeability / spreadability checker.

A symmetry family is a finite sampled set of index maps (shifts, finite
permutations, or increasing maps).  ``check_symmetry`` compares a state on
each word against the state on each relabeled word; relabelings that escape
the state's index window are skipped and counted, never fatal.
``check_symmetries`` does the same for several states under several
families in one pass over the words.  Sampling is deterministic from the
seed a family is built with.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

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


# Input words per batch of a check of one state: whole kind groups are
# stacked until the next one would pass this many, so only a kind group larger
# than this makes a larger batch.  Each batch has its own table of word codes
# and, per state, of values; with k states on one window a batch takes about
# BATCH // k input words, so that it holds about as many values as one
# state's batch.  The images a batch lacks are read about this many
# relabeled rows at a time.
BATCH = 2048

# A map's letter table entry for an image outside the state window.
_OUTSIDE = -2


def _batches(groups: list[tuple], cap: int) -> Iterator[list]:
    """Kind groups, as (kinds, positions, rows) triples, stacked in order
    into batches of at most ``cap`` input words, or of one larger group."""
    batch: list = []
    size = 0
    for group in groups:
        count = len(group[1])
        if batch and size + count > cap:
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

    This is the one-pair form of :func:`check_symmetries`, which does the
    work: ``words`` is read once, and each distinct word, in the list or
    not, is evaluated once per check.
    """
    return check_symmetries([state], words, [family], tol)[0][0]


def check_symmetries(
    states: Sequence[StateFunctional],
    words: Iterable[Word],
    families: Sequence[SymmetryFamily],
    tol: float = 1e-10,
) -> list[list[Deviations]]:
    """:func:`check_symmetry` of every state under every family in one pass:
    row ``s``, column ``f`` is the check of ``states[s]`` under
    ``families[f]``, equal case for case to the separate call.

    ``words`` is read once, whatever the windows.  Each letter becomes an
    id into the pass's alphabet of letters, and each word a row of ids,
    right-aligned and padded on the left with -1.  States that share a
    window share the rest of the work but their values: which words
    the window admits, and, for every map of every family, its relabeling,
    taken on the alphabet once as a table from each input letter to its
    image's id (so relabeling a row is one array lookup).  Maps keep kinds,
    so the words of one kind pattern (a kind group) go only to words of that
    pattern: whole kind groups are stacked into batches of about
    :data:`BATCH` input words, divided by the number of states on the
    window, and one batch never needs another's values.  In a batch every
    row, input or image, has an exact integer code (int64 while it fits,
    Python ints past that), so one code is one word: values are looked up
    by code in the batch's sorted table of known codes, never by a word's
    pattern, and each state evaluates each distinct word, in the list or
    not, once per pass, whichever family's map reached it first.  Each
    state's values come from :meth:`StateFunctional.values`, which walks its
    rows as a suffix trie: one call on a batch's words, then one on the
    images the table lacks per about :data:`BATCH` relabeled rows.  No
    ``Word`` is built but a witness's.  A batch's rows are put in input
    order, so each map's first rows beyond ``tol`` are its first witnesses.
    """
    found = [[Deviations(tol, 10) for _ in families] for _ in states]
    ids: dict[Letter, int] = {}  # the letter's id
    # kinds -> the group's input positions and its rows, flat (4 bytes an id)
    groups: dict[tuple, tuple[array, array]] = {}
    for pos, w in enumerate(words):
        letters = w.letters
        kinds = tuple(l.kind for l in letters)
        if kinds not in groups:
            groups[kinds] = (array("q"), array("i"))
        positions, rows = groups[kinds]
        positions.append(pos)
        rows.extend([ids.setdefault(l, len(ids)) for l in letters])
    inputs = list(ids)
    windows: dict[tuple[int, int], list[int]] = {}
    for s, state in enumerate(states):
        windows.setdefault(tuple(state.window), []).append(s)
    plans = []  # per window: its states, admitted kind groups and map tables
    for (lo, hi), members in windows.items():
        inside = np.array([lo <= i <= hi for _, i in inputs], bool)
        admitted = []
        for kinds, (where, flat) in groups.items():
            rows = np.frombuffer(flat, np.intc).reshape(len(where), len(kinds))
            ok = inside[rows].all(axis=1)
            out = len(where) - int(ok.sum())
            for s in members:
                for f, family in enumerate(families):
                    found[s][f].skipped += out * len(family.maps)
            if ok.any():
                admitted.append((kinds, np.frombuffer(where, np.int64)[ok], rows[ok]))
        indices = {i for (_, i), ok in zip(inputs, inside) if ok}
        tables = []  # (family, map, each input letter's image id, then -1 for the padding)
        for f, family in enumerate(families):
            for m, g in enumerate(family.maps):
                image = {i: int(g(i)) for i in indices}
                tables.append((f, m, np.array([
                    ids.setdefault(Letter(kind, image[i]), len(ids))
                    if ok and lo <= image[i] <= hi else _OUTSIDE
                    for (kind, i), ok in zip(inputs, inside)
                ] + [-1], np.int64)))
        plans.append((members, admitted, tables))
    alphabet = list(ids)
    base = len(alphabet) + 1  # digit 0 is the padding
    # per (state, family): the first cases beyond tol, as (position, map, lhs, rhs, row)
    kept: list[list[list]] = [[[] for _ in families] for _ in states]
    for members, admitted, tables in plans:
        for batch in _batches(admitted, max(1, BATCH // len(members))):
            positions = np.concatenate([where for _, where, _ in batch])
            width = max(len(kinds) for kinds, _, _ in batch)
            letters = np.full((len(positions), width), -1, np.int64)
            start = 0
            for kinds, where, rows in batch:
                stop = start + len(where)
                letters[start:stop, width - len(kinds):] = rows
                start = stop
            order = np.argsort(positions, kind="stable")  # values do not depend on row order
            positions, letters = positions[order], letters[order]
            codes = _codes(letters + 1, base)
            known, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
            # One row of values per state, one column per known word.
            values = np.array([states[s].values(alphabet, letters[first]) for s in members],
                              complex)
            before = values[:, inverse]  # the value of each row's own word
            # Maps are relabeled in order and queued, with the images the table
            # lacks, until about BATCH relabeled rows are queued (each map of a
            # full batch, every k-th map at k states); then each state reads
            # the lacking images in one call, and the queued maps are compared.
            queued: list = []  # (family, map, inside rows, their codes, their slots)
            lacking: list = []  # (codes, rows) of images the table lacks
            pending = 0  # relabeled rows queued
            for number, (f, m, table) in enumerate(tables):
                moved = table[letters]  # the padding stays -1
                inside = np.flatnonzero((moved != _OUTSIDE).all(axis=1))
                moved = moved[inside]
                code = _codes(moved + 1, base)
                for s in members:
                    found[s][f].samples += len(inside)
                    found[s][f].skipped += len(letters) - len(inside)
                at = np.searchsorted(known, code)
                miss = np.flatnonzero(known[np.minimum(at, len(known) - 1)] != code)
                if len(miss):
                    lacking.append((code[miss], moved[miss]))
                queued.append((f, m, inside, code, at))
                pending += len(inside)
                if pending < BATCH and number < len(tables) - 1:
                    continue
                if lacking:
                    new, seen = np.unique(np.concatenate([c for c, _ in lacking]),
                                          return_index=True)
                    rows = np.concatenate([r for _, r in lacking])[seen]
                    slots = np.searchsorted(known, new)
                    known = np.insert(known, slots, new)
                    values = np.insert(values, slots, np.array(
                        [states[s].values(alphabet, rows) for s in members], complex), axis=1)
                    queued = [(f, m, inside, code, np.searchsorted(known, code))
                              for f, m, inside, code, _ in queued]
                for f, m, inside, _, at in queued:
                    dev = before[:, inside] - values[:, at]
                    # Rounded as Python's complex abs rounds (np.abs may differ
                    # in the last place); NaN and inf - inf count as nonzero.
                    sizes = np.hypot(dev.real, dev.imag)
                    for j in np.flatnonzero(sizes.any(axis=1)):
                        s = members[j]
                        # argmax finds a NaN
                        found[s][f].observe(abs(complex(dev[j, np.argmax(sizes[j])])))
                        cases = kept[s][f]
                        for r in np.flatnonzero(~(sizes[j] <= tol))[:10]:
                            row = inside[r]
                            cases.append((int(positions[row]), m, complex(before[j, row]),
                                          complex(values[j, at[r]]), letters[row].tolist()))
                        cases.sort(key=lambda case: case[:2])
                        del cases[10:]
                queued, lacking, pending = [], [], 0
    for checks, cases_of in zip(found, kept):
        for check, family, cases in zip(checks, families, cases_of):
            for pos, m, lhs, rhs, row in cases:
                check.observe(
                    abs(lhs - rhs),
                    lambda size: {
                        "word": Word(tuple(alphabet[c] for c in row if c >= 0)).to_text(),
                        "map": describe_map(family.maps[m]),
                        "lhs": [lhs.real, lhs.imag],
                        "rhs": [rhs.real, rhs.imag],
                        "deviation": size,
                    },
                )
    return found
