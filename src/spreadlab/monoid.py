"""Monoids of strictly increasing self-maps of the integers.

A strictly increasing map f on Z whose range misses only finitely many
integers is stored in canonical form as a pair

    (offset, gaps)

where ``offset`` is the shift at minus infinity (f(k) = k + offset for every
sufficiently negative k) and ``gaps`` is the sorted tuple of integers missed
by the range of f.  Equality of canonical forms is equality of maps, and
composition stays inside the class, so the whole cofinite-range monoid is
exactly computable.  Maps with infinite co-range are not representable as
values; they enter only through window restrictions (see :func:`localize`).

Conventions used throughout:

* ``theta(h)`` is the forward partial shift: identity below h, +1 from h up.
* ``psi(h)`` is the backward partial shift: identity above h, -1 from h down.
* ``compose(f, g)`` is f after g, so ``compose(f, g)(k) == f(g(k))``.
* A :class:`GeneratorWord` lists its letters outermost first: the word
  ``[a, b]`` realizes the map a∘b.

All arithmetic is exact on Python integers; inputs are expected to stay
below 2**60 in absolute value.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np


@dataclass(frozen=True)
class IncreasingMap:
    """Canonical form (offset, gaps) of an increasing map with cofinite range."""

    offset: int
    gaps: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        gaps = tuple([int(g) for g in self.gaps])
        if any(a >= b for a, b in zip(gaps, gaps[1:])):
            raise ValueError(f"gaps must be strictly increasing, got {gaps!r}")
        object.__setattr__(self, "gaps", gaps)

    @classmethod
    def _canonical(cls, offset: int, gaps: tuple[int, ...]) -> "IncreasingMap":
        """The map of a canonical form already known to be ints with strictly
        increasing gaps, built without converting or re-checking them.

        Callers build the gap tuple from a list, not a generator: tuple() of a
        generator allocates a guessed size and shrinks it, and that alone
        raised the peak memory of a 10,000-sample semidirect run by 0.5 MB."""
        f = object.__new__(cls)
        object.__setattr__(f, "offset", offset)
        object.__setattr__(f, "gaps", gaps)
        return f

    @property
    def right_offset(self) -> int:
        """Shift at plus infinity: f(k) = k + right_offset for large k."""
        return self.offset + len(self.gaps)

    def __call__(self, k: int) -> int:
        return evaluate(self, k)

    def __mul__(self, other: "IncreasingMap") -> "IncreasingMap":
        return compose(self, other)

    def is_identity(self) -> bool:
        return self.offset == 0 and not self.gaps

    def to_text(self) -> str:
        """Serialize as ``n=<int>;gaps=[g1,g2,...]``."""
        return f"n={self.offset};gaps=[{','.join(str(g) for g in self.gaps)}]"

    @classmethod
    def from_text(cls, text: str) -> "IncreasingMap":
        m = re.fullmatch(r"n=(-?\d+);gaps=\[([-\d,\s]*)\]", text.strip())
        if m is None:
            raise ValueError(f"not an increasing-map literal: {text!r}")
        body = m.group(2).strip()
        gaps = tuple([int(g) for g in body.split(",")]) if body else ()
        return cls(int(m.group(1)), gaps)

    def __str__(self) -> str:
        return self.to_text()


def identity_map() -> IncreasingMap:
    return IncreasingMap(0, ())


def theta(h: int) -> IncreasingMap:
    """Forward partial shift at h: k -> k for k < h, k -> k+1 for k >= h."""
    return IncreasingMap._canonical(0, (int(h),))


def psi(h: int) -> IncreasingMap:
    """Backward partial shift at h: k -> k for k > h, k -> k-1 for k <= h."""
    return IncreasingMap._canonical(-1, (int(h),))


def tau_pow(n: int) -> IncreasingMap:
    """n-th power of the one-step shift k -> k+1."""
    return IncreasingMap._canonical(n, ())


def evaluate(f: IncreasingMap, k: int) -> int:
    """Value f(k): :func:`evaluate_increasing` at one point."""
    return evaluate_increasing(f, (k,))[0]


def evaluate_increasing(f: IncreasingMap, ks: Iterable[int]) -> list[int]:
    """Values of f at the increasing integers ``ks``, in one merge pass.

    f is the unique increasing bijection from Z onto Z minus the gap set
    whose rank function x -> x - #{gaps below x} satisfies rank(f(k)) =
    k + offset.  Starting from x = k + offset, a sweep over the sorted gaps
    steps x past every gap at or below it.  The gaps stepped past at k are a
    prefix of the sorted gaps, and the prefix only grows as k does; so a gap
    pointer that only moves forward gives f(k) = k + offset + (gaps passed so
    far) at every k in turn.
    """
    gaps, offset = f.gaps, f.offset
    n = len(gaps)
    passed = 0
    out = []
    for k in ks:
        x = k + offset + passed
        while passed < n and gaps[passed] <= x:
            passed += 1
            x += 1
        out.append(x)
    return out


def evaluate_rows(maps: Sequence[IncreasingMap], points) -> np.ndarray:
    """Row r is maps[r] at increasing points: ``points`` itself when it is one
    sequence, its row r when it is a 2-d array.

    Computed by the rank equation, not by the merge of
    :func:`evaluate_increasing`: with x = k + offset, f(k) = x + #{i : g_i - i
    <= x} over f's gaps g_0 < g_1 < ..., since f steps past its first m gaps
    exactly when g_(m-1) - (m-1) <= x.  Row r's keys g_i - i and queries x are
    moved up by r bands of one common width, so one sorted array of keys and
    one ``np.searchsorted`` count every row at once; the keys are sorted
    because every map's gaps strictly increase.  Exact: int64 while every
    banded value fits, Python ints otherwise.
    """
    rows = len(maps)
    counts = np.array([len(f.gaps) for f in maps], np.intp)
    gaps = [g for f in maps for g in f.gaps]
    if isinstance(points, np.ndarray):
        ends = (points.min(), points.max()) if points.size else ()
    else:
        ends = (points[0], points[-1]) if len(points) else ()
    # Every key g_i - i and every x lies in [-base, base].
    size = max(map(abs, [*ends, *gaps, *(f.offset for f in maps)]), default=0)
    base = 2 * int(size) + int(counts.max(initial=0)) + 1
    span = 2 * base + 1
    dtype = np.int64 if max(rows, 1) * span < 2**63 else object
    row = np.repeat(np.arange(rows), counts)
    first = np.cumsum(counts) - counts  # each row's first key
    band = np.arange(rows).astype(dtype) * span + base
    keys = np.array(gaps, dtype) - (np.arange(len(gaps)) - first[row]) + band[row]
    offsets = np.array([f.offset for f in maps], dtype)
    # Row r's x in its band; the count of keys at or below it, less the keys
    # of the rows before, turns it into f(k) once the band is taken off.
    values = np.asarray(points, dtype) + (offsets + band)[:, None]
    values += np.searchsorted(keys, values, side="right")
    values -= (band + first)[:, None]
    return values


def compose(f: IncreasingMap, g: IncreasingMap) -> IncreasingMap:
    """f after g.  Gaps of f∘g are the gaps of f plus the f-images of g's gaps;
    the two sets are disjoint, since the range of f misses its own gaps."""
    gaps = evaluate_increasing(f, g.gaps)
    gaps += f.gaps
    gaps.sort()
    return IncreasingMap._canonical(f.offset + g.offset, tuple(gaps))


def conjugate_by_shift(f: IncreasingMap, m: int) -> IncreasingMap:
    """tau^m ∘ f ∘ tau^-m; shifts the gap set by m and keeps the offset."""
    return IncreasingMap._canonical(f.offset, tuple([g + m for g in f.gaps]))


def decompose_semidirect(f: IncreasingMap) -> tuple[int, IncreasingMap]:
    """Split f = tau^n ∘ d with n the offset of f and d offset-free: d is
    tau^-n ∘ f, whose gaps are those of f moved down by n."""
    n = f.offset
    return n, IncreasingMap._canonical(0, tuple([g - n for g in f.gaps]))


def semidirect_multiply(
    p1: tuple[int, IncreasingMap], p2: tuple[int, IncreasingMap]
) -> tuple[int, IncreasingMap]:
    """Product of shift/offset-free pairs compatible with realization.

    With the realization (n, d) -> tau^n ∘ d the product of two realized maps
    is tau^(m1+m2) ∘ (tau^-m2 d1 tau^m2) ∘ d2, so the offset-free component of
    the product conjugates the first factor by tau^-m2.
    """
    (m1, d1), (m2, d2) = p1, p2
    if d1.offset != 0 or d2.offset != 0:
        raise ValueError("second components of semidirect pairs must have offset 0")
    return m1 + m2, compose(conjugate_by_shift(d1, -m2), d2)


def realize_pair(pair: tuple[int, IncreasingMap]) -> IncreasingMap:
    """Realization map (n, d) -> tau^n ∘ d: the gaps of d moved up by n."""
    n, d = pair
    return IncreasingMap._canonical(n + d.offset, tuple([g + n for g in d.gaps]))


# ---------------------------------------------------------------------------
# Words in the partial-shift generators


_LETTER_RE = re.compile(r"([TP])\((-?\d+)\)")


@dataclass(frozen=True)
class ShiftLetter:
    """A single generator: kind ``"T"`` for theta(h), ``"P"`` for psi(h)."""

    kind: str
    h: int

    def __post_init__(self) -> None:
        if self.kind not in ("T", "P"):
            raise ValueError(f"letter kind must be 'T' or 'P', got {self.kind!r}")

    def to_map(self) -> IncreasingMap:
        return theta(self.h) if self.kind == "T" else psi(self.h)

    def __str__(self) -> str:
        return f"{self.kind}({self.h})"


@dataclass(frozen=True)
class GeneratorWord:
    """Finite word in the partial shifts, leftmost letter applied last."""

    letters: tuple[ShiftLetter, ...] = ()

    def realize(self) -> IncreasingMap:
        out = identity_map()
        for letter in self.letters:
            out = compose(out, letter.to_map())
        return out

    def __call__(self, k: int) -> int:
        # Apply right-to-left, each letter by its definition (see theta and
        # psi); builds neither the canonical composite nor a letter's map.
        for letter in reversed(self.letters):
            if letter.kind == "T":
                k += k >= letter.h
            else:
                k -= k <= letter.h
        return k

    def __len__(self) -> int:
        return len(self.letters)

    def __add__(self, other: "GeneratorWord") -> "GeneratorWord":
        return GeneratorWord(self.letters + other.letters)

    def to_text(self) -> str:
        """Serialize as dot-separated ``T(h)``/``P(h)`` tokens; empty word -> ''."""
        return ".".join(str(letter) for letter in self.letters)

    @classmethod
    def from_text(cls, text: str) -> "GeneratorWord":
        text = text.strip()
        if not text:
            return cls(())
        letters = []
        for token in text.split("."):
            m = _LETTER_RE.fullmatch(token.strip())
            if m is None:
                raise ValueError(f"bad generator token {token!r}")
            letters.append(ShiftLetter(m.group(1), int(m.group(2))))
        return cls(tuple(letters))

    def __str__(self) -> str:
        return self.to_text() or "<id>"


def factor_D(d: IncreasingMap) -> GeneratorWord:
    """Write an offset-free map as a word in forward shifts only.

    Gaps are consumed in increasing order: peeling theta(g1) off the left of
    a map with gaps g1 < g2 < ... leaves gaps g2-1 < g3-1 < ..., so the i-th
    emitted letter is theta(g_i - i) (0-based i).
    """
    if d.offset != 0:
        raise ValueError(f"not offset-free: offset {d.offset}")
    return GeneratorWord(tuple([ShiftLetter("T", g - i) for i, g in enumerate(d.gaps)]))


def factor_E(e: IncreasingMap) -> GeneratorWord:
    """Write a right-offset-free map as a word in backward shifts only.

    Mirror of :func:`factor_D`: gaps are consumed in decreasing order and the
    i-th emitted letter is psi(g_(m-1-i) + i).
    """
    if e.right_offset != 0:
        raise ValueError(f"not right-offset-free: right offset {e.right_offset}")
    m = len(e.gaps)
    return GeneratorWord(tuple([ShiftLetter("P", e.gaps[m - 1 - i] + i) for i in range(m)]))


def localize(values: Sequence[int], k: int, l: int) -> GeneratorWord:
    """A partial-shift word agreeing with the given values on the window [k, l].

    ``values`` is a sequence aligned with k, k+1, ..., l; it must be strictly
    increasing.  They extend to the map h that is j - down below k and j + up
    above l, with down, up >= 0 as small as the values allow; its gaps are the
    points of [k - down, l + up] that are not values.  h = e ∘ d, with e
    right-offset-free on the lowest down gaps and d offset-free on the others,
    since e fixes each point above its gaps: the word is factor_E(e) + factor_D(d).
    """
    if k > l:
        raise ValueError(f"empty window [{k}, {l}]")
    targets = [int(v) for v in values]
    if len(targets) != l - k + 1:
        raise ValueError(f"expected {l - k + 1} values for [{k}, {l}], got {len(targets)}")
    if any(a >= b for a, b in zip(targets, targets[1:])):
        raise ValueError("window values must be strictly increasing")

    down = max(0, k - targets[0])
    up = max(0, targets[-1] - l)
    taken = set(targets)
    gaps = [j for j in range(k - down, l + up + 1) if j not in taken]
    e = IncreasingMap._canonical(-down, tuple(gaps[:down]))
    d = IncreasingMap._canonical(0, tuple(gaps[down:]))
    return factor_E(e) + factor_D(d)


# ---------------------------------------------------------------------------
# Finite permutations


@dataclass(frozen=True)
class FinitePermutation:
    """Finitely supported bijection of Z, stored as its non-fixed pairs."""

    pairs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        pairs = tuple(sorted((int(a), int(b)) for a, b in self.pairs if a != b))
        sources = [a for a, _ in pairs]
        if len(set(sources)) != len(sources):
            raise ValueError("duplicate sources in permutation")
        if set(sources) != {b for _, b in pairs}:
            raise ValueError("permutation domain and codomain differ")
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "_lookup", dict(pairs))

    @classmethod
    def from_mapping(cls, mapping: Mapping[int, int]) -> "FinitePermutation":
        return cls(tuple(mapping.items()))

    @classmethod
    def from_cycle(cls, cycle: Sequence[int]) -> "FinitePermutation":
        if len(set(cycle)) != len(cycle):
            raise ValueError("cycle entries must be distinct")
        n = len(cycle)
        return cls(tuple([(cycle[i], cycle[(i + 1) % n]) for i in range(n)]))

    @property
    def support(self) -> frozenset[int]:
        return frozenset(a for a, _ in self.pairs)

    def __call__(self, k: int) -> int:
        return self._lookup.get(k, k)  # type: ignore[attr-defined]

    def inverse(self) -> "FinitePermutation":
        return FinitePermutation(tuple([(b, a) for a, b in self.pairs]))

    def __mul__(self, other: "FinitePermutation") -> "FinitePermutation":
        keys = self.support | other.support
        return FinitePermutation(tuple([(k, self(other(k))) for k in keys]))

    def is_identity(self) -> bool:
        return not self.pairs

    def to_text(self) -> str:
        """Cycle notation, e.g. ``(0 1 2)(5 6)``; identity -> ``()``."""
        if not self.pairs:
            return "()"
        seen: set[int] = set()
        out = []
        for start in sorted(self.support):
            if start in seen:
                continue
            cycle = [start]
            seen.add(start)
            nxt = self(start)
            while nxt != start:
                cycle.append(nxt)
                seen.add(nxt)
                nxt = self(nxt)
            out.append("(" + " ".join(str(c) for c in cycle) + ")")
        return "".join(out)

    def __str__(self) -> str:
        return self.to_text()


def cycle_for_interval(k: int, l: int) -> FinitePermutation:
    """The cycle matching the one-step shift on [k, l] and closing at l+1."""
    if k > l:
        raise ValueError(f"need k <= l, got [{k}, {l}]")
    return FinitePermutation.from_cycle(list(range(k, l + 2)))


# ---------------------------------------------------------------------------
# Seeded sampling helpers (numpy Generator in, deterministic out)


def random_increasing_map(
    rng,
    offset_range: tuple[int, int] = (-5, 5),
    max_gaps: int = 6,
    gap_range: tuple[int, int] = (-20, 20),
) -> IncreasingMap:
    """An offset, a gap count, then that many distinct gaps: three numpy
    draws in this order, so the stream is fixed by the seed.  An empty draw
    of gaps leaves the generator state as it is, so it is skipped."""
    offset = int(rng.integers(offset_range[0], offset_range[1] + 1))
    n_gaps = int(rng.integers(0, max_gaps + 1))
    if not n_gaps:
        return IncreasingMap._canonical(offset, ())
    lo = gap_range[0]
    drawn = rng.choice(gap_range[1] - lo + 1, size=n_gaps, replace=False).tolist()
    drawn.sort()
    return IncreasingMap._canonical(offset, tuple([g + lo for g in drawn]))


def random_permutation(rng, lo: int, hi: int) -> FinitePermutation:
    window = list(range(lo, hi + 1))
    shuffled = list(rng.permutation(window))
    return FinitePermutation.from_mapping(
        {a: int(b) for a, b in zip(window, shuffled)}
    )
