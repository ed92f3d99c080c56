"""The label-action protocol of the models, and what is derived from it.

A model is a :class:`LabelModel`: basis labels over an inclusive index
``window``, their closed-form count ``dim``, and one label action
``act(kind, index, label)``, giving the weighted basis labels that a creator
or annihilator sends one basis label to; a model with vector states also
tests label membership in closed form (``has_label``), without enumerating
its labels.  A word is a string of :class:`Letter` ``(kind, index)`` pairs
(creator / annihilator / position at an integer index), walked on label
superpositions rightmost letter first, so strings multiply left to right;
the empty word is the unit.  :class:`LabelModel` derives the window check,
the dense ``space`` and the vector states; this module derives position
letters (creator images, then annihilator images), the one dict walk loop
:func:`walk_steps` and the dense letter matrices (:class:`Operator`, on a
:class:`TruncatedSpace` of the labels), which serve only as oracles.
Every walk reads a letter through one lookup, a table label -> images
(:func:`letter_table`) that starts empty: :func:`walk_steps` fills a row
from ``act`` the first time it reads it, so each letter acts on each label
at most once per table, and only on the labels a walk reaches.
:func:`sparse_map` and :func:`walk` use tables owned by the model; the
suffix-trie walk of a state uses tables that live for one term's walk.
Only the dense oracle :func:`letter_matrix` reads ``act`` otherwise.  The
states are data: a model, a window and weighted basis labels, read on many
words at once by a walk of their suffix trie.  Labels and dense matrices
are built only when the model's ``dim`` is within :data:`MAX_DENSE_DIM`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Any, Hashable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np


class Kind(Enum):
    CREATOR = "c"
    ANNIHILATOR = "a"
    POSITION = "x"

    # Members are singletons, so the identity hash is exact; Enum's own
    # hashes the name in Python, and kinds are hashed on every letter coded.
    __hash__ = object.__hash__


_ADJOINT_KIND = {
    Kind.CREATOR: Kind.ANNIHILATOR,
    Kind.ANNIHILATOR: Kind.CREATOR,
    Kind.POSITION: Kind.POSITION,
}


class Letter(NamedTuple):
    kind: Kind
    index: int

    def adjoint(self) -> "Letter":
        return Letter(_ADJOINT_KIND[self.kind], self.index)

    def __str__(self) -> str:
        return f"{self.kind.value}({self.index})"


def creator(i: int) -> Letter:
    return Letter(Kind.CREATOR, i)


def annihilator(i: int) -> Letter:
    return Letter(Kind.ANNIHILATOR, i)


def position(i: int) -> Letter:
    return Letter(Kind.POSITION, i)


# Letter names, with the q-deformed ldag/l/s spellings as aliases.
_LETTER_NAMES = {
    "c": Kind.CREATOR,
    "a": Kind.ANNIHILATOR,
    "x": Kind.POSITION,
    "ldag": Kind.CREATOR,
    "l": Kind.ANNIHILATOR,
    "s": Kind.POSITION,
}
_WORD_TOKEN = re.compile(r"(ldag|[caxls])\((-?\d+)\)")


@dataclass(frozen=True)
class Word:
    """Finite string of letters; the empty word is the unit."""

    letters: tuple[Letter, ...] = ()

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __add__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def adjoint(self) -> "Word":
        """Reverse the string and swap creators with annihilators."""
        return Word(tuple(letter.adjoint() for letter in reversed(self.letters)))

    def indices(self) -> tuple[int, ...]:
        return tuple(l.index for l in self.letters)

    def to_text(self) -> str:
        if not self.letters:
            return "1"
        return ".".join(str(letter) for letter in self.letters)

    @classmethod
    def from_text(cls, text: str) -> "Word":
        text = text.strip()
        if text == "1" or not text:
            return cls(())
        letters = []
        for token in text.split("."):
            m = _WORD_TOKEN.fullmatch(token.strip())
            if m is None:
                raise ValueError(f"bad word token {token!r}")
            letters.append(Letter(_LETTER_NAMES[m.group(1)], int(m.group(2))))
        return cls(tuple(letters))

    def __str__(self) -> str:
        return self.to_text()


def word(*letters: Letter) -> Word:
    return Word(tuple(letters))


def relabel(w: Word, g) -> Word:
    """Push every letter index through the map g (any int -> int callable)."""
    return Word(tuple(Letter(l.kind, int(g(l.index))) for l in w.letters))


# ---------------------------------------------------------------------------
# Spaces and operators


@dataclass(frozen=True, eq=False)
class TruncatedSpace:
    """Ordered, distinct basis labels."""

    labels: tuple[Hashable, ...]

    def __post_init__(self) -> None:
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("basis labels must be distinct")
        object.__setattr__(self, "_index", {lab: i for i, lab in enumerate(self.labels)})

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index(self, label: Hashable) -> int:
        return self._index[label]  # type: ignore[attr-defined]

    def basis_vector(self, label: Hashable) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[self.index(label)] = 1.0
        return v

    def identity(self) -> "Operator":
        return Operator(self, np.eye(self.dim, dtype=complex))


@dataclass(frozen=True, eq=False)
class Operator:
    space: TruncatedSpace
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.space.dim, self.space.dim):
            raise ValueError(f"matrix shape {m.shape} != space dim {self.space.dim}")
        object.__setattr__(self, "matrix", m)

    def __matmul__(self, other: "Operator") -> "Operator":
        if other.space is not self.space:
            raise ValueError("operators act on different spaces")
        return Operator(self.space, self.matrix @ other.matrix)

    def is_zero(self) -> bool:
        return not self.matrix.any()


def metric_adjoint(a: Operator, gram: np.ndarray) -> Operator:
    """Adjoint with respect to the Gram metric ``gram`` of the operator's
    space: G^-1 A^H G (a dense oracle)."""
    return Operator(a.space, np.linalg.solve(gram, a.matrix.conj().T @ gram))


# ---------------------------------------------------------------------------
# Derived from a model's label action


# The actions each letter is made of: a position letter acts as the creator,
# then the annihilator.
_PARTS = {
    Kind.CREATOR: (Kind.CREATOR,),
    Kind.ANNIHILATOR: (Kind.ANNIHILATOR,),
    Kind.POSITION: (Kind.CREATOR, Kind.ANNIHILATOR),
}


# Largest dimension of a dense dim x dim matrix a model may allocate: a
# fermionic chain of 12 sites.
MAX_DENSE_DIM = 4096


def budget_count(counts: Iterable[int], budget: int = MAX_DENSE_DIM) -> int:
    """Sum of ``counts``, stopped once above ``budget``: exact within the
    budget, a lower bound above it, in bounded work."""
    total = 0
    for count in counts:
        total += count
        if total > budget:
            break
    return total


def check_budget(window: tuple[int, int], count: int, budget: int, what: str) -> None:
    """The one size-budget rule: reject a ``count`` above ``budget`` before
    anything is allocated, with ``what`` telling what the window's count is."""
    if count > budget:
        lo, hi = window
        raise ValueError(f"window [{lo}, {hi}] {what}, above the budget of {budget}")


def check_space(window: tuple[int, int], dim: int | None = None) -> None:
    """Reject an empty window and, given the dimension of a dense matrix or
    label list about to be built, one above :data:`MAX_DENSE_DIM`."""
    lo, hi = window
    if lo > hi:
        raise ValueError(f"empty window [{lo}, {hi}]")
    if dim is not None:
        check_budget(window, dim, MAX_DENSE_DIM, f"needs dense dimension {dim} or more")


def check_window(model, index: int) -> None:
    lo, hi = model.window
    if not lo <= index <= hi:
        raise IndexError(f"index {index} outside window [{lo}, {hi}]")


def letter_table(model, kind: Kind, index: int, tables: dict | None = None) -> dict:
    """The table label -> ((image, weight), ...) of the letter at ``index``,
    once it is window-checked: in ``tables``, or else in the model's instance
    dict, as its cached labels are, so that it dies with the model."""
    check_window(model, index)
    if tables is None:
        tables = vars(model).setdefault("_letter_tables", {})
    return tables.setdefault((kind, index), {})


def letter_steps(model, letters: Iterable[Letter], tables: dict | None = None) -> list:
    """The :func:`walk_steps` steps (table, parts, index) of letters, each
    window-checked before any is walked; ``parts`` lists the letter's
    actions (see :data:`_PARTS`), the tables are :func:`letter_table`'s."""
    return [(letter_table(model, kind, index, tables), _PARTS[kind], index)
            for kind, index in letters]


def walk_steps(model, steps: Iterable[tuple[dict, tuple[Kind, ...], int]], vec: dict) -> dict:
    """Push a superposition (label -> coefficient) through a word given as
    :func:`letter_steps` steps, rightmost letter first; products equal to
    zero are dropped.  A label's row of a letter's table is filled from the
    model's action the first time it is read: the images of the letter's
    parts, concatenated in their order, so every walked sum is made in the
    order of the parts.  The one walk loop, and the one reader of ``act``
    besides the dense oracle :func:`letter_matrix`."""
    act = model.act
    for table, parts, index in steps:
        if not vec:
            break
        out: dict = {}
        for label, coeff in vec.items():
            row = table.get(label)
            if row is None:
                row = act(parts[0], index, label)
                for part in parts[1:]:
                    row = row + act(part, index, label)
                row = table[label] = tuple(row)
            for image, weight in row:
                c = weight * coeff
                if c != 0:
                    out[image] = out.get(image, 0) + c
        vec = out
    return vec


def walk(model, w: Word, vec: dict) -> dict:
    """Push a superposition (label -> coefficient) through a word, rightmost
    letter first, through the model's letter tables."""
    steps = letter_steps(model, reversed(w.letters))
    return walk_steps(model, steps, vec)


def sparse_map(model, combination: list[tuple[complex, Word]]) -> dict:
    """Label -> image (label -> weight) of the combination sum(c * w) of
    (c, w) pairs, walked one basis label at a time through the model's
    letter tables, so each letter acts on each label at most once, for the
    labels a walk reaches; zero weights and labels with a zero image are
    dropped.  The empty word is the unit.  A term with a zero coefficient is
    never walked, so its letters are not window-checked."""
    check_space(model.window, model.dim)
    walks = [(coeff, letter_steps(model, reversed(w.letters)))
             for coeff, w in combination if coeff != 0]
    out = {}
    for label in model.labels:
        image: dict = {}
        for coeff, steps in walks:
            for target, weight in walk_steps(model, steps, {label: coeff}).items():
                image[target] = image.get(target, 0) + weight
        nonzero = {target: weight for target, weight in image.items() if weight != 0}
        if nonzero:
            out[label] = nonzero
    return out


def letter_matrix(model, letter: Letter) -> Operator:
    """Dense matrix of one letter over ``model.space.labels``, once the
    model's ``dim`` fits the budget; no label is enumerated before that."""
    check_space(model.window, model.dim)
    space = model.space
    check_window(model, letter.index)
    m = np.zeros((space.dim, space.dim), dtype=complex)
    index = space.index
    for col, label in enumerate(space.labels):
        for kind in _PARTS[letter.kind]:
            for image, weight in model.act(kind, letter.index, label):
                m[index(image), col] += weight
    return Operator(space, m)


def creator_matrix(model, i: int) -> Operator:
    return letter_matrix(model, creator(i))


def annihilator_matrix(model, i: int) -> Operator:
    return letter_matrix(model, annihilator(i))


def position_matrix(model, i: int) -> Operator:
    return letter_matrix(model, position(i))


def evaluate_word(model, w: Word) -> Operator:
    """Ordered matrix product of the model's letter matrices.

    The leftmost letter is the leftmost factor, i.e. it acts last on vectors,
    matching the usual left-to-right operator strings.  The empty word is the
    identity.  The budget is checked before any label is enumerated.
    """
    check_space(model.window, model.dim)
    out = model.space.identity()
    for letter in w.letters:
        out = out @ letter_matrix(model, letter)
    return out


def label_state(model, label: Hashable) -> StateFunctional:
    """Vector state w -> <e_label, w e_label> on an orthonormal basis: the
    label's coordinate in its walked image."""
    if not model.has_label(label):
        raise ValueError(f"{label!r} is not a basis label")
    return StateFunctional(model.window, (Term(1, model, label, ((label, 1),), 1),))


class LabelModel:
    """Base of every model: a frozen dataclass that declares ``window``,
    ``labels``, ``dim``, ``act`` and, for its vector states, ``has_label``."""

    def __post_init__(self) -> None:
        check_space(self.window)

    @cached_property
    def space(self) -> TruncatedSpace:
        return TruncatedSpace(self.labels)

    def vector_state(self, label: Hashable) -> StateFunctional:
        return label_state(self, label)


# ---------------------------------------------------------------------------
# State functionals


class Term(NamedTuple):
    """One weighted vector-state readout of the image v = w e_label walked
    on ``model``: ``weight`` times sum(v[u] * <e_u, e_label>) / ``norm``
    over the ``dual``'s (u, <e_u, e_label>) pairs, which list every label u
    with a nonzero pairing.  On an orthonormal basis the dual is
    ((label, 1),) and the norm 1: the label's coordinate."""

    weight: Any
    model: Any
    label: Hashable
    dual: tuple[tuple[Hashable, Any], ...]
    norm: Any

    def read(self, image: dict) -> Any:
        """The readout of one walked image; ``read({})`` is the zero readout
        ``weight * (0 / norm)`` of a word that sends the label to 0."""
        total = 0
        for target, pairing in self.dual:
            coeff = image.get(target)
            if coeff is not None:
                total += coeff * pairing
        return self.weight * (total / self.norm)


def _suffix_walk(term: Term, columns: list, new: list, shared: list, lengths: list,
                 alphabet: Sequence[Letter]) -> list:
    """One term's readouts on rows sorted by their letters read from the
    right, walked as their suffix trie (see :meth:`StateFunctional.values`):
    ``columns[d][k]`` is the letter of row ``k`` at depth ``d``, counted
    from the right, an id into ``alphabet``.  ``images[d]`` is the image of
    the current path's first ``d`` nodes and ``dead`` the least depth at
    which it is empty; a new row takes one :func:`walk_steps` letter per
    node below the ``shared`` depth.  Its letter tables are made for the
    letters the walk meets and live for this walk only, not on the model."""
    model = term.model
    tables: dict = {}
    steps: list = [None] * len(alphabet)
    zero = term.read({})
    width = len(columns)
    images = [{term.label: 1.0}] * (width + 1)
    dead = width + 1
    read = zero
    out = []
    for k, (is_new, depth, length) in enumerate(zip(new, shared, lengths)):
        if is_new:
            if depth < dead:  # below a live node: walk on from it
                dead = width + 1
                vec = images[depth]
                while depth < length:
                    letter = columns[depth][k]
                    step = steps[letter]
                    if step is None:
                        step = steps[letter] = letter_steps(model, (alphabet[letter],), tables)[0]
                    vec = walk_steps(model, (step,), vec)
                    depth += 1
                    images[depth] = vec
                    if not vec:
                        dead = depth
                        break
                read = term.read(vec) if vec else zero
            else:  # below an empty node: not descended
                read = zero
        out.append(read)
    return out


@dataclass(frozen=True)
class StateFunctional:
    """Normalized linear functional on words, held as data: the inclusive
    index ``window`` a word may use, and the weighted vector-state terms it
    sums, each on a basis label of a model.

    Relabeled words escaping the window are skipped by the symmetry checker
    rather than evaluated.
    """

    window: tuple[int, int]
    terms: tuple[Term, ...]

    def values(self, alphabet: Sequence[Letter], rows) -> list[complex]:
        """Values on the words given as ``rows`` of letter ids into
        ``alphabet``, a sequence of letters.  A row lists its word's letters
        left to right, right-aligned and padded on the left with -1 (a 2-d
        integer array, or lists of one width); a letter outside the state
        window raises IndexError.

        The rows are sorted by their letters read from the right
        (``np.lexsort``), which lists the words' suffix trie depth-first:
        each row is a path from the root, and shares its first ``shared``
        nodes with the row before.  Each term walks the trie once, one
        :func:`walk_steps` letter per node, with one image per depth on its
        stack.  A node whose image is empty is not descended: every row
        under it reads the term's zero readout ``weight * (0 / norm)``.  A
        run of equal rows reads each term's dual once (:meth:`Term.read`).
        Terms are summed in order, so every float is the one a walk of each
        row on its own gives."""
        if len(rows) == 0:
            return []
        rows = np.asarray(rows, np.int64)
        n, width = rows.shape
        lo, hi = self.window
        outside = np.array([not lo <= index <= hi for _, index in alphabet] + [False])
        bad = np.flatnonzero(outside[rows])  # the padding reads the last entry
        if len(bad):
            index = alphabet[rows.flat[bad[0]]][1]
            raise IndexError(f"index {index} outside state window [{lo}, {hi}]")
        order = np.lexsort(rows.T) if width else np.arange(n)
        ordered = rows[order]
        # Row k against row k - 1, letters read from the right: the first
        # depth where they differ, or ``width`` where they are equal.
        differ = np.ones((n, width + 1), bool)
        differ[1:, :width] = ordered[1:, ::-1] != ordered[:-1, ::-1]
        shared = differ.argmax(axis=1)
        new = (shared < width) | (np.arange(n) == 0)
        args = (ordered[:, ::-1].T.tolist(), new.tolist(), shared.tolist(),
                (ordered >= 0).sum(axis=1).tolist(), alphabet)
        reads = [_suffix_walk(term, *args) for term in self.terms]
        out = [0j] * n
        for k, values in zip(order.tolist(), zip(*reads)):
            value = values[0]
            for read in values[1:]:
                value = value + read
            out[k] = complex(value)
        return out

    def __call__(self, w: Word) -> complex:
        return self.values(w.letters, [list(range(len(w)))])[0]

    def admits(self, w: Word) -> bool:
        lo, hi = self.window
        return all(lo <= i <= hi for i in w.indices())


def mixture(phi1: StateFunctional, phi2: StateFunctional, x: float) -> StateFunctional:
    """Affine combination (1-x) phi1 + x phi2 for x in [0, 1]: the terms of
    both, their weights scaled."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"mixture weight must lie in [0, 1], got {x}")
    lo = max(phi1.window[0], phi2.window[0])
    hi = min(phi1.window[1], phi2.window[1])
    terms = tuple(t._replace(weight=(1.0 - x) * t.weight) for t in phi1.terms) + tuple(
        t._replace(weight=x * t.weight) for t in phi2.terms
    )
    return StateFunctional((lo, hi), terms)
