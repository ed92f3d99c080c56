"""Seeded input generator for the ``wide-words`` workload.

Draws distinct normally ordered words (``LambdaForm``s: strictly increasing
creators, then strictly decreasing annihilators) with at most two creators
and two annihilators.  The shape (creator count, annihilator count) is drawn
uniformly, then the indices, and repeats are dropped until ``count`` words
are found.  Every length from 1 to 4 must occur: on a file of only length-4
words the one-particle vector state shows no deviation, so the simplex
suite's counterexample finds no witness and the suite fails by design.
"""

from __future__ import annotations

import random
from typing import Hashable, Iterable, Sequence

Form = tuple[tuple[int, ...], tuple[int, ...]]

WORD_COUNT = 3000
INDEX_RANGE = (-10, 10)
MAX_CREATORS = 2
MAX_ANNIHILATORS = 2


def generate(seed: int, count: int = WORD_COUNT) -> list[Form]:
    """``count`` distinct forms, in the order first drawn."""
    rng = random.Random(seed)
    indices = range(INDEX_RANGE[0], INDEX_RANGE[1] + 1)
    shapes = [
        (m, n)
        for m in range(MAX_CREATORS + 1)
        for n in range(MAX_ANNIHILATORS + 1)
        if m + n
    ]
    forms: dict[Form, None] = {}
    while len(forms) < count:
        m, n = rng.choice(shapes)
        creators = tuple(sorted(rng.sample(indices, m)))
        annihilators = tuple(sorted(rng.sample(indices, n), reverse=True))
        forms.setdefault((creators, annihilators), None)
    out = list(forms)
    lengths = {len(c) + len(a) for c, a in out}
    missing = set(range(1, MAX_CREATORS + MAX_ANNIHILATORS + 1)) - lengths
    if missing:
        raise ValueError(f"seed {seed} drew no words of length {sorted(missing)}")
    return out


def to_text(form: Form) -> str:
    """The ``D[..]A[..]`` syntax that ``--words-file`` reads."""
    creators, annihilators = form
    return f"D[{','.join(map(str, creators))}]A[{','.join(map(str, annihilators))}]"


def write(path, forms: Iterable[Form]) -> None:
    with open(path, "w") as fh:
        fh.writelines(to_text(f) + "\n" for f in forms)


def letters(form: Form) -> tuple[tuple[str, int], ...]:
    """The form as a letter string, leftmost letter first."""
    creators, annihilators = form
    return tuple(("c", i) for i in creators) + tuple(("a", j) for j in annihilators)


def suffix_share(words: Iterable[Sequence[Hashable]]) -> float:
    """Share of words of length >= 2 whose one-letter-shorter suffix (the
    word without its leftmost letter, which acts last) is itself a word.
    Words act right to left, so this is the share of evaluations that could
    reuse a stored partial result.  0.0 when no word has length >= 2."""
    words = {tuple(w) for w in words}
    long = [w for w in words if len(w) >= 2]
    if not long:
        return 0.0
    return sum(w[1:] in words for w in long) / len(long)
