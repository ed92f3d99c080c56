"""Shared oracles: pointwise closures for the partial shifts, independent of
the canonical (offset, gaps) representation under test, and a fake state
for the symmetry harness."""

import numpy as np
import pytest

from spreadlab.operators import Letter, Word


def oracle_theta(h):
    return lambda k: k if k < h else k + 1


def oracle_psi(h):
    return lambda k: k if k > h else k - 1


def oracle_tau(n):
    return lambda k: k + n


def oracle_compose(*fns):
    def composed(k):
        for fn in reversed(fns):
            k = fn(k)
        return k

    return composed


def pointwise_equal(f, g, lo=-50, hi=50):
    return all(f(k) == g(k) for k in range(lo, hi + 1))


@pytest.fixture
def rng():
    return np.random.default_rng(20230526)


class FakeState:
    """A state for the symmetry harness whose value on a word is
    ``read(word)``.  It has the harness's one evaluation method, ``values``,
    which rebuilds each word from its row of letter ids into the alphabet of
    (kind, index) letters, skipping the -1 padding on the left; the
    reference loop calls it on words directly.  ``calls`` records every
    word it is asked for."""

    def __init__(self, window, read, calls=None):
        self.window = window
        self.read = read
        self.calls = calls

    def values(self, alphabet, rows):
        out = []
        for row in rows:
            row = list(row)
            padding = row.count(-1)
            assert row[:padding] == [-1] * padding  # right-aligned
            out.append(self(Word(tuple(Letter(*alphabet[c]) for c in row[padding:]))))
        return out

    def __call__(self, w):
        if self.calls is not None:
            self.calls.append(w)
        return complex(self.read(w))

    def admits(self, w):
        lo, hi = self.window
        return all(lo <= i <= hi for i in w.indices())
