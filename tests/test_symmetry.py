"""The table-driven symmetry harness against the plain loop it replaced.

``reference_check_symmetry`` is the harness as it was before words were
relabeled through per-map tables and state values were cached: one
``relabel``, one ``admits`` and one state call for every (word, map) pair.  It
lives here, and only here, as the oracle the fast harness must match case for
case: counts, maximum, verdict and every witness, in order.
"""

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spreadlab.monoid import psi, random_increasing_map, random_permutation, tau_pow, theta
from spreadlab.monotone import MonotoneBasis, lambda_forms
from spreadlab.operators import (
    Kind,
    Letter,
    StateFunctional,
    Word,
    annihilator,
    creator,
    position,
    relabel,
    word,
)
from spreadlab.reports import Deviations
from spreadlab.symmetry import (
    SymmetryFamily,
    check_symmetry,
    describe_map,
    shift_family,
    spreading_family,
)


def reference_check_symmetry(state, words, family, tol=1e-10):
    """The harness loop as it was: relabel, test and evaluate every pair."""
    found = Deviations(tol, 10)
    samples = skipped = 0
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


def same_size(a, b):
    return (math.isnan(a) and math.isnan(b)) or a == b


def assert_same_check(fast, slow):
    assert (fast.samples, fast.skipped) == (slow.samples, slow.skipped)
    assert same_size(fast.max_deviation, slow.max_deviation)
    assert fast.passed is slow.passed
    # JSON spells NaN the same on both sides, where == on the dicts would not.
    assert json.dumps(fast.witnesses) == json.dumps(slow.witnesses)


def table_state(window, table, calls=None):
    """A state whose value on a word is read from ``table`` by the word's
    exact text; ``calls`` records each word it is asked for."""

    def rule(w):
        assert isinstance(w, Word)
        if calls is not None:
            calls.append(w.to_text())
        return table[w.to_text()]

    return StateFunctional(window, rule)


def letters(lo, hi):
    index = st.integers(lo - 1, hi + 1)  # inside and outside the window
    kind = st.sampled_from([Kind.CREATOR, Kind.ANNIHILATOR, Kind.POSITION])
    return st.one_of(st.builds(Letter, kind, index), st.just(Letter(Kind.UNIT)))


def index_maps(lo, hi):
    seed = st.integers(0, 2**32 - 1)
    return st.one_of(
        st.integers(-2, 2).map(tau_pow),
        st.integers(lo - 1, hi + 1).map(theta),
        st.integers(lo - 1, hi + 1).map(psi),
        seed.map(
            lambda s: random_increasing_map(np.random.default_rng(s), (-2, 2), 3, (lo - 3, hi + 3))
        ),
        seed.map(lambda s: random_permutation(np.random.default_rng(s), lo - 1, hi + 1)),
    )


@st.composite
def harness_cases(draw):
    lo = draw(st.integers(-3, 0))
    hi = lo + draw(st.integers(1, 4))
    words = draw(st.lists(st.lists(letters(lo, hi), max_size=4), min_size=1, max_size=8))
    words = [Word(tuple(w)) for w in words]
    words += draw(st.lists(st.sampled_from(words), max_size=3))  # duplicates
    words = draw(st.permutations(words))
    # Both are the identity on every index a word can carry, so they agree
    # on the support of every word.
    agreeing = [theta(hi + 3), psi(lo - 3)]
    maps = draw(st.permutations(draw(st.lists(index_maps(lo, hi), min_size=1, max_size=6)) + agreeing))
    tol = draw(st.sampled_from([1e-12, 0.25]))
    value = st.one_of(
        st.sampled_from([0.0, tol, -tol, 2 * tol, math.nan, 1.0, complex(0.0, tol)]),
        st.floats(-1.0, 1.0),
    )
    texts = sorted({relabel(w, g).to_text() for w in words for g in maps} | {w.to_text() for w in words})
    table = dict(zip(texts, draw(st.lists(value, min_size=len(texts), max_size=len(texts)))))
    return (lo, hi), words, SymmetryFamily("mixed", tuple(maps)), table, tol


@given(case=harness_cases())
@settings(max_examples=300, deadline=None)
def test_table_driven_harness_matches_reference_loop(case):
    window, words, family, table, tol = case
    fast_calls, slow_calls = [], []
    fast = check_symmetry(table_state(window, table, fast_calls), words, family, tol)
    slow = reference_check_symmetry(table_state(window, table, slow_calls), words, family, tol)
    assert_same_check(fast, slow)
    # Every word the fast harness evaluates, the loop evaluated too, and it
    # never evaluates more often.
    assert set(fast_calls) <= set(slow_calls)
    assert len(fast_calls) <= len(slow_calls)


def test_state_of_the_index_still_fails_shifts():
    # A cache keyed by the word's shape (kinds and index pattern) would give a
    # word and its shift one value, and this state would pass.
    state = StateFunctional((-5, 5), lambda w: w.indices()[0])
    words = [
        word(creator(i), annihilator(j)) for i in range(-3, 4) for j in (-1, 2)
    ] + [word(position(i)) for i in range(-5, 6)]
    fast = check_symmetry(state, words, shift_family())
    slow = reference_check_symmetry(state, words, shift_family())
    assert not fast.passed and fast.max_deviation == 1.0
    assert len(fast.witnesses) == 10
    assert_same_check(fast, slow)


def test_generator_and_list_give_identical_reports():
    basis = MonotoneBasis((-4, 6), 3)
    words = [f.word() for f in lambda_forms(range(-2, 3), 2, 2)]
    family = spreading_family(-2, 2, n_random=6, seed=5)
    state = basis.vector_state((0,))
    listed = check_symmetry(state, words, family, tol=1e-12)
    streamed = check_symmetry(state, (w for w in words), family, tol=1e-12)
    assert listed.samples > 0 and listed.witnesses
    assert (
        streamed.report("m", "s", "c", 0).to_json(include_wall_time=False)
        == listed.report("m", "s", "c", 0).to_json(include_wall_time=False)
    )


def test_maps_that_agree_on_a_word_share_its_value():
    calls = []
    w = word(creator(0), annihilator(1))
    table = {"c(0).a(1)": 1.0, "c(1).a(2)": 1.0}
    family = SymmetryFamily("agree", (tau_pow(1), theta(0), theta(-3)))
    check = check_symmetry(table_state((-5, 5), table, calls), [w, w], family)
    assert check.passed and (check.samples, check.skipped) == (6, 0)
    # The duplicate input is read once; the three maps send c(0).a(1) to one
    # word outside the list, read once per source word.
    assert sorted(calls) == ["c(0).a(1)", "c(1).a(2)", "c(1).a(2)"]
