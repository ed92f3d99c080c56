"""The array-driven symmetry harness against the plain loop it replaced.

``reference_check_symmetry`` is the harness as it was before words were
relabeled as arrays and state values were looked up by exact word codes: one
``relabel``, one ``admits`` and one state call for every (word, map) pair.  It
lives here, and only here, as the oracle the fast harness must match case for
case: counts, maximum, verdict and every witness, in order.
"""

import json
import math
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FakeState
from spreadlab.monoid import (
    FinitePermutation,
    IncreasingMap,
    psi,
    random_increasing_map,
    random_permutation,
    tau_pow,
    theta,
)
from spreadlab.monotone import MonotoneBasis, lambda_forms
from spreadlab.operators import (
    Kind,
    Letter,
    Word,
    annihilator,
    creator,
    position,
    relabel,
    word,
)
from spreadlab.qfock import words_over
from spreadlab import symmetry
from spreadlab.reports import Deviations
from spreadlab.symmetry import (
    SymmetryFamily,
    check_symmetries,
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


def assert_same_words(fast_calls, slow_calls):
    """The fast harness evaluates the words the loop evaluated, each once."""
    assert set(fast_calls) == set(slow_calls)
    assert len(fast_calls) == len(set(fast_calls))


def table_state(window, table, calls=None):
    """A state whose value on a word is read from ``table`` by the word's
    exact text; ``calls`` records each word it is asked for."""
    return FakeState(window, lambda w: table[w.to_text()], calls)


def letters(lo, hi):
    index = st.integers(lo - 1, hi + 1)  # inside and outside the window
    kind = st.sampled_from([Kind.CREATOR, Kind.ANNIHILATOR, Kind.POSITION])
    return st.builds(Letter, kind, index)


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
    assert_same_words(fast_calls, slow_calls)


@st.composite
def suite_cases(draw):
    """Several states, on windows that differ or coincide, each with its own
    value table, under several families of mixed maps."""
    lo = draw(st.integers(-3, 0))
    hi = lo + draw(st.integers(1, 4))
    ends = st.tuples(st.integers(lo - 1, lo + 1), st.integers(hi - 1, hi + 1))
    windows = draw(st.lists(ends.filter(lambda w: w[0] <= w[1]), min_size=1, max_size=4))
    words = draw(st.lists(st.lists(letters(lo, hi), max_size=4), min_size=1, max_size=8))
    words = [Word(tuple(w)) for w in words]
    words += draw(st.lists(st.sampled_from(words), max_size=3))  # duplicates
    words = draw(st.permutations(words))
    maps = st.lists(index_maps(lo, hi), min_size=1, max_size=4)
    families = [SymmetryFamily(f"f{k}", tuple(draw(maps))) for k in range(draw(st.integers(1, 3)))]
    tol = draw(st.sampled_from([1e-12, 0.25]))
    value = st.one_of(st.sampled_from([0.0, tol, 2 * tol, math.nan, 1.0]), st.floats(-1.0, 1.0))
    texts = sorted({relabel(w, g).to_text() for w in words for f in families for g in f.maps}
                   | {w.to_text() for w in words})
    values = st.lists(value, min_size=len(texts), max_size=len(texts))
    tables = [dict(zip(texts, draw(values))) for _ in windows]
    return windows, words, families, tables, tol


@given(case=suite_cases(), streamed=st.booleans())
@settings(max_examples=150, deadline=None)
def test_one_pass_matches_the_reference_loop_for_every_state_and_family(case, streamed):
    windows, words, families, tables, tol = case
    calls = [[] for _ in windows]
    states = [table_state(w, table, c) for w, table, c in zip(windows, tables, calls)]
    checks = check_symmetries(states, (w for w in words) if streamed else words, families, tol)
    assert [len(row) for row in checks] == [len(families)] * len(states)
    for s, (window, table) in enumerate(zip(windows, tables)):
        evaluated = []
        for f, family in enumerate(families):
            slow_calls = []
            slow_state = table_state(window, table, slow_calls)
            slow = reference_check_symmetry(slow_state, words, family, tol)
            assert_same_check(checks[s][f], slow)
            evaluated += slow_calls
        # Each state reads each distinct word once in the pass, whichever
        # family's map reached it first.
        assert_same_words(calls[s], evaluated)


def test_a_pass_over_several_states_holds_about_one_states_memory(monkeypatch):
    # Each state keeps one value per known word of a batch, so a pass over
    # k states on one window takes batches of about BATCH // k input words:
    # with the full BATCH, four states peak about half as high again.
    monkeypatch.setattr(symmetry, "BATCH", 256)
    ladder = list(words_over([-2, -1, 0, 1, 2], 3, (Kind.CREATOR, Kind.ANNIHILATOR)))
    family = spreading_family(-1, 1, 2)

    def read(k):
        return lambda w: sum((i + k) * 17**j for j, i in enumerate(w.indices()))

    def peak(states):
        tracemalloc.start()
        try:
            checks = check_symmetries(states, ladder, [family], tol=1e-12)
            return checks, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    states = [FakeState((-8, 8), read(k)) for k in range(4)]
    peak(states[:1])  # first-use allocations stay out of the comparison
    one, one_peak = peak(states[:1])
    four, four_peak = peak(states)
    assert four[0][0].samples == one[0][0].samples == 1_111 * len(family.maps)
    assert json.dumps(four[0][0].witnesses) == json.dumps(one[0][0].witnesses)
    assert four_peak <= 1.25 * one_peak, (one_peak, four_peak)


BIG = 10**15


@st.composite
def wide_cases(draw):
    """Words of 6-8 letters of one kind pattern on the window [-BIG, BIG],
    with indices near both ends, and maps that push them out of it; a code
    built from the raw indices would need about 51 bits per letter."""
    kinds = draw(st.lists(st.sampled_from([Kind.CREATOR, Kind.ANNIHILATOR, Kind.POSITION]),
                          min_size=6, max_size=8))
    near = st.one_of(st.integers(-BIG - 1, -BIG + 3), st.integers(BIG - 3, BIG + 1))
    indices = draw(st.lists(st.lists(near, min_size=len(kinds), max_size=len(kinds)),
                            min_size=1, max_size=6))
    words = [Word(tuple(map(Letter, kinds, row))) for row in indices]
    shift = tau_pow(draw(st.sampled_from([-1, 1])))
    words += [relabel(w, shift) for w in words[:2]]  # so that some images are inputs
    words += draw(st.lists(st.sampled_from(words), max_size=2))
    end = st.one_of(st.integers(-BIG - 2, -BIG + 3), st.integers(BIG - 3, BIG + 2))
    maps = draw(st.lists(st.one_of(
        st.integers(-2, 2).map(tau_pow),
        end.map(theta),
        end.map(psi),
        st.tuples(st.integers(-2, 2), st.lists(end, max_size=3, unique=True)).map(
            lambda og: IncreasingMap(og[0], tuple(sorted(og[1])))),
        st.lists(end, min_size=2, max_size=4, unique=True).map(FinitePermutation.from_cycle),
    ), min_size=1, max_size=5))
    value = st.sampled_from([0.0, 1e-12, 1.0, math.nan, complex(0.5, -0.5)])
    texts = sorted({relabel(w, g).to_text() for w in words for g in [tau_pow(0), *maps]})
    table = dict(zip(texts, draw(st.lists(value, min_size=len(texts), max_size=len(texts)))))
    return words, SymmetryFamily("wide", tuple(maps)), table


@given(case=wide_cases())
@settings(max_examples=150, deadline=None)
def test_huge_windows_and_long_words_match_reference_loop(case):
    words, family, table = case
    fast_calls, slow_calls = [], []
    window = (-BIG, BIG)
    fast = check_symmetry(table_state(window, table, fast_calls), words, family, 1e-12)
    slow = reference_check_symmetry(table_state(window, table, slow_calls), words, family, 1e-12)
    assert_same_check(fast, slow)
    assert_same_words(fast_calls, slow_calls)


def test_codes_past_int64_stay_exact():
    # One kind pattern of 8 letters over exactly 512 = 2**9 distinct indices:
    # a radix code over their ranks needs 72 bits, and two words whose first
    # ranks differ by 2 would agree modulo 2**64.  The cycle swaps exactly
    # those two first indices, so it keeps the 512 and moves both words.
    values = sorted({-BIG + 3 * k for k in range(256)} | {BIG - 5 * k for k in range(256)})
    first = word(*(creator(i) for i in [values[0], *values[10:17]]))
    twin = word(*(creator(i) for i in [values[2], *values[10:17]]))
    rest = [values[k] for k in range(512) if k not in (0, 2) and not 10 <= k < 17]
    rest.append(rest[0])  # 504 = 63 words of 8
    words = [first, twin] + [word(*(creator(i) for i in rest[j:j + 8])) for j in range(0, 504, 8)]
    assert {len(w) for w in words} == {8} and len({i for w in words for i in w.indices()}) == 512
    family = SymmetryFamily("swap", (FinitePermutation.from_cycle([values[0], values[2]]),))
    table = {first.to_text(): 1.0}
    fast_calls, slow_calls = [], []
    read = lambda w: table.get(w.to_text(), 0.0)  # noqa: E731
    fast = check_symmetry(FakeState((-BIG, BIG), read, fast_calls), words, family)
    slow = reference_check_symmetry(FakeState((-BIG, BIG), read, slow_calls), words, family)
    assert fast.max_deviation == 1.0 and len(fast.witnesses) == 2
    assert_same_check(fast, slow)
    assert_same_words(fast_calls, slow_calls)


def test_witness_memory_is_bounded_by_the_cap():
    # A state that fails on every pair that moves a word keeps 10 witnesses,
    # and the check holds no more memory than for a state that passes.
    ladder = list(words_over([-2, -1, 0, 1, 2], 4, (Kind.CREATOR, Kind.ANNIHILATOR)))
    family = spreading_family(-2, 2, 20)
    failing = FakeState(
        (-8, 8), lambda w: sum((i + 9) * 17**k for k, i in enumerate(w.indices()))
    )
    passing = FakeState((-8, 8), lambda w: 1.0)

    def peak(state):
        tracemalloc.start()
        try:
            check = check_symmetry(state, ladder, family, tol=1e-12)
            return check, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    fails, fail_peak = peak(failing)
    passes, pass_peak = peak(passing)
    assert passes.passed and not fails.passed
    assert fails.samples == passes.samples == 11_111 * len(family.maps)
    # The first 10 witnesses come from the first words; the loop finds the
    # same ones on a prefix of the list.
    slow = reference_check_symmetry(failing, ladder[:40], family, tol=1e-12)
    assert json.dumps(fails.witnesses) == json.dumps(slow.witnesses)
    assert len(fails.witnesses) == 10
    assert fail_peak <= 2 * pass_peak


def test_witnesses_are_the_first_failing_words_in_input_order():
    # The kind groups (C,) and (C, A) interleave in input order: c(0), then
    # 20 words c(i).a(j), then c(-20) ... c(-1).  Every shift moves the first
    # index, so every pair fails, and the first 10 cases in (word, map) order
    # are c(0) and the first four c(-2).a(j), each under both shifts.
    words = [word(creator(0))]
    words += [word(creator(i), annihilator(j)) for i in range(-2, 3) for j in range(-2, 2)]
    words += [word(creator(i)) for i in range(-20, 0)]
    state = FakeState((-50, 50), lambda w: w.indices()[0])
    fast = check_symmetry(state, words, shift_family(), tol=1e-12)
    slow = reference_check_symmetry(state, words, shift_family(), tol=1e-12)
    expected = ["c(0)"] + [f"c(-2).a({j})" for j in range(-2, 2)]
    assert [case["word"] for case in fast.witnesses] == [w for w in expected for _ in "+-"]
    assert_same_check(fast, slow)


@st.composite
def interleaved_cases(draw):
    """At least 25 words of two or three kind patterns, drawn in any order,
    under maps that move every word of the window [-3, 3]."""
    kinds = st.sampled_from([Kind.CREATOR, Kind.ANNIHILATOR, Kind.POSITION])
    patterns = draw(st.lists(st.lists(kinds, min_size=1, max_size=3).map(tuple),
                             min_size=2, max_size=3, unique=True))
    pattern_words = st.sampled_from(patterns).flatmap(
        lambda p: st.lists(st.integers(-3, 3), min_size=len(p), max_size=len(p)).map(
            lambda row: Word(tuple(map(Letter, p, row)))))
    words = draw(st.lists(pattern_words, min_size=25, max_size=40))
    moving = st.one_of(st.sampled_from([-2, -1, 1, 2]).map(tau_pow),
                       st.integers(-5, -3).map(theta), st.integers(3, 5).map(psi))
    maps = draw(st.lists(moving, min_size=1, max_size=3))
    return words, SymmetryFamily("moving", tuple(maps))


@given(case=interleaved_cases())
@settings(max_examples=25, deadline=None)
def test_witnesses_match_the_reference_loop_on_interleaved_kind_groups(case):
    # A state injective on the words of a pattern fails every (word, map)
    # pair, so each map has at least 25 failing words, more than the 10 kept.
    words, family = case
    state = FakeState((-8, 8), lambda w: sum((i + 9) * 17**k for k, i in enumerate(w.indices())))
    fast = check_symmetry(state, words, family, tol=1e-12)
    slow = reference_check_symmetry(state, words, family, tol=1e-12)
    assert len(fast.witnesses) == 10
    assert_same_check(fast, slow)


def test_state_of_the_index_still_fails_shifts():
    # A cache keyed by the word's shape (kinds and index pattern) would give a
    # word and its shift one value, and this state would pass.
    state = FakeState((-5, 5), lambda w: w.indices()[0])
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
    # word outside the list, read once per check.
    assert sorted(w.to_text() for w in calls) == ["c(0).a(1)", "c(1).a(2)"]


class BatchRecorder(FakeState):
    """A fake state that also records the kind patterns of each ``values``
    call's words."""

    def __init__(self, window, read):
        super().__init__(window, read)
        self.patterns = []

    def values(self, alphabet, rows):
        self.patterns.append({tuple(alphabet[c][0] for c in row if c >= 0) for row in rows})
        return super().values(alphabet, rows)


def test_values_calls_stay_inside_kind_closed_batches(monkeypatch):
    # With a cap of 5 input words, kind groups of 3, 2, 4, 7, 1, 1 and 2
    # words, in the order their patterns first appear, stack into the
    # batches 3 + 2, 4, 7 and 1 + 1 + 2: only the group of 7 passes the cap,
    # alone.
    monkeypatch.setattr(symmetry, "BATCH", 5)
    C, A, X = Kind.CREATOR, Kind.ANNIHILATOR, Kind.POSITION
    patterns = [(C,), (A,), (C, A), (A, C), (C, C), (X,), (A, A, C)]
    sizes = [2, 2, 4, 7, 1, 1, 2]
    batches = [[(C,), (A,)], [(C, A)], [(A, C)], [(C, C), (X,), (A, A, C)]]
    rng = np.random.default_rng(23)
    heads, tails = [], []
    for kinds, size in zip(patterns, sizes):
        rows = rng.choice(np.arange(-3, 4), (size, len(kinds))).tolist()
        group = [Word(tuple(map(Letter, kinds, row))) for row in rows]
        heads.append(group[0])
        tails += group[1:]
    tails += [heads[0], word(creator(9))]  # a duplicate counts; a word outside has no group
    words = heads + [tails[k] for k in rng.permutation(len(tails))]
    counts = {p: sum(1 for w in words if tuple(l.kind for l in w.letters) == p) for p in patterns}
    counts[(C,)] -= 1  # c(9)
    assert [counts[p] for p in patterns] == [3, 2, 4, 7, 1, 1, 2]
    for batch in batches:
        assert sum(counts[p] for p in batch) <= 5 or len(batch) == 1
    read = lambda w: sum((i + 7) * 3**k for k, i in enumerate(w.indices()))  # noqa: E731
    state = BatchRecorder((-5, 5), read)
    family = spreading_family(-2, 2, 4, seed=1)
    fast = check_symmetry(state, words, family, tol=1e-12)
    slow = reference_check_symmetry(FakeState((-5, 5), read), words, family, tol=1e-12)
    assert_same_check(fast, slow)
    # Every call stays inside one batch, the batches come in order, and a
    # batch's first call reads all of its groups.
    home = [next(k for k, b in enumerate(batches) if called <= set(b)) for called in state.patterns]
    assert home == sorted(home)
    for k, batch in enumerate(batches):
        assert state.patterns[home.index(k)] == set(batch)
