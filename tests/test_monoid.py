"""Exact combinatorics of the increasing-map monoids and finite permutations."""

import ast
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    oracle_compose,
    oracle_psi,
    oracle_tau,
    oracle_theta,
    pointwise_equal,
)
from spreadlab.monoid import (
    FinitePermutation,
    GeneratorWord,
    IncreasingMap,
    ShiftLetter,
    compose,
    conjugate_by_shift,
    cycle_for_interval,
    decompose_semidirect,
    evaluate,
    evaluate_increasing,
    evaluate_rows,
    factor_D,
    factor_E,
    identity_map,
    localize,
    psi,
    random_increasing_map,
    random_permutation,
    realize_pair,
    semidirect_multiply,
    tau_pow,
    theta,
)
from spreadlab.cli import main
from spreadlab.reports import Deviations
from spreadlab import monoid, suites

increasing_maps = st.builds(
    IncreasingMap,
    offset=st.integers(-5, 5),
    gaps=st.sets(st.integers(-20, 20), max_size=6).map(lambda s: tuple(sorted(s))),
)


# ---------------------------------------------------------------------------
# Generators and evaluation


def test_theta_matches_its_pointwise_rule():
    assert theta(0)(-1) == -1
    assert theta(0)(0) == 1
    assert theta(5).gaps == (5,)
    assert theta(5).offset == 0
    assert pointwise_equal(theta(3), oracle_theta(3))


def test_psi_matches_its_pointwise_rule():
    assert psi(0)(1) == 1
    assert psi(0)(0) == -1
    assert psi(0).gaps == (0,)
    assert psi(0).offset == -1
    assert pointwise_equal(psi(-2), oracle_psi(-2))


def test_psi_range_misses_exactly_zero():
    hit = {psi(0)(k) for k in range(-10, 11)}
    missed = set(range(-9, 9)) - hit
    assert missed == {0}


def test_tau_pow():
    assert tau_pow(0) == identity_map()
    assert tau_pow(1)(3) == 4
    assert tau_pow(-2)(0) == -2


def test_evaluate_examples():
    assert evaluate(IncreasingMap(0, (0,)), 0) == 1
    # psi(0) after theta(0), value frozen from the pointwise oracle at k=-2
    assert oracle_compose(oracle_psi(0), oracle_theta(0))(-2) == -3
    assert evaluate(IncreasingMap(-1, (-1, 0)), -2) == -3
    assert evaluate(IncreasingMap(3, ()), 0) == 3


def test_gap_validation():
    with pytest.raises(ValueError):
        IncreasingMap(0, (3, 3))
    with pytest.raises(ValueError):
        IncreasingMap(0, (2, 1))


def test_right_offset_rule():
    f = IncreasingMap(-1, (-1, 0))
    for k in range(max(f.gaps) - f.offset + 1, max(f.gaps) - f.offset + 10):
        assert f(k) == k + f.right_offset


# ---------------------------------------------------------------------------
# Composition


def test_compose_psi0_theta0():
    got = compose(psi(0), theta(0))
    assert got == IncreasingMap(-1, (-1, 0))
    assert pointwise_equal(got, lambda k: k - 1 if k < 0 else k + 1, -20, 20)


def test_compose_theta0_psi0_differs():
    got = compose(theta(0), psi(0))
    assert got == IncreasingMap(-1, (0, 1))
    assert got != compose(psi(0), theta(0))


def test_compose_identity_laws():
    f = IncreasingMap(2, (4, 7))
    assert compose(f, tau_pow(0)) == f
    assert compose(tau_pow(0), f) == f


@given(f=increasing_maps, g=increasing_maps)
@settings(max_examples=150)
def test_compose_agrees_with_pointwise_oracle(f, g):
    fg = compose(f, g)
    assert all(fg(k) == f(g(k)) for k in range(-50, 51))


@given(f=increasing_maps, g=increasing_maps, h=st.integers(-20, 20))
@settings(max_examples=150)
def test_unchecked_results_are_canonical(f, g, h):
    # compose and the generators skip the constructor's checks; what they
    # build must be what the checked constructor builds from the same form.
    for got in (compose(f, g), theta(h), psi(h), tau_pow(h), theta(np.int64(h))):
        assert got == IncreasingMap(got.offset, got.gaps)
        assert all(type(gap) is int for gap in got.gaps)
        assert all(a < b for a, b in zip(got.gaps, got.gaps[1:]))
        assert hash(got) == hash(IncreasingMap(got.offset, got.gaps))


@given(f=increasing_maps, g=increasing_maps, h=increasing_maps)
@settings(max_examples=80)
def test_compose_associative(f, g, h):
    assert compose(compose(f, g), h) == compose(f, compose(g, h))


def rank_equation_value(f, k):
    """f(k) by its definition: the x outside the gaps whose rank
    x - #{gaps below x} is k + offset, searched in [t, t + #gaps]."""
    target = k + f.offset
    for x in range(target, target + len(f.gaps) + 1):
        if x not in f.gaps and x - sum(g < x for g in f.gaps) == target:
            return x
    raise AssertionError("no solution of the rank equation")


@given(
    offset=st.integers(-40, 40),
    gaps=st.sets(st.integers(-60, 60), max_size=15).map(lambda s: tuple(sorted(s))),
    k=st.integers(-100, 100),
)
@settings(max_examples=300)
def test_evaluate_matches_rank_equation(offset, gaps, k):
    f = IncreasingMap(offset, gaps)
    assert evaluate(f, k) == rank_equation_value(f, k)


@given(f=increasing_maps)
@settings(max_examples=60)
def test_evaluate_strictly_increasing(f):
    values = [f(k) for k in range(-30, 31)]
    assert all(a < b for a, b in zip(values, values[1:]))


@given(f=increasing_maps)
@settings(max_examples=60)
def test_range_misses_exactly_the_gaps(f):
    # Window chosen wide enough that every gap is an image of the window edges.
    hit = {f(k) for k in range(-60, 61)}
    inner = set(range(f(-60) + 1, f(60)))
    assert inner - hit == set(f.gaps)


@given(f=increasing_maps, g=increasing_maps)
@settings(max_examples=80)
def test_canonical_form_unique(f, g):
    same_pointwise = all(f(k) == g(k) for k in range(-50, 51))
    assert same_pointwise == (f == g)


# ---------------------------------------------------------------------------
# Semidirect structure


def test_decompose_psi0():
    n, d = decompose_semidirect(psi(0))
    assert (n, d) == (-1, theta(1))
    # independent check: tau ∘ psi(0) equals theta(1) pointwise
    assert pointwise_equal(oracle_compose(oracle_tau(1), oracle_psi(0)), oracle_theta(1), -10, 10)


def test_decompose_trivial_cases():
    assert decompose_semidirect(theta(4)) == (0, theta(4))
    assert decompose_semidirect(tau_pow(5)) == (5, identity_map())


def test_semidirect_multiply_offset_free_case():
    got = semidirect_multiply((0, theta(0)), (0, theta(0)))
    assert got == (0, compose(theta(0), theta(0)))


def test_semidirect_multiply_rejects_offsets():
    with pytest.raises(ValueError):
        semidirect_multiply((0, psi(0)), (0, theta(0)))


def test_semidirect_multiply_shift_times_generator():
    # tau * theta(0) has gaps {1}, so its split keeps theta(0): the product
    # must realize to the composition, which pins this orientation.
    got = semidirect_multiply((1, identity_map()), (0, theta(0)))
    assert realize_pair(got) == compose(tau_pow(1), theta(0))
    assert got == (1, theta(0))


def test_conjugate_by_shift_moves_gaps():
    assert conjugate_by_shift(theta(0), 1) == theta(1)
    assert conjugate_by_shift(theta(3), -2) == theta(1)


@given(f=increasing_maps, g=increasing_maps)
@settings(max_examples=150)
def test_semidirect_realizes_to_compose(f, g):
    product = semidirect_multiply(decompose_semidirect(f), decompose_semidirect(g))
    assert realize_pair(product) == compose(f, g)


@given(f=increasing_maps, g=increasing_maps, h=increasing_maps)
@settings(max_examples=60)
def test_semidirect_associative(f, g, h):
    pf, pg, ph = (decompose_semidirect(x) for x in (f, g, h))
    left = semidirect_multiply(semidirect_multiply(pf, pg), ph)
    right = semidirect_multiply(pf, semidirect_multiply(pg, ph))
    assert left == right


# ---------------------------------------------------------------------------
# Factorization into generator words


def test_factor_D_examples():
    assert factor_D(theta(3)).letters == (ShiftLetter("T", 3),)
    assert factor_D(identity_map()).letters == ()
    d = IncreasingMap(0, (0, 1))
    word = factor_D(d)
    assert len(word) == 2
    assert pointwise_equal(word, d, -10, 10)


def test_factor_D_rejects_nonzero_offset():
    with pytest.raises(ValueError):
        factor_D(psi(0))


@given(gaps=st.sets(st.integers(-15, 15), max_size=6))
@settings(max_examples=80)
def test_factor_D_roundtrip(gaps):
    d = IncreasingMap(0, tuple(sorted(gaps)))
    word = factor_D(d)
    assert len(word) == len(d.gaps)
    assert all(letter.kind == "T" for letter in word.letters)
    assert word.realize() == d


@given(gaps=st.sets(st.integers(-15, 15), max_size=6))
@settings(max_examples=80)
def test_factor_E_roundtrip(gaps):
    e = IncreasingMap(-len(gaps), tuple(sorted(gaps)))
    word = factor_E(e)
    assert all(letter.kind == "P" for letter in word.letters)
    assert word.realize() == e


def test_generator_words_never_shift_right():
    # tau is not a word in the partial shifts: every word has offset <= 0.
    letters = [ShiftLetter("T", 2), ShiftLetter("P", -1), ShiftLetter("T", 0)]
    for n in range(1, len(letters) + 1):
        word = GeneratorWord(tuple(letters[:n]))
        realized = word.realize()
        assert realized.offset <= 0
        assert realized.offset == -sum(1 for s in word.letters if s.kind == "P")


@given(
    kinds=st.lists(st.sampled_from("TP"), max_size=6),
    pivots=st.lists(st.integers(-10, 10), min_size=6, max_size=6),
)
@settings(max_examples=80)
def test_random_generator_words_have_nonpositive_offset(kinds, pivots):
    word = GeneratorWord(tuple(ShiftLetter(k, h) for k, h in zip(kinds, pivots)))
    realized = word.realize()
    assert realized.offset == -kinds.count("P") <= 0
    # and evaluation of the word matches its canonical realization
    assert all(word(j) == realized(j) for j in range(-15, 16))


# ---------------------------------------------------------------------------
# Localization and interval cycles


def test_localize_shift_on_window():
    word = localize([j + 1 for j in range(0, 3)], 0, 2)
    assert all(word(j) == j + 1 for j in range(0, 3))


def test_localize_identity_is_empty():
    assert localize(list(range(-2, 4)), -2, 3).letters == ()


def test_localize_accepts_generator_windows():
    word = localize([theta(1)(j) for j in range(0, 4)], 0, 3)
    assert all(word(j) == theta(1)(j) for j in range(0, 4))


def test_localize_rejects_non_increasing():
    with pytest.raises(ValueError):
        localize([0, 0, 1], 0, 2)
    with pytest.raises(ValueError):
        localize([3, 2, 1], 0, 2)


@given(f=increasing_maps, k=st.integers(-10, 10), size=st.integers(0, 8))
@settings(max_examples=120)
def test_localize_matches_map_on_window(f, k, size):
    l = k + size
    word = localize([f(j) for j in range(k, l + 1)], k, l)
    assert all(word(j) == f(j) for j in range(k, l + 1))


def test_localize_handles_mixed_displacements():
    # Map needs pushes down at the left of the window and up at the right.
    values = [-4, -3, 1, 3]
    word = localize(values, -2, 1)
    assert [word(j) for j in range(-2, 2)] == values


def test_cycle_for_interval():
    sigma = cycle_for_interval(0, 2)
    assert [sigma(j) for j in range(0, 3)] == [1, 2, 3]
    assert sigma(3) == 0
    assert sigma.support == {0, 1, 2, 3}


def test_cycle_single_point_is_transposition():
    sigma = cycle_for_interval(5, 5)
    assert sigma(5) == 6 and sigma(6) == 5


def test_cycle_order():
    sigma = cycle_for_interval(1, 4)
    power = sigma
    for _ in range(len(sigma.support) - 1):
        power = power * sigma
    assert power.is_identity()


def test_cycle_rejects_bad_interval():
    with pytest.raises(ValueError):
        cycle_for_interval(3, 2)


def test_cycle_agrees_with_shift_on_interval(rng):
    for _ in range(20):
        k = int(rng.integers(-10, 10))
        l = k + int(rng.integers(0, 6))
        sigma = cycle_for_interval(k, l)
        assert all(sigma(j) == j + 1 for j in range(k, l + 1))


# ---------------------------------------------------------------------------
# Finite permutations


def test_permutation_basic():
    p = FinitePermutation.from_mapping({0: 1, 1: 0})
    assert p(0) == 1 and p(1) == 0 and p(7) == 7
    assert p.inverse() == p
    assert (p * p).is_identity()


def test_permutation_validation():
    with pytest.raises(ValueError):
        FinitePermutation(((0, 1),))  # 1 never maps back
    with pytest.raises(ValueError):
        FinitePermutation(((0, 1), (0, 2), (1, 0), (2, 0)))


def test_permutation_cycle_text():
    assert cycle_for_interval(0, 1).to_text() == "(0 1 2)"
    assert FinitePermutation().to_text() == "()"


def test_random_permutation_is_bijection(rng):
    for _ in range(25):
        p = random_permutation(rng, -3, 3)
        window = list(range(-3, 4))
        assert sorted(p(j) for j in window) == window


# ---------------------------------------------------------------------------
# Serialization


def test_map_text_roundtrip():
    for f in (identity_map(), psi(0), IncreasingMap(3, (-2, 0, 5))):
        assert IncreasingMap.from_text(f.to_text()) == f
    assert IncreasingMap.from_text("n=-1;gaps=[-1,0]") == IncreasingMap(-1, (-1, 0))
    with pytest.raises(ValueError):
        IncreasingMap.from_text("offset=1")


def test_word_text_roundtrip():
    word = GeneratorWord((ShiftLetter("T", 0), ShiftLetter("P", -3)))
    assert word.to_text() == "T(0).P(-3)"
    assert GeneratorWord.from_text(word.to_text()) == word
    assert GeneratorWord.from_text("") == GeneratorWord(())
    with pytest.raises(ValueError):
        GeneratorWord.from_text("Q(1)")


def test_random_increasing_map_respects_bounds(rng):
    for _ in range(50):
        f = random_increasing_map(rng)
        assert -5 <= f.offset <= 5
        assert len(f.gaps) <= 6
        assert all(-20 <= g <= 20 for g in f.gaps)


# ---------------------------------------------------------------------------
# Fast paths pinned to the slow ones

# Far past int64, so an array route that wrapped would show.
HUGE = 2**70


def maps_near(base, max_gaps=8):
    """Increasing maps whose offset and gaps lie within 30 of ``base``."""
    return st.builds(
        IncreasingMap,
        offset=st.integers(-30, 30).map(lambda d: base + d),
        gaps=st.sets(st.integers(-30, 30), max_size=max_gaps).map(
            lambda s: tuple(base + g for g in sorted(s))
        ),
    )


@given(data=st.data(), gap_base=st.sampled_from([0, HUGE, -HUGE]),
       offset_base=st.sampled_from([0, HUGE, -HUGE]))
@settings(max_examples=300)
def test_window_sweep_matches_scalar_evaluate(data, gap_base, offset_base):
    f = data.draw(maps_near(gap_base))
    f = IncreasingMap(offset_base + f.offset - gap_base, f.gaps)
    # Points whose shifted values land among the gaps, in increasing order,
    # with holes; and the values of another map on a window.
    near = gap_base - offset_base
    ks = sorted(data.draw(st.sets(st.integers(near - 45, near + 45), max_size=40)))
    assert evaluate_increasing(f, ks) == [evaluate(f, k) for k in ks]
    assert evaluate_increasing(f, ks) == [rank_equation_value(f, k) for k in ks]
    assert evaluate_increasing(f, []) == []
    g = data.draw(maps_near(near))
    window = range(-40, 41)
    values = evaluate_increasing(g, window)
    assert values == [evaluate(g, k) for k in window]
    assert values == [rank_equation_value(g, k) for k in window]
    assert evaluate_increasing(f, values) == [evaluate(f, v) for v in values]
    assert evaluate_increasing(f, values) == [rank_equation_value(f, v) for v in values]


def int_array(rows, width):
    """``rows`` as an int64 array where its values fit, of Python ints otherwise."""
    fits = all(-2**63 <= x < 2**63 for row in rows for x in row)
    return np.array(rows, np.int64 if fits else object).reshape(len(rows), width)


@given(data=st.data(), gap_base=st.sampled_from([0, 2**62, -2**62, HUGE, -HUGE]),
       offset_base=st.sampled_from([0, 2**62, -2**62, HUGE, -HUGE]),
       rows=st.integers(0, 6), width=st.integers(0, 12))
@settings(max_examples=300)
def test_rank_equation_rows_match_the_merge(data, gap_base, offset_base, rows, width):
    maps = [
        IncreasingMap(offset_base + f.offset - gap_base, f.gaps)
        for f in data.draw(st.lists(maps_near(gap_base, max_gaps=12), min_size=rows,
                                    max_size=rows))
    ]
    near = gap_base - offset_base  # points whose shifted values land among the gaps
    points = st.sets(st.integers(near - 45, near + 45), min_size=width, max_size=width)
    shared = sorted(data.draw(points))
    got = evaluate_rows(maps, shared)
    assert got.shape == (rows, width)
    assert got.tolist() == [evaluate_increasing(f, shared) for f in maps]
    own = [sorted(data.draw(points)) for _ in maps]
    got = evaluate_rows(maps, int_array(own, width))
    assert got.shape == (rows, width)
    assert got.tolist() == [evaluate_increasing(f, ks) for f, ks in zip(maps, own)]


words = st.lists(
    st.builds(ShiftLetter, st.sampled_from("TP"),
              st.integers(-8, 8) | st.integers(-8, 8).map(lambda h: HUGE + h)),
    max_size=7,
).map(tuple)


@given(letters=words, ks=st.lists(st.integers(-12, 12) | st.integers(HUGE - 12, HUGE + 12),
                                  max_size=10))
@settings(max_examples=300)
def test_word_letters_by_definition_match_realized_map(letters, ks):
    w = GeneratorWord(letters)
    pointwise = oracle_compose(
        *(oracle_theta(s.h) if s.kind == "T" else oracle_psi(s.h) for s in letters)
    )
    realized = w.realize()
    for k in ks:
        assert w(k) == realized(k) == pointwise(k)


def list_draw(rng, offset_range=(-5, 5), max_gaps=6, gap_range=(-20, 20)):
    """The draw of random_increasing_map from a list population of gaps."""
    offset = int(rng.integers(offset_range[0], offset_range[1] + 1))
    n_gaps = int(rng.integers(0, max_gaps + 1))
    pool = range(gap_range[0], gap_range[1] + 1)
    gaps = sorted(int(g) for g in rng.choice(list(pool), size=n_gaps, replace=False))
    return IncreasingMap(offset, tuple(gaps))


# Every argument set the sampling code uses, and one that may draw the whole
# gap range.
DRAW_ARGS = [(), ((-2, 2), 3, (-6, 6)), ((-2, 2), 3, (-8, 8)), ((0, 0), 3, (0, 2))]


@pytest.mark.parametrize("args", DRAW_ARGS)
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_integer_draw_keeps_the_list_draw_stream(args, seed):
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(30):
        assert random_increasing_map(fast, *args) == list_draw(slow, *args)
    assert fast.bit_generator.state == slow.bit_generator.state


def per_point_compose_oracle(config):
    """The compose oracle evaluating one window point at a time."""
    rng = np.random.default_rng(config.seed)
    lo, hi = config.window
    found = Deviations()
    for _ in range(config.samples):
        f = random_increasing_map(rng)
        g = random_increasing_map(rng)
        fg = suites.compose(f, g)
        for k in range(lo, hi + 1):
            dev = fg(k) - f(g(k))
            if dev:
                found.observe(dev, lambda _: {"f": f.to_text(), "g": g.to_text(), "k": k})
    found.samples = config.samples
    return found.report("monoid", "compose-oracle", "", config.seed, details={"window": [lo, hi]})


@pytest.mark.parametrize("broken", [
    lambda f, g: compose(theta(3), compose(f, g)),
    lambda f, g: compose(f, g) if g.gaps else compose(psi(-40), compose(f, g)),
])
def test_compose_oracle_sweep_keeps_the_per_point_witnesses(broken, monkeypatch):
    monkeypatch.setattr(suites, "compose", broken)
    config = suites.RunConfig(model="monoid", window=(-50, 50), samples=40, seed=3)
    got = suites.SUITES["monoid"]["compose-oracle"](config)
    want = per_point_compose_oracle(config)
    assert not got.passed and got.witnesses
    got.claim = want.claim
    assert got.to_json(include_wall_time=False) == want.to_json(include_wall_time=False)


@pytest.mark.parametrize("broken", [None, lambda f, g: compose(theta(3), compose(f, g))])
def test_compose_oracle_far_past_int64_keeps_the_per_point_report(broken, monkeypatch, tmp_path):
    if broken is not None:
        monkeypatch.setattr(suites, "compose", broken)
    window = (HUGE, HUGE + 100)
    code = main(["monoid", "--check", "compose-oracle", "--window", f"{HUGE}..{HUGE + 100}",
                 "--samples", "20", "--seed", "3", "--format", "json", "--out", str(tmp_path)])
    got = json.loads((tmp_path / "monoid_compose-oracle.json").read_text())
    want = per_point_compose_oracle(
        suites.RunConfig(model="monoid", window=window, samples=20, seed=3)
    ).to_dict(include_wall_time=False)
    assert code == (0 if broken is None else 1)
    assert bool(got["witnesses"]) is (broken is not None)
    del got["wall_time_s"]
    got["claim"] = want["claim"]
    assert got == want


def merge_stopping_at_gaps(f, ks):
    """:func:`evaluate_increasing` stepping past only the gaps below x, not
    those at x: a value that lands on a gap stays there."""
    gaps, offset = f.gaps, f.offset
    passed = 0
    out = []
    for k in ks:
        x = k + offset + passed
        while passed < len(gaps) and gaps[passed] < x:
            passed += 1
            x += 1
        out.append(x)
    return out


def test_a_merge_defect_fails_the_compose_oracle(monkeypatch):
    # compose builds the composite's gaps by the merge; the oracle evaluates
    # both sides by the rank equation, so it sees a defect the merge shares.
    monkeypatch.setattr(monoid, "evaluate_increasing", merge_stopping_at_gaps)
    config = suites.RunConfig(model="monoid", seed=20230526)
    report = suites.SUITES["monoid"]["compose-oracle"](config)
    assert not report.passed and report.max_deviation >= 1 and report.witnesses


def set_union_compose(f, g):
    """compose as it was: the gaps of f joined with their f-images in a set."""
    gaps = sorted(set(f.gaps).union(evaluate(f, x) for x in g.gaps))
    return IncreasingMap(f.offset + g.offset, tuple(gaps))


@given(data=st.data(), gap_base=st.sampled_from([0, HUGE, -HUGE]),
       offset_base=st.sampled_from([0, HUGE, -HUGE]))
@settings(max_examples=300)
def test_closed_forms_match_the_compose_routes(data, gap_base, offset_base):
    f = data.draw(maps_near(gap_base))
    f = IncreasingMap(offset_base + f.offset - gap_base, f.gaps)
    # g's gaps land among f's gaps under f.
    g = data.draw(maps_near(gap_base - offset_base))
    for a, b in ((f, g), (g, f), (f, f), (f, identity_map()), (identity_map(), g)):
        fast = compose(a, b)
        assert fast == set_union_compose(a, b)
        assert type(fast.gaps) is tuple and all(type(x) is int for x in fast.gaps)
    for h in (f, g):
        n, d = decompose_semidirect(h)
        assert (n, d) == (h.offset, compose(tau_pow(-h.offset), h))
        assert realize_pair((n, d)) == compose(tau_pow(n), d) == h
        m = data.draw(st.integers(-40, 40) | st.sampled_from([HUGE, -HUGE]))
        assert realize_pair((m, h)) == compose(tau_pow(m), h)


def three_list_localize(values, k, l):
    """localize as it was: every round builds the displacement list and the
    lists of too-low and too-high positions."""
    targets = list(values)
    current = list(range(k, l + 1))
    applied = []
    while True:
        deltas = [t - c for t, c in zip(targets, current)]
        too_low = [i for i, d in enumerate(deltas) if d > 0]
        too_high = [i for i, d in enumerate(deltas) if d < 0]
        if not too_low and not too_high:
            break
        if too_low:
            h = current[min(too_low)]
            applied.append(ShiftLetter("T", h))
            current = [c + 1 if c >= h else c for c in current]
        if too_high:
            h = current[max(too_high)]
            applied.append(ShiftLetter("P", h))
            current = [c - 1 if c <= h else c for c in current]
    return GeneratorWord(tuple(reversed(applied)))


@given(data=st.data(), base=st.sampled_from([0, HUGE, -HUGE]))
@settings(max_examples=300)
def test_localize_builds_the_three_list_word(data, base):
    f = data.draw(maps_near(base))
    f = IncreasingMap(f.offset - base, f.gaps)  # small displacements, large points
    k = data.draw(st.integers(base - 40, base + 40))
    l = k + data.draw(st.integers(0, 10))
    values = evaluate_increasing(f, range(k, l + 1))
    word = localize(values, k, l)
    greedy = three_list_localize(values, k, l)
    assert [word(j) for j in range(k, l + 1)] == [greedy(j) for j in range(k, l + 1)] == values
    assert len(word) == len(greedy)


@given(f=increasing_maps, k=st.integers(-10, 10), size=st.integers(0, 8))
@settings(max_examples=200)
def test_localize_is_the_partial_shift_factorization(f, k, size):
    l = k + size
    values = [f(j) for j in range(k, l + 1)]
    down, up = max(0, k - values[0]), max(0, values[-1] - l)
    word = localize(values, k, l)
    h = word.realize()
    assert (h.offset, h.right_offset) == (-down, up)
    # h extends the values by j - down below k and j + up above l.
    assert h.gaps == tuple(sorted(set(range(k - down, l + up + 1)) - set(values)))
    e = IncreasingMap(-down, h.gaps[:down])
    d = IncreasingMap(0, h.gaps[down:])
    assert word.letters == factor_E(e).letters + factor_D(d).letters
    # Each window point, letter by letter, stays in the hull of the window
    # and its images.
    lo, hi = min(k, values[0]), max(l, values[-1])
    for j in range(k, l + 1):
        for n in range(len(word) + 1):
            assert lo <= GeneratorWord(word.letters[n:])(j) <= hi


def second_pivot_moved(factor):
    """``factor`` with its second letter's pivot one higher."""
    def planted(f):
        letters = list(factor(f).letters)
        if len(letters) > 1:
            letters[1] = ShiftLetter(letters[1].kind, letters[1].h + 1)
        return GeneratorWord(tuple(letters))
    return planted


@pytest.mark.parametrize("name", ["factor_D", "factor_E"])
def test_a_factorization_defect_fails_monoid_localize(name, monkeypatch):
    monkeypatch.setattr(monoid, name, second_pivot_moved(getattr(monoid, name)))
    report = suites.SUITES["monoid"]["localize"](suites.RunConfig(model="monoid", seed=20230526))
    assert not report.passed and report.max_deviation >= 1 and report.witnesses


def test_monoid_builds_no_tuple_from_a_generator():
    """tuple() of a generator allocates a guessed size and shrinks it; the
    exact-monoid run's peak memory rose with it (see IncreasingMap._canonical)."""
    tree = ast.parse(Path(monoid.__file__).read_text())
    offending = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "tuple" and any(isinstance(a, ast.GeneratorExp) for a in node.args)
    ]
    assert offending == []


def rebuilt_cycle_localize(config):
    """monoid/localize building every window's cycle afresh."""
    rng = np.random.default_rng(config.seed)
    found = Deviations()
    for _ in range(config.samples):
        f = random_increasing_map(rng)
        k = int(rng.integers(-10, 11))
        l = k + int(rng.integers(0, 8))
        window = range(k, l + 1)
        values = [f(j) for j in window]
        r = localize(values, k, l)
        sigma = suites.cycle_for_interval(k, l)
        found.add(
            [r(j) - v for j, v in zip(window, values)] + [sigma(j) - (j + 1) for j in window],
            lambda _: {"f": f.to_text(), "interval": [k, l]},
        )
    return found.report("monoid", "localize", "", config.seed, details={})


def backward_on_some_windows(k, l):
    """A wrong cycle: the shift backwards, closing at k, on the windows with
    k * l = 1 mod 3, and the right cycle on the others; so a table keyed by
    less than the whole window would mix the two up."""
    points = list(range(k, l + 2))
    return FinitePermutation.from_cycle(points[::-1] if k * l % 3 == 1 else points)


@pytest.mark.parametrize("cycle", [None, backward_on_some_windows])
def test_localize_cycle_table_matches_rebuilt_cycles(cycle, monkeypatch):
    if cycle is not None:
        monkeypatch.setattr(suites, "cycle_for_interval", cycle)
    config = suites.RunConfig(model="monoid", samples=2000, seed=20230526)
    got = suites.SUITES["monoid"]["localize"](config)
    want = rebuilt_cycle_localize(config)
    assert got.passed is (cycle is None) and bool(got.witnesses) is (cycle is not None)
    got.claim = want.claim
    assert got.to_json(include_wall_time=False) == want.to_json(include_wall_time=False)
