"""The deviation accumulator behind every verdict, and the report it builds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FakeState
from spreadlab.monoid import tau_pow
from spreadlab.operators import creator, word
from spreadlab.reports import COVERAGE_FLOOR, Deviations, _magnitude
from spreadlab.symmetry import SymmetryFamily, check_symmetry

TOLS = (0.0, 1e-12, 0.25)


def reference(sizes, tol, keep):
    """Plain list-based verdict: the worst size (NaN if any), whether every
    size is within tol, and the positions of the first ``keep`` beyond it."""
    worst = math.nan if any(math.isnan(s) for s in sizes) else max(sizes, default=0.0)
    beyond = [i for i, s in enumerate(sizes) if not s <= tol]
    return worst, all(s <= tol for s in sizes), beyond[:keep]


def same_size(a, b):
    return (math.isnan(a) and math.isnan(b)) or a == b


def deviation_lists(tol):
    value = st.one_of(
        st.sampled_from([0.0, tol, -tol, 2 * tol + 1e-9, math.nan, 1.0, -1.0]),
        st.floats(-1.0, 1.0),
    )
    return st.lists(value, max_size=20)


@given(data=st.data(), tol=st.sampled_from(TOLS), keep=st.integers(0, 4))
@settings(max_examples=300, deadline=None)
def test_accumulator_matches_list_reference(data, tol, keep):
    devs = data.draw(deviation_lists(tol))
    found = Deviations(tol, keep)
    for i, dev in enumerate(devs):
        found.add(dev, lambda size, i=i: (i, size))
    worst, passed, kept = reference([abs(d) for d in devs], tol, keep)
    assert found.samples == len(devs)
    assert found.passed is passed
    assert same_size(found.max_deviation, worst)
    assert [i for i, _ in found.witnesses] == kept
    assert all(same_size(size, abs(devs[i])) for i, size in found.witnesses)


@given(data=st.data(), tol=st.sampled_from(TOLS[1:]))
@settings(max_examples=200, deadline=None)
def test_check_symmetry_matches_list_reference(data, tol):
    # Word i is c(i); the shift sends it to c(i+1), so sample i compares
    # values[i] with values[i+1].
    values = data.draw(deviation_lists(tol).filter(lambda v: len(v) >= 2))
    n = len(values) - 1
    state = FakeState((0, n), lambda w: values[w.indices()[0]])
    words = [word(creator(i)) for i in range(n)]
    check = check_symmetry(state, words, SymmetryFamily("shift", (tau_pow(1),)), tol)
    sizes = [abs(complex(values[i]) - complex(values[i + 1])) for i in range(n)]
    worst, passed, kept = reference(sizes, tol, 10)  # the witness cap
    assert (check.samples, check.skipped) == (n, 0)
    assert check.passed is passed
    assert same_size(check.max_deviation, worst)
    assert [w["word"] for w in check.witnesses] == [f"c({i})" for i in kept]


def test_nan_state_fails_with_witness():
    state = FakeState((-5, 5), lambda w: math.nan)
    check = check_symmetry(state, [word(creator(0))], SymmetryFamily("shift", (tau_pow(1),)))
    assert not check.passed
    assert math.isnan(check.max_deviation)
    assert check.witnesses[0]["word"] == "c(0)"


def test_nan_matrix_entry_fails_and_sticks():
    found = Deviations()
    found.add(np.zeros((2, 2)))
    found.add(np.array([[0.0, math.nan], [0.0, 0.0]]), lambda size: {"size": size})
    found.add(np.full((2, 2), 3.0), lambda size: {"size": size})
    assert not found.passed
    assert math.isnan(found.max_deviation)
    assert len(found.witnesses) == 2 and math.isnan(found.witnesses[0]["size"])
    assert not found.report("m", "s", "c", 0).passed


def test_tuple_of_parts_takes_the_largest():
    found = Deviations(0.5)
    size = found.add((np.array([0.25]), np.array([[-2.0, 1.0]]), 0.0))
    assert size == 2.0 and found.max_deviation == 2.0 and found.samples == 1


def test_list_deviations_stay_exact_and_keep_nan():
    assert _magnitude([2**53 + 1, -3]) == 2**53 + 1
    assert math.isnan(_magnitude([1, math.nan, 2]))
    found = Deviations()
    found.add([0, {1: [-3, 1]}])
    found.add([1, math.nan, 2])
    assert math.isnan(found.max_deviation) and not found.passed


@given(st.lists(st.integers() | st.integers(-2**70, 2**70)
                | st.sampled_from([2**53 + 1, -2**53 - 1, 2**63, -2**63]), max_size=20))
@settings(max_examples=200)
def test_int_list_fast_path_matches_the_general_path(entries):
    # A tuple of ints takes the general path, entry by entry.
    got, want = _magnitude(entries), _magnitude(tuple(entries))
    assert got == want and type(got) is type(want) is int
    assert got == max((abs(x) for x in entries), default=0)


def test_lists_of_other_entries_keep_their_sizes():
    assert math.isnan(_magnitude([1, math.nan]))
    assert _magnitude([True, -2]) == 2 and _magnitude([True]) == 1
    assert _magnitude([1, [-3]]) == 3 and _magnitude([1, {2: -4}]) == 4
    assert _magnitude([2, -2.5]) == 2.5 and _magnitude([np.array([-7.0]), 1]) == 7.0


def test_merge_keeps_counts_worst_verdict_and_cap():
    exact = Deviations(0.0)
    exact.observe(1e-15)  # within the parent's tolerance, not within its own
    loose = Deviations(1e-12, keep=2)
    for k in range(3):
        loose.add(1.0, lambda size, k=k: k)
    loose.skipped = 4
    found = Deviations(1e-12, keep=3)
    assert not found.merge(exact)
    assert found.max_deviation == 1e-15 and not found.passed
    assert not found.merge(loose)
    assert (found.samples, found.skipped) == (3, 4)
    assert found.max_deviation == 1.0 and not found.passed
    assert found.witnesses == [0, 1]


def test_merge_counterexample_takes_evidence_not_deviation():
    counter = Deviations(1e-12)
    for k in range(5):
        counter.add(1.0, lambda size, k=k: k)
    found = Deviations(1e-12)
    found.add(0.0)
    assert found.merge_counterexample(counter, keep=3)
    assert found.passed and found.max_deviation == 0.0
    assert found.samples == 6 and found.witnesses == [0, 1, 2]
    clean = Deviations(1e-12)
    clean.add(0.0)
    assert not Deviations().merge_counterexample(clean, keep=3)


def test_report_fails_without_samples():
    report = Deviations().report("m", "s", "c", 0)
    assert not report.passed
    assert report.details["failed_because"] == "zero samples"


@pytest.mark.parametrize("samples, skipped, passes", [(1, 0, True), (1, 1, True), (1, 2, False)])
def test_report_coverage_floor(samples, skipped, passes):
    found = Deviations()
    found.samples, found.skipped = samples, skipped
    report = found.report("m", "s", "c", 0, details={"kept": 1})
    assert COVERAGE_FLOOR == 0.5
    assert report.passed is passes
    assert ("failed_because" in report.details) is not passes
    assert report.details["kept"] == 1


def test_report_extra_condition_and_fields():
    found = Deviations(1e-12)
    found.add(np.array([1e-13, -2e-13]))
    assert found.report("m", "s", "c", 7).passed
    found.require(False)
    report = found.report("m", "s", "c", 7)
    assert not report.passed and "failed_because" not in report.details
    assert (report.samples, report.max_deviation, report.seed) == (1, 2e-13, 7)
