"""Tests of the benchmark's own code: span self times, the wide-words
generator, the metric table, the layer wrappers and the correctness gate.

    python3 -m pytest -q perfbench/tests
"""

import re
import shutil
import subprocess
import sys
from pathlib import Path

import gate
import spec
import tracing
import wordgen

BENCH = Path(__file__).resolve().parent.parent


# -- self time ---------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 4] and c [5, 7]; b holds d [2, 3].
    names = ["a", "b", "c", "d"]
    spans = [(0, -1, 0.0, 10.0), (1, 0, 1.0, 4.0), (2, 0, 5.0, 7.0), (3, 1, 2.0, 3.0)]
    name, parent, start, end = zip(*spans)
    got = tracing.self_times(names, name, parent, start, end)
    assert got == {"a": (1, 5.0), "b": (1, 2.0), "c": (1, 2.0), "d": (1, 1.0)}


def test_self_time_sums_siblings_and_recursion_under_one_name():
    # f [0, 8] calls f [1, 3] and f [4, 6] (recursion), then g [6, 7].
    names = ["f", "g"]
    spans = [(0, -1, 0.0, 8.0), (0, 0, 1.0, 3.0), (0, 0, 4.0, 6.0), (1, 0, 6.0, 7.0)]
    name, parent, start, end = zip(*spans)
    got = tracing.self_times(names, name, parent, start, end)
    assert got == {"f": (3, 7.0), "g": (1, 1.0)}


def test_wrapped_calls_record_parent_links(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: float(next(ticks)))
    tracer = tracing.Tracer()
    leaf = tracer.wrap("leaf", lambda: None)
    outer = tracer.wrap("outer", lambda: (leaf(), leaf()))
    outer()
    outer()
    assert list(tracer.parent) == [-1, 0, 0, -1, 3, 3]
    # Each call reads the clock once on entry and once on exit.
    assert tracer.summary() == {"leaf": (4, 4.0), "outer": (2, 6.0)}


def test_observer_time_is_not_charged_to_the_enclosing_layer(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: float(next(ticks)))
    tracer = tracing.Tracer()
    seen = []
    leaf = tracer.wrap("leaf", lambda x: x + 1, observe=lambda a, k, r: seen.append(r))
    outer = tracer.wrap("outer", lambda: leaf(1))
    outer()
    assert seen == [2]
    summary = tracer.summary()
    # outer runs [0, 5]; leaf [1, 2] and the observer [3, 4] are subtracted.
    assert summary["outer"] == (1, 3.0)
    assert summary[tracing.OBSERVE] == (1, 1.0)


# -- wrappers on the real program ------------------------------------------------


def test_install_patches_every_alias_and_uninstall_restores():
    import spreadlab.cli  # noqa: F401  (imports every module before patching)
    import spreadlab.monoid as monoid
    import spreadlab.operators as operators
    import spreadlab.suites as suites
    import spreadlab.symmetry as symmetry

    originals = (operators.relabel, monoid.compose, monoid.evaluate)
    tracer = tracing.Tracer()
    for name, targets in spec.LAYERS.items():
        for module, path in targets:
            tracer.install(name, module, path)
    try:
        assert symmetry.relabel is operators.relabel is not originals[0]
        assert suites.compose is monoid.compose is not originals[1]
        # IncreasingMap.__call__ reaches evaluate through the module global.
        assert monoid.theta(0)(3) == 4
        w = operators.word(operators.creator(1))
        operators.relabel(w, monoid.tau_pow(1))
        summary = tracer.summary()
        assert summary["monoid.evaluate"][0] == 2
        assert summary["operators.relabel"][0] == 1
    finally:
        tracer.uninstall()
    assert (operators.relabel, monoid.compose, monoid.evaluate) == originals
    assert symmetry.relabel is originals[0] and suites.compose is originals[1]


def test_every_layer_target_exists():
    import importlib

    for targets in spec.LAYERS.values():
        for module, path in targets:
            owner = importlib.import_module(module)
            for part in path.split("."):
                owner = getattr(owner, part)


# -- wide-words generator ----------------------------------------------------------


def test_generator_is_deterministic(tmp_path):
    a, b, c = tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "c.txt"
    wordgen.write(a, wordgen.generate(7))
    wordgen.write(b, wordgen.generate(7))
    wordgen.write(c, wordgen.generate(8))
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_generated_words_are_distinct_bounded_and_cover_every_length():
    from spreadlab.monotone import LambdaForm

    forms = wordgen.generate(spec.DEFAULT_SEED)
    assert len(forms) == len(set(forms)) == wordgen.WORD_COUNT
    assert {len(c) + len(a) for c, a in forms} == {1, 2, 3, 4}
    lo, hi = wordgen.INDEX_RANGE
    for creators, annihilators in forms:
        assert len(creators) <= 2 and len(annihilators) <= 2
        assert all(lo <= i <= hi for i in creators + annihilators)
        parsed = LambdaForm.from_text(wordgen.to_text((creators, annihilators)))
        assert (parsed.creators, parsed.annihilators) == (creators, annihilators)
        assert [(l.kind.value, l.index) for l in parsed.word().letters] == list(
            wordgen.letters((creators, annihilators))
        )


def test_suffix_share():
    assert wordgen.suffix_share([]) == 0.0
    assert wordgen.suffix_share([("a",), ("b", "a"), ("c", "b", "a")]) == 1.0
    assert wordgen.suffix_share([("a",), ("b", "a"), ("c", "d")]) == 0.5


# -- metric table ------------------------------------------------------------------


def test_metric_names_and_counts():
    end_to_end = [n for n, *_ in spec.END_TO_END]
    per_layer = [n for n, *_ in spec.per_layer()]
    names = end_to_end + per_layer + list(spec.WORKLOADS)
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert len(set(names)) == len(names)
    assert 1 <= len(end_to_end) <= 16
    assert 1 <= len(per_layer) <= 128
    assert 2 <= len(spec.GATED) <= 8 and set(spec.GATED) <= set(spec.WORKLOADS)
    assert "setup_s" in end_to_end
    assert all(0 < bound <= 0.25 for *_, bound in spec.END_TO_END)
    assert max(b for *_, b in spec.END_TO_END) == dict(
        (n, b) for n, *_, b in spec.END_TO_END
    )["setup_s"]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec.WORKLOADS.values())


def test_benchmark_json_is_generated_from_spec():
    assert (BENCH.parent / "BENCHMARK.json").read_text() == spec.render()


# -- correctness gate -----------------------------------------------------------------


def _report(passed=True, samples=5, witnesses=1, dev=0.0):
    return {"passed": passed, "samples": samples, "skipped": 0, "max_deviation": dev,
            "witnesses": witnesses, "wall_time_s": 0.1}


def test_gate_failures():
    expected = ["monotone/simplex", "car/relations", "car/witness"]
    run = {"error": None, "suites": {
        "monotone/simplex": _report(witnesses=0),
        "car/relations": _report(samples=0),
        "boolean/simplex": _report(),
    }}
    assert gate.failures(expected, run) == {
        "monotone/simplex": "counterexample kept no witness",
        "car/relations": "zero samples",
        "car/witness": "no report",
        "boolean/simplex": "not expected in this workload",
    }
    raised = gate.failures(["car/witness"], {"error": "ValueError: x", "suites": {}})
    assert raised == {"car/witness": "raised ValueError: x"}
    assert gate.failures(["car/witness"], {"error": None, "suites": {
        "car/witness": _report(passed=False)}}) == {"car/witness": "verdict is FAIL"}


def test_gate_mismatches_ignore_wall_time():
    a = {"car/witness": _report()}
    b = {"car/witness": dict(_report(), wall_time_s=9.0)}
    assert gate.mismatches(a, b) == {}
    c = {"car/witness": _report(dev=1e-3)}
    assert gate.mismatches(a, c) == {"car/witness": "max_deviation differ between repetitions"}


def test_judge_counts_crashes_and_mismatches_and_keeps_going():
    import run

    def iteration(dev):
        suites = {"car/relations": _report(dev=dev)}
        return {"runs": [{"expected": ["car/relations"], "error": None, "suites": suites}]}

    runs = [(["car", "--check", "relations"], ("car/relations",))]
    attempted, failed = run.judge(
        runs, [iteration(0.0), {"crash": "worker exit 1"}, iteration(1.0)]
    )
    assert attempted == 3
    assert failed == {
        "car/relations (iteration 1)": "worker exit 1",
        "car/relations (iteration 2)": "max_deviation differ between repetitions",
    }


def test_run_refuses_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "full-suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
