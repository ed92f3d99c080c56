"""What the benchmark runs and what it reports, in one place.

Running this file writes ``BENCHMARK.json`` at the repository root from the
tables below, so the file and the code that fills it cannot drift apart:

    python3 perfbench/spec.py
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 20230526
# On the 2-core shared host this was tuned on, the speed of the whole machine
# moves by a third for a minute at a time (a fixed Python loop ran 7.3 ms in
# one minute and 11-12 ms around it), so a run must span long stretches of
# such shifts to repeat: ten-run quartile spreads of that loop fell from
# about 0.3 for 15 s runs to 0.15 for 40 s runs.
RUN_SECONDS = 50
# Every run repeats the workload at least this often, so that the gate can
# compare verdicts between repetitions with the same seed.  Past that, a new
# iteration starts only if it is expected to end within ``--seconds``.
MIN_ITERATIONS = 2
# Fresh interpreters started only to time set-up, in a group before every
# iteration and after the last; set-up is the median over them and the
# iterations.  Import time here shifts by a third within seconds, with how
# busy the other core is (OpenBLAS starts its threads on import), so the
# probes are spread over the run rather than taken at once.
SETUP_PROBES = 3

# Every suite of ``spreadlab all``, in run order.  The gate expects each to
# pass; ``WITNESS_SUITES`` must also show their built-in counterexample.
ALL_SUITES = (
    "monoid/compose-oracle", "monoid/semidirect", "monoid/localize",
    "monotone/relations", "monotone/hamel", "monotone/simplex",
    "qdeformed/inner", "qdeformed/relations", "qdeformed/vacuum",
    "boolean/relations", "boolean/morphism", "boolean/simplex",
    "car/relations", "car/stationary", "car/witness", "car/positivity",
)
WITNESS_SUITES = frozenset({"monotone/simplex", "qdeformed/vacuum"})

# Each workload is a list of CLI invocations, run in order in one process,
# with the suites each is expected to report.  ``{seed}`` and ``{words}`` are
# filled in by the worker; every invocation also gets
# ``--format json --out <dir>`` so its reports can be read back.
WORKLOADS = {
    "full-suite": {
        "why": "the seeded 'spreadlab all' run; every word suffix is itself a word,"
        " so repeated state evaluations dominate (harness and dict walkers)",
        "runs": [(["all", "--seed", "{seed}"], ALL_SUITES)],
    },
    "wide-words": {
        "why": "3000 seeded random normally ordered words on a wide window; the same"
        " harness with far less suffix sharing, so caches that pay off above must not cost",
        "runs": [
            (["monotone", "--check", "simplex", "--window", "-14..14",
              "--words-file", "{words}", "--seed", "{seed}"], ("monotone/simplex",)),
        ],
    },
    "builders": {
        "why": "matrix and Gram builders (q-Gram at depth 4, fermion kron chain, monotone"
        " letter matrices) with the symmetry harness idle",
        "runs": [
            (["qdeformed", "--check", "relations", "--window", "0..3", "--depth", "4",
              "--seed", "{seed}"], ("qdeformed/relations",)),
            (["car", "--check", "relations", "--seed", "{seed}"], ("car/relations",)),
            (["monotone", "--check", "relations", "--window", "0..9", "--seed", "{seed}"],
             ("monotone/relations",)),
        ],
    },
    "exact-monoid": {
        "why": "exact integer and Fraction arithmetic with no matrices and no harness;"
        " the only workload where the monoid layer does most of the work",
        "runs": [
            (["monoid", "--samples", "10000", "--seed", "{seed}"],
             ("monoid/compose-oracle", "monoid/semidirect", "monoid/localize")),
            (["qdeformed", "--check", "inner", "--seed", "{seed}"], ("qdeformed/inner",)),
        ],
    },
}

# The workloads listed in ``BENCHMARK.json``.  Runs of 50 s on four
# workloads do not fit the time a full check of the benchmark may take
# (22 runs per workload), so two are gated: ``full-suite`` runs every
# module, and ``exact-monoid`` is the only workload where the monoid layer
# does most of the work.  ``wide-words`` and ``builders`` stay runnable by
# name and under ``--workload all``.
GATED = ("full-suite", "exact-monoid")

# (name, unit, better, bound).  ``fail_share`` is printed with the others but
# kept out of this table: it is 0 on a correct run, and the result line
# carries the same information exactly as ``failed`` over ``attempted``.
# The time bounds are as wide as allowed, for the shifts in machine speed
# described at ``RUN_SECONDS``.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("samples_per_s", "1/s", "higher", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
)

# Traced layers: each name is timed around every function listed for it,
# given as (module, attribute path).  Each yields ``<name>.calls`` and
# ``<name>.self_s``.
LAYERS = {
    "monoid.evaluate": [("spreadlab.monoid", "evaluate")],
    "monoid.compose": [("spreadlab.monoid", "compose")],
    "operators.relabel": [("spreadlab.operators", "relabel")],
    "operators.state_call": [("spreadlab.operators", "StateFunctional.__call__")],
    "operators.admits": [("spreadlab.operators", "StateFunctional.admits")],
    "operators.matmul": [("spreadlab.operators", "Operator.__matmul__")],
    "operators.evaluate_word": [("spreadlab.operators", "evaluate_word")],
    "operators.metric_adjoint": [("spreadlab.operators", "metric_adjoint")],
    "symmetry.check_symmetry": [("spreadlab.symmetry", "check_symmetry")],
    "symmetry.describe_map": [("spreadlab.symmetry", "describe_map")],
    "monotone.apply_word": [("spreadlab.monotone", "MonotoneBasis.apply_word")],
    "monotone.matrix": [
        ("spreadlab.monotone", "MonotoneBasis.creator"),
        ("spreadlab.monotone", "MonotoneBasis.annihilator"),
        ("spreadlab.monotone", "MonotoneBasis.position"),
    ],
    "qfock.apply_word": [("spreadlab.qfock", "QBasis.apply_word")],
    "qfock.gram": [("spreadlab.qfock", "QBasis.gram")],
    "qfock.q_inner": [("spreadlab.qfock", "q_inner")],
    "qfock.q_inner_recursive": [("spreadlab.qfock", "q_inner_recursive")],
    "qfock.matrix": [
        ("spreadlab.qfock", "QBasis.creator"),
        ("spreadlab.qfock", "QBasis.annihilator"),
        ("spreadlab.qfock", "QBasis.position"),
    ],
    "boolean.alpha": [("spreadlab.boolean", "alpha")],
    "car.annihilator": [("spreadlab.car", "FermionChain.annihilator")],
    "reports.emit": [
        ("spreadlab.reports", "SuiteReport.to_json"),
        ("spreadlab.reports", "SuiteReport.to_text"),
        ("spreadlab.reports", "SuiteReport.csv_row"),
        ("spreadlab.cli", "emit"),
    ],
}

# (name, unit, better) of the counters and ratios the traced run adds.
COUNTERS = (
    ("symmetry.samples", "count", "higher"),
    ("symmetry.skipped", "count", "lower"),
    ("symmetry.coverage", "ratio", "higher"),
    ("symmetry.eval_distinct_ratio", "ratio", "higher"),
    ("symmetry.witness_keep_ratio", "ratio", "higher"),
    ("reports.bytes", "count", "lower"),
    ("input.words", "count", "higher"),
    ("input.suffix_share", "ratio", "higher"),
    ("cli.overhead_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def suite_metric(suite: str) -> str:
    """Per-suite wall-time metric, e.g. ``suites.qdeformed.vacuum.wall_s``."""
    model, name = suite.split("/")
    return f"suites.{model}.{name}.wall_s"


def per_layer() -> list[tuple[str, str, str]]:
    out = []
    for name in LAYERS:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    out.extend(COUNTERS)
    out.extend((suite_metric(s), "s", "lower") for s in ALL_SUITES)
    return out


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": WORKLOADS[n]["why"]} for n in GATED],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in per_layer()],
    }


def render() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


if __name__ == "__main__":
    (ROOT / "BENCHMARK.json").write_text(render())
