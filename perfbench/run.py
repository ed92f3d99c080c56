"""spreadlab benchmark: time to verdict, throughput and memory per workload.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Each measured iteration is a fresh
interpreter (``worker.py``) that imports ``spreadlab`` from ``src/``,
generates the workload's inputs from the seed and calls the public CLI entry
point ``spreadlab.cli.main`` in-process.  Iterations repeat, one after the
other: at least ``MIN_ITERATIONS``, and then more while the next one is
expected to end within ``--seconds``.  Each metric is the median over them.
Every report is checked by ``gate.py``.

With ``--trace 0`` the end-to-end metrics are printed: ``wall_s`` (first
suite started to last report written), ``samples_per_s`` (report samples
over ``wall_s``), ``cpu_s`` (user plus system CPU over the same interval),
``setup_s`` (process start to first suite, median over every iteration and
a group of ``SETUP_PROBES`` extra interpreters before each iteration and
after the last), ``peak_rss_mb`` and ``fail_share``.  With ``--trace 1``
one untraced and one traced iteration run, and the per-layer metrics are
printed instead.  Each workload's block starts with machine information.
The last line of output is always one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; with ``--workload all`` the
metric names carry the workload as a prefix.

Exits 2 without a result when ``src/spreadlab`` is missing or cannot be
imported.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import gate
import spec
from worker import SETUP_ERROR

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Every worker must have ended this long after the run starts.
RUN_DEADLINE_S = 170


class SetupError(RuntimeError):
    """The program under test could not be imported or set up."""


@dataclass
class Session:
    workload: str
    seed: int
    tmp: Path
    deadline: float  # time.monotonic() by which every worker must have ended

    def spawn(self, label: str, *flags: str) -> dict:
        """Run one worker; ``setup_s`` is added from this process's clock."""
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--tmp", str(self.tmp / label), *flags]
        started = time.monotonic()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                  timeout=max(1.0, self.deadline - started))
        except subprocess.TimeoutExpired:
            return {"crash": f"stopped after {RUN_DEADLINE_S} s into the run"}
        if proc.returncode == SETUP_ERROR:
            raise SetupError(proc.stderr.strip())
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"crash": f"worker exit {proc.returncode}: {proc.stderr.strip()[-400:]}"}
        result = json.loads(lines[-1])
        result["setup_s"] = result["ready"] - started
        return result


def judge(runs: list, iterations: list[dict]) -> tuple[int, dict[str, str]]:
    """Suites attempted and failed (with reasons) over all iterations of a
    workload whose invocations are ``runs``."""
    attempted = 0
    failed: dict[str, str] = {}
    first = None
    for i, it in enumerate(iterations):
        attempted += sum(len(expected) for _, expected in runs)
        if "crash" in it:
            for _, expected in runs:
                failed.update({f"{s} (iteration {i})": it["crash"] for s in expected})
            continue
        suites = {}
        for run in it["runs"]:
            suites.update(run["suites"])
            bad = gate.failures(run["expected"], run)
            failed.update({f"{s} (iteration {i})": why for s, why in bad.items()})
        if first is None:
            first = suites
        else:
            bad = gate.mismatches(first, suites)
            failed.update({f"{s} (iteration {i})": why for s, why in bad.items()})
    return attempted, failed


def suite_walls(it: dict) -> dict[str, float]:
    return {s: v["wall_time_s"] for run in it["runs"] for s, v in run["suites"].items()}


def samples(it: dict) -> int:
    return sum(v["samples"] for run in it["runs"] for v in run["suites"].values())


def timed(session: Session, seconds: float) -> tuple[list[dict], dict, dict]:
    probes: list[dict] = []

    def probe_group() -> None:
        for _ in range(spec.SETUP_PROBES):
            probes.append(session.spawn(f"probe-{len(probes)}", "--setup-only"))

    iterations = []
    lengths = []  # seconds each probe group and iteration took
    begin = time.monotonic()
    while (len(iterations) < spec.MIN_ITERATIONS
           or time.monotonic() - begin + statistics.median(lengths) <= seconds):
        started = time.monotonic()
        probe_group()
        iterations.append(session.spawn(f"iter-{len(iterations)}"))
        lengths.append(time.monotonic() - started)
    probe_group()
    ok = [it for it in iterations if "crash" not in it]
    values = {}
    setups = [p["setup_s"] for p in probes + ok if "setup_s" in p]
    if setups:
        values["setup_s"] = statistics.median(setups)
    if ok:
        values["wall_s"] = statistics.median(it["wall_s"] for it in ok)
        values["samples_per_s"] = statistics.median(samples(it) / it["wall_s"] for it in ok)
        values["cpu_s"] = statistics.median(it["cpu_s"] for it in ok)
        values["peak_rss_mb"] = statistics.median(it["peak_rss_mb"] for it in ok)
    loops = [p["reference_loop_s"] for p in probes if "reference_loop_s" in p]
    notes = {"reference_loop_ms": 1000 * statistics.median(loops)} if loops else {}
    return iterations, values, notes


def traced(session: Session) -> tuple[list[dict], dict, dict]:
    plain = session.spawn("untraced")
    probe = session.spawn("traced", "--trace")
    iterations = [plain, probe]
    if "crash" in plain or "crash" in probe:
        return iterations, {}, {}
    layers, counters = probe["layers"], probe["counters"]
    values = {}
    for name in spec.LAYERS:
        calls, self_s = layers.get(name, (0, 0.0))
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
    seen = counters["samples"] + counters["skipped"]
    values.update({
        "symmetry.samples": counters["samples"],
        "symmetry.skipped": counters["skipped"],
        "symmetry.coverage": ratio(counters["samples"], seen),
        "symmetry.eval_distinct_ratio": ratio(counters["distinct_evaluations"],
                                              counters["state_calls"]),
        "symmetry.witness_keep_ratio": ratio(counters["witnesses"],
                                             counters["describe_map_calls"]),
        "reports.bytes": counters["report_bytes"],
        "input.words": counters["words"],
        "input.suffix_share": counters["suffix_share"],
    })
    walls = suite_walls(plain)
    values["cli.overhead_s"] = plain["wall_s"] - sum(walls.values())
    values["trace.overhead_s"] = probe["wall_s"] - plain["wall_s"]
    for suite in spec.ALL_SUITES:
        values[spec.suite_metric(suite)] = walls.get(suite, 0.0)
    return iterations, values, {}


def ratio(num: float, den: float) -> float:
    """num / den, or 0.0 when nothing was attempted (den == 0)."""
    return num / den if den else 0.0


def measure(workload: str, args: argparse.Namespace) -> tuple[int, dict[str, str], dict, bool]:
    """Run one workload and print its block: suites attempted, failed suites,
    metrics, and whether every metric of the table was measured."""
    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    session = Session(workload, args.seed, tmp, time.monotonic() + RUN_DEADLINE_S)
    try:
        if args.trace:
            iterations, values, notes = traced(session)
            table = spec.per_layer()
        else:
            iterations, values, notes = timed(session, args.seconds)
            table = [(n, u, b) for n, u, b, _ in spec.END_TO_END]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if tmp.parent.is_dir() and not any(tmp.parent.iterdir()):
            tmp.parent.rmdir()

    attempted, failed = judge(spec.WORKLOADS[workload]["runs"], iterations)
    machine = next((it["machine"] for it in iterations if "machine" in it), {})
    print(f"workload {workload}  seed {args.seed}  trace {args.trace}"
          f"  iterations {len(iterations)}")
    print("machine " + json.dumps({**machine, **notes}, sort_keys=True))
    metrics = {}
    for name, unit, _ in table:
        if name in values:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"{name:<36} {values[name]:.6g} {unit}")
    print(f"{'fail_share':<36} {ratio(len(failed), attempted):.6g} share"
          f"  ({len(failed)} of {attempted} suites failed)")
    for suite, why in sorted(failed.items()):
        print(f"FAILED {suite}: {why}")
    return attempted, failed, metrics, len(metrics) == len(table)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*spec.WORKLOADS, "all"],
                        help="one workload, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, on which subprocess.run
    # kills and reaps the running worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "spreadlab" / "__init__.py").is_file():
        print(f"no spreadlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = list(spec.WORKLOADS) if args.workload == "all" else [args.workload]
    attempted, failed, metrics, complete = 0, 0, {}, True
    for workload in workloads:
        try:
            n, bad, values, whole = measure(workload, args)
        except SetupError as exc:
            print(f"set-up failed: {exc}", file=sys.stderr)
            return 2
        attempted += n
        failed += len(bad)
        complete = complete and whole
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics.update({prefix + name: v for name, v in values.items()})
    print(json.dumps({"correct": complete and not failed, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
