"""One iteration of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --tmp DIR [--setup-only] [--trace]

Imports ``spreadlab`` from ``src/``, generates the workload's inputs under
DIR, then calls ``spreadlab.cli.main`` in-process for each of the workload's
invocations, with ``--format json --out`` pointing under DIR.  Prints one
JSON line: the monotonic time set-up ended (``ready``), wall and CPU seconds
over the invocations, peak resident memory, the verdict fields of every
report and machine information.  With ``--setup-only`` it stops after
``ready`` and times ``reference_loop`` instead, so that a slow run can be told
apart from a slow machine.  With ``--trace`` it first patches spans around every layer in
``spec.LAYERS`` and adds per-layer calls, self times and harness counters.

Exits 3 when ``spreadlab`` cannot be imported.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

import gate
import spec
import tracing
import wordgen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_ERROR = 3


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop: the machine's speed right now."""
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return time.perf_counter() - start


class HarnessCounters:
    """Counts taken at the symmetry harness boundary during a traced run."""

    def __init__(self) -> None:
        self.samples = self.skipped = self.witnesses = 0
        self.words: set[tuple] = set()
        self.evaluations: set[tuple] = set()
        # Keeps every evaluated state alive so that its id is never reused.
        self._states: dict[int, object] = {}

    def on_check(self, args, kwargs, report) -> None:
        self.samples += report.samples
        self.skipped += report.skipped
        self.witnesses += len(report.witnesses)
        words = kwargs["words"] if "words" in kwargs else args[1]
        if isinstance(words, (list, tuple)):
            self.words.update(w.letters for w in words)

    def on_state_call(self, args, kwargs, value) -> None:
        state, w = args
        self._states[id(state)] = state
        self.evaluations.add((id(state), w.letters))


def machine_info() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
    }


def blas_threads() -> int | str:
    """Threads the OpenBLAS bundled with numpy will use, asked from the
    library itself; falls back to the environment when it cannot be found."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var):
            return f"{var}={os.environ[var]}"
    return "unknown"


def install_tracing(counters: HarnessCounters) -> tracing.Tracer:
    tracer = tracing.Tracer()
    observers = {
        "symmetry.check_symmetry": counters.on_check,
        "operators.state_call": counters.on_state_call,
    }
    for name, targets in spec.LAYERS.items():
        for module, path in targets:
            tracer.install(name, module, path, observers.get(name))
    return tracer


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import spreadlab.cli as cli
    except ImportError as exc:
        print(f"cannot import spreadlab from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return SETUP_ERROR

    tmp = Path(args.tmp)
    tmp.mkdir(parents=True, exist_ok=True)
    words_file = tmp / "words.txt"
    if args.workload == "wide-words":
        wordgen.write(words_file, wordgen.generate(args.seed))
    invocations = []
    for k, (template, expected) in enumerate(spec.WORKLOADS[args.workload]["runs"]):
        out_dir = tmp / f"out-{k}"
        argv = [a.format(seed=args.seed, words=words_file) for a in template]
        invocations.append((argv + ["--format", "json", "--out", str(out_dir)], expected, out_dir))
    counters = HarnessCounters() if args.trace else None
    tracer = install_tracing(counters) if args.trace else None
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready, "reference_loop_s": reference_loop()}))
        return 0

    errors = []
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for argv, _, _ in invocations:
        try:
            cli.main(argv)
            errors.append(None)
        except Exception as exc:  # the gate counts it as failed suites
            errors.append(f"{type(exc).__name__}: {exc}")
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    runs = []
    for (_, expected, out_dir), error in zip(invocations, errors):
        summary = out_dir / "summary.json"
        suites = gate.verdicts(json.loads(summary.read_text())) if summary.is_file() else {}
        runs.append({"expected": list(expected), "error": error, "suites": suites})
    result = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_kb / 1024,
        "runs": runs,
        "machine": machine_info(),
    }
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.summary()
        calls = {name: layers.get(name, (0, 0.0))[0] for name in spec.LAYERS}
        result["layers"] = layers
        result["counters"] = {
            "samples": counters.samples,
            "skipped": counters.skipped,
            "witnesses": counters.witnesses,
            "state_calls": calls["operators.state_call"],
            "distinct_evaluations": len(counters.evaluations),
            "describe_map_calls": calls["symmetry.describe_map"],
            "words": len(counters.words),
            "suffix_share": wordgen.suffix_share(counters.words),
            "report_bytes": sum(tree_bytes(out) for _, _, out in invocations if out.is_dir()),
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
