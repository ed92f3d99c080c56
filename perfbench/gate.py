"""Correctness gate behind ``fail_share``.

A suite counts as failed when its CLI invocation raised, when it is missing
from the reports or not expected there, when its verdict is not a pass, when
it reports zero samples, when a suite that must show a counterexample kept
no witness, or when its verdict-bearing fields differ from another
repetition with the same seed.
"""

from __future__ import annotations

from spec import WITNESS_SUITES

# Report fields that must repeat exactly for a fixed seed; ``witnesses`` is
# the number of witnesses kept.
VERDICT_FIELDS = ("passed", "samples", "skipped", "max_deviation", "witnesses")


def verdicts(summary: dict) -> dict[str, dict]:
    """Verdict fields and wall time per suite from a CLI ``summary.json``."""
    out = {}
    for report in summary["suites"]:
        fields = {key: report[key] for key in VERDICT_FIELDS if key != "witnesses"}
        fields["witnesses"] = len(report["witnesses"])
        fields["wall_time_s"] = report["wall_time_s"]
        out[f"{report['model']}/{report['suite']}"] = fields
    return out


def failures(expected, run: dict) -> dict[str, str]:
    """Failed suites of one invocation, each with its reason.

    ``run`` holds ``error`` (the exception text or None) and ``suites`` as
    returned by :func:`verdicts`.
    """
    if run["error"] is not None:
        return {suite: f"raised {run['error']}" for suite in expected}
    suites = run["suites"]
    out = {}
    for suite in expected:
        report = suites.get(suite)
        if report is None:
            out[suite] = "no report"
        elif not report["passed"]:
            out[suite] = "verdict is FAIL"
        elif report["samples"] == 0:
            out[suite] = "zero samples"
        elif suite in WITNESS_SUITES and report["witnesses"] == 0:
            out[suite] = "counterexample kept no witness"
    for suite in suites:
        if suite not in expected:
            out[suite] = "not expected in this workload"
    return out


def mismatches(first: dict, other: dict) -> dict[str, str]:
    """Suites whose verdict fields differ between two repetitions."""
    out = {}
    for suite in first.keys() | other.keys():
        a, b = first.get(suite), other.get(suite)
        if a is None or b is None:
            out[suite] = "present in one repetition only"
            continue
        diff = [key for key in VERDICT_FIELDS if a[key] != b[key]]
        if diff:
            out[suite] = f"{', '.join(diff)} differ between repetitions"
    return out
