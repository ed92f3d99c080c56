"""Machine- and human-readable suite reports (schema ``report_v1``).

A suite run produces one :class:`SuiteReport`: the claim it verifies, the
pass/fail verdict with the worst deviation seen, counts, witnesses, and the
seed that reproduces it.  JSON output is key-sorted so identical runs are
byte-identical except for the wall-time field.

Every verdict follows one rule, kept by :class:`Deviations`: the worst
deviation over the sampled cases is compared with a tolerance, and the first
few cases beyond it are kept as witnesses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

SCHEMA = "report_v1"

# A suite that evaluated fewer than this share of the cases it sampled (the
# rest escaped the state window) has shown nothing and fails.
COVERAGE_FLOOR = 0.5


def jsonable(value: Any) -> Any:
    """Recursively convert report payloads to plain JSON types; complex
    numbers become [real, imag] pairs."""
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, str)):
        return value
    return str(value)


@dataclass
class SuiteReport:
    model: str
    suite: str
    claim: str
    passed: bool
    seed: int
    samples: int = 0
    skipped: int = 0
    max_deviation: float = 0.0
    witnesses: list = field(default_factory=list)
    details: dict = field(default_factory=dict)
    wall_time_s: float = 0.0

    def to_dict(self, include_wall_time: bool = True) -> dict:
        data = {
            "schema": SCHEMA,
            "model": self.model,
            "suite": self.suite,
            "claim": self.claim,
            "passed": bool(self.passed),
            "seed": int(self.seed),
            "samples": int(self.samples),
            "skipped": int(self.skipped),
            "max_deviation": float(self.max_deviation),
            "witnesses": jsonable(self.witnesses),
            "details": jsonable(self.details),
        }
        if include_wall_time:
            data["wall_time_s"] = self.wall_time_s
        return data

    def to_json(self, include_wall_time: bool = True) -> str:
        return json.dumps(self.to_dict(include_wall_time), sort_keys=True, indent=2)

    def to_text(self) -> str:
        rows = [
            ("suite", f"{self.model}/{self.suite}"),
            ("claim", self.claim),
            ("verdict", "pass" if self.passed else "FAIL"),
            ("samples", str(self.samples)),
            ("skipped", str(self.skipped)),
            ("max deviation", f"{self.max_deviation:.3e}"),
            ("seed", str(self.seed)),
            ("wall time", f"{self.wall_time_s:.2f} s"),
        ]
        for key, value in sorted(self.details.items()):
            rows.append((key, str(jsonable(value))))
        width = max(len(k) for k, _ in rows)
        lines = [f"{k:<{width}}  {v}" for k, v in rows]
        for w in self.witnesses:
            lines.append(f"  witness: {jsonable(w)}")
        return "\n".join(lines)

    def csv_row(self) -> str:
        return ",".join(
            str(v)
            for v in (
                self.model,
                self.suite,
                "pass" if self.passed else "fail",
                self.samples,
                self.skipped,
                f"{self.max_deviation:.16g}",
                self.seed,
                f"{self.wall_time_s:.3f}",
            )
        )


CSV_HEADER = "model,suite,verdict,samples,skipped,max_deviation,seed,wall_time_s"


def _magnitude(deviation: Any) -> Any:
    """Size of a deviation: ``abs`` of a scalar (exact for ints and
    Fractions), the largest entry size of a list, a tuple of parts or a nested
    dict (a sparse map; exact), or of an array.  A NaN anywhere gives NaN."""
    if type(deviation) is list and all(type(x) is int for x in deviation):
        return max(map(abs, deviation), default=0)  # no NaN, nothing nested
    if isinstance(deviation, (dict, list, tuple)):  # a NaN ranks above every number
        entries = deviation.values() if isinstance(deviation, dict) else deviation
        return max(map(_magnitude, entries), key=lambda size: (size != size, size), default=0)
    if isinstance(deviation, np.ndarray):
        return float(np.max(np.abs(deviation), initial=0.0))
    return abs(deviation)


class Deviations:
    """The one verdict rule: the worst deviation over the sampled cases,
    compared with ``tol``, with the first ``keep`` cases beyond it kept as
    witnesses.

    A NaN deviation is never within tolerance: it sticks as the maximum and
    its case is kept.  A witness is built, by calling ``witness(size)``, only
    for a kept case.  Sub-checks fold in with :meth:`merge`; a check that must
    fail folds in with :meth:`merge_counterexample`; a condition that is no
    deviation folds in with :meth:`require`.
    """

    def __init__(self, tol: float = 0.0, keep: int = 5) -> None:
        self.tol = tol
        self.keep = keep
        self.samples = 0
        self.skipped = 0
        self.max_deviation: Any = 0.0
        self.witnesses: list = []
        self._ok = True

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tol and self._ok

    def add(self, deviation: Any, witness: Callable[[Any], Any] | None = None) -> Any:
        """One sampled case; returns the size of its deviation."""
        self.samples += 1
        return self.observe(deviation, witness)

    def observe(self, deviation: Any, witness: Callable[[Any], Any] | None = None) -> Any:
        """A deviation that is no sample of its own (part of a case, or a case
        the caller counts); returns its size."""
        size = _magnitude(deviation)
        if size > self.max_deviation or size != size:
            self.max_deviation = size
        if not size <= self.tol and witness is not None and len(self.witnesses) < self.keep:
            self.witnesses.append(witness(size))
        return size

    def merge(self, other: "Deviations") -> bool:
        """Fold in a sub-check: its counts, its worst deviation, its verdict
        and its witnesses up to this cap.  Returns whether it passed."""
        self.samples += other.samples
        self.skipped += other.skipped
        self.observe(other.max_deviation)
        self.require(other.passed)
        self.witnesses.extend(other.witnesses[: self.keep - len(self.witnesses)])
        return other.passed

    def merge_counterexample(self, other: "Deviations", keep: int) -> bool:
        """Fold in a sub-check that must fail: its counts, and its first
        ``keep`` witnesses as evidence.  Its deviations are expected and stay
        out of this check's maximum.  Returns whether it failed with a
        witness."""
        self.samples += other.samples
        self.skipped += other.skipped
        self.witnesses.extend(other.witnesses[: min(keep, self.keep - len(self.witnesses))])
        return not other.passed and bool(other.witnesses)

    def require(self, ok: bool) -> None:
        """Fold in an extra condition of the verdict."""
        self._ok = self._ok and bool(ok)

    def report(self, model: str, suite: str, claim: str, seed: int,
               details: dict | None = None) -> SuiteReport:
        """The suite verdict: within tolerance, every required condition, and
        not vacuous (some samples, and coverage samples / (samples + skipped)
        at least ``COVERAGE_FLOOR``)."""
        details = dict(details or {})
        seen = self.samples + self.skipped
        if self.samples == 0:
            details["failed_because"] = "zero samples"
        elif self.samples / seen < COVERAGE_FLOOR:
            details["failed_because"] = (
                f"coverage {self.samples / seen:.3f} below the floor {COVERAGE_FLOOR}"
            )
        return SuiteReport(
            model, suite, claim,
            passed=self.passed and "failed_because" not in details,
            seed=seed, samples=self.samples, skipped=self.skipped,
            max_deviation=float(self.max_deviation), witnesses=self.witnesses, details=details,
        )
