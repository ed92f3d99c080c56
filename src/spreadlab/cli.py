"""Batch entry point: ``spreadlab <model> [--check NAME] [flags]``.

Models: monoid, monotone, qdeformed, boolean, car, or ``all``.  Flags may be
preloaded from a key=value config file (``--config``); explicit flags win.
A suite reads the options its plan takes as parameters; a suite-option flag
that no selected suite reads is bad config, checked from the plans'
signatures before any plan is built, and the same key in a config file is
ignored.  Exit codes: 0 all selected suites pass, 1 a suite failed, 2 bad
config.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from .reports import CSV_HEADER, SuiteReport
from .suites import (
    ONE_MODEL_FIELDS, SUITES, ConfigError, RunConfig, all_rejects, check_read, run_suites,
)

_WINDOW_RE = re.compile(r"(-?\d+)\.\.(-?\d+)")


def parse_window(text: str) -> tuple[int, int]:
    m = _WINDOW_RE.fullmatch(text.strip())
    if m is None:
        raise ConfigError(f"window must look like 'lo..hi', got {text!r}")
    return int(m.group(1)), int(m.group(2))


class Option(NamedTuple):
    """A :class:`RunConfig` field, its flag and config-key spellings and the one
    parser both go through (a repeated flag's values are joined with commas)."""

    field: str
    flags: tuple[str, ...]
    keys: tuple[str, ...]
    parse: Callable[[str], object]
    help: str | None = None
    metavar: str | None = None
    repeatable: bool = False

    def read(self, raw: str):
        try:
            return self.parse(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {self.field!r}: {exc}") from exc


OPTIONS = (
    Option("suites", ("--suite", "--check"), ("suites", "suite", "check"),
           lambda v: tuple(s.strip() for s in v.split(",") if s.strip()),
           "suite to run (repeatable); default runs all suites of the model", "NAME", True),
    Option("window", ("--window",), ("window",), parse_window, metavar="LO..HI"),
    Option("depth", ("--depth",), ("depth",), int),
    Option("q", ("--q",), ("q",), float, "deformation in (-1, 1)"),
    Option("tol", ("--tol",), ("tol",), float,
           "bound in (0, 1e-12] of monotone/simplex, qdeformed/vacuum and"
           " boolean/simplex (default 1e-12)"),
    Option("samples", ("--samples",), ("samples",), int),
    Option("seed", ("--seed",), ("seed",), int),
    Option("fmt", ("--format",), ("fmt", "format"), str, metavar="{json,text,csv}"),
    Option("out", ("--out",), ("out",), str, metavar="DIR"),
    Option("coupling", ("--C",), ("coupling", "C"), float, "kernel coupling"),
    Option("diagonal", ("--diag",), ("diagonal", "diag"), float),
    Option("words_file", ("--words-file",), ("words_file",), str,
           "fixture of normally-ordered words, one D[..]A[..] per line", "FILE"),
)

_BY_KEY = {key: option for option in OPTIONS for key in option.keys}


def read_config_file(path: str) -> dict[str, str]:
    """key=value lines; blank lines and #-comments ignored."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    values: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line {raw!r}; expected key=value")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # an unknown flag or a missing value
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spreadlab",
        description="Run invariance and relation check suites for the operator models.",
    )
    sub = parser.add_subparsers(dest="model", required=True)
    for model in [*SUITES, "all"]:
        p = sub.add_parser(model, help=f"suites: {', '.join(SUITES.get(model, ['everything']))}")
        for option in OPTIONS:
            p.add_argument(
                *option.flags, dest=option.field, metavar=option.metavar, help=option.help,
                action="append" if option.repeatable else "store",
            )
        p.add_argument("--config", metavar="FILE", help="key=value defaults")
    return parser


def build_config(args: argparse.Namespace) -> RunConfig:
    values = {}
    if args.config:
        for key, raw in read_config_file(args.config).items():
            if key not in _BY_KEY:
                raise ConfigError(f"unknown config key {key!r}")
            option = _BY_KEY[key]
            value = option.read(raw)
            # ``all`` skips the keys a shared file sets for single-model runs.
            if args.model != "all" or option.field not in ONE_MODEL_FIELDS:
                values[option.field] = value
    for option in OPTIONS:  # explicit flags win
        raw = getattr(args, option.field)
        if raw is None:
            continue
        if args.model == "all" and option.field in ONE_MODEL_FIELDS:
            raise all_rejects(option.field)
        values[option.field] = option.read(",".join(raw) if option.repeatable else raw)
    config = RunConfig(model=args.model, **values)
    config.validate()
    # A flag must reach a suite; a config-file key may reach none.
    check_read(config, [o.field for o in OPTIONS if getattr(args, o.field) is not None])
    return config


def emit(reports: list[SuiteReport], config: RunConfig) -> None:
    out_dir = Path(config.out) if config.out else None  # made by main
    csv_lines = [CSV_HEADER]
    for report in reports:
        name = f"{report.model}_{report.suite}"
        if config.fmt == "json":
            text = report.to_json()
        elif config.fmt == "csv":
            text = report.csv_row()
        else:
            text = report.to_text()
        csv_lines.append(report.csv_row())
        if out_dir:
            suffix = {"json": ".json", "csv": ".csv", "text": ".txt"}[config.fmt]
            (out_dir / (name + suffix)).write_text(text + "\n")
            if config.fmt != "json":
                (out_dir / (name + ".json")).write_text(report.to_json() + "\n")
        else:
            print(text)
            if config.fmt == "text":
                print()
    if out_dir:
        summary = {
            "schema": "report_v1",
            "passed": all(r.passed for r in reports),
            "suites": [r.to_dict() for r in reports],
        }
        (out_dir / "summary.json").write_text(
            json.dumps(summary, sort_keys=True, indent=2) + "\n"
        )
        (out_dir / "summary.csv").write_text("\n".join(csv_lines) + "\n")


def _merge_window_values(argv: list[str]) -> list[str]:
    """Join ``--window -4..4`` into ``--window=-4..4`` so argparse does not
    mistake a negative lower bound for an option."""
    out = []
    it = iter(argv)
    for token in it:
        if token == "--window":
            value = next(it, None)
            if value is None:
                out.append(token)
            else:
                out.append(f"--window={value}")
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    argv = _merge_window_values(argv if argv is not None else sys.argv[1:])
    try:
        args = build_parser().parse_args(argv)
        config = build_config(args)
        if config.out:  # made before any suite runs
            try:
                Path(config.out).mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"cannot create output directory: {exc}") from exc
        reports = run_suites(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    emit(reports, config)
    failed = [r for r in reports if not r.passed]
    if failed:
        names = ", ".join(f"{r.model}/{r.suite}" for r in failed)
        print(f"FAILED: {names}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
