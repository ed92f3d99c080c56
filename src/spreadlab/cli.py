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

from .reports import CSV_HEADER, SCHEMA, SuiteReport
from .suites import (
    ONE_MODEL_FIELDS, SUITES, ConfigError, RunConfig, all_rejects, check_read, read_lines,
    run_suites,
)

_WINDOW_RE = re.compile(r"(-?\d+)\.\.(-?\d+)")


def parse_window(text: str) -> tuple[int, int]:
    m = _WINDOW_RE.fullmatch(text.strip())
    if m is None:
        raise ConfigError(f"window must look like 'lo..hi', got {text!r}")
    return int(m.group(1)), int(m.group(2))


class Option(NamedTuple):
    """A :class:`RunConfig` field, its flags (its config keys are the field and
    each flag without dashes, ``-`` read as ``_``) and the one parser flags and
    keys go through (a repeated flag's values are joined with commas)."""

    field: str
    flags: tuple[str, ...]
    parse: Callable[[str], object]
    help: str | None = None
    metavar: str | None = None
    repeatable: bool = False

    @property
    def keys(self) -> tuple[str, ...]:
        spellings = (flag.lstrip("-").replace("-", "_") for flag in self.flags)
        return tuple(dict.fromkeys([self.field, *spellings]))

    def read(self, raw: str):
        try:
            return self.parse(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {self.field!r}: {exc}") from exc


def parse_suites(text: str) -> tuple[str, ...]:
    if names := tuple(s.strip() for s in text.split(",") if s.strip()):
        return names
    raise ValueError(f"no suite name in {text!r}")


OPTIONS = (
    Option("suites", ("--suite", "--check"), parse_suites,
           "suite to run (repeatable); default runs all suites of the model", "NAME", True),
    Option("window", ("--window",), parse_window, metavar="LO..HI"),
    Option("depth", ("--depth",), int),
    Option("q", ("--q",), float, "deformation in (-1, 1)"),
    Option("tol", ("--tol",), float,
           "bound in (0, 1e-12] of monotone/simplex, qdeformed/vacuum and"
           " boolean/simplex (default 1e-12)"),
    Option("samples", ("--samples",), int),
    Option("seed", ("--seed",), int),
    Option("fmt", ("--format",), str, metavar="{json,text,csv}"),
    Option("out", ("--out",), str, metavar="DIR"),
    Option("coupling", ("--C",), float, "kernel coupling"),
    Option("diagonal", ("--diag",), float),
    Option("words_file", ("--words-file",), str,
           "fixture of normally-ordered words, one D[..]A[..] per line", "FILE"),
)

_BY_KEY = {key: option for option in OPTIONS for key in option.keys}
_VALUE_FLAGS = {flag for option in OPTIONS for flag in option.flags} | {"--config"}


def read_config_file(path: str) -> dict[str, str]:
    """key=value lines; blank lines and #-comments ignored."""
    values: dict[str, str] = {}
    for _, line in read_lines(path, "config file"):
        if "=" not in line:
            raise ConfigError(f"bad config line {line!r}; expected key=value")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # an unknown flag or a missing value
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spreadlab", allow_abbrev=False,
        description="Run invariance and relation check suites for the operator models.",
    )
    sub = parser.add_subparsers(dest="model", required=True)
    for model in [*SUITES, "all"]:
        suites = ", ".join(SUITES.get(model, ["everything"]))
        p = sub.add_parser(model, allow_abbrev=False, help=f"suites: {suites}")
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
            "schema": SCHEMA,
            "passed": all(r.passed for r in reports),
            "suites": [r.to_dict() for r in reports],
        }
        (out_dir / "summary.json").write_text(
            json.dumps(summary, sort_keys=True, indent=2) + "\n"
        )
        (out_dir / "summary.csv").write_text("\n".join(csv_lines) + "\n")


def _bind_values(argv: list[str]) -> list[str]:
    """Join each value flag to the next token (``--q -1e-3`` to ``--q=-1e-3``)
    unless that is an option string, whose flag argparse then finds valueless."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] in _VALUE_FLAGS and token not in _VALUE_FLAGS | {"-h", "--help"}:
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    argv = _bind_values(argv if argv is not None else sys.argv[1:])
    try:
        args = build_parser().parse_args(argv)
        config = build_config(args)
        if config.out:  # made before any suite runs
            try:
                Path(config.out).mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"cannot create output directory: {exc}") from exc
        reports = run_suites(config)
        try:
            emit(reports, config)
        except OSError as exc:
            raise ConfigError(f"cannot write reports: {exc}") from exc
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    failed = [r for r in reports if not r.passed]
    if failed:
        names = ", ".join(f"{r.model}/{r.suite}" for r in failed)
        print(f"FAILED: {names}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
