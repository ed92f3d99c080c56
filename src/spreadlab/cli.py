"""Batch entry point: ``spreadlab <model> [--check NAME] [flags]``.

Models: monoid, monotone, qdeformed, boolean, car, or ``all``.  Flags may be
preloaded from a key=value config file (``--config``); explicit flags win.
Exit codes: 0 all selected suites pass, 1 a suite failed, 2 bad config.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from .reports import CSV_HEADER, SuiteReport
from .suites import SUITES, ConfigError, RunConfig, run_suites

_WINDOW_RE = re.compile(r"(-?\d+)\.\.(-?\d+)")


def parse_window(text: str) -> tuple[int, int]:
    m = _WINDOW_RE.fullmatch(text.strip())
    if m is None:
        raise ConfigError(f"window must look like 'lo..hi', got {text!r}")
    return int(m.group(1)), int(m.group(2))


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spreadlab",
        description="Run invariance and relation check suites for the operator models.",
    )
    sub = parser.add_subparsers(dest="model", required=True)
    for model in list(SUITES) + ["all"]:
        p = sub.add_parser(model, help=f"suites: {', '.join(SUITES.get(model, ['everything']))}")
        p.add_argument(
            "--suite",
            "--check",
            dest="suites",
            action="append",
            default=None,
            metavar="NAME",
            help="suite to run (repeatable); default runs all suites of the model",
        )
        p.add_argument("--window", default=None, metavar="LO..HI")
        p.add_argument("--depth", type=int, default=None)
        p.add_argument("--q", type=float, default=None, help="deformation in (-1, 1)")
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--format", dest="fmt", choices=("json", "text", "csv"), default=None)
        p.add_argument("--out", default=None, metavar="DIR")
        p.add_argument("--config", default=None, metavar="FILE", help="key=value defaults")
        p.add_argument("--C", dest="coupling", type=float, default=None, help="kernel coupling")
        p.add_argument("--diag", dest="diagonal", type=float, default=None)
        p.add_argument("--words-file", default=None, metavar="FILE",
                       help="fixture of normally-ordered words, one D[..]A[..] per line")
    return parser


_CONFIG_PARSERS = {
    "window": parse_window,
    "depth": int,
    "q": float,
    "tol": float,
    "samples": int,
    "seed": int,
    "fmt": str,
    "format": str,
    "out": str,
    "coupling": float,
    "C": float,
    "diag": float,
    "diagonal": float,
    "suites": lambda v: tuple(s.strip() for s in v.split(",") if s.strip()),
    "suite": lambda v: tuple(s.strip() for s in v.split(",") if s.strip()),
    "check": lambda v: tuple(s.strip() for s in v.split(",") if s.strip()),
    "words_file": str,
}

_CONFIG_ALIASES = {"format": "fmt", "C": "coupling", "diag": "diagonal",
                   "suite": "suites", "check": "suites"}


def build_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(model=args.model)
    if args.config:
        for key, raw in read_config_file(args.config).items():
            if key not in _CONFIG_PARSERS:
                raise ConfigError(f"unknown config key {key!r}")
            try:
                value = _CONFIG_PARSERS[key](raw)
            except (ValueError, ConfigError) as exc:
                raise ConfigError(f"bad value for {key!r}: {exc}") from exc
            setattr(config, _CONFIG_ALIASES.get(key, key), value)
    # Explicit flags override file values.
    for key in ("depth", "q", "tol", "samples", "seed", "fmt", "out",
                "coupling", "diagonal", "words_file"):
        value = getattr(args, key)
        if value is not None:
            setattr(config, key, value)
    if args.window is not None:
        config.window = parse_window(args.window)
    if args.suites is not None:
        config.suites = tuple(args.suites)
    config.validate()
    return config


def emit(reports: list[SuiteReport], config: RunConfig) -> None:
    out_dir = Path(config.out) if config.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
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
    parser = build_parser()
    args = parser.parse_args(_merge_window_values(argv if argv is not None else sys.argv[1:]))
    try:
        config = build_config(args)
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
