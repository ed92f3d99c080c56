"""Command-line behavior: flags, config files, exit codes, report files."""

import functools
import inspect
import json
import re
from pathlib import Path

import pytest

from spreadlab.cli import (
    OPTIONS, build_config, build_parser, main, parse_window, read_config_file,
)
from spreadlab.reports import Deviations
from spreadlab import qfock, suites
from spreadlab.suites import SUITES, ConfigError, RunConfig, run_suites


def test_parse_window():
    assert parse_window("-4..4") == (-4, 4)
    assert parse_window("0..7") == (0, 7)
    with pytest.raises(ConfigError):
        parse_window("4")
    with pytest.raises(ConfigError):
        parse_window("a..b")


def test_exit_zero_on_pass(capsys):
    assert main(["monoid", "--suite", "compose-oracle", "--samples", "50", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "compose-oracle" in out and "pass" in out


def test_exit_two_on_bad_q(capsys):
    assert main(["qdeformed", "--check", "inner", "--q", "1.5"]) == 2
    assert "config error" in capsys.readouterr().err


def test_exit_two_on_bad_window(capsys):
    assert main(["monoid", "--window", "5..1"]) == 2


def test_exit_two_on_unknown_suite(capsys):
    assert main(["monoid", "--suite", "nonsense"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_exit_two_when_vector_label_is_outside_window(capsys):
    code = main(["qdeformed", "--check", "vacuum", "--window", "5..9", "--depth", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "(1,) is not a basis label" in err
    assert err.count("\n") == 1


def test_exit_two_on_missing_words_file(tmp_path, capsys):
    missing = str(tmp_path / "nonexistent")
    assert main(["monotone", "--check", "simplex", "--words-file", missing]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


def test_exit_two_on_missing_config_file(tmp_path, capsys):
    assert main(["monotone", "--config", str(tmp_path / "nonexistent")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


def test_exit_two_on_malformed_words_file_line(tmp_path, capsys):
    words = tmp_path / "words.txt"
    words.write_text("D[0]A[0]\nD[0\n")
    assert main(["monotone", "--check", "simplex", "--words-file", str(words)]) == 2
    assert f"{words}:2:" in capsys.readouterr().err


def test_parallel_config_key_is_unknown(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("parallel=true\n")
    assert main(["monoid", "--config", str(cfg)]) == 2
    assert "unknown config key 'parallel'" in capsys.readouterr().err


def test_exit_one_on_vacuous_simplex(tmp_path, capsys):
    # The 0..1 window admits 210 of 220,500 sampled relabelings.
    assert main(["monotone", "--check", "simplex", "--window", "0..1",
                 "--format", "json", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "FAILED: monotone/simplex\n"
    data = json.loads((tmp_path / "monotone_simplex.json").read_text())
    assert data["samples"] == 210 and data["skipped"] == 220290
    assert data["details"]["failed_because"] == "coverage 0.001 below the floor 0.5"


@pytest.mark.parametrize("coupling", ["nan", "inf"])
def test_exit_two_on_nonfinite_coupling(coupling, capsys):
    assert main(["car", "--check", "stationary", "--C", coupling]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: coupling must be finite and nonnegative, got {coupling}\n"


@pytest.mark.parametrize("argv, coupling", [
    (["car"], "6e307"),
    (["car", "--check", "stationary"], "1e308"),
])
def test_exit_two_on_a_coupling_whose_kernel_overflows(argv, coupling, no_suite_runs, capsys):
    # 3 * coupling is above the largest float: every off-diagonal value is nan+inf*j.
    assert main([*argv, "--C", coupling]) == 2
    assert capsys.readouterr().err == (
        "config error: coupling must be at most float max / 3, where 3C stays finite,"
        f" got {float(coupling)}\n"
    )


@pytest.mark.parametrize("tol", ["1e-9", "2e-12", "0.5", "0"])
def test_exit_two_on_a_tolerance_that_would_not_tighten(tol, no_suite_runs, capsys):
    # The suites check at min(tol, 1e-12), so a looser --tol would do nothing.
    assert main(["qdeformed", "--check", "vacuum", "--tol", tol]) == 2
    assert capsys.readouterr().err == (
        f"config error: tolerance must lie in (0, 1e-12], got {float(tol)}\n"
    )


@pytest.mark.parametrize("model, window", [("car", "0..20"), ("boolean", "0..5000")])
def test_exit_two_on_dense_budget(model, window, capsys):
    assert main([model, "--check", "relations", "--window", window]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {model}/relations: window")
    assert "above the budget of 4096" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, window",
    [
        (["qdeformed", "--check", "relations", "--depth", "20000"], "[0, 2]"),
        (["car", "--check", "relations", "--window", "0..100000000"], "[0, 100000000]"),
    ],
    ids=["qdeformed-depth", "car-window"],
)
def test_huge_sizes_are_one_short_budget_line(argv, window, capsys):
    # The dimension is counted only up to the budget, never in full.
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {argv[0]}/relations: window {window} needs")
    assert err.endswith("above the budget of 4096\n")
    assert err.count("\n") == 1 and len(err) < 200


class _RowBuilt(Exception):
    pass


@pytest.mark.parametrize("window, admitted", [("0..9", True), ("0..10", False)])
def test_hamel_budget_checked_before_allocating(window, admitted, monkeypatch, capsys):
    def build_row(*args):
        raise _RowBuilt

    monkeypatch.setattr(suites, "sparse_map", build_row)
    argv = ["monotone", "--check", "hamel", "--window", window]
    if admitted:  # 3,136 words x 386 labels, within the walk budget
        with pytest.raises(_RowBuilt):
            main(argv)
        return
    assert main(argv) == 2  # 4,489 words x 562 labels
    err = capsys.readouterr().err
    assert err == (
        "config error: monotone/hamel: window [0, 10] walks 4489 words over 562 labels,"
        f" 2522818 pairs, above the budget of {suites.MAX_HAMEL_WALKS}\n"
    )


def test_compose_oracle_window_budget_checked_before_sampling(capsys):
    # Without the budget this walks 10^11 points before giving any answer.
    assert main(["monoid", "--check", "compose-oracle", "--window", "0..100000000000",
                 "--samples", "1"]) == 2
    err = capsys.readouterr().err
    assert err == (
        "config error: monoid/compose-oracle: window [0, 100000000000] has 100000000001"
        f" points, above the budget of {suites.MAX_ORACLE_POINTS}\n"
    )
    top = suites.MAX_ORACLE_POINTS - 1
    assert main(["monoid", "--check", "compose-oracle", "--window", f"0..{top}",
                 "--samples", "1"]) == 0
    assert main(["monoid", "--check", "compose-oracle", "--window", f"0..{top + 1}",
                 "--samples", "1"]) == 2


def test_gram_permutation_budget_checked_before_enumerating(capsys):
    # One label of length 11 alone would enumerate 11! = 39.9 M permutations,
    # within a dense dimension of 12.
    assert main(["qdeformed", "--check", "relations", "--window", "0..0", "--depth", "11"]) == 2
    err = capsys.readouterr().err
    assert err == (
        "config error: qdeformed/relations: window [0, 0] at depth 11 needs 4037914 or more"
        f" Gram permutations, above the budget of {qfock.MAX_GRAM_PERMUTATIONS}\n"
    )


def test_gram_budget_counts_one_enumeration_per_label(capsys):
    # 31,288 permutations, one label at a time: within the budget.
    assert main(["qdeformed", "--check", "relations", "--window", "0..2", "--depth", "5"]) == 0
    assert "pass" in capsys.readouterr().out


@pytest.mark.parametrize("window", ["5..8", "1..3", "-3..-1"])
def test_boolean_simplex_window_must_hold_the_witness_site(window, suites_run, capsys):
    assert main(["boolean", "--check", "simplex", "--window", window]) == 2
    captured = capsys.readouterr()
    lo, hi = window.split("..")
    assert captured.err == (
        f"config error: boolean/simplex: window [{lo}, {hi}] misses site 0, where the"
        " site vector witness sits\n"
    )
    assert captured.out == "" and suites_run == []


def test_boolean_simplex_pair_budget_checked_before_any_suite(suites_run, capsys):
    # 51 sites check 10,507 words under 92 maps, 966,644 pairs; 52 sites
    # would check 10,921 x 93 = 1,015,653.
    space, _ = SUITES["boolean"]["simplex"].plan(window=(-25, 25))
    assert space.window == (-25, 25)
    argv = ["boolean", "--check", "relations", "--check", "simplex", "--window", "-26..25"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "config error: boolean/simplex: window [-26, 25] checks 1015653 (word, map) pairs,"
        f" above the budget of {suites.MAX_SIMPLEX_PAIRS}\n"
    )
    assert suites_run == []


@pytest.mark.parametrize("window", ["5..8", "-3..-1"])
def test_boolean_morphism_runs_on_a_window_without_site_zero(window):
    assert main(["boolean", "--check", "morphism", "--window", window, "--samples", "5"]) == 0


def test_every_size_budget_is_checked_before_the_first_suite(tmp_path, monkeypatch, capsys):
    def build_map(*args):
        raise AssertionError("monotone/relations ran")

    monkeypatch.setattr(suites, "sparse_map", build_map)
    out = tmp_path / "od"
    argv = ["monotone", "--check", "relations", "--check", "hamel", "--window", "0..10"]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: monotone/hamel: window [0, 10] walks 4489 words")
    assert err.count("\n") == 1
    assert list(out.iterdir()) == []


@pytest.fixture
def no_suite_runs(monkeypatch):
    """Replace every check by one that fails the test if it runs."""

    def ran(plan, seed):
        raise AssertionError("a suite ran")

    for table in SUITES.values():
        for entry in table.values():
            monkeypatch.setattr(entry, "check", ran)


def test_words_file_is_read_before_the_first_suite(tmp_path, no_suite_runs, capsys):
    out = tmp_path / "wf"
    missing = tmp_path / "nonexistent" / "words.txt"
    assert main(["all", "--words-file", str(missing), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: monotone/simplex: cannot read words file:")
    assert err.count("\n") == 1
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["all", "--C", "0"],
         "car/witness: kernel is spreading invariant on the probed pairs (coupling 0?)"),
        (["qdeformed", "--window", "2..5"], "qdeformed/vacuum: (1,) is not a basis label"),
        (["monotone", "--window", "1..5"], "monotone/simplex: (0,) is not a basis label"),
    ],
    ids=["car-witness", "qdeformed-vacuum", "monotone-simplex"],
)
def test_counterexample_configuration_checked_before_the_first_suite(
    argv, message, tmp_path, no_suite_runs, capsys
):
    out = tmp_path / "od"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("check", ["stationary", "positivity"])
def test_kernel_windows_within_the_index_budget_run(check):
    assert main(["car", "--check", check]) == 0
    # 1000 sites: exactly car.MAX_INDEX_PAIRS index pairs
    assert main(["car", "--check", check, "--window", "0..999"]) == 0


@pytest.mark.parametrize("check", ["stationary", "positivity"])
def test_kernel_index_budget_checked_before_the_first_suite(check, tmp_path, no_suite_runs, capsys):
    out = tmp_path / "od"
    assert main(["car", "--check", check, "--window", "0..1000", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: car/{check}: window [0, 1000] has 1002001 index pairs,"
        " above the budget of 1000000\n"
    )
    assert list(out.iterdir()) == []


def test_simplex_words_budget_checked_before_the_first_suite(tmp_path, no_suite_runs, capsys):
    # Each word is checked under the 10 partial shifts and 20 sampled maps.
    words = tmp_path / "words.txt"
    words.write_text("D[0]A[0]\n" * 33_333)
    plan = SUITES["monotone"]["simplex"].plan(words_file=str(words))
    assert len(plan[0]) == 33_333
    words.write_text("D[0]A[0]\n" * 33_334)
    assert main(["monotone", "--check", "simplex", "--words-file", str(words)]) == 2
    assert capsys.readouterr().err == (
        "config error: monotone/simplex: window [-6, 9] checks 1000020 (word, map) pairs,"
        " above the budget of 1000000\n"
    )


def test_default_reports_name_no_failure_reason(tmp_path):
    assert main(["monoid", "--samples", "20", "--format", "json", "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert all("failed_because" not in r["details"] for r in summary["suites"])


def test_suites_keep_their_names():
    assert SUITES["monotone"]["simplex"].check.__name__ == "monotone_simplex"
    # The table keeps definition order, which is the run order.
    assert {model: list(table) for model, table in SUITES.items()} == {
        "monoid": ["compose-oracle", "semidirect", "localize"],
        "monotone": ["relations", "hamel", "simplex"],
        "qdeformed": ["inner", "relations", "vacuum"],
        "boolean": ["relations", "morphism", "simplex"],
        "car": ["relations", "stationary", "witness", "positivity"],
    }
    assert list(SUITES) == ["monoid", "monotone", "qdeformed", "boolean", "car"]


def test_exit_one_on_suite_failure(monkeypatch, capsys):
    def failing(plan, seed):
        return Deviations(), {}  # zero samples

    monkeypatch.setattr(SUITES["car"]["witness"], "check", failing)
    assert main(["car", "--check", "witness"]) == 1
    assert "FAILED: car/witness" in capsys.readouterr().err


def test_option_spellings_are_kept():
    assert sorted(flag for o in OPTIONS for flag in o.flags) == sorted([
        "--suite", "--check", "--window", "--depth", "--q", "--tol", "--samples",
        "--seed", "--format", "--out", "--C", "--diag", "--words-file",
    ])
    assert sorted(key for o in OPTIONS for key in o.keys) == sorted([
        "window", "depth", "q", "tol", "samples", "seed", "fmt", "format", "out",
        "coupling", "C", "diag", "diagonal", "suites", "suite", "check", "words_file",
    ])
    assert {o.field for o in OPTIONS} == set(RunConfig.__dataclass_fields__) - {"model"}


# field -> (the arguments before the option, a good value, a bad value).
OPTION_CASES = {
    "suites": (["monoid"], "semidirect,localize", "nonsense"),
    "window": (["monoid"], "1..3", "a..b"),
    "depth": (["monotone"], "3", "abc"),
    "q": (["qdeformed"], "-0.5", "1.5"),
    "tol": (["qdeformed", "--check", "vacuum"], "1e-13", "2"),
    "samples": (["monoid"], "20", "0"),
    "seed": (["monoid"], "9", "1.5"),
    "fmt": (["monoid"], "json", "xml"),
    "out": (["monoid"], "reports", "{file}/reports"),
    "coupling": (["car"], "0.5", "nan"),
    "diagonal": (["car"], "0.25", "2"),
    "words_file": (["monotone", "--check", "simplex"], "words.txt", "{tmp}/missing.txt"),
}


def _from_flags(argv):
    return build_config(build_parser().parse_args(argv))


@pytest.mark.parametrize("option", OPTIONS, ids=lambda o: o.field)
def test_flags_and_config_keys_cannot_drift(option, tmp_path, capsys):
    assert set(OPTION_CASES) == {o.field for o in OPTIONS}
    prefix, good, bad = OPTION_CASES[option.field]
    (tmp_path / "file").write_text("")
    bad = bad.format(file=tmp_path / "file", tmp=tmp_path)
    cfg = tmp_path / "run.cfg"

    configs = [_from_flags([*prefix, flag, good]) for flag in option.flags]
    for key in option.keys:
        cfg.write_text(f"{key}={good}\n")
        configs.append(_from_flags([*prefix, "--config", str(cfg)]))
    if option.repeatable:
        repeated = [arg for name in good.split(",") for arg in (option.flags[0], name)]
        configs.append(_from_flags([*prefix, *repeated]))
    assert configs[0] != _from_flags(prefix)
    assert all(config == configs[0] for config in configs)

    errors = set()
    for flag in option.flags:
        assert main([*prefix, flag, bad]) == 2
        errors.add(capsys.readouterr().err)
    for key in option.keys:
        cfg.write_text(f"{key}={bad}\n")
        assert main([*prefix, "--config", str(cfg)]) == 2
        errors.add(capsys.readouterr().err)
    (err,) = errors
    assert err.startswith("config error: ") and err.count("\n") == 1


@pytest.fixture
def suites_run(monkeypatch):
    """Replace every check by a stub that records that it ran and passes."""
    ran = []

    def stub(key):
        def check(plan, seed):
            ran.append(key)
            found = Deviations()
            found.add(0)
            return found, {}

        return check

    for model, table in SUITES.items():
        for name, entry in table.items():
            monkeypatch.setattr(entry, "check", stub(f"{model}/{name}"))
    return ran


@pytest.mark.parametrize("argv, message", [
    (["monoid", "--depth", "abc"], "bad value for 'depth'"),
    (["monoid", "--seed", "1.5"], "bad value for 'seed'"),
    (["monoid", "--format", "xml"], "unknown format 'xml'"),
    (["monoid", "--bogus"], "unrecognized arguments: --bogus"),
    (["monoid", "--depth"], "argument --depth: expected one argument"),
    (["monoid", "--out", "{file}/reports"], "cannot create output directory"),
    (["all", "--window", "0..3"], "'all' runs every suite at its own defaults"),
    (["all", "--check", "simplex"], "'all' runs every suite at its own defaults"),
    (["all", "--depth", "2"], "'all' runs every suite at its own defaults"),
    (["all", "--samples", "5"], "'all' runs every suite at its own defaults"),
    (["all", "--check", ","], "'all' runs every suite at its own defaults"),
    (["monoid", "--check", "localize", "--check", "nonsense"], "unknown suite 'nonsense'"),
    ([], "the following arguments are required: model"),
    (["qdeformed", "--seed", "-1"], "seed must be nonnegative, got -1"),
    (["boolean", "--check", "relations", "--samples", "5"],
     "no selected suite reads 'samples'; boolean suites that do: morphism"),
    (["qdeformed", "--check", "inner", "--samples", "3"],
     "no selected suite reads 'samples'; no qdeformed suite does"),
    (["car", "--samples", "2"], "no selected suite reads 'samples'; no car suite does"),
    (["monoid", "--check", "localize", "--window", "0..3"],
     "no selected suite reads 'window'; monoid suites that do: compose-oracle"),
    (["qdeformed", "--check", "inner", "--depth", "2"],
     "no selected suite reads 'depth'; qdeformed suites that do: relations, vacuum"),
    (["car", "--check", "witness", "--q", "0.3"], "no selected suite reads 'q'; no car suite does"),
    (["car", "--check", "witness", "--words-file", "x"],
     "no selected suite reads 'words_file'; no car suite does"),
    (["qdeformed", "--check", "relations", "--q", "0.3"],
     "no selected suite reads 'q'; qdeformed suites that do: inner, vacuum"),
    (["monoid", "--tol", "1e-13"], "no selected suite reads 'tol'; no monoid suite does"),
    (["boolean", "--check", "relations", "--diag", "0.2"],
     "no selected suite reads 'diagonal'; no boolean suite does"),
    (["monotone", "--check", "simplex", "--words-file", "{file}"],
     "monotone/simplex: {file}: no words"),
])
def test_bad_input_is_one_config_error_line(argv, message, tmp_path, suites_run, capsys):
    (tmp_path / "file").write_text("# a comment and no word\n\n")
    argv = [arg.format(file=tmp_path / "file") for arg in argv]
    message = message.format(file=tmp_path / "file")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {message}")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert suites_run == []


VALUE_FLAGS = [flag for option in OPTIONS for flag in option.flags] + ["--config"]


@pytest.mark.parametrize("value", ["-1e-3", "-1e3", "-0.5", "-4..4", "-x"])
@pytest.mark.parametrize("flag", VALUE_FLAGS)
def test_a_value_flag_takes_the_next_token_as_its_value(
    flag, value, tmp_path, monkeypatch, suites_run, capsys
):
    # The arguments before the flag select a suite that reads it.
    prefix = next((OPTION_CASES[o.field][0] for o in OPTIONS if flag in o.flags), ["monoid"])
    monkeypatch.chdir(tmp_path)  # --out makes a directory named by the value
    results = []
    for argv in ([*prefix, f"{flag}={value}"], [*prefix, flag, value]):
        results.append((main(argv), capsys.readouterr().err))
    assert results[1] == results[0]


@pytest.mark.parametrize("argv", [
    ["monoid", "--check", "localize", "--samp", "3"],
    ["monoid", "--wind", "-4..4"],
    ["monoid", "--check", "localize", "--form", "json"],
])
def test_a_flag_prefix_is_an_unknown_flag(argv, suites_run, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: unrecognized arguments: --")
    assert err.count("\n") == 1 and suites_run == []


def test_a_value_flag_before_another_flag_misses_its_value(suites_run, capsys):
    assert main(["monotone", "--window", "--depth", "3"]) == 2
    assert capsys.readouterr().err == "config error: argument --window: expected one argument\n"


def test_a_binary_words_file_cannot_be_read(tmp_path, suites_run, capsys):
    words = tmp_path / "words.bin"
    words.write_bytes(b"D[0]A[0]\n\xff\xfe\n")
    assert main(["monotone", "--check", "simplex", "--words-file", str(words)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: monotone/simplex: cannot read words file: ")
    assert err.count("\n") == 1 and suites_run == []


@pytest.mark.parametrize("prefix, flag, line, message", [
    (["monotone", "--check", "simplex"], ["--words-file="], "words_file=",
     "'words_file' must name a path, got ''"),
    (["monoid", "--check", "localize", "--format", "csv"], ["--out="], "out=",
     "'out' must name a path, got ''"),
    (["monoid"], ["--check", ","], "check=,", "bad value for 'suites': no suite name in ','"),
    (["monoid"], ["--check="], "suites=", "bad value for 'suites': no suite name in ''"),
], ids=["words-file", "out", "check", "check-empty"])
def test_an_empty_value_is_bad_config(prefix, flag, line, message, tmp_path, suites_run, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    for argv in ([*prefix, *flag], [*prefix, "--config", str(cfg)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: {message}\n" and captured.out == ""
    assert suites_run == []


def test_a_report_that_cannot_be_written_is_bad_config(tmp_path, suites_run, capsys):
    out = tmp_path / "out"
    (out / "monoid_localize.json").mkdir(parents=True)
    assert main(["monoid", "--check", "localize", "--format", "json", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write reports: ") and err.count("\n") == 1


def test_boolean_morphism_dense_entries_checked_before_allocating(suites_run, capsys):
    # 1023 sites: 16 live arrays of 1024 x 1024 entries, those of one
    # MAX_DENSE_DIM x MAX_DENSE_DIM matrix.
    samples, space = SUITES["boolean"]["morphism"].plan(window=(-511, 511))
    assert (samples, space.dim) == (200, 1024)
    with pytest.raises(ValueError, match=r"window \[-2000, 2000\] keeps 256256064 dense"):
        SUITES["boolean"]["morphism"].plan(window=(-2000, 2000))
    assert main(["boolean", "--check", "morphism", "--window", "-511..512"]) == 2
    assert capsys.readouterr().err == (
        "config error: boolean/morphism: window [-511, 512] keeps 16810000 dense entries"
        " alive, above the budget of 16777216\n"
    )
    assert suites_run == []


def test_all_skips_one_model_keys_from_a_shared_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=7\nwindow=0..3\ndepth=2\nsamples=5\ncheck=simplex\n")
    assert _from_flags(["all", "--config", str(cfg)]) == RunConfig(model="all", seed=7)
    assert _from_flags(["monotone", "--config", str(cfg)]) == RunConfig(
        model="monotone", seed=7, window=(0, 3), depth=2, samples=5, suites=("simplex",)
    )
    cfg.write_text("depth=abc\n")  # a bad value is still bad under 'all'
    with pytest.raises(ConfigError, match="bad value for 'depth'"):
        _from_flags(["all", "--config", str(cfg)])


@pytest.mark.parametrize("flag, value", [("--q", "0.3"), ("--tol", "1e-13"), ("--tol", "1e-12")])
def test_all_takes_an_option_that_some_suite_reads(flag, value, suites_run):
    assert main(["all", flag, value]) == 0
    assert suites_run == [f"{m}/{n}" for m, table in SUITES.items() for n in table]


def test_size_flags_read_by_one_selected_suite_pass(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("samples=5\ndepth=2\n")  # keys that no selected suite reads
    config = _from_flags(["monoid", "--check", "localize", "--check", "compose-oracle",
                          "--window", "0..3", "--config", str(cfg)])
    assert (config.window, config.samples, config.depth) == ((0, 3), 5, 2)
    assert _from_flags(["boolean", "--samples", "3"]).samples == 3


SUITE_OPTIONS = ("window", "depth", "samples", "words_file", "q", "tol", "coupling", "diagonal")


class RecordingConfig(RunConfig):
    """A config that records which of the suite options are read."""

    def __getattribute__(self, name):
        if name in SUITE_OPTIONS:
            object.__getattribute__(self, "read").add(name)
        return object.__getattribute__(self, name)


def test_each_suite_declares_the_fields_it_reads():
    # A suite reads the config only through its plan, whose parameters name
    # exactly the options it reads.
    for model, table in SUITES.items():
        for name, entry in table.items():
            config = RecordingConfig(model=model, suites=(name,), window=(-1, 1), depth=2,
                                     samples=2)
            config.read = set()
            entry(config)
            assert config.read == set(inspect.signature(entry.plan).parameters), (model, name)


def test_each_plan_is_built_once_per_run(monkeypatch):
    built = []

    def counted(key, plan):
        @functools.wraps(plan)  # keeps the signature the options are read from
        def counting(**options):
            built.append(key)
            return plan(**options)

        return counting

    keys = []
    for model, table in SUITES.items():
        for name, entry in table.items():
            keys.append(f"{model}/{name}")
            monkeypatch.setattr(entry, "plan", counted(keys[-1], entry.plan))
    reports = run_suites(RunConfig(model="all"))
    assert built == keys and all(report.passed for report in reports)


def test_all_rejects_one_model_fields_in_run_config():
    for field, value in [("suites", ("simplex",)), ("window", (0, 3)), ("depth", 2),
                         ("samples", 5)]:
        with pytest.raises(ConfigError, match=f"{field!r} applies to one model"):
            run_suites(RunConfig(model="all", **{field: value}))


@pytest.mark.parametrize("argv", [["--help"], ["monoid", "--help"]])
def test_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 0
    assert "usage: spreadlab" in capsys.readouterr().out


def test_config_file_defaults_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=9\nsamples=25\nformat=json\nwindow=-2..2\n# comment\n")
    parser = build_parser()
    args = parser.parse_args(
        ["monoid", "--config", str(cfg), "--samples", "40", "--suite", "semidirect"]
    )
    config = build_config(args)
    assert config.seed == 9  # from file
    assert config.samples == 40  # flag wins
    assert config.fmt == "json"
    assert config.window == (-2, 2)
    assert config.suites == ("semidirect",)


def test_config_file_rejects_bad_lines(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this is not a pair\n")
    with pytest.raises(ConfigError):
        read_config_file(str(cfg))
    cfg.write_text("mystery=3\n")
    parser = build_parser()
    args = parser.parse_args(["monoid", "--config", str(cfg)])
    with pytest.raises(ConfigError):
        build_config(args)


def test_json_reports_written_to_out_dir(tmp_path):
    out = tmp_path / "reports"
    code = main(
        ["boolean", "--check", "relations", "--format", "json",
         "--out", str(out), "--seed", "3"]
    )
    assert code == 0
    report = json.loads((out / "boolean_relations.json").read_text())
    assert report["schema"] == "report_v1"
    assert report["passed"] is True
    assert report["claim"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is True
    assert (out / "summary.csv").read_text().startswith("model,suite,verdict")


def test_csv_format(capsys):
    assert main(["car", "--check", "stationary", "--format", "csv"]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("car,stationary,pass")


def test_boolean_simplex_on_requested_window(tmp_path):
    out = tmp_path / "r"
    code = main(
        ["boolean", "--check", "simplex", "--window", "-4..4",
         "--format", "json", "--out", str(out)]
    )
    assert code == 0
    report = json.loads((out / "boolean_simplex.json").read_text())
    assert report["passed"] is True


def test_car_witness_record(tmp_path):
    out = tmp_path / "r"
    assert main(["car", "--check", "witness", "--format", "json", "--out", str(out)]) == 0
    report = json.loads((out / "car_witness.json").read_text())
    record = report["witnesses"][0]
    assert record["map"] == "n=0;gaps=[0]"
    assert (record["m"], record["n"]) == (1, -1)


def test_deformation_flag_reaches_the_suite(tmp_path):
    out = tmp_path / "r"
    assert main(
        ["qdeformed", "--check", "inner", "--q", "-0.9", "--format", "json",
         "--out", str(out)]
    ) == 0
    report = json.loads((out / "qdeformed_inner.json").read_text())
    assert report["details"]["q"] == -0.9
    assert report["passed"] is True


def test_words_file_fixture(tmp_path, capsys):
    words = tmp_path / "words.txt"
    words.write_text("D[]A[]\nD[0]A[0]\nD[0,1]A[]\n# comment\n  # an indented comment\n")
    code = main(
        ["monotone", "--check", "simplex", "--words-file", str(words), "--seed", "2"]
    )
    assert code == 0


def test_identical_seeds_give_identical_reports():
    config = RunConfig(model="boolean", suites=("morphism", "simplex"), seed=12)
    first = [r.to_json(include_wall_time=False) for r in run_suites(config)]
    second = [r.to_json(include_wall_time=False) for r in run_suites(config)]
    assert first == second


def test_different_seeds_sample_differently():
    a = run_suites(RunConfig(model="monoid", suites=("compose-oracle",), seed=1))[0]
    b = run_suites(RunConfig(model="monoid", suites=("compose-oracle",), seed=2))[0]
    assert a.passed and b.passed  # distinct samples, same verdict


def test_every_report_carries_a_claim():
    for model, table in SUITES.items():
        for name in table:
            config = RunConfig(model=model, suites=(name,), seed=0)
            if name in ("simplex", "vacuum"):
                continue  # heavy; covered elsewhere
            report = run_suites(config)[0]
            assert report.claim, f"{model}/{name} has no claim"
            assert report.to_dict()["schema"] == "report_v1"


def test_the_readme_error_examples_hold(suites_run, capsys):
    # Each `spreadlab ...` example followed by its `config error: ...` line,
    # with the README's line breaks read as spaces.
    readme = " ".join((Path(__file__).parents[1] / "README.md").read_text().split())
    examples = re.findall(r"`spreadlab ([^`]*)`[^`]*(?:`2`[^`]*)?`config error: ([^`]*)`", readme)
    assert len(examples) >= 11
    for command, message in examples:
        assert main(command.split()) == 2, command
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}"), (command, err)
    assert suites_run == []
