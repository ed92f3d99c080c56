"""Command-line behavior: flags, config files, exit codes, report files."""

import json

import pytest

from spreadlab.cli import build_config, build_parser, main, parse_window, read_config_file
from spreadlab.reports import SuiteReport
from spreadlab import suites
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


@pytest.mark.parametrize("model, window", [("car", "0..20"), ("boolean", "0..5000")])
def test_exit_two_on_dense_budget(model, window, capsys):
    assert main([model, "--check", "relations", "--window", window]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {model}/relations: window")
    assert "above the budget of 4096" in err and err.count("\n") == 1


class _RowBuilt(Exception):
    pass


@pytest.mark.parametrize("window, admitted", [("0..6", True), ("0..7", False)])
def test_hamel_budget_checked_before_allocating(window, admitted, monkeypatch, capsys):
    def build_row(*args):
        raise _RowBuilt

    monkeypatch.setattr(suites, "evaluate_word", build_row)
    argv = ["monotone", "--check", "hamel", "--window", window]
    if admitted:  # 841 x 99^2 entries, within 4096^2
        with pytest.raises(_RowBuilt):
            main(argv)
        return
    assert main(argv) == 2  # 1369 x 163^2 entries
    err = capsys.readouterr().err
    assert err.startswith("config error: monotone/hamel: window [0, 7] needs a row matrix")
    assert err.count("\n") == 1


def test_default_reports_name_no_failure_reason(tmp_path):
    assert main(["monoid", "--samples", "20", "--format", "json", "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert all("failed_because" not in r["details"] for r in summary["suites"])


def test_suites_keep_their_names():
    assert SUITES["monotone"]["simplex"].__name__ == "monotone_simplex"
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
    def failing(config):
        return SuiteReport(
            model="car", suite="witness", claim="stub", passed=False, seed=config.seed
        )

    monkeypatch.setitem(SUITES["car"], "witness", failing)
    assert main(["car", "--check", "witness"]) == 1
    assert "FAILED: car/witness" in capsys.readouterr().err


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
         "--samples", "5", "--format", "json", "--out", str(out)]
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
    words.write_text("D[]A[]\nD[0]A[0]\nD[0,1]A[]\n# comment\n")
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
