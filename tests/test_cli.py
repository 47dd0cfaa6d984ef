"""Command-line interface: pipelines, exit codes, report auditing."""

import io
import json
import logging
import math

import pytest

from meanrisk.bnb import BnbConfig
from meanrisk.cli import _Formatter, _setup_logging, _solve_config, build_parser, main
from meanrisk.instances import dumps_instance, generate_instance


def _generate(tmp_path, name, **kwargs):
    path = tmp_path / f"{name}.json"
    args = ["generate", "--out", str(path)]
    for flag, value in kwargs.items():
        args += [f"--{flag.replace('_', '-')}", str(value)]
    assert main(args) == 0
    return path


# ---------------------------------------------------------------- pipeline


def test_solve_default_flags_give_the_default_config():
    args = build_parser().parse_args(["solve", "--risk", "quad"])
    assert _solve_config(args) == BnbConfig(time_limit=3600.0)


def test_generate_solve_oracle_pipeline(tmp_path):
    inst_path = _generate(tmp_path, "inst", n=10, seed=3, int_frac=0.5, budget_mult=0.02)
    report_path = tmp_path / "report.json"
    rc = main(
        [
            "solve",
            "--instance",
            str(inst_path),
            "--risk",
            "linear",
            "--epsilon",
            "0.95",
            "--out",
            str(report_path),
        ]
    )
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["status"] == "optimal"
    assert report["risk"]["kind"] == "linear"
    assert report["risk"]["epsilon"] == 0.95
    assert report["risk"]["omega"] == pytest.approx((0.05 / 0.95) ** 0.5)
    assert report["n"] == 10
    assert len(report["y"]) == 10

    oracle_path = tmp_path / "oracle.json"
    rc = main(
        [
            "oracle",
            "--instance",
            str(inst_path),
            "--risk",
            "linear",
            "--epsilon",
            "0.95",
            "--out",
            str(oracle_path),
        ]
    )
    assert rc == 0
    oracle = json.loads(oracle_path.read_text())
    scale = max(1.0, abs(oracle["objective_max"]))
    assert report["objective_max"] == pytest.approx(oracle["objective_max"], abs=1e-6 * scale)


def test_solve_warns_once_about_uncertified_leaves(tmp_path, capsys):
    inst_path = _generate(tmp_path, "inst", n=20, seed=7, int_frac=0.25, budget_mult=0.02)
    assert main(["solve", "--instance", str(inst_path), "--risk", "quad"]) == 0
    out = capsys.readouterr()
    assert json.loads(out.out)["uncertified_leaves"] == 1
    assert out.err.count("WARNING 1 continuous leaf relaxation(s) ended without") == 1


def test_solve_reads_instance_from_stdin(tmp_path, monkeypatch, capsys):
    inst = generate_instance(4, integer_fraction=1.0, budget_multiplier=0.02, seed=5)
    monkeypatch.setattr("sys.stdin", io.StringIO(dumps_instance(inst, seed=5)))
    assert main(["solve", "--instance", "-", "--risk", "quad", "--omega", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "optimal"
    assert report["instance"] == "synth-n4-seed5"


def test_generate_is_deterministic_on_stdout(capsys):
    assert main(["generate", "--n", "5", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["generate", "--n", "5", "--seed", "7"]) == 0
    assert capsys.readouterr().out == first
    doc = json.loads(first)
    assert doc["seed"] == 7
    assert doc["rng"] == "numpy-pcg64"


def test_solve_routes_exp_risk(tmp_path, capsys):
    inst_path = _generate(tmp_path, "inst", n=4, seed=1, int_frac=1.0, budget_mult=0.02)
    assert main(["solve", "--instance", str(inst_path), "--risk", "exp", "--gamma", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["risk"] == {"kind": "exp", "gamma": 1.0}


# -------------------------------------------------------------- exit codes


def test_linear_risk_flag_validation(tmp_path):
    inst_path = _generate(tmp_path, "inst", n=3, seed=0, budget_mult=0.02)
    base = ["solve", "--instance", str(inst_path), "--risk", "linear"]
    assert main(base + ["--epsilon", "0.95", "--omega", "1.0"]) == 1
    assert main(base) == 1
    quad = ["solve", "--instance", str(inst_path), "--risk", "quad", "--gamma", "1.0"]
    assert main(quad) == 1


def test_missing_instance_file_is_an_input_error(tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["solve", "--instance", str(missing), "--risk", "quad"]) == 1


def test_time_limit_exit_code(tmp_path):
    inst_path = _generate(tmp_path, "inst", n=6, seed=2, int_frac=1.0, budget_mult=0.1)
    report_path = tmp_path / "report.json"
    rc = main(
        [
            "solve",
            "--instance",
            str(inst_path),
            "--risk",
            "quad",
            "--time-limit",
            "1e-9",
            "--out",
            str(report_path),
        ]
    )
    assert rc == 2
    assert json.loads(report_path.read_text())["status"] == "time_limit"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("meanrisk ")


# ------------------------------------------------------------------- check


def test_check_passes_then_flags_tampering(tmp_path, capsys):
    inst_path = _generate(tmp_path, "inst", n=4, seed=4, int_frac=1.0, budget_mult=0.02)
    report_path = tmp_path / "report.json"
    assert (
        main(
            [
                "solve",
                "--instance",
                str(inst_path),
                "--risk",
                "quad",
                "--omega",
                "1",
                "--out",
                str(report_path),
            ]
        )
        == 0
    )
    rc = main(["check", "--instance", str(inst_path), "--report", str(report_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "FAIL" not in out
    assert out.count("ok  ") >= 9

    doc = json.loads(report_path.read_text())
    doc["objective_max"] = doc["objective_max"] + 1.0
    report_path.write_text(json.dumps(doc))
    rc = main(["check", "--instance", str(inst_path), "--report", str(report_path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL objective consistent" in out


@pytest.mark.parametrize(
    "tamper, bad_line",
    [(lambda y: [math.inf] + y[1:], 2), (lambda y: [math.nan] + y[1:], 2), (lambda y: y[:3], 1)],
    ids=["infinite", "nan", "short"],
)
def test_check_reports_every_line_on_a_malformed_portfolio(tmp_path, capsys, tamper, bad_line):
    inst_path = _generate(tmp_path, "inst", n=4, seed=4, int_frac=1.0, budget_mult=0.02)
    report_path = tmp_path / "report.json"
    args = ["solve", "--instance", str(inst_path), "--risk", "quad", "--out", str(report_path)]
    assert main(args) == 0
    doc = json.loads(report_path.read_text())
    doc["y"] = tamper(doc["y"])
    report_path.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["check", "--instance", str(inst_path), "--report", str(report_path)])
    out = capsys.readouterr()
    assert rc == 1
    assert out.err == ""
    lines = out.out.splitlines()
    assert [line.split(" (")[0][5:] for line in lines] == [
        "status field",
        "solution length",
        "finite entries",
        "nonnegative entries",
        "budget respected",
        "integrality",
        "objective consistent",
        "return term consistent",
        "nnz consistent",
        "max entry consistent",
    ]
    assert lines[bad_line].startswith("FAIL")
    assert all(line.endswith("(not checked)") for line in lines[bad_line + 1 :])


# ------------------------------------------------------------------- bench


def test_bench_end_to_end(tmp_path):
    for seed in (0, 1):
        _generate(tmp_path, f"inst{seed}", n=3, seed=seed, int_frac=1.0, budget_mult=0.02)
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(
        json.dumps(
            {
                "configs": [
                    {"risk": {"kind": "quad", "omega": 1.0}, "name": "q"},
                    {"risk": {"kind": "linear", "epsilon": 0.95}, "name": "l"},
                ]
            }
        )
    )
    records_csv = tmp_path / "records.csv"
    profile_csv = tmp_path / "profile.csv"
    rc = main(
        [
            "bench",
            "--instances",
            str(tmp_path / "inst*.json"),
            "--grid",
            str(grid_path),
            "--out-records",
            str(records_csv),
            "--out-profile",
            str(profile_csv),
        ]
    )
    assert rc == 0
    record_lines = records_csv.read_text().splitlines()
    assert len(record_lines) == 1 + 4  # header + 2 instances x 2 configs
    assert record_lines[0].startswith("instance,config,risk,")
    profile_lines = profile_csv.read_text().splitlines()
    assert profile_lines[0] == "solver_config,tau,fraction_solved"
    assert len(profile_lines) > 1


def test_bench_rejects_empty_glob(tmp_path):
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps({"configs": [{"risk": {"kind": "quad", "omega": 1.0}}]}))
    rc = main(
        [
            "bench",
            "--instances",
            str(tmp_path / "none*.json"),
            "--grid",
            str(grid_path),
            "--out-records",
            str(tmp_path / "r.csv"),
            "--out-profile",
            str(tmp_path / "p.csv"),
        ]
    )
    assert rc == 1


def test_bench_malformed_grid_is_an_input_error(tmp_path, capsys):
    _generate(tmp_path, "inst0", n=3, seed=0, int_frac=1.0, budget_mult=0.02)
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(
        json.dumps({"configs": [{"risk": {"kind": "quad", "omega": 1.0}, "warm_start": "e1"}]})
    )
    rc = main(
        [
            "bench",
            "--instances",
            str(tmp_path / "inst*.json"),
            "--grid",
            str(grid_path),
            "--out-records",
            str(tmp_path / "r.csv"),
            "--out-profile",
            str(tmp_path / "p.csv"),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["ERROR grid entry 0: unknown key 'warm_start'"]


def test_bench_bad_grid_risk_is_an_input_error(tmp_path, capsys):
    _generate(tmp_path, "inst0", n=3, seed=0, int_frac=1.0, budget_mult=0.02)
    grid_path = tmp_path / "grid.json"
    risks = [{"kind": "quad", "omega": 1.0}, {"kind": "exp", "gamma": 1.0, "omega": 2.0}]
    grid_path.write_text(json.dumps({"configs": [{"risk": risk} for risk in risks]}))
    rc = main(
        [
            "bench",
            "--instances",
            str(tmp_path / "inst*.json"),
            "--grid",
            str(grid_path),
            "--out-records",
            str(tmp_path / "r.csv"),
            "--out-profile",
            str(tmp_path / "p.csv"),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["ERROR grid entry 1: exp risk: unknown key 'omega'"]


# ----------------------------------------------------------------- logging


def test_no_color_respected(monkeypatch):
    monkeypatch.setenv("NO_COLOR", "1")
    _setup_logging()
    handler = logging.getLogger("meanrisk").handlers[0]
    assert handler.formatter._color is False


def test_formatter_colors_warnings_only_when_enabled():
    record = logging.LogRecord("meanrisk", logging.WARNING, __file__, 1, "careful", (), None)
    assert _Formatter(color=True).format(record) == "\x1b[33mWARNING careful\x1b[0m"
    assert _Formatter(color=False).format(record) == "WARNING careful"
    info = logging.LogRecord("meanrisk", logging.INFO, __file__, 1, "plain", (), None)
    assert _Formatter(color=True).format(info) == "INFO plain"
