"""Tests for the command line front end.

Commands run in-process through main() so exit codes and stderr are easy
to capture; one test goes through `python -m chaoskit.cli` to cover the
module entry point.  The three-file output contract (csv + schema +
summary), the config file handling and the byte-level determinism across
thread counts are the load-bearing parts here; the numerics behind each
command are covered by the module tests.
"""

import csv
import json
import subprocess
import sys

import pytest

import chaoskit.cli as cli
from chaoskit.acceptance import Check, CriterionResult
from chaoskit.embeddings import DegenerateModelError


def _rows(out, command):
    with open(out / f"{command}.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def _summary(out, command):
    return json.loads((out / f"{command}.summary.json").read_text())


def _schema(out, command):
    return json.loads((out / f"{command}.schema.json").read_text())


def _bytes(out, command):
    return {name: (out / name).read_bytes()
            for name in (f"{command}.csv", f"{command}.schema.json",
                         f"{command}.summary.json")}


# ------------------------------------------------------------- validate


def test_validate_single_criterion(tmp_path, capsys):
    rc = cli.main(["validate", "--criteria", "1", "--seed", "42",
                   "--out", str(tmp_path)])
    assert rc == 0
    assert "criterion  1 PASS" in capsys.readouterr().out

    rows = _rows(tmp_path, "validate")
    assert list(rows[0]) == ["criterion", "name", "check", "passed",
                             "observed", "target"]
    assert all(r["criterion"] == "1" for r in rows)
    assert all(r["passed"] == "true" for r in rows)

    su = _summary(tmp_path, "validate")
    assert su["command"] == "validate"
    assert su["results"]["all_passed"] is True
    assert su["results"]["criteria"][0]["failing_checks"] == []
    # experiment parameters only: execution facts must stay out of the file
    assert su["config"] == {"criteria": "1", "seed": 42}
    assert sorted(su["versions"]) == ["chaoskit", "numpy", "python", "scipy"]


def test_validate_criteria_parsing_rejects_out_of_range(tmp_path, capsys):
    for bad in ("0", "11", "2-x", "", "1,0"):
        rc = cli.main(["validate", "--criteria", bad, "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: usage:")


def test_validate_failing_criterion_exits_two(tmp_path, monkeypatch, capsys):
    # canned red result: the genuine red criteria take tens of seconds and
    # are exercised in test_acceptance; here only the exit code mapping and
    # the failing_checks echo matter
    canned = CriterionResult(3, "clt-family", (
        Check("decay", False, 1.0, "factor >= 3"),
    ))
    monkeypatch.setattr(cli, "run_criteria",
                        lambda numbers, seed, threads=1: [canned])
    rc = cli.main(["validate", "--criteria", "3", "--out", str(tmp_path)])
    assert rc == 2
    assert "criterion  3 FAIL" in capsys.readouterr().out
    su = _summary(tmp_path, "validate")
    assert su["results"]["all_passed"] is False
    assert su["results"]["criteria"][0]["failing_checks"] == ["decay"]


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "chaoskit.cli", "validate", "--criteria", "1",
         "--seed", "0", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "criterion  1 PASS" in proc.stdout


# ---------------------------------------------------------- determinism


def test_sample_byte_identical_across_runs(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    argv = ["sample", "--family", "clt-pairs", "--k", "16",
            "--samples", "500", "--seed", "11"]
    assert cli.main(argv + ["--out", str(d1)]) == 0
    assert cli.main(argv + ["--out", str(d2)]) == 0
    assert _bytes(d1, "sample") == _bytes(d2, "sample")


def test_sweep_byte_identical_across_thread_counts(tmp_path):
    d1, d2 = tmp_path / "t1", tmp_path / "t3"
    argv = ["sweep-fbm", "--family", "fbm-power", "--cells", "32",
            "--grid", "uniform", "--samples", "1000",
            "--schedule", "1e-1,1e-2", "--seed", "5"]
    assert cli.main(argv + ["--threads", "1", "--out", str(d1)]) == 0
    assert cli.main(argv + ["--threads", "3", "--out", str(d2)]) == 0
    assert _bytes(d1, "sweep-fbm") == _bytes(d2, "sweep-fbm")


# ------------------------------------------------------------- commands


def test_diagnose_constant_cross_flags_non_gaussian(tmp_path):
    rc = cli.main(["diagnose", "--family", "constant-cross",
                   "--schedule", "1,2,3", "--samples", "4000",
                   "--seed", "3", "--out", str(tmp_path)])
    assert rc == 0
    rows = _rows(tmp_path, "diagnose")
    assert len(rows) == 3
    for r in rows:
        assert float(r["fourth_moment"]) == pytest.approx(9.0, abs=1e-12)
        assert r["ks_pass"] == "false"
    assert _summary(tmp_path, "diagnose")["results"]["verdict"] == "inconsistent"


def test_sweep_sheet_closed_form_column(tmp_path):
    rc = cli.main(["sweep-sheet", "--dims", "1", "--beta", "-0.995",
                   "--cells", "64", "--octaves", "32", "--samples", "400",
                   "--seed", "1", "--out", str(tmp_path)])
    assert rc == 0
    rows = _rows(tmp_path, "sweep-sheet")
    assert len(rows) == 1
    # 2/(2b+3) at b = -0.995, exact regardless of grid and sample count
    assert float(rows[0]["variance_closed_form"]) == pytest.approx(
        2.0 / 1.01, rel=1e-12)
    assert rows[0]["eps"] == ""

    schema = _schema(tmp_path, "sweep-sheet")
    assert [c["name"] for c in schema["columns"]] == list(rows[0])
    assert schema["file"] == "sweep-sheet.csv"


def test_sample_summary_statistics(tmp_path):
    rc = cli.main(["sample", "--family", "constant-cross",
                   "--samples", "5000", "--seed", "2", "--out", str(tmp_path)])
    assert rc == 0
    rows = _rows(tmp_path, "sample")
    assert len(rows) == 5000
    assert list(rows[0]) == ["index", "value"]
    res = _summary(tmp_path, "sample")["results"]
    # product of independent gaussians: kurtosis 9, far from normal
    assert res["kurtosis"] > 6.0
    assert res["ks_pass"] is False


# ---------------------------------------------------------- config file


def test_config_file_sets_defaults_and_cli_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# sampling setup\n"
        "samples = 500\n"
        "k = 8\n"
        "\n"
        "seed = 11\n")
    d1, d2 = tmp_path / "a", tmp_path / "b"

    rc = cli.main(["sample", "--family", "clt-pairs",
                   "--config", str(cfg), "--out", str(d1)])
    assert rc == 0
    echo = _summary(d1, "sample")["config"]
    assert (echo["samples"], echo["k"], echo["seed"]) == (500, 8, 11)
    assert len(_rows(d1, "sample")) == 500

    rc = cli.main(["sample", "--family", "clt-pairs", "--config", str(cfg),
                   "--samples", "300", "--out", str(d2)])
    assert rc == 0
    echo = _summary(d2, "sample")["config"]
    # explicit flag wins over the config file, other keys keep file values
    assert (echo["samples"], echo["k"]) == (300, 8)
    assert len(_rows(d2, "sample")) == 300


def test_config_file_errors(tmp_path, capsys):
    bogus = tmp_path / "bogus.cfg"
    bogus.write_text("frobnication = 3\n")
    rc = cli.main(["sample", "--config", str(bogus), "--out", str(tmp_path)])
    assert rc == 1
    assert "frobnication" in capsys.readouterr().err

    rc = cli.main(["sample", "--out", str(tmp_path), "--config"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: usage:")

    rc = cli.main(["sample", "--config", str(tmp_path / "missing.cfg"),
                   "--out", str(tmp_path)])
    assert rc == 1


# ------------------------------------------------------------ exit codes


def test_usage_errors_exit_one(tmp_path, capsys):
    argvs = [
        ["frobnicate"],
        ["sample", "--family", "nope", "--out", str(tmp_path)],
        ["sweep-fbm", "--hurst", "1.5", "--cells", "8",
         "--grid", "uniform", "--samples", "200", "--out", str(tmp_path)],
        ["diagnose", "--family", "clt-pairs", "--schedule", "0,4",
         "--out", str(tmp_path)],
        ["sample", "--samples", "oops", "--out", str(tmp_path)],
    ]
    for argv in argvs:
        rc = cli.main(argv)
        assert rc == 1, argv
        assert capsys.readouterr().err.startswith("error: usage:"), argv


@pytest.mark.parametrize("argv", [
    # dense kernel capacity: a 1024^2-cell sheet is a 1048576-dim embedding
    ["diagnose", "--family", "sheet-power", "--dims", "2", "--cells", "1024"],
    # a first cell of width 2^-1000 puts the fbm-power kernel out of range
    ["diagnose", "--family", "fbm-power", "--cells", "16", "--octaves", "1000"],
    # a finite kernel near 1e286: its exact fourth moment is out of range
    ["sweep-fbm", "--family", "fbm-power", "--schedule", "0.1", "--cells", "16",
     "--octaves", "720"],
])
def test_numerical_failures_exit_two(argv, capsys, tmp_path):
    rc = cli.main(argv + ["--samples", "100", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: numerical:")
    assert len(err.splitlines()) == 1
    assert not list(tmp_path.iterdir())


def test_numerical_errors_exit_two(monkeypatch, capsys, tmp_path):
    def _boom(args):
        raise DegenerateModelError("covariance not positive definite",
                                   jitter_last=1e-10)

    monkeypatch.setattr(cli, "_cmd_sample", _boom)
    rc = cli.main(["sample", "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: numerical:")
