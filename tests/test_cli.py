"""Tests for the command line front end.

Commands run in-process through main() so exit codes and stderr are easy
to capture; one test goes through `python -m chaoskit.cli` to cover the
module entry point.  The three-file output contract (csv + schema +
summary), the config file handling and the byte-level determinism across
thread counts are the load-bearing parts here; the numerics behind each
command are covered by the module tests.
"""

import csv
import importlib.util
import itertools
import json
import math
import pathlib
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import chaoskit.cli as cli
from chaoskit import embeddings
from chaoskit.acceptance import Check, CriterionResult
from chaoskit.diagnostics import ks_against_std_normal
from chaoskit.functionals import (FbmPowerVariation, FbmSingularVariation,
                                  embed_on_grid)
from chaoskit.reference import tail_mass_kernel2
from chaoskit.rng import stream
from chaoskit.tensors import norm_sq

ROOT = pathlib.Path(__file__).resolve().parent.parent


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
    # the libraries the CLI loads, and no other
    assert sorted(su["versions"]) == ["chaoskit", "numpy", "python"]
    assert su["versions"]["numpy"] == np.__version__


def test_validate_criteria_parsing_rejects_out_of_range(tmp_path, capsys):
    # a number n reads as the range n-n
    assert cli._parse_criteria("3") == [3]
    assert cli._parse_criteria("1-9, 3") == list(range(1, 10))
    assert cli._parse_criteria("all") == list(range(1, 11))  # the default
    # a reversed part is refused, not dropped
    for bad in ("0", "11", "2-x", "", "1,0", "1-", "-3", "3-1", "5-3",
                "1,5-3"):
        rc = cli.main(["validate", "--criteria", bad, "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: usage:")


def test_validate_criteria_are_bounded_before_their_range_is_built(
        tmp_path, capsys):
    # 1-10^12 is refused on its ends, never built as a range
    argv = ["validate", "--criteria", "1-1000000000000", "--out", str(tmp_path)]
    tracemalloc.start()
    try:
        rc = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 1 and peak < 1e6
    assert capsys.readouterr().err.startswith(
        "error: usage: criteria must be in 1..10")
    assert not list(tmp_path.iterdir())


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


def test_cli_imports_no_scipy(tmp_path):
    # scipy serves the quadrature oracle in chaoskit.reference alone: the
    # package, the CLI and a diagnose run load no scipy module
    code = (
        "import sys\n"
        "import chaoskit, chaoskit.cli\n"
        "code = chaoskit.cli.main(['diagnose', '--family', 'clt-pairs', "
        f"'--samples', '100', '--out', {str(tmp_path)!r}])\n"
        "print(code, sorted(m for m in sys.modules\n"
        "                   if m == 'scipy' or m.startswith('scipy.')))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 []\n"


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


def test_sweep_spectral_rank_column(tmp_path):
    d1, d2 = tmp_path / "t1", tmp_path / "t2"
    argv = ["sweep-fbm", "--family", "fbm-singular", "--cells", "64",
            "--samples", "500", "--schedule", "1e-1,1e-2", "--seed", "5"]
    assert cli.main(argv + ["--threads", "1", "--out", str(d1)]) == 0
    assert cli.main(argv + ["--threads", "2", "--out", str(d2)]) == 0
    assert _bytes(d1, "sweep-fbm") == _bytes(d2, "sweep-fbm")
    ranks = [int(r["spectral_rank"]) for r in _rows(d1, "sweep-fbm")]
    # fewer live cells than the 64 of the grid, more as eps falls
    assert 0 < ranks[0] < ranks[1] < 64
    schema = {c["name"]: c["type"]
              for c in _schema(d1, "sweep-fbm")["columns"]}
    assert schema["spectral_rank"] == "int"


@pytest.mark.parametrize("command, family", [("sweep-fbm", "fbm-singular"),
                                             ("sweep-sheet", "sheet-power")])
def test_sweep_summary_reads_the_last_row_by_name(tmp_path, command, family):
    assert cli.main([command, "--family", family, "--cells", "16",
                     "--samples", "300", "--out", str(tmp_path)]) == 0
    last = _rows(tmp_path, command)[-1]
    res = _summary(tmp_path, command)["results"]
    assert repr(res["final_mc_kurtosis"]) == last["mc_kurtosis"]
    assert res["final_ks_pass"] is (last["ks_pass"] == "true")


def test_emit_writes_the_data_rows_in_one_writerows_call(tmp_path,
                                                         monkeypatch):
    # csv itself writes every cell: an int as decimal, a float as its repr
    calls, real = [], csv.writer

    class Recorder:
        def __init__(self, fh, **kw):
            self.w = real(fh, **kw)

        def writerow(self, row):
            calls.append(("writerow", list(row)))
            self.w.writerow(row)

        def writerows(self, rows):
            assert iter(rows) is rows  # streamed, never held as a list
            rows = list(rows)
            calls.append(("writerows", rows))
            self.w.writerows(rows)

    monkeypatch.setattr(cli.csv, "writer", Recorder)
    assert cli.main(["sample", "--samples", "500", "--out", str(tmp_path)]) == 0
    assert [name for name, _ in calls] == ["writerow", "writerows"]
    assert calls[0][1] == ["index", "value"]
    rows = calls[1][1]
    assert [i for i, _ in rows] == list(range(500))
    assert all(type(v) is float for _, v in rows)
    lines = (tmp_path / "sample.csv").read_text().splitlines()
    assert lines[1:] == [f"{i},{v!r}" for i, v in rows]


def test_sweep_and_sample_ks_read_the_draws_at_unit_variance(tmp_path):
    # the normalized statistic has variance variance_exact, not 1: KS is
    # taken on the row's draws over sqrt(variance_exact), bit for bit
    d1, d2 = tmp_path / "sweep", tmp_path / "sample"
    assert cli.main(["sweep-fbm", "--family", "fbm-power", "--cells", "32",
                     "--samples", "500", "--schedule", "1e-1,1e-2",
                     "--seed", "5", "--out", str(d1)]) == 0
    cfg = _summary(d1, "sweep-fbm")["config"]
    for i, row in enumerate(_rows(d1, "sweep-fbm")):
        func = FbmPowerVariation(cfg["hurst"], float(row["beta"]))
        ef = embed_on_grid(func, cfg["cells"], cfg["grid"], cfg["octaves"])
        draws = ef.sample_statistic(500, stream(5, f"sweep-fbm:fbm-power:{i}"))
        assert float(row["variance_exact"]) == ef.variance_exact() != 1.0
        ks = ks_against_std_normal(draws / math.sqrt(ef.variance_exact()))
        assert float(row["ks_statistic"]) == ks.statistic
        assert (row["ks_pass"] == "true") is ks.passed
    assert cli.main(["sample", "--family", "fbm-singular", "--eps", "0.01",
                     "--cells", "64", "--samples", "2000", "--seed", "3",
                     "--out", str(d2)]) == 0
    cfg = _summary(d2, "sample")["config"]
    ef = embed_on_grid(FbmSingularVariation(cfg["hurst"], cfg["eps"]),
                       cfg["cells"], cfg["grid"], cfg["octaves"])
    draws = ef.sample_statistic(2000, stream(3, "sample:fbm-singular"))
    assert [float(r["value"]) for r in _rows(d2, "sample")] == draws.tolist()
    ks = ks_against_std_normal(draws / math.sqrt(ef.variance_exact()))
    res = _summary(d2, "sample")["results"]
    assert res["ks_statistic"] == ks.statistic
    assert res["ks_pass"] is ks.passed


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


@pytest.mark.parametrize("argv, verdict", [
    # raw kappa_2 3.1e4, normalized variance 2.9e-13
    (["--family", "sheet-singular", "--dims", "6", "--cells", "4",
      "--schedule", "1e-300"], "undecided"),
    # raw kappa_2 6.4e-13, normalized variance 1.2e-6
    (["--family", "sheet-power", "--dims", "3", "--cells", "20",
      "--schedule", "60"], "inconsistent"),
], ids=["sheet-singular", "sheet-power"])
def test_diagnose_verdict_reads_the_normalized_variance(tmp_path, argv,
                                                        verdict):
    # the degeneracy rule reads the variance of the statistic the rows
    # describe: sweep-sheet's variance_exact on the same grid
    d1, d2 = tmp_path / "diagnose", tmp_path / "sweep"
    assert cli.main(["diagnose", *argv, "--samples", "100",
                     "--out", str(d1)]) == 0
    assert _summary(d1, "diagnose")["results"]["verdict"] == verdict
    octaves = str(int(argv[argv.index("--cells") + 1]) - 1)
    assert cli.main(["sweep-sheet", *argv, "--octaves", octaves,
                     "--samples", "100", "--out", str(d2)]) == 0
    v = float(_rows(d2, "sweep-sheet")[0]["variance_exact"])
    assert (1e-12 < v < 1e12) is (verdict != "undecided")


def test_sweep_sheet_closed_form_column(tmp_path):
    rc = cli.main(["sweep-sheet", "--dims", "1", "--schedule", "-0.995",
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

    # a geometric grid left at its default depth echoes it
    out = tmp_path / "default"
    assert cli.main(["sweep-sheet", "--schedule", "-0.9", "--cells", "16",
                     "--samples", "100", "--out", str(out)]) == 0
    assert _summary(out, "sweep-sheet")["config"]["octaves"] == 512.0


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


# the model flags each family reads under sample, and a value for each
_SAMPLE_READS = {
    "clt-pairs": ("k",), "constant-cross": (), "rank-one": (),
    "fbm-power": ("beta", "hurst"), "fbm-singular": ("eps", "hurst"),
    "sheet-power": ("beta", "dims"), "sheet-singular": ("eps", "dims"),
}
_SAMPLE_VALUES = {"k": 8, "beta": -0.3, "eps": 0.1, "hurst": 0.6, "dims": 2}


@pytest.mark.parametrize("family", list(_SAMPLE_READS))
def test_sample_refuses_flags_its_family_does_not_read(tmp_path, capsys,
                                                       family):
    unread = [f for f in _SAMPLE_VALUES if f not in _SAMPLE_READS[family]]
    assert unread
    for flag in unread:
        rc = cli.main(["sample", "--family", family,
                       f"--{flag}", str(_SAMPLE_VALUES[flag]),
                       "--out", str(tmp_path)])
        assert rc == 1, flag
        assert capsys.readouterr().err == (
            f"error: usage: --{flag} is not read by {family}\n")
    # a config file key is a flag given
    cfg = tmp_path.parent / f"{family}.cfg"
    cfg.write_text(f"{unread[0]} = {_SAMPLE_VALUES[unread[0]]}\n")
    assert cli.main(["sample", "--family", family, "--config", str(cfg),
                     "--out", str(tmp_path)]) == 1
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("family", list(_SAMPLE_READS))
def test_sample_echoes_every_model_flag(tmp_path, family):
    # the flags the family reads as given, the others at their defaults,
    # with the types and bytes the echo had when every family took them all
    given = {f: _SAMPLE_VALUES[f] for f in _SAMPLE_READS[family]}
    if cli._FAMILIES[family].model:  # the grid flags too
        given["cells"] = 8
    argv = ["sample", "--family", family, "--samples", "100"]
    for flag, value in given.items():
        argv += [f"--{flag}", str(value)]
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    echo = {"beta": 0.0, "cells": 512, "dims": 1, "eps": 0.01,
            "family": family, "grid": "geometric", "hurst": 0.75, "k": 64,
            "octaves": None, "samples": 100, "seed": 0, **given}
    # json keeps 64 apart from 64.0, so the text compares types too
    assert json.dumps(_summary(tmp_path, "sample")["config"]) == json.dumps(
        echo, sort_keys=True)


# the flags diagnose takes that each family does not read
_GRID_VALUES = {"cells": 8, "grid": "uniform", "octaves": 4.0}
_DIAGNOSE_UNREAD = {
    "clt-pairs": ("hurst", "dims", *_GRID_VALUES),
    "constant-cross": ("hurst", "dims", *_GRID_VALUES),
    "rank-one": ("hurst", "dims", *_GRID_VALUES),
    "fbm-power": ("dims",), "fbm-singular": ("dims",),
    "sheet-power": ("hurst",), "sheet-singular": ("hurst",),
}


@pytest.mark.parametrize("family", list(_DIAGNOSE_UNREAD))
def test_diagnose_refuses_flags_its_family_does_not_read(tmp_path, capsys,
                                                         family):
    values = {**_SAMPLE_VALUES, **_GRID_VALUES}
    for flag in _DIAGNOSE_UNREAD[family]:
        rc = cli.main(["diagnose", "--family", family,
                       f"--{flag}", str(values[flag]), "--samples", "100",
                       "--out", str(tmp_path)])
        assert rc == 1, flag
        assert capsys.readouterr().err == (
            f"error: usage: --{flag} is not read by {family}\n")
    cfg = tmp_path.parent / f"{family}.cfg"
    flag = _DIAGNOSE_UNREAD[family][0]
    cfg.write_text(f"{flag} = {values[flag]}\n")
    assert cli.main(["diagnose", "--family", family, "--config", str(cfg),
                     "--out", str(tmp_path)]) == 1
    assert not list(tmp_path.iterdir())


def test_diagnose_refuses_the_flags_clt_pairs_ignores(tmp_path, capsys):
    # of several unread flags the first is named, and nothing is written
    rc = cli.main(["diagnose", "--family", "clt-pairs", "--hurst", "0.3",
                   "--cells", "7", "--dims", "4", "--samples", "100",
                   "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: usage: --hurst is not read by clt-pairs\n")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("family", ["clt-pairs", "fbm-singular",
                                    "sheet-power"])
def test_diagnose_echo_of_accepted_lines_is_unchanged(tmp_path, family):
    # left-out model and grid flags are echoed at their defaults, with the
    # types they had when every family took them all
    point = {"clt-pairs": 1.0, "fbm-singular": 0.1, "sheet-power": -0.9}
    argv = ["diagnose", "--family", family, "--schedule", str(point[family]),
            "--samples", "100"]
    given = {"fbm-singular": {"hurst": 0.6, "cells": 16},
             "sheet-power": {"dims": 2, "cells": 8, "octaves": 4.0}}
    given = given.get(family, {})
    for flag, value in given.items():
        argv += [f"--{flag}", str(value)]
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    echo = {"cells": 512, "dims": 1, "family": family, "grid": "geometric",
            "hurst": 0.75, "octaves": None, "samples": 100,
            "schedule": [point[family]], "seed": 0, **given}
    assert json.dumps(_summary(tmp_path, "diagnose")["config"]) == json.dumps(
        echo, sort_keys=True)


@pytest.mark.parametrize("family", list(cli._FAMILIES))
def test_diagnose_echoes_the_default_schedule_it_ran(tmp_path, family):
    # a left-out --schedule is echoed as the family's schedule (repeat
    # indices for a constant kernel), as the sweeps echo theirs, not null
    fam = cli._FAMILIES[family]
    argv = ["diagnose", "--family", family, "--samples", "100"]
    if fam.model:
        argv += ["--cells", "8"]
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    want = fam.schedule if fam.param else range(1, len(fam.schedule) + 1)
    assert _summary(tmp_path, "diagnose")["config"]["schedule"] == [
        float(x) for x in want]


def test_bench_command_lines_read_every_flag_they_pass(tmp_path):
    # the benchmark's command lines, its known-defect probes and its
    # warm-up call give no flag their family ignores
    spec = importlib.util.spec_from_file_location(
        "bench_worker", ROOT / "bench" / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    lines = [argv for units in worker.WORKLOADS.values()
             for _, _, argv in units if argv is not None]
    lines += [argv for probes in worker.PROBES.values() for _, argv in probes]
    assert len(lines) >= 9
    for argv in lines:
        cli._read_flags(cli._parse(cli._build_parser(), argv))
    worker.setup(tmp_path)
    assert _summary(tmp_path / "warmup", "diagnose")["config"]["family"] == (
        "clt-pairs")


@pytest.mark.parametrize("family", ["fbm-power", "fbm-singular"])
def test_diagnose_and_sweep_read_one_unit_variance_spectrum(tmp_path, family):
    # at their default grids both commands embed the same functionals, and
    # both read excess and contraction from one rescaled spectrum:
    # excess = 48 ||g x_1 g||^2 = 12 ||f x_1 f||^2 / ||f||^4, bit for bit
    d1, d2 = tmp_path / "diagnose", tmp_path / "sweep"
    assert cli.main(["diagnose", "--family", family, "--samples", "100",
                     "--out", str(d1)]) == 0
    assert cli.main(["sweep-fbm", "--family", family, "--samples", "100",
                     "--out", str(d2)]) == 0
    diag, sweep = _rows(d1, "diagnose"), _rows(d2, "sweep-fbm")
    assert len(diag) == len(sweep) == 4
    for a, b in zip(diag, sweep):
        assert float(a["variance"]) == 1.0
        assert float(a["excess_kurtosis"]) == float(b["excess_exact"])
        assert 4.0 * float(a["contraction_norm_sq_1"]) == float(
            b["contraction_ratio"])


_FAMILY_COMMANDS = [(command, family)
                    for command in ("diagnose", "sweep-fbm", "sweep-sheet",
                                    "sample")
                    for family in cli._FAMILIES
                    if not command.startswith("sweep")
                    or family.startswith(command[len("sweep-"):])]


@pytest.mark.parametrize("command,family", _FAMILY_COMMANDS,
                         ids=[f"{c}-{f}" for c, f in _FAMILY_COMMANDS])
def test_every_family_runs_under_every_command_that_takes_it(
        tmp_path, command, family):
    argv = [command, "--family", family, "--samples", "200"]
    if cli._FAMILIES[family].model:  # only a family with a process has a grid
        uniform = tmp_path / "uniform"
        assert cli.main(argv + ["--cells", "16", "--grid", "uniform",
                                "--out", str(uniform)]) == 0
        assert _summary(uniform, command)["config"]["octaves"] is None
        argv += ["--cells", "16", "--octaves", "8"]
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    rows = _rows(tmp_path, command)
    points = len(cli._FAMILIES[family].schedule)
    assert len(rows) == (200 if command == "sample" else points)
    # the config echo is the experiment: every flag but the execution ones
    flags = set(vars(cli._build_parser().parse_args([command])))
    flags -= {"command", "run", "out", "config", "threads"}
    assert set(_summary(tmp_path, command)["config"]) == flags


@pytest.mark.parametrize("argv", [
    ["diagnose", "--family", "sheet-power", "--schedule", "-0.9,-0.95"],
    ["sweep-sheet", "--schedule", "-0.9,-0.95"],
    ["sample", "--family", "sheet-power", "--beta", "-5e-1"],
], ids=["diagnose", "sweep-sheet", "sample"])
def test_negative_value_follows_its_flag_after_a_space(tmp_path, argv):
    spaced, joined = tmp_path / "spaced", tmp_path / "joined"
    tail = ["--cells", "8", "--samples", "100"]
    assert cli.main(argv + tail + ["--out", str(spaced)]) == 0
    argv = argv[:-2] + [f"{argv[-2]}={argv[-1]}"]
    assert cli.main(argv + tail + ["--out", str(joined)]) == 0
    assert _bytes(spaced, argv[0]) == _bytes(joined, argv[0])


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


@pytest.mark.parametrize("flag", [["--config={}"], ["--conf", "{}"]],
                         ids=["equals", "prefix"])
def test_config_file_read_in_every_spelling(tmp_path, flag):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("samples = 321\nseed = 5\n")
    echoes = []
    for i, spelled in enumerate((["--config", "{}"], flag)):
        out = tmp_path / str(i)
        argv = [a.format(cfg) for a in spelled]
        assert cli.main(["sample", *argv, "--out", str(out)]) == 0
        echoes.append(_summary(out, "sample")["config"])
    assert echoes[0] == echoes[1]
    assert (echoes[1]["samples"], echoes[1]["seed"]) == (321, 5)


def test_config_file_errors(tmp_path, capsys):
    bogus = tmp_path / "bogus.cfg"
    bogus.write_text("frobnication = 3\n")
    rc = cli.main(["sample", "--config", str(bogus), "--out", str(tmp_path)])
    assert rc == 1
    assert "frobnication" in capsys.readouterr().err

    rc = cli.main(["sample", "--out", str(tmp_path), "--config"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: usage:")

    rc = cli.main(["sample", f"--config={bogus}", "--out", str(tmp_path)])
    assert rc == 1
    assert "frobnication" in capsys.readouterr().err

    rc = cli.main(["sample", "--config", str(tmp_path / "missing.cfg"),
                   "--out", str(tmp_path)])
    assert rc == 1
    assert "cannot read config file" in capsys.readouterr().err

    # the path is missing, so argparse reports it, not the file read
    rc = cli.main(["sample", "--config", "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: usage: argument --config: expected one argument\n")

    noeq = tmp_path / "noeq.cfg"
    noeq.write_text("samples 100\n")
    rc = cli.main(["sample", "--config", str(noeq), "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: usage: config line 1 is not key=value: 'samples 100'\n")

    # a key is one of the command's own flags, spelled out in full
    for command, key in [("sweep-sheet", "hurst"), ("validate", "samples"),
                         ("sample", "config"), ("sample", "cell")]:
        cfg = tmp_path / f"{key}.cfg"
        cfg.write_text(f"{key} = 7\n")
        rc = cli.main([command, "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: usage: unknown config key {key!r} (line 1)\n")


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
        # 2^-2047 is below double range: the grid is rejected before any Gram
        ["sweep-fbm", "--family", "fbm-singular", "--cells", "2048",
         "--out", str(tmp_path)],
        ["diagnose", "--family", "clt-pairs", "--schedule", "1.5,2.9",
         "--out", str(tmp_path)],
        # a clt-pairs k past the dense cap is refused before its kernel is
        # allocated: 2k = 2e8 and 2e30 coordinates against 8192
        ["sample", "--family", "clt-pairs", "--k", "100000000",
         "--out", str(tmp_path)],
        ["diagnose", "--schedule", "1e30", "--out", str(tmp_path)],
        # flags a command does not take
        ["sweep-sheet", "--hurst", "7", "--out", str(tmp_path)],
        ["sweep-fbm", "--dims", "9", "--out", str(tmp_path)],
        ["validate", "--samples", "7", "--out", str(tmp_path)],
        # an empty list flag is refused, not read as the default schedule
        ["diagnose", "--schedule", ",", "--out", str(tmp_path)],
        ["diagnose", "--schedule", "abc", "--out", str(tmp_path)],
        ["sweep-sheet", "--schedule=", "--out", str(tmp_path)],
        # a non-finite power exponent is refused by the family
        ["diagnose", "--family", "fbm-power", "--schedule", "inf",
         "--out", str(tmp_path)],
        ["sample", "--family", "sheet-power", "--beta", "inf", "--cells", "16",
         "--out", str(tmp_path)],
        # so are infinite octaves, before any node is formed from them
        ["diagnose", "--family", "fbm-power", "--octaves", "inf",
         "--out", str(tmp_path)],
    ]
    # --samples below the KS test's 100 draws and --threads below 1 are
    # refused naming the flag
    bounds = [
        ["sample", "--samples", "-5", "--out", str(tmp_path)],
        ["sample", "--samples", "0", "--out", str(tmp_path)],
        ["diagnose", "--samples", "50", "--out", str(tmp_path)],
        ["sweep-fbm", "--threads", "0", "--out", str(tmp_path)],
        ["validate", "--threads", "-2", "--out", str(tmp_path)],
    ]
    for argv in argvs + bounds:
        rc = cli.main(argv)
        assert rc == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: usage:"), argv
        assert len(err.splitlines()) == 1, argv
        if argv in bounds:
            assert f"{argv[1]} must be an integer >= " in err, argv
        if "abc" in argv:
            assert err == "error: usage: not a comma-separated float list: 'abc'\n"
    assert not list(tmp_path.iterdir())

    # sweep-sheet takes its schedule as --schedule: a parameter flag is
    # not one of its flags, for either family
    for family, flag in [("sheet-singular", "--beta"), ("sheet-power", "--eps")]:
        rc = cli.main(["sweep-sheet", "--family", family, flag, "0.1",
                       "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: usage: unrecognized arguments: {flag} 0.1\n"


@pytest.mark.parametrize("argv", [
    # dense kernel capacity: a 1024^2-cell sheet is a 1048576-dim embedding
    ["diagnose", "--family", "sheet-power", "--dims", "2", "--cells", "1024"],
    # the same guard met by the sampler, before any draw
    ["sample", "--family", "sheet-power", "--dims", "2", "--cells", "1024"],
    # and by an fbm sweep: 16384 cells on one axis exceed the dense cap
    ["sweep-fbm", "--cells", "16384", "--grid", "uniform"],
    # a 256^3-cell sheet is refused by the kernel's size guard, and the
    # embedding stores nothing of size cells^3 before it
    ["sweep-sheet", "--dims", "3", "--cells", "256"],
    # 2^1000 coordinates: refused before the family, its dims-long tuple of
    # axis weights or its exact mean (which overflows) is formed
    ["sample", "--family", "sheet-singular", "--dims", "1000", "--cells", "2"],
    ["sweep-sheet", "--family", "sheet-singular", "--dims", "1000",
     "--cells", "2"],
])
def test_numerical_failures_exit_two(argv, capsys, tmp_path):
    rc = cli.main(argv + ["--samples", "100", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: numerical: spectrum: ")
    assert len(err.splitlines()) == 1
    assert not list(tmp_path.iterdir())


def test_oversized_grid_refused_before_its_nodes(monkeypatch, capsys,
                                                 tmp_path):
    def _no_nodes(cells):
        raise AssertionError("nodes built for an oversized grid")

    monkeypatch.setattr(embeddings, "uniform_nodes", _no_nodes)
    argv = ["sweep-fbm", "--grid", "uniform", "--cells", "16384",
            "--samples", "100", "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        "error: numerical: spectrum: embedding dimension 16384 too large "
        "for a dense kernel\n")
    # a dimension past 64 bits is named, not printed in full
    argv = ["sample", "--family", "sheet-power", "--dims", "2000",
            "--cells", "2", "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        "error: numerical: spectrum: embedding dimension 2^2000 too large "
        "for a dense kernel\n")


def _dense_kernel(ef):
    return tail_mass_kernel2(ef.embedding, ef.functional.axis_weights())


def test_deep_fbm_power_grids_give_finite_spectra(capsys, tmp_path):
    # first cells of width 2^-1000 and 2^-720: increment variances that
    # underflow once needed a Cholesky jitter that put the kernel out of
    # double range; the closed-form spectrum needs no factor, and the
    # node factor judges each row against its own variance
    argv = ["diagnose", "--family", "fbm-power", "--cells", "16",
            "--octaves", "1000", "--samples", "100", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    for row, x in zip(_rows(tmp_path, "diagnose"), cli._BETA_SCHEDULE):
        func = FbmPowerVariation(0.75, (x - 2.5) / 2.0)
        ef = embed_on_grid(func, 16, "geometric", 1000.0)
        assert float(row["excess_kurtosis"]) == ef.excess_kurtosis_exact()

    argv = ["sweep-fbm", "--family", "fbm-power", "--schedule", "0.1",
            "--cells", "16", "--octaves", "720", "--samples", "100",
            "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    assert "error" not in capsys.readouterr().err
    (row,) = _rows(tmp_path, "sweep-fbm")
    variance = float(row["variance_exact"])
    assert variance == pytest.approx(0.2750366, rel=1e-6)
    # the dense route through the node factor gives the same value
    ef = embed_on_grid(FbmPowerVariation(0.75, -1.2), 16, "geometric", 720.0)
    assert 2.0 * ef.scale**2 * norm_sq(_dense_kernel(ef)) == pytest.approx(
        0.2750366, rel=1e-6)
    # at 716 octaves: cells below 2^-716 change the variance by about 1e-4
    ef = embed_on_grid(FbmPowerVariation(0.75, -1.2), 16, "geometric", 716.0)
    dense = 2.0 * ef.scale**2 * norm_sq(_dense_kernel(ef))
    assert dense == pytest.approx(0.2750712, rel=1e-6)
    assert variance == pytest.approx(dense, rel=2e-4)


@pytest.mark.parametrize("grid", ["uniform", "geometric"])
@pytest.mark.parametrize("family, point, process", [
    ("fbm-power", "1000", ["--hurst", "0.01"]),
    ("fbm-power", "1000", ["--hurst", "0.5"]),
    ("fbm-power", "1000", ["--hurst", "0.99"]),
    ("sheet-power", "400", ["--dims", "1"]),
    ("sheet-power", "400", ["--dims", "3"]),
])
def test_large_beta_tail_steps_stay_finite(tmp_path, grid, family, point,
                                           process):
    # beta near 500 and 400: expm1(p log(hi/lo)) once overflowed where
    # lo^(p/2) underflowed, and their product put NaN into the Gram; the
    # statistic is nearly rank one, so its excess is near 12
    cells = "16" if family == "fbm-power" else "8"
    argv = ["diagnose", "--family", family, "--schedule", point, *process,
            "--cells", cells, "--grid", grid, "--samples", "100",
            "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    (row,) = _rows(tmp_path, "diagnose")
    for name in ("variance", "fourth_moment", "excess_kurtosis",
                 "contraction_norm_sq_1", "ks_statistic"):
        assert np.isfinite(float(row[name])), name
    assert float(row["excess_kurtosis"]) == pytest.approx(12.0, abs=1e-9)


@pytest.mark.parametrize("argv", [
    ["diagnose", "--family", "fbm-power", "--cells", "1075"],
    ["sweep-fbm", "--family", "fbm-power", "--cells", "1075"],
    *(["diagnose", "--family", "fbm-power", "--cells", "3", "--octaves",
       "1074", "--hurst", h] for h in ("0.01", "0.5", "0.99")),
    ["diagnose", "--family", "sheet-power", "--cells", "2", "--octaves",
     "1074"],
])
def test_grids_whose_first_midpoint_underflows_are_refused(tmp_path, capsys,
                                                           argv):
    # node 1 is 2^-1074, so the first midpoint rounds to 0, and a weight
    # u^(2 expo) with 2 expo + 1 <= 0 has infinite mass on that cell
    assert cli.main(argv + ["--samples", "100", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: usage: ")
    assert f"{argv[argv.index('--cells') + 1]} cells over 1074 octaves" in err


@pytest.mark.parametrize("family, cells", [("fbm-power", "1074"),
                                           ("fbm-singular", "1075")])
def test_grids_at_the_midpoint_limit_run(tmp_path, family, cells):
    # at 1074 cells node 1 is 2^-1073 and its midpoint 2^-1074 > 0; at
    # 1075 the singular family's cutoff clips the midpoint above 0
    argv = ["diagnose", "--family", family, "--cells", cells, "--samples",
            "100", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    for row in _rows(tmp_path, "diagnose"):
        assert np.isfinite(float(row["excess_kurtosis"]))


def test_numerical_errors_exit_two(monkeypatch, capsys, tmp_path):
    def _boom(args):
        raise np.linalg.LinAlgError("factor: node correlation matrix is not "
                                    "positive definite")

    monkeypatch.setattr(cli, "_cmd_sample", _boom)
    rc = cli.main(["sample", "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: numerical:")

    # one cell per axis fits the cap, but log(1/eps)^1000 overflows
    rc = cli.main(["diagnose", "--family", "sheet-singular", "--grid",
                   "uniform", "--cells", "1", "--dims", "1000",
                   "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        "error: numerical: mean: exact mean of SheetSingularVariation is "
        "outside double range")

    # log(2)^-2500 overflows in the normalization; the mean underflows to 0
    rc = cli.main(["diagnose", "--family", "sheet-singular", "--grid",
                   "uniform", "--cells", "1", "--dims", "5000", "--schedule",
                   "0.5", "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        "error: numerical: mean: normalization of SheetSingularVariation is "
        "outside double range")


def test_out_of_memory_is_one_usage_line(monkeypatch, capsys, tmp_path):
    # 10^11 draws would ask for 745 GiB; the allocation is not made for
    # real, since under memory overcommit it can succeed and fail later
    def _no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB for an array with "
                          "shape (100000000000,) and data type float64")

    monkeypatch.setattr(cli, "gaussian_limit_report", _no_memory)
    rc = cli.main(["diagnose", "--samples", "100000000000",
                   "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: usage: out of memory: Unable to allocate")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv, excess", [
    (["sweep-fbm", "--family", "fbm-power", "--schedule", "1e200,1e300"],
     "excess_exact"),
    (["sweep-sheet", "--family", "sheet-power", "--dims", "1", "--schedule",
      "1e200,1e300"], "excess_exact"),
    (["diagnose", "--family", "fbm-power", "--schedule", "1e200,1e300"],
     "excess_kurtosis"),
    (["diagnose", "--family", "sheet-power", "--dims", "1", "--schedule",
      "1e200,1e300"], "excess_kurtosis"),
])
def test_exact_columns_stay_in_range_where_the_variance_underflows(
        tmp_path, capsys, argv, excess):
    # the one live eigenvalue is about 1/(2 beta + 1), whose square
    # underflows: the spectrum is scaled by a power of two first
    assert cli.main(argv + ["--cells", "16", "--samples", "1000",
                            "--out", str(tmp_path)]) == 0
    assert "error" not in capsys.readouterr().err
    rows = _rows(tmp_path, argv[0])
    assert len(rows) == 2
    for row in rows:
        for name, value in row.items():
            if name not in ("family", "label", "ks_pass") and value:
                assert np.isfinite(float(value)), name
        assert float(row[excess]) == pytest.approx(12.0, abs=1e-9)
        if argv[0] != "diagnose":
            gap = float(row["variance_exact"]) - float(row["mc_variance"])
            assert abs(gap) < 4.0 * float(row["se_variance"])


@pytest.mark.parametrize("argv", [
    ["sweep-sheet", "--family", "sheet-power", "--dims", "2", "--cells", "4",
     "--schedule", "1e300", "--samples", "1000"],
    ["diagnose", "--family", "sheet-power", "--dims", "2", "--cells", "4",
     "--schedule", "1e300"],
])
def test_an_underflowing_product_spectrum_is_refused(tmp_path, capsys, argv):
    # each axis's eigenvalue is about 1e-300, and their product is 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(argv + ["--out", str(tmp_path)]) == 2
    assert not caught
    err = capsys.readouterr().err
    assert err.startswith("error: numerical: spectrum: ")
    assert len(err.splitlines()) == 1


# schedule points per family: near and at each end of its parameter domain
_WALK_POINTS = {
    "fbm-power": ("1e-15", "0.5", "1000", "1e300"),
    "fbm-singular": ("2.3e-308", "1e-8", "0.5", "0.999999"),
    "sheet-power": ("-0.999999", "0", "400", "1e300"),
    "sheet-singular": ("2.3e-308", "0.5"),
}


def _walk_argvs():
    """(family, diagnose argv) over every grid, process and schedule point.

    The deep geometric pair, whose fbm spectra are about 1074 x 1074,
    runs at one Hurst index.
    """
    grids = [("uniform", "1"), ("uniform", "16"), ("geometric", "2"),
             ("geometric", "16"), ("geometric", "1074"), ("geometric", "1075")]
    for grid, cells in grids:
        hursts = ("0.5",) if int(cells) > 1000 else ("0.001", "0.5", "0.999")
        for family, points in _WALK_POINTS.items():
            flag, values = (("--hurst", hursts) if family.startswith("fbm")
                            else ("--dims", ("1", "2", "3")))
            for value, x in itertools.product(values, points):
                yield family, ["diagnose", "--family", family, flag, value,
                               "--grid", grid, "--cells", cells,
                               "--schedule", x, "--samples", "100"]
    for argv in _EDGE_ARGVS:
        yield argv[argv.index("--family") + 1], argv + ["--samples", "100"]


# cutoffs whose 1/eps overflows, though their mass log(1/eps) is finite;
# the last runs on the deepest geometric grid
_SUBNORMAL_ARGVS = [
    ["diagnose", "--family", "fbm-singular", "--schedule", "1e-310"],
    ["sweep-fbm", "--family", "fbm-singular", "--schedule", "1e-310,5e-324"],
    ["sweep-sheet", "--family", "sheet-singular", "--schedule", "1e-310,5e-324",
     "--dims", "2", "--cells", "32"],
    ["diagnose", "--family", "fbm-singular", "--schedule", "5e-324",
     "--cells", "1074", "--hurst", "0.5"],
]
# the walk's open edges: sheets at the dense cap of 8192 coordinates and
# past 64 axes, 8192 fbm cells with few of them live, subnormal cutoffs and
# infinite octaves
_EDGE_ARGVS = [
    *(["diagnose", "--family", family, "--dims", "13", "--cells", "2"]
      for family in ("sheet-power", "sheet-singular")),
    *([command, "--family", family, "--dims", dims, "--cells", "1",
       "--grid", "uniform"]
      for command, family in (("diagnose", "sheet-singular"),
                              ("sample", "sheet-singular"),
                              ("sweep-sheet", "sheet-power"))
      for dims in ("64", "65")),
    ["diagnose", "--family", "fbm-singular", "--cells", "8192",
     "--octaves", "20", "--schedule", "0.5"],
    ["diagnose", "--family", "fbm-singular", "--cells", "8192",
     "--grid", "uniform", "--schedule", "0.999"],
    *_SUBNORMAL_ARGVS,
    ["diagnose", "--family", "fbm-power", "--octaves", "inf"],
]
# each command's exact columns; sample has none, and its summary moments
# are checked instead
_EXACT_COLUMNS = {
    "diagnose": ("variance", "fourth_moment", "excess_kurtosis",
                 "contraction_norm_sq_1"),
    "sweep-fbm": ("variance_exact", "excess_exact", "contraction_ratio"),
    "sweep-sheet": ("variance_exact", "excess_exact", "contraction_ratio"),
    "sample": ("mean", "variance", "skewness", "kurtosis"),
}


def _assert_finite_columns(out, argv):
    command = argv[0]
    rows = ([_summary(out, command)["results"]] if command == "sample"
            else _rows(out, command))
    assert rows, argv
    for row in rows:
        for name in _EXACT_COLUMNS[command]:
            assert np.isfinite(float(row[name])), (argv, name)


@pytest.mark.parametrize("command", ["diagnose", "sweep-fbm"])
def test_fbm_power_points_below_beta_resolution_are_refused(tmp_path, capsys,
                                                            command):
    # at H = 0.75, beta = (x - 2.5)/2 gives x = 1e-13 back as 2 beta + 2.5
    # off by 8e-4 relative; x = 1e-3 comes back within 1.1e-13
    argv = [command, "--family", "fbm-power", "--hurst", "0.75", "--cells",
            "16", "--samples", "100", "--out", str(tmp_path)]
    assert cli.main(argv + ["--schedule", "1e-3"]) == 0
    capsys.readouterr()
    assert cli.main(argv + ["--schedule", "1e-3,1e-13"]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: usage: fbm-power schedule point 1e-13 ")
    assert "beta" in line


def test_parameter_domain_walk(tmp_path, capsys):
    # every argv runs with finite exact columns, or is refused as a usage
    # error that names the parameter, or as a numerical error that names
    # its stage
    stage = re.compile(r"error: numerical: (spectrum|kernel|factor|mean): ")
    for family, argv in _walk_argvs():
        rc = cli.main(argv + ["--out", str(tmp_path)])
        err = capsys.readouterr().err
        if rc == 0:
            _assert_finite_columns(tmp_path, argv)
            continue
        (line,) = err.splitlines()
        if rc == 1:
            param = "beta" if family.endswith("power") else "eps"
            assert line.startswith("error: usage: "), argv
            assert any(p in line for p in ("cells", "octaves", param)), argv
        else:
            assert rc == 2 and stage.match(line), argv


@pytest.mark.parametrize("argv", _SUBNORMAL_ARGVS, ids=[
    "diagnose", "sweep-fbm", "sweep-sheet", "diagnose-deepest-grid"])
def test_subnormal_cutoffs_run(tmp_path, argv):
    assert cli.main(argv + ["--samples", "100", "--out", str(tmp_path)]) == 0
    _assert_finite_columns(tmp_path, argv)


@pytest.mark.parametrize("command, flag", [("diagnose", "--schedule"),
                                           ("sweep-sheet", "--schedule")])
def test_sheets_past_64_axes_run(tmp_path, command, flag):
    # one cell per axis: the spectrum is one product of 65 axis eigenvalues,
    # never an array of 65 dimensions
    assert cli.main([command, "--family", "sheet-singular", "--grid",
                     "uniform", "--cells", "1", "--dims", "65", flag, "0.5",
                     "--samples", "200", "--out", str(tmp_path)]) == 0
    (row,) = _rows(tmp_path, command)
    excess = row["excess_kurtosis" if command == "diagnose" else "excess_exact"]
    assert float(excess) == pytest.approx(12.0, rel=1e-12)  # rank one


def test_degenerate_factor_error_names_its_stage(monkeypatch, capsys,
                                                 tmp_path):
    from chaoskit.embeddings import _cholesky_with_jitter

    def _indefinite(args):
        _cholesky_with_jitter(np.array([[1.0, 2.0], [2.0, 1.0]]))

    monkeypatch.setattr(cli, "_cmd_sample", _indefinite)
    assert cli.main(["sample", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: numerical: factor: node correlation matrix")


def test_sample_streams_its_rows(tmp_path):
    # 1e5 (index, value) rows held as one list took about 12 MB; streamed,
    # the peak is the draws, summarize's n-length outputs and the KS test's
    # sorted copy
    argv = ["sample", "--samples", "100000", "--out", str(tmp_path)]
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    assert len(_rows(tmp_path, "sample")) == 100000
