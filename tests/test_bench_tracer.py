"""The benchmark's tracer still binds to the package it traces.

bench/tracer.py rebinds the functions named in each chaoskit module's
__all__, and EmbeddedFunctional's methods, by name.  install() does so
for the rest of its process, so the check runs in a subprocess: two
small CLI runs, untraced and then traced, must write byte-identical
contract files, and the traced pass must record spans under the names
the benchmark reports.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
from pathlib import Path

root, out = Path(sys.argv[1]), Path(sys.argv[2])
sys.path[:0] = [str(root / "bench"), str(root / "src")]
import chaoskit.cli as cli
import tracer

RUNS = (["diagnose", "--family", "fbm-singular", "--cells", "64",
         "--samples", "100"],
        ["sweep-fbm", "--family", "fbm-singular", "--cells", "64",
         "--samples", "100"])


def contract_files(tag):
    files = {}
    for argv in RUNS:
        d = out / tag / argv[0]
        assert cli.main(argv + ["--out", str(d)]) == 0
        files.update({f"{argv[0]}/{p.name}": p.read_bytes()
                      for p in sorted(d.iterdir())})
    return files


plain = contract_files("plain")
t = tracer.Tracer()
tracer.install(t)
assert contract_files("traced") == plain, "traced run changed the outputs"
print(json.dumps(sorted({span[0] for span in t.spans})))
"""


def test_tracer_binds_and_leaves_outputs_unchanged(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT), str(tmp_path)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    spans = set(json.loads(proc.stdout.splitlines()[-1]))
    assert {"diagnostics.gaussian_limit_report",
            "functionals.excess_kurtosis_exact"} <= spans
