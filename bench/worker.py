"""One benchmark process: set chaoskit up, then run passes of a workload.

    python3 bench/worker.py setup --out DIR
    python3 bench/worker.py run --workload W --seed N --seconds S --out DIR
        --result FILE [--trace]
    python3 bench/worker.py expected > bench/expected.json

Set-up is the import of chaoskit and chaoskit.cli plus one tiny CLI call;
the worker prints "ready" when it is done, so the parent can time set-up
from process start.  The worker then runs passes over the workload's
timed units, CLI units through chaoskit.cli.main(argv) in this process
and API units through the public Python API, until the next pass would
end after --seconds (at least one pass).  It writes one JSON result:
per-pass and per-unit wall times, exit codes and sha256 of every
contract file, the process's peak resident memory over the passes, and,
when untraced, the output checks (on the first pass's files), the
known-defect probes and the machine facts; with --trace, the per-layer
metrics instead.  Inputs come from --seed only; input preparation,
hashing, the checks and the probes run outside the timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import resource
import string
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
EXPECTED = Path(__file__).resolve().parent / "expected.json"

# validate runs at the acceptance suite's reference seed (tests/README use
# 42): criterion 3 ends in a 5%-level KS test, so at arbitrary seeds it
# fails by design on a few seeds in a hundred
REFERENCE_SEED = 42
# outputs are compared to stored exact values to this relative tolerance,
# and Monte Carlo moments to their exact values within this many
# jackknife standard errors
EXACT_RTOL = 1e-9
MC_SE = 4.0
PRODUCT_RTOL = 1e-9
ORDER3_DIMS = (4, 8, 12)
ORDER3_SAMPLES = 100_000
PRODUCT_DIM = 8
PRODUCT_DRAWS = 2000

# (unit name, schedule points or kernels, argv); argv None marks an API unit
WORKLOADS = {
    "mc-sweep": [
        ("sweep-fbm-power", 4, ["sweep-fbm", "--family", "fbm-power"]),
        ("sweep-fbm-singular", 4, ["sweep-fbm", "--family", "fbm-singular"]),
        ("sample-fbm-singular", 1, ["sample", "--family", "fbm-singular",
                                    "--eps", "1e-4", "--samples", "100000"]),
    ],
    "exact": [
        ("diagnose-fbm-singular", 4, ["diagnose", "--family", "fbm-singular",
                                      "--cells", "1024", "--samples", "100"]),
        ("diagnose-fbm-power", 4, ["diagnose", "--family", "fbm-power",
                                   "--cells", "1024", "--octaves", "511",
                                   "--samples", "100"]),
        ("diagnose-sheet-power", 4, ["diagnose", "--family", "sheet-power",
                                     "--dims", "2", "--cells", "32",
                                     "--samples", "100"]),
        ("validate-1-5", 5, ["validate", "--criteria", "1-5"]),
        ("limit-report-order3", len(ORDER3_DIMS), None),
        ("product-formula-order3", 1, None),
    ],
}
# known defects: attempted and counted in error_rate, never timed
PROBES = {
    "exact": [
        ("probe-fbm-power-default-octaves",
         ["diagnose", "--family", "fbm-power", "--cells", "1024",
          "--samples", "100"]),
        ("probe-sheet-power-cells-1024",
         ["diagnose", "--family", "sheet-power", "--dims", "2",
          "--cells", "1024", "--samples", "100"]),
    ],
}
EXACT_COLUMNS = {
    "sweep-fbm": ("variance_exact", "excess_exact", "contraction_ratio"),
    "diagnose": ("variance", "fourth_moment", "excess_kurtosis",
                 "contraction_norm_sq_1"),
}


def setup(out: Path):
    """Import the package and make one tiny CLI call; return the cli module."""
    import chaoskit  # noqa: F401
    import chaoskit.cli as cli

    run_cli(cli, ["diagnose", "--family", "clt-pairs", "--schedule", "1",
                  "--samples", "100", "--out", str(out / "warmup")])
    return cli


def run_cli(cli, argv):
    """cli.main in this process; returns (exit code, last stderr line)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main(argv)
    lines = [ln for ln in err.getvalue().splitlines() if ln.startswith("error:")]
    return code, lines[-1] if lines else ""


def cli_argv(argv, seed, out: Path):
    seed = REFERENCE_SEED if argv[0] == "validate" else seed
    return argv + ["--seed", str(seed), "--threads", "1", "--out", str(out)]


# ------------------------------------------------------------ API units


def prepare_inputs(seed: int):
    """Dense order-3 kernels and draws, from the workload seed alone."""
    import numpy as np
    from chaoskit import sym

    gen = np.random.Generator(np.random.PCG64(seed))
    kernels = [sym(gen.standard_normal((d,) * 3)) for d in ORDER3_DIMS]
    f = sym(gen.standard_normal((PRODUCT_DIM,) * 3))
    g = sym(gen.standard_normal((PRODUCT_DIM,) * 3))
    xi = gen.standard_normal((PRODUCT_DRAWS, PRODUCT_DIM))
    return {"kernels": kernels, "f": f, "g": g, "xi": xi}


def unit_limit_report(inputs, seed):
    from chaoskit import gaussian_limit_report

    report = gaussian_limit_report(inputs["kernels"],
                                   [str(d) for d in ORDER3_DIMS],
                                   samples=ORDER3_SAMPLES, seed=seed)
    return {"verdict": report.verdict,
            "rows": [{"label": r.label, "order": r.order,
                      "variance": r.variance,
                      "fourth_moment": r.fourth_moment,
                      "excess_kurtosis": r.excess_kurtosis,
                      "contraction_norms_sq": list(r.contraction_norms_sq),
                      "ks_statistic": r.ks.statistic} for r in report]}


def unit_product_formula(inputs, seed):
    import numpy as np
    from chaoskit import eval_chaos_element, eval_integral, product_formula

    f, g, xi = inputs["f"], inputs["g"], inputs["xi"]
    lhs = eval_integral(f, xi) * eval_integral(g, xi)
    rhs = eval_chaos_element(product_formula(f, g), xi)
    resid = np.max(np.abs(lhs - rhs) / (1.0 + np.abs(lhs) + np.abs(rhs)))
    return {"residual": float(resid)}


API_UNITS = {"limit-report-order3": unit_limit_report,
             "product-formula-order3": unit_product_formula}


# --------------------------------------------------------------- a pass


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_pass(workload, seed, out: Path, cli, inputs):
    units = []
    for name, points, argv in WORKLOADS[workload]:
        udir = out / name
        udir.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        if argv is not None:
            code, error = run_cli(cli, cli_argv(argv, seed, udir))
        else:
            try:
                outputs = API_UNITS[name](inputs, seed)
                code, error = 0, ""
            except Exception as e:  # a failed unit is counted, not fatal
                code, error = 1, f"error: {type(e).__name__}: {e}"
        seconds = time.perf_counter() - t0
        if argv is None and code == 0:
            (udir / "report.json").write_text(
                json.dumps(outputs, indent=2, sort_keys=True) + "\n")
        units.append({"name": name, "points": points, "seconds": seconds,
                      "code": code, "error": error})
    return units


def contract_files(out: Path, units):
    for u in units:
        udir = out / u["name"]
        u["files"] = {p.name: sha256(p) for p in sorted(udir.iterdir())}
        u["bytes"] = sum((udir / f).stat().st_size for f in u["files"])


def run_probes(workload, seed, out: Path, cli):
    probes = []
    for name, argv in PROBES.get(workload, ()):
        code, error = run_cli(cli, cli_argv(argv, seed, out / name))
        probes.append({"name": name, "code": code, "error": error})
    return probes


# --------------------------------------------------------------- checks


def read_csv(path: Path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def jackknife_mean_var(x):
    """Mean and n-1 variance with delete-one jackknife standard errors."""
    import numpy as np

    x = np.asarray(x, dtype=float)
    n = x.size
    c = x - x.mean()
    s1, s2 = c.sum(), (c * c).sum()
    loo_mean = (s1 - c) / (n - 1)
    loo_var = (s2 - c * c - (s1 - c) ** 2 / (n - 1)) / (n - 2)

    def se(v):
        return math.sqrt((n - 1) / n * float(np.sum((v - v.mean()) ** 2)))

    return float(x.mean()), float(s2 / (n - 1)), se(loo_mean), se(loo_var)


def within_se(name, value, exact, se):
    ok = abs(value - exact) <= MC_SE * se
    return {"check": name, "ok": bool(ok),
            "detail": f"{value!r} vs exact {exact!r}, {MC_SE:g} SE = {MC_SE * se!r}"}


def close(name, got, want):
    ok = len(got) == len(want) and all(
        abs(a - b) <= EXACT_RTOL * max(abs(b), 1e-300) for a, b in zip(got, want))
    return {"check": name, "ok": bool(ok), "detail": f"{got!r} vs {want!r}"}


def check_cli_unit(name, argv, udir: Path, expected):
    command = argv[0]
    rows = read_csv(udir / f"{command}.csv")
    checks = []
    if command in EXACT_COLUMNS:
        want = expected[name]
        for col in EXACT_COLUMNS[command]:
            checks.append(close(f"exact:{col}",
                                [float(r[col]) for r in rows], want[col]))
        # every column that applies to the family is filled
        empty = {c for r in rows for c, v in r.items() if v == ""}
        allowed = set()
        if command == "sweep-fbm":
            allowed = {"dims", "variance_closed_form",
                       "eps" if "fbm-power" in argv else "beta"}
        checks.append({"check": "all-columns", "ok": not (empty - allowed),
                       "detail": f"empty columns {sorted(empty)}"})
    if command == "sweep-fbm":
        for r in rows:
            i = r["index"]
            checks.append(within_se(f"mc-mean:{i}", float(r["mc_mean"]), 0.0,
                                    float(r["se_mean"])))
            checks.append(within_se(f"mc-variance:{i}",
                                    float(r["mc_variance"]),
                                    float(r["variance_exact"]),
                                    float(r["se_variance"])))
    elif command == "sample":
        draws = [float(r["value"]) for r in rows]
        mean, var, se_mean, se_var = jackknife_mean_var(draws)
        checks.append({"check": "draw-count",
                       "ok": len(draws) == int(argv[argv.index("--samples") + 1]),
                       "detail": str(len(draws))})
        checks.append(within_se("mc-mean", mean, 0.0, se_mean))
        checks.append(within_se("mc-variance", var,
                                expected[name]["variance_exact"], se_var))
    elif command == "validate":
        summary = json.loads((udir / "validate.summary.json").read_text())
        checks.append({"check": "all-criteria-pass",
                       "ok": summary["results"]["all_passed"] is True,
                       "detail": json.dumps(summary["results"]["criteria"])})
    return checks


def pairings(legs):
    """Perfect matchings of legs (copy, slot) that pair no copy with itself.

    Yields each matching as the tuple of its (copy, copy) edges.
    """
    if not legs:
        yield ()
        return
    a, rest = legs[0], legs[1:]
    for k, b in enumerate(rest):
        if a[0] != b[0]:
            for tail in pairings(rest[:k] + rest[k + 1:]):
                yield ((a[0], b[0]),) + tail


def wick_fourth_moment(f) -> float:
    """E[I_n(f)^4] by the diagram formula, independent of chaoskit's.

    I_n(f) is the Wick polynomial sum f_i :xi_i1 ... xi_in:, so its fourth
    moment is the sum, over the pairings of the 4n legs of four copies of f
    that join no copy to itself, of the full contraction of the copies
    along the pairing.  Pairings with the same edge counts between copies
    contract to the same value, so each such graph is evaluated once.
    """
    import numpy as np

    legs = [(c, s) for c in range(4) for s in range(f.order)]
    graphs = Counter(tuple(sorted(Counter(m).items())) for m in pairings(legs))
    total = 0.0
    for graph, count in graphs.items():
        letters = iter(string.ascii_letters)
        subs = [[] for _ in range(4)]
        for (i, j), edges in graph:
            for _ in range(edges):
                ch = next(letters)
                subs[i].append(ch)
                subs[j].append(ch)
        expr = ",".join("".join(s) for s in subs)
        total += count * float(np.einsum(expr, *[f.coeffs] * 4, optimize=True))
    return total


def check_limit_report(inputs, seed, udir: Path):
    """Each row against oracles, and fresh draws against the exact moments.

    The fourth moment is checked against the diagram formula, and at d = 4
    also against reference.moment_bruteforce, which expands the polynomial
    term by term (about 6 s at d = 8 on a 2-core VM, so it is not run past
    d = 4); the squared contraction norms against
    reference.contraction_bruteforce.  Monte Carlo is kept to the mean and
    variance: the fourth power of an order-3 integral is so heavy-tailed
    that its sample mean over 1e5 draws falls beyond 4 jackknife SE of the
    exact value on 1-2% of draw sets at d = 4 and 8.
    """
    import numpy as np
    from chaoskit import eval_integral, reference, scale, second_moment_exact

    report = json.loads((udir / "report.json").read_text())
    checks = []
    gen = np.random.Generator(np.random.PCG64([seed, 3]))
    for f, row in zip(inputs["kernels"], report["rows"]):
        lab = row["label"]
        checks.append({"check": f"unit-variance:{lab}",
                       "ok": abs(row["variance"] - 1.0) <= EXACT_RTOL,
                       "detail": repr(row["variance"])})
        g = scale(f, 1.0 / math.sqrt(second_moment_exact(f)))
        m4 = wick_fourth_moment(g)
        checks.append(close(f"fourth-moment:{lab}", [row["fourth_moment"]],
                            [m4]))
        checks.append(close(f"excess-kurtosis:{lab}",
                            [row["excess_kurtosis"]], [m4 - 3.0]))
        if g.dim == 4:
            checks.append(close(f"fourth-moment-bruteforce:{lab}",
                                [row["fourth_moment"]],
                                [float(reference.moment_bruteforce(g, 4))]))
        brute = [reference.contraction_bruteforce(g, g, p).coeffs
                 for p in range(1, g.order)]
        checks.append(close(f"contraction-norms:{lab}",
                            row["contraction_norms_sq"],
                            [float(np.vdot(c, c)) for c in brute]))
        draws = np.concatenate([
            eval_integral(g, gen.standard_normal((10_000, f.dim)))
            for _ in range(ORDER3_SAMPLES // 10_000)])
        mean, var, se_mean, se_var = jackknife_mean_var(draws)
        checks.append(within_se(f"mc-mean:{lab}", mean, 0.0, se_mean))
        checks.append(within_se(f"mc-variance:{lab}", var, 1.0, se_var))
    return checks


def check_units(workload, seed, out: Path, units, inputs):
    expected = json.loads(EXPECTED.read_text())
    argvs = {name: argv for name, _, argv in WORKLOADS[workload]}
    for u in units:
        if u["code"] != 0:
            u["checks"] = []
            continue
        udir = out / u["name"]
        argv = argvs[u["name"]]
        if argv is not None:
            checks = check_cli_unit(u["name"], argv, udir, expected)
        elif u["name"] == "limit-report-order3":
            checks = check_limit_report(inputs, seed, udir)
        else:
            resid = json.loads((udir / "report.json").read_text())["residual"]
            checks = [{"check": "pointwise-residual",
                       "ok": resid <= PRODUCT_RTOL, "detail": repr(resid)}]
        u["checks"] = checks


# ---------------------------------------------------------- machine facts


def blas_facts():
    """Name, version and live thread count of the BLAS numpy loaded."""
    import ctypes
    import numpy as np

    facts = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError, ValueError):
        pass
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                facts["threads"] = fn()
                break
    return facts


def versions():
    import platform

    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


# ------------------------------------------------------ expected values


def write_expected():
    """Print the exact columns the checks compare against, as JSON.

    Exact columns do not depend on the draw count, so the units run with
    --samples 100 here.  The sample unit's exact variance is the sweep's
    variance_exact at the same functional and grid.
    """
    import chaoskit.cli as cli

    out = ROOT / "bench" / "out" / "expected"
    expected = {}
    units = [(n, a) for w in WORKLOADS for n, _, a in WORKLOADS[w]
             if a is not None]
    units.append(("sample-fbm-singular",
                  ["sweep-fbm", "--family", "fbm-singular",
                   "--schedule", "1e-4"]))
    for name, argv in units:
        if argv[0] not in EXACT_COLUMNS:
            continue
        code, error = run_cli(cli, cli_argv(argv + ["--samples", "100"], 0,
                                            out / name))
        if code != 0:
            raise SystemExit(f"{name}: {error}")
        rows = read_csv(out / name / f"{argv[0]}.csv")
        expected[name] = {c: [float(r[c]) for r in rows]
                          for c in EXACT_COLUMNS[argv[0]]}
    expected["sample-fbm-singular"] = {
        "variance_exact": expected["sample-fbm-singular"]["variance_exact"][0]}
    print(json.dumps(expected, indent=2, sort_keys=True))


# ------------------------------------------------------------------ main


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("setup", "run", "expected"))
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=0.0,
                   help="run passes until the next would end after this; "
                        "0 runs one pass")
    p.add_argument("--out", type=Path)
    p.add_argument("--result", type=Path)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)
    if args.mode == "expected":
        write_expected()
        return 0
    cli = setup(args.out)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    inputs = prepare_inputs(args.seed)
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        pdir = args.out / f"pass{len(passes) + 1}"
        units = run_pass(args.workload, args.seed, pdir, cli, inputs)
        contract_files(pdir, units)
        passes.append({"units": units,
                       "run_s": sum(u["seconds"] for u in units)})
        now = time.perf_counter()
        if now - start + (now - t0) > args.seconds:
            break
    result = {"passes": passes, "peak_rss_mb":
              resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        layers = tracing.layer_metrics(tracer)
        layers["cli.bytes_written"] = sum(
            u["bytes"] for u, (_, _, a) in zip(units, WORKLOADS[args.workload])
            if a is not None)
        result["layers"] = layers
        tracer.write(args.out / "spans.jsonl")
    else:
        check_units(args.workload, args.seed, args.out / "pass1",
                    passes[0]["units"], inputs)
        result["probes"] = run_probes(args.workload, args.seed, args.out, cli)
        result["machine"] = {"blas": blas_facts(), **versions()}
    args.result.write_text(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
