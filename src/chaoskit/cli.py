"""Command line front end: sweeps, diagnostics, sampling, validation.

Every command writes three files into --out: <command>.csv (the data,
header row, '.'-decimal, repr floats, \\n line endings), a sidecar
<command>.schema.json documenting the columns, and <command>.summary.json
echoing the experiment configuration plus library versions and headline
results.  Outputs are bit-identical for identical experiment config and
seed, independent of --threads and --out: every Monte Carlo stream is
keyed by (seed, tag, schedule index), results are assembled in schedule
order, and execution facts (thread count, output directory, wall time)
are logged to stderr only, never written into the files.

Exit codes: 0 success, 1 usage or I/O problem, 2 numerical failure
(including a validate run with failing criteria).  Errors print a single
machine-parsable line to stderr: "error: <usage|numerical>: <detail>".
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .acceptance import (CRITERION_NAMES, format_criterion, parallel_map,
                         run_criteria)
from .chaos import sample_integral2_spectral
from .diagnostics import (
    disjoint_pair_kernel,
    gaussian_limit_report,
    ks_against_std_normal,
    paired_product_kernel,
    summarize,
)
from .embeddings import DegenerateModelError
from .functionals import (
    FbmPowerVariation,
    FbmSingularVariation,
    SheetPowerVariation,
    SheetSingularVariation,
    embed_on_grid,
    sheet_power_variance_exact,
)
from .rng import stream
from .tensors import SymTensor

__all__ = ["main"]

_BETA_SCHEDULE = (1e-1, 10**-1.5, 1e-2, 10**-2.5)  # values of 2b+2H+1
_EPS_SCHEDULE = (1e-1, 1e-2, 1e-3, 1e-4)
_SHEET_SCHEDULE = (-0.9, -0.95, -0.99, -0.995)  # per-axis beta

# family -> kernel; k is the pair count of clt-pairs, ignored by the others
_SYNTHETIC = {
    "clt-pairs": disjoint_pair_kernel,
    "constant-cross": lambda k: paired_product_kernel(),
    "rank-one": lambda k: SymTensor(np.array([[1.0 / math.sqrt(2.0)]])),
}
# family -> (default schedule, functional at parameter p: beta for the
# power families, eps for the singular ones)
_FUNCTIONALS = {
    "fbm-power": (_BETA_SCHEDULE,
                  lambda a, p: FbmPowerVariation(a.hurst, p)),
    "fbm-singular": (_EPS_SCHEDULE,
                     lambda a, p: FbmSingularVariation(a.hurst, p)),
    "sheet-power": (_SHEET_SCHEDULE,
                    lambda a, p: SheetPowerVariation((p,) * a.dims)),
    "sheet-singular": (_EPS_SCHEDULE,
                       lambda a, p: SheetSingularVariation(a.dims, p)),
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract reserves 2 for numerics
    def error(self, message):
        raise UsageError(message)


def _float_list(text: str):
    try:
        return tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise UsageError(f"not a comma-separated float list: {text!r}")


# ---------------------------------------------------------------- output


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _emit(out: Path, command: str, columns, rows, config: dict, results: dict):
    """Write <command>.csv, .schema.json and .summary.json into out."""
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{command}.csv"
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow([c[0] for c in columns])
        for row in rows:
            w.writerow([_cell(v) for v in row])
    schema = {
        "file": csv_path.name,
        "empty_cell": "field not applicable to this row",
        "columns": [{"name": n, "type": t, "description": d}
                    for n, t, d in columns],
    }
    (out / f"{command}.schema.json").write_text(
        json.dumps(schema, indent=2, sort_keys=True) + "\n")
    summary = {
        "command": command,
        "config": config,
        "versions": {
            "chaoskit": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "scipy": scipy.__version__,
        },
        "results": results,
    }
    (out / f"{command}.summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")


def _config_echo(args, keys):
    """The experiment parameters, not the execution parameters."""
    echo = {}
    for k in keys:
        v = getattr(args, k)
        echo[k] = list(v) if isinstance(v, tuple) else v
    return echo


# ------------------------------------------------------------- families


def _functional(args, p):
    return _FUNCTIONALS[args.family][1](args, p)


def _schedule(args):
    """Schedule points as given, and the family parameter at each."""
    xs = list(args.schedule or _FUNCTIONALS[args.family][0])
    if args.family == "fbm-power":  # points are 2b+2H+1
        return xs, [(x - 2.0 * args.hurst - 1.0) / 2.0 for x in xs]
    return xs, xs


# ------------------------------------------------------------- commands


def _cmd_diagnose(args) -> int:
    fam = args.family
    if fam in _FUNCTIONALS:
        xs, params = _schedule(args)
        kernels = [embed_on_grid(_functional(args, p), args.cells, args.grid,
                                 args.octaves).kernel for p in params]
        labels = [repr(float(x)) for x in xs]
    elif fam == "clt-pairs":
        sched = [int(k) for k in (args.schedule or (4, 16, 64, 256))]
        if any(k < 1 for k in sched):
            raise UsageError("clt-pairs schedule entries must be >= 1")
        kernels = [disjoint_pair_kernel(k) for k in sched]
        labels = [str(k) for k in sched]
    else:  # a constant kernel; the schedule sets only the repeat count
        count = len(args.schedule) if args.schedule else 4
        kernels = [_SYNTHETIC[fam](None)] * count
        labels = [str(i + 1) for i in range(count)]

    report = gaussian_limit_report(kernels, labels, samples=args.samples,
                                   seed=args.seed)
    columns = [
        ("index", "int", "position in the schedule"),
        ("label", "string", "schedule point (k, parameter value, or repeat index)"),
        ("order", "int", "chaos order of the kernel"),
        ("variance", "float", "exact second moment after unit-variance rescale"),
        ("fourth_moment", "float", "exact fourth moment"),
        ("excess_kurtosis", "float", "exact fourth moment minus 3 x variance^2"),
        ("contraction_norm_sq_1", "float",
         "squared middle-contraction norm of the rescaled kernel (order 2)"),
        ("ks_statistic", "float", "Kolmogorov-Smirnov distance to standard normal"),
        ("ks_threshold", "float", "5% rejection threshold 1.358/sqrt(N)"),
        ("ks_pass", "bool", "true when ks_statistic < ks_threshold"),
    ]
    rows = []
    for i, r in enumerate(report):
        con = r.contraction_norms_sq[0] if r.contraction_norms_sq else None
        rows.append((i, r.label, r.order, r.variance, r.fourth_moment,
                     r.excess_kurtosis, con, r.ks.statistic, r.ks.threshold,
                     r.ks.passed))
    config = _config_echo(args, ("family", "schedule", "samples", "seed",
                                 "hurst", "dims", "cells", "grid", "octaves"))
    _emit(args.out, "diagnose", columns, rows, config,
          {"verdict": report.verdict, "rows": len(rows)})
    print(f"diagnose: verdict {report.verdict}", file=sys.stderr)
    return 0


_SWEEP_COLUMNS = [
    ("index", "int", "position in the schedule"),
    ("family", "string", "functional family swept"),
    ("hurst", "float", "Hurst parameter (fbm families)"),
    ("dims", "int", "sheet dimension (sheet families)"),
    ("beta", "float", "power exponent at this point (power families)"),
    ("eps", "float", "lower cutoff at this point (singular families)"),
    ("variance_closed_form", "float",
     "continuum variance of the normalized statistic (sheet power family)"),
    ("variance_exact", "float",
     "exact variance of the discretized normalized statistic"),
    ("excess_exact", "float", "exact excess kurtosis of the discretized statistic"),
    ("contraction_ratio", "float",
     "||f x_1 f||^2 / ||f||^4, the fourth-moment gap in contraction form"),
    ("mc_mean", "float", "Monte Carlo mean of the statistic"),
    ("mc_variance", "float", "Monte Carlo variance"),
    ("mc_skewness", "float", "Monte Carlo skewness"),
    ("mc_kurtosis", "float", "Monte Carlo kurtosis"),
    ("se_mean", "float", "jackknife standard error of mc_mean"),
    ("se_variance", "float", "jackknife standard error of mc_variance"),
    ("se_skewness", "float", "jackknife standard error of mc_skewness"),
    ("se_kurtosis", "float", "jackknife standard error of mc_kurtosis"),
    ("ks_statistic", "float", "Kolmogorov-Smirnov distance to standard normal"),
    ("ks_threshold", "float", "5% rejection threshold 1.358/sqrt(N)"),
    ("ks_pass", "bool", "true when ks_statistic < ks_threshold"),
]


def _sweep_row(command, args, index, x, func):
    ef = embed_on_grid(func, args.cells, args.grid, args.octaves)
    draws = ef.sample_statistic(
        args.samples, stream(args.seed, f"{command}:{args.family}:{index}"))
    su = summarize(draws)
    ks = ks_against_std_normal(draws)
    power = args.family.endswith("power")
    closed = (sheet_power_variance_exact(func.betas)
              if args.family == "sheet-power" else None)
    return (index, args.family,
            getattr(args, "hurst", None) if args.family.startswith("fbm") else None,
            args.dims if args.family.startswith("sheet") else None,
            x if power else None, None if power else x,
            closed, ef.variance_exact(), ef.excess_kurtosis_exact(),
            ef.contraction_ratio(),
            su.mean, su.variance, su.skewness, su.kurtosis,
            su.se_mean, su.se_variance, su.se_skewness, su.se_kurtosis,
            ks.statistic, ks.threshold, ks.passed)


def _run_sweep(command, args, echo_keys) -> int:
    xs, params = _schedule(args)  # the beta column reports beta itself
    args.schedule = tuple(float(x) for x in xs)  # echo the resolved schedule
    funcs = [_functional(args, p) for p in params]
    rows = parallel_map(
        lambda i: _sweep_row(command, args, i, params[i], funcs[i]),
        len(funcs), args.threads)
    config = _config_echo(args, echo_keys)
    results = {
        "rows": len(rows),
        "final_mc_kurtosis": rows[-1][13],
        "final_ks_pass": rows[-1][20],
    }
    _emit(args.out, command, _SWEEP_COLUMNS, rows, config, results)
    print(f"{command}: {len(rows)} schedule points", file=sys.stderr)
    return 0


def _cmd_sweep_fbm(args) -> int:
    if args.family not in ("fbm-power", "fbm-singular"):
        raise UsageError(f"sweep-fbm family must be fbm-power or fbm-singular, "
                         f"got {args.family!r}")
    return _run_sweep("sweep-fbm", args,
                      ("family", "hurst", "schedule", "samples", "seed",
                       "cells", "grid", "octaves"))


def _cmd_sweep_sheet(args) -> int:
    if args.family not in ("sheet-power", "sheet-singular"):
        raise UsageError(f"sweep-sheet family must be sheet-power or "
                         f"sheet-singular, got {args.family!r}")
    args.schedule = args.beta if args.family == "sheet-power" else args.eps
    return _run_sweep("sweep-sheet", args,
                      ("family", "dims", "schedule", "samples", "seed",
                       "cells", "grid", "octaves"))


def _cmd_sample(args) -> int:
    fam = args.family
    rng = stream(args.seed, f"sample:{fam}")
    if fam in _SYNTHETIC:
        draws = sample_integral2_spectral(_SYNTHETIC[fam](args.k), args.samples,
                                          rng)
    else:
        func = _functional(args, args.beta if fam.endswith("power") else args.eps)
        ef = embed_on_grid(func, args.cells, args.grid, args.octaves)
        draws = ef.sample_statistic(args.samples, rng)

    su = summarize(draws)
    ks = ks_against_std_normal(draws)
    columns = [
        ("index", "int", "draw index"),
        ("value", "float", "one draw of the normalized statistic"),
    ]
    rows = list(enumerate(draws.tolist()))
    config = _config_echo(args, ("family", "samples", "seed", "hurst", "beta",
                                 "eps", "dims", "k", "cells", "grid", "octaves"))
    results = {
        "mean": su.mean, "variance": su.variance,
        "skewness": su.skewness, "kurtosis": su.kurtosis,
        "ks_statistic": ks.statistic, "ks_pass": ks.passed,
    }
    _emit(args.out, "sample", columns, rows, config, results)
    print(f"sample: {len(rows)} draws, kurtosis {su.kurtosis:.4f}",
          file=sys.stderr)
    return 0


def _parse_criteria(text: str):
    if text.strip() == "all":
        return sorted(CRITERION_NAMES)
    nums = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part:
            lo, _, hi = part.partition("-")
            try:
                nums.extend(range(int(lo), int(hi) + 1))
            except ValueError:
                raise UsageError(f"bad criteria range {part!r}")
        else:
            try:
                nums.append(int(part))
            except ValueError:
                raise UsageError(f"bad criterion number {part!r}")
    bad = [n for n in nums if n not in CRITERION_NAMES]
    if bad or not nums:
        raise UsageError(f"criteria must be in 1..10, got {text!r}")
    return sorted(set(nums))


def _cmd_validate(args) -> int:
    numbers = _parse_criteria(args.criteria)
    results = run_criteria(numbers, args.seed, threads=args.threads)
    for res in results:
        print(format_criterion(res))
    columns = [
        ("criterion", "int", "criterion number"),
        ("name", "string", "criterion name"),
        ("check", "string", "sub-check name"),
        ("passed", "bool", "whether the sub-check passed"),
        ("observed", "float", "measured value of the sub-check"),
        ("target", "string", "pass condition, with context values"),
    ]
    rows = [(r.number, r.name, c.name, c.passed, c.observed, c.target)
            for r in results for c in r.checks]
    all_passed = all(r.passed for r in results)
    config = _config_echo(args, ("criteria", "seed"))
    summary = {
        "all_passed": all_passed,
        "criteria": [{"number": r.number, "name": r.name, "passed": r.passed,
                      "failing_checks": [c.name for c in r.checks
                                         if not c.passed]}
                     for r in results],
    }
    _emit(args.out, "validate", columns, rows, config, summary)
    return 0 if all_passed else 2


# -------------------------------------------------------------- parsing


def _add_common(p, samples_default: int):
    p.add_argument("--seed", type=int, default=0, help="64-bit stream seed")
    p.add_argument("--samples", type=int, default=samples_default,
                   help="Monte Carlo draws per schedule point")
    p.add_argument("--out", type=Path, default=Path("."),
                   help="output directory (created if missing)")
    p.add_argument("--config", type=Path, default=None,
                   help="flat key=value file; flags given on the command "
                        "line override it")
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads over schedule points; outputs do "
                        "not depend on this")


def _add_grid(p, cells: int, grid: str, octaves=None):
    p.add_argument("--hurst", type=float, default=0.75)
    p.add_argument("--dims", type=int, default=1, help="sheet dimension")
    p.add_argument("--cells", type=int, default=cells,
                   help="grid cells for the embedding")
    p.add_argument("--grid", choices=("uniform", "geometric"), default=grid)
    p.add_argument("--octaves", type=float, default=octaves,
                   help="geometric grid depth; default cells-1")


def _build_parser() -> _Parser:
    top = _Parser(prog="chaoskit", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("diagnose", help="Gaussian-limit trend report for a "
                       "built-in kernel family")
    p.add_argument("--family", default="clt-pairs",
                   choices=(*_SYNTHETIC, *_FUNCTIONALS))
    p.add_argument("--schedule", type=_float_list, default=None,
                   help="comma-separated schedule (k values, 2b+2H+1 values, "
                        "eps values, or per-axis beta, by family); constant "
                        "families use only its length")
    _add_grid(p, cells=512, grid="geometric")
    _add_common(p, samples_default=10000)
    p.set_defaults(run=_cmd_diagnose)

    p = sub.add_parser("sweep-fbm", help="moment/KS sweep of the fbm "
                       "quadratic functionals along the limit schedule")
    p.add_argument("--family", default="fbm-power",
                   choices=("fbm-power", "fbm-singular"))
    p.add_argument("--schedule", type=_float_list, default=None,
                   help="2b+2H+1 values (power) or eps values (singular)")
    _add_grid(p, cells=512, grid="geometric")
    _add_common(p, samples_default=100000)
    p.set_defaults(run=_cmd_sweep_fbm)

    p = sub.add_parser("sweep-sheet", help="moment/KS sweep of the sheet "
                       "functionals, with the closed-form variance column")
    p.add_argument("--family", default="sheet-power",
                   choices=("sheet-power", "sheet-singular"))
    p.add_argument("--beta", type=_float_list, default=None,
                   help="per-axis beta schedule (power family)")
    p.add_argument("--eps", type=_float_list, default=None,
                   help="eps schedule (singular family)")
    _add_grid(p, cells=1024, grid="geometric", octaves=512.0)
    _add_common(p, samples_default=100000)
    p.set_defaults(run=_cmd_sweep_sheet)

    p = sub.add_parser("sample", help="raw Monte Carlo draws of one "
                       "built-in statistic")
    p.add_argument("--family", default="constant-cross",
                   choices=(*_SYNTHETIC, *_FUNCTIONALS))
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--eps", type=float, default=1e-2)
    p.add_argument("--k", type=int, default=64,
                   help="pair count for the clt-pairs family")
    _add_grid(p, cells=512, grid="geometric")
    _add_common(p, samples_default=10000)
    p.set_defaults(run=_cmd_sample)

    p = sub.add_parser("validate", help="run the acceptance criteria and "
                       "print pass/fail per criterion")
    p.add_argument("--criteria", default="all",
                   help='e.g. "all", "1-9", "2,5,7"')
    _add_common(p, samples_default=0)
    p.set_defaults(run=_cmd_validate)
    return top


def _apply_config_file(top: _Parser, argv):
    """Pre-scan for --config and fold the file in as subparser defaults."""
    if "--config" not in argv:
        return
    if argv.index("--config") + 1 >= len(argv):
        raise UsageError("--config needs a file path")
    path = Path(argv[argv.index("--config") + 1])
    command = argv[0] if argv and not argv[0].startswith("-") else None
    sub_action = next(a for a in top._actions
                      if isinstance(a, argparse._SubParsersAction))
    if command not in sub_action.choices:
        return  # let the normal parse report the usage problem
    sub = sub_action.choices[command]
    try:
        text = path.read_text()
    except OSError as e:
        raise UsageError(f"cannot read config file: {e}")
    actions = {a.dest: a for a in sub._actions}
    defaults = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno} is not key=value: {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in actions or key in ("config", "help"):
            raise UsageError(f"unknown config key {key!r} (line {lineno})")
        action = actions[key]
        try:
            defaults[key] = action.type(value) if action.type else value
        except (TypeError, ValueError):
            raise UsageError(f"bad value for config key {key!r}: {value!r}")
        if action.choices and defaults[key] not in action.choices:
            raise UsageError(f"bad value for config key {key!r}: {value!r}")
    sub.set_defaults(**defaults)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    top = _build_parser()
    t0 = time.monotonic()
    try:
        _apply_config_file(top, argv)
        args = top.parse_args(argv)
        code = args.run(args)
    except (DegenerateModelError, np.linalg.LinAlgError) as e:
        print(f"error: numerical: {e}", file=sys.stderr)
        return 2
    except (UsageError, ValueError, TypeError, OSError) as e:
        print(f"error: usage: {e}", file=sys.stderr)
        return 1
    print(f"{args.command}: wall time {time.monotonic() - t0:.1f}s",
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
