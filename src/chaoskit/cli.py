"""Command line front end: sweeps, diagnostics, sampling, validation.

Every command writes three files into --out: <command>.csv (the data,
header row, '.'-decimal, repr floats, \\n line endings), a sidecar
<command>.schema.json documenting the columns, and <command>.summary.json
echoing the experiment configuration plus library versions and headline
results.  At one numpy/BLAS build and BLAS thread count, outputs are
bit-identical for identical experiment config and seed, independent of
--threads and --out: every Monte Carlo stream is keyed by (seed, tag,
schedule index), results are assembled in schedule order, and execution
facts (thread count, output directory, wall time) go to stderr only.

Exit codes: 0 success, 1 usage, I/O or memory problem, 2 numerical
failure or a validate run with failing criteria.  Errors print a single
machine-parsable line to stderr: "error: <usage|numerical>: <detail>".  A
numerical failure is one of two types: each embedding stage a command
runs raises a LinAlgError whose message starts with the stage,
"spectrum" (kernel2_spectrum) or "factor" (the node factor, built by
validate's criteria 6 and 9), and an exact mean an OverflowError
starting with "mean", as in "error: numerical: spectrum: ...".
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import platform
import re
import sys
import time
from collections import namedtuple
from pathlib import Path

import numpy as np

from . import __version__
from .acceptance import (_BETA_SCHEDULE, _EPS_SCHEDULE, CRITERION_NAMES,
                         format_criterion, parallel_map, run_criteria)
from .chaos import hs_operator, sample_integral2_spectral
from .diagnostics import (
    disjoint_pair_kernel,
    gaussian_limit_report,
    ks_against_std_normal,
    paired_product_kernel,
    summarize,
)
from .embeddings import _MAX_EMBED_DIM, _check_capacity
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


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        # "-0.9,-0.95" is a value: no flag starts with "-" and a digit or "."
        self._negative_number_matcher = re.compile(r"-[\d.]")

    # argparse exits 2 on bad flags; the contract reserves 2 for numerics
    def error(self, message):
        raise UsageError(message)


def _float_list(text: str):
    try:
        values = tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError:
        values = ()
    if not values:
        raise UsageError(f"not a comma-separated float list: {text!r}")
    return values


# ------------------------------------------------------------- families


def _pairs(k):
    """clt-pairs at k, refused before its 2k x 2k kernel is allocated."""
    if k < 1 or not float(k).is_integer():
        raise UsageError(f"clt-pairs k must be an integer >= 1, got {k:g}")
    if 2 * k > _MAX_EMBED_DIM:
        raise UsageError(f"clt-pairs k = {k:g} needs {2 * k:g} coordinates, "
                         f"above the dense cap of {_MAX_EMBED_DIM}")
    return disjoint_pair_kernel(int(k))


_SHEET_SCHEDULE = (-0.9, -0.95, -0.99, -0.995)  # per-axis beta

# family -> its parameter (the flag sample reads; None for a constant
# kernel, whose schedule sets only the repeat count), the flag that sets
# its process (hurst for fBm, dims for the sheet, None for a kernel), its
# default schedule, and its kernel or functional at parameter p
_Family = namedtuple("_Family", "param model schedule make")
_FAMILIES = {
    "clt-pairs": _Family("k", None, (4, 16, 64, 256),
                         lambda a, p: _pairs(p)),
    "constant-cross": _Family(None, None, (1, 2, 3, 4),
                              lambda a, p: paired_product_kernel()),
    "rank-one": _Family(None, None, (1, 2, 3, 4), lambda a, p: SymTensor(
        np.array([[1.0 / math.sqrt(2.0)]]))),
    "fbm-power": _Family("beta", "hurst", _BETA_SCHEDULE,
                         lambda a, p: FbmPowerVariation(a.hurst, p)),
    "fbm-singular": _Family("eps", "hurst", _EPS_SCHEDULE,
                            lambda a, p: FbmSingularVariation(a.hurst, p)),
    "sheet-power": _Family("beta", "dims", _SHEET_SCHEDULE,
                           lambda a, p: SheetPowerVariation((p,) * a.dims)),
    "sheet-singular": _Family("eps", "dims", _EPS_SCHEDULE,
                              lambda a, p: SheetSingularVariation(a.dims, p)),
}
# every model and grid flag with its default (None: the family's schedule,
# or cells - 1 octaves); only families with a process read the grid flags
_DEFAULTS = {"schedule": None, "k": 64, "beta": 0.0, "eps": 1e-2, "hurst": 0.75,
             "dims": 1, "cells": 512, "grid": "geometric", "octaves": None}
_GRID = ("cells", "grid", "octaves")
# defaults a command overrides: sweep-sheet's finer grid, deeper if geometric
_OVERRIDES = {"sweep-sheet": {"cells": 1024, "octaves": 512.0}}


def _read_flags(args):
    """Refuse a flag the family does not read; fill in the others' defaults.

    The model and grid flags are parsed as None, so a flag given (on the
    command line or in --config) is told apart from one left out.  octaves
    stays None on a uniform grid.
    A --samples below the KS test's 100 or a --threads below 1 is refused.
    """
    for flag, least in (("samples", 100), ("threads", 1)):
        if getattr(args, flag, least) < least:
            raise UsageError(f"--{flag} must be an integer >= {least}, got "
                             f"{getattr(args, flag)}")
    if "family" not in vars(args):  # validate
        return
    fam = _FAMILIES[args.family]
    reads = {"schedule", fam.param, fam.model, *(_GRID if fam.model else ())}
    defaults = _DEFAULTS | _OVERRIDES.get(args.command, {})
    for flag, default in defaults.items():
        if flag not in vars(args):
            continue  # a flag the command does not take
        if getattr(args, flag) is not None:
            if flag not in reads:
                raise UsageError(f"--{flag} is not read by {args.family}")
        elif flag != "octaves" or args.grid == "geometric":
            setattr(args, flag, default)


def _build(args, p):
    """The family's kernel at p, or its functional embedded on the grid."""
    fam = _FAMILIES[args.family]
    if fam.model is None:
        return fam.make(args, p)
    # an oversized grid is refused before its family or nodes
    _check_capacity(args.cells, args.dims if fam.model == "dims" else 1,
                    "spectrum")
    return embed_on_grid(fam.make(args, p), args.cells, args.grid, args.octaves)


def _schedule(args):
    """Schedule points as given, and the family parameter at each."""
    fam = _FAMILIES[args.family]
    xs = list(args.schedule or fam.schedule)
    if fam.param is None:  # a constant kernel: points are repeat indices
        xs = list(range(1, len(xs) + 1))
    args.schedule = tuple(float(x) for x in xs)  # echo the resolved schedule
    if args.family == "fbm-power":  # points are 2b+2H+1
        return xs, [(x - 2.0 * args.hurst - 1.0) / 2.0 for x in xs]
    return xs, xs


# ---------------------------------------------------------------- output


# cell types the csv module already writes as _cell would: str as is,
# int as str, float as repr (np.float64, a float subclass, is not one)
_CSV_NATIVE = frozenset((str, int, float))


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _emit(args, columns, rows, results: dict):
    """Write <command>.csv, .schema.json and .summary.json into --out.

    rows may be any iterable of rows; it is written as it is read.  The
    summary's config echoes every flag but out, config and threads.
    """
    out, command = args.out, args.command
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{command}.csv"
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow([c[0] for c in columns])
        for row in rows:
            w.writerow([v if type(v) in _CSV_NATIVE else _cell(v) for v in row])
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
        "config": {k: list(v) if isinstance(v, tuple) else v
                   for k, v in vars(args).items()
                   if k not in ("command", "run", "out", "config", "threads")},
        "versions": {
            "chaoskit": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "results": results,
    }
    (out / f"{command}.summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")


# ------------------------------------------------------------- commands


def _cmd_diagnose(args) -> int:
    xs, params = _schedule(args)
    kernels = [_build(args, p) for p in params]
    if _FAMILIES[args.family].model:  # labelled by the parameter value
        labels = [repr(float(x)) for x in xs]
    else:  # labelled by a pair count or a repeat index
        labels = [str(int(x)) for x in xs]

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
    _emit(args, columns, rows, {"verdict": report.verdict, "rows": len(rows)})
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
    ("spectral_rank", "int",
     "eigenvalues the sampler draws for, in pairs from one radius and one "
     "angle uniform: the product of the live cells per axis"),
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


def _sweep_row(args, index, p):
    ef = _build(args, p)
    draws = ef.sample_statistic(
        args.samples, stream(args.seed, f"{args.command}:{args.family}:{index}"))
    su = summarize(draws)
    ks = ks_against_std_normal(draws)
    param = _FAMILIES[args.family].param
    closed = (sheet_power_variance_exact(ef.functional.betas)
              if args.family == "sheet-power" else None)
    return (index, args.family, getattr(args, "hurst", None),
            getattr(args, "dims", None),
            p if param == "beta" else None, p if param == "eps" else None,
            closed, ef.variance_exact(), ef.excess_kurtosis_exact(),
            ef.contraction_ratio(), ef.operator.eigenvalues.size,
            su.mean, su.variance, su.skewness, su.kurtosis,
            su.se_mean, su.se_variance, su.se_skewness, su.se_kurtosis,
            ks.statistic, ks.threshold, ks.passed)


def _run_sweep(args) -> int:
    xs, params = _schedule(args)  # the beta column reports beta itself
    rows = parallel_map(lambda i: _sweep_row(args, i, params[i]),
                        len(params), args.threads)
    last = dict(zip((name for name, _, _ in _SWEEP_COLUMNS), rows[-1]))
    results = {
        "rows": len(rows),
        "final_mc_kurtosis": last["mc_kurtosis"],
        "final_ks_pass": last["ks_pass"],
    }
    _emit(args, _SWEEP_COLUMNS, rows, results)
    print(f"{args.command}: {len(rows)} schedule points", file=sys.stderr)
    return 0


def _cmd_sample(args) -> int:
    fam = _FAMILIES[args.family]
    rng = stream(args.seed, f"sample:{args.family}")
    built = _build(args, getattr(args, fam.param) if fam.param else None)
    if fam.model:
        draws = built.sample_statistic(args.samples, rng)
    else:
        draws = sample_integral2_spectral(hs_operator(built), args.samples, rng)

    su = summarize(draws)
    ks = ks_against_std_normal(draws)
    columns = [
        ("index", "int", "draw index"),
        ("value", "float", "one draw of the normalized statistic"),
    ]
    rows = enumerate(map(float, draws))  # streamed, never held as a list
    results = {
        "mean": su.mean, "variance": su.variance,
        "skewness": su.skewness, "kurtosis": su.kurtosis,
        "ks_statistic": ks.statistic, "ks_pass": ks.passed,
    }
    _emit(args, columns, rows, results)
    print(f"sample: {draws.size} draws, kurtosis {su.kurtosis:.4f}",
          file=sys.stderr)
    return 0


def _parse_criteria(text: str):
    """Numbers from "all" or a comma list of n and lo-hi (n reads as n-n)."""
    if text.strip() == "all":
        return sorted(CRITERION_NAMES)
    nums = set()
    for part in filter(None, map(str.strip, text.split(","))):
        lo, dash, hi = part.partition("-")
        try:
            nums.update(range(int(lo), int(hi if dash else lo) + 1))
        except ValueError:
            raise UsageError(f"bad criteria range {part!r}")
    if not nums or not nums <= CRITERION_NAMES.keys():
        raise UsageError(f"criteria must be in 1..{len(CRITERION_NAMES)}, "
                         f"got {text!r}")
    return sorted(nums)


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
    summary = {
        "all_passed": all_passed,
        "criteria": [{"number": r.number, "name": r.name, "passed": r.passed,
                      "failing_checks": [c.name for c in r.checks
                                         if not c.passed]}
                     for r in results],
    }
    _emit(args, columns, rows, summary)
    return 0 if all_passed else 2


# -------------------------------------------------------------- parsing


def _add_common(p, samples: int | None):
    p.add_argument("--seed", type=int, default=0, help="64-bit stream seed")
    if samples is not None:
        p.add_argument("--samples", type=int, default=samples,
                       help="Monte Carlo draws per schedule point, >= 100")
    p.add_argument("--out", type=Path, default=Path("."),
                   help="output directory (created if missing)")
    p.add_argument("--config", type=Path, default=None,
                   help="flat key = value file of the command's flags; "
                        "flags given on the command line override it")
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads of the sweeps and validate (diagnose "
                        "and sample run on one); outputs do not depend on it")


def _add_flags(p, command, flags):
    """Declare the model flags named and the grid flags, parsed as None."""
    defaults = _DEFAULTS | _OVERRIDES.get(command, {})
    for flag in (*flags, *_GRID):
        kind, default = type(_DEFAULTS[flag]), defaults[flag]
        if flag == "octaves":
            kind, default = float, f"{default or 'cells-1'} geometric octaves"
        text = f"default {default}; only for the families that read it"
        if flag == "schedule":  # read by every family
            kind, text = _float_list, (
                "comma-separated schedule (k values, 2b+2H+1 values, eps "
                "values, or per-axis beta, by family; default the family's); "
                "constant families use only its length")
        choices = ("uniform", "geometric") if flag == "grid" else None
        p.add_argument(f"--{flag}", type=kind, choices=choices, help=text)


def _build_parser() -> _Parser:
    top = _Parser(prog="chaoskit", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True, metavar="command")

    every = tuple(_FAMILIES)
    # command, help, families, default family, model flags, default draws
    # and handler; the handler is looked up here, when the parser is built
    for command, text, families, family, flags, samples, run in [
        ("diagnose", "Gaussian-limit trend report for a built-in kernel "
         "family", every, "clt-pairs", ("schedule", "hurst", "dims"), 10000,
         _cmd_diagnose),
        ("sweep-fbm", "moment/KS sweep of the fbm quadratic functionals "
         "along the limit schedule", ("fbm-power", "fbm-singular"),
         "fbm-power", ("schedule", "hurst"), 100000, _run_sweep),
        ("sweep-sheet", "moment/KS sweep of the sheet functionals, with the "
         "closed-form variance column", ("sheet-power", "sheet-singular"),
         "sheet-power", ("schedule", "dims"), 100000, _run_sweep),
        ("sample", "raw Monte Carlo draws of one built-in statistic", every,
         "constant-cross", ("k", "beta", "eps", "hurst", "dims"), 10000,
         _cmd_sample),
    ]:
        p = sub.add_parser(command, help=text)
        p.add_argument("--family", default=family, choices=families)
        _add_flags(p, command, flags)
        _add_common(p, samples=samples)
        p.set_defaults(run=run)

    p = sub.add_parser("validate", help="run the acceptance criteria and "
                       "print pass/fail per criterion")
    p.add_argument("--criteria", default="all",
                   help='e.g. "all", "1-9", "2,5,7"')
    _add_common(p, samples=None)
    p.set_defaults(run=_cmd_validate)
    return top


def _parse(top: _Parser, argv):
    """Parse argv; with --config, parse again with the file's lines as flags.

    A key = value line becomes --key=value, placed before the command's
    own flags so that those win.
    """
    args = top.parse_args(argv)
    if args.config is None:
        return args
    try:
        text = args.config.read_text()
    except OSError as e:
        raise UsageError(f"cannot read config file: {e}")
    flags = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno} is not key=value: {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        # a key is a flag of the command spelled out, never an abbreviation
        if key not in vars(args) or key in ("command", "run", "config"):
            raise UsageError(f"unknown config key {key!r} (line {lineno})")
        flags.append(f"--{key}={value.strip()}")
    at = argv.index(args.command) + 1
    return top.parse_args(argv[:at] + flags + argv[at:])


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    top = _build_parser()
    t0 = time.monotonic()
    try:
        args = _parse(top, argv)
        _read_flags(args)
        code = args.run(args)
    except (np.linalg.LinAlgError, OverflowError) as e:
        print(f"error: numerical: {e}", file=sys.stderr)
        return 2
    except (UsageError, ValueError, TypeError, OSError) as e:
        print(f"error: usage: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        print(f"error: usage: out of memory: {e}", file=sys.stderr)
        return 1
    print(f"{args.command}: wall time {time.monotonic() - t0:.1f}s",
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
