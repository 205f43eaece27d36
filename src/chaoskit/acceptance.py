"""The validation suite: ten numbered criteria with fixed tolerances.

Each criterion_N is a pure function of the seed returning its named
sub-checks; _CRITERIA gives each its number and name, and run_criterion
wraps the checks in a CriterionResult, so the CLI, the test suite and any
script agree on what was measured.  Nothing here tunes itself to pass:
thresholds and schedules are the suite's contract, and a criterion whose
target is not reachable at the stated parameters simply reports red with
the measured numbers attached.
"""

from __future__ import annotations

import math
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import reference
from .chaos import (
    eval_chaos_element,
    eval_integral,
    excess_kurtosis_exact,
    fourth_moment_exact,
    hs_operator,
    product_formula,
    sample_integral,
    sample_integral2_spectral,
    second_moment_exact,
)
from .diagnostics import (
    disjoint_pair_kernel,
    ks_against_std_normal,
    paired_product_kernel,
    summarize,
)
from .embeddings import build_embedding, sample_path
from .functionals import (
    FbmPowerVariation,
    FbmSingularVariation,
    SheetPowerVariation,
    direct_evaluate,
    embed,
    embed_on_grid,
    sheet_power_variance_exact,
)
from .rng import stream
from .tensors import (
    basis_tensor,
    contraction_norm_sq,
    norm_sq,
    sym,
    symmetrize,
)

__all__ = ["Check", "CriterionResult", "CRITERION_NAMES", "run_criterion",
           "run_criteria", "format_criterion", "parallel_map"]

_BETA_SCHEDULE = (1e-1, 10**-1.5, 1e-2, 10**-2.5)  # values of 2b+2H+1
_EPS_SCHEDULE = (1e-1, 1e-2, 1e-3, 1e-4)


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    observed: float
    target: str


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _strictly_decreasing(xs) -> bool:
    return all(b < a for a, b in zip(xs, xs[1:]))


def criterion_1(seed: int) -> tuple:
    """Product formula is a pointwise polynomial identity."""
    rng = stream(seed, "c1")
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        d = int(rng.integers(1, 7))
        f = sym(rng.standard_normal((d,) * n))
        g = sym(rng.standard_normal((d,) * m))
        xi = rng.standard_normal((100, d))
        lhs = np.asarray(eval_integral(f, xi)) * np.asarray(eval_integral(g, xi))
        rhs = np.asarray(eval_chaos_element(product_formula(f, g), xi))
        rel = np.max(np.abs(lhs - rhs) / (1.0 + np.abs(lhs) + np.abs(rhs)))
        worst = max(worst, float(rel))
    return (Check("pointwise-identity", worst <= 1e-9, worst,
                  "<= 1e-9 relative over 200 pairs x 100 draws"),)


def _small_kernels(rng):
    """Canonical plus random kernels covering n <= 2, d <= 3."""
    out = []
    for d in (1, 2, 3):
        out.append(sym(basis_tensor(d, 0).coeffs))
        out.append(sym(basis_tensor(d, 0, 0).coeffs))
        if d >= 2:
            out.append(symmetrize(basis_tensor(d, 0, 1)))
        for n in (1, 2):
            for _ in range(5):
                out.append(sym(rng.standard_normal((d,) * n)))
    return out


def criterion_2(seed: int) -> tuple:
    """Moment formulas against the brute-force oracle and Monte Carlo."""
    rng = stream(seed, "c2")
    worst4 = worst2 = 0.0
    for f in _small_kernels(rng):
        e4 = fourth_moment_exact(f)
        b4 = reference.moment_bruteforce(f, 4)
        worst4 = max(worst4, abs(e4 - b4) / abs(b4))
        e2 = second_moment_exact(f)
        b2 = reference.moment_bruteforce(f, 2)
        worst2 = max(worst2, abs(e2 - b2) / abs(b2))
    worst_mc = 0.0
    for i in range(20):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(2, 5))
        f = sym(rng.standard_normal((d,) * n))
        draws = sample_integral(f, 200000, stream(seed, f"c2:mc:{i}"))
        sq = draws * draws
        se = float(np.std(sq, ddof=1)) / math.sqrt(sq.size)
        gap = abs(float(np.mean(sq)) - second_moment_exact(f))
        worst_mc = max(worst_mc, gap / (4.0 * se))
    return (
        Check("fourth-moment-vs-oracle", worst4 <= 1e-9, worst4, "<= 1e-9 relative"),
        Check("second-moment-vs-oracle", worst2 <= 1e-9, worst2, "<= 1e-9 relative"),
        Check("second-moment-vs-mc", worst_mc <= 1.0, worst_mc,
              "<= 4*SE on 20 random kernels, N=2e5 (observed = gap/(4*SE))"),
    )


def criterion_3(seed: int) -> tuple:
    """The averaged disjoint-pair family turns Gaussian at rate 1/k."""
    ks = (4, 16, 64, 256)
    kernels = [disjoint_pair_kernel(k) for k in ks]
    # spectral excess, tensor-route contraction: two independent decay checks
    ops = [hs_operator(f) for f in kernels]
    exc = [excess_kurtosis_exact(op) for op in ops]
    con = [contraction_norm_sq(f, 1) for f in kernels]
    exc_factor = min(a / b for a, b in zip(exc, exc[1:]))
    con_factor = min(a / b for a, b in zip(con, con[1:]))
    draws = sample_integral2_spectral(ops[-1], 10000, stream(seed, "c3:ks"))
    ksr = ks_against_std_normal(draws)
    return (
        Check("excess-decay-factor", exc_factor >= 3.0, exc_factor,
              ">= 3 per 4x step in k (exact rate 4)"),
        Check("contraction-decay-factor", con_factor >= 3.0, con_factor,
              ">= 3 per 4x step in k (exact rate 4)"),
        Check("ks-at-k256", ksr.passed, ksr.statistic,
              f"< {ksr.threshold:.5f} (5% level, N=1e4)"),
    )


def criterion_4(seed: int) -> tuple:
    """A fixed unit-variance order-2 kernel is never Gaussian."""
    f = paired_product_kernel()
    m4, op = fourth_moment_exact(f), hs_operator(f)
    fails = 0
    for i in range(20):
        draws = sample_integral2_spectral(op, 10000, stream(seed, f"c4:{i}"))
        fails += not ks_against_std_normal(draws).passed
    return (
        Check("fourth-moment-is-9", abs(m4 - 9.0) <= 1e-9, m4, "= 9 to 1e-9"),
        Check("ks-fail-rate", fails >= 19, float(fails),
              ">= 19 of 20 seeded repetitions fail at 5%"),
    )


def criterion_5(seed: int) -> tuple:
    """Tensor-route and eigenvalue-route fourth-moment views agree."""
    rng = stream(seed, "c5")
    worst_exc = worst_con = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 9))
        f = sym(rng.standard_normal((d, d)))
        lam4 = float(np.sum(hs_operator(f).eigenvalues ** 4))
        v = second_moment_exact(f)
        excess = fourth_moment_exact(f) - 3.0 * v * v
        worst_exc = max(worst_exc, abs(excess - 48.0 * lam4) / (48.0 * lam4))
        c1 = contraction_norm_sq(f, 1)
        worst_con = max(worst_con, abs(c1 - lam4) / lam4)
    return (
        Check("excess-equals-48-sum-lambda4", worst_exc <= 1e-9, worst_exc,
              "<= 1e-9 relative on 50 random kernels"),
        Check("contraction-equals-sum-lambda4", worst_con <= 1e-9, worst_con,
              "<= 1e-9 relative on 50 random kernels"),
    )


def criterion_6(seed: int) -> tuple:
    """Direct quadrature and chaos route converge to each other."""
    checks = []
    for hurst in (0.6, 0.75):
        medians = {}
        for cells in (64, 256):
            func = FbmPowerVariation(hurst, 0.0)
            emb = build_embedding(func.model(), cells)
            ef = embed(func, emb)
            xi = stream(seed, f"c6:{hurst}:{cells}").standard_normal((100, cells))
            direct = direct_evaluate(func, emb, sample_path(emb, xi))
            via_chaos = ef.value(xi)
            medians[cells] = float(np.median(np.abs(direct - via_chaos)))
        checks.append(Check(
            f"median-gap-shrinks-h{hurst}", medians[256] < medians[64],
            medians[256], f"< median at d=64 ({medians[64]:.3e})"))
    return tuple(checks)


def _mc_matches_exact(name, mc, exact, se, gaussian) -> Check:
    """MC estimate within 4*SE of the exact value of the same statistic.

    The target records how far the exact value lies from the Gaussian one
    in SE units, so a point that is not yet Gaussian stays visible.
    """
    return Check(name, abs(mc - exact) <= 4.0 * se, mc,
                 f"within 4*SE of exact {exact:.4f} (4*SE = {4 * se:.4f}, "
                 f"N=1e5; exact is {(exact - gaussian) / se:.1f} SE from "
                 f"Gaussian {gaussian:g})")


def criterion_7(seed: int) -> tuple:
    """Quantitative sheet limit: closed-form variance and MC kurtosis.

    The normalized variance 2 * prod 1/(2 b_a + 3) tends to 2 on any
    number of axes.  At the pinned near-critical point the discretized
    statistic is not yet Gaussian (exact kurtosis about 3.57), so the
    Monte Carlo kurtosis is checked against the exact fourth moment.
    """
    checks = []
    ref = sheet_power_variance_exact((-0.995,))
    checks.append(Check("reference-point-n1", abs(ref - 1.9802) <= 1e-4, ref,
                        "= 1.9802 at beta=-0.995 (to 1e-4)"))
    target = 2.0
    for n in (1, 2):
        xs = (1e-1, 1e-2, 1e-3)
        vals = [sheet_power_variance_exact(tuple((x - 2.0) / 2.0 for _ in range(n)))
                for x in xs]
        dists = [abs(v - target) for v in vals]
        ok = _strictly_decreasing(dists) and dists[-1] <= 0.02 * target
        checks.append(Check(f"variance-approach-n{n}", ok, vals[-1],
                            f"-> {target} (within 2% at 2b+2=1e-3; "
                            f"values {[round(v, 6) for v in vals]})"))
    func = SheetPowerVariation((-0.995,))
    ef = embed_on_grid(func, 1024, "geometric", 512.0)
    su = summarize(ef.sample_statistic(100000, stream(seed, "c7:mc")))
    checks.append(_mc_matches_exact("mc-kurtosis-near-critical", su.kurtosis,
                                    ef.kurtosis_exact(), su.se_kurtosis, 3.0))
    return tuple(checks)


def criterion_8(seed: int) -> tuple:
    """Trend suite at H = 0.75 on a 512-cell geometric grid.

    Along each schedule the exact excess kurtosis must fall strictly and
    every Monte Carlo estimate must agree with it; the schedule endpoints
    are not yet Gaussian, which the final-point targets record.
    """
    hurst = 0.75
    schedules = {
        "beta": [FbmPowerVariation(hurst, (x - 2.0 * hurst - 1.0) / 2.0)
                 for x in _BETA_SCHEDULE],
        "eps": [FbmSingularVariation(hurst, e) for e in _EPS_SCHEDULE],
    }
    checks = []
    for label, fams in schedules.items():
        excs, exact, ses, ratios = [], [], [], []
        for i, fam in enumerate(fams):
            ef = embed_on_grid(fam, 512, "geometric", 511.0)
            su = summarize(ef.sample_statistic(100000, stream(seed, f"c8:{label}:{i}")))
            excs.append(su.excess_kurtosis)
            exact.append(ef.excess_kurtosis_exact())
            ses.append(su.se_kurtosis)
            ratios.append(ef.contraction_ratio())
        worst = max(abs(m - e) / s for m, e, s in zip(excs, exact, ses))
        checks.append(Check(
            f"{label}-mc-excess-decreasing",
            _strictly_decreasing(exact) and worst <= 4.0, worst,
            f"exact excess strictly decreasing and every MC estimate within "
            f"4*SE of it (observed = max |MC - exact|/SE; exact "
            f"{[round(e, 3) for e in exact]}, MC {[round(e, 3) for e in excs]})"))
        checks.append(_mc_matches_exact(f"{label}-final-point-gaussian",
                                        excs[-1], exact[-1], ses[-1], 0.0))
        checks.append(Check(
            f"{label}-contraction-ratio-decreasing", _strictly_decreasing(ratios),
            ratios[-1],
            f"strictly decreasing (observed {[round(r, 5) for r in ratios]})"))
    return tuple(checks)


def criterion_9(seed: int) -> tuple:
    """Large-beta concentration onto the squared endpoint value."""
    hurst = 0.7
    cells = 256
    emb = build_embedding(FbmPowerVariation(hurst, 1.0).model(), cells)
    xi = stream(seed, "c9").standard_normal((4000, cells))
    v = emb.factor[-1]  # the last factor row: X(1) = xi . v
    gaps = []
    for beta in (1.0, 4.0, 16.0):
        ef = embed(FbmPowerVariation(hurst, beta), emb)
        x = 2.0 * beta + 2.0 * hurst + 1.0
        diff = x * ef.value(xi) - (xi @ v) ** 2
        gaps.append(float(np.mean(diff * diff)))
    return (Check("mc-squared-gap-decreasing", _strictly_decreasing(gaps),
                  gaps[-1],
                  f"strictly decreasing along beta in (1, 4, 16) "
                  f"(observed {[round(g, 5) for g in gaps]})"),)


def criterion_10(seed: int) -> tuple:
    """Bit-identical validate outputs across thread counts.

    Runs criteria 1-9 in two subprocesses (1 thread, then 4) and compares
    every emitted file byte for byte.
    """
    outputs = []
    for threads in (1, 4):
        with tempfile.TemporaryDirectory(prefix=f"chaoskit-validate-t{threads}-") as tmp:
            proc = subprocess.run(
                [sys.executable, "-m", "chaoskit.cli", "validate",
                 "--seed", str(seed), "--criteria", "1-9",
                 "--threads", str(threads), "--out", tmp],
                capture_output=True, text=True)
            if proc.returncode not in (0, 2):  # 2 = criteria failed, files still valid
                raise RuntimeError(f"validate subprocess errored: {proc.stderr}")
            outputs.append({p.name: p.read_bytes() for p in sorted(Path(tmp).iterdir())})
    same_names = set(outputs[0]) == set(outputs[1])
    identical = same_names and all(outputs[0][k] == outputs[1][k] for k in outputs[0])
    nfiles = len(outputs[0])
    return (Check("outputs-bit-identical", identical, float(nfiles),
                  "all output files identical across --threads 1 and 4"),)


# number -> (name, criterion): the one list of the suite's criteria
_CRITERIA = {
    1: ("product-formula-exactness", criterion_1),
    2: ("exact-moment-oracle", criterion_2),
    3: ("clt-family", criterion_3),
    4: ("fixed-kernel-counterexample", criterion_4),
    5: ("spectral-bridge", criterion_5),
    6: ("coupling-refinement", criterion_6),
    7: ("sheet-quantitative-limit", criterion_7),
    8: ("trend-suite", criterion_8),
    9: ("large-beta-concentration", criterion_9),
    10: ("determinism", criterion_10),
}
CRITERION_NAMES = {n: name for n, (name, _) in _CRITERIA.items()}


def run_criterion(number: int, seed: int) -> CriterionResult:
    """Run one criterion: its checks, with its number and name."""
    if number not in _CRITERIA:
        raise ValueError(f"no criterion {number}")
    name, criterion = _CRITERIA[number]
    return CriterionResult(number, name, criterion(seed))


def parallel_map(worker, count: int, threads: int) -> list:
    """[worker(0), ..., worker(count - 1)] on up to threads threads.

    Results are assembled by index, so their order never depends on
    thread timing; reading every result re-raises a worker's exception.
    """
    if threads <= 1 or count <= 1:
        return [worker(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futs = [pool.submit(worker, i) for i in range(count)]
        return [f.result() for f in futs]


def run_criteria(numbers, seed: int, threads: int = 1):
    """Run the given criteria, possibly concurrently, in numeric order."""
    numbers = sorted(set(int(n) for n in numbers))
    for n in numbers:  # refused before any thread starts
        if n not in _CRITERIA:
            raise ValueError(f"no criterion {n}")
    return parallel_map(lambda i: run_criterion(numbers[i], seed),
                        len(numbers), threads)


def format_criterion(res: CriterionResult) -> str:
    status = "PASS" if res.passed else "FAIL"
    bad = [c.name for c in res.checks if not c.passed]
    suffix = "" if res.passed else f"  [failing: {', '.join(bad)}]"
    return f"criterion {res.number:2d} {status}  {res.name}{suffix}"
