"""Gaussian-limit diagnostics for sequences of order-n kernels.

The central fact being instrumented: for a sequence of order-n integrals
with unit variance, convergence of the fourth moment to 3 (the Gaussian
value), vanishing of every contraction norm ||f (x)_p f|| for
0 < p < n, and convergence in law to a standard normal are all the same
statement.  A report therefore tracks three views per kernel: exact
moments, exact contraction norms, and a distributional test on fresh
draws.

A single order-2 integral, by contrast, is never Gaussian (its fourth
moment exceeds 3 unless the kernel vanishes), and the operator view
makes that quantitative: cumulants are explicit in the kernel's
eigenvalues (chaos.HSOperator).  The report takes each order-2 row from
that one spectrum at unit variance, as the sweeps' exact columns do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chaos import (
    HSOperator,
    _binary_exponent,
    _unit_variance,
    sample_integral,
    sample_integral2_spectral,
)
from .functionals import EmbeddedFunctional
from .rng import stream
from .tensors import SymTensor, sym

__all__ = [
    "KSResult",
    "ks_against_std_normal",
    "SampleSummary",
    "summarize",
    "KernelDiagnostics",
    "SequenceReport",
    "gaussian_limit_report",
    "disjoint_pair_kernel",
    "paired_product_kernel",
]

# asymptotic 5% point of the Kolmogorov distribution
_KS_COEFF = 1.358
# draws per chunk of summarize's delete-one statistics and of the KS
# test's first stage (64 KB)
_JACKKNIFE_CHUNK = 1 << 13
_SQRT_HALF = math.sqrt(0.5)
# Abramowitz & Stegun 7.1.26: erfc(z) = t (a1 + a2 t + ... + a5 t^4)
# exp(-z^2) + e with t = 1/(1 + p z) and |e| <= 1.5e-7 for z >= 0;
# coefficients from a5 down to a1, for Horner's rule
_AS_P = 0.3275911
_AS_A = (1.061405429, -1.453152027, 1.421413741, -0.284496736, 0.254829592)
# a draw whose first-stage deviation is this close to the largest gets the
# exact CDF: the first-stage CDF is within 7.5e-8, so the true largest
# deviation is always among them
_KS_MARGIN = 1e-6


@dataclass(frozen=True)
class KSResult:
    statistic: float
    n_samples: int
    threshold: float
    passed: bool


def _normal_cdf_approx(x):
    """Phi(x) to within 7.5e-8 by A&S 7.1.26, elementwise; NaN stays NaN."""
    z = np.abs(x) * _SQRT_HALF
    t = 1.0 / (1.0 + _AS_P * z)
    poly = _AS_A[0]
    for a in _AS_A[1:]:
        poly = poly * t + a
    tail = 0.5 * t * poly * np.exp(-z * z)  # Phi(-|x|)
    return np.where(x < 0, tail, 1.0 - tail)


def _ks_deviations(cdf, i, n):
    """Larger one-sided distance at the draws of sorted ranks i (1-based)."""
    return np.maximum(i / n - cdf, cdf - (i - 1) / n)


def ks_against_std_normal(samples) -> KSResult:
    """One-sample Kolmogorov test against N(0, 1) at the 5% level.

    Uses the asymptotic threshold 1.358/sqrt(N), hence the floor on N.
    The statistic is the one the CDF 0.5 erfc(-x/sqrt(2)) gives at every
    draw, bit for bit, in two stages: an approximate CDF, _JACKKNIFE_CHUNK
    sorted draws at a time, marks each draw whose deviation is within
    _KS_MARGIN of the largest (NaN marks every draw it reaches), and the
    exact CDF is taken at the marked draws alone.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n < 100:
        raise ValueError(f"KS test needs at least 100 samples, got {n}")
    top, ranks, devs = -np.inf, [], []
    for lo in range(0, n, _JACKKNIFE_CHUNK):
        c = x[lo:lo + _JACKKNIFE_CHUNK]
        i = np.arange(lo + 1, lo + c.size + 1)
        dev = _ks_deviations(_normal_cdf_approx(c), i, n)
        top = np.maximum(top, np.max(dev))
        near = ~(dev < top - _KS_MARGIN)  # within the margin of the top so far
        ranks.append(i[near])
        devs.append(dev[near])
    i = np.concatenate(ranks)
    i = i[~(np.concatenate(devs) < top - _KS_MARGIN)]
    cdf = np.array([0.5 * math.erfc(-v * _SQRT_HALF)
                    for v in x[i - 1].tolist()])
    d = float(np.max(_ks_deviations(cdf, i, n)))
    thr = _KS_COEFF / math.sqrt(n)
    return KSResult(statistic=d, n_samples=n, threshold=thr, passed=d < thr)


@dataclass(frozen=True)
class SampleSummary:
    """Moment estimates with delete-one jackknife standard errors."""

    n: int
    mean: float
    variance: float
    skewness: float
    kurtosis: float
    se_mean: float
    se_variance: float
    se_skewness: float
    se_kurtosis: float

    @property
    def excess_kurtosis(self) -> float:
        return self.kurtosis - 3.0


def summarize(samples) -> SampleSummary:
    """Mean/variance/skewness/kurtosis with jackknife errors in O(N).

    Leave-one-out statistics are reconstructed from the raw power sums,
    so no resampling loop, _JACKKNIFE_CHUNK draws at a time: beyond the
    input, memory is their four n-length arrays.  variance uses the n-1
    denominator; skewness and kurtosis are the central moment ratios
    m3/m2^1.5 and m4/m2^2.  The draws are scaled by a power of two into
    [-1, 1), which is exact, so no power sum leaves double range, and the
    mean, the variance and their errors are scaled back.
    """
    x = np.asarray(samples, dtype=float)
    n = x.size
    if n < 8:
        raise ValueError("too few samples to summarize")
    k = _binary_exponent(x)
    y = np.ldexp(x, -k)
    y2 = y * y
    sums = [np.sum(y), np.sum(y2), np.sum(y2 * y), np.sum(y2 * y2)]
    del y, y2

    def stats_from_sums(t1, t2, t3, t4, m):
        mu = t1 / m
        mu2 = mu * mu
        m2 = t2 / m - mu2
        m3 = t3 / m - 3.0 * mu * t2 / m + 2.0 * mu * mu2
        m4 = t4 / m - 4.0 * mu * t3 / m + 6.0 * mu2 * t2 / m - 3.0 * mu2 * mu2
        var = m2 * m / (m - 1)
        skew = m3 / (m2 * np.sqrt(m2))
        kurt = m4 / (m2 * m2)
        return mu, var, skew, kurt

    full = stats_from_sums(*sums, n)
    loo = np.empty((4, n))
    for i in range(0, n, _JACKKNIFE_CHUNK):
        c = np.ldexp(x[i:i + _JACKKNIFE_CHUNK], -k)
        c2 = c * c
        powers = (c, c2, c2 * c, c2 * c2)
        loo[:, i:i + c.size] = stats_from_sums(
            *(s - p for s, p in zip(sums, powers)), n - 1)
    ses = []
    for d in loo:
        d -= np.mean(d)
        ses.append(math.sqrt((n - 1) / n * float(np.sum(np.square(d, out=d)))))
    return SampleSummary(
        n=n,
        mean=math.ldexp(full[0], k), variance=math.ldexp(full[1], 2 * k),
        skewness=float(full[2]), kurtosis=float(full[3]),
        se_mean=math.ldexp(ses[0], k), se_variance=math.ldexp(ses[1], 2 * k),
        se_skewness=ses[2], se_kurtosis=ses[3],
    )


@dataclass(frozen=True)
class KernelDiagnostics:
    """One kernel's three views: exact moments, contractions, KS draw test.

    contraction_norms_sq holds ||f (x)_p f||^2 for p = 1..n-1; for a
    unit-variance sequence these vanishing is equivalent to the fourth
    moment reaching 3 and to the Gaussian limit itself.
    """

    label: str
    order: int
    variance: float
    fourth_moment: float
    excess_kurtosis: float
    contraction_norms_sq: tuple
    ks: KSResult


@dataclass(frozen=True)
class SequenceReport:
    rows: tuple
    verdict: str

    def __iter__(self):
        return iter(self.rows)


def _halved(first: float, last: float) -> bool:
    return last <= max(0.5 * first, 1e-12)


def gaussian_limit_report(kernels, labels=None, samples: int = 10000,
                          seed: int = 0) -> SequenceReport:
    """Per-kernel moment/contraction/KS diagnostics plus a trend verdict.

    kernels holds SymTensor and, for order 2, HSOperator or
    EmbeddedFunctional (read as its normalized statistic).  Each row is
    one chaos._unit_variance call (as excess_kurtosis_exact is; order 2
    reads one spectrum), the kernel at unit variance, so the three views
    are comparable.  Verdict "consistent" means the excess kurtosis and
    every squared contraction norm fell to at most half their first-row
    values (or are negligible) and the last kernel passes the KS test;
    "inconsistent" otherwise; "undecided" when some statistic's variance
    is outside (1e-12, 1e12).  The rule only compares the endpoints, so
    any monotone relabeling of the schedule reports the same verdict.
    """
    # every spectrum is formed before the first draw: kernel2_spectrum's
    # large temporaries then reuse one heap region, not gaps draws leave
    kernels = [(f.operator, f.scale) if isinstance(f, EmbeddedFunctional)
               else (f, 1.0) for f in kernels]
    if not kernels:
        raise ValueError("empty kernel sequence")
    if labels is None:
        labels = [str(i) for i in range(len(kernels))]
    if len(labels) != len(kernels):
        raise ValueError("labels/kernels length mismatch")
    rows = []
    degenerate = False
    for i, ((f, s), lab) in enumerate(zip(kernels, labels)):
        rng = stream(seed, f"limit-report:{i}:{lab}")
        v, g, m2, m4, excess, contractions = _unit_variance(f, s)
        spectral = isinstance(g, HSOperator)
        draws = (sample_integral2_spectral if spectral else sample_integral)(
            g, samples, rng)
        if not (1e-12 < v < 1e12):
            degenerate = True
        rows.append(KernelDiagnostics(
            label=str(lab),
            order=2 if spectral else g.order,
            variance=m2,
            fourth_moment=m4,
            excess_kurtosis=excess,
            contraction_norms_sq=contractions,
            ks=ks_against_std_normal(draws),
        ))
    if degenerate:
        verdict = "undecided"
    else:
        first, last = rows[0], rows[-1]
        ok = _halved(abs(first.excess_kurtosis), abs(last.excess_kurtosis))
        for p in range(len(first.contraction_norms_sq)):
            ok = ok and _halved(first.contraction_norms_sq[p],
                                last.contraction_norms_sq[p])
        ok = ok and last.ks.passed
        verdict = "consistent" if ok else "inconsistent"
    return SequenceReport(rows=tuple(rows), verdict=verdict)


def disjoint_pair_kernel(k: int) -> SymTensor:
    """Average of k order-2 basis kernels on disjoint coordinate pairs.

    (1/sqrt(k)) sum_i sym(e_{2i} (x) e_{2i+1}); unit variance for every k,
    excess kurtosis exactly 6/k, so the sequence k -> infinity is the
    canonical example of a chaos sequence turning Gaussian.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    m = np.zeros((2 * k, 2 * k))
    i = np.arange(k)
    m[2 * i, 2 * i + 1] = 0.5 / math.sqrt(k)
    m[2 * i + 1, 2 * i] = 0.5 / math.sqrt(k)
    return SymTensor(m)


def paired_product_kernel() -> SymTensor:
    """sym(e_0 (x) e_1): I_2 of it is the product xi_0 * xi_1.

    Unit variance, fourth moment 9.  The fixed counterexample: no single
    order-2 integral is Gaussian, and this one fails distributional tests
    at every sample size worth running.
    """
    return sym(np.array([[0.0, 0.5], [0.5, 0.0]]))
