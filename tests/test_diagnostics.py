import cmath
import math
import statistics
import tracemalloc
import warnings

import numpy as np
import pytest

from chaoskit import chaos, diagnostics, reference, tensors
from chaoskit.chaos import (
    cumulant,
    excess_kurtosis_exact,
    fourth_moment_exact,
    hs_operator,
    second_moment_exact,
)
from chaoskit.diagnostics import (
    disjoint_pair_kernel,
    gaussian_limit_report,
    ks_against_std_normal,
    paired_product_kernel,
    summarize,
)
from chaoskit.functionals import FbmPowerVariation, embed_on_grid
from chaoskit.rng import stream
from chaoskit.tensors import (
    SymTensor,
    basis_tensor,
    contraction_norm_sq,
    norm_sq,
    scale,
    sym,
    symmetrize,
    tensor,
)

# ------------------------------------------------------------------- KS


def test_ks_requires_min_sample():
    with pytest.raises(ValueError):
        ks_against_std_normal(np.zeros(99))


def test_ks_calibration_on_true_normals():
    # 5% level: at least 90% of seeded repetitions must pass
    passes = 0
    for i in range(100):
        draws = stream(100, f"diag:kscal:{i}").standard_normal(10000)
        if ks_against_std_normal(draws).passed:
            passes += 1
    assert passes >= 90


def test_ks_rejects_product_draws():
    xi = stream(100, "diag:ksprod").standard_normal((100000, 2))
    draws = xi[:, 0] * xi[:, 1]
    res = ks_against_std_normal(draws)
    assert not res.passed
    assert res.statistic > res.threshold
    su = summarize(draws)
    assert su.kurtosis == pytest.approx(9.0, abs=4.0 * su.se_kurtosis)


def test_ks_rejects_constant_samples():
    res = ks_against_std_normal(np.zeros(500))
    assert res.statistic >= 0.5
    assert not res.passed


def test_ks_threshold_formula():
    res = ks_against_std_normal(stream(1, "diag:thr").standard_normal(400))
    assert res.threshold == pytest.approx(1.358 / 20.0)
    assert 0.0 <= res.statistic <= 1.0
    assert res.n_samples == 400


def _ks_draws(case):
    rng = stream(100, f"diag:ksexact:{case}")
    if case == "normal":
        return rng.standard_normal(100000)
    if case == "heavy":  # Student t with 2 degrees of freedom
        return rng.standard_t(2, 100000)
    if case == "product":
        return rng.standard_normal(100000) * rng.standard_normal(100000)
    if case == "constant":
        return np.zeros(500)
    if case == "n100":
        return rng.standard_normal(100)
    if case == "ties":
        return np.round(rng.standard_normal(20000), 1)
    if case == "infinite":
        return np.concatenate([rng.standard_normal(3000),
                               [np.inf] * 5, [-np.inf] * 7])
    if case == "quantiles":
        # every deviation is 1/(2n) up to rounding, far below a block's
        # width 32/n, so every block's bound reaches the largest deviation
        inv = statistics.NormalDist().inv_cdf
        return np.array([inv((i + 0.5) / 1000) for i in range(1000)])
    if case == "inner-max":
        # quantiles lifted by a bump of 0.01 at rank 5017, inside a block:
        # the largest deviation is there, and blocks far from it are pruned
        inv = statistics.NormalDist().inv_cdf
        return np.array([inv((i + 0.5) / 10000
                             + 0.01 * math.exp(-((i - 5016) / 200) ** 2))
                         for i in range(10000)])
    raise ValueError(case)


def _ks_all_points(x, cdf_of):
    # the statistic with the CDF taken at every sorted draw
    x = np.sort(x)
    n = x.size
    cdf = cdf_of(x)
    i = np.arange(1, n + 1)
    return max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n))


@pytest.mark.parametrize("case", ["normal", "heavy", "product", "constant",
                                  "n100", "ties", "infinite", "quantiles",
                                  "inner-max"])
def test_ks_statistic_is_the_exact_cdf_at_every_draw(case):
    # the block bounds give the libm statistic bit for bit, and scipy's
    # ndtr (cephes) agrees in the last digits
    from scipy.special import ndtr

    x = _ks_draws(case)
    if case == "inner-max":  # the premise: neither end of its block
        s = np.sort(x)
        i = np.arange(1, s.size + 1)
        cdf = ndtr(s)
        j = int(np.argmax(np.maximum(i / s.size - cdf, cdf - (i - 1) / s.size)))
        assert 0 < j % diagnostics._KS_BLOCK < diagnostics._KS_BLOCK - 1
    got = ks_against_std_normal(x).statistic
    libm = _ks_all_points(x, lambda s: np.array(
        [0.5 * math.erfc(-v * math.sqrt(0.5)) for v in s.tolist()]))
    assert got == libm
    assert abs(got - _ks_all_points(x, ndtr)) <= 1e-15


def test_ks_nan_draws_give_a_nan_statistic_that_fails():
    x = stream(100, "diag:ksnan").standard_normal(10000)
    x[::1000] = np.nan
    res = ks_against_std_normal(x)
    assert math.isnan(res.statistic)
    assert not res.passed


def test_ks_memory_is_bounded():
    # the sorted copy plus the blocks' ends and the kept blocks' draws; the
    # CDF, rank and both one-sided differences as n-length arrays peaked
    # at 4.07 MB
    x = stream(100, "diag:ksmemory").standard_normal(100000)
    tracemalloc.start()
    try:
        ks_against_std_normal(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6


# ------------------------------------------------------------ summarize


def test_summarize_requires_min_sample():
    with pytest.raises(ValueError):
        summarize(np.arange(7.0))


def test_summarize_matches_plain_formulas():
    x = stream(2, "diag:sum").standard_normal(5000) * 1.7 + 0.4
    su = summarize(x)
    assert su.n == 5000
    assert su.mean == pytest.approx(x.mean(), rel=1e-12)
    assert su.variance == pytest.approx(x.var(ddof=1), rel=1e-12)
    c = x - x.mean()
    skew = np.mean(c**3) / np.mean(c**2) ** 1.5
    kurt = np.mean(c**4) / np.mean(c**2) ** 2
    assert su.skewness == pytest.approx(skew, rel=1e-9)
    assert su.kurtosis == pytest.approx(kurt, rel=1e-9)
    assert su.excess_kurtosis == pytest.approx(kurt - 3.0, rel=1e-9)


def test_summarize_jackknife_matches_bruteforce():
    x = stream(2, "diag:jack").standard_normal(200)
    su = summarize(x)

    def stats(arr):
        c = arr - arr.mean()
        m2 = np.mean(c**2)
        return (arr.mean(), arr.var(ddof=1),
                np.mean(c**3) / m2**1.5, np.mean(c**4) / m2**2)

    n = x.size
    reps = np.array([stats(np.delete(x, i)) for i in range(n)])
    for j, got in enumerate((su.se_mean, su.se_variance,
                             su.se_skewness, su.se_kurtosis)):
        dev = reps[:, j] - reps[:, j].mean()
        want = math.sqrt((n - 1) / n * np.sum(dev * dev))
        assert got == pytest.approx(want, rel=1e-8)


def _heavy_shifted(n, tag):
    # 3 xi_1 xi_2 + 5: kurtosis 9, and the shift makes the raw power sums
    # cancel in every central moment
    rng = stream(2, tag)
    return 3.0 * rng.standard_normal(n) * rng.standard_normal(n) + 5.0


def test_summarize_heavy_tailed_shifted_matches_two_pass():
    x = _heavy_shifted(100000, "diag:heavy")
    su = summarize(x)
    c = x - x.mean()
    m2, m3, m4 = (np.mean(c**k) for k in (2, 3, 4))
    assert su.mean == pytest.approx(x.mean(), rel=1e-9)
    assert su.variance == pytest.approx(x.var(ddof=1), rel=1e-9)
    assert su.skewness == pytest.approx(m3 / m2**1.5, rel=1e-9)
    assert su.kurtosis == pytest.approx(m4 / m2**2, rel=1e-9)
    assert abs(su.kurtosis - 9.0) < 1.5


def test_summarize_heavy_tailed_jackknife_matches_bruteforce():
    x = _heavy_shifted(200, "diag:heavy:jack")
    su = summarize(x)

    def stats(arr):
        c = arr - arr.mean()
        m2 = np.mean(c**2)
        return (arr.mean(), arr.var(ddof=1),
                np.mean(c**3) / m2**1.5, np.mean(c**4) / m2**2)

    n = x.size
    reps = np.array([stats(np.delete(x, i)) for i in range(n)])
    for j, got in enumerate((su.se_mean, su.se_variance,
                             su.se_skewness, su.se_kurtosis)):
        dev = reps[:, j] - reps[:, j].mean()
        want = math.sqrt((n - 1) / n * np.sum(dev * dev))
        assert got == pytest.approx(want, rel=1e-9)


def _summarize_one_shot(x):
    """summarize's statistics with every delete-one array formed at once."""
    n = x.size
    powers = (x, x2 := x * x, x2 * x, x2 * x2)
    sums = [np.sum(p) for p in powers]

    def stats_from_sums(t1, t2, t3, t4, m):
        mu = t1 / m
        mu2 = mu * mu
        m2 = t2 / m - mu2
        m3 = t3 / m - 3.0 * mu * t2 / m + 2.0 * mu * mu2
        m4 = t4 / m - 4.0 * mu * t3 / m + 6.0 * mu2 * t2 / m - 3.0 * mu2 * mu2
        return mu, m2 * m / (m - 1), m3 / (m2 * np.sqrt(m2)), m4 / (m2 * m2)

    full = stats_from_sums(*sums, n)
    loo = stats_from_sums(*(s - p for s, p in zip(sums, powers)), n - 1)
    ses = [math.sqrt((n - 1) / n * float(np.sum(np.square(d - np.mean(d)))))
           for d in loo]
    return [float(v) for v in full] + ses


@pytest.mark.parametrize("n", [100000, 3 * diagnostics._JACKKNIFE_CHUNK + 5])
def test_summarize_chunks_are_bitwise_the_one_shot_formula(n):
    # the delete-one statistics go chunk by chunk (n = 1e5 and 3 chunks + 5
    # leave a ragged last chunk); the full-array sums keep every bit
    assert n % diagnostics._JACKKNIFE_CHUNK
    x = _heavy_shifted(n, f"diag:chunks:{n}")
    su = summarize(x)
    got = [su.mean, su.variance, su.skewness, su.kurtosis,
           su.se_mean, su.se_variance, su.se_skewness, su.se_kurtosis]
    assert got == _summarize_one_shot(x)


def test_summarize_is_exact_under_power_of_two_scaling():
    # at 2^280 the fourth powers of the draws are past double range
    x = _heavy_shifted(1000, "diag:scaled")
    su, big = summarize(x), summarize(np.ldexp(x, 280))
    assert (big.skewness, big.kurtosis, big.se_skewness, big.se_kurtosis) == (
        su.skewness, su.kurtosis, su.se_skewness, su.se_kurtosis)
    assert (big.mean, big.se_mean) == (math.ldexp(su.mean, 280),
                                       math.ldexp(su.se_mean, 280))
    assert (big.variance, big.se_variance) == (math.ldexp(su.variance, 560),
                                               math.ldexp(su.se_variance, 560))


def test_summarize_memory_is_bounded():
    # the four n-length delete-one outputs plus chunk-sized temporaries;
    # forming the delete-one statistics at once peaked at 12.8 MB
    x = _heavy_shifted(100000, "diag:memory")
    tracemalloc.start()
    try:
        summarize(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * x.size * 8


# ------------------------------------------------------- HS / cumulants


def test_hs_operator_diagonal_kernel():
    op = hs_operator(sym(basis_tensor(1, 0, 0).coeffs))
    np.testing.assert_allclose(op.eigenvalues, [1.0])
    assert cumulant(op, 2) == pytest.approx(2.0)
    assert cumulant(op, 4) == pytest.approx(48.0)


def test_hs_operator_cross_kernel():
    op = hs_operator(symmetrize(basis_tensor(2, 0, 1)))
    np.testing.assert_allclose(sorted(op.eigenvalues), [-0.5, 0.5])
    assert cumulant(op, 3) == pytest.approx(0.0, abs=1e-12)


def test_cumulants_match_moment_formulas():
    rng = stream(3, "diag:cum")
    for _ in range(10):
        f = sym(rng.standard_normal((5, 5)))
        op = hs_operator(f)
        k2 = cumulant(op, 2)
        assert k2 == pytest.approx(second_moment_exact(f), rel=1e-10)
        k4 = cumulant(op, 4)
        assert k4 == pytest.approx(
            fourth_moment_exact(f) - 3.0 * k2 * k2, rel=1e-9)
        assert cumulant(op, 1) == 0.0
        # sum lambda^2 = ||matrix||^2
        assert np.sum(op.eigenvalues**2) == pytest.approx(norm_sq(f),
                                                          rel=1e-10)


def test_hs_operator_rejects_wrong_order():
    with pytest.raises(TypeError, match="order-2 SymTensor"):
        hs_operator(sym(np.ones(3)))


def test_hs_operator_takes_only_a_symtensor():
    # a plain Tensor or an array is refused, however close to symmetric;
    # sym() is the one way in, and its spectrum is the symmetric part's
    base = np.array([[1.0, 0.5], [0.5, 2.0]])
    tiny = base.copy()
    tiny[0, 1] += 1e-13
    for kernel in (tensor(base), tensor(tiny), base, base.tolist()):
        with pytest.raises(TypeError, match="apply sym"):
            hs_operator(kernel)
    np.testing.assert_array_equal(hs_operator(sym(tiny)).eigenvalues,
                                  np.linalg.eigvalsh(0.5 * (tiny + tiny.T)))


def test_spectral_bridge_small():
    f = sym(stream(3, "diag:bridge").standard_normal((4, 4)))
    lam4 = float(np.sum(np.linalg.eigvalsh(f.coeffs) ** 4))
    v = second_moment_exact(f)
    assert fourth_moment_exact(f) - 3 * v * v == pytest.approx(48.0 * lam4,
                                                               rel=1e-9)
    assert contraction_norm_sq(f, 1) == pytest.approx(lam4, rel=1e-9)


# -------------------------------------------------------- trend reports


def test_disjoint_pair_kernel_exact_values():
    for k in (1, 4, 16):
        f = disjoint_pair_kernel(k)
        assert f.dim == 2 * k
        assert second_moment_exact(f) == pytest.approx(1.0, rel=1e-12)
        excess = fourth_moment_exact(f) - 3.0
        assert excess == pytest.approx(6.0 / k, rel=1e-12)
        assert contraction_norm_sq(f, 1) == pytest.approx(1.0 / (8.0 * k),
                                                          rel=1e-12)


def test_paired_product_kernel_exact_values():
    f = paired_product_kernel()
    assert second_moment_exact(f) == pytest.approx(1.0)
    assert fourth_moment_exact(f) == pytest.approx(9.0)


def test_report_clt_family_consistent():
    ks = (4, 16, 64, 256)
    report = gaussian_limit_report([disjoint_pair_kernel(k) for k in ks],
                                   labels=[str(k) for k in ks],
                                   samples=10000, seed=0)
    assert report.verdict == "consistent"
    excs = [r.excess_kurtosis for r in report]
    assert all(b < a for a, b in zip(excs, excs[1:]))
    assert report.rows[-1].ks.passed


def test_report_constant_cross_inconsistent():
    kernels = [paired_product_kernel()] * 4
    report = gaussian_limit_report(kernels, samples=10000, seed=0)
    assert report.verdict == "inconsistent"
    for row in report:
        assert row.fourth_moment == pytest.approx(9.0)


def test_report_rank_one_inconsistent():
    # e1 x e1 at unit variance keeps excess 60/4 - 3 = 12 forever
    f = SymTensor(np.array([[1.0 / math.sqrt(2.0)]]))
    report = gaussian_limit_report([f] * 3, samples=10000, seed=0)
    assert report.verdict == "inconsistent"
    for row in report:
        assert row.excess_kurtosis == pytest.approx(12.0)


def test_report_verdict_ignores_labels():
    seq = [disjoint_pair_kernel(k) for k in (4, 16, 64)]
    a = gaussian_limit_report(seq, labels=["1", "2", "3"], samples=10000,
                              seed=0)
    b = gaussian_limit_report(seq, labels=["x", "y", "z"], samples=10000,
                              seed=0)
    assert a.verdict == b.verdict == "consistent"


def test_report_degenerate_variance_undecided():
    z = sym(np.zeros((2, 2)))
    report = gaussian_limit_report([z, z], samples=200, seed=0)
    assert report.verdict == "undecided"
    assert all(math.isnan(row.excess_kurtosis) for row in report)
    for row in report:
        assert (row.variance, row.fourth_moment) == (0.0, 0.0)
        assert row.contraction_norms_sq == (0.0,)


_CUBE = stream(37, "diag:order3").uniform(-1.0, 1.0, (3, 3, 3))


@pytest.mark.parametrize("x", [1e200, 1.7e308])
def test_report_huge_variance_undecided(x):
    # v = 2 x^2 overflows, but the spectrum scaled into [-1, 1) keeps its
    # unit form [1/sqrt 2]; the overflowing variance alone is undecided
    huge = SymTensor(np.array([[x]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = gaussian_limit_report([huge, huge], samples=200, seed=0)
    assert report.verdict == "undecided"
    for row in report:
        assert row.variance == 1.0
        assert row.excess_kurtosis == pytest.approx(12.0, rel=1e-15)
        assert row.fourth_moment == pytest.approx(15.0, rel=1e-15)
        assert row.contraction_norms_sq == pytest.approx((0.25,), rel=1e-15)


@pytest.mark.parametrize("s", [1e-170, 1e-160, 1e160, 1e200])
def test_report_order3_rows_are_scale_free(s):
    # the raw variance of f leaves double range at these scales, and a row
    # read from f 2^-k does not; only the verdict sees the unscaled
    # variance, which lies outside (1e-12, 1e12)
    want = gaussian_limit_report([sym(_CUBE)], samples=200, seed=0).rows[0]
    cube = sym(_CUBE * s)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = gaussian_limit_report([cube, cube], samples=200, seed=0)
    assert report.verdict == "undecided"
    for row in report:
        assert row.variance == pytest.approx(1.0, rel=1e-14)
        assert row.excess_kurtosis == pytest.approx(want.excess_kurtosis,
                                                    rel=1e-14)
        assert row.fourth_moment == pytest.approx(want.fourth_moment, rel=1e-14)
        assert row.contraction_norms_sq == pytest.approx(
            want.contraction_norms_sq, rel=1e-14)


def test_report_tiny_variance_undecided():
    # v = 2e-200 would vanish if squared; the rescaled spectrum is [1/sqrt 2]
    tiny = SymTensor(np.array([[1e-100]]))
    report = gaussian_limit_report([tiny, tiny], samples=200, seed=0)
    assert report.verdict == "undecided"
    for row in report:
        assert row.variance == 1.0
        assert row.excess_kurtosis == pytest.approx(12.0, rel=1e-15)
        assert row.fourth_moment == pytest.approx(15.0, rel=1e-15)
        assert row.contraction_norms_sq == pytest.approx((0.25,), rel=1e-15)
        assert math.isfinite(row.ks.statistic)


def test_report_order2_rows_match_tensor_route():
    efs = [embed_on_grid(FbmPowerVariation(0.75, b), 64) for b in (-0.3, 0.5)]
    kernels = [reference.tail_mass_kernel2(ef.embedding,
                                           ef.functional.axis_weights())
               for ef in efs]
    report = gaussian_limit_report(kernels, samples=200, seed=0)
    # the embedded functionals' closed-form operators give the same rows
    from_ops = gaussian_limit_report([ef.operator for ef in efs], samples=200,
                                     seed=0)
    assert from_ops.verdict == report.verdict
    for a, b in zip(report, from_ops):
        assert (b.order, b.ks.n_samples) == (a.order, a.ks.n_samples)
        assert b.variance == pytest.approx(a.variance, rel=1e-12)
        assert b.fourth_moment == pytest.approx(a.fourth_moment, rel=1e-12)
        assert b.contraction_norms_sq == pytest.approx(a.contraction_norms_sq,
                                                       rel=1e-12)
    for f, row in zip(kernels, report):
        g = scale(f, 1.0 / math.sqrt(second_moment_exact(f)))
        assert row.fourth_moment == pytest.approx(fourth_moment_exact(g), rel=1e-12)
        assert row.excess_kurtosis == pytest.approx(excess_kurtosis_exact(g),
                                                    rel=1e-12)
        assert row.contraction_norms_sq == pytest.approx(
            (contraction_norm_sq(g, 1),), rel=1e-12)


@pytest.mark.parametrize("order, d", [(3, 4), (3, 6), (4, 3)])
def test_report_contracts_each_higher_order_kernel_once(order, d, monkeypatch):
    rng = stream(23, f"diag:once:{order}:{d}")
    kernels = [sym(rng.standard_normal((d,) * order)) for _ in range(2)]
    calls = []
    contract = tensors.contract

    def counting_contract(f, g, p):
        calls.append(p)
        return contract(f, g, p)

    monkeypatch.setattr(tensors, "contract", counting_contract)
    monkeypatch.setattr(chaos, "contract", counting_contract)
    report = gaussian_limit_report(kernels, samples=200, seed=0)
    assert calls == list(range(1, order)) * len(kernels)
    monkeypatch.undo()
    for f, row in zip(kernels, report):
        g = scale(f, 1.0 / math.sqrt(second_moment_exact(f)))
        assert row.fourth_moment == fourth_moment_exact(g)
        for p, got in enumerate(row.contraction_norms_sq, 1):
            brute = norm_sq(reference.contraction_bruteforce(g, g, p))
            assert got == pytest.approx(contraction_norm_sq(g, p), rel=1e-12)
            assert got == pytest.approx(brute, rel=1e-12)


@pytest.mark.parametrize("order, d", [(1, 5), (2, 3), (2, 6), (3, 4), (4, 3)])
def test_excess_kurtosis_exact_is_the_report_rows_excess(order, d):
    # both read one chaos._unit_variance row, so they agree bit for bit
    rng = stream(43, f"diag:one-row:{order}:{d}")
    for _ in range(5):
        f = sym(rng.standard_normal((d,) * order))
        row = gaussian_limit_report([f], samples=200, seed=0).rows[0]
        assert excess_kurtosis_exact(f) == row.excess_kurtosis


def test_report_excess_nonnegative_invariant():
    rng = stream(19, "diag:excnn")
    kernels = [sym(rng.standard_normal((4, 4))) for _ in range(5)]
    report = gaussian_limit_report(kernels, samples=200, seed=1)
    for row in report:
        assert row.excess_kurtosis >= -1e-9


def test_report_requires_kernels():
    with pytest.raises(ValueError):
        gaussian_limit_report([], samples=200)


@pytest.mark.parametrize("order", [2, 3])
def test_report_refuses_a_plain_tensor(order):
    # at order 3 the exact columns read [0..7] as symmetric (excess 73.13)
    # while the KS column drew from its symmetric part (excess 87)
    f = tensor(np.arange(2.0**order).reshape((2,) * order))
    with pytest.raises(TypeError, match=r"apply sym(metrize)?\(\) first"):
        gaussian_limit_report([f, f])


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: gaussian_limit_report([sym(np.eye(2))], labels=["a", "b"]),
                 "labels/kernels length mismatch", id="report-labels"),
    pytest.param(lambda: disjoint_pair_kernel(0), "need k >= 1",
                 id="disjoint-pairs-0"),
])
def test_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()
