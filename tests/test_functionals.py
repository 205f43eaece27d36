import math

import numpy as np
import pytest

from chaoskit import reference
from chaoskit.chaos import (
    excess_kurtosis_exact,
    fourth_moment_exact,
    hs_operator,
    second_moment_exact,
)
from chaoskit.embeddings import BrownianSheet, build_embedding, sample_path
from chaoskit.functionals import (
    FbmPowerVariation,
    FbmSingularVariation,
    SheetPowerVariation,
    SheetSingularVariation,
    direct_evaluate,
    embed,
    embed_on_grid,
    sheet_power_variance_exact,
)
from chaoskit.rng import stream
from chaoskit.tensors import norm_sq, scale


def _constant_path(emb, value=1.0):
    return np.full((emb.cells + 1,) * emb.ndim, value)


# ------------------------------------------------------------ parameters


def test_fbm_power_parameter_domain():
    FbmPowerVariation(0.75, -1.2)  # 2b + 2H + 1 = 0.1 > 0
    # one refusal for every family: it names the family's fields and the axis
    with pytest.raises(ValueError, match=r"^FbmPowerVariation\(hurst=0\.75, "
                       r"beta=-1\.25\): need every axis mass finite and > 0, "
                       r"axis 0 has inf$"):
        FbmPowerVariation(0.75, -1.25)
    with pytest.raises(ValueError):
        FbmPowerVariation(1.2, 0.0)
    for beta in (math.inf, math.nan):
        with pytest.raises(ValueError, match="beta"):
            FbmPowerVariation(0.75, beta)


def test_singular_parameter_domain():
    for eps in (0.0, 1.0, -0.1, 2.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="eps"):
            FbmSingularVariation(0.75, eps)
        with pytest.raises(ValueError, match="eps"):
            SheetSingularVariation(1, eps)
    # at H = 0.0013, 2(-H - 1/2) + 2H + 1 rounds to +2^-52, not 0: the
    # weight u^(-2H-1) on [0, 1] has no finite mass all the same
    with pytest.raises(ValueError, match="eps=0.0"):
        FbmSingularVariation(0.0013, 0.0)


def test_sheet_power_parameter_domain():
    SheetPowerVariation((-0.5, 0.25))
    with pytest.raises(ValueError):
        SheetPowerVariation((-1.0,))
    with pytest.raises(ValueError):
        SheetPowerVariation(())
    for beta in (math.inf, math.nan):
        with pytest.raises(ValueError, match="beta"):
            SheetPowerVariation((0.0, beta))
    # the continuum variance refuses what the family refuses
    for betas in ((-1.0,), (math.inf,), ()):
        with pytest.raises(ValueError):
            sheet_power_variance_exact(betas)


def _old_closed_forms():
    """(family, E F, normalization, bitwise) as each family once stated them.

    The single-axis forms are the same operations as the axis masses', so
    they agree to the bit; products over axes, and the sheet-singular
    power log(1/eps)^(-n/2) against 1/sqrt(log(1/eps)) per axis, to
    rounding.
    """
    for h in (0.05, 0.3, 0.5, 0.6, 0.75, 0.95):
        for x in (1e-12, 1e-3, 1.0, 6.0):  # 2b + 2H + 1, near and far from 0
            beta = (x - 2.0 * h - 1.0) / 2.0
            q = 2.0 * beta + 2.0 * h + 1.0
            yield FbmPowerVariation(h, beta), 1.0 / q, math.sqrt(q), True
        for eps in (0.5, 1e-2, 1e-8):
            log = math.log(1.0 / eps)
            yield (FbmSingularVariation(h, eps), log, 1.0 / math.sqrt(log),
                   True)
    for betas in ((-0.999,), (0.0,), (3.0,), (-0.9, 0.5), (-0.5, 0.0, 2.0)):
        mean, prod = 1.0, 1.0
        for b in betas:
            mean /= 2.0 * b + 2.0
            prod *= 2.0 * b + 2.0
        yield (SheetPowerVariation(betas), mean, math.sqrt(prod),
               len(betas) == 1)
    for n in (1, 2, 3):
        for eps in (0.5, 1e-2, 1e-8):
            log = math.log(1.0 / eps)
            yield SheetSingularVariation(n, eps), log**n, log ** (-0.5 * n), False


def test_mean_and_normalization_follow_from_the_weights():
    for func, mean, norm, bitwise in _old_closed_forms():
        got = (func.mean_exact(), func.normalization())
        if bitwise:
            assert got == (mean, norm), func
        else:
            assert got == pytest.approx((mean, norm), rel=1e-14, abs=0.0), func


# ------------------------------------------------------- means / kernels


def _kernel_oracle(emb, tail_mass):
    """Collocate a per-axis tail mass on midpoints and conjugate it."""
    mids = emb.midpoints
    c = tail_mass(np.maximum(mids[:, None], mids[None, :]))
    incr = np.diff(emb.factor, axis=0, prepend=0.0)
    return incr.T @ c @ incr


def _assert_rel_close(got, want, rtol=1e-12):
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


def test_fbm_power_mean_and_kernel_at_half():
    # H = 1/2, beta = 0: mean 1/2 and K(s,t) = 1 - s v t
    f = FbmPowerVariation(0.5, 0.0)
    assert f.mean_exact() == pytest.approx(0.5)
    assert f.normalization() == pytest.approx(math.sqrt(2.0))
    assert f.axis_weights() == [(0.0, 0.0)]
    emb = build_embedding(f.model(), 32, "geometric")
    _assert_rel_close(embed(f, emb).kernel.coeffs,
                      _kernel_oracle(emb, lambda x: 1.0 - x))


def test_fbm_singular_mean_and_kernel():
    eps = math.exp(-1.0)
    f = FbmSingularVariation(0.5, eps)
    assert f.mean_exact() == pytest.approx(1.0)
    # H = 1/2: K(s,t) = 1/(eps v s v t) - 1
    assert f.axis_weights() == [(-1.0, eps)]
    emb = build_embedding(f.model(), 32)
    _assert_rel_close(embed(f, emb).kernel.coeffs,
                      _kernel_oracle(emb, lambda x: 1.0 / np.maximum(x, eps) - 1.0))


def test_sheet_power_mean():
    assert SheetPowerVariation((0.0, 0.0)).mean_exact() == pytest.approx(0.25)
    assert SheetPowerVariation((0.0,)).mean_exact() == pytest.approx(0.5)


def test_sheet_singular_mean_and_kernel():
    f = SheetSingularVariation(2, 1e-2)
    assert f.mean_exact() == pytest.approx(math.log(100.0) ** 2)
    # per axis K(s,t) = 1/(eps v s v t) - 1
    assert f.axis_weights() == [(-1.0, 1e-2)] * 2
    emb = build_embedding(f.model(), 8, "geometric")
    axis = _kernel_oracle(emb, lambda x: 1.0 / np.maximum(x, 1e-2) - 1.0)
    _assert_rel_close(embed(f, emb).kernel.coeffs, np.kron(axis, axis))


# --------------------------------------------------------- direct route


def test_direct_evaluate_zero_path():
    func = FbmPowerVariation(0.75, 0.0)
    emb = build_embedding(func.model(), 32)
    path = _constant_path(emb, 0.0)
    assert direct_evaluate(func, emb, path) == 0.0


def test_direct_evaluate_constant_one_power():
    func = FbmPowerVariation(0.6, 0.0)
    emb = build_embedding(func.model(), 32)
    assert direct_evaluate(func, emb, _constant_path(emb)) == pytest.approx(1.0)


def test_direct_evaluate_constant_one_sheet_power():
    func = SheetPowerVariation((0.0, 0.0))
    emb = build_embedding(func.model(), 16)
    assert direct_evaluate(func, emb, _constant_path(emb)) == pytest.approx(1.0)


@pytest.mark.parametrize("hurst", [0.6, 0.75])
def test_direct_evaluate_constant_one_singular(hurst):
    # integral of t^(-2H-1) over [eps, 1], closed form, midpoint quadrature
    eps = 1e-1
    func = FbmSingularVariation(hurst, eps)
    want = (eps ** (-2.0 * hurst) - 1.0) / (2.0 * hurst)
    errs = []
    for cells in (256, 1024):
        emb = build_embedding(func.model(), cells)
        got = direct_evaluate(func, emb, _constant_path(emb))
        errs.append(abs(got - want) / want)
    assert errs[0] < 0.03
    assert errs[1] < errs[0]


def test_direct_evaluate_constant_one_sheet_singular():
    func = SheetSingularVariation(1, 1e-1)
    emb = build_embedding(func.model(), 1024)
    got = direct_evaluate(func, emb, _constant_path(emb))
    assert got == pytest.approx(1.0 / 1e-1 - 1.0, rel=0.01)


def test_direct_evaluate_model_mismatch():
    func = FbmPowerVariation(0.75, 0.0)
    emb = build_embedding(BrownianSheet(1), 16)
    with pytest.raises(ValueError):
        direct_evaluate(func, emb, _constant_path(emb))


def test_direct_evaluate_batch():
    func = FbmPowerVariation(0.7, 0.0)
    emb = build_embedding(func.model(), 32)
    xi = stream(2, "func:batch").standard_normal((5, 32))
    vals = direct_evaluate(func, emb, sample_path(emb, xi))
    assert vals.shape == (5,)
    assert np.all(vals >= 0.0)


def _nested_quadrature(func, nodes, values):
    """Midpoint quadrature of a two-axis sheet, one cell at a time."""
    (e0, c0), (e1, c1) = func.axis_weights()
    total = 0.0
    for i in range(nodes.size - 1):
        for j in range(nodes.size - 1):
            mi = 0.5 * (nodes[i] + nodes[i + 1])
            mj = 0.5 * (nodes[j] + nodes[j + 1])
            if mi < c0 or mj < c1:
                continue
            corners = values[i:i + 2, j:j + 2]
            avg = 0.25 * corners.sum()
            total += ((mi**e0 * mj**e1 * avg) ** 2 * (nodes[i + 1] - nodes[i])
                      * (nodes[j + 1] - nodes[j]))
    return total


@pytest.mark.parametrize("func", [SheetPowerVariation((0.3, -0.4)),
                                  SheetSingularVariation(2, 0.05)],
                         ids=["power", "singular"])
def test_direct_evaluate_sheet_matches_a_loop_over_cells(func):
    # non-constant node values on a geometric grid: each axis's average and
    # weight land on that axis (unequal betas, cutoffs that drop cells)
    emb = build_embedding(func.model(), 8, "geometric")
    values = stream(61, "func:sheet-loop").standard_normal((3, 9, 9))
    got = direct_evaluate(func, emb, values)
    want = [_nested_quadrature(func, emb.nodes, v) for v in values]
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
    one = direct_evaluate(func, emb, values[1])
    assert one == pytest.approx(want[1], rel=1e-14)


# ----------------------------------------------------------- embeddings


def test_embed_requires_matching_model():
    func = FbmPowerVariation(0.75, 0.0)
    other = build_embedding(FbmPowerVariation(0.6, 0.0).model(), 16)
    with pytest.raises(ValueError):
        embed(func, other)


def test_statistic_at_zero_noise_is_minus_scaled_trace():
    ef = embed_on_grid(FbmPowerVariation(0.7, 0.0), 32)
    want = -ef.scale * np.trace(ef.kernel.coeffs)
    assert ef.statistic(np.zeros(32)) == pytest.approx(want, rel=1e-12)


def test_value_mean_and_variance_mc():
    ef = embed_on_grid(FbmPowerVariation(0.7, 0.0), 64)
    xi = stream(2, "func:valuemc").standard_normal((20000, 64))
    vals = ef.value(xi)
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - ef.mean) <= 4.0 * se
    draws = ef.statistic(xi)
    sq = draws * draws
    se2 = sq.std(ddof=1) / math.sqrt(sq.size)
    assert abs(sq.mean() - ef.variance_exact()) <= 4.0 * se2


def test_embedded_moments_consistent_with_chaos_route():
    ef = embed_on_grid(FbmPowerVariation(0.75, -0.3), 48)
    g = scale(ef.kernel, ef.scale)
    v = second_moment_exact(g)
    assert ef.variance_exact() == pytest.approx(v, rel=1e-12)
    kurt = fourth_moment_exact(g) / v**2
    assert ef.kurtosis_exact() == pytest.approx(kurt, rel=1e-12)
    assert ef.excess_kurtosis_exact() == pytest.approx(
        excess_kurtosis_exact(g), rel=1e-12)


def test_embedded_functional_decomposes_its_kernel_once(monkeypatch):
    import chaoskit.tensors as tensors

    ef = embed_on_grid(FbmPowerVariation(0.75, -0.3), 48)
    calls = {"eigvalsh": 0, "contract": 0}
    eigvalsh, contract = np.linalg.eigvalsh, tensors.contract

    def counting_eigvalsh(a, *args, **kwargs):
        calls["eigvalsh"] += 1
        return eigvalsh(a, *args, **kwargs)

    def counting_contract(*args, **kwargs):
        calls["contract"] += 1
        return contract(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    monkeypatch.setattr(tensors, "contract", counting_contract)
    ef.variance_exact()
    ef.excess_kurtosis_exact()
    ef.kurtosis_exact()
    ef.contraction_ratio()
    ef.sample_statistic(100, stream(7, "func:once:a"))
    ef.sample_statistic(100, stream(7, "func:once:b"))
    assert calls == {"eigvalsh": 1, "contract": 0}


@pytest.mark.parametrize("eps, rank", [(1e-1, 4), (1e-2, 8), (1e-3, 11),
                                       (1e-4, 14)])
def test_factored_spectrum_has_live_rank(eps, rank):
    # criterion 8's grid: only the cells above eps carry a row of B
    ef = embed_on_grid(FbmSingularVariation(0.75, eps), 512, "geometric", 511)
    lam = ef.operator.eigenvalues
    dense = hs_operator(ef.kernel).eigenvalues
    assert lam.size == rank
    assert dense.size == 512  # the structural zeros are left out of lam
    for j in (2, 4):
        assert np.sum(lam**j) == pytest.approx(np.sum(dense**j), rel=1e-12)


def test_factored_sheet_spectrum_matches_dense_kron():
    ef = embed_on_grid(SheetPowerVariation((-0.9, -0.9)), 16, "geometric", 8)
    lam = ef.operator.eigenvalues
    dense = hs_operator(ef.kernel).eigenvalues
    assert lam.size == dense.size == 256
    scale_ = np.max(np.abs(dense))
    assert np.max(np.abs(np.sort(lam) - dense)) <= 1e-12 * scale_


@pytest.mark.parametrize("eps", [1e-2, 1e-3])  # ranks 8 and 11
def test_sample_statistic_draws_two_uniforms_per_eigenvalue_pair(eps):
    class Recording:
        def __init__(self, gen):
            self.gen, self.sizes = gen, []

        def random(self, size):
            self.sizes.append(size)
            return self.gen.random(size)

        def standard_normal(self, size):
            raise AssertionError("spectral draws take no normals")

    ef = embed_on_grid(FbmSingularVariation(0.75, eps), 64, "geometric")
    rank = ef.operator.eigenvalues.size
    assert rank < ef.embedding.dim
    width = 2 * math.ceil(rank / 2)
    rng = Recording(stream(7, "func:rank"))
    draws = ef.sample_statistic(10000, rng)
    assert draws.shape == (10000,)
    assert all(size[1] == width for size in rng.sizes)
    assert sum(math.prod(size) for size in rng.sizes) == 10000 * width


@pytest.mark.parametrize("func, cells", [
    (FbmPowerVariation(0.75, -1.2), 1024),
    (FbmSingularVariation(0.75, 1e-3), 512),
    (SheetPowerVariation((-0.9, -0.9)), 32),
    (SheetSingularVariation(2, 1e-2), 32),
])
def test_exact_moments_and_draws_build_no_coordinates(func, cells, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("exact moments and draws need no Cholesky factor")

    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    ef = embed_on_grid(func, cells, "geometric")
    assert ef.variance_exact() > 0.0
    assert ef.excess_kurtosis_exact() > 0.0
    assert ef.contraction_ratio() > 0.0
    assert ef.sample_statistic(100, stream(7, "func:nocoord")).shape == (100,)
    assert "kernel" not in vars(ef)


def test_diagnose_takes_one_eigvalsh_per_point(monkeypatch, tmp_path):
    import chaoskit.cli as cli

    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("diagnose needs no Cholesky factor")

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    # one small Gram per point, one row per live cell
    for family, cells, ranks in (("fbm-singular", 1024, (4, 8, 11, 14)),
                                 ("fbm-power", 64, (64,) * 4)):
        calls.clear()
        argv = ["diagnose", "--family", family, "--cells", str(cells),
                "--samples", "100", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        assert calls == [(k, k) for k in ranks]


def test_fbm_power_default_depth_matches_half_depth():
    # 1024 cells over the default 1023 octaves: the cells below 2^-511
    # add less than double resolution to the 512-cell, 511-octave value
    ef = embed_on_grid(FbmPowerVariation(0.75, -1.2), 1024, "geometric")
    assert ef.excess_kurtosis_exact() == pytest.approx(5.953317720308796,
                                                       rel=1e-12)


def test_fbm_power_default_depth_dense_kernel_matches_operator():
    # the coordinate route on the same 1024-cell, 1023-octave grid: the
    # node factor needs no jitter, so the dense kernel stays in range
    ef = embed_on_grid(FbmPowerVariation(0.75, -1.2), 1024, "geometric")
    dense = hs_operator(ef.kernel).eigenvalues
    lam = ef.operator.eigenvalues
    for j in (2, 4):
        assert np.sum(dense**j) == pytest.approx(np.sum(lam**j), rel=1e-12)


def test_sample_statistic_matches_statistic_of_stream():
    ef = embed_on_grid(FbmPowerVariation(0.75, 0.0), 32)
    a = ef.sample_statistic(1000, stream(7, "func:sample"))
    assert a.shape == (1000,)
    su_var = a.var(ddof=1)
    assert su_var == pytest.approx(ef.variance_exact(), rel=0.2)


# ------------------------------------------------------------ the limits


def test_jeulin_divergence_of_singular_means():
    # MC mean of the singular functional grows like log(1/eps)
    xi = stream(5, "func:jeulin").standard_normal((4000, 256))
    prev = -math.inf
    for eps in (1e-1, 1e-2, 1e-3):
        ef = embed_on_grid(FbmSingularVariation(0.75, eps), 256)
        vals = ef.value(xi)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - math.log(1.0 / eps)) <= 4.0 * se
        assert vals.mean() > prev
        prev = vals.mean()


def test_l2_convergence_of_power_functional():
    # E[((2b+2H+1) F - 1)^2] -> 0 along the schedule toward the boundary
    hurst = 0.75
    got = []
    for i, x in enumerate((1e-1, 10**-1.5, 1e-2, 10**-2.5)):
        beta = (x - 2.0 * hurst - 1.0) / 2.0
        ef = embed_on_grid(FbmPowerVariation(hurst, beta), 256,
                           "geometric", 255.0)
        xi = stream(5, f"func:l2:{i}").standard_normal((2000, 256))
        diff = x * ef.value(xi) - 1.0
        got.append(float(np.mean(diff * diff)))
    assert all(b < a for a, b in zip(got, got[1:]))


def test_variance_growth_rate_of_singular_functional():
    # (E[L^2] - (log 1/eps)^2)/log(1/eps) stabilizes as eps falls
    for hurst in (0.6, 0.75):
        qs = []
        for eps in (1e-2, 1e-3, 1e-4):
            ef = embed_on_grid(FbmSingularVariation(hurst, eps), 512,
                               "geometric", 511.0)
            qs.append(2.0 * norm_sq(ef.kernel) / math.log(1.0 / eps))
        for a, b in zip(qs, qs[1:]):
            assert 0.7 <= b / a <= 1.3


# ------------------------------------------------- sheet closed form


def test_sheet_variance_reference_point():
    assert sheet_power_variance_exact((-0.995,)) == pytest.approx(1.9802,
                                                                  abs=1e-4)


def test_sheet_variance_limit_is_two_per_any_dims():
    for n in (1, 2, 3):
        v = sheet_power_variance_exact((-1.0 + 5e-7,) * n)
        assert v == pytest.approx(2.0, rel=1e-5)


@pytest.mark.parametrize("betas", [(-0.5,), (0.0,), (1.0,),
                                   (-0.5, 0.25), (-0.9, -0.9)])
def test_sheet_variance_matches_quadrature_oracle(betas):
    got = sheet_power_variance_exact(betas)
    want = reference.sheet_power_variance_quadrature(betas)
    assert got == pytest.approx(want, rel=1e-7)


def test_sheet_variance_rejects_bad_beta():
    with pytest.raises(ValueError):
        sheet_power_variance_exact((-1.0,))


def test_sheet_statistic_variance_tracks_closed_form():
    # discrete exact variance approaches the continuum value on a log grid
    betas = (-0.995,)
    want = sheet_power_variance_exact(betas)
    ef = embed_on_grid(SheetPowerVariation(betas), 1024, "geometric", 512.0)
    assert ef.variance_exact() == pytest.approx(want, rel=0.02)


def test_sheet2_statistic_variance_tracks_closed_form():
    betas = (-0.6, -0.6)
    want = sheet_power_variance_exact(betas)
    ef = embed_on_grid(SheetPowerVariation(betas), 64, "geometric", 32.0)
    assert ef.variance_exact() == pytest.approx(want, rel=0.05)


# ------------------------------------------------------------- coupling


@pytest.mark.parametrize("hurst", [0.6, 0.75])
def test_direct_and_chaos_routes_couple(hurst):
    func = FbmPowerVariation(hurst, 0.0)
    medians = []
    for cells in (64, 256):
        emb = build_embedding(func.model(), cells)
        ef = embed(func, emb)
        xi = stream(11, f"func:couple:{hurst}:{cells}").standard_normal(
            (100, cells))
        direct = direct_evaluate(func, emb, sample_path(emb, xi))
        medians.append(float(np.median(np.abs(direct - ef.value(xi)))))
    assert medians[1] < medians[0]


def test_embed_on_grid_refuses_an_unknown_family():
    with pytest.raises(TypeError, match="unknown functional family object"):
        embed_on_grid(object(), 4)
