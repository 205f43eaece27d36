import math

import numpy as np
import pytest

from chaoskit.embeddings import (
    BrownianSheet,
    DegenerateModelError,
    FractionalBrownianMotion,
    brownian_motion,
    build_embedding,
    embed_kernel2,
    geometric_nodes,
    sample_path,
    uniform_nodes,
)
from chaoskit.rng import stream
from chaoskit.tensors import norm_sq


def test_fbm_covariance_values():
    m = FractionalBrownianMotion(0.75)
    # R(s,t) = (s^2H + t^2H - |t-s|^2H)/2
    want = 0.5 * (0.25**1.5 + 1.0 - 0.75**1.5)
    assert m.covariance(0.25, 1.0) == pytest.approx(want)
    assert m.covariance(0.5, 0.5) == pytest.approx(0.5**1.5)
    assert m.covariance(0.0, 0.7) == 0.0


def test_brownian_motion_covariance_is_min():
    m = brownian_motion()
    assert m.hurst == 0.5
    assert m.covariance(0.3, 0.8) == pytest.approx(0.3)


def test_fbm_rejects_bad_hurst():
    for h in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            FractionalBrownianMotion(h)


def test_sheet_covariance_is_product_of_mins():
    m = BrownianSheet(2)
    x = np.array([0.3, 0.9])
    y = np.array([0.5, 0.4])
    assert m.covariance(x, y) == pytest.approx(0.3 * 0.4)


def test_sheet_rejects_bad_ndim():
    with pytest.raises(ValueError):
        BrownianSheet(0)


def test_uniform_nodes():
    np.testing.assert_allclose(uniform_nodes(4), [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(ValueError):
        uniform_nodes(0)


def test_geometric_nodes_halve_toward_origin():
    nodes = geometric_nodes(4, 3.0)
    np.testing.assert_allclose(nodes, [0.0, 0.125, 0.25, 0.5, 1.0])
    # default depth: first positive node at 2^-(cells-1)
    nodes = geometric_nodes(8)
    assert nodes[1] == pytest.approx(2.0**-7)
    assert nodes[-1] == 1.0
    with pytest.raises(ValueError):
        geometric_nodes(1)
    with pytest.raises(ValueError):
        geometric_nodes(4, 0.0)


def test_build_embedding_d1_is_identity():
    emb = build_embedding(FractionalBrownianMotion(0.6), 1)
    np.testing.assert_allclose(emb.chol, [[1.0]])
    np.testing.assert_allclose(emb.gram_matrix(), [[1.0]])


def test_build_embedding_rejects_octaves_on_uniform():
    with pytest.raises(ValueError):
        build_embedding(brownian_motion(), 8, "uniform", 4.0)
    with pytest.raises(ValueError):
        build_embedding(brownian_motion(), 8, "diadic")


def test_bm_increments_are_independent():
    emb = build_embedding(brownian_motion(), 16)
    gram = emb.gram_matrix()
    np.testing.assert_allclose(gram, np.diag(np.full(16, 1.0 / 16.0)),
                               atol=1e-15)
    assert emb.jitter == 0.0


@pytest.mark.parametrize("hurst", [0.55, 0.6, 0.7, 0.75, 0.9])
@pytest.mark.parametrize("cells", [16, 64, 256])
def test_fbm_gram_factors_on_uniform_grids(hurst, cells):
    emb = build_embedding(FractionalBrownianMotion(hurst), cells)
    gram = emb.gram_matrix()
    resid = np.max(np.abs(gram - emb.chol @ emb.chol.T))
    assert resid <= 1e-10 * max(1.0, np.max(np.abs(gram)))
    # total variance of the endpoint is sum of all gram entries = 1
    assert gram.sum() == pytest.approx(1.0, rel=1e-8)


def test_fbm_gram_factors_on_deep_geometric_grid():
    emb = build_embedding(FractionalBrownianMotion(0.75), 512, "geometric",
                          511.0)
    assert np.all(np.isfinite(emb.chol))
    assert emb.gram_matrix().sum() == pytest.approx(1.0, rel=1e-8)


def test_jitter_ladder_engages_on_near_singular_grid():
    emb = build_embedding(FractionalBrownianMotion(0.99), 1024, "geometric",
                          1023.0)
    assert emb.jitter > 0.0
    assert np.all(np.isfinite(emb.chol))


def test_indefinite_matrix_raises_degenerate():
    from chaoskit.embeddings import _cholesky_with_jitter

    bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    with pytest.raises(DegenerateModelError) as exc:
        _cholesky_with_jitter(bad)
    assert exc.value.jitter_last is not None


def test_sheet_gram_is_kron_of_axis_volumes():
    emb = build_embedding(BrownianSheet(2), 8)
    one = build_embedding(brownian_motion(), 8)
    np.testing.assert_allclose(emb.gram_matrix(),
                               np.kron(one.gram_matrix(), one.gram_matrix()),
                               atol=1e-12)
    assert emb.chol is None
    assert emb.dim == 64


def _tail_mass_oracle(emb, expo, cutoff=0.0):
    """Collocation C[i,j] = integral of u^(2 expo) over [max(m_i, m_j, cutoff), 1]."""
    mids = emb.midpoints
    lo = np.maximum(np.maximum(mids[:, None], mids[None, :]), cutoff)
    p = 2.0 * expo + 1.0
    return -np.log(lo) if p == 0.0 else (1.0 - lo**p) / p


def _conjugated_oracle(emb, expo, cutoff=0.0):
    c = _tail_mass_oracle(emb, expo, cutoff)
    if emb.chol is not None:
        return emb.chol.T @ c @ emb.chol
    s = np.sqrt(emb.widths)
    return s[:, None] * c * s[None, :]


def _assert_rel_close(got, want, rtol=1e-12):
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


def test_gram_matrix_size_guard():
    emb = build_embedding(BrownianSheet(2), 128)
    assert emb.dim == 16384
    with pytest.raises(ValueError):
        emb.gram_matrix()
    with pytest.raises(ValueError):
        embed_kernel2(emb, [(0.0, 0.0), (0.0, 0.0)])


def test_embed_bm_uniform_matches_oracle():
    emb = build_embedding(brownian_motion(), 16)
    m = embed_kernel2(emb, [(0.0, 0.0)])
    _assert_rel_close(m.coeffs, _conjugated_oracle(emb, 0.0))


def test_embed_geometric_fbm_cutoff_matches_oracle():
    # cells below the cutoff drop out of the factor but not of the kernel
    emb = build_embedding(FractionalBrownianMotion(0.75), 64, "geometric")
    m = embed_kernel2(emb, [(-1.25, 1e-3)])
    _assert_rel_close(m.coeffs, _conjugated_oracle(emb, -1.25, 1e-3))


def test_embed_removable_power_matches_oracle():
    # 2 expo + 1 = 0: the tail mass is -log max(s, t)
    emb = build_embedding(FractionalBrownianMotion(0.6), 32, "geometric", 16.0)
    m = embed_kernel2(emb, [(-0.5, 0.0)])
    _assert_rel_close(m.coeffs, _conjugated_oracle(emb, -0.5))


def test_embed_fbm_d1_is_tail_mass():
    emb = build_embedding(FractionalBrownianMotion(0.7), 1)
    m = embed_kernel2(emb, [(1.0, 0.0)])
    np.testing.assert_allclose(m.coeffs, [[(1.0 - 0.5**3) / 3.0]], rtol=1e-15)


def test_embed_max_kernel_variance_refines_to_one():
    # weight 1: K(s,t) = 1 - s v t has 2 ||K||^2 = 1/3 in the continuum
    gaps = []
    for d in (64, 256):
        emb = build_embedding(brownian_motion(), d)
        m = embed_kernel2(emb, [(0.0, 0.0)])
        gaps.append(abs(6.0 * norm_sq(m) - 1.0))
    assert gaps[0] < 0.05
    assert gaps[1] < gaps[0]


def test_embed_rejects_wrong_axis_count():
    emb = build_embedding(BrownianSheet(2), 8)
    with pytest.raises(ValueError):
        embed_kernel2(emb, [(0.0, 0.0)])


def test_embed_sheet_is_kron_of_axes():
    emb = build_embedding(BrownianSheet(2), 8, "geometric")
    weights = [(-0.9, 0.0), (-1.0, 1e-2)]
    m = embed_kernel2(emb, weights)
    want = np.kron(*(_conjugated_oracle(emb, e, c) for e, c in weights))
    _assert_rel_close(m.coeffs, want)


def test_sample_path_fbm_marginal_variances():
    hurst = 0.75
    emb = build_embedding(FractionalBrownianMotion(hurst), 64)
    xi = stream(3, "emb:fbmpath").standard_normal((20000, 64))
    ps = sample_path(emb, xi)
    assert ps.batch == 20000
    assert np.all(ps.values[:, 0] == 0.0)
    for node in (32, 64):
        t = emb.nodes[node]
        v = ps.values[:, node] ** 2
        se = v.std(ddof=1) / math.sqrt(v.size)
        assert abs(v.mean() - t ** (2 * hurst)) <= 4.0 * se


def test_sample_path_sheet_marginal_variances():
    emb = build_embedding(BrownianSheet(2), 16)
    xi = stream(3, "emb:sheetpath").standard_normal((20000, 256))
    ps = sample_path(emb, xi)
    assert ps.values.shape == (20000, 17, 17)
    assert np.all(ps.values[:, 0, :] == 0.0)
    assert np.all(ps.values[:, :, 0] == 0.0)
    for idx, want in (((16, 16), 1.0), ((8, 16), 0.5), ((8, 8), 0.25)):
        v = ps.values[:, idx[0], idx[1]] ** 2
        se = v.std(ddof=1) / math.sqrt(v.size)
        assert abs(v.mean() - want) <= 4.0 * se


def test_sample_path_single_draw_shape():
    emb = build_embedding(brownian_motion(), 8)
    ps = sample_path(emb, stream(3, "emb:single").standard_normal(8))
    assert ps.values.shape == (9,)
    assert ps.batch is None
    assert ps.values[0] == 0.0


def test_sample_path_covariance_between_nodes():
    # E[X_s X_t] = R(s,t) for the fbm embedding, checked off-diagonal
    hurst = 0.6
    emb = build_embedding(FractionalBrownianMotion(hurst), 32)
    xi = stream(9, "emb:cov").standard_normal((40000, 32))
    ps = sample_path(emb, xi)
    s_idx, t_idx = 8, 24
    prod = ps.values[:, s_idx] * ps.values[:, t_idx]
    want = emb.model.covariance(emb.nodes[s_idx], emb.nodes[t_idx])
    se = prod.std(ddof=1) / math.sqrt(prod.size)
    assert abs(prod.mean() - want) <= 4.0 * se
