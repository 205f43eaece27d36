import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from chaoskit.chaos import hs_operator
from chaoskit.embeddings import (
    BrownianSheet,
    FractionalBrownianMotion,
    build_embedding,
    embed_kernel2,
    geometric_nodes,
    kernel2_spectrum,
    sample_path,
    uniform_nodes,
)
from chaoskit.embeddings import _GRAM_ROWS, _fbm_correlation, _tail_steps
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
    m = FractionalBrownianMotion(0.5)
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


@pytest.mark.parametrize("args", [(2048,), (1076,), (2000, 1074.0)])
def test_geometric_nodes_reject_grids_past_double_range(args):
    # 2^-1075 rounds to 0; at 1074 octaves subnormal rounding merges nodes
    with pytest.raises(ValueError, match="strictly increasing"):
        geometric_nodes(*args)


@pytest.mark.parametrize("cells", [1024, 1075])
def test_geometric_nodes_deepest_default_grids_stay_valid(cells):
    nodes = geometric_nodes(cells)
    assert nodes[1] == 2.0 ** -(cells - 1)
    assert np.all(np.diff(nodes) > 0.0)


def test_build_embedding_d1_is_identity():
    emb = build_embedding(FractionalBrownianMotion(0.6), 1)
    np.testing.assert_allclose(emb.factor, [[1.0]])
    np.testing.assert_allclose(emb.gram_matrix(), [[1.0]])


def test_build_embedding_rejects_octaves_on_uniform():
    with pytest.raises(ValueError):
        build_embedding(FractionalBrownianMotion(0.5), 8, "uniform", 4.0)
    with pytest.raises(ValueError):
        build_embedding(FractionalBrownianMotion(0.5), 8, "diadic")


def test_bm_increments_are_independent():
    emb = build_embedding(FractionalBrownianMotion(0.5), 16)
    gram = emb.gram_matrix()
    np.testing.assert_allclose(gram, np.diag(np.full(16, 1.0 / 16.0)),
                               atol=1e-15)
    assert emb.jitter == 0.0


@pytest.mark.parametrize("hurst", [0.55, 0.6, 0.7, 0.75, 0.9])
@pytest.mark.parametrize("cells", [16, 64, 256])
def test_fbm_gram_factors_on_uniform_grids(hurst, cells):
    emb = build_embedding(FractionalBrownianMotion(hurst), cells)
    gram = emb.gram_matrix()
    # increment covariance: four-point double difference of R_H
    t = emb.nodes
    cov = emb.model.covariance(t[:, None], t[None, :])
    want = cov[1:, 1:] - cov[1:, :-1] - cov[:-1, 1:] + cov[:-1, :-1]
    resid = np.max(np.abs(gram - want))
    assert resid <= 1e-10 * max(1.0, np.max(np.abs(gram)))
    # total variance of the endpoint is sum of all gram entries = 1
    assert gram.sum() == pytest.approx(1.0, rel=1e-8)


def test_fbm_gram_factors_on_deep_geometric_grid():
    emb = build_embedding(FractionalBrownianMotion(0.75), 512, "geometric",
                          511.0)
    assert np.all(np.isfinite(emb.factor))
    assert emb.gram_matrix().sum() == pytest.approx(1.0, rel=1e-8)


def test_near_singular_deep_grid_factors_without_jitter():
    # H = 0.99 over 1023 octaves: the node correlation has a unit
    # diagonal, so no row is judged against a variance it does not have
    emb = build_embedding(FractionalBrownianMotion(0.99), 1024, "geometric",
                          1023.0)
    assert emb.jitter == 0.0
    # divide before squaring: (t_1^H)^2 underflows
    rows = emb.factor / emb.nodes[1:, None] ** 0.99
    np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0, rtol=0.0,
                               atol=1e-12)


def test_jitter_ladder_recovers_a_singular_matrix():
    from chaoskit.embeddings import _cholesky_with_jitter

    # the first rung past jitter 0 is 1e-14 times the mean diagonal
    L, jitter = _cholesky_with_jitter(np.ones((2, 2)))
    assert jitter == 1e-14
    assert np.all(np.isfinite(L))


@pytest.mark.parametrize("hurst", [0.05, 0.5, 0.75, 0.99])
@pytest.mark.parametrize("cells, grid, octaves", [(16, "uniform", None),
                                                  (256, "uniform", None),
                                                  (32, "geometric", 16.0)])
def test_factor_reproduces_the_naive_covariance(hurst, cells, grid, octaves):
    # covariance() does not cancel where s << t, so the bound is
    # relative to s^H t^H alone
    model = FractionalBrownianMotion(hurst)
    emb = build_embedding(model, cells, grid, octaves)
    t = emb.nodes[1:]
    got = emb.factor @ emb.factor.T
    want = model.covariance(t[:, None], t[None, :])
    assert np.all(np.abs(got - want) <= 1e-12 * np.outer(t**hurst, t**hurst))


@pytest.mark.parametrize("hurst", [0.05, 0.5, 0.75, 0.99])
def test_fbm_covariance_matches_40_digit_arithmetic(hurst):
    # (s^2H + t^2H - |t-s|^2H)/2 in double cancels to 1.9e-12 relative
    # at H = 0.99 on this grid
    mpmath = pytest.importorskip("mpmath")
    t = geometric_nodes(32, 16.0)
    got = FractionalBrownianMotion(hurst).covariance(t[:, None], t[None, :])
    with mpmath.workdps(40):
        h2 = 2 * mpmath.mpf(hurst)
        want = np.array([[float((mpmath.mpf(s) ** h2 + mpmath.mpf(u) ** h2
                                 - abs(mpmath.mpf(u) - mpmath.mpf(s)) ** h2) / 2)
                          for u in t] for s in t])
    assert np.all(got[0] == 0.0) and np.all(got[:, 0] == 0.0)
    scale = np.outer(t**hurst, t**hurst)
    assert np.all(np.abs(got - want) <= 4.0 * np.finfo(float).eps * scale)


def test_indefinite_matrix_raises_degenerate():
    from chaoskit.embeddings import _cholesky_with_jitter

    bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    with pytest.raises(np.linalg.LinAlgError, match="within jitter 1.000e-10"):
        _cholesky_with_jitter(bad)


def test_sheet_gram_is_kron_of_axis_volumes():
    emb = build_embedding(BrownianSheet(2), 8)
    one = build_embedding(FractionalBrownianMotion(0.5), 8)
    np.testing.assert_allclose(emb.gram_matrix(),
                               np.kron(one.gram_matrix(), one.gram_matrix()),
                               atol=1e-12)
    # the exact Brownian factor sqrt(w_j), j <= i, shared by both axes
    brownian = np.tril(np.ones((8, 8))) * np.sqrt(emb.widths)
    np.testing.assert_array_equal(emb.factor, brownian)
    assert emb.jitter == 0.0
    assert emb.dim == 64


def _tail_mass_oracle(emb, expo, cutoff=0.0):
    """Collocation C[i,j] = integral of u^(2 expo) over [max(m_i, m_j, cutoff), 1]."""
    mids = emb.midpoints
    lo = np.maximum(np.maximum(mids[:, None], mids[None, :]), cutoff)
    p = 2.0 * expo + 1.0
    return -np.log(lo) if p == 0.0 else (1.0 - lo**p) / p


def _conjugated_oracle(emb, expo, cutoff=0.0):
    c = _tail_mass_oracle(emb, expo, cutoff)
    incr = np.diff(emb.factor, axis=0, prepend=0.0)
    return incr.T @ c @ incr


def _assert_rel_close(got, want, rtol=1e-12):
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


def test_sheet_embedding_stores_no_cell_volumes():
    tracemalloc.start()
    try:
        emb = build_embedding(BrownianSheet(3), 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert emb.dim == 64**3
    assert peak < 64**3 * 8 / 100


def test_gram_matrix_size_guard():
    emb = build_embedding(BrownianSheet(2), 128)
    assert emb.dim == 16384
    with pytest.raises(ValueError):
        emb.gram_matrix()
    with pytest.raises(ValueError):
        embed_kernel2(emb, [(0.0, 0.0), (0.0, 0.0)])
    # the node factor is 128 x 128, so paths still run
    assert sample_path(emb, np.zeros(16384)).shape == (129, 129)


def test_embed_bm_uniform_matches_oracle():
    emb = build_embedding(FractionalBrownianMotion(0.5), 16)
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
        emb = build_embedding(FractionalBrownianMotion(0.5), d)
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


def _assert_spectrum_matches_dense(emb, weights):
    """kernel2_spectrum's closed form against the dense kernel's."""
    lam = kernel2_spectrum(emb, weights).eigenvalues
    dense = hs_operator(embed_kernel2(emb, weights)).eigenvalues
    live = [np.sum(np.append(emb.midpoints[1:], 1.0) > cutoff)
            for _, cutoff in weights]
    assert lam.size == math.prod(live)
    assert np.all(np.diff(lam) >= 0.0)
    for j in (2, 4):
        assert np.sum(lam**j) == pytest.approx(np.sum(dense**j), rel=1e-12)
    return lam


@pytest.mark.parametrize("hurst", [0.5, 0.55, 0.75, 0.9])
@pytest.mark.parametrize("cells, grid", [(64, "uniform"), (256, "uniform"),
                                         (128, "geometric"), (256, "geometric")])
def test_closed_form_spectrum_matches_cholesky_route_fbm(hurst, cells, grid):
    # fbm-power at 2b + 2H + 1 = 0.1, near its Gaussian limit
    emb = build_embedding(FractionalBrownianMotion(hurst), cells, grid)
    _assert_spectrum_matches_dense(emb, [((0.1 - 2.0 * hurst - 1.0) / 2.0, 0.0)])


@pytest.mark.parametrize("eps, rank", [(1e-1, 4), (1e-2, 8), (1e-3, 11),
                                       (1e-4, 14)])
def test_closed_form_spectrum_matches_cholesky_route_singular(eps, rank):
    # criterion 8's grid, fbm-singular weight t^(-2H-1) above eps
    emb = build_embedding(FractionalBrownianMotion(0.75), 512, "geometric", 511.0)
    lam = _assert_spectrum_matches_dense(emb, [(-1.25, eps)])
    assert lam.size == rank


@pytest.mark.parametrize("dims", [1, 2])
@pytest.mark.parametrize("weight", [(-0.9, 0.0), (-0.995, 0.0), (-1.0, 1e-1),
                                    (-1.0, 1e-3)])
def test_closed_form_spectrum_matches_cholesky_route_sheet(dims, weight):
    # sheet-power (cutoff 0) and sheet-singular (expo -1 above eps)
    emb = build_embedding(BrownianSheet(dims), 32, "geometric")
    _assert_spectrum_matches_dense(emb, [weight] * dims)


def test_closed_form_spectrum_keeps_the_size_guard():
    emb = build_embedding(BrownianSheet(2), 1024, "geometric", 512.0)
    with pytest.raises(np.linalg.LinAlgError,
                       match="embedding dimension 1048576 too large"):
        kernel2_spectrum(emb, [(-0.9, 0.0)] * 2)


def _full_matrix_spectrum(emb, weights):
    """kernel2_spectrum with each per-axis Gram formed as one full matrix."""
    h = emb.model.hurst
    spectra = []
    with np.errstate(all="ignore"):
        for live, b, p, g in _tail_steps(emb, weights):
            t = emb.nodes[1:][live]
            a = t ** (h + 0.5 * p) * (b / t) ** (0.5 * p) * g
            spectra.append(np.linalg.eigvalsh(
                a[:, None] * _fbm_correlation(t[:, None], t, h) * a))
    return np.sort(reduce(np.multiply.outer, spectra), axis=None)


@pytest.mark.parametrize("model, cells, grid, octaves, weights", [
    # diagnose fbm-power at 1024 cells over 511 octaves, last beta point
    (FractionalBrownianMotion(0.75), 1024, "geometric", 511.0,
     [((10**-2.5 - 2.5) / 2.0, 0.0)]),
    # criterion 8's fbm-singular grid at eps = 1e-4 (14 live cells)
    (FractionalBrownianMotion(0.75), 512, "geometric", 511.0, [(-1.25, 1e-4)]),
    # sheet-power, two axes of 32 cells
    (BrownianSheet(2), 32, "geometric", None, [(-0.995, 0.0)] * 2),
    # a uniform grid whose cell count is not a whole number of row blocks
    (FractionalBrownianMotion(0.6), 1000, "uniform", None, [(-0.3, 0.0)]),
])
def test_blocked_gram_spectrum_is_bitwise_the_full_matrix(model, cells, grid,
                                                          octaves, weights):
    emb = build_embedding(model, cells, grid, octaves)
    if grid == "uniform":
        assert cells % _GRAM_ROWS
    np.testing.assert_array_equal(kernel2_spectrum(emb, weights).eigenvalues,
                                  _full_matrix_spectrum(emb, weights))


def test_gram_spectrum_memory_is_bounded():
    # one zeroed k x k buffer plus one row block of correlation work; the
    # full-matrix expression held about four k x k arrays (34 MB).  The
    # copy eigvalsh hands to LAPACK is allocated outside numpy's tracked
    # memory, so tracemalloc does not see it.
    k = 1024
    emb = build_embedding(FractionalBrownianMotion(0.75), k, "geometric", 511.0)
    tracemalloc.start()
    try:
        kernel2_spectrum(emb, [(-1.2, 0.0)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < k * k * 8 + 8 * _GRAM_ROWS * k * 8


@pytest.mark.parametrize("hurst, cells, grid, octaves",
                         [(0.3, 100, "uniform", None),
                          (0.75, 1024, "geometric", 511.0)])
def test_factor_is_the_full_matrix_cholesky_bit_for_bit(hurst, cells, grid,
                                                         octaves):
    # the factor reads the lower triangle, filled by row blocks, and is
    # scaled in place: the same bits as from the full correlation matrix
    emb = build_embedding(FractionalBrownianMotion(hurst), cells, grid,
                          octaves)
    t = emb.nodes[1:]
    L = np.linalg.cholesky(_fbm_correlation(t[:, None], t, hurst))
    np.testing.assert_array_equal(emb.factor, t[:, None] ** hurst * L)
    assert emb.jitter == 0.0


def test_factor_memory_is_bounded():
    # the correlation's lower triangle and the factor, 8.4 MB each at
    # k = 1024, plus row blocks of the residual check; the full-matrix
    # residual held four k x k arrays (33.6 MB).  cholesky's own copy is
    # allocated outside numpy's tracked memory, as eigvalsh's is
    k = 1024
    emb = build_embedding(FractionalBrownianMotion(0.75), k, "geometric", 511.0)
    tracemalloc.start()
    try:
        emb.factor
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


@pytest.mark.parametrize("model", [FractionalBrownianMotion(0.7),
                                   BrownianSheet(1)], ids=["fbm", "brownian"])
def test_factor_above_the_cap_is_refused_before_it_is_formed(model):
    # 8193 cells would make a 537 MB correlation and factor; the cap is on
    # one axis, since the factor is cells x cells at any ndim
    emb = build_embedding(model, 8193)
    tracemalloc.start()
    try:
        with pytest.raises(np.linalg.LinAlgError, match="^factor: "):
            emb.factor
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < _GRAM_ROWS * 8193 * 8 / 100  # far below one row block


def test_numerical_errors_name_their_stage():
    # every embedding stage fails as a plain LinAlgError, named by its stage
    from chaoskit.embeddings import _cholesky_with_jitter

    big = build_embedding(BrownianSheet(2), 1024, "geometric", 512.0)
    # steps of order 2^157 on a 63-octave grid: ||M||_F^4 overflows
    deep = build_embedding(FractionalBrownianMotion(0.75), 64, "geometric")
    failures = [
        ("spectrum: embedding", lambda: kernel2_spectrum(big, [(-0.9, 0.0)] * 2)),
        ("kernel: embedding", lambda: embed_kernel2(big, [(-0.9, 0.0)] * 2)),
        ("factor: embedding",
         lambda: build_embedding(FractionalBrownianMotion(0.7), 8193).factor),
        ("spectrum: kernel is outside",
         lambda: kernel2_spectrum(deep, [(-5.0, 0.0)])),
        ("kernel: kernel is outside", lambda: embed_kernel2(deep, [(-5.0, 0.0)])),
        # Gram entries past double range: eigvalsh fails inside the spectrum
        ("spectrum: ", lambda: kernel2_spectrum(deep, [(-50.0, 0.0)])),
        ("factor: node correlation matrix is not positive definite",
         lambda: _cholesky_with_jitter(np.array([[1.0, 2.0], [2.0, 1.0]]))),
    ]
    for prefix, fail in failures:
        with pytest.raises(np.linalg.LinAlgError, match=f"^{prefix}") as exc:
            fail()
        assert type(exc.value) is np.linalg.LinAlgError


def test_sample_path_fbm_marginal_variances():
    hurst = 0.75
    emb = build_embedding(FractionalBrownianMotion(hurst), 64)
    xi = stream(3, "emb:fbmpath").standard_normal((20000, 64))
    ps = sample_path(emb, xi)
    assert ps.shape == (20000, 65)
    assert np.all(ps[:, 0] == 0.0)
    for node in (32, 64):
        t = emb.nodes[node]
        v = ps[:, node] ** 2
        se = v.std(ddof=1) / math.sqrt(v.size)
        assert abs(v.mean() - t ** (2 * hurst)) <= 4.0 * se


def test_sample_path_sheet_marginal_variances():
    emb = build_embedding(BrownianSheet(2), 16)
    xi = stream(3, "emb:sheetpath").standard_normal((20000, 256))
    ps = sample_path(emb, xi)
    assert ps.shape == (20000, 17, 17)
    assert np.all(ps[:, 0, :] == 0.0)
    assert np.all(ps[:, :, 0] == 0.0)
    for idx, want in (((16, 16), 1.0), ((8, 16), 0.5), ((8, 8), 0.25)):
        v = ps[:, idx[0], idx[1]] ** 2
        se = v.std(ddof=1) / math.sqrt(v.size)
        assert abs(v.mean() - want) <= 4.0 * se


@pytest.mark.parametrize("grid, octaves", [("uniform", None),
                                           ("geometric", 40.0)])
def test_brownian_motion_is_one_sheet_axis(grid, octaves):
    # fBm at H = 1/2 and a one-axis sheet share the exact Brownian factor,
    # so their paths and spectra are the same bits
    bm = build_embedding(FractionalBrownianMotion(0.5), 64, grid, octaves)
    sheet = build_embedding(BrownianSheet(1), 64, grid, octaves)
    np.testing.assert_array_equal(bm.factor, sheet.factor)
    assert bm.jitter == sheet.jitter == 0.0
    xi = stream(5, "emb:onepath").standard_normal((50, 64))
    np.testing.assert_array_equal(sample_path(bm, xi), sample_path(sheet, xi))
    for weights in ([(0.25, 0.0)], [(-1.0, 1e-3)]):
        np.testing.assert_array_equal(kernel2_spectrum(bm, weights).eigenvalues,
                                      kernel2_spectrum(sheet, weights).eigenvalues)


def test_spectrum_of_a_sheet_past_64_axes_is_the_axis_product():
    weights = [(0.25, 0.0)]
    (one,) = kernel2_spectrum(build_embedding(BrownianSheet(1), 1),
                              weights).eigenvalues
    for ndim in (64, 65, 200):
        lam = kernel2_spectrum(build_embedding(BrownianSheet(ndim), 1),
                               weights * ndim).eigenvalues
        assert lam.shape == (1,)
        assert lam[0] == pytest.approx(one**ndim, rel=1e-12)


def test_sample_path_single_draw_shape():
    emb = build_embedding(FractionalBrownianMotion(0.5), 8)
    ps = sample_path(emb, stream(3, "emb:single").standard_normal(8))
    assert ps.shape == (9,)
    assert ps[0] == 0.0


def test_sample_path_covariance_between_nodes():
    # E[X_s X_t] = R(s,t) for the fbm embedding, checked off-diagonal
    hurst = 0.6
    emb = build_embedding(FractionalBrownianMotion(hurst), 32)
    xi = stream(9, "emb:cov").standard_normal((40000, 32))
    ps = sample_path(emb, xi)
    s_idx, t_idx = 8, 24
    prod = ps[:, s_idx] * ps[:, t_idx]
    want = emb.model.covariance(emb.nodes[s_idx], emb.nodes[t_idx])
    se = prod.std(ddof=1) / math.sqrt(prod.size)
    assert abs(prod.mean() - want) <= 4.0 * se


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: BrownianSheet(2).covariance(np.zeros(3), np.zeros(2)),
                 ValueError, r"points must have shape \(\.\.\., ndim\)",
                 id="sheet-covariance-width"),
    pytest.param(lambda: build_embedding(object(), 4), TypeError,
                 "unsupported model object", id="unknown-model"),
    pytest.param(lambda: sample_path(build_embedding(FractionalBrownianMotion(0.7), 4),
                                     np.zeros((2, 5))),
                 ValueError, r"xi must have shape \(N, 4\)", id="sample-path-xi"),
])
def test_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()
