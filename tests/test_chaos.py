import math
import tracemalloc

import numpy as np
import pytest

from chaoskit import chaos, reference
from chaoskit.chaos import (
    ChaosElement,
    HSOperator,
    contraction_profile,
    cumulant,
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
from chaoskit.diagnostics import ks_against_std_normal
from chaoskit.rng import stream
from chaoskit.tensors import (
    SymTensor,
    basis_tensor,
    contract,
    contraction_norm_sq,
    norm_sq,
    sym,
    symmetrize,
    tensor,
)


def test_eval_integral_order1():
    f = sym(np.array([2.0, -1.0]))
    xi = np.array([[1.0, 3.0]])
    assert eval_integral(f, xi)[0] == pytest.approx(-1.0)


def test_eval_integral_order2_is_quadratic_form_minus_trace():
    rng = stream(5, "chaos:order2")
    a = rng.standard_normal((3, 3))
    f = sym(a)
    xi = rng.standard_normal((50, 3))
    got = eval_integral(f, xi)
    want = np.einsum("ni,ij,nj->n", xi, f.coeffs, xi) - np.trace(f.coeffs)
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_eval_integral_diagonal_gives_squared_hermite():
    # I_2(e1x e1) = He_2(xi_1) = xi_1^2 - 1
    f = sym(basis_tensor(3, 0, 0).coeffs)
    xi = stream(5, "chaos:diag").standard_normal((20, 3))
    np.testing.assert_allclose(eval_integral(f, xi), xi[:, 0] ** 2 - 1.0)


def test_eval_integral_cross_gives_product():
    # I_2(symmetrize(e1 x e2)) = xi_1 xi_2
    f = symmetrize(basis_tensor(2, 0, 1))
    xi = stream(5, "chaos:cross").standard_normal((20, 2))
    np.testing.assert_allclose(eval_integral(f, xi), xi[:, 0] * xi[:, 1],
                               rtol=1e-12)


def test_eval_integral_order3_mixed():
    # I_3 on symmetrize(e1 x e1 x e2) evaluates to He_2(x1) He_1(x2)
    f = symmetrize(basis_tensor(2, 0, 0, 1))
    xi = stream(5, "chaos:order3").standard_normal((20, 2))
    want = (xi[:, 0] ** 2 - 1.0) * xi[:, 1]
    np.testing.assert_allclose(eval_integral(f, xi), want, rtol=1e-12)


def test_eval_integral_accepts_single_point():
    f = symmetrize(basis_tensor(2, 0, 1))
    assert eval_integral(f, np.array([1.0, 2.0])) == pytest.approx(2.0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_eval_integral_symmetrizes_higher_order_input(n):
    rng = stream(5, "chaos:implicit")
    raw = tensor(rng.standard_normal((2,) * n))
    xi = rng.standard_normal((10, 2))
    got = eval_integral(raw, xi)
    np.testing.assert_allclose(got, eval_integral(symmetrize(raw), xi),
                               rtol=1e-12)
    want = [reference.eval_polynomial(reference.integral_polynomial(raw), x)
            for x in xi]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


def test_eval_integral_row_blocks_join_seamlessly():
    # order 4 takes two slots in its first step, so at d = 6 it goes
    # through in blocks of _ROW_BLOCK // 6^2 rows
    n, d = 4, 6
    block = chaos._ROW_BLOCK // d ** (n - 2)
    rng = stream(17, "chaos:blocks")
    f = sym(rng.standard_normal((d,) * n))
    xi = rng.standard_normal((2 * block + 3, d))
    got = eval_integral(f, xi)
    poly = reference.integral_polynomial(f)
    for edge in (block, 2 * block):
        rows = range(edge - 2, edge + 2)
        want = [reference.eval_polynomial(poly, xi[i]) for i in rows]
        np.testing.assert_allclose(got[edge - 2:edge + 2], want,
                                   rtol=0, atol=1e-10)


@pytest.mark.parametrize("n,d", [(1, 2), (2, 2), (2, 4), (3, 2), (3, 4),
                                 (4, 3), (5, 2), (4, 4), (5, 3), (6, 2),
                                 (6, 3)])
def test_eval_integral_matches_polynomial_oracle(n, d, monkeypatch):
    rng = stream(17, f"chaos:polyref:{n}:{d}")
    f = sym(rng.standard_normal((d,) * n))
    xi = rng.standard_normal((25, d))
    want = [reference.eval_polynomial(reference.integral_polynomial(f), x)
            for x in xi]
    np.testing.assert_allclose(eval_integral(f, xi), want,
                               rtol=0, atol=1e-10)
    # blocks of 4 rows: 25 rows end in a partial block
    monkeypatch.setattr(chaos, "_ROW_BLOCK", 4 * d ** max(n - 1 - (n >= 4), 1))
    np.testing.assert_allclose(eval_integral(f, xi), want,
                               rtol=0, atol=1e-10)


def test_eval_integral_order6_memory_is_bounded():
    # at order 6, d = 8 the working array after the first (two-slot) step is
    # (8^4, rows) with rows * 8^4 <= _ROW_BLOCK, 8.4 MB; a Horner loop of
    # one slot per step peaks at 11.6 MB on these 2000 rows
    rng = stream(19, "chaos:order6")
    f = sym(rng.standard_normal((8,) * 6))
    xi = rng.standard_normal((2000, 8))
    tracemalloc.start()
    try:
        eval_integral(f, xi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * chaos._ROW_BLOCK + 1_000_000


def test_chaos_element_mean_and_call():
    const = tensor(np.array(2.5))
    f = sym(np.array([1.0, 0.0]))
    c = ChaosElement({0: const, 1: f})
    assert c.mean == 2.5
    xi = np.array([[1.0, 7.0], [0.0, 0.0]])
    np.testing.assert_allclose(c(xi), [3.5, 2.5])
    # a point gives a float and rows an array, with or without terms
    assert type(c(xi[0])) is float and c(xi[0]) == 3.5
    empty = ChaosElement({})
    assert type(empty(xi[0])) is float and empty(xi[0]) == 0.0
    assert isinstance(empty(xi), np.ndarray) and empty(xi).tolist() == [0.0, 0.0]


def test_chaos_element_order_mismatch():
    with pytest.raises(ValueError):
        ChaosElement({2: sym(np.array([1.0, 0.0]))})


def test_product_formula_squared_gaussian():
    # I_1(e1)^2 = He_2(xi) + 1: constant 1 plus the diagonal order-2 kernel
    f = sym(basis_tensor(2, 0).coeffs)
    c = product_formula(f, f)
    assert c.orders() == [0, 2]
    assert c.mean == pytest.approx(1.0)
    np.testing.assert_allclose(c.terms[2].coeffs, basis_tensor(2, 0, 0).coeffs)


def test_product_formula_disjoint_supports_have_no_constant():
    f = sym(basis_tensor(2, 0).coeffs)
    g = sym(basis_tensor(2, 1).coeffs)
    c = product_formula(f, g)
    assert c.orders() == [2]
    assert c.mean == 0.0


def test_product_formula_requires_symmetric():
    with pytest.raises(TypeError):
        product_formula(tensor(np.ones(2)), sym(np.ones(2)))


def test_product_formula_dim_mismatch():
    with pytest.raises(ValueError):
        product_formula(sym(np.ones(2)), sym(np.ones(3)))


@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)])
def test_product_formula_pointwise(n, m):
    rng = stream(23, f"chaos:product:{n}:{m}")
    d = 3
    f = sym(rng.standard_normal((d,) * n))
    g = sym(rng.standard_normal((d,) * m))
    xi = rng.standard_normal((200, d))
    lhs = eval_integral(f, xi) * eval_integral(g, xi)
    rhs = eval_chaos_element(product_formula(f, g), xi)
    np.testing.assert_allclose(rhs, lhs, rtol=0,
                               atol=1e-9 * (1.0 + np.abs(lhs).max()))


def test_second_moment_frozen_values():
    assert second_moment_exact(sym(basis_tensor(2, 0).coeffs)) == pytest.approx(1.0)
    assert second_moment_exact(sym(basis_tensor(2, 0, 0).coeffs)) == pytest.approx(2.0)
    cross = symmetrize(basis_tensor(2, 0, 1))
    assert second_moment_exact(cross) == pytest.approx(1.0)


def test_fourth_moment_frozen_values():
    # E[xi^4] = 3; E[He_2(xi)^4] = 60; E[(xi1 xi2)^4] = 9
    assert fourth_moment_exact(sym(basis_tensor(2, 0).coeffs)) == pytest.approx(3.0)
    assert fourth_moment_exact(sym(basis_tensor(2, 0, 0).coeffs)) == pytest.approx(60.0)
    cross = symmetrize(basis_tensor(2, 0, 1))
    assert fourth_moment_exact(cross) == pytest.approx(9.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_moments_match_bruteforce_oracle(n):
    rng = stream(29, f"chaos:moments:{n}")
    for d in (1, 2, 3):
        f = sym(rng.standard_normal((d,) * n))
        assert second_moment_exact(f) == pytest.approx(
            reference.moment_bruteforce(f, 2), rel=1e-10)
        assert fourth_moment_exact(f) == pytest.approx(
            reference.moment_bruteforce(f, 4), rel=1e-10)


def _fourth_moment_by_symmetrizing_every_term(f):
    # the product-formula expansion with every term symmetrized, p = 0
    # included: the order-2n route the contraction-norm sum replaces
    n = f.order
    total = 0.0
    for p in range(n + 1):
        c = math.factorial(p) * math.comb(n, p) ** 2
        h = symmetrize(contract(f, f, p))
        total += c * c * math.factorial(2 * n - 2 * p) * norm_sq(h)
    return total


@pytest.mark.parametrize("n, d", [(3, 4), (3, 8), (3, 12),
                                  (4, 2), (4, 4), (4, 6)])
def test_fourth_moment_matches_the_symmetrized_expansion(n, d):
    f = sym(stream(31, f"chaos:fourth:{n}:{d}").standard_normal((d,) * n))
    assert fourth_moment_exact(f) == pytest.approx(
        _fourth_moment_by_symmetrizing_every_term(f), rel=1e-12)


def test_fourth_moment_forms_no_order_2n_tensor():
    # one order-6 array at d = 12 is 12**6 * 8 bytes = 23.9 MB; the
    # largest term left is an order-4 symmetrize
    f = sym(stream(31, "chaos:fourth:memory").standard_normal((12,) * 3))
    tracemalloc.start()
    try:
        fourth_moment_exact(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12**6 * 8 / 10


def test_excess_kurtosis_nonnegative():
    rng = stream(29, "chaos:excess")
    for n in (1, 2, 3):
        for _ in range(10):
            f = sym(rng.standard_normal((3,) * n))
            assert excess_kurtosis_exact(f) >= -1e-9


@pytest.mark.parametrize("s", [1e-170, 1e-160, 1e160, 1e200])
def test_excess_kurtosis_exact_is_scale_free(s):
    # the raw moments of a * s leave double range (v * v underflows to 0
    # at 1e-160, a contraction overflows at 1e160); the ratio of
    # a * s 2^-k does not, and at a power-of-two scale it keeps every bit
    a = stream(31, "chaos:excess-scale").uniform(-1.0, 1.0, (4, 4, 4))
    want = excess_kurtosis_exact(sym(a))
    assert excess_kurtosis_exact(sym(a * s)) == pytest.approx(want, rel=1e-14)
    assert excess_kurtosis_exact(sym(np.ldexp(a, math.frexp(s)[1]))) == want


def test_contraction_profile_cross_kernel():
    # ||f (x)_1 f||^2 = 1/8 for the normalized cross kernel
    cross = symmetrize(basis_tensor(2, 0, 1))
    prof = contraction_profile(cross)
    assert len(prof) == 1
    assert prof[0] == pytest.approx(math.sqrt(0.125))


def test_orthogonality_across_orders():
    rng = stream(31, "chaos:ortho")
    d = 3
    f1 = sym(rng.standard_normal(d))
    f2 = sym(rng.standard_normal((d, d)))
    f3 = sym(rng.standard_normal((d, d, d)))
    xi = rng.standard_normal((200000, d))
    v1, v2, v3 = (np.asarray(eval_integral(f, xi)) for f in (f1, f2, f3))
    for a, b in ((v1, v2), (v1, v3), (v2, v3)):
        prod = a * b
        se = prod.std(ddof=1) / math.sqrt(prod.size)
        assert abs(prod.mean()) <= 4.0 * se


def test_sample_integral_isometry():
    rng = stream(31, "chaos:iso")
    for n in (1, 2, 3):
        f = sym(rng.standard_normal((3,) * n))
        draws = sample_integral(f, 200000, stream(31, f"chaos:iso:{n}"))
        sq = draws * draws
        se = sq.std(ddof=1) / math.sqrt(sq.size)
        assert abs(sq.mean() - second_moment_exact(f)) <= 4.0 * se


def test_spectral_sampler_agrees_in_distribution():
    f = sym(stream(37, "chaos:spec").standard_normal((4, 4)))
    a = sample_integral2_spectral(hs_operator(f), 100000,
                                  stream(37, "chaos:spec:a"))
    b = sample_integral(f, 100000, stream(37, "chaos:spec:b"))
    for power in (2, 3):
        ma, mb = (a**power).mean(), (b**power).mean()
        se = math.hypot((a**power).std(ddof=1), (b**power).std(ddof=1))
        se /= math.sqrt(a.size)
        assert abs(ma - mb) <= 4.0 * se


@pytest.mark.parametrize("rank", [1, 7, 100, 512])
def test_spectral_draws_do_not_depend_on_blocking(rank):
    # blocks hold at most chaos._DRAW_BLOCK entries, so n and n = 100000
    # cut the stream differently; whole blocks of a power of two of draws,
    # one column per draw, make every draw read, and reduce, the same
    # uniforms (n = 999 and 1001 end inside a block at every rank here)
    lam = stream(43, f"chaos:blocks:{rank}").standard_normal(rank)
    op = HSOperator(lam)
    long = sample_integral2_spectral(op, 100000, stream(43, "chaos:draws"))
    for n in (999, 1000, 1001):
        short = sample_integral2_spectral(op, n, stream(43, "chaos:draws"))
        np.testing.assert_array_equal(short, long[:n])
    # the pair formula: (lam_2j, lam_2j+1), a 0 appended at odd rank, from
    # one column of 2m uniforms in whole (2m, block) fills; L = log(1 - U),
    # T = tan(pi U / 2), q = L/(1 + T^2), and each draw reduced over its
    # column as (-2 lam_a) L + 2 (lam_a - lam_b) q - sum lam
    m = (rank + 1) // 2
    block = 1 << max((chaos._DRAW_BLOCK // (2 * m)).bit_length() - 1, 0)
    pairs = np.append(lam, np.zeros(rank % 2)).reshape(m, 2)
    a, d2 = -2.0 * pairs[:, 0], 2.0 * (pairs[:, 0] - pairs[:, 1])
    rng = stream(43, "chaos:draws")
    ref = []
    while sum(map(len, ref)) < 1000:
        u = rng.random((2 * m, block))
        el = np.log(1.0 - u[:m])
        q = el / (np.tan(0.5 * np.pi * u[m:]) ** 2 + 1.0)
        ref.append(a @ el + d2 @ q - np.sum(lam))
    np.testing.assert_array_equal(long[:1000], np.concatenate(ref)[:1000])


@pytest.mark.parametrize("rank", [1, 2, 7, 512])
def test_spectral_draws_of_equal_eigenvalues_are_chi_squared(rank):
    # r eigenvalues 1/sqrt(2r): sqrt(2r) I_2 + r is chi-squared with r
    # degrees of freedom (rank 1 pads one 0, rank 2 is one full pair)
    from scipy import stats

    op = HSOperator(np.full(rank, 1.0 / math.sqrt(2.0 * rank)))
    draws = sample_integral2_spectral(op, 100000,
                                      stream(59, f"chaos:chi2:{rank}"))
    res = stats.kstest(math.sqrt(2.0 * rank) * draws + rank,
                       stats.chi2(rank).cdf)
    assert res.pvalue > 1e-3


def test_spectral_draws_of_the_paired_product_match_coordinate_draws():
    # eigenvalues -1/2 and 1/2 form one pair with s = 0: the draw is the
    # angle term alone, against xi_0 xi_1 on normals of another stream
    from scipy import stats

    from chaoskit.diagnostics import paired_product_kernel

    op = hs_operator(paired_product_kernel())
    spectral = sample_integral2_spectral(op, 100000,
                                         stream(61, "chaos:pp:spectral"))
    xi = stream(61, "chaos:pp:normals").standard_normal((100000, 2))
    assert stats.ks_2samp(spectral, xi[:, 0] * xi[:, 1]).pvalue > 1e-3


def test_spectral_draws_match_cumulants_of_an_odd_unequal_spectrum():
    # unbiased k-statistics of 100 batches of 10^4 draws: each batch mean
    # within 4 standard errors of the exact cumulant 2^(j-1) (j-1)! sum lam^j
    from scipy import stats

    lam = np.sort(stream(67, "chaos:kappa:lam").standard_normal(7))
    op = HSOperator(lam)
    draws = sample_integral2_spectral(op, 1000000,
                                      stream(67, "chaos:kappa:draws"))
    for j in (2, 3, 4):
        k = np.array([stats.kstat(b, j) for b in draws.reshape(100, -1)])
        z = (k.mean() - cumulant(op, j)) / (k.std(ddof=1) / 10.0)
        assert abs(z) <= 4.0, (j, z)


def test_spectral_draws_of_rank_zero_operator_are_zero():
    draws = sample_integral2_spectral(HSOperator(np.empty(0)), 1000,
                                      stream(43, "chaos:rank0"))
    np.testing.assert_array_equal(draws, np.zeros(1000))


def test_spectral_sampler_memory_is_bounded():
    # 1e5 draws at rank 512 read 51.2e6 uniforms (410 MB at once); beyond
    # the 0.8 MB output only one 256 KB block is live, refilled and
    # transformed in place: no transposed copy and no temporary (the
    # stream is made untraced: a first one imports numpy.random's modules)
    op = HSOperator(np.full(512, 1.0 / math.sqrt(1024.0)))
    rng = stream(47, "chaos:memory")
    tracemalloc.start()
    try:
        sample_integral2_spectral(op, 100000, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100000 * 8 + 2 * chaos._DRAW_BLOCK * 8


def test_spectral_sampler_memory_is_bounded_above_width_512():
    # a block of 64 draws would hold 64 * 4096 uniforms (2.1 MB) at rank
    # 4096; a block of 8 draws keeps the buffer at _DRAW_BLOCK
    op = HSOperator(np.full(4096, 1.0 / math.sqrt(8192.0)))
    rng = stream(47, "chaos:memory-wide")
    tracemalloc.start()
    try:
        sample_integral2_spectral(op, 100, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * chaos._DRAW_BLOCK * 8


def test_spectral_sampler_requires_order2():
    # a kernel enters through hs_operator, which takes order 2 only
    with pytest.raises(TypeError, match="hs_operator"):
        sample_integral2_spectral(sym(np.eye(2)), 100, stream(0, "x"))
    with pytest.raises(TypeError, match="order-2 SymTensor"):
        hs_operator(sym(np.ones(2)))


@pytest.mark.parametrize("order", [1, 2, 3])
def test_sample_integral_draws_do_not_depend_on_n_samples(order):
    # a block is the largest power of two of rows within chaos._DRAW_BLOCK
    # normals, 4096 rows at d = 5: n = 4095 and 4097 end on either side of
    # the first block boundary, and every run's draws are a prefix of the
    # longest one's
    f = sym(stream(53, f"chaos:rows:{order}").standard_normal((5,) * order))
    longest = sample_integral(f, 20000, stream(53, "chaos:rows:draws"))
    for n in (1000, 4095, 4097):
        draws = sample_integral(f, n, stream(53, "chaos:rows:draws"))
        np.testing.assert_array_equal(draws, longest[:n])


def _paired_normals(u):
    # the documented pairing, out of place: radii from the first half of
    # the flat uniforms, half-angle tangents from the second, s = R/(1 + T^2)
    h = u.size // 2
    r = np.sqrt(-2.0 * np.log(1.0 - u[:h]))
    t = np.tan((u[h:] - 0.5) * np.pi)
    w = t * t + 1.0
    s = r / w
    return np.concatenate([s * (2.0 - w), 2.0 * (t * s)])


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_sample_integral_evaluates_one_column_per_draw(order):
    # draw i is eval_integral on column i % block of the whole (d, block)
    # uniform fill i // block put through the pairing, 4096 columns at
    # d = 5; 7000 draws end inside the second block, whose extra columns
    # are dropped
    f = sym(stream(71, f"chaos:cols:{order}").standard_normal((5,) * order))
    block = 1 << max((chaos._DRAW_BLOCK // 5).bit_length() - 1, 0)
    draws = sample_integral(f, 7000, stream(71, "chaos:cols:draws"))
    rng = stream(71, "chaos:cols:draws")
    ref = [eval_integral(f, _paired_normals(rng.random(5 * block)).reshape(5, block).T)
           for _ in range(2)]
    np.testing.assert_array_equal(draws, np.concatenate(ref)[:7000])


class _RecordingFills:
    """A generator that records the shape of every uniform fill, and of
    every draw made outside the buffer; it has no normal fill."""

    def __init__(self, gen):
        self.gen, self.sizes, self.extra = gen, [], []

    def random(self, size, out=None):
        (self.sizes if out is not None else self.extra).append(size)
        return self.gen.random(size, out=out)


@pytest.mark.parametrize("widths", [range(1, 1025),
                                    [8191, 8193, 10000, 16384, 16385,
                                     32768, 32769, 40000]],
                         ids=["1-1024", "above-8190"])
def test_every_width_fills_blocks_of_the_largest_power_of_two(widths):
    # one rule at every width: a block is the largest power of two of draws
    # within chaos._DRAW_BLOCK variates, at least 2, for the uniforms of
    # sample_integral and of the spectral sampler alike; every buffer is
    # even, so no uniform is drawn outside it
    for width in widths:
        block = 2
        while 2 * block * width <= chaos._DRAW_BLOCK:
            block *= 2
        f = sym(np.full(width, 1.0 / math.sqrt(width)))
        rng = _RecordingFills(stream(73, f"chaos:widths:{width}"))
        sample_integral(f, 2, rng)
        assert rng.extra == []
        if width % 2 == 0:
            op = HSOperator(np.full(width, 1.0 / math.sqrt(2.0 * width)))
            sample_integral2_spectral(op, 2, rng)
        assert rng.sizes and all(size == (width, block) for size in rng.sizes)


def test_sample_integral_normals_are_standard_and_paired_independently():
    # I_1 of the unit kernel at d = 1 reads the normals themselves: a block
    # is 2^15 of them, entry k paired with entry k + 2^14
    n = 10**6
    z = sample_integral(sym(np.ones(1)), n, stream(83, "chaos:normals"))
    for power, want in ((1, 0.0), (2, 1.0), (4, 3.0)):
        zp = z**power
        assert abs(zp.mean() - want) <= 4.0 * zp.std(ddof=1) / math.sqrt(n)
    assert ks_against_std_normal(z).passed
    whole = n - n % chaos._DRAW_BLOCK
    pairs = z[:whole].reshape(-1, 2, chaos._DRAW_BLOCK // 2)
    prod = (pairs[:, 0] * pairs[:, 1]).ravel()
    assert abs(prod.mean()) <= 4.0 * prod.std(ddof=1) / math.sqrt(prod.size)


@pytest.mark.parametrize("kernel", ["sum", "last"])
def test_sample_integral_odd_buffer_draws_do_not_depend_on_n_samples(kernel):
    # at d = 16385 a block is two draws, 32770 normals paired across the
    # halves of the buffer ("last" reads the last coordinate alone)
    d = 16385
    f = (np.full(d, 1.0 / math.sqrt(d)) if kernel == "sum"
         else np.eye(1, d, d - 1)[0])
    longest = sample_integral(sym(f), 8, stream(89, "chaos:odd:draws"))
    assert np.all(np.isfinite(longest))
    for n in (1, 3, 5):
        draws = sample_integral(sym(f), n, stream(89, "chaos:odd:draws"))
        np.testing.assert_array_equal(draws, longest[:n])


def test_sample_integral_symmetrizes_a_plain_tensor_once(monkeypatch):
    # 10^5 draws at d = 12 take many blocks; a plain kernel is symmetrized
    # once before them, and its draws are those of its symmetric part
    f = tensor(stream(79, "chaos:plain").standard_normal((12,) * 3))
    want = sample_integral(symmetrize(f), 100000, stream(79, "chaos:plain:draws"))
    calls = []

    def counting(t):
        calls.append(t.order)
        return symmetrize(t)

    monkeypatch.setattr(chaos, "symmetrize", counting)
    draws = sample_integral(f, 100000, stream(79, "chaos:plain:draws"))
    assert calls == [3]
    np.testing.assert_array_equal(draws, want)


def test_sample_integral_deterministic_given_stream():
    f = sym(stream(41, "chaos:det").standard_normal((3, 3)))
    a = sample_integral(f, 5000, stream(41, "chaos:det:draws"))
    b = sample_integral(f, 5000, stream(41, "chaos:det:draws"))
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("exact", [
    second_moment_exact, fourth_moment_exact, excess_kurtosis_exact,
    contraction_profile, lambda f: contraction_norm_sq(f, 1),
], ids=["second", "fourth", "excess", "profile", "contraction_norm_sq"])
@pytest.mark.parametrize("order", [2, 3])
def test_exact_formulas_refuse_a_plain_tensor(exact, order):
    # read as symmetric, [[0, 1], [2, 3]] gave E[I_2^2] = 28, where the
    # symmetric part that I_2 sees has 27
    f = tensor(np.arange(2.0**order).reshape((2,) * order))
    with pytest.raises(TypeError, match=r"apply symmetrize\(\) first"):
        exact(f)


_SCALAR, _EYE2 = sym(np.array(1.0)), sym(np.eye(2))


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: eval_integral(_EYE2, np.zeros((1, 2, 2))), ValueError,
                 r"xi must have shape \(d,\) or \(N, d\)", id="eval-3d-xi"),
    pytest.param(lambda: eval_integral(_EYE2, np.zeros(3)), ValueError,
                 "kernel dimension 2 vs coordinate dimension 3", id="eval-dim"),
    pytest.param(lambda: product_formula(_SCALAR, sym(np.ones(2))), ValueError,
                 "orders must be >= 1", id="product-order0"),
    pytest.param(lambda: second_moment_exact(_SCALAR), ValueError,
                 "order must be >= 1", id="second-order0"),
    pytest.param(lambda: fourth_moment_exact(_SCALAR), ValueError,
                 "order must be >= 1", id="fourth-order0"),
    pytest.param(lambda: contraction_profile(_SCALAR), ValueError,
                 "order must be >= 1", id="profile-order0"),
    pytest.param(lambda: excess_kurtosis_exact(sym(np.zeros((2, 2)))),
                 ValueError, "kernel has zero variance", id="excess-zero"),
    pytest.param(lambda: cumulant(HSOperator(np.ones(2)), 1.5), ValueError,
                 "cumulant order must be a positive integer, got 1.5",
                 id="cumulant-fractional"),
])
def test_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()
