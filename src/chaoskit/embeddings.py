"""Grid embeddings of fractional Brownian motion and the Brownian sheet.

An embedding turns a covariance model restricted to a partition of
[0, 1] (or [0, 1]^n) into a finite orthonormal system: per axis, the
covariance of the path at the cells' right nodes t is factored as F F'
with F lower triangular, so node values are F @ xi for i.i.d. standard
normals xi.  Each axis has a Hurst index H (1/2 on a sheet axis), and
its covariance is diag(t^H) P diag(t^H), with P the closed-form
correlation of _fbm_correlation, and F = t^H L with L L' = P; an axis
with H = 1/2 has the exact Brownian factor sqrt(w_j), j <= i.
The factor is built only when coordinates are asked for (paths, the
Gram matrix, embedded coordinates).  The tail-mass kernel of a weighted
quadratic functional is held in the same coordinates by its per-axis
factors, M = kron_a B_a'B_a, so paths and chaos elements can be
evaluated on shared draws.

The exact spectrum of such a kernel needs no coordinates at all: the
small per-axis Gram B B' is the same node covariance restricted to the
live cells, weighted by the tail steps, and kernel2_spectrum takes it
from P directly, with no Cholesky factor or jitter.

Uniform grids are the default; geometric grids (cell widths shrinking
by a constant factor toward the origin, factor 2 at the default depth)
resolve functionals whose weight concentrates at 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .chaos import HSOperator

__all__ = [
    "FractionalBrownianMotion",
    "BrownianSheet",
    "uniform_nodes",
    "geometric_nodes",
    "GridEmbedding",
    "build_embedding",
    "kernel2_spectrum",
    "sample_path",
]

# the dense cap on cells^ndim (a k x k node factor, Gram and eigvalsh per
# axis, a cells^ndim product spectrum) and on clt-pairs' 2k eigenvalues
_MAX_EMBED_DIM = 8192
# rows of one block of a per-axis Gram (_lower_correlation) and of the
# factor's residual check; a block is _GRAM_ROWS x k doubles, 512 KB at
# k = 1024
_GRAM_ROWS = 64


@dataclass(frozen=True)
class FractionalBrownianMotion:
    """Centered Gaussian path model on [0, 1] with stationary increments.

    covariance(s, t) = (s^{2H} + t^{2H} - |t-s|^{2H}) / 2, evaluated
    without cancellation as s^H t^H times _fbm_correlation.  hurst = 1/2
    recovers standard Brownian motion (independent increments).
    """

    hurst: float

    def __post_init__(self):
        if not (0.0 < self.hurst < 1.0):
            raise ValueError(f"hurst index must lie in (0, 1), got {self.hurst}")

    @property
    def ndim(self) -> int:
        return 1

    def covariance(self, s, t):
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        h = self.hurst
        cov = s**h * t**h * _fbm_correlation(s, t, h)  # nan where s or t is 0
        return np.where((s == 0.0) | (t == 0.0), 0.0, cov)[()]


@dataclass(frozen=True)
class BrownianSheet:
    """Centered Gaussian field on [0, 1]^ndim, covariance prod_a min(x_a, y_a).

    Increments over disjoint cells are independent with variance equal to
    the cell volume, so the grid Gram matrix is diagonal.
    """

    ndim: int = 2
    hurst = 0.5  # of every axis: a class constant, not a field

    def __post_init__(self):
        if self.ndim < 1 or self.ndim != int(self.ndim):
            raise ValueError(f"ndim must be a positive integer, got {self.ndim}")

    def covariance(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape[-1] != self.ndim or y.shape[-1] != self.ndim:
            raise ValueError("points must have shape (..., ndim)")
        return np.prod(np.minimum(x, y), axis=-1)


def uniform_nodes(cells: int) -> np.ndarray:
    if cells < 1:
        raise ValueError("need at least one cell")
    return np.linspace(0.0, 1.0, cells + 1)


def geometric_nodes(cells: int, octaves: float | None = None) -> np.ndarray:
    """Graded partition nodes 0 = t_0 < t_1 < ... < t_cells = 1.

    Interior nodes are log-uniform between 2^-octaves and 1, so
    consecutive cell widths shrink by the constant factor
    2^(octaves/(cells-1)) toward the origin; the default
    octaves = cells - 1 makes that factor exactly 2.  Raises ValueError
    when the nodes, as doubles, are not strictly increasing: below
    2^-1074 they round to 0, and subnormal rounding can merge neighbors
    (the default octaves reach that limit past 1075 cells).
    """
    if cells < 2:
        raise ValueError("a geometric grid needs at least two cells")
    if octaves is None:
        octaves = float(cells - 1)
    if not 0.0 < octaves < math.inf:
        raise ValueError(f"octaves must be positive and finite, got {octaves}")
    i = np.arange(1, cells + 1, dtype=float)
    expo = -octaves * (1.0 - (i - 1.0) / (cells - 1.0))
    nodes = np.concatenate(([0.0], np.exp2(expo)))
    if not np.all(np.diff(nodes) > 0.0):
        raise ValueError(f"{cells} cells over {octaves:g} octaves leave "
                         f"double range: the nodes are not strictly increasing")
    return nodes


def _fbm_correlation(s, t, h: float) -> np.ndarray:
    """Correlation P of fBm between times s, t > 0 (broadcast), Hurst index h.

    P depends only on r = min(s, t) / max(s, t):

        P = (r^H + r^(1-H) * (1 - (1 - r)^(2H)) / r) / 2,

    in [0, 1] and 1 at s = t, the last factor taken as
    -expm1(2H log1p(-r)) / r so no entry cancels or overflows; the
    covariance is s^H t^H P.  H = 1/2 gives sqrt(r), the Brownian
    correlation of a sheet axis.
    """
    with np.errstate(all="ignore"):
        r = np.minimum(s, t) / np.maximum(s, t)
        q = -np.expm1(2.0 * h * np.log1p(-r)) / r  # 1 - (1 - r)^(2H), over r
        return 0.5 * (r**h + r ** (1.0 - h) * q)


def _lower_correlation(t: np.ndarray, h: float, a=None) -> np.ndarray:
    """The lower triangle of diag(a) P diag(a), P = _fbm_correlation at t.

    Filled _GRAM_ROWS rows at a time (columns up to the block's last row)
    into one zeroed buffer, so P is evaluated about once per pair of
    times and the working memory is that buffer plus one row block.
    a = None leaves P unscaled.  The upper triangle stays zero: cholesky
    and eigvalsh read only the lower one.
    """
    out = np.zeros((t.size, t.size))
    for i in range(0, t.size, _GRAM_ROWS):
        j = min(i + _GRAM_ROWS, t.size)
        corr = _fbm_correlation(t[i:j, None], t[:j], h)
        out[i:j, :j] = corr if a is None else a[i:j, None] * corr * a[:j]
    return out


def _cholesky_with_jitter(gram: np.ndarray):
    """Lower Cholesky factor, escalating a diagonal jitter on failure.

    The first try adds no jitter; then eps * mean(diag) with eps doubling
    from 1e-14 to 8.2e-11; past that the model/grid pair is reported as
    degenerate, a LinAlgError ("factor: "), rather than silently
    regularized further.  Returns (L, jitter_used).
    """
    d = gram.shape[0]
    base = float(np.trace(gram)) / d
    for jitter in [0.0] + [math.ldexp(1e-14, i) * base for i in range(14)]:
        try:
            shifted = gram + jitter * np.eye(d) if jitter else gram
            return np.linalg.cholesky(shifted), jitter
        except np.linalg.LinAlgError:
            pass
    raise np.linalg.LinAlgError(
        f"factor: node correlation matrix is not positive definite within "
        f"jitter {1e-10 * base:.3e} (d={d}); refine the grid or move the model "
        f"away from the degenerate regime")


@dataclass(frozen=True, eq=False)
class GridEmbedding:
    """Finite orthonormal coordinates for a model on a grid.

    factor is the lower (cells x cells) F with F F' the covariance of
    one axis at the right nodes nodes[1:], so node values along an axis
    are F @ xi: F = t^H L with L L' = P at the nodes t, and where
    model.hurst = 1/2 the exact Brownian factor F_ij = sqrt(w_j),
    j <= i, with no Cholesky.  F holds node values, not increments; its
    row differences are the increment factor.  The factor, its jitter
    and the residual check of L L' against P are one cached computation
    that runs on first use of factor or jitter (sample_path,
    gram_matrix, EmbeddedFunctional.value), not when the grid is built.  Both the
    jitter and the residual bound are relative to each node's variance.
    Every embedding stage fails as a LinAlgError named by its stage:
    "factor: " here (too many cells, a correlation the jitter ladder
    cannot factor, or a residual past 1e-10), "spectrum: " in
    kernel2_spectrum, "gram: " in gram_matrix and "coordinates: " in
    EmbeddedFunctional.value.
    Nothing of size cells^ndim is stored.  dim is the number of
    standard-normal coordinates.
    """

    model: object
    nodes: np.ndarray

    @cached_property
    def _factor(self):
        _check_capacity(self.cells, 1, "factor")  # cells x cells at any ndim
        t = self.nodes[1:]
        if self.model.hurst == 0.5:
            return np.tril(np.broadcast_to(np.sqrt(self.widths), (t.size,) * 2)), 0.0
        corr = _lower_correlation(t, self.model.hurst)
        L, jitter = _cholesky_with_jitter(corr)
        resid = 0.0  # of L L' against P, on the lower triangle by row blocks
        for i in range(0, t.size, _GRAM_ROWS):
            j = min(i + _GRAM_ROWS, t.size)
            diff = np.tril(corr[i:j, :j] - L[i:j, :j] @ L[:j, :j].T, i)
            resid = max(resid, float(np.max(np.abs(diff))))
        if resid > 1e-10:  # P has a unit diagonal
            raise np.linalg.LinAlgError(
                f"factor: Cholesky reconstruction residual {resid:.3e} exceeds "
                "tolerance")
        L *= t[:, None] ** self.model.hurst
        return L, jitter

    @property
    def factor(self) -> np.ndarray:
        return self._factor[0]

    @property
    def jitter(self) -> float:
        return self._factor[1]

    @property
    def ndim(self) -> int:
        return self.model.ndim

    @property
    def cells(self) -> int:
        """Cells per axis."""
        return self.nodes.size - 1

    @property
    def dim(self) -> int:
        return self.cells**self.ndim

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.nodes)

    @property
    def midpoints(self) -> np.ndarray:
        return 0.5 * (self.nodes[:-1] + self.nodes[1:])

    def gram_matrix(self) -> np.ndarray:
        """Materialize the (dim x dim) increment Gram matrix.

        Per axis it is dF dF' with dF the row differences of factor
        (diag(sqrt widths) exactly at H = 1/2), and the Kronecker
        product over the axes.
        """
        _check_capacity(self.cells, self.ndim, "gram")
        step = np.diff(self.factor, axis=0, prepend=0.0)
        return reduce(np.kron, [step @ step.T] * self.ndim)


def build_embedding(model, cells: int, grid: str = "uniform",
                    octaves: float | None = None) -> GridEmbedding:
    """Partition [0,1] (per axis) for the model; the factor comes on use.

    grid is "uniform" or "geometric"; octaves only applies to geometric
    grids and defaults to cells - 1 (width ratio 2 between neighbors).
    """
    if grid == "uniform":
        if octaves is not None:
            raise ValueError("octaves only applies to geometric grids")
        nodes = uniform_nodes(cells)
    elif grid == "geometric":
        nodes = geometric_nodes(cells, octaves)
    else:
        raise ValueError(f"unknown grid kind {grid!r}")
    if not isinstance(model, (BrownianSheet, FractionalBrownianMotion)):
        raise TypeError(f"unsupported model {type(model).__name__}")
    return GridEmbedding(model=model, nodes=nodes)


def _tail_steps(emb: GridEmbedding, weights) -> list:
    """Per axis, the live cells and their square-root steps as (live, b, p, g).

    weights holds one (expo, cutoff) pair per axis: the weight
    u^(2 expo) on [cutoff, 1].  step_i is its mass between the clipped
    midpoints lo_i = max(m_i, cutoff) and hi_i (the next one, or 1).
    With p = 2 expo + 1 and b_i the end where u^p is larger (hi_i if
    p > 0, else lo_i), sqrt(step_i) = b_i^(p/2) g_i with
    g_i = sqrt(expm1(-|p| x)/(-|p|)), x = log(hi/lo) (sqrt(x) at the
    removable p = 0): g <= sqrt(x) is finite, so a step stays
    representable when hi^p and lo^p are not.  A cell is live when its
    step is nonzero; b and g are returned for the live cells only, and
    the power b^(p/2) is left to the caller, which may fold it into
    another one.  A geometric grid whose first node is 2^-1074 has its
    first midpoint round to 0; with no cutoff above it and p <= 0 that
    cell's step is infinite, and the grid is refused (ValueError).
    """
    if len(weights) != emb.ndim:
        raise ValueError(f"got {len(weights)} axis weights for {emb.ndim} axes")
    out = []
    for axis, (expo, cutoff) in enumerate(weights):
        m = np.append(np.maximum(emb.midpoints, cutoff), 1.0)
        p = 2.0 * expo + 1.0
        if p <= 0.0 and m[0] == 0.0:
            raise ValueError(
                f"{emb.cells} cells over {-math.log2(emb.nodes[1]):g} octaves: "
                f"the first midpoint rounds to 0, where the weight u^{2 * expo:g} "
                f"on axis {axis} has infinite mass; use fewer octaves")
        x = np.log(m[1:] / m[:-1])
        b = m[1:] if p > 0.0 else m[:-1]
        g = np.sqrt(x) if p == 0.0 else np.sqrt(np.expm1(-abs(p) * x) / -abs(p))
        live = b ** (0.5 * p) * g != 0.0
        out.append((live, b[live], p, g[live]))
    return out


def _check_capacity(cells: int, ndim: int, stage: str):
    """Refuse cells^ndim coordinates above the dense cap.

    The power is formed only when it fits in 64 bits, else named cells^ndim.
    """
    if cells < 2:
        return
    huge = ndim * math.log2(cells) >= 63
    if huge or cells**ndim > _MAX_EMBED_DIM:
        dim = f"{cells}^{ndim}" if huge else cells**ndim
        raise np.linalg.LinAlgError(
            f"{stage}: embedding dimension {dim} too large for a dense kernel")


def kernel2_spectrum(emb: GridEmbedding, weights) -> HSOperator:
    """The HSOperator of the tail-mass kernel M, without structural zeros.

    M = kron_a B_a'B_a, B_a = sqrt(step)[:, None] * F[live], is the tail
    mass C = sum_l step_l 1_{<=l} 1_{<=l}' (_tail_steps) conjugated by the
    increment factor dF: PSD by construction, and never formed.  The nonzero
    eigenvalues of B_a'B_a are those of the small Gram B_a B_a', one row per
    live cell (nonzero step).  F F' is the path covariance at the cells'
    right nodes t, so B_a B_a' = diag(a) P diag(a) with P = _fbm_correlation
    at the live t (H = model.hurst) and a_i = s_i t_i^H, s the square-root
    steps.  a is formed as t^(H + p/2) (b/t)^(p/2) g (see _tail_steps),
    whose exponents are combined so it stays representable where s and t^H
    alone are not.  No Cholesky factor or jitter is formed.  Of each Gram
    only the lower triangle, which eigvalsh reads, is filled, by row blocks
    (_lower_correlation).
    M's eigenvalues are the products of the per-axis spectra:
    prod_a k_a values, ascending and read-only, flattened after each
    outer product (a numpy array has at most 64 axes).  The count comes
    from the live rows alone, never from a cutoff on the eigenvalues.

    Raises numpy.linalg.LinAlgError when the embedding is too large for
    a dense kernel or (sum lambda^2)^2 = ||M||_F^4 is outside double
    range, when eigvalsh does not converge, and when a product of
    nonzero axis eigenvalues underflows to 0; its message starts with
    the stage, "spectrum: ".
    """
    _check_capacity(emb.cells, emb.ndim, "spectrum")
    h = emb.model.hurst
    spectra = []
    with np.errstate(all="ignore"):
        for live, b, p, g in _tail_steps(emb, weights):
            t = emb.nodes[1:][live]
            a = t ** (h + 0.5 * p) * (b / t) ** (0.5 * p) * g
            gram = _lower_correlation(t, h, a)
            try:
                spectra.append(np.linalg.eigvalsh(gram))  # reads the lower triangle
            except np.linalg.LinAlgError as e:  # no convergence: entries past range
                raise np.linalg.LinAlgError(f"spectrum: {e}") from e
        lam = np.sort(reduce(lambda x, y: np.multiply.outer(x, y).ravel(),
                             spectra))
        lost = math.prod(map(np.count_nonzero, spectra)) - np.count_nonzero(lam)
        if lost:
            raise np.linalg.LinAlgError(f"spectrum: {lost} products of nonzero "
                                        "axis eigenvalues underflow to 0")
        if not np.isfinite(np.sum(lam * lam) ** 2):
            raise np.linalg.LinAlgError("spectrum: kernel is outside double "
                                        "range (||M||_F^4 is not finite)")
    lam.flags.writeable = False
    return HSOperator(lam)


def sample_path(emb: GridEmbedding, xi) -> np.ndarray:
    """Map standard-normal coordinates to node values of the model.

    xi has shape (dim,) or (N, dim); the node values have shape
    (cells+1,) * ndim, with a leading batch axis of N for a batch: each
    axis's factor F (GridEmbedding.factor) applied in turn (_map_axes;
    on fBm xi F'), then node 0 prepended as exactly 0.  The same xi fed
    to EmbeddedFunctional.value refers to the same realization, which
    couples direct quadrature and chaos routes.
    """
    vals = _map_axes(emb, xi, [emb.factor] * emb.ndim)
    vals = np.pad(vals, [(0, 0)] + [(1, 0)] * emb.ndim)
    return vals[0] if np.ndim(xi) == 1 else vals


def _map_axes(emb: GridEmbedding, xi, mats) -> np.ndarray:
    """xi, (dim,) or (N, dim) read as (N,) + (cells,) * ndim, mapped along
    axis a by mats[a] (k_a x cells): shape (N, k_1, ..., k_ndim)."""
    xi = np.asarray(xi, dtype=float)
    if xi.ndim not in (1, 2) or xi.shape[-1] != emb.dim:
        raise ValueError(f"xi must have shape (N, {emb.dim})")
    vals = xi.reshape((-1,) + (emb.cells,) * emb.ndim)
    for ax, m in enumerate(mats, 1):
        vals = np.moveaxis(np.moveaxis(vals, ax, -1) @ m.T, -1, ax)
    return vals
