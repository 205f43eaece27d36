"""Grid embeddings of fractional Brownian motion and the Brownian sheet.

An embedding turns a covariance model restricted to a partition of
[0, 1] (or [0, 1]^n) into a finite orthonormal system: the increment
Gram matrix is factored as L L' and the columns of L express the
increments through i.i.d. standard normals.  Kernels of quadratic
functionals are then collocated on cell midpoints and conjugated into
the same coordinates, so paths and chaos elements can be evaluated on
shared draws.

fBm Gram entries come from double differences of the covariance
R_H(s, t) = (s^{2H} + t^{2H} - |t - s|^{2H}) / 2; the singular kernel
derivative is never used.  The double difference is rearranged before
evaluation because the naive four-point sum loses every significant
digit on strongly graded grids (entries ~1e-18 against absolute
rounding ~1e-16 kill the Cholesky).  See _pow_diff.

Uniform grids are the default; geometric grids (cell widths shrinking
by a constant factor toward the origin, factor 2 at the default depth)
resolve functionals whose weight concentrates at 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .tensors import SymTensor

__all__ = [
    "FractionalBrownianMotion",
    "BrownianSheet",
    "brownian_motion",
    "uniform_nodes",
    "geometric_nodes",
    "GridEmbedding",
    "build_embedding",
    "embed_kernel2",
    "sample_path",
    "PathSample",
    "DegenerateModelError",
]

# dense kernels are (dim x dim); beyond this the quadratic cost is a bug,
# not a use case
_MAX_EMBED_DIM = 8192


class DegenerateModelError(RuntimeError):
    """Raised when an increment Gram matrix cannot be factored.

    Carries the jitter level at which factorization was abandoned so
    callers can report how ill-conditioned the model/grid pair is.
    """

    def __init__(self, message, jitter_last=None):
        super().__init__(message)
        self.jitter_last = jitter_last


@dataclass(frozen=True)
class FractionalBrownianMotion:
    """Centered Gaussian path model on [0, 1] with stationary increments.

    covariance(s, t) = (s^{2H} + t^{2H} - |t-s|^{2H}) / 2.  hurst = 1/2
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
        p = 2.0 * self.hurst
        return 0.5 * (s**p + t**p - np.abs(t - s) ** p)


def brownian_motion() -> FractionalBrownianMotion:
    return FractionalBrownianMotion(0.5)


@dataclass(frozen=True)
class BrownianSheet:
    """Centered Gaussian field on [0, 1]^ndim, covariance prod_a min(x_a, y_a).

    Increments over disjoint cells are independent with variance equal to
    the cell volume, so the grid Gram matrix is diagonal.
    """

    ndim: int = 2

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
    octaves = cells - 1 makes that factor exactly 2.
    """
    if cells < 2:
        raise ValueError("a geometric grid needs at least two cells")
    if octaves is None:
        octaves = float(cells - 1)
    if not (octaves > 0.0):
        raise ValueError(f"octaves must be positive, got {octaves}")
    i = np.arange(1, cells + 1, dtype=float)
    expo = -octaves * (1.0 - (i - 1.0) / (cells - 1.0))
    return np.concatenate(([0.0], np.exp2(expo)))


def _pow_diff(big: np.ndarray, small: np.ndarray, p: float, gap) -> np.ndarray:
    """big**p - small**p for big = small + gap, small >= 0, gap > 0.

    Written as small**p * expm1(p * log1p(gap/small)) so the result keeps
    full relative accuracy when gap << small; direct subtraction there
    returns rounding noise of the order of eps * big**p.
    """
    big = np.asarray(big, dtype=float)
    small = np.asarray(small, dtype=float)
    big, small, gap = np.broadcast_arrays(big, small, np.asarray(gap, dtype=float))
    out = np.empty(big.shape)
    z = small == 0.0
    out[z] = big[z] ** p
    nz = ~z
    out[nz] = small[nz] ** p * np.expm1(p * np.log1p(gap[nz] / small[nz]))
    return out


def _fbm_increment_gram(nodes: np.ndarray, hurst: float) -> np.ndarray:
    """Covariance of fBm increments over the cells of a partition.

    For cells [a, b] and [c, d] with b <= c the four-point double
    difference of R_H collapses to

        ((d-a)^p - (d-b)^p - (c-a)^p + (c-b)^p) / 2,   p = 2H,

    two paired differences with the common exact gap b - a, which is what
    _pow_diff needs.  Diagonal entries are width^p exactly.
    """
    p = 2.0 * hurst
    t = np.asarray(nodes, dtype=float)
    d = t.size - 1
    w = np.diff(t)
    gram = np.empty((d, d))
    for i in range(d):
        gram[i, i] = w[i] ** p
        js = np.arange(i + 1, d)
        if js.size:
            hi = _pow_diff(t[js + 1] - t[i], t[js + 1] - t[i + 1], p, w[i])
            lo = _pow_diff(t[js] - t[i], t[js] - t[i + 1], p, w[i])
            gram[i, js] = 0.5 * (hi - lo)
            gram[js, i] = gram[i, js]
    return gram


def _cholesky_with_jitter(gram: np.ndarray):
    """Lower Cholesky factor, escalating a diagonal jitter on failure.

    Jitter is eps * mean(diag) with eps doubling from 1e-14; beyond 1e-10
    the model/grid pair is reported as degenerate rather than silently
    regularized further.  Returns (L, jitter_used).
    """
    d = gram.shape[0]
    base = float(np.trace(gram)) / d
    try:
        return np.linalg.cholesky(gram), 0.0
    except np.linalg.LinAlgError:
        pass
    eps = 1e-14
    while eps <= 1e-10:
        try:
            L = np.linalg.cholesky(gram + (eps * base) * np.eye(d))
            return L, eps * base
        except np.linalg.LinAlgError:
            eps *= 2.0
    raise DegenerateModelError(
        f"increment Gram matrix is not positive definite within jitter "
        f"{1e-10 * base:.3e} (d={d}); refine the grid or move the model "
        f"away from the degenerate regime",
        jitter_last=1e-10 * base,
    )


@dataclass(frozen=True)
class GridEmbedding:
    """Finite orthonormal coordinates for a model on a grid.

    For path models, chol is the lower Cholesky factor of the increment
    Gram matrix and increments = chol @ xi.  For the sheet the Gram
    matrix is diagonal, chol is None and sqrt_volumes scales coordinates
    directly.  dim is the number of standard-normal coordinates.
    """

    model: object
    nodes: np.ndarray
    chol: np.ndarray | None
    sqrt_volumes: np.ndarray | None
    jitter: float

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
        """Materialize the (dim x dim) increment Gram matrix."""
        if self.dim > _MAX_EMBED_DIM:
            raise ValueError(f"gram matrix would be {self.dim}^2; refusing")
        if self.chol is not None:
            return self.chol @ self.chol.T
        return np.diag(self.sqrt_volumes**2)


def build_embedding(model, cells: int, grid: str = "uniform",
                    octaves: float | None = None) -> GridEmbedding:
    """Partition [0,1] (per axis) and factor the model's increment Gram.

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
    if isinstance(model, BrownianSheet):
        w = np.diff(nodes)
        vol = reduce(np.kron, [w] * model.ndim)
        return GridEmbedding(model=model, nodes=nodes, chol=None,
                             sqrt_volumes=np.sqrt(vol), jitter=0.0)
    if isinstance(model, FractionalBrownianMotion):
        gram = _fbm_increment_gram(nodes, model.hurst)
        L, jitter = _cholesky_with_jitter(gram)
        resid = np.max(np.abs(gram - L @ L.T))
        if resid > 1e-10 * max(1.0, np.max(np.abs(gram))):
            raise DegenerateModelError(
                f"Cholesky reconstruction residual {resid:.3e} exceeds tolerance",
                jitter_last=jitter,
            )
        return GridEmbedding(model=model, nodes=nodes, chol=L,
                             sqrt_volumes=None, jitter=jitter)
    raise TypeError(f"unsupported model {type(model).__name__}")


def _check_collocation(c: np.ndarray, d: int) -> None:
    if c.shape != (d, d):
        raise ValueError(f"collocation matrix has shape {c.shape}, expected {(d, d)}")
    if not np.all(np.isfinite(c)):
        raise np.linalg.LinAlgError("collocation matrix has non-finite entries")
    scale = np.max(np.abs(c))
    if scale > 0 and np.max(np.abs(c - c.T)) > 1e-12 * scale:
        raise ValueError("kernel is not symmetric on the grid (beyond 1e-12 relative)")


def embed_kernel2(emb: GridEmbedding, kernel) -> SymTensor:
    """Represent a quadratic-functional kernel in embedding coordinates.

    kernel is either a single callable k(x, y) (vectorized; for the sheet
    x and y carry a trailing ndim axis) or a sequence of per-axis
    callables whose product is the kernel.  It is collocated on cell
    midpoints, then conjugated: M = L' C L for path models, and
    M = diag(sqrt volumes) C diag(sqrt volumes) for the sheet.  The
    result is the order-2 kernel of the embedded chaos part, i.e.
    I_2(M)(xi) reproduces the centered functional on the grid.
    """
    if emb.dim > _MAX_EMBED_DIM:
        raise np.linalg.LinAlgError(
            f"embedding dimension {emb.dim} too large for a dense kernel")
    mids = emb.midpoints
    per_axis = isinstance(kernel, (list, tuple))
    if per_axis and len(kernel) != emb.ndim:
        raise ValueError(f"got {len(kernel)} axis kernels for {emb.ndim} axes")
    if emb.chol is not None:
        k = kernel[0] if per_axis else kernel
        c = np.asarray(k(mids[:, None], mids[None, :]), dtype=float)
        _check_collocation(c, emb.cells)
        m = emb.chol.T @ c @ emb.chol
        return SymTensor(0.5 * (m + m.T))
    # sheet: diagonal conjugation; per-axis kernels keep factored exactness
    if per_axis:
        s = np.sqrt(emb.widths)
        mats = []
        for k in kernel:
            c = np.asarray(k(mids[:, None], mids[None, :]), dtype=float)
            _check_collocation(c, emb.cells)
            m = s[:, None] * c * s[None, :]
            mats.append(0.5 * (m + m.T))
        return SymTensor(reduce(np.kron, mats))
    pts = np.stack(np.meshgrid(*([mids] * emb.ndim), indexing="ij"), axis=-1)
    pts = pts.reshape(emb.dim, emb.ndim)
    c = np.asarray(kernel(pts[:, None, :], pts[None, :, :]), dtype=float)
    _check_collocation(c, emb.dim)
    sv = emb.sqrt_volumes
    m = sv[:, None] * c * sv[None, :]
    return SymTensor(0.5 * (m + m.T))


@dataclass(frozen=True)
class PathSample:
    """Node values of one or many sampled paths/fields.

    values has shape (cells+1,) * ndim for a single draw, with a leading
    batch axis for several.  Values at zero coordinates are exactly 0.
    """

    model: object
    nodes: np.ndarray
    values: np.ndarray

    @property
    def batch(self) -> int | None:
        extra = self.values.ndim - self.model.ndim
        return None if extra == 0 else self.values.shape[0]


def sample_path(emb: GridEmbedding, xi) -> PathSample:
    """Map standard-normal coordinates to node values of the model.

    xi has shape (dim,) or (N, dim).  The same xi fed to an embedded
    kernel's chaos evaluation refers to the same realization, which is
    what couples direct quadrature and chaos routes.
    """
    xi = np.asarray(xi, dtype=float)
    single = xi.ndim == 1
    if single:
        xi = xi[None, :]
    if xi.ndim != 2 or xi.shape[1] != emb.dim:
        raise ValueError(f"xi must have shape (N, {emb.dim})")
    n = xi.shape[0]
    d = emb.cells
    if emb.chol is not None:
        incr = xi @ emb.chol.T
        vals = np.concatenate([np.zeros((n, 1)), np.cumsum(incr, axis=1)], axis=1)
    else:
        incr = (xi * emb.sqrt_volumes).reshape((n,) + (d,) * emb.ndim)
        vals = incr
        for ax in range(1, emb.ndim + 1):
            vals = np.cumsum(vals, axis=ax)
            pad = [(0, 0)] * vals.ndim
            pad[ax] = (1, 0)
            vals = np.pad(vals, pad)
    if single:
        vals = vals[0]
    return PathSample(model=emb.model, nodes=emb.nodes, values=vals)
