"""Weighted quadratic functionals of fBm paths and sheet fields.

Each family is a functional F(X) = integral of weight(x) * X(x)^2 over
its domain.  Subtracting the mean leaves a single order-2 integral whose
kernel is the weight's tail mass,

    f(s, t) = integral of weight(u) over {u >= s, u >= t, u in domain},

because X(u) collects exactly the increments before u.  Every weight
is a product over axes of u^(2 expo) on [cutoff, 1]; a family's
axis_weights() lists those (expo, cutoff) pairs, and both routes below
read them.  The families degenerate as a parameter approaches a
boundary (weight mass escaping to the origin, or a cutoff vanishing),
and the normalized fluctuation approaches a Gaussian limit; the
toolkit's diagnostics quantify how fast.

Two evaluation routes share one source of randomness: direct midpoint
quadrature of a sampled path, and evaluation of the embedded order-2
kernel at the same coordinates.  Their gap is pure discretization error
and shrinks under grid refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .chaos import cumulant, eval_integral, hs_operator, sample_integral2_spectral
from .embeddings import (
    BrownianSheet,
    FractionalBrownianMotion,
    GridEmbedding,
    PathSample,
    build_embedding,
    embed_kernel2,
)
from .tensors import SymTensor

__all__ = [
    "FbmPowerVariation",
    "FbmSingularVariation",
    "SheetPowerVariation",
    "SheetSingularVariation",
    "chaos_kernel",
    "embed",
    "embed_on_grid",
    "EmbeddedFunctional",
    "direct_evaluate",
    "sheet_power_variance_exact",
]


@dataclass(frozen=True)
class FbmPowerVariation:
    """F = integral over [0,1] of t^(2 beta) X_t^2 dt, X fBm with index hurst.

    Defined for 2*beta + 2*hurst + 1 > 0; the normalized fluctuation
    sqrt(2 beta + 2 hurst + 1) * (F - E F) approaches a Gaussian limit as
    beta falls to the boundary.
    """

    hurst: float
    beta: float

    def __post_init__(self):
        if not (0.0 < self.hurst < 1.0):
            raise ValueError(f"hurst index must lie in (0, 1), got {self.hurst}")
        if not (2.0 * self.beta + 2.0 * self.hurst + 1.0 > 0.0):
            raise ValueError(
                f"need 2*beta + 2*hurst + 1 > 0, got beta={self.beta}, hurst={self.hurst}"
            )

    def model(self):
        return FractionalBrownianMotion(self.hurst)

    def mean_exact(self) -> float:
        return 1.0 / (2.0 * self.beta + 2.0 * self.hurst + 1.0)

    def normalization(self) -> float:
        return math.sqrt(2.0 * self.beta + 2.0 * self.hurst + 1.0)

    def axis_weights(self):
        return [(self.beta, 0.0)]


@dataclass(frozen=True)
class FbmSingularVariation:
    """F = integral over [eps,1] of t^(-2 hurst - 1) X_t^2 dt.

    The weight makes every scale contribute equally in expectation
    (E F = log(1/eps)); the normalized fluctuation is
    (F - E F) / sqrt(log(1/eps)).
    """

    hurst: float
    eps: float

    def __post_init__(self):
        if not (0.0 < self.hurst < 1.0):
            raise ValueError(f"hurst index must lie in (0, 1), got {self.hurst}")
        if not (0.0 < self.eps < 1.0):
            raise ValueError(f"cutoff must lie in (0, 1), got {self.eps}")

    def model(self):
        return FractionalBrownianMotion(self.hurst)

    def mean_exact(self) -> float:
        return math.log(1.0 / self.eps)

    def normalization(self) -> float:
        return 1.0 / math.sqrt(math.log(1.0 / self.eps))

    def axis_weights(self):
        return [(-self.hurst - 0.5, self.eps)]


@dataclass(frozen=True)
class SheetPowerVariation:
    """F = integral over [0,1]^n of prod_a x_a^(2 beta_a) W(x)^2 dx.

    W is the Brownian sheet.  Needs beta_a > -1 on every axis; the
    normalized fluctuation sqrt(prod (2 beta_a + 2)) * (F - E F) has
    variance 2 * prod 1/(2 beta_a + 3) exactly in the continuum, which
    tends to 2 as any beta_a falls to -1.
    """

    betas: tuple

    def __post_init__(self):
        object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))
        if len(self.betas) < 1:
            raise ValueError("need at least one axis")
        for b in self.betas:
            if not (2.0 * b + 2.0 > 0.0):
                raise ValueError(f"need beta > -1 on every axis, got {b}")

    def model(self):
        return BrownianSheet(len(self.betas))

    def mean_exact(self) -> float:
        out = 1.0
        for b in self.betas:
            out /= 2.0 * b + 2.0
        return out

    def normalization(self) -> float:
        out = 1.0
        for b in self.betas:
            out *= 2.0 * b + 2.0
        return math.sqrt(out)

    def axis_weights(self):
        return [(b, 0.0) for b in self.betas]


@dataclass(frozen=True)
class SheetSingularVariation:
    """F = integral over [eps,1]^n of W(x)^2 / prod_a x_a^2 dx.

    E F = log(1/eps)^n; the normalized fluctuation is
    (F - E F) / log(1/eps)^(n/2).
    """

    ndim: int
    eps: float

    def __post_init__(self):
        if self.ndim < 1 or self.ndim != int(self.ndim):
            raise ValueError(f"ndim must be a positive integer, got {self.ndim}")
        if not (0.0 < self.eps < 1.0):
            raise ValueError(f"cutoff must lie in (0, 1), got {self.eps}")

    def model(self):
        return BrownianSheet(self.ndim)

    def mean_exact(self) -> float:
        return math.log(1.0 / self.eps) ** self.ndim

    def normalization(self) -> float:
        return math.log(1.0 / self.eps) ** (-0.5 * self.ndim)

    def axis_weights(self):
        return [(-1.0, self.eps) for _ in range(self.ndim)]


_FAMILIES = (FbmPowerVariation, FbmSingularVariation,
             SheetPowerVariation, SheetSingularVariation)


def _check_family(func):
    if not isinstance(func, _FAMILIES):
        raise TypeError(f"unknown functional family {type(func).__name__}")


def chaos_kernel(func, emb: GridEmbedding) -> SymTensor:
    """Order-2 kernel of F - E F in the embedding's coordinates."""
    _check_family(func)
    if emb.model != func.model():
        raise ValueError(
            f"embedding is for {emb.model}, functional needs {func.model()}"
        )
    return embed_kernel2(emb, func.axis_weights())


@dataclass(frozen=True)
class EmbeddedFunctional:
    """A functional frozen onto a grid: kernel, mean and normalization.

    All exact quantities below are moments of the discretized statistic
    normalization * I_2(kernel), not of the continuum limit; the
    difference is the object under study.
    """

    functional: object
    embedding: GridEmbedding
    kernel: SymTensor
    mean: float
    scale: float

    def value(self, xi):
        """Discretized F at coordinates xi (mean + chaos part)."""
        return self.mean + eval_integral(self.kernel, xi)

    def statistic(self, xi):
        """Normalized fluctuation scale * I_2(kernel) at xi.

        Note statistic(0) = -scale * trace(kernel): the chaos part is a
        centered quadratic, so the zero path sits below the mean.
        """
        return self.scale * eval_integral(self.kernel, xi)

    @cached_property
    def operator(self):
        """The kernel's HSOperator: every method below reads its one spectrum."""
        return hs_operator(self.kernel)

    def variance_exact(self) -> float:
        return cumulant(self.operator, 2) * self.scale**2

    def excess_kurtosis_exact(self) -> float:
        return cumulant(self.operator, 4) / cumulant(self.operator, 2) ** 2

    def kurtosis_exact(self) -> float:
        return 3.0 + self.excess_kurtosis_exact()

    def contraction_ratio(self) -> float:
        """||f (x)_1 f||^2 / ||f||^4, the scale-free fourth-moment certificate."""
        lam = self.operator.eigenvalues
        return float(np.sum(lam**4) / np.sum(lam**2) ** 2)

    def sample_statistic(self, n_samples: int, rng) -> np.ndarray:
        return self.scale * sample_integral2_spectral(self.operator, n_samples, rng)


def embed(func, emb: GridEmbedding) -> EmbeddedFunctional:
    _check_family(func)
    return EmbeddedFunctional(
        functional=func,
        embedding=emb,
        kernel=chaos_kernel(func, emb),
        mean=func.mean_exact(),
        scale=func.normalization(),
    )


def embed_on_grid(func, cells: int, grid: str = "uniform",
                  octaves: float | None = None) -> EmbeddedFunctional:
    """Convenience: build the model embedding and embed in one step."""
    _check_family(func)
    return embed(func, build_embedding(func.model(), cells, grid, octaves))


def direct_evaluate(func, path: PathSample):
    """Midpoint quadrature of the weighted squared path.

    Cell values are corner averages; the weight enters in factored form
    (mid^e * value)^2 per axis, which stays inside double range on deep
    geometric grids where mid^(2e) alone would overflow.  Returns one
    value per draw in the sample.
    """
    _check_family(func)
    if path.model != func.model():
        raise ValueError(f"path is from {path.model}, functional needs {func.model()}")
    nodes = np.asarray(path.nodes, dtype=float)
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    w = np.diff(nodes)
    ndim = path.model.ndim
    vals = path.values
    single = vals.ndim == ndim
    if single:
        vals = vals[None, ...]
    v = vals
    for ax in range(1, ndim + 1):
        lo = np.take(v, np.arange(v.shape[ax] - 1), axis=ax)
        hi = np.take(v, np.arange(1, v.shape[ax]), axis=ax)
        v = 0.5 * (lo + hi)
    # fold mid^e into the value before squaring; cells below a cutoff are
    # zeroed first so their mid^e (which may not be representable) is
    # never formed
    for a, (expo, cutoff) in enumerate(func.axis_weights()):
        half = np.zeros(mids.size)
        live = mids >= cutoff if cutoff > 0.0 else np.ones(mids.size, dtype=bool)
        half[live] = mids[live] ** expo
        shape = [1] * (ndim + 1)
        shape[a + 1] = mids.size
        v = v * half.reshape(shape)
    sq = v * v
    for a in range(ndim):
        shape = [1] * (ndim + 1)
        shape[a + 1] = w.size
        sq = sq * w.reshape(shape)
    out = sq.reshape(sq.shape[0], -1).sum(axis=1)
    return float(out[0]) if single else out


def sheet_power_variance_exact(betas) -> float:
    """Continuum variance of the normalized sheet power statistic.

    Var[ sqrt(prod (2b_a+2)) * (F - E F) ] = 2 * prod_a 1/(2 b_a + 3).
    The per-axis factor (2b+2) * (1 - 4/(2b+3) + 1/(2b+2)) / (2b+1)^2
    from direct quadrature of the squared covariance is algebraically the
    same, including at the removable point 2b + 1 = 0.
    """
    out = 2.0
    for b in betas:
        b = float(b)
        if not (2.0 * b + 2.0 > 0.0):
            raise ValueError(f"need beta > -1, got {b}")
        out /= 2.0 * b + 3.0
    return out
