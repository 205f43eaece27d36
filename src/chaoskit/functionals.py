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
quadrature of a sampled path, and the embedded order-2 kernel M = B'B
as ||B xi||^2 - ||B||_F^2 at the same coordinates.  Their gap is pure
discretization error and shrinks under grid refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .chaos import _ROW_BLOCK, _unit_variance, sample_integral2_spectral
from .embeddings import (
    BrownianSheet,
    FractionalBrownianMotion,
    GridEmbedding,
    _map_axes,
    _tail_steps,
    build_embedding,
    kernel2_spectrum,
)

__all__ = [
    "FbmPowerVariation",
    "FbmSingularVariation",
    "SheetPowerVariation",
    "SheetSingularVariation",
    "embed",
    "embed_on_grid",
    "EmbeddedFunctional",
    "direct_evaluate",
    "sheet_power_variance_exact",
]


def _axis_mass(expo: float, cutoff: float, hurst: float):
    """(m, 1/sqrt(m)): m = integral of u^(q-1) over [cutoff, 1].

    With q = 2 expo + 2 hurst + 1, m is E of the axis's weight u^(2 expo)
    times X(u)^2.  The closed forms keep their exact operations: 1/q and
    sqrt(q) at cutoff 0, log(1/cutoff) where q is zero (-log(cutoff)
    where 1/cutoff overflows, below 2^-1024), else -expm1(q log cutoff)/q.
    m is inf where the integral diverges, nan where cutoff is outside
    [0, 1).
    """
    q = 2.0 * expo + 2.0 * hurst + 1.0
    # q is 0 below the rounding of its terms: a singular weight's exponent
    # is formed from H, so its q can round to +-2^-52 instead of 0
    if abs(q) <= 2.0**-52 * (2.0 * abs(expo) + 2.0 * hurst + 1.0) < math.inf:
        q = 0.0
    if cutoff == 0.0:
        return (1.0 / q, math.sqrt(q)) if q > 0.0 else (math.inf, 0.0)
    if not 0.0 < cutoff < 1.0:
        return math.nan, math.nan
    if q == 0.0:
        inv = 1.0 / cutoff
        m = math.log(inv) if inv < math.inf else -math.log(cutoff)
    else:
        m = -math.expm1(q * math.log(cutoff)) / q
    return m, 1.0 / math.sqrt(m)


class _WeightedSquare:
    """F = integral of weight(x) X(x)^2, stated by its process and weights.

    A family is a frozen dataclass of its parameters with model(), the
    process (a Hurst index on every axis), and axis_weights(), one
    (expo, cutoff) pair per axis for the weight factor u^(2 expo) on
    [cutoff, 1].  The rest follows from them: E F is the product of the
    axis masses (_axis_mass), the normalized fluctuation is
    (F - E F)/sqrt(E F), with the factor taken per axis so that it stays
    finite where E F underflows, and the parameter domain is every axis
    mass finite and positive.
    """

    def __post_init__(self):
        for a, (m, _) in enumerate(self._masses()):  # model() checks H, ndim
            if not 0.0 < m < math.inf:
                raise ValueError(f"{self!r}: need every axis mass finite and "
                                 f"> 0, axis {a} has {m}")

    def _masses(self):
        hurst = self.model().hurst
        return [_axis_mass(*w, hurst) for w in self.axis_weights()]

    def mean_exact(self) -> float:
        return math.prod(m for m, _ in self._masses())

    def normalization(self) -> float:
        return math.prod(f for _, f in self._masses())


@dataclass(frozen=True)
class FbmPowerVariation(_WeightedSquare):
    """F = integral over [0,1] of t^(2 beta) X_t^2 dt, X fBm with index hurst.

    Defined for 2*beta + 2*hurst + 1 > 0, where E F = 1/(2 beta + 2 hurst
    + 1); the normalized fluctuation approaches a Gaussian limit as beta
    falls to the boundary.
    """

    hurst: float
    beta: float

    def model(self):
        return FractionalBrownianMotion(self.hurst)

    def axis_weights(self):
        return [(self.beta, 0.0)]


@dataclass(frozen=True)
class FbmSingularVariation(_WeightedSquare):
    """F = integral over [eps,1] of t^(-2 hurst - 1) X_t^2 dt, 0 < eps < 1.

    The weight makes every scale contribute equally in expectation
    (E F = log(1/eps)).
    """

    hurst: float
    eps: float

    def model(self):
        return FractionalBrownianMotion(self.hurst)

    def axis_weights(self):
        return [(-self.hurst - 0.5, self.eps)]


@dataclass(frozen=True)
class SheetPowerVariation(_WeightedSquare):
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
        super().__post_init__()

    def model(self):
        return BrownianSheet(len(self.betas))

    def axis_weights(self):
        return [(b, 0.0) for b in self.betas]


@dataclass(frozen=True)
class SheetSingularVariation(_WeightedSquare):
    """F = integral over [eps,1]^n of W(x)^2 / prod_a x_a^2 dx, 0 < eps < 1.

    E F = log(1/eps)^n.
    """

    ndim: int
    eps: float

    def model(self):
        return BrownianSheet(self.ndim)

    def axis_weights(self):
        return [(-1.0, self.eps) for _ in range(self.ndim)]


def _check_family(func):
    if not isinstance(func, _WeightedSquare):
        raise TypeError(f"unknown functional family {type(func).__name__}")


def _check_process(func, emb: GridEmbedding):
    """Refuse func on an embedding of another process."""
    _check_family(func)
    if emb.model != func.model():
        raise ValueError(f"embedding of {emb.model}, functional needs "
                         f"{func.model()}")


@dataclass(frozen=True, eq=False)
class EmbeddedFunctional:
    """A functional frozen onto a grid: mean, normalization, spectrum.

    All exact quantities below are moments of the discretized statistic
    normalization * I_2(M), not of the continuum limit; the difference
    is the object under study.  They and the draws read the closed-form
    spectrum (operator); M's per-axis factors and the embedding's
    Cholesky factor are built only for coordinates (value, statistic).
    """

    functional: object
    embedding: GridEmbedding
    mean: float
    scale: float

    @cached_property
    def _factors(self) -> tuple:
        """(B_a = sqrt(step) F[live] per axis, ||B||_F^2) of M = kron_a B_a'B_a."""
        emb, weights = self.embedding, self.functional.axis_weights()
        with np.errstate(all="ignore"):
            factors = [(b ** (0.5 * p) * g)[:, None] * emb.factor[live]
                       for live, b, p, g in _tail_steps(emb, weights)]
            trace = math.prod(float(np.sum(b * b)) for b in factors)
        if not math.isfinite(trace):
            raise np.linalg.LinAlgError("coordinates: kernel trace ||B||_F^2 is "
                                        "outside double range")
        return factors, trace

    def _chaos(self, xi):
        """I_2(M)(xi) = ||B xi||^2 - ||B||_F^2, on blocks of ~_ROW_BLOCK entries."""
        (factors, trace), batch = self._factors, np.atleast_2d(xi)
        rows = max(1, _ROW_BLOCK // self.embedding.dim)
        out = np.empty(len(batch))
        for i in range(0, len(batch), rows):
            y = _map_axes(self.embedding, batch[i:i + rows], factors)
            out[i:i + rows] = (y * y).reshape(len(y), -1).sum(axis=1) - trace
        return float(out[0]) if np.ndim(xi) == 1 else out

    def value(self, xi):
        """Discretized F at coordinates xi (mean + chaos part)."""
        return self.mean + self._chaos(xi)

    def statistic(self, xi):
        """Normalized fluctuation scale * I_2(M) at xi.

        statistic(0) = -scale * trace(M): the zero path sits below the mean.
        """
        return self.scale * self._chaos(xi)

    @cached_property
    def operator(self):
        """The kernel's HSOperator: every method below reads its one spectrum.

        The spectrum is embeddings.kernel2_spectrum's closed form: the
        product over axes of the live cells, not dim, eigenvalues, and a
        draw costs a radius and an angle uniform per pair of them (see
        chaos.sample_integral2_spectral).  Neither the kernel nor a
        Cholesky factor is built for it.
        """
        return kernel2_spectrum(self.embedding, self.functional.axis_weights())

    @cached_property
    def _row(self) -> tuple:  # the one exact row; its excess is scale-free
        return _unit_variance(self.operator, self.scale)

    def variance_exact(self) -> float:
        return self._row[0]

    def excess_kurtosis_exact(self) -> float:
        """kappa_4/kappa_2^2, read as diagnose reads it: at unit variance."""
        return self._row[4]

    def kurtosis_exact(self) -> float:
        return 3.0 + self.excess_kurtosis_exact()

    def contraction_ratio(self) -> float:
        """||f (x)_1 f||^2 / ||f||^4 = excess/12, the scale-free certificate."""
        return self.excess_kurtosis_exact() / 12.0

    def sample_statistic(self, n_samples: int, rng) -> np.ndarray:
        """Draws of the normalized statistic from the spectrum's uniforms."""
        return self.scale * sample_integral2_spectral(self.operator, n_samples, rng)


def embed(func, emb: GridEmbedding) -> EmbeddedFunctional:
    _check_process(func, emb)
    mean, scale = func.mean_exact(), func.normalization()
    for what, v in (("exact mean", mean), ("normalization", scale)):
        if not math.isfinite(v):
            raise OverflowError(f"mean: {what} of {type(func).__name__} is "
                                "outside double range")
    return EmbeddedFunctional(functional=func, embedding=emb, mean=mean,
                              scale=scale)


def embed_on_grid(func, cells: int, grid: str = "uniform",
                  octaves: float | None = None) -> EmbeddedFunctional:
    """Convenience: build the model embedding and embed in one step."""
    _check_family(func)
    return embed(func, build_embedding(func.model(), cells, grid, octaves))


def direct_evaluate(func, emb: GridEmbedding, values):
    """Midpoint quadrature of the weighted squared path.

    values are node values on emb (sample_path(emb, xi)), with or without
    a leading batch axis.  Each axis in turn averages the cell corners
    and folds in its weight mid^e: (mid^e * value)^2 stays in double
    range on deep geometric grids where mid^(2e) would overflow.  The
    squares are then scaled by the cell volumes, one value per draw.
    """
    _check_process(func, emb)
    mids = emb.midpoints
    single = values.ndim == emb.ndim
    v = values[None, ...] if single else values
    for ax, (expo, cutoff) in enumerate(func.axis_weights(), 1):
        live = mids >= cutoff  # a dead cell's mid^e may be out of range
        half = np.where(live, mids, 1.0) ** expo * live
        v = np.moveaxis(v, ax, -1)
        v = np.moveaxis(0.5 * (v[..., :-1] + v[..., 1:]) * half, -1, ax)
    sq = v * v * reduce(np.multiply.outer, [emb.widths] * emb.ndim)
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
    for b in SheetPowerVariation(betas).betas:
        out /= 2.0 * b + 3.0
    return out
