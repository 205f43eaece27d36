#!/usr/bin/env python3
"""From a covariance function to chaos coordinates, and back to paths.

A fractional Brownian motion restricted to a grid is just a Gaussian
vector of node values; its covariance factors as F F^T, and the rows of
F express the node values over an orthonormal Gaussian basis xi.  Any
quadratic path functional then becomes mean + I_2(kernel) in those
coordinates, so the exact-moment machinery applies to honest path
quantities.

The script builds the embedding, audits it (F F^T against the
covariance function, marginal variances, Gram mass), then couples the weighted quadratic variation computed two ways
on the SAME noise: directly from simulated paths, and through the
embedded chaos kernel.  Refining the grid shrinks the gap, which is the
discretization error and nothing else.  The last section factors a deep
geometric grid at H = 0.99, where neighbouring node values are almost
perfectly correlated: F = t^H L with L the Cholesky factor of the node
correlation, whose unit diagonal keeps every row at its own scale, so
no diagonal jitter is needed.

Run:  python3 demos/fbm_embedding_walkthrough.py
"""

import numpy as np

from chaoskit import (
    FbmPowerVariation,
    FractionalBrownianMotion,
    build_embedding,
    direct_evaluate,
    embed,
    sample_path,
    stream,
)

H = 0.7
rng = stream(123, "demo:fbm")

print(f"== embedding audit, H = {H}, 64 uniform cells ==")
emb = build_embedding(FractionalBrownianMotion(H), 64)
t = emb.nodes[1:]
print(f"coordinates: {emb.dim}, jitter used: {emb.jitter:.1e}")
cov = emb.model.covariance(t[:, None], t[None, :])
resid = np.max(np.abs(emb.factor @ emb.factor.T - cov))
print(f"max |FF^T - R_H(t_i, t_j)|: {resid:.3e}")
print(f"Gram mass sum (= var of X(1) = 1^2H): {emb.gram_matrix().sum():.12f}")

xi = rng.standard_normal((40000, emb.dim))
paths = sample_path(emb, xi)
print("marginal variances vs t^2H on a few nodes (40000 paths):")
for j in (16, 32, 48, 64):
    t = emb.nodes[j]
    print(f"  t = {t:.3f}: sample {paths[:, j].var():.4f}, "
          f"exact {t ** (2 * H):.4f}")

print()
print("== coupled evaluation of the weighted quadratic variation ==")
func = FbmPowerVariation(H, 1.0)
for cells in (64, 256):
    emb = build_embedding(func.model(), cells)
    ef = embed(func, emb)
    xi = stream(123, "demo:fbm:couple").standard_normal((200, emb.dim))
    direct = direct_evaluate(func, emb, sample_path(emb, xi))
    chaos = ef.value(xi)
    gap = np.median(np.abs(direct - chaos))
    print(f"  {cells:4d} cells: median |direct - chaos| = {gap:.3e} "
          f"(values near {np.median(direct):.3f})")
print("the two routes use the same xi, so the gap is pure quadrature")
print("error of the midpoint kernel, and it shrinks under refinement.")

print()
print("== a nearly singular deep grid, factored without jitter ==")
# 1024 geometric cells spanning 1023 octaves at H = 0.99: the node
# variances t^2H run from about 1e-610 (below double range) to 1, but the
# correlation P is factored at unit scale and t^H is put back row by row.
emb = build_embedding(FractionalBrownianMotion(0.99), 1024, "geometric", 1023)
print(f"diagonal jitter used: {emb.jitter:.1e}")
rows = emb.factor / emb.nodes[1:, None] ** 0.99  # divide before squaring
print(f"max |sd(X(t)) / t^H - 1| over the nodes: "
      f"{np.max(np.abs(np.linalg.norm(rows, axis=1) - 1.0)):.1e}")
