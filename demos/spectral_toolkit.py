#!/usr/bin/env python3
"""Everything about an order-2 integral lives in one spectrum.

An order-2 kernel is a symmetric matrix; I_2(f) equals
sum_i lambda_i (eta_i^2 - 1) for its eigenvalues lambda_i and iid
standard normals eta_i.  That single fact yields, in closed form, every
cumulant, the characteristic function, and an O(d) sampler.  The script
exercises each of these on one kernel and cross-checks them against
independent routes:

  * cumulants from the spectrum vs moments from general-order formulas,
  * the characteristic function vs an empirical average of exp(iuX),
  * the spectral sampler vs the generic coordinate-wise evaluator.

Run:  python3 demos/spectral_toolkit.py
"""

import numpy as np

from chaoskit import (
    char_function,
    contraction_norm_sq,
    cumulant,
    excess_kurtosis_exact,
    hs_operator,
    norm_sq,
    sample_integral,
    sample_integral2_spectral,
    stream,
    sym,
)

# an arbitrary small symmetric kernel, nothing special about the entries
f = sym(np.array([[0.30, 0.20, 0.00, -0.10],
                  [0.20, -0.10, 0.15, 0.00],
                  [0.00, 0.15, 0.05, 0.25],
                  [-0.10, 0.00, 0.25, -0.20]]))
op = hs_operator(f)
lam = op.eigenvalues

print("== spectrum ==")
print("eigenvalues:", np.array2string(lam, precision=4))
print(f"sum lambda_i^2 = {np.sum(lam ** 2):.6f}  vs  ||f||^2 = "
      f"{norm_sq(f):.6f}")

print()
print("== cumulants from the spectrum ==")
# kappa_j = 2^(j-1) (j-1)! sum lambda^j for j >= 2, kappa_1 = 0
for j in (2, 3, 4):
    print(f"  kappa_{j} = {cumulant(op, j):+.6f}")
var = cumulant(op, 2)
k4 = cumulant(op, 4)
print(f"kappa_4 from the spectrum           = {k4:.6f}")
# excess_kurtosis_exact is dimensionless (m4/m2^2 - 3), so scale it back
print(f"excess kurtosis * kappa_2^2         = "
      f"{excess_kurtosis_exact(f) * var ** 2:.6f}")
print(f"48 ||f (x)_1 f||^2                  = "
      f"{48 * contraction_norm_sq(f, 1):.6f}")
print("(three independent routes to the fourth cumulant)")

print()
print("== characteristic function vs empirical average ==")
rng = stream(31, "demo:spectral:cf")
draws = sample_integral2_spectral(f, 200000, rng)
for u in (0.5, 1.0, 2.0):
    phi = char_function(op, u)
    emp = np.exp(1j * u * draws).mean()
    print(f"  u = {u:3.1f}: exact {phi.real:+.5f}{phi.imag:+.5f}i   "
          f"empirical {emp.real:+.5f}{emp.imag:+.5f}i")

print()
print("== two samplers, one law ==")
coord = sample_integral(f, 200000, stream(31, "demo:spectral:coord"))
spec = sample_integral2_spectral(f, 200000, stream(31, "demo:spectral:spec"))
for name, d in (("coordinate", coord), ("spectral", spec)):
    print(f"  {name:>10}: var {d.var():.4f}, skew "
          f"{((d - d.mean()) ** 3).mean() / d.std() ** 3:+.4f}")
print(f"  exact     : var {var:.4f}, skew "
      f"{cumulant(op, 3) / var ** 1.5:+.4f}")
print("the spectral route draws d uniforms per sample, a radius and an")
print("angle for each pair of eigenvalues, instead of evaluating a d x d")
print("quadratic form on d normals, so big sweeps use it.")
