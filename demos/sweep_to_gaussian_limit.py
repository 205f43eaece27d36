#!/usr/bin/env python3
"""Drive the weighted-variation functionals toward their Gaussian limit.

Both functional families have a tunable exponent; at one end of its range
the normalized statistic is visibly non-Gaussian, at the critical end the
fourth-moment certificate collapses and the law approaches a standard
normal.  Everything printed in the first two sections is exact linear
algebra on the embedded kernel: no Monte Carlo noise, so the monotone
trends are real.

  * fbm weighted quadratic variation: the natural dial is
    x = 2 beta + 2H + 1; x -> 0 is the critical line.  The scale-free
    certificate ||f (x)_1 f||^2 / ||f||^4 decays roughly linearly in x.
  * sheet power functional, one axis: here the limit is quantitative;
    the continuum variance is 2/(2b + 3), which tends to 2 as b -> -1,
    and the discretized kernel tracks it.  MC agrees within error.

Run:  python3 demos/sweep_to_gaussian_limit.py
"""

import numpy as np

from chaoskit import (
    FbmPowerVariation,
    SheetPowerVariation,
    embed_on_grid,
    sheet_power_variance_exact,
    stream,
    summarize,
)

H = 0.75
print(f"== fbm weighted quadratic variation, H = {H}, 512-cell "
      "geometric grid ==")
print("      x     beta      excess_kurt   contraction ratio")
for x in (1e-1, 10**-1.5, 1e-2, 10**-2.5):
    beta = (x - 1 - 2 * H) / 2
    ef = embed_on_grid(FbmPowerVariation(H, beta), 512, "geometric", 511)
    print(f"{x:9.4f}  {beta:+.4f}   {ef.excess_kurtosis_exact():12.6f}"
          f"   {ef.contraction_ratio():.6e}")
print("both certificates head to zero with x, which forces the law of")
print("the normalized statistic, over the square root of its exact")
print("variance, toward N(0, 1).")

print()
print("== sheet power functional, n = 1 axis: a quantitative limit ==")
print("     b     continuum var   discrete var    MC var (N=20000)")
rng = stream(9, "demo:sweep:sheet")
for b in (-0.9, -0.95, -0.99, -0.995):
    func = SheetPowerVariation((b,))
    cont = sheet_power_variance_exact((b,))
    ef = embed_on_grid(func, 1024, "geometric", 512)
    mc = summarize(ef.sample_statistic(20000, rng)).variance
    print(f"{b:+.3f}   {cont:13.6f}   {ef.variance_exact():12.6f}"
          f"   {mc:12.6f}")
print(f"the continuum column is 2/(2b+3): at b = -0.995 it is "
      f"{sheet_power_variance_exact((-0.995,)):.6f},")
print("and it converges to 2 as b -> -1, independently of the number of")
print("axes; the same closed form with more axes multiplies per-axis")
print("factors that each tend to 1.")

print()
print("== the same dial seen through raw draws ==")
# far from critical the statistic is skewed; near critical it looks normal
for b, label in ((-0.25, "far from critical"), (-0.995, "near critical")):
    ef = embed_on_grid(SheetPowerVariation((b,)), 1024, "geometric", 512)
    draws = ef.sample_statistic(20000, stream(9, f"demo:sweep:draws:{b}"))
    draws = draws / draws.std()
    su = summarize(draws)
    print(f"b = {b:+.3f} ({label}): skewness {su.skewness:+.3f}, "
          f"kurtosis {su.kurtosis:.3f}")
