"""Slow reference implementations backing the validation suite.

Everything here is written by a different route than the fast production
code on purpose: contractions by explicit index loops instead of
matricization, moments by expanding the integral into an explicit
multivariate polynomial and taking Gaussian monomial expectations
instead of closed-form combinatorics, variances by numerical quadrature
of the squared covariance instead of algebra.  Small inputs only.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .tensors import SymTensor, Tensor, sym

__all__ = [
    "hermite_coefficients",
    "integral_polynomial",
    "gaussian_expectation",
    "moment_bruteforce",
    "contraction_bruteforce",
    "symmetrize_bruteforce",
    "sheet_power_variance_quadrature",
    "tail_mass_kernel2",
]


def hermite_coefficients(m: int) -> list:
    """Monomial coefficients [c_0, ..., c_m] of He_m, exact integers."""
    if m < 0:
        raise ValueError("degree must be nonnegative")
    prev, cur = [1], [0, 1]
    if m == 0:
        return prev
    for k in range(1, m):
        # He_{k+1} = x He_k - k He_{k-1}
        nxt = [0] + cur
        for j, c in enumerate(prev):
            nxt[j] -= k * c
        prev, cur = cur, nxt
    return cur


def _poly_mul(p: dict, q: dict) -> dict:
    out = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0.0) + ca * cb
    return out


def integral_polynomial(f: Tensor) -> dict:
    """I_n(f) as {exponent tuple: coefficient} over the d coordinates.

    Expands f[t] * n!/prod(mult!) * prod He_mult(xi_j) monomial by
    monomial.  Only the symmetric part of f contributes, matching the
    evaluator.
    """
    n = f.order
    if n == 0:
        return {(): float(f.coeffs)}
    d = f.dim
    a = f.coeffs
    # average over permutations so plain tensors mean their symmetric part
    poly = {}
    for t in itertools.combinations_with_replacement(range(d), n):
        c = 0.0
        seen = set()
        for perm in itertools.permutations(t):
            if perm in seen:
                continue
            seen.add(perm)
            c += a[perm]
        c /= len(seen)
        if c == 0.0:
            continue
        coords, mults = np.unique(t, return_counts=True)
        w = c * math.factorial(n)
        for m in mults:
            w /= math.factorial(m)
        term = {tuple(0 for _ in range(d)): w}
        for coord, m in zip(coords, mults):
            hm = {}
            for k, hc in enumerate(hermite_coefficients(int(m))):
                if hc == 0:
                    continue
                e = [0] * d
                e[coord] = k
                hm[tuple(e)] = float(hc)
            term = _poly_mul(term, hm)
        for e, w2 in term.items():
            poly[e] = poly.get(e, 0.0) + w2
    return poly


def eval_polynomial(poly: dict, x) -> float:
    """Evaluate an {exponent tuple: coefficient} polynomial at point x."""
    x = np.asarray(x, dtype=float)
    total = 0.0
    for e, c in poly.items():
        term = c
        for coord, k in enumerate(e):
            if k:
                term *= x[coord] ** k
        total += term
    return total


def gaussian_expectation(poly: dict) -> float:
    """E[poly(xi)] for i.i.d. standard normal xi via monomial moments.

    E[xi^k] = (k-1)!! for even k, 0 for odd k.
    """
    total = 0.0
    for e, c in poly.items():
        if any(k % 2 for k in e):
            continue
        m = 1.0
        for k in e:
            m *= math.prod(range(k - 1, 0, -2)) if k >= 2 else 1
        total += c * m
    return total


def moment_bruteforce(f: Tensor, power: int) -> float:
    """E[I_n(f)^power] by polynomial expansion, no moment formulas."""
    if power < 1:
        raise ValueError("power must be >= 1")
    base = integral_polynomial(f)
    poly = base
    for _ in range(power - 1):
        poly = _poly_mul(poly, base)
    return gaussian_expectation(poly)


def contraction_bruteforce(f: Tensor, g: Tensor, p: int) -> Tensor:
    """The p-fold contraction by explicit nested index loops."""
    n, m = f.order, g.order
    if not (0 <= p <= min(n, m)):
        raise ValueError("contraction order out of range")
    d = f.dim if f.dim is not None else g.dim
    if d is None:
        return Tensor(f.coeffs * g.coeffs)
    out = np.zeros((d,) * (n + m - 2 * p))
    for left in itertools.product(range(d), repeat=n - p):
        for right in itertools.product(range(d), repeat=m - p):
            s = 0.0
            for shared in itertools.product(range(d), repeat=p):
                s += f.coeffs[left + shared] * g.coeffs[shared + right]
            out[left + right] = s
    return Tensor(out)


def symmetrize_bruteforce(f: Tensor) -> Tensor:
    """Average over all axis permutations, materialized one by one."""
    n = f.order
    if n <= 1:
        return Tensor(f.coeffs)
    acc = np.zeros_like(f.coeffs)
    perms = list(itertools.permutations(range(n)))
    for perm in perms:
        acc += np.transpose(f.coeffs, perm)
    return Tensor(acc / len(perms))


def sheet_power_variance_quadrature(betas, tol: float = 1e-10) -> float:
    """Variance of the normalized sheet power statistic by quadrature.

    Var F = 2 * prod_a dblquad( x^{2b} y^{2b} min(x,y)^2 ) by Wick's
    theorem and the product structure of the sheet covariance; the
    normalization contributes prod (2b+2).  scipy is imported here, not
    with the package, so that nothing else pays for it.
    """
    from scipy import integrate

    out = 2.0
    for b in betas:
        b = float(b)

        def lower(y, b=b):  # integrate over x < y then double
            val, _ = integrate.quad(
                lambda x: x ** (2.0 * b + 2.0) * y ** (2.0 * b),
                0.0, y, epsabs=tol, epsrel=tol)
            return val

        axis, _ = integrate.quad(lower, 0.0, 1.0, epsabs=tol, epsrel=tol)
        out *= 2.0 * axis * (2.0 * b + 2.0)
    return out


def tail_mass_kernel2(emb, weights) -> SymTensor:
    """The dense kernel of axis weights [(expo, cutoff), ...] on emb.

    Per axis dF' C dF, dF the row differences of emb.factor and C_ij the
    closed-form mass of u^(2 expo) over [max(m_i, m_j, cutoff), 1] at the
    midpoints m, not square-root steps; the Kronecker product of the axes.
    """
    m, incr = emb.midpoints, np.diff(emb.factor, axis=0, prepend=0.0)
    out = np.ones((1, 1))
    for expo, cutoff in weights:
        lo, p = np.maximum(np.maximum.outer(m, m), cutoff), 2.0 * expo + 1.0
        c = -np.log(lo) if p == 0.0 else (1.0 - lo**p) / p
        out = np.kron(out, incr.T @ c @ incr)
    return sym(out)
