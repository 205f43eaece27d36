"""Multiple integrals of a finite Gaussian system and their algebra.

With xi = (xi_1, ..., xi_d) i.i.d. standard normal, the order-n integral
of a symmetric kernel f is the polynomial

    I_n(f)(xi) = sum over index tuples t of f[t] * prod_j He_{m_j}(xi_j)

where m_j counts how often coordinate j appears in t and He_k is the
probabilists' Hermite polynomial.  The I_n are centered for n >= 1,
orthogonal across orders, and satisfy E[I_n(f)^2] = n! * ||f||^2.

This module evaluates these polynomials, multiplies them (the product of
two integrals expands into a finite chaos sum via contractions), and
computes second and fourth moments in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensors import (
    SymTensor,
    Tensor,
    contract,
    contraction_norm_sq,
    norm_sq,
    scale,
    symmetrize,
)

__all__ = [
    "hermite",
    "eval_integral",
    "ChaosElement",
    "eval_chaos_element",
    "product_formula",
    "second_moment_exact",
    "fourth_moment_exact",
    "excess_kurtosis_exact",
    "contraction_profile",
    "sample_integral",
    "HSOperator",
    "hs_operator",
    "cumulant",
    "char_function",
    "sample_integral2_spectral",
]


def hermite(k: int, x):
    """Probabilists' Hermite polynomial He_k evaluated elementwise.

    He_0 = 1, He_1 = x, He_{k+1} = x*He_k - k*He_{k-1}.
    """
    if k < 0 or k != int(k):
        raise ValueError("degree must be a nonnegative integer")
    x = np.asarray(x, dtype=float)
    prev, he = np.zeros_like(x), np.ones_like(x)
    for j in range(int(k)):
        prev, he = he, x * he - j * prev
    return he


_ROW_BLOCK = 1 << 20  # entries of the d^m x rows working array
_DRAW_BLOCK = 1 << 15  # variates of one block of draws (256 KB)


def eval_integral(f: Tensor, xi) -> np.ndarray | float:
    """Evaluate I_n(f) at one or many standard-normal coordinate vectors.

    Parameters
    ----------
    f : Tensor
        Kernel of order n.  Only the symmetric part contributes to the
        integral; a plain Tensor of any order is symmetrized on entry.
    xi : array_like
        Shape (d,) or (N, d).  Returns a scalar or an (N,) array.

    Every order goes through the Hermite expansion of a multiple integral

        I_n(f)(x) = sum_{k=0}^{n//2} (-1)^k n! / (2^k k! (n-2k)!)
                    <tr^k f, x^(x)(n-2k)>,

    where tr^k f contracts k pairs of slots.  It is evaluated Horner-style
    with the rows last: the working array v is (d^m, rows) while m slots
    are open, and the scaled k-fold trace is added in place, as a
    (d^m, 1) column, when m = n - 2k.  Up to order 3 one slot is
    contracted per step, against the rows x' (d, rows); from order 4 two
    at a time, against the pair rows x (x) x (d^2, rows), and an odd
    order ends with one single-slot step.  A pair step moves from m to
    m - 2, so it passes every trace order n - 2k.  The first step is one
    matrix product, f matricized against all rows at once, and each later
    one an einsum over the contracted slots with the rows innermost.
    The cost is O(N d^n).  Rows go through in fixed blocks of at most
    _ROW_BLOCK / d^max(n-s, 1) rows (s the slots of the first step, and
    at least one row), so the array after the first step and, from
    order 3, the rows' contiguous (d, rows) copy each hold at most
    _ROW_BLOCK entries whatever N is; sample_integral's transposed
    (d, block) fills need no copy while one block of rows covers them.
    """
    xi = np.asarray(xi, dtype=float)
    single = xi.ndim == 1
    if single:
        xi = xi[None, :]
    if xi.ndim != 2:
        raise ValueError("xi must have shape (d,) or (N, d)")
    n, d = f.order, xi.shape[1]
    if n and f.dim != d:
        raise ValueError(f"kernel dimension {f.dim} vs coordinate dimension {d}")
    if not isinstance(f, SymTensor):
        f = symmetrize(f)
    # (-1)^k C(n, 2k) (2k-1)!! tr^k f as a column, keyed by its order n - 2k
    traces, t = {n: f.coeffs.reshape(-1, 1)}, f.coeffs
    for k in range(1, n // 2 + 1):
        t = np.trace(t, axis1=-2, axis2=-1)
        c = (-1) ** k * math.comb(n, 2 * k) * math.prod(range(1, 2 * k, 2))
        traces[n - 2 * k] = c * t.reshape(-1, 1)
    pairs = n >= 4
    rows = max(1, _ROW_BLOCK // d ** max(n - 1 - pairs, 1))
    out = np.empty(xi.shape[0])
    for start in range(0, xi.shape[0], rows):
        x = xi[start:start + rows].T  # (d, rows)
        if n >= 3:  # read once per output row of an einsum step: rows innermost
            x = np.ascontiguousarray(x)
        xx = (x[:, None] * x).reshape(d * d, -1) if pairs else None
        v, m = traces[n], n
        while m:
            step = 2 if pairs and m >= 2 else 1
            y = xx if step == 2 else x
            if m == n:  # f is shared by all rows: one matrix product
                v = v.reshape(-1, len(y)) @ y
            else:
                v = np.einsum("jkr,kr->jr", v.reshape(-1, *y.shape), y)
            m -= step
            if m in traces:
                v += traces[m]
        out[start:start + rows] = v[0]
    return float(out[0]) if single else out


@dataclass(frozen=True)
class ChaosElement:
    """Finite sum of multiple integrals, one symmetric kernel per order.

    terms maps order -> kernel; the order-0 entry, if present, is a
    shape-() tensor holding the constant part.
    """

    terms: dict

    def __post_init__(self):
        for n, f in self.terms.items():
            if f.order != n:
                raise ValueError(f"kernel stored at order {n} has order {f.order}")

    @property
    def mean(self) -> float:
        t0 = self.terms.get(0)
        return t0.item() if t0 is not None else 0.0

    def orders(self):
        return sorted(self.terms)

    def __call__(self, xi):
        return eval_chaos_element(self, xi)


def eval_chaos_element(c: ChaosElement, xi):
    """The sum of the terms' eval_integral values: a float or an (N,) array."""
    xi = np.asarray(xi, dtype=float)
    zero = 0.0 if xi.ndim == 1 else np.zeros(len(xi))
    return sum((eval_integral(f, xi) for f in c.terms.values()), zero)


def product_formula(f: SymTensor, g: SymTensor) -> ChaosElement:
    """Expand I_n(f) * I_m(g) as a chaos element.

    I_n(f) I_m(g) = sum_{r=0}^{min(n,m)} r! C(n,r) C(m,r)
                    I_{n+m-2r}(symmetrize(f (x)_r g)).

    The identity is exact for the polynomial evaluation above, so both
    sides agree pointwise, not only in distribution.
    """
    if not isinstance(f, SymTensor) or not isinstance(g, SymTensor):
        raise TypeError("product formula needs symmetric kernels")
    n, m = f.order, g.order
    if n < 1 or m < 1:
        raise ValueError("orders must be >= 1")
    if f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {g.dim}")
    terms = {}
    for r in range(min(n, m) + 1):
        coeff = math.factorial(r) * math.comb(n, r) * math.comb(m, r)
        h = symmetrize(contract(f, g, r))
        if not np.any(h.coeffs):
            continue  # identically zero contribution, e.g. disjoint supports
        terms[n + m - 2 * r] = scale(h, coeff)
    return ChaosElement(terms)


def second_moment_exact(f: SymTensor) -> float:
    """E[I_n(f)^2] = n! * ||f||^2."""
    if not isinstance(f, SymTensor):
        raise TypeError("the exact moments need a SymTensor; apply symmetrize() first")
    n = f.order
    if n < 1:
        raise ValueError("order must be >= 1")
    return math.factorial(n) * norm_sq(f)


def fourth_moment_exact(f: SymTensor) -> float:
    """E[I_n(f)^4], exactly, from contraction norms (Nualart-Peccati 2005):

        3 (n!)^2 ||f||^4 + sum_{p=1}^{n-1} (n! C(n,p))^2
            (||f (x)_p f||^2 + C(2n-2p, n-p) ||symmetrize(f (x)_p f)||^2).

    The product formula's order-2n term ||symmetrize(f (x) f)||^2 is
    C(2n,n)^-1 sum_r C(n,r)^2 ||f (x)_r f||^2 (count the permutations of
    2n slots by how many cross between the blocks of n), so no tensor
    above order 2n - 2 is formed.  n = 2 gives 12||F||^4 + 48 trace(F^4).
    """
    return _fourth_moment_and_contractions(f)[0]


def _fourth_moment_and_contractions(f: SymTensor) -> tuple:
    """E[I_n(f)^4] and ||f (x)_p f||^2 for p = 1..n-1, one contraction each."""
    if not isinstance(f, SymTensor):
        raise TypeError("the exact moments need a SymTensor; apply symmetrize() first")
    n = f.order
    if n < 1:
        raise ValueError("order must be >= 1")
    nf = math.factorial(n)
    total, norms = 3 * nf**2 * norm_sq(f) ** 2, []
    for p in range(1, n):
        g = contract(f, f, p)
        norms.append(norm_sq(g))
        cross = math.comb(2 * n - 2 * p, n - p) * norm_sq(symmetrize(g))
        total += (nf * math.comb(n, p)) ** 2 * (norms[-1] + cross)
    return total, tuple(norms)


def excess_kurtosis_exact(f: SymTensor | HSOperator) -> float:
    """E[I_n(f)^4]/E[I_n(f)^2]^2 - 3 for a nonzero kernel, at any scale:
    its unit-variance row's excess (_unit_variance; spectral at order 2)."""
    excess = _unit_variance(f)[4]
    if math.isnan(excess):
        raise ValueError("kernel has zero variance")
    return excess


def contraction_profile(f: SymTensor) -> tuple:
    """Norms ||f (x)_p f|| for p = 1..n-1, the fourth-moment certificates.

    All of them vanishing in a sequence with fixed variance is equivalent
    to the sequence's fourth moments approaching the Gaussian value.
    """
    n = f.order
    if n < 1:
        raise ValueError("order must be >= 1")
    return tuple(math.sqrt(contraction_norm_sq(f, p)) for p in range(1, n))


def _blocked_draws(evaluate, fill, width: int, n_samples: int) -> np.ndarray:
    """evaluate(x) on blocks x of ~_DRAW_BLOCK variates, one column per draw.

    fill is a generator's method (rng.standard_normal, rng.random).  One
    (width, block) buffer, allocated after the output so that freeing it
    leaves no hole below the output in the heap, is refilled in place,
    fill(x.shape, out=x), for every block, and evaluate may overwrite it.
    block is the largest power of two <= _DRAW_BLOCK / width, at least 1,
    so the buffer holds between _DRAW_BLOCK / 2 and _DRAW_BLOCK variates
    at every width up to _DRAW_BLOCK.  It depends on width only; every
    block is whole and the last one's extra draws are dropped.  So draw i
    is column i % block of block i // block: the same bits at any
    n_samples, in any thread.
    """
    block = 1 << max((_DRAW_BLOCK // max(width, 1)).bit_length() - 1, 0)
    out, x = np.empty(n_samples), np.empty((width, block))
    for start in range(0, n_samples, block):
        take = min(block, n_samples - start)
        out[start:start + take] = evaluate(fill(x.shape, out=x))[:take]
    return out


def sample_integral(f: Tensor, n_samples: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Draws of I_n(f) on fresh normals, in blocks of _blocked_draws."""
    f = f if isinstance(f, SymTensor) else symmetrize(f)  # once, not per block
    d = f.dim if f.dim is not None else 1
    return _blocked_draws(lambda x: eval_integral(f, x.T), rng.standard_normal,
                          d, n_samples)


@dataclass(frozen=True, eq=False)
class HSOperator:
    """Symmetric Hilbert-Schmidt operator, held as its spectrum.

    It carries no matrix: power sums, cumulants and draws read
    eigenvalues only, which may omit structural zeros.  hs_operator
    builds one from a dense kernel; an embedded functional's comes from
    embeddings.kernel2_spectrum.
    """

    eigenvalues: np.ndarray


def hs_operator(kernel: SymTensor) -> HSOperator:
    """The spectrum of an order-2 SymTensor, by one dense eigvalsh.

    A SymTensor is exactly symmetric, as eigvalsh assumes (sym() makes one).
    """
    if not isinstance(kernel, SymTensor) or kernel.order != 2:
        raise TypeError("hs_operator needs an order-2 SymTensor; apply sym() first")
    lam = np.linalg.eigvalsh(kernel.coeffs)
    lam.flags.writeable = False
    return HSOperator(lam)


def cumulant(op: HSOperator, order: int) -> float:
    """Cumulant of I_2 of the kernel: kappa_j = 2^{j-1} (j-1)! sum lambda^j.

    kappa_1 = 0 (centered), kappa_2 is the variance 2 sum lambda^2.
    """
    j = int(order)
    if j < 1 or j != order:
        raise ValueError(f"cumulant order must be a positive integer, got {order}")
    if j == 1:
        return 0.0
    return float(2 ** (j - 1) * math.factorial(j - 1) * np.sum(op.eigenvalues**j))


def _binary_exponent(x) -> int:
    """k with every |x| < 2^k (or 0): x 2^-k is exact and lies in [-1, 1)."""
    return int(np.frexp(max(np.max(x, initial=0.0), -np.min(x, initial=0.0)))[1])


def _unit_variance(f, scale: float = 1.0) -> tuple:
    """The exact row of f, an HSOperator or a SymTensor of any order:
    (kappa_2 scale^2, g, E g^2, E g^4, excess, ||g (x)_p g||^2 for p < n).

    g is f at unit variance, of f's type, or an HSOperator for an order-2
    SymTensor: the one place a kernel becomes exact columns.  f is first
    scaled by 2^-k into [-1, 1) (exact; a SymTensor stays symmetric), so
    a kappa_2 outside double range keeps its ratios, and k and scale's
    exponent come back in one final ldexp: kappa_2 scale^2 keeps every
    bit in double range, else reads inf or 0.  A zero kernel gives g = f,
    zero moments and NaN excess.  A spectrum's ratios are cumulants: at
    unit variance ||g (x)_1 g||^2 = excess/48.
    """
    f = hs_operator(f) if isinstance(f, SymTensor) and f.order == 2 else f
    if isinstance(f, HSOperator):
        k = _binary_exponent(f.eigenvalues)
        lam = np.ldexp(f.eigenvalues, -k)
        v = cumulant(HSOperator(lam), 2)
        g = HSOperator(lam / math.sqrt(v)) if v > 0 else f
        k2 = cumulant(g, 2)
        excess = cumulant(g, 4) / (k2 * k2) if k2 > 0 else math.nan
        m2, m4, norms = ((1.0, 3.0 + excess, (excess / 48.0,)) if k2 > 0
                         else (0.0, 0.0, (0.0,)))
    else:  # of f's type, so second_moment_exact refuses a plain Tensor
        k = _binary_exponent(f.coeffs)
        f = type(f)(np.ldexp(f.coeffs, -k))
        v = second_moment_exact(f)
        g = SymTensor(f.coeffs * (1.0 / math.sqrt(v))) if v > 0 else f
        m2 = second_moment_exact(g)
        m4, norms = _fourth_moment_and_contractions(g)
        excess = m4 / (m2 * m2) - 3.0 if m2 > 0 else math.nan
    m, e = math.frexp(scale)
    with np.errstate(over="ignore"):
        var = float(np.ldexp(v * (m * m), 2 * (k + e)))
    return var, g, m2, m4, excess, norms


def char_function(op: HSOperator, freq):
    """E[exp(i u I_2)] = prod_k exp(-i u lam_k) / sqrt(1 - 2 i u lam_k).

    Evaluated in log space; 1 - 2iul has positive real part so the
    principal branch is the right one.  Vectorized over freq.
    """
    u = np.asarray(freq, dtype=float)
    z = 1.0 - 2.0j * np.multiply.outer(u, op.eigenvalues)
    logphi = np.sum(-1.0j * np.multiply.outer(u, op.eigenvalues) - 0.5 * np.log(z), axis=-1)
    out = np.exp(logphi)
    return complex(out) if np.isscalar(freq) or np.asarray(freq).ndim == 0 else out


def sample_integral2_spectral(op: HSOperator, n_samples: int,
                              rng: np.random.Generator) -> np.ndarray:
    """Draws of an order-2 integral through its eigendecomposition.

    I_2(F) equals sum_k lambda_k (eta_k^2 - 1) in distribution with eta
    i.i.d. standard normal, which costs O(rank) per draw instead of O(d^2)
    work and is the workhorse for the large sweep grids.  op is the
    kernel's HSOperator (hs_operator of a dense kernel); it draws only for
    the eigenvalues it holds, so structural zeros it omits cost nothing.

    The squares come two at a time from uniforms (Box-Muller): for a pair
    (a, b), E = (eta_a^2 + eta_b^2)/2 is Exp(1), independent of the angle
    theta, and lambda_a eta_a^2 + lambda_b eta_b^2 = E s + E d cos(2 theta)
    with s = lambda_a + lambda_b, d = lambda_a - lambda_b.  The spectrum
    is paired in its order, a 0 appended at odd rank, and a draw of m
    pairs reads one column of 2m uniforms U: L = log(1 - U) = -E from the
    first m (1 - U is exact for 53-bit uniforms), and T = tan(pi U / 2)
    from the last m.  c = (T^2 - 1)/(T^2 + 1) = -cos(pi U) has the arcsine
    law of cos(2 theta), and E s + E d c = 2 lambda_a E - 2 d E/(1 + T^2),
    so with q = L/(1 + T^2) a draw is sum_j (-2 lambda_a) L_j + 2 d_j q_j
    - sum_k lambda_k, one log and one tan per pair: numpy vectorizes tan
    but not the float64 sine (1.5 against 11-14 ns on an AVX-512 Xeon
    core, numpy 2.4).

    Uniforms fill the (2m, block) buffer of _blocked_draws, one column per
    draw.  Seven in-place passes over it leave L and q in its rows, and
    two gemv calls reduce each column the same way at any n_samples: draw
    i is bit-identical in every call on the same stream.
    """
    if not isinstance(op, HSOperator):
        raise TypeError("spectral sampling needs an HSOperator; use hs_operator")
    lam = np.append(op.eigenvalues, np.zeros(op.eigenvalues.size % 2))
    a, d2 = -2.0 * lam[0::2], 2.0 * (lam[0::2] - lam[1::2])
    m, total = a.size, np.sum(op.eigenvalues)

    def evaluate(u):
        e, q = u[:m], u[m:]
        np.log(np.subtract(1.0, e, out=e), out=e)  # L
        np.tan(np.multiply(q, 0.5 * np.pi, out=q), out=q)  # T
        np.square(q, out=q)
        q += 1.0
        np.divide(e, q, out=q)  # q
        return a @ e + d2 @ q - total

    return _blocked_draws(evaluate, rng.random, 2 * m, n_samples)
