"""Dense symmetric tensors over a finite orthonormal system.

A kernel of a multiple integral of order n over a d-dimensional
orthonormal system is an element of (R^d)^{(x) n}.  We store it as a
plain ndarray of shape (d,)*n and keep the symmetric ones in their own
type so downstream code can rely on index permutability without
rechecking it.

Orders up to 4 and d up to a few hundred (order 2) are the intended
regime; everything is dense.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Tensor",
    "SymTensor",
    "tensor",
    "sym",
    "basis_tensor",
    "symmetrize",
    "contract",
    "inner",
    "norm",
    "norm_sq",
    "add",
    "scale",
    "contraction_norm_sq",
]


class Tensor:
    """Order-n coefficient array, immutable.

    Parameters
    ----------
    coeffs : array_like
        Shape (d,)*n for some d >= 1, or shape () for order 0.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs):
        a = np.array(coeffs, dtype=float)  # copy, we own it
        if a.ndim > 0:
            d = a.shape[0]
            if d < 1 or any(s != d for s in a.shape):
                raise ValueError(f"coefficient array must be square, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("non-finite coefficients")
        a.flags.writeable = False
        self._coeffs = a

    @property
    def coeffs(self) -> np.ndarray:
        return self._coeffs

    @property
    def order(self) -> int:
        return self._coeffs.ndim

    @property
    def dim(self):
        """Side length d, or None for order 0."""
        return self._coeffs.shape[0] if self._coeffs.ndim else None

    def item(self) -> float:
        if self.order != 0:
            raise ValueError("item() is only defined for order 0")
        return float(self._coeffs)

    def __repr__(self):
        return f"{type(self).__name__}(order={self.order}, dim={self.dim})"

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return self._coeffs.shape == other._coeffs.shape and bool(
            np.array_equal(self._coeffs, other._coeffs)
        )

    def __hash__(self):
        return hash((self._coeffs.shape, self._coeffs.tobytes()))


class SymTensor(Tensor):
    """Tensor whose coefficients are invariant under index permutation.

    Construction checks exact (bitwise) invariance under adjacent
    transpositions, which generate the full permutation group.  Use
    :func:`symmetrize` to project an arbitrary tensor onto this class.
    """

    __slots__ = ()

    def __init__(self, coeffs):
        super().__init__(coeffs)
        a = self._coeffs
        for ax in range(a.ndim - 1):
            if not np.array_equal(a, np.swapaxes(a, ax, ax + 1)):
                raise ValueError(
                    "coefficients are not exactly symmetric; apply symmetrize() first"
                )


def tensor(coeffs) -> Tensor:
    return Tensor(coeffs)


def sym(coeffs) -> SymTensor:
    """Symmetrize an arbitrary coefficient array and wrap it."""
    return symmetrize(Tensor(coeffs))


def basis_tensor(dim: int, *indices: int) -> Tensor:
    """Elementary tensor e_{i1} (x) ... (x) e_{in}, indices 0-based."""
    n = len(indices)
    a = np.zeros((dim,) * n)
    if any(not (0 <= i < dim) for i in indices):
        raise ValueError("basis index out of range")
    a[tuple(indices)] = 1.0
    return Tensor(a)


def _sort_rows(rows: np.ndarray) -> np.ndarray:
    """Sort each column of rows in place, as np.sort(rows, axis=0) would.

    An odd-even transposition network: n rounds of np.minimum/np.maximum
    over neighbouring rows, each a pass over whole rows rather than a
    sort of every length-n column.  One spare row is allocated.
    """
    n = len(rows)
    low = np.empty_like(rows[0])
    for r in range(n):
        for i in range(r % 2, n - 1, 2):
            np.minimum(rows[i], rows[i + 1], out=low)
            np.maximum(rows[i], rows[i + 1], out=rows[i + 1])
            rows[i] = low
    return rows


def symmetrize(t: Tensor) -> SymTensor:
    """Orthogonal projection onto symmetric tensors.

    Averages each coefficient over its permutation orbit.  The result is
    exactly symmetric (every slot of an orbit receives the same stored
    value), so the SymTensor constructor check passes bitwise.
    """
    a = t.coeffs
    n = a.ndim
    if n <= 1:
        return SymTensor(a)
    if n == 2:
        # cheap path; (a + a.T)/2 is bitwise symmetric because each pair of
        # mirror entries comes from the same two summands
        return SymTensor(0.5 * (a + a.T))
    # average within multisets of indices, held as bytes for d <= 256
    idx = np.indices(a.shape, dtype=np.min_scalar_type(a.shape[0] - 1)).reshape(n, -1)
    key = np.ravel_multi_index(tuple(_sort_rows(idx)), a.shape)
    sums = np.bincount(key, weights=a.ravel(), minlength=a.size)
    counts = np.bincount(key, minlength=a.size)
    avg = np.zeros(a.size)
    occupied = counts > 0
    avg[occupied] = sums[occupied] / counts[occupied]
    return SymTensor(avg[key].reshape(a.shape))


def contract(f: Tensor, g: Tensor, p: int) -> Tensor:
    """Contract the last p slots of f against the first p slots of g.

    p = 0 is the outer product.  Result has order f.order + g.order - 2p
    and is in general not symmetric even when f and g are.
    """
    n, m = f.order, g.order
    if not (0 <= p <= min(n, m)):
        raise ValueError(f"contraction order p={p} must satisfy 0 <= p <= min({n}, {m})")
    if n > 0 and m > 0 and f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {g.dim}")
    d = f.dim if f.dim is not None else g.dim
    if d is None:  # both order 0
        return Tensor(f.coeffs * g.coeffs)
    # matricize: (free x contracted) @ (contracted x free)
    fm = f.coeffs.reshape(d ** (n - p), d**p)
    gm = g.coeffs.reshape(d**p, d ** (m - p))
    out = fm @ gm
    return Tensor(out.reshape((d,) * (n + m - 2 * p)))


def inner(f: Tensor, g: Tensor) -> float:
    """Full Euclidean inner product of same-shape tensors."""
    if f.order != g.order or f.dim != g.dim:
        raise ValueError("inner product needs matching order and dimension")
    return float(np.vdot(f.coeffs, g.coeffs))


def norm_sq(f: Tensor) -> float:
    return float(np.vdot(f.coeffs, f.coeffs))


def norm(f: Tensor) -> float:
    return math.sqrt(norm_sq(f))


def add(f: Tensor, g: Tensor) -> Tensor:
    if f.order != g.order or f.dim != g.dim:
        raise ValueError("addition needs matching order and dimension")
    out = f.coeffs + g.coeffs
    if isinstance(f, SymTensor) and isinstance(g, SymTensor):
        return SymTensor(out)  # exact: entrywise sum of two symmetric arrays
    return Tensor(out)


def scale(f: Tensor, c: float) -> Tensor:
    out = float(c) * f.coeffs
    if isinstance(f, SymTensor):
        return SymTensor(out)
    return Tensor(out)


def contraction_norm_sq(f: SymTensor, p: int) -> float:
    """Squared norm of the p-th self-contraction of a symmetric kernel.

    For symmetric f, ||f (x)_p f||^2 = <f (x)_q f, f (x)_q f> with
    q = n - p as well, since both equal a full pairing of four copies of
    f.  We contract with q = max(p, n-p) so the intermediate tensor has
    order 2*(n - max(p, n-p)) <= n, never larger than f itself.
    """
    n = f.order
    if n < 1:
        raise ValueError("contraction norms need order >= 1")
    if not (0 <= p <= n):
        raise ValueError(f"p={p} out of range for order {n}")
    q = max(p, n - p)
    g = contract(f, f, q)
    return norm_sq(g)
