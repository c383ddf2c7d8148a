"""Dense linear algebra substrate: norms, thin SVD, pseudoinverse, truncation.

Every randomized routine in this package is judged against these deterministic
kernels, so they carry the tightest tolerances in the library.  Matrices are
plain 2-d float64 ndarrays in row-major (C) order.  Exported functions call
``as_matrix`` once at entry; private kernels take validated arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "as_matrix",
    "as_vector",
    "frobenius_norm",
    "spectral_norm",
    "ThinSVD",
    "thin_svd",
    "pseudoinverse",
    "orthonormal_basis",
]

# Singular values at or below RANK_RTOL * sigma_1 count as zero; for an exactly
# zero matrix the absolute floor applies instead.
RANK_RTOL = 1e-12
RANK_ZERO_FLOOR = 1e-300


def as_matrix(a) -> np.ndarray:
    """Validate and return ``a`` as a 2-d row-major float64 array.

    Raises ValueError on wrong dimensionality or non-finite entries.
    """
    m = np.ascontiguousarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return m


def as_vector(v) -> np.ndarray:
    """Validate and return ``v`` as a 1-d float64 array (finite entries)."""
    x = np.ascontiguousarray(v, dtype=np.float64)
    if x.ndim == 2 and 1 in x.shape:
        x = x.reshape(-1)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got ndim={x.ndim}")
    if not np.all(np.isfinite(x)):
        raise ValueError("vector entries must be finite (no NaN/Inf)")
    return x


def frobenius_norm(M) -> float:
    """Frobenius norm, sqrt of the sum of squared entries."""
    return float(np.linalg.norm(as_matrix(M), "fro"))


def spectral_norm(M) -> float:
    """Spectral norm, the largest singular value, from eigenvalues and no SVD.

    An exactly symmetric M has ||M||_2 = max |lambda(M)|, taken over both
    signs.  Otherwise the smaller Gram of M has M's squared singular values as
    its eigenvalues; its largest one is accurate relative to ||M||_2^2, so its
    root, clamped at 0, keeps ||M||_2 to roundoff.  An M whose largest entry
    lies outside [2**-257, 2**256), where its Gram could underflow or
    overflow, is first scaled by a power of two that brings that entry into
    [0.5, 1); such a scale is exact in the normal range.  Symmetry is checked
    on M, not assumed.  An empty M has norm 0.
    """
    return _spectral_norm(as_matrix(M))


def _spectral_norm(M: np.ndarray) -> float:
    """spectral_norm of an already validated matrix."""
    m, n = M.shape
    if M.size == 0:
        return 0.0
    if m == n and np.array_equal(M, M.T):
        return float(np.max(np.abs(np.linalg.eigvalsh(M))))
    e = int(np.frexp(max(M.max(), -M.min()))[1])
    if abs(e) > 256:
        M = np.ldexp(M, -e)
    else:
        e = 0
    G = M @ M.T if m <= n else M.T @ M
    return math.ldexp(math.sqrt(max(0.0, float(np.linalg.eigvalsh(G)[-1]))), e)


@dataclass(frozen=True)
class ThinSVD:
    """Thin SVD truncated at the numerical rank.

    U is m x rank, sigma has length rank (positive, non-increasing), V is
    n x rank, and U @ diag(sigma) @ V.T reconstructs the input to
    1e-10 * max(1, ||A||_F).
    """

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray
    rank: int

    def truncate(self, k: int) -> "ThinSVD":
        """The leading min(k, rank) factors, as views of these."""
        j = min(k, self.rank)
        return ThinSVD(U=self.U[:, :j], sigma=self.sigma[:j],
                       V=self.V[:, :j], rank=j)

    def reconstruct(self) -> np.ndarray:
        return (self.U * self.sigma) @ self.V.T

    def pinv(self) -> np.ndarray:
        """Pseudoinverse V @ diag(1/sigma) @ U.T; all zeros at rank 0."""
        return (self.V / self.sigma) @ self.U.T


def _rank_cutoff(s: np.ndarray) -> float:
    if s.size == 0 or s[0] <= 0.0:
        return RANK_ZERO_FLOOR
    return RANK_RTOL * float(s[0])


def thin_svd(M) -> ThinSVD:
    """Thin SVD of M with factors truncated at the numerical rank.

    Parameters
    ----------
    M : array_like, shape (m, n)
        Matrix to factor; must be non-empty.

    Returns
    -------
    ThinSVD
        Factors (U, sigma, V) with rank = number of singular values above
        the relative cutoff.  A zero matrix yields rank 0 and empty factors.
    """
    return _thin_svd(as_matrix(M))


def _thin_svd(M: np.ndarray) -> ThinSVD:
    """thin_svd of an already validated matrix."""
    m, n = M.shape
    if m == 0 or n == 0:
        raise ValueError("thin_svd: empty matrix")
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    rho = int(np.sum(s > _rank_cutoff(s)))
    return ThinSVD(U=U[:, :rho].copy(), sigma=s[:rho].copy(),
                   V=Vt[:rho, :].T.copy(), rank=rho)


def pseudoinverse(M) -> np.ndarray:
    """Moore-Penrose pseudoinverse via the thin SVD.

    Returns V @ diag(1/sigma) @ U.T; the zero matrix maps to the zero matrix
    of transposed shape.
    """
    return thin_svd(M).pinv()


def orthonormal_basis(M) -> np.ndarray:
    """Orthonormal basis Q for the column space of M, one column per rank.

    Computed from the thin SVD so the column count equals the numerical rank.
    Raises ValueError on a zero matrix (its column space is trivial).
    """
    f = thin_svd(M)
    if f.rank == 0:
        raise ValueError("orthonormal_basis: zero matrix has no basis")
    return f.U
