"""Dense linear algebra substrate: norms, thin SVD, pseudoinverse, truncation,
and a row-blocked QR of tall matrices.

Every randomized routine in this package is judged against these deterministic
kernels, so they carry the tightest tolerances in the library.  Matrices are
plain 2-d float64 ndarrays in row-major (C) order, except those built only to
be handed to LAPACK, which are built column-major, the order it reads.
Exported functions call ``as_matrix`` once at entry, except the two sketch
solvers, whose SRHT sketch refuses a non-finite A; private kernels take
validated arrays.

Every QR that keeps only R goes through ``_qr_r_in_place``, which hands a
column-major matrix that this module built to numpy's bundled ``dgeqrf``
binding (``numpy.linalg.lapack_lite``) to be factored where it lies.
``np.linalg.qr`` would copy its operand twice first, once in numpy and once
into LAPACK's layout.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import lapack_lite

__all__ = [
    "as_matrix",
    "as_vector",
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

# Float64 entries per block of every blocked kernel: the TSQR row blocks, the
# NaN/Inf scan, sampling's norm squares, the Hadamard butterflies and leaves,
# and the text writer.  128 KiB stays in cache, and below any malloc mmap
# threshold it comes from the heap, not fresh pages.  Measured larger, TSQR
# blocks (2**16 to 2**20: 45 to 111 against 44 ms at 131072 x 17) and
# butterfly pieces (2**15 to 2**18: 29 to 41 against 20 ms) ran slower, and
# writer blocks of 2**16 ran no faster at 4x the peak.
_BLOCK = 2 ** 14


def _first_nonfinite(x: np.ndarray) -> int | None:
    """Flat index of the first NaN or Inf in a contiguous 1-d array, or None.

    x is scanned a block at a time into one reused mask, so no mask of x's
    size is made.
    """
    mask = np.empty(min(x.size, _BLOCK), dtype=bool)
    for i in range(0, x.size, _BLOCK):
        block = x[i:i + _BLOCK]
        finite = np.isfinite(block, out=mask[:block.size])
        if not finite.all():
            return i + int(finite.argmin())
    return None


def _as_2d(a) -> np.ndarray:
    """``a`` as a 2-d row-major float64 array, with no scan of its entries.

    For callers whose first use of ``a`` refuses NaN/Inf itself, as an SRHT
    sketch does.  Raises ValueError on wrong dimensionality.
    """
    m = np.ascontiguousarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={m.ndim}")
    return m


def as_matrix(a) -> np.ndarray:
    """Validate and return ``a`` as a 2-d row-major float64 array.

    Raises ValueError on wrong dimensionality or non-finite entries.
    """
    m = _as_2d(a)
    if _first_nonfinite(m.reshape(-1)) is not None:
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return m


def as_vector(v) -> np.ndarray:
    """Validate and return ``v`` as a 1-d float64 array (finite entries)."""
    x = np.ascontiguousarray(v, dtype=np.float64)
    if x.ndim == 2 and 1 in x.shape:
        x = x.reshape(-1)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got ndim={x.ndim}")
    if _first_nonfinite(x) is not None:
        raise ValueError("vector entries must be finite (no NaN/Inf)")
    return x


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
    # M and its Gram are exactly symmetric, so each is passed transposed: the
    # same values, column-major, which LAPACK reads without a transposing copy.
    if m == n and np.array_equal(M, M.T):
        return float(np.max(np.abs(np.linalg.eigvalsh(M.T))))
    e = int(np.frexp(max(M.max(), -M.min()))[1])
    if abs(e) > 256:
        M = np.ldexp(M, -e)
    else:
        e = 0
    G = M @ M.T if m <= n else M.T @ M
    return math.ldexp(math.sqrt(max(0.0, float(np.linalg.eigvalsh(G.T)[-1]))), e)


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
    return ThinSVD(U=np.ascontiguousarray(U[:, :rho]), sigma=s[:rho],
                   V=Vt[:rho].T.copy(), rank=rho)


def _tall_qr(blocks: tuple) -> np.ndarray:
    """R of the reduced Householder QR of M = [B_1, ..., B_j] (TSQR, R only).

    The blocks are validated arrays of equal height m, each 2-d or 1-d (one
    column), k columns in all.  M is cut into row blocks of max(16k,
    _BLOCK // k) rows (one block up to k = 32; above, the stack stays m/16
    rows), and a tail shorter than k rows joins the block before it.  Each
    full-size block is copied from the B_i into one reused column-major
    buffer and factored there; the last block is copied into its own.  Only
    each R_i is kept, in a column-major stack [R_1; ...; R_p] that is
    factored once more for R.  An M under two blocks is copied column-major
    and factored whole, a lone B_1 too (the low-rank oracle's A): that one
    copy replaces the two np.linalg.qr would make.  No Q is formed.
    (Demmel, Grigori, Hoemmen & Langou, SISC 2012.)

    geqrf sees the same values as when np.linalg.qr factored row-major
    blocks one at a time, with the same workspace, so R is bit-identical.
    """
    cols = [B.reshape(B.shape[0], -1) for B in blocks]
    m, k = cols[0].shape[0], sum(c.shape[1] for c in cols)
    rows = max(16 * k, _BLOCK // k)
    if m < 2 * rows:
        return _qr_r_in_place(_hstack_f(cols))
    # full full-size blocks, then the last one, rows full * rows:m, with the tail.
    full = (m - k) // rows
    Rs = np.empty((k, (full + 1) * k)).T
    buf = np.empty((k, rows)).T
    for i in range(full):
        Rs[i * k:(i + 1) * k] = _qr_r_in_place(_gather(cols, i * rows, buf))
    Rs[-k:] = _qr_r_in_place(_hstack_f([c[full * rows:] for c in cols]))
    return _qr_r_in_place(Rs)


def _qr_r_in_place(M: np.ndarray) -> np.ndarray:
    """R of the reduced Householder QR of M, a column-major m x n float64
    matrix that the caller built for this call; M is overwritten.

    M.T, the C-contiguous (n, m) array that holds M, goes to numpy's bundled
    dgeqrf binding, which refuses any other layout, and LAPACK factors it
    where it lies.  R is the upper triangle of M's top min(m, n) rows, as
    np.linalg.qr(M, mode="r") returns it, and has its bits: the workspace is
    the one numpy's qr asks for, so geqrf takes the same blocked path.
    Raises np.linalg.LinAlgError if dgeqrf reports an error.
    """
    m, n = M.shape
    lwork = _geqrf_lwork(m, n)
    out = lapack_lite.dgeqrf(m, n, M.T, max(1, m), np.empty(min(m, n)),
                             np.empty(lwork), lwork, 0)
    if out["info"] != 0:
        raise np.linalg.LinAlgError(f"dgeqrf failed with info={out['info']}")
    return np.triu(M[:min(m, n)])


@functools.lru_cache(maxsize=64)
def _geqrf_lwork(m: int, n: int) -> int:
    """dgeqrf's workspace for an m x n matrix: its optimal size, at least
    max(1, n), as numpy's qr asks.  A shorter one would drop geqrf to its
    unblocked code above n = 128 and change R's bits.  A query reads no matrix,
    so one scalar stands in for every array."""
    work = np.empty(1)
    lapack_lite.dgeqrf(m, n, work, max(1, m), work, work, -1, 0)
    return max(1, n, int(work[0]))


def _hstack_f(cols: list) -> np.ndarray:
    """np.hstack of 2-d blocks of equal height, built column-major for LAPACK."""
    return _gather(cols, 0, np.empty((sum(c.shape[1] for c in cols), len(cols[0]))).T)


def _gather(cols: list, lo: int, out: np.ndarray) -> np.ndarray:
    """Fill out, (rows, k), with rows lo:lo + rows of [B_1, ..., B_j]; return out."""
    j = 0
    for c in cols:
        w = c.shape[1]
        out[:, j:j + w] = c[lo:lo + len(out)]
        j += w
    return out


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
