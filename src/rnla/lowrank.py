"""Randomized low-rank approximation: SRHT column sketch plus top-k extraction.

The pipeline sketches the columns of A through a right-side SRHT operator,
takes an orthonormal basis U_C of the sketched range, and extracts the top-k
directions of the projected matrix W = U_C^T A.  The returned basis
Utilde_k = U_C @ U_{W,k} satisfies an exact identity: projecting A onto it is
the same as keeping the best rank-k part of the projection U_C U_C^T A, which
is the best rank-k approximation of A inside the captured range.  Diagnostics
verify that identity, the range/tail error split, and the structural
inequality that drives the approximation guarantee.  They take A_k and the
tail ||A - A_k||_F^2 from the caller's exact thin SVD of A (svd_A); the
pipeline itself never factors A.  The solver's diagnostics reuse its own
factorization of W and its residual, so W is factored once per run.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import (ThinSVD, _thin_svd, as_matrix, orthonormal_basis,
                     pseudoinverse, thin_svd)
from .sampling import SampleSize
from .srht import SketchRankError, _refuse_default_width, make_srht, srht_apply

__all__ = [
    "LowRankResult",
    "LowRankDiagnostics",
    "lowrank_sample_size_explicit",
    "rand_low_rank",
    "rayleigh_ritz_identity_check",
    "structural_inequality_check",
    "column_sample_fro_check",
]


@dataclass(frozen=True)
class LowRankDiagnostics:
    """Per-run identity and decomposition checks (only when svd_A is given)."""

    identity_gap: float        # || (A - Uk Uk^T A) - (A - U_C (U_C^T A)_k) ||_F
    projected_tail_sq: float   # || A_k - U_C U_C^T A_k ||_F^2
    tail_sq: float             # || A - A_k ||_F^2
    basis_cols: int            # columns captured by U_C


@dataclass(frozen=True)
class LowRankResult:
    """Rank-k basis from one randomized run plus its realized error."""

    U_tilde_k: np.ndarray
    c_used: int
    error_fro: float        # ||A - Utilde_k Utilde_k^T A||_F
    seed: int
    diagnostics: LowRankDiagnostics | None = None


def lowrank_sample_size_explicit(n: int, k: int, eps: float) -> SampleSize:
    """Fully explicit sketch size (192 k ln(40nk)/eps^2) ln(192 sqrt(20) k ln(40nk)/eps^2).

    The only calculator with every constant spelled out; far exceeds n at
    desk scale, where rand_low_rank refuses it before allocating and
    accepts c_override instead.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0.0 < eps <= 0.5:
        raise ValueError("eps must lie in (0, 1/2]")
    lead = 192.0 * k * math.log(40.0 * n * k) / eps ** 2
    raw = lead * math.log(math.sqrt(20.0) * lead)
    return SampleSize(count=math.ceil(raw), raw=raw)


def rand_low_rank(A, k: int, eps: float, seed: int,
                  c_override: int | None = None,
                  svd_A: ThinSVD | None = None) -> LowRankResult:
    """Randomized rank-k approximation basis via an SRHT column sketch.

    Parameters
    ----------
    A : array_like, shape (m, n)
    k : int
        Target rank, 1 <= k <= min(m, n).
    eps : float
        Accuracy parameter in (0, 1/2).
    seed : int
        Operator seed.
    c_override : int, optional
        Sketch width instead of lowrank_sample_size_explicit; must be >= k.
        Without it, a theoretical width of at least next_pow2(n) raises
        ValueError.
    svd_A : ThinSVD, optional
        The caller's exact thin SVD of A.  When given, also verify the
        extraction identity and error split for this run.

    Raises
    ------
    SketchRankError
        If the projected matrix U_C^T A has rank below k (message names the
        c used); callers typically retry with doubled c.
    """
    A = as_matrix(A)
    m, n = A.shape
    if not 1 <= k <= min(m, n):
        raise ValueError(f"k={k} out of range for shape {A.shape}")
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    if c_override is None:
        c = lowrank_sample_size_explicit(n, k, eps).count
        _refuse_default_width("c", c, n, "c_override (--c)")
    else:
        c = int(c_override)
    if c < k:
        raise ValueError(f"sketch width c={c} is below the target rank k={k}")
    op = make_srht(n, c, seed, side="right")
    C = srht_apply(op, A)
    U_C = orthonormal_basis(C)
    fw, U_tilde, resid = _extract(A, U_C, k, f" at c = {c}")
    err = float(np.linalg.norm(resid, "fro"))
    diag = None
    if svd_A is not None:
        # Y = U_k Sigma_k: V_k has orthonormal columns, so no m x n A_k is needed.
        top = svd_A.truncate(k)
        Y = top.U * top.sigma
        diag = LowRankDiagnostics(
            identity_gap=_identity_gap(A, U_C, fw, resid, k),
            projected_tail_sq=float(np.linalg.norm(Y - U_C @ (U_C.T @ Y), "fro")) ** 2,
            tail_sq=float(np.sum(svd_A.sigma[k:] ** 2)),
            basis_cols=U_C.shape[1],
        )
    return LowRankResult(U_tilde_k=U_tilde, c_used=c, error_fro=err,
                         seed=int(seed), diagnostics=diag)


def _extract(A: np.ndarray, U_C: np.ndarray, k: int, where: str = ""):
    """(thin SVD of W = U_C^T A, Utilde_k = U_C U_{W,k}, A - Utilde_k Utilde_k^T A).

    Raises SketchRankError if rank(W) < k; ``where`` ends its message.
    """
    fw = thin_svd(U_C.T @ A)
    if fw.rank < k:
        raise SketchRankError(
            f"sketch rank deficient: rank(U_C^T A) = {fw.rank} < k = {k}{where}")
    U_tilde = U_C @ fw.U[:, :k]
    return fw, U_tilde, A - U_tilde @ (U_tilde.T @ A)


def _identity_gap(A, U_C, fw: ThinSVD, resid, k: int) -> float:
    return float(np.linalg.norm(resid - (A - U_C @ fw.truncate(k).reconstruct()), "fro"))


def rayleigh_ritz_identity_check(A, U_C, k: int) -> float:
    """Gap || (A - Uk Uk^T A) - (A - U_C (U_C^T A)_k) ||_F, ideally ~0.

    Uk here is the extracted basis U_C @ U_{W,k}; the identity says the
    extraction error equals the error of the best rank-k approximation taken
    inside range(U_C).  Raises if rank(U_C^T A) < k.  rand_low_rank computes
    the same gap from its own factorization of W rather than calling this.
    """
    A, U_C = as_matrix(A), as_matrix(U_C)
    fw, _, resid = _extract(A, U_C, k)
    return _identity_gap(A, U_C, fw, resid, k)


def structural_inequality_check(A, Z, k: int) -> tuple[float, float]:
    """Both sides of the rank-k sketch deviation inequality.

    Returns (lhs, rhs) with
        lhs = ||A_k - (A Z)(A Z)^+ A_k||_F^2
        rhs = ||(A - A_k) Z (V_k^T Z)^+||_F^2;
    callers assert lhs <= rhs (+ small slack).  Requires rank(V_k^T Z) = k.
    """
    A, Z = as_matrix(A), as_matrix(Z)
    if A.shape[1] != Z.shape[0]:
        raise ValueError(f"Z has {Z.shape[0]} rows, expected {A.shape[1]}")
    fa = _thin_svd(A)
    if fa.rank < k:
        raise ValueError(f"A has rank {fa.rank} < k = {k}")
    V_k = fa.V[:, :k]
    VZ = V_k.T @ Z
    # Rank measured against the scale of Z itself: a relative cutoff on VZ
    # alone would pass a numerically-zero product.
    s = np.linalg.svd(VZ, compute_uv=False)
    cut = 1e-12 * max(1.0, float(np.linalg.norm(Z, 2)))
    rank_vz = int(np.sum(s > cut))
    if rank_vz < k:
        raise ValueError(f"rank(V_k^T Z) = {rank_vz} < k = {k}: "
                         "sketch misses top singular directions")
    A_k = fa.truncate(k).reconstruct()
    AZ = A @ Z
    lhs = float(np.linalg.norm(A_k - AZ @ (pseudoinverse(AZ) @ A_k), "fro")) ** 2
    rhs = float(np.linalg.norm((A - A_k) @ Z @ pseudoinverse(VZ), "fro")) ** 2
    return lhs, rhs


def column_sample_fro_check(X, c: int) -> tuple[float, float]:
    """Enumerated E ||X S||_F^2 under uniform c-column sampling vs ||X||_F^2.

    Exhausts all n^c equally likely index tuples (capped at n <= 6, c <= 3)
    with the 1/sqrt(c p) rescaling; the two returned values agree to roundoff
    because the rescaled sampler is unbiased for the squared Frobenius norm.
    """
    X = as_matrix(X)
    n = X.shape[1]
    if c < 1:
        raise ValueError("c must be >= 1")
    if n > 6 or c > 3:
        raise ValueError(f"enumeration cap exceeded: n={n} > 6 or c={c} > 3")
    col_sq = np.sum(X * X, axis=0)
    p = 1.0 / n
    weight = p ** c
    expected = 0.0
    for tup in itertools.product(range(n), repeat=c):
        expected += weight * float(sum(col_sq[i] / (c * p) for i in tup))
    return expected, float(np.sum(col_sq))
