"""Randomized low-rank approximation: SRHT column sketch plus top-k extraction.

The pipeline sketches the columns of A through a right-side SRHT operator,
takes an orthonormal basis U_C of the sketched range, and extracts the top-k
directions of the projected matrix W = U_C^T A.  The returned basis
Utilde_k = U_C @ U_{W,k} satisfies an exact identity: projecting A onto it is
the same as keeping the best rank-k part of the projection U_C U_C^T A, which
is the best rank-k approximation of A inside the captured range.  The
solver's diagnostics measure that identity and the range/tail error split.
They take A_k's left factor U_k Sigma_k and the tail ||A - A_k||_F^2 from the
caller's `exact_low_rank` record (exact); the pipeline never factors A.  The
identity is measured on the solver's own factorization of W and its residual,
so W is factored once per run.  The diagnostics carry their own verdicts,
identity_ok and split_ok, at the tolerances documented on LowRankDiagnostics,
as lsq's ConditionReport carries cond22_pass and cond23_pass.
structural_inequality_check evaluates both sides of the structural
inequality that drives the approximation guarantee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (_tall_qr, _thin_svd, as_matrix, orthonormal_basis,
                     pseudoinverse, thin_svd)
from .sampling import SampleSize
from .srht import SketchRankError, _refuse_default_width, make_srht, srht_apply

__all__ = [
    "ExactLowRank", "exact_low_rank",
    "LowRankResult",
    "LowRankDiagnostics",
    "lowrank_sample_size_explicit",
    "rand_low_rank",
    "structural_inequality_check",
]


@dataclass(frozen=True)
class LowRankDiagnostics:
    """Per-run identity and decomposition checks (only when exact is given)."""

    identity_gap: float        # || (A - Uk Uk^T A) - (A - U_C (U_C^T A)_k) ||_F
    projected_tail_sq: float   # || A_k - U_C U_C^T A_k ||_F^2
    tail_sq: float             # || A - A_k ||_F^2
    basis_cols: int            # columns captured by U_C
    identity_ok: bool          # identity_gap <= 1e-9 max(1, ||A||_F)
    split_ok: bool             # error_fro^2 <= projected_tail_sq + tail_sq + 1e-8


@dataclass(frozen=True)
class LowRankResult:
    """Rank-k basis from one randomized run plus its realized error."""

    U_tilde_k: np.ndarray
    c_used: int
    error_fro: float        # ||A - Utilde_k Utilde_k^T A||_F
    diagnostics: LowRankDiagnostics | None = None


@dataclass(frozen=True)
class ExactLowRank:
    """A's singular values above RANK_RTOL * sigma_1 (sigma.size is its rank),
    and Y = U_A[:, :j] diag(sigma[:j]), j = min(k, rank): A_k = Y V_k^T."""

    sigma: np.ndarray
    Y: np.ndarray


def exact_low_rank(A, k: int) -> ExactLowRank:
    """`_exact_low_rank` of A; pass it to `rand_low_rank` as `exact`."""
    A = as_matrix(A)
    if not 1 <= k <= min(A.shape):
        raise ValueError(f"k={k} out of range for shape {A.shape}")
    return _exact_low_rank(A, k)


def _exact_low_rank(A, k: int) -> ExactLowRank:
    """The R-SVD (Chan, ACM TOMS 1982), with no Q: M = A if m >= n, else A^T,
    is (Q U_R) diag(sigma) V_R^T for the R of linalg's `_tall_qr`, and
    Y = A V_R[:, :j] if m >= n, else V_R[:, :j] diag(sigma[:j]) (U_A = V_R)."""
    tall = A.shape[0] >= A.shape[1]
    f = _thin_svd(_tall_qr((A if tall else A.T,)))
    j = min(k, f.rank)
    Y = A @ f.V[:, :j] if tall else f.V[:, :j] * f.sigma[:j]
    return ExactLowRank(sigma=f.sigma, Y=Y)


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
                  exact: ExactLowRank | None = None) -> LowRankResult:
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
    exact : ExactLowRank, optional
        `exact_low_rank(A, k)`.  When given, also verify the extraction
        identity and error split for this run; its Y must be m x min(k, rank).

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
    if exact is not None and exact.Y.shape != (m, min(k, exact.sigma.size)):
        raise ValueError(f"exact.Y is {exact.Y.shape}, not {(m, min(k, exact.sigma.size))}")
    op = make_srht(n, c, seed, side="right")
    U_C = orthonormal_basis(srht_apply(op, A))
    fw = thin_svd(U_C.T @ A)
    if fw.rank < k:
        raise SketchRankError(
            f"sketch rank deficient: rank(U_C^T A) = {fw.rank} < k = {k} at c = {c}")
    U_tilde = U_C @ fw.U[:, :k]
    resid = U_tilde @ (U_tilde.T @ A)
    err = float(np.linalg.norm(np.subtract(A, resid, out=resid), "fro"))
    diag = None
    if exact is not None:
        T = U_C @ fw.truncate(k).reconstruct()  # one m x n buffer for the gap
        np.subtract(A, T, out=T)                # A - U_C (U_C^T A)_k
        gap = float(np.linalg.norm(np.subtract(resid, T, out=T), "fro"))
        # Y = U_k Sigma_k: V_k has orthonormal columns, so no m x n A_k is needed.
        Y = exact.Y
        proj_sq = float(np.linalg.norm(Y - U_C @ (U_C.T @ Y), "fro")) ** 2
        tail_sq = float(np.sum(exact.sigma[k:] ** 2))
        diag = LowRankDiagnostics(
            gap, proj_sq, tail_sq, U_C.shape[1],
            identity_ok=gap <= 1e-9 * max(1.0, float(np.linalg.norm(A, "fro"))),
            split_ok=err ** 2 <= proj_sq + tail_sq + 1e-8)
    return LowRankResult(U_tilde_k=U_tilde, c_used=c, error_fro=err,
                         diagnostics=diag)


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
