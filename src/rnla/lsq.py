"""Sketch-and-solve overdetermined least squares with runtime diagnostics.

The randomized solver compresses (A, b) through a left-side SRHT operator and
solves the small r x d problem exactly.  Whether a particular realized sketch
was good is checkable after the fact: with X the realized operator, U_A an
orthonormal basis of range(A) and bperp the part of b outside that range, the
two conditions

    sigma_min^2(X U_A) >= 1/sqrt(2)
    ||(X U_A)^T (X bperp)||^2 <= eps * Z^2 / 2

together force the sketched solution's residual to within sqrt(1+eps) of the
optimum Z and bound the forward error by sqrt(eps) * Z / sigma_min(A).  The
ConditionReport carries exactly these quantities; the second threshold gets
a roundoff floor, so that exact solves of consistent systems (Z ~ 0) pass.

The diagnostics need no basis of range(A).  With A = U_A Sigma V^T,
X U_A = (X A) V Sigma^-1 comes from the sketch the solve already took, and
only the single column bperp = b - A x_opt is transformed a second time: the
shortcut X b - (X A) x_opt cancels catastrophically when Z << ||b||, which
is the consistent-system case where cond23 compares roundoff with roundoff.
The caller passes Sigma, V, x_opt, Z and bperp as one `ExactLsq` record,
which `exact_least_squares` (and the harness's oracle, the private
`_exact_solve`) computes from one R-only blocked QR of [A, b]; the solver
itself touches A only through the sketch, and checks rank on the sketch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import _tall_qr, _thin_svd, as_matrix, as_vector, thin_svd
from .sampling import SampleSize
from .srht import (OpCounter, SketchRankError, _refuse_default_width,
                   make_srht, srht_apply)

__all__ = [
    "LsqSolution",
    "ConditionReport",
    "ExactLsq",
    "exact_least_squares",
    "ls_sample_size",
    "rand_least_squares",
    "check_conditions",
]

COND22_THRESHOLD = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class ConditionReport:
    """Realized-sketch diagnostics for one randomized solve."""

    sigma_min_sq: float     # sigma_min^2 of the sketched basis X U_A
    cross_term: float       # ||(X U_A)^T (X bperp)||_2^2
    Z: float                # optimal residual ||A x_opt - b||
    cond22_pass: bool       # sigma_min_sq >= 1/sqrt(2)
    cond23_pass: bool       # cross_term <= eps * Z^2 / 2 + bperp_err^2


@dataclass(frozen=True)
class LsqSolution:
    """Sketched solution with its residual on the full system."""

    x_tilde: np.ndarray
    residual_norm: float    # ||A x_tilde - b|| on the original, unpadded system
    r_used: int
    diagnostics: ConditionReport | None
    ops: int = 0            # transform adds/subs spent on the sketch


@dataclass(frozen=True)
class ExactLsq:
    """The exact solution of min ||A x - b|| and what the diagnostics read of A.

    sigma and V are A's singular values and right singular vectors, truncated
    at RANK_RTOL, so sigma.size is A's numerical rank.
    """

    x_opt: np.ndarray       # minimum-norm solution
    Z: float                # optimal residual ||b - A x_opt||
    sigma: np.ndarray
    V: np.ndarray
    bperp: np.ndarray       # b - A x_opt, the part of b outside range(A)


def exact_least_squares(A, b) -> ExactLsq:
    """Minimum-norm least-squares solution x_opt = pinv(A) @ b, with its
    residual and A's singular values and right singular vectors, all from one
    QR of [A, b] (see `_exact_solve`).  Pass it to `rand_least_squares` as
    `exact` for the sketch diagnostics."""
    return _exact_solve(as_matrix(A), as_vector(b))


def _exact_solve(A, b) -> ExactLsq:
    """exact_least_squares of a validated A and b, from one R-only QR.

    R is the triangular factor of [A, b] from linalg's blocked `_tall_qr`.
    With k = min(n, d), A = Q[:, :k] R[:k, :d], so the thin SVD
    U_R diag(sigma) V^T of the small R[:k, :d] gives A's sigma and V,
    truncated at the same RANK_RTOL rank, and x_opt = V diag(1/sigma) U_R^T
    R[:k, d].  A rank-deficient A takes the same path and keeps its min-norm
    x_opt.  bperp = b - A x_opt and Z = ||bperp|| are computed on A itself.
    No array of [A, b]'s size is allocated: bperp is the largest.
    """
    n, d = A.shape
    if n != b.size:
        raise ValueError(f"A has {n} rows but b has length {b.size}")
    R = _tall_qr((A, b))
    k = min(n, d)
    f = _thin_svd(R[:k, :d])
    x_opt = f.pinv() @ R[:k, d]
    bperp = A @ x_opt
    np.subtract(b, bperp, out=bperp)
    return ExactLsq(x_opt=x_opt, Z=float(np.linalg.norm(bperp)), sigma=f.sigma,
                    V=f.V, bperp=bperp)


def ls_sample_size(n: int, d: int, eps: float) -> SampleSize:
    """Theoretical sketch size for the randomized solver.

    raw is the larger of the embedding branch
    48^2 d ln(40 n d) ln(100^2 d ln(40 n d)) and the accuracy branch
    40 d ln(40 n d) / eps.  The value routinely exceeds n at desk scale (the
    constants are not optimized); rand_least_squares refuses it then, before
    allocating, and accepts r_override for practical runs.
    """
    if not 1 <= d <= n:
        raise ValueError("need n >= d >= 1")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    ln_nd = math.log(40.0 * n * d)
    embed = 48.0 ** 2 * d * ln_nd * math.log(100.0 ** 2 * d * ln_nd)
    eps_b = 40.0 * d * ln_nd / eps
    raw = max(embed, eps_b)
    return SampleSize(count=math.ceil(raw), raw=raw)


def check_conditions(sketch_of_UA, sketch_of_bperp, Z: float,
                     bperp_err: float, eps: float) -> ConditionReport:
    """Evaluate both sketch-quality conditions for a realized operator X.

    sketch_of_UA must be X U_A for an orthonormal basis U_A of range(A), one
    column per column of A, such as (X A) V diag(1/sigma) from A's thin SVD
    U_A diag(sigma) V^T; sketch_of_bperp must be X applied to
    bperp = b - U_A U_A^T b, and Z = ||bperp|| is the optimal residual.
    bperp_err = n * u * ||b|| (n rows of A, u the machine epsilon) is the
    roundoff scale of the computed bperp; its square floors the cond23
    threshold, which on a consistent system (Z ~ 0) is otherwise below the
    roundoff of the cross term.
    """
    XU = as_matrix(sketch_of_UA)
    Xb = as_vector(sketch_of_bperp)
    d = XU.shape[1]
    s = np.linalg.svd(XU, compute_uv=False)
    sigma_min_sq = float(s[d - 1] ** 2) if s.size >= d else 0.0
    cross = float(np.sum((XU.T @ Xb) ** 2))
    return ConditionReport(
        sigma_min_sq=sigma_min_sq,
        cross_term=cross,
        Z=Z,
        cond22_pass=sigma_min_sq >= COND22_THRESHOLD,
        cond23_pass=cross <= eps * Z * Z / 2.0 + bperp_err * bperp_err,
    )


def rand_least_squares(A, b, eps: float, seed: int,
                       r_override: int | None = None,
                       exact: ExactLsq | None = None) -> LsqSolution:
    """Sketch-and-solve least squares through a fresh left-side SRHT operator.

    Parameters
    ----------
    A : array_like, shape (n, d)
        Must have full column rank d.  SketchRankError, naming r and d, is
        raised when the r x d sketch of A is rank deficient, as it always is
        for a rank-deficient A.
    b : array_like, shape (n,)
    eps : float
        Target relative residual accuracy, in (0, 1).
    seed : int
        Operator seed; the solve is deterministic given it.
    r_override : int, optional
        Sketch size to use instead of ls_sample_size, which usually exceeds
        n at desk scale; without an override, a theoretical size of at least
        next_pow2(n) raises ValueError.  Must be at least d.
    exact : ExactLsq, optional
        `exact_least_squares(A, b)`.  When given, the ConditionReport is
        computed from the sketch X A, its sigma and V (X U_A = (X A) V
        diag(1/sigma)), and a second transform of its one column bperp;
        omit it for timing runs.
    """
    return _sketch_and_solve(as_matrix(A), as_vector(b), eps, seed, r_override, exact)


def _sketch_and_solve(A, b, eps, seed, r_override, exact) -> LsqSolution:
    """rand_least_squares on an already validated A and b."""
    n, d = A.shape
    if A.shape[0] != b.size:
        raise ValueError(f"A has {n} rows but b has length {b.size}")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if r_override is None:
        r = ls_sample_size(n, d, eps).count
        _refuse_default_width("r", r, n, "r_override (--r)")
    else:
        r = int(r_override)
    if r < d:
        raise ValueError(f"sketch size r={r} cannot preserve rank d={d}")
    op = make_srht(n, r, seed, side="left")
    counter = OpCounter()
    sk = srht_apply(op, (A, b), counter)
    f = thin_svd(sk[:, :d])
    if f.rank < d:
        raise SketchRankError(
            f"sketch rank deficient: rank(X A) = {f.rank} < d = {d} at r = {r}")
    x_tilde = f.pinv() @ sk[:, d]
    del f  # the sketch's factors are dead; free them before the second transform
    residual = float(np.linalg.norm(A @ x_tilde - b))
    report = None
    if exact is not None:
        if exact.V.shape != (d, d) or exact.bperp.shape != (n,):
            raise ValueError(f"exact is for an A of {exact.bperp.size} rows and rank "
                             f"{exact.sigma.size}; this A is {n} x {d}")
        XU = sk[:, :d] @ (exact.V / exact.sigma)
        Xb = srht_apply(op, exact.bperp, counter)
        bperp_err = n * np.finfo(float).eps * float(np.linalg.norm(b))
        report = check_conditions(XU, Xb, exact.Z, bperp_err, eps)
    return LsqSolution(x_tilde=x_tilde, residual_norm=residual, r_used=r,
                       diagnostics=report, ops=counter.adds_subs)
