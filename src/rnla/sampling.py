"""Sampling probability families and seeded sampling-and-rescaling plans.

A SamplingPlan is the sparse n x c "sampling-and-rescaling" matrix S in
compressed form: column t of S has the single nonzero 1/sqrt(c * p_{i_t}) in
row i_t.  Plans are drawn with Philox4x32-10 (a counter-based, documented
generator) so identical (probs, c, seed) give byte-identical plans on every
platform.  Categorical draws use inverse-CDF lookup: binary search of uniform
deviates in a precomputed cumulative array from which exact zeros are dropped,
so zero-probability indices are never drawn and never produce 1/sqrt(0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import as_matrix

__all__ = [
    "RNG_NAME",
    "make_rng",
    "ProbVector",
    "SamplingPlan",
    "SampleSize",
    "optimal_probs",
    "colnorm_probs",
    "rownorm_probs",
    "leverage_probs",
    "uniform_probs",
    "beta_of",
    "draw_plan",
    "sampled_columns",
    "sampled_rows",
]

RNG_NAME = "philox4x32-10"

ORTHO_TOL = 1e-8  # max |U^T U - I| accepted by leverage_probs and coherence_check
_KEY_LIMIT = 2 ** 128  # Philox keys lie in [0, 2**128)


def make_rng(seed: int) -> np.random.Generator:
    """Philox4x32-10 generator keyed on the seed, an integer in [0, 2**128)."""
    return np.random.Generator(np.random.Philox(key=int(seed)))


@dataclass(frozen=True)
class ProbVector:
    """Sampling distribution over n indices."""

    p: np.ndarray

    def __post_init__(self):
        p = np.ascontiguousarray(self.p, dtype=np.float64)
        object.__setattr__(self, "p", p)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("probabilities must form a nonempty 1-d vector")
        if not np.all(np.isfinite(p)) or np.any(p < 0.0):
            raise ValueError("probabilities must be finite and nonnegative")
        if abs(float(p.sum()) - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")

    @property
    def n(self) -> int:
        return self.p.size


@dataclass(frozen=True)
class SamplingPlan:
    """c categorical draws (with replacement) plus their rescale factors.

    0-based indices in [0, n); scales[t] = 1/sqrt(c * p_{i_t}) with c = indices.size.
    """

    indices: np.ndarray
    scales: np.ndarray
    n: int

    def __post_init__(self):
        idx = np.ascontiguousarray(self.indices, dtype=np.int64)
        sc = np.ascontiguousarray(self.scales, dtype=np.float64)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "scales", sc)
        if idx.ndim != 1 or idx.size < 1 or sc.shape != idx.shape:
            raise ValueError("indices and scales must be equal-length nonempty vectors")
        if np.any(idx < 0) or np.any(idx >= self.n):
            raise ValueError("plan indices out of [0, n)")


class SampleSize(NamedTuple):
    """Ceiling actually used plus the raw real value it came from."""

    count: int
    raw: float


def _probs(raw: np.ndarray) -> ProbVector:
    total = float(raw.sum())
    if total <= 0.0:
        raise ValueError("degenerate distribution: all sampling weights are zero")
    return ProbVector(p=raw / total)


def optimal_probs(A, B) -> ProbVector:
    """Variance-minimizing probabilities for the sampled product A @ B.

    p_k is proportional to ||A_{*k}||_2 * ||B_{k*}||_2.  Raises ValueError
    ("degenerate distribution") when every product is zero.
    """
    A, B = as_matrix(A), as_matrix(B)
    if A.shape[1] != B.shape[0]:
        raise ValueError(f"inner dimensions differ: {A.shape} x {B.shape}")
    w = np.linalg.norm(A, axis=0) * np.linalg.norm(B, axis=1)
    return _probs(w)


def colnorm_probs(A) -> ProbVector:
    """p_k = ||A_{*k}||_2^2 / ||A||_F^2; requires a nonzero matrix."""
    A = as_matrix(A)
    return _probs(np.sum(A * A, axis=0))


def rownorm_probs(B) -> ProbVector:
    """p_k = ||B_{k*}||_2^2 / ||B||_F^2; requires a nonzero matrix."""
    B = as_matrix(B)
    return _probs(np.sum(B * B, axis=1))


def leverage_probs(U) -> ProbVector:
    """Leverage-score probabilities p_k = ||U_{k*}||_2^2 / d.

    U must have orthonormal columns (max |U^T U - I| <= 1e-8); the row norms
    of such a U sum to d exactly, so no renormalization is hidden here.
    """
    U = as_matrix(U)
    _require_orthonormal(U, "leverage_probs")
    return ProbVector(p=np.sum(U * U, axis=1) / U.shape[1])


def _require_orthonormal(U: np.ndarray, caller: str) -> None:
    """Raise ValueError naming caller unless max |U^T U - I| <= ORTHO_TOL."""
    gram_err = np.max(np.abs(U.T @ U - np.eye(U.shape[1])))
    if gram_err > ORTHO_TOL:
        raise ValueError(f"{caller}: columns not orthonormal (|U^T U - I| = {gram_err:.3e})")


def uniform_probs(n: int) -> ProbVector:
    if n < 1:
        raise ValueError("n must be >= 1")
    return ProbVector(p=np.full(n, 1.0 / n))


def beta_of(probs: ProbVector, reference: ProbVector) -> float:
    """Largest beta with probs.p >= beta * reference.p, clamped to [0, 1]."""
    if probs.n != reference.n:
        raise ValueError("probability vectors must have equal length")
    mask = reference.p > 0.0
    ratios = probs.p[mask] / reference.p[mask]
    return float(min(1.0, max(0.0, ratios.min())))


def _draw_indices(rng: np.random.Generator, p: np.ndarray, c: int):
    """c inverse-CDF draws from p on an existing generator stream.

    Returns 0-based indices.  Exact zeros are removed before the cumulative
    sum; the final cumulative entry is pinned to 1.0 so every uniform deviate
    in [0, 1) lands inside the table.
    """
    support = np.flatnonzero(p > 0.0)
    cum = np.cumsum(p[support])
    cum[-1] = 1.0
    u = rng.random(c)
    return support[np.searchsorted(cum, u, side="right")]


def draw_plan(probs: ProbVector, c: int, seed: int) -> SamplingPlan:
    """Draw a SamplingPlan of c i.i.d. indices from probs.

    Deterministic given (probs, c, seed): the Philox stream is keyed on seed
    and consumed by exactly c uniform deviates.
    """
    if c < 1:
        raise ValueError("c must be >= 1")
    idx = _draw_indices(make_rng(seed), probs.p, c)
    return SamplingPlan(indices=idx, scales=1.0 / np.sqrt(c * probs.p[idx]), n=probs.n)


def sampled_columns(A, plan: SamplingPlan) -> np.ndarray:
    """A @ S for the plan's implicit S: rescaled sampled columns, m x c."""
    return _columns(as_matrix(A), plan)


def sampled_rows(B, plan: SamplingPlan) -> np.ndarray:
    """S^T @ B for the plan's implicit S: rescaled sampled rows, c x p."""
    return _rows(as_matrix(B), plan)


def _columns(A: np.ndarray, plan: SamplingPlan) -> np.ndarray:
    """sampled_columns of an already validated matrix; scales its gathered copy."""
    if A.shape[1] != plan.n:
        raise ValueError(f"plan over n={plan.n} cannot sample {A.shape[1]} columns")
    C = A[:, plan.indices]
    C *= plan.scales
    return C


def _rows(B: np.ndarray, plan: SamplingPlan) -> np.ndarray:
    """sampled_rows of an already validated matrix; scales its gathered copy."""
    if B.shape[0] != plan.n:
        raise ValueError(f"plan over n={plan.n} cannot sample {B.shape[0]} rows")
    R = B[plan.indices, :]
    R *= plan.scales[:, None]
    return R
