"""Sampling probability families and seeded sampling-and-rescaling plans.

A SamplingPlan is the sparse n x c "sampling-and-rescaling" matrix S in
compressed form: column t of S has the single nonzero 1/sqrt(c * p_{i_t}) in
row i_t.  Plans are drawn with Philox4x32-10 (a counter-based, documented
generator) so identical (probs, c, seed) give byte-identical plans on every
platform.  Categorical draws use inverse-CDF lookup: binary search of uniform
deviates in a precomputed cumulative array from which exact zeros are dropped,
so zero-probability indices are never drawn and never produce 1/sqrt(0).

The norm families read only A's squared column norms and B's squared row
norms, which `_sq_norms` takes by row blocks, with no temporary of A's or
B's size and with bits that do not depend on the layout.  A run's
probabilities come from the kernels the public functions call after
validation, `_probs` and `_optimal`.  Weights that overflow float64 are
refused with ValueError and no RuntimeWarning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import _BLOCK, as_matrix

__all__ = [
    "RNG_NAME",
    "make_rng",
    "ProbVector",
    "SamplingPlan",
    "SampleSize",
    "optimal_probs",
    "colnorm_probs",
    "rownorm_probs",
    "uniform_probs",
    "beta_of",
    "draw_plan",
]

RNG_NAME = "philox4x32-10"

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


def _sq_norms(M: np.ndarray, axis: int) -> np.ndarray:
    """np.sum(M * M, axis=axis) of a row-major M, bit for bit, by row blocks.

    A block is _BLOCK elements, and at least one row; no temporary is larger
    than one block.  Under axis 1 the rows are independent, and each block is
    summed row-major.  Under axis 0 numpy adds the rows of a row-major M in
    order, so each block is squared into a row-major stack and reduced with
    the running sums as its first row.  A single column is the exception:
    numpy sums it pairwise, so it is reduced as one row.  So the bits do not
    depend on M's layout: a column-major M, such as the Gram instance's A (a
    view of the row-major A^T), gives those of its row-major copy.  A square
    that overflows is inf, with no warning.
    """
    m, n = M.shape
    if axis == 0 and n == 1:
        return _sq_norms(M.reshape(1, m), 1)
    rows = max(1, _BLOCK // max(n, 1))
    with np.errstate(over="ignore"):
        if axis == 1:
            out = np.empty(m)
            for i in range(0, m, rows):
                block = np.ascontiguousarray(M[i:i + rows])
                np.sum(block * block, axis=1, out=out[i:i + rows])
            return out
        # Row 0 holds the running sums; 0 + x is x, so the first block needs no case.
        stack = np.zeros((min(rows, m) + 1, n))
        for i in range(0, m, rows):
            block = M[i:i + rows]
            np.multiply(block, block, out=stack[1:len(block) + 1])
            stack[0] = np.sum(stack[:len(block) + 1], axis=0)
        return stack[0].copy()


def _probs(raw: np.ndarray) -> ProbVector:
    """raw / raw.sum(), refusing weights that overflow or are all zero."""
    with np.errstate(over="ignore"):
        total = float(raw.sum())
    if not math.isfinite(total):
        raise ValueError("sampling weights overflow float64: the instance's "
                         "squared norms are too large")
    if total <= 0.0:
        raise ValueError("degenerate distribution: all sampling weights are zero")
    return ProbVector(p=raw / total)


def _optimal(a: np.ndarray, b: np.ndarray) -> ProbVector:
    """optimal_probs from A's squared column norms a and B's squared row norms b."""
    with np.errstate(invalid="ignore"):  # inf * 0 is a NaN weight; _probs refuses it
        return _probs(np.sqrt(a) * np.sqrt(b))


def optimal_probs(A, B) -> ProbVector:
    """Variance-minimizing probabilities for the sampled product A @ B.

    p_k is proportional to ||A_{*k}||_2 * ||B_{k*}||_2.  Raises ValueError
    ("degenerate distribution") when every product is zero, and when the
    norms overflow float64.
    """
    A, B = as_matrix(A), as_matrix(B)
    if A.shape[1] != B.shape[0]:
        raise ValueError(f"inner dimensions differ: {A.shape} x {B.shape}")
    return _optimal(_sq_norms(A, 0), _sq_norms(B, 1))


def colnorm_probs(A) -> ProbVector:
    """p_k = ||A_{*k}||_2^2 / ||A||_F^2; requires a nonzero matrix."""
    return _probs(_sq_norms(as_matrix(A), 0))


def rownorm_probs(B) -> ProbVector:
    """p_k = ||B_{k*}||_2^2 / ||B||_F^2; requires a nonzero matrix."""
    return _probs(_sq_norms(as_matrix(B), 1))


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


def _columns(A: np.ndarray, plan: SamplingPlan) -> np.ndarray:
    """A @ S for a validated A and the plan's implicit S: m x c sampled columns."""
    if A.shape[1] != plan.n:
        raise ValueError(f"plan over n={plan.n} cannot sample {A.shape[1]} columns")
    C = A[:, plan.indices]
    C *= plan.scales
    return C


def _rows(B: np.ndarray, plan: SamplingPlan) -> np.ndarray:
    """S^T @ B for a validated B and the plan's implicit S: c x p sampled rows."""
    if B.shape[0] != plan.n:
        raise ValueError(f"plan over n={plan.n} cannot sample {B.shape[0]} rows")
    R = B[plan.indices, :]
    R *= plan.scales[:, None]
    return R
