"""Sampled approximate matrix multiplication and its error theory.

The estimator keeps c rescaled column/row pairs: C = A S and R = S^T B for a
sampling-and-rescaling plan S, so C @ R = sum_t A_{*i_t} B_{i_t*} / (c p_{i_t})
is an unbiased estimate of A @ B.  Alongside the estimator live the bound
evaluators (expected Frobenius error, per-entry variance), the sample-size
calculators, and an exact-enumeration oracle that tests lean on: at desk scale
every one of the n^c possible plans is enumerated and weighted by its
probability, giving exact moments with no Monte Carlo noise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix
from .sampling import (ProbVector, SampleSize, SamplingPlan, _columns, _rows,
                       draw_plan)

__all__ = [
    "MatMulSketch",
    "rand_matrix_multiply",
    "expected_frobenius_error",
    "entry_variance_bound",
    "sample_size_frobenius",
    "sample_size_spectral",
    "EnumeratedMoments",
    "enumerate_sketch_moments",
]

MAX_TUPLES = 100_000  # cap on the plans enumerate_sketch_moments visits


@dataclass(frozen=True)
class MatMulSketch:
    """Sketched product factors C (m x c) and R (c x p) plus their plan."""

    C: np.ndarray
    R: np.ndarray
    plan: SamplingPlan


def rand_matrix_multiply(A, B, c: int, probs: ProbVector, seed: int) -> MatMulSketch:
    """Sample c rescaled column/row pairs of (A, B) as an estimate of A @ B.

    Parameters
    ----------
    A : array_like, shape (m, n)
    B : array_like, shape (n, p)
    c : int
        Number of draws (with replacement).
    probs : ProbVector
        Sampling distribution over the n inner indices.
    seed : int
        Plan seed; identical inputs give identical sketches.
    """
    A, B = as_matrix(A), as_matrix(B)
    plan = draw_plan(probs, c, seed)
    return MatMulSketch(C=_columns(A, plan), R=_rows(B, plan), plan=plan)


def _factors(A, B, probs: ProbVector) -> tuple[np.ndarray, np.ndarray]:
    """A and B checked, with inner dimension probs.n."""
    A, B = as_matrix(A), as_matrix(B)
    if A.shape[1] != B.shape[0] or A.shape[1] != probs.n:
        raise ValueError("dimension mismatch")
    return A, B


def _zero_prob_guard(term: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Mask for nonzero summands, raising if any sits on a zero probability."""
    live = term > 0.0
    if np.any(live & (p == 0.0)):
        raise ValueError("zero sampling probability on a nonzero term")
    return live


def expected_frobenius_error(A, B, c: int, probs: ProbVector) -> float:
    """Upper bound on E ||A B - C R||_F^2 for the c-sample estimator.

    Returns (1/c) * sum_k ||A_{*k}||^2 ||B_{k*}||^2 / p_k.  At the optimal
    probabilities this collapses to (1/c) * (sum_k ||A_{*k}|| ||B_{k*}||)^2.
    """
    A, B = _factors(A, B, probs)
    term = np.sum(A * A, axis=0) * np.sum(B * B, axis=1)
    live = _zero_prob_guard(term, probs.p)
    return float(np.sum(term[live] / probs.p[live]) / c)


def entry_variance_bound(A, B, probs: ProbVector, c: int, i: int, j: int) -> float:
    """Variance bound (1/c) * sum_k A_{ik}^2 B_{kj}^2 / p_k for entry (i, j).

    i and j are 0-based.
    """
    A, B = _factors(A, B, probs)
    if not (0 <= i < A.shape[0] and 0 <= j < B.shape[1]):
        raise ValueError(f"entry ({i}, {j}) out of range")
    term = A[i, :] ** 2 * B[:, j] ** 2
    live = _zero_prob_guard(term, probs.p)
    return float(np.sum(term[live] / probs.p[live]) / c)


def sample_size_frobenius(d: int, beta: float, eps: float) -> SampleSize:
    """Samples sufficient for relative Frobenius error eps with probability 9/10.

    raw = 10 d^2 / (beta eps^2); the guarantee is Markov on the expected
    squared error under beta-nearly-optimal probabilities.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must lie in (0, 1]")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    raw = 10.0 * d * d / (beta * eps * eps)
    return SampleSize(count=math.ceil(raw), raw=raw)


def sample_size_spectral(d: int, beta: float, eps: float, delta: float) -> SampleSize:
    """Samples sufficient for spectral-norm error eps with probability 1 - delta.

    raw = (96 d / (beta eps^2)) * ln(96 d / (beta eps^2 sqrt(delta))).
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must lie in (0, 1]")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    lead = 96.0 * d / (beta * eps * eps)
    raw = lead * math.log(lead / math.sqrt(delta))
    return SampleSize(count=math.ceil(raw), raw=raw)


@dataclass(frozen=True)
class EnumeratedMoments:
    """Exact estimator moments from full enumeration of the plan space."""

    mean: np.ndarray                 # E[C R], m x p
    variance: np.ndarray             # Var[(C R)_{ij}] entrywise, m x p
    expected_fro_err_sq: float       # E ||A B - C R||_F^2


def enumerate_sketch_moments(A, B, c: int, probs: ProbVector) -> EnumeratedMoments:
    """Exact moments of the c-sample estimator by enumerating all index tuples.

    Every tuple (i_1, ..., i_c) in support^c is weighted by prod_t p_{i_t};
    tuples touching zero-probability indices have weight zero and are skipped.
    Intended for desk-scale ground truth (n^c capped at MAX_TUPLES).
    """
    A, B = _factors(A, B, probs)
    support = np.flatnonzero(probs.p > 0.0)
    if len(support) ** c > MAX_TUPLES:
        raise ValueError(f"enumeration of {len(support)}^{c} tuples exceeds cap")
    exact = A @ B
    mean = np.zeros_like(exact)
    second = np.zeros_like(exact)
    err_sq = 0.0
    for tup in itertools.product(support, repeat=c):
        w = float(np.prod(probs.p[list(tup)]))
        cr = np.zeros_like(exact)
        for k in tup:
            cr += np.outer(A[:, k], B[k, :]) / (c * probs.p[k])
        mean += w * cr
        second += w * cr * cr
        err_sq += w * float(np.sum((exact - cr) ** 2))
    return EnumeratedMoments(mean=mean, variance=second - mean * mean,
                             expected_fro_err_sq=err_sq)
