"""Seeded test-instance generators for the experiment harness.

Families:
  gaussian            i.i.d. standard normal entries
  lowrank_plus_noise  U diag(sigma) V^T + eta * noise, exact requested spectrum
  coherent            identity-embedded columns: the worst case for uniform
                      row sampling, every leverage score concentrated
  consistent_lsq      (A, b, x*) with b = A x* exactly (see gen_lsq_instance)

All draws come from one Philox stream per call, so instances are reproducible
bit-for-bit from (family, dims, seed).
"""

from __future__ import annotations

import numpy as np

from .sampling import make_rng

__all__ = ["gen_matrix", "gen_lsq_instance", "MATRIX_FAMILIES"]

# Each family with the gen_matrix keywords it reads; it refuses the others.
MATRIX_FAMILIES = {"gaussian": (), "lowrank_plus_noise": ("sigma", "eta"),
                   "coherent": ()}


def gen_matrix(family: str, m: int, n: int, seed: int,
               sigma=None, eta: float = 0.0) -> np.ndarray:
    """Generate an m x n matrix from the named family.

    Parameters
    ----------
    family : str
        One of "gaussian", "lowrank_plus_noise", "coherent".
    m, n : int
        Shape.
    seed : int
        Philox stream key.
    sigma : sequence of float, optional
        Singular values for lowrank_plus_noise (sorted descending here;
        length at most min(m, n)).  Before noise the generated matrix has
        exactly this spectrum.
    eta : float
        Noise level for lowrank_plus_noise: eta * standard-normal matrix is
        added after the factored part.

    A sigma or a nonzero eta that the family does not read raises ValueError,
    as do a sigma and eta whose matrix overflows float64: every result is finite.
    """
    if m < 1 or n < 1:
        raise ValueError("dimensions must be positive")
    if family not in MATRIX_FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    given = {"sigma": sigma is not None, "eta": eta != 0.0}
    dropped = [k for k in given if given[k] and k not in MATRIX_FAMILIES[family]]
    if dropped:
        raise ValueError(f"the {family} family reads no {' or '.join(dropped)}")
    rng = make_rng(seed)
    if family == "gaussian":
        return rng.standard_normal((m, n))
    if family == "lowrank_plus_noise":
        if sigma is None:
            raise ValueError("lowrank_plus_noise requires sigma")
        s = np.sort(np.asarray(sigma, dtype=np.float64))[::-1]
        if s.size > min(m, n) or np.any(s < 0.0):
            raise ValueError("sigma must be nonnegative with length <= min(m, n)")
        # Orthonormal factors from QR of gaussian blocks; stream order is
        # U block, V block, then noise.
        qu, _ = np.linalg.qr(rng.standard_normal((m, s.size)))
        qv, _ = np.linalg.qr(rng.standard_normal((n, s.size)))
        with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
            A = (qu * s) @ qv.T
            if eta != 0.0:
                A = A + eta * rng.standard_normal((m, n))
        if not np.isfinite(A).all():
            raise ValueError("lowrank_plus_noise overflows float64 at this sigma and eta")
        return A
    if n > m:
        raise ValueError("coherent family needs m >= n")
    A = np.zeros((m, n))
    A[np.arange(n), np.arange(n)] = 1.0
    return A


def gen_lsq_instance(n: int, d: int, seed: int, consistent: bool = False):
    """Random least-squares instance (A, b, x_star).

    A is n x d standard normal.  With consistent=True, x_star is drawn and
    b = A @ x_star exactly (so the optimal residual is zero); otherwise b is
    an independent normal vector and x_star is None.
    """
    if not 1 <= d <= n:
        raise ValueError("need n >= d >= 1")
    rng = make_rng(seed)
    A = rng.standard_normal((n, d))
    if consistent:
        x_star = rng.standard_normal(d)
        return A, A @ x_star, x_star
    return A, rng.standard_normal(n), None
