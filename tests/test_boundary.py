"""Validation happens once, at the public boundary.

Each exported function scans each array its caller passes for NaN/Inf once,
at entry; nothing of A's size is scanned again inside the call, and a
non-finite caller array is still refused with ValueError.  An experiment is
one more boundary: the harness validates a matmul instance when it resolves
it, and the trials then run the private kernel, so a run's scans of A-sized
arrays do not grow with its trial count.
"""

import numpy as np
import pytest

from rnla import (ExperimentConfig, coherence_check, draw_plan, exact_least_squares,
                  forward_error_bound, fwht, gen_lsq_instance, gen_matrix,
                  make_srht, rand_least_squares, rand_least_squares_amplified,
                  rand_low_rank, rand_matrix_multiply,
                  sampled_columns, sampled_rows, srht_apply,
                  run_experiment, structural_inequality_check, subsampled_fwht,
                  thin_svd, uniform_probs, write_matrix)

A_LSQ, B_LSQ, _ = gen_lsq_instance(256, 4, 1)
A_LR = gen_matrix("lowrank_plus_noise", 64, 48, 2, sigma=(8.0, 6.0, 4.0), eta=0.01)
B_MM = gen_matrix("gaussian", 64, 16, 3)
Z_LR = gen_matrix("gaussian", 48, 12, 4)
PROBS = uniform_probs(64)
SVD_LSQ, SVD_LR = thin_svd(A_LSQ), thin_svd(A_LR)  # factored outside the count
X_FWHT = B_LSQ.copy()  # 256 entries, a power of two
U_COH = np.linalg.qr(gen_matrix("gaussian", 64, 3, 5))[0]

# name -> (call, A, scans of arrays with at least A.size entries)
SCANS = {
    "rand_least_squares": (lambda: rand_least_squares(
        A_LSQ, B_LSQ, 0.5, seed=0, r_override=32, svd_A=SVD_LSQ), A_LSQ, 1),
    "rand_least_squares_amplified": (lambda: rand_least_squares_amplified(
        A_LSQ, B_LSQ, 0.5, 0.01, seed=0, r_override=32, svd_A=SVD_LSQ), A_LSQ, 1),
    "rand_low_rank": (lambda: rand_low_rank(
        A_LR, 3, 0.25, seed=0, c_override=12, svd_A=SVD_LR), A_LR, 1),
    "rand_low_rank-no-svd": (lambda: rand_low_rank(
        A_LR, 3, 0.25, seed=0, c_override=12), A_LR, 1),
    "rand_matrix_multiply": (lambda: rand_matrix_multiply(
        B_MM.T, B_MM, 8, PROBS, seed=0), B_MM, 2),
    "exact_least_squares": (lambda: exact_least_squares(A_LSQ, B_LSQ), A_LSQ, 1),
    "forward_error_bound": (lambda: forward_error_bound(
        A_LSQ, B_LSQ, 0.5, 0.9), A_LSQ, 1),
    "thin_svd-truncate": (lambda: thin_svd(A_LR).truncate(3).reconstruct(),
                          A_LR, 1),
    "structural_inequality_check": (lambda: structural_inequality_check(
        A_LR, Z_LR, 3), A_LR, 1),
    "fwht": (lambda: fwht(X_FWHT), X_FWHT, 1),
    "coherence_check": (lambda: coherence_check(U_COH, make_srht(64, 8, 0)), U_COH, 1),
}


def _scans(monkeypatch, call, A) -> int:
    """np.isfinite calls that call() makes on arrays at least as large as A."""
    sizes = []
    isfinite = np.isfinite

    def counting_isfinite(x, *args, **kwargs):
        sizes.append(np.size(x))
        return isfinite(x, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np, "isfinite", counting_isfinite)
        call()
    return sum(1 for s in sizes if s >= A.size)


@pytest.mark.parametrize("name", list(SCANS))
def test_one_finiteness_scan_per_caller_array(monkeypatch, name):
    call, A, expected = SCANS[name]
    assert _scans(monkeypatch, call, A) == expected


@pytest.mark.parametrize("source", ["generated", "file"])
def test_matmul_run_scans_do_not_grow_with_trials(tmp_path, monkeypatch, source):
    """A is 16 x 48 and the error matrix 16 x 16, so only instance-sized
    arrays count."""
    A = gen_matrix("gaussian", 16, 48, 6)
    if source == "file":
        path = tmp_path / "a.mtx"
        write_matrix(path, A)
        instance = {"family": "file", "path": str(path)}
    else:
        instance = {"family": "gaussian", "m": 16, "n": 48, "p": 16, "seed": 6}

    def run(trials):
        return lambda: run_experiment(ExperimentConfig(
            "matmul", instance, {"c": 8, "probs": "optimal"}, trials, base_seed=0))

    assert _scans(monkeypatch, run(2), A) == _scans(monkeypatch, run(6), A) > 0


def _poison(M, value):
    M = np.array(M, dtype=float)
    M.flat[M.size // 2] = value
    return M


def _left(M):
    return make_srht(M.shape[0], 8, 0, side="left")


def _right(M):
    return make_srht(M.shape[1], 8, 0, side="right")


def _plan():
    return draw_plan(PROBS, 8, 0)


# Each entry poisons one caller array and calls the entry point with it.
REJECTS = {
    "rand_least_squares-A": lambda v: rand_least_squares(
        _poison(A_LSQ, v), B_LSQ, 0.5, seed=0, r_override=32),
    "rand_least_squares-b": lambda v: rand_least_squares(
        A_LSQ, _poison(B_LSQ, v), 0.5, seed=0, r_override=32),
    "rand_least_squares_amplified": lambda v: rand_least_squares_amplified(
        _poison(A_LSQ, v), B_LSQ, 0.5, 0.01, seed=0, r_override=32),
    "rand_low_rank": lambda v: rand_low_rank(
        _poison(A_LR, v), 3, 0.25, seed=0, c_override=12),
    "rand_matrix_multiply-A": lambda v: rand_matrix_multiply(
        _poison(B_MM.T, v), B_MM, 8, PROBS, seed=0),
    "rand_matrix_multiply-B": lambda v: rand_matrix_multiply(
        B_MM.T, _poison(B_MM, v), 8, PROBS, seed=0),
    "srht_apply-left": lambda v: srht_apply(_left(A_LSQ), _poison(A_LSQ, v)),
    "srht_apply-right": lambda v: srht_apply(_right(A_LR), _poison(A_LR, v)),
    "srht_apply-vector": lambda v: srht_apply(_left(A_LSQ), _poison(B_LSQ, v)),
    "sampled_columns": lambda v: sampled_columns(_poison(B_MM.T, v), _plan()),
    "sampled_rows": lambda v: sampled_rows(_poison(B_MM, v), _plan()),
    "exact_least_squares-A": lambda v: exact_least_squares(_poison(A_LSQ, v), B_LSQ),
    "exact_least_squares-b": lambda v: exact_least_squares(A_LSQ, _poison(B_LSQ, v)),
    "structural_inequality_check-A": lambda v: structural_inequality_check(
        _poison(A_LR, v), Z_LR, 3),
    "structural_inequality_check-Z": lambda v: structural_inequality_check(
        A_LR, _poison(Z_LR, v), 3),
    "fwht": lambda v: fwht(_poison(X_FWHT, v)),
    "subsampled_fwht": lambda v: subsampled_fwht(
        _poison(X_FWHT, v), draw_plan(uniform_probs(X_FWHT.size), 8, 0)),
    "coherence_check": lambda v: coherence_check(
        _poison(U_COH, v), make_srht(64, 8, 0)),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", list(REJECTS))
def test_entry_points_reject_non_finite(name, value):
    with pytest.raises(ValueError, match="finite"):
        REJECTS[name](value)
