"""Validation happens once, at the public boundary.

Each exported function scans each array its caller passes for NaN/Inf once,
at entry; nothing of A's size is scanned again inside the call, and a
non-finite caller array is still refused with ValueError.  The transforms
and the two sketch solvers scan no array of A's size: they refuse a
non-finite input through their SRHT sketch, whose output check sees every
input entry, since H has no zero entry.  An experiment's instance is checked
where it is made: the generators and the file readers return only finite,
row-major float64 arrays, the harness validates nothing again, and matmul
trials run the private kernel, so a run's scans of A-sized arrays do not
grow with its trial count.
"""

import os

import numpy as np
import pytest

from rnla import (ExperimentConfig, as_matrix, coherence_check, draw_plan, exact_least_squares,
                  exact_low_rank, fwht, gen_lsq_instance, gen_matrix, make_srht,
                  rand_least_squares, rand_low_rank, rand_matrix_multiply, read_matrix,
                  read_vector, srht_apply, run_experiment, structural_inequality_check,
                  subsampled_fwht, thin_svd, uniform_probs, write_matrix, write_vector)
from rnla.generators import MATRIX_FAMILIES

A_LSQ, B_LSQ, _ = gen_lsq_instance(256, 4, 1)
A_LR = gen_matrix("lowrank_plus_noise", 64, 48, 2, sigma=(8.0, 6.0, 4.0), eta=0.01)
B_MM = gen_matrix("gaussian", 64, 16, 3)
Z_LR = gen_matrix("gaussian", 48, 12, 4)
PROBS = uniform_probs(64)
EX_LSQ, EX_LR = exact_least_squares(A_LSQ, B_LSQ), exact_low_rank(A_LR, 3)  # outside the count
X_FWHT = B_LSQ.copy()  # 256 entries, a power of two
U_COH = np.linalg.qr(gen_matrix("gaussian", 64, 3, 5))[0]

# name -> (call, A, scans of arrays with at least A.size entries)
SCANS = {
    "rand_least_squares": (lambda: rand_least_squares(
        A_LSQ, B_LSQ, 0.5, seed=0, r_override=32, exact=EX_LSQ), A_LSQ, 0),
    "rand_low_rank": (lambda: rand_low_rank(
        A_LR, 3, 0.25, seed=0, c_override=12, exact=EX_LR), A_LR, 0),
    "rand_low_rank-no-svd": (lambda: rand_low_rank(
        A_LR, 3, 0.25, seed=0, c_override=12), A_LR, 0),
    "rand_matrix_multiply": (lambda: rand_matrix_multiply(
        B_MM.T, B_MM, 8, PROBS, seed=0), B_MM, 2),
    "exact_least_squares": (lambda: exact_least_squares(A_LSQ, B_LSQ), A_LSQ, 1),
    "exact_low_rank": (lambda: exact_low_rank(A_LR, 3), A_LR, 1),
    "thin_svd-truncate": (lambda: thin_svd(A_LR).truncate(3).reconstruct(),
                          A_LR, 1),
    "structural_inequality_check": (lambda: structural_inequality_check(
        A_LR, Z_LR, 3), A_LR, 1),
    "fwht": (lambda: fwht(X_FWHT), X_FWHT, 1),
    "coherence_check": (lambda: coherence_check(U_COH, make_srht(64, 8, 0)), U_COH, 1),
    "write_matrix": (lambda: write_matrix(os.devnull, A_LR), A_LR, 1),
    "write_vector": (lambda: write_vector(os.devnull, X_FWHT), X_FWHT, 1),
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


# algorithm -> (A, b or None, a generated instance of A's shape, the
# generator's own scans of it, params)
RUNS = {
    "matmul": (gen_matrix("gaussian", 16, 48, 6), None,
               {"family": "gaussian", "m": 16, "n": 48, "p": 16, "seed": 6}, 0,
               {"c": 8, "probs": "optimal"}),
    "lsq": (A_LSQ, B_LSQ, {"family": "gaussian", "m": 256, "n": 4, "seed": 1}, 0,
            {"eps": 0.5, "r": 32}),
    "lowrank": (A_LR, None, {"family": "lowrank_plus_noise", "m": 64, "n": 48, "seed": 2,
                             "sigma": [8.0, 6.0, 4.0], "eta": 0.01}, 1,
                {"k": 3, "eps": 0.25, "c": 12}),
}


@pytest.mark.parametrize("source", ["generated", "file"])
@pytest.mark.parametrize("algorithm", list(RUNS))
def test_run_scans_do_not_grow_with_trials(tmp_path, monkeypatch, algorithm, source):
    """Only instance-sized arrays count: the sketches and matmul's 16 x 16
    error are smaller.  A generated instance is scanned by its generator
    only, once, and only for lowrank_plus_noise, whose sum may overflow:
    matmul's probabilities and bound read A's and B's squared norms, taken
    once without validation, and the solvers check A through their sketch.
    A file instance is scanned by its reader only."""
    A, b, instance, made, params = RUNS[algorithm]
    if source == "file":
        instance = {"family": "file", "path": str(_file(tmp_path, "a.mtx", A))}
        if b is not None:
            instance["rhs"] = str(tmp_path / "b.mtx")
            write_vector(instance["rhs"], b)

    def run(trials):
        return lambda: run_experiment(ExperimentConfig(
            algorithm, instance, params, trials, base_seed=0))

    scans = _scans(monkeypatch, run(2), A)
    assert scans == _scans(monkeypatch, run(6), A)
    assert scans == made if source == "generated" else scans > 0


def _file(tmp_path, name, M):
    path = tmp_path / name
    write_matrix(path, M)
    return path


# Every source of a run's instance: the harness takes what these return as is.
FAMILY_KEYWORDS = {"lowrank_plus_noise": {"sigma": (3.0, 2.0), "eta": 0.1}}
SOURCES = {
    **{family: lambda tmp, family=family: gen_matrix(
        family, 9, 5, 1, **FAMILY_KEYWORDS.get(family, {}))
       for family in MATRIX_FAMILIES},
    "lowrank_plus_noise-eta0": lambda tmp: gen_matrix(
        "lowrank_plus_noise", 5, 9, 1, sigma=(1.0,)),
    "gen_lsq_instance": lambda tmp: gen_lsq_instance(9, 3, 2),
    "gen_lsq_instance-consistent": lambda tmp: gen_lsq_instance(9, 3, 2, consistent=True),
    "read_matrix-text": lambda tmp: read_matrix(_file(tmp, "a.mtx", B_MM)),
    "read_matrix-binary": lambda tmp: read_matrix(_file(tmp, "a.bin", B_MM)),
    "read_vector-column": lambda tmp: read_vector(_file(tmp, "v.mtx", B_MM[:, :1])),
    "read_vector-row": lambda tmp: read_vector(_file(tmp, "v.bin", B_MM[:1])),
}


@pytest.mark.parametrize("name", list(SOURCES))
def test_instance_sources_return_finite_row_major_float64(tmp_path, name):
    out = SOURCES[name](tmp_path)
    arrays = [a for a in (out if isinstance(out, tuple) else (out,)) if a is not None]
    assert arrays
    for a in arrays:
        assert a.dtype == np.float64 and a.flags.c_contiguous
        assert np.isfinite(a).all()


def _poison(M, value):
    M = np.array(M, dtype=float)
    M.flat[M.size // 2] = value
    return M


def _left(M):
    return make_srht(M.shape[0], 8, 0, side="left")


def _right(M):
    return make_srht(M.shape[1], 8, 0, side="right")


# Each entry poisons one caller array and calls the entry point with it.
REJECTS = {
    "rand_least_squares-A": lambda v: rand_least_squares(
        _poison(A_LSQ, v), B_LSQ, 0.5, seed=0, r_override=32),
    "rand_least_squares-b": lambda v: rand_least_squares(
        A_LSQ, _poison(B_LSQ, v), 0.5, seed=0, r_override=32),
    "rand_low_rank": lambda v: rand_low_rank(
        _poison(A_LR, v), 3, 0.25, seed=0, c_override=12),
    "rand_matrix_multiply-A": lambda v: rand_matrix_multiply(
        _poison(B_MM.T, v), B_MM, 8, PROBS, seed=0),
    "rand_matrix_multiply-B": lambda v: rand_matrix_multiply(
        B_MM.T, _poison(B_MM, v), 8, PROBS, seed=0),
    "srht_apply-left": lambda v: srht_apply(_left(A_LSQ), _poison(A_LSQ, v)),
    "srht_apply-right": lambda v: srht_apply(_right(A_LR), _poison(A_LR, v)),
    "srht_apply-vector": lambda v: srht_apply(_left(A_LSQ), _poison(B_LSQ, v)),
    "exact_least_squares-A": lambda v: exact_least_squares(_poison(A_LSQ, v), B_LSQ),
    "exact_least_squares-b": lambda v: exact_least_squares(A_LSQ, _poison(B_LSQ, v)),
    "exact_low_rank": lambda v: exact_low_rank(_poison(A_LR, v), 3),
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


A_PAD, B_PAD, _ = gen_lsq_instance(300, 4, 3)  # n_pad 512: 212 zero rows padded
# Each solver's call on a given A; lowrank takes A_LR tall (64 x 48) and wide.
SKETCHED = {
    "lsq-padded": (A_PAD, lambda A: rand_least_squares(A, B_PAD, 0.5, seed=0, r_override=32)),
    "lowrank-tall": (A_LR, lambda A: rand_low_rank(A, 3, 0.25, seed=0, c_override=12)),
    "lowrank-wide": (A_LR.T, lambda A: rand_low_rank(A, 3, 0.25, seed=0, c_override=12)),
}
# Where the non-finite entries go: (row, column, value) triples.  The left
# sketch mixes A's columns and the right sketch its rows, so each solver
# meets +Inf and -Inf in one mixed vector in one of the two pairs.
PLACEMENTS = {
    **{f"{where}-{name}": ((i, i, value),)
       for where, i in (("first", 0), ("last", -1))
       for name, value in (("nan", np.nan), ("inf", np.inf), ("-inf", -np.inf))},
    "inf-pair-in-a-column": ((0, 0, np.inf), (1, 0, -np.inf)),
    "inf-pair-in-a-row": ((0, 0, np.inf), (0, 1, -np.inf)),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("placement", list(PLACEMENTS))
@pytest.mark.parametrize("solver", list(SKETCHED))
def test_solvers_refuse_non_finite_A_through_their_sketch(solver, placement):
    """No scan of A at entry: the sketch's output check refuses a non-finite
    A with the text of as_matrix's entry check."""
    A, call = SKETCHED[solver]
    A = np.array(A)
    for i, j, value in PLACEMENTS[placement]:
        A[i, j] = value
    with pytest.raises(ValueError) as expected:
        as_matrix(A)
    with pytest.raises(ValueError) as refused:
        call(A)
    assert str(refused.value) == str(expected.value)
