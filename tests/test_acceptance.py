"""End-to-end acceptance checks, one test per criterion.

Each test states its claim, drives the public API at practical sketch sizes,
and enforces the stated tolerance and runtime budget.  Stochastic claims use
fixed seed sweeps, so every run sees identical data; rate floors carry the
documented Monte Carlo slack.
"""

import itertools
import json
import math
import re
import time
from dataclasses import dataclass

import numpy as np
import pytest

from rnla import (ProbVector, coherence_check, draw_plan,
                  enumerate_sketch_moments, entry_variance_bound,
                  exact_least_squares, expected_frobenius_error,
                  frobenius_norm, gen_lsq_instance, gen_matrix,
                  leverage_probs, make_rng, make_srht, optimal_probs,
                  pseudoinverse, rand_least_squares, rand_low_rank,
                  sampled_columns, sampled_rows, spectral_norm,
                  structural_inequality_check, subsampled_fwht, thin_svd,
                  uniform_probs)
from rnla.cli import main as cli_main
from rnla.srht import OpCounter


def _random_probs(rng, n):
    p = np.abs(rng.standard_normal(n)) + 0.05
    return ProbVector(p=p / p.sum())


@dataclass(frozen=True)
class _EnumCase:
    A: np.ndarray
    B: np.ndarray
    probs: ProbVector
    c: int
    mean: np.ndarray
    variance: np.ndarray
    expected_fro_err_sq: float


@pytest.fixture(scope="session")
def enum_cases():
    """20 random instances per (n, c) cell with fully enumerated moments."""
    rng = make_rng(101)
    cases = []
    for n, c in itertools.product((2, 3, 4), (1, 2)):
        for _ in range(20):
            A = rng.standard_normal((3, n))
            B = rng.standard_normal((n, 2))
            probs = _random_probs(rng, n)
            mom = enumerate_sketch_moments(A, B, c, probs)
            cases.append(_EnumCase(A, B, probs, c, mom.mean, mom.variance,
                                   mom.expected_fro_err_sq))
    return cases


@pytest.fixture(scope="session")
def lowrank_sweep():
    """200 seeded diagnostic runs on one 128x64 spiked instance.

    Returns (A, runs, best rank-4 error ||A - A_4||_F, elapsed seconds).
    """
    sigma = [10.0, 9.0, 8.0, 7.0] + [0.1] * 60
    A = gen_matrix("lowrank_plus_noise", 128, 64, 3, sigma=sigma)
    start = time.perf_counter()
    f = thin_svd(A)
    runs = [rand_low_rank(A, 4, 0.25, seed, c_override=32, svd_A=f)
            for seed in range(200)]
    baseline = float(np.sqrt(np.sum(f.sigma[4:] ** 2)))
    return A, runs, baseline, time.perf_counter() - start


def test_c01_unbiased_mean(enum_cases):
    start = time.perf_counter()
    for case in enum_cases:
        np.testing.assert_allclose(case.mean, case.A @ case.B,
                                   rtol=0.0, atol=1e-12)
    assert time.perf_counter() - start < 5.0


def test_c02_variance_and_error_bounds(enum_cases):
    start = time.perf_counter()
    for case in enum_cases:
        m, p = case.variance.shape
        for i in range(m):
            for j in range(p):
                bound = entry_variance_bound(case.A, case.B, case.probs,
                                             case.c, i, j)
                assert case.variance[i, j] <= bound + 1e-12
        err_bound = expected_frobenius_error(case.A, case.B, case.c,
                                             case.probs)
        assert case.expected_fro_err_sq <= err_bound + 1e-12
    assert time.perf_counter() - start < 5.0


def test_c03_optimal_probabilities_minimize_error():
    start = time.perf_counter()
    rng = make_rng(202)
    for _ in range(20):
        A = rng.standard_normal((4, 5))
        B = rng.standard_normal((5, 3))
        p_opt = optimal_probs(A, B)
        f_opt = expected_frobenius_error(A, B, 1, p_opt)
        for _ in range(100):
            t = rng.uniform(0.05, 0.95)
            u = np.abs(rng.standard_normal(5)) + 0.05
            q = (1.0 - t) * p_opt.p + t * (u / u.sum())
            f_q = expected_frobenius_error(A, B, 1, ProbVector(p=q / q.sum()))
            assert f_opt <= f_q + 1e-12
    assert time.perf_counter() - start < 5.0


def test_c04_gram_sketch_expectation():
    start = time.perf_counter()
    U, _ = np.linalg.qr(make_rng(0).standard_normal((256, 4)))
    probs = leverage_probs(U)
    d, c = 4, 64
    vals = np.empty(10_000)
    for seed in range(vals.size):
        R = sampled_rows(U, draw_plan(probs, c, seed))
        vals[seed] = np.linalg.norm(np.eye(d) - R.T @ R) ** 2
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert vals.mean() <= d * d / c + 3.0 * se
    assert time.perf_counter() - start < 60.0


def _closed_form_hadamard(n):
    """Normalized H_n from Htilde[i, j] = (-1)^popcount(i & j), no transform kernel."""
    bits = np.arange(n)[:, None] & np.arange(n)
    parity = np.zeros_like(bits)
    while bits.any():
        parity ^= bits & 1
        bits >>= 1
    return (1.0 - 2.0 * parity) / math.sqrt(n)


def test_c05_srht_matches_oracle_within_op_budget():
    start = time.perf_counter()
    for exp in range(1, 11):
        n = 2 ** exp
        x = make_rng(300 + n).standard_normal(n)
        full = _closed_form_hadamard(n) @ x
        for r in sorted({1, 2, n // 2, n}):
            for seed in (0, 1):
                plan = draw_plan(uniform_probs(n), r, 1000 * n + 10 * r + seed)
                counter = OpCounter()
                sub = subsampled_fwht(x, plan, counter)
                np.testing.assert_allclose(
                    sub, full[plan.indices] * plan.scales,
                    rtol=0.0, atol=1e-12)
                assert counter.adds_subs <= 2 * n * math.log2(r + 1)
    assert time.perf_counter() - start < 30.0


def test_c06_randomized_rotation_flattens_coherent_basis():
    start = time.perf_counter()
    U = gen_matrix("coherent", 1024, 4, 0)  # orthonormal, leverage on 4 rows
    hits = 0
    for seed in range(200):
        max_row, threshold = coherence_check(U, make_srht(1024, 8, seed))
        hits += max_row <= threshold
    assert hits >= 188  # 94% of 200
    assert time.perf_counter() - start < 60.0


def test_c07_least_squares_conditional_and_rate():
    start = time.perf_counter()
    eps = 0.5
    A, b, _ = gen_lsq_instance(1024, 5, 0, consistent=False)
    _, Z = exact_least_squares(A, b)
    svd_A = thin_svd(A)
    unconditional = 0
    both_conditions = 0
    for seed in range(200):
        sol = rand_least_squares(A, b, eps, seed, r_override=200, svd_A=svd_A)
        if sol.residual_norm <= (1.0 + eps) * Z + 1e-8:
            unconditional += 1
        rep = sol.diagnostics
        if rep.cond22_pass and rep.cond23_pass:
            both_conditions += 1
            assert sol.residual_norm <= math.sqrt(1.0 + eps) * Z + 1e-8
    assert both_conditions >= 100  # the conditional claim is not vacuous
    assert unconditional >= 160  # 0.8 of 200
    assert time.perf_counter() - start < 120.0


def test_c08_consistent_system_exactness():
    start = time.perf_counter()
    A, b, x_star = gen_lsq_instance(1024, 5, 1, consistent=True)
    x_norm = float(np.linalg.norm(x_star))
    svd_A = thin_svd(A)
    embedded = 0
    for seed in range(200):
        sol = rand_least_squares(A, b, 0.5, seed, r_override=200, svd_A=svd_A)
        if sol.diagnostics.cond22_pass:
            embedded += 1
            assert sol.residual_norm <= 1e-8
            assert np.linalg.norm(sol.x_tilde - x_star) <= 1e-6 * x_norm
    assert embedded >= 150  # the filter keeps most of the sweep
    assert time.perf_counter() - start < 60.0


def test_c09_lowrank_error_rate(lowrank_sweep):
    _, runs, baseline, elapsed = lowrank_sweep
    hits = 0
    for res in runs:
        assert res.error_fro >= baseline
        if res.error_fro <= 1.5 * baseline:
            hits += 1
    assert hits >= 168  # 84% of 200
    assert elapsed < 120.0


def test_c10_extraction_identity_and_split(lowrank_sweep):
    A, runs, _, _ = lowrank_sweep
    scale = max(1.0, frobenius_norm(A))
    for res in runs:
        d = res.diagnostics
        assert d.identity_gap <= 1e-9 * scale
        assert res.error_fro ** 2 <= d.projected_tail_sq + d.tail_sq + 1e-8


def test_c11_structural_inequality_sweep():
    start = time.perf_counter()
    rng = make_rng(404)
    for _ in range(100):
        A = rng.standard_normal((10, 8))
        Z = rng.standard_normal((8, 4))
        lhs, rhs = structural_inequality_check(A, Z, 2)  # verifies rank(V_k^T Z)
        assert lhs <= rhs + 1e-9
    assert time.perf_counter() - start < 10.0


def test_c12_column_sampling_unbiasedness():
    start = time.perf_counter()
    rng = make_rng(505)
    for n, c in ((2, 1), (4, 2)):  # E ||X S||_F^2 = trace E[(X S)(X S)^T]
        X = rng.standard_normal((3, n))
        mom = enumerate_sketch_moments(X, X.T, c, uniform_probs(n))
        expected, actual = np.trace(mom.mean), float(np.sum(X * X))
        assert expected == pytest.approx(actual, abs=1e-12, rel=1e-12)

    X = make_rng(4).standard_normal((8, 64))
    target = float(np.sum(X * X))
    ests = np.empty(10_000)
    for seed in range(ests.size):
        S = sampled_columns(X, draw_plan(uniform_probs(64), 8, seed))
        ests[seed] = float(np.sum(S * S))
    se = ests.std(ddof=1) / math.sqrt(ests.size)
    assert abs(ests.mean() - target) <= 3.0 * se
    assert time.perf_counter() - start < 30.0


def test_c13_core_linalg_property_suites():
    start = time.perf_counter()
    rng = make_rng(606)

    for _ in range(100):  # Penrose properties of the pseudoinverse
        A = rng.standard_normal((rng.integers(2, 7), rng.integers(2, 7)))
        P = pseudoinverse(A)
        np.testing.assert_allclose(A @ P @ A, A, atol=1e-8)
        np.testing.assert_allclose(P @ A @ P, P, atol=1e-8)
        np.testing.assert_allclose((A @ P).T, A @ P, atol=1e-8)
        np.testing.assert_allclose((P @ A).T, P @ A, atol=1e-8)

    for _ in range(100):  # truncation error equals the singular tail
        A = rng.standard_normal((6, 5))
        k = int(rng.integers(1, 5))
        tail = math.sqrt(float(np.sum(thin_svd(A).sigma[k:] ** 2)))
        A_k = thin_svd(A).truncate(k).reconstruct()
        assert frobenius_norm(A - A_k) == pytest.approx(tail, abs=1e-9)

    for _ in range(100):  # norm splits across a projector and its complement
        A = rng.standard_normal((7, 4))
        Q, _ = np.linalg.qr(rng.standard_normal((7, 3)))
        proj = Q @ (Q.T @ A)
        assert frobenius_norm(A) ** 2 == pytest.approx(
            frobenius_norm(proj) ** 2 + frobenius_norm(A - proj) ** 2,
            rel=1e-10, abs=1e-10)

    for _ in range(100):  # singular values move at most ||E||_2
        A = rng.standard_normal((6, 5))
        E = 0.1 * rng.standard_normal((6, 5))
        sa = np.linalg.svd(A, compute_uv=False)
        sae = np.linalg.svd(A + E, compute_uv=False)
        assert np.max(np.abs(sa - sae)) <= spectral_norm(E) + 1e-9

    assert time.perf_counter() - start < 30.0


def test_c14_cli_reruns_are_byte_identical(tmp_path):
    def normalize(text):
        return re.sub(r'"wall_time": [0-9eE+.\-]+', '"wall_time": 0', text)

    commands = {
        "matmul": ["matmul", "--m", "16", "--n", "12", "--c", "4",
                   "--trials", "5", "--seed", "9"],
        "lsq": ["lsq", "--m", "64", "--n", "3", "--eps", "0.5", "--r", "32",
                "--trials", "5", "--seed", "9"],
        "lowrank": ["lowrank", "--family", "lowrank_plus_noise",
                    "--sigma", "8,6,4", "--m", "32", "--n", "24",
                    "--k", "3", "--eps", "0.25", "--c", "10",
                    "--trials", "5", "--seed", "9"],
    }
    for name, argv in commands.items():
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / f"{name}-{run}.json"
            csv = tmp_path / f"{name}-{run}.csv"
            assert cli_main(argv + ["--out", str(out), "--csv", str(csv)]) == 0
            outputs.append((normalize(out.read_text()), csv.read_bytes()))
        assert outputs[0][0] == outputs[1][0]
        assert outputs[0][1] == outputs[1][1]
        parsed = json.loads(outputs[0][0])
        assert parsed["config"]["base_seed"] == 9
