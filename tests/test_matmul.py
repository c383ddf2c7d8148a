import math

import numpy as np
import pytest

from rnla import (ProbVector, draw_plan, entry_variance_bound,
                  enumerate_sketch_moments, expected_frobenius_error,
                  frobenius_norm, make_rng, optimal_probs,
                  rand_matrix_multiply, sample_size_frobenius,
                  sample_size_spectral, sampled_rows, spectral_norm,
                  uniform_probs)
from rnla.sampling import SamplingPlan


def _random_probs(rng, n):
    w = np.abs(rng.standard_normal(n)) + 0.05
    return ProbVector(p=w / w.sum())


def _dense_S(plan):
    c = plan.indices.size
    S = np.zeros((plan.n, c))
    S[plan.indices, np.arange(c)] = plan.scales
    return S


def test_sketch_columns_match_plan():
    rng = make_rng(0)
    A = rng.standard_normal((3, 5))
    B = rng.standard_normal((5, 4))
    probs = optimal_probs(A, B)
    sk = rand_matrix_multiply(A, B, 4, probs, 17)
    for t in range(4):
        i = sk.plan.indices[t]
        np.testing.assert_allclose(sk.C[:, t], A[:, i] * sk.plan.scales[t],
                                   atol=1e-15)
        np.testing.assert_allclose(sk.R[t, :], B[i, :] * sk.plan.scales[t],
                                   atol=1e-15)


def test_sketch_equals_dense_sampling_matrix():
    """C = A S and R = S^T B with S materialized densely from the plan."""
    rng = make_rng(1)
    A = rng.standard_normal((4, 6))
    B = rng.standard_normal((6, 3))
    probs = optimal_probs(A, B)
    sk = rand_matrix_multiply(A, B, 5, probs, 3)
    S = _dense_S(sk.plan)
    assert np.max(np.abs(A @ S - sk.C)) <= 1e-12
    assert np.max(np.abs(S.T @ B - sk.R)) <= 1e-12
    assert np.max(np.abs(A @ S @ S.T @ B - sk.C @ sk.R)) <= 1e-12


def test_single_column_support_is_exact():
    A = np.zeros((3, 4))
    A[:, 2] = [1.0, -2.0, 0.5]
    B = make_rng(2).standard_normal((4, 2))
    probs = optimal_probs(A, B)
    for c in (1, 3):
        sk = rand_matrix_multiply(A, B, c, probs, c)
        assert np.max(np.abs(sk.C @ sk.R - A @ B)) <= 1e-14


def test_inner_dimension_one_is_exact():
    A = np.array([[2.0], [3.0]])
    B = np.array([[4.0, -1.0]])
    sk = rand_matrix_multiply(A, B, 2, uniform_probs(1), 0)
    assert np.max(np.abs(sk.C @ sk.R - A @ B)) <= 1e-14


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        rand_matrix_multiply(np.ones((2, 3)), np.ones((4, 2)), 1,
                             uniform_probs(3), 0)
    with pytest.raises(ValueError):
        rand_matrix_multiply(np.ones((2, 3)), np.ones((3, 2)), 1,
                             uniform_probs(4), 0)


def test_two_by_two_enumeration_unbiased():
    """c=1, uniform probs: the average of both outcomes is exactly A B."""
    rng = make_rng(3)
    A = rng.standard_normal((2, 2))
    B = rng.standard_normal((2, 2))
    probs = uniform_probs(2)
    outcomes = [np.outer(A[:, k], B[k, :]) / (1 * 0.5) for k in range(2)]
    hand_mean = 0.5 * outcomes[0] + 0.5 * outcomes[1]
    assert np.max(np.abs(hand_mean - A @ B)) <= 1e-14
    mom = enumerate_sketch_moments(A, B, 1, probs)
    assert np.max(np.abs(mom.mean - A @ B)) <= 1e-14


def test_expected_error_closed_form_at_optimal_probs():
    rng = make_rng(4)
    A = rng.standard_normal((3, 5))
    B = rng.standard_normal((5, 2))
    probs = optimal_probs(A, B)
    for c in (1, 4):
        got = expected_frobenius_error(A, B, c, probs)
        want = (np.linalg.norm(A, axis=0) * np.linalg.norm(B, axis=1)).sum() ** 2 / c
        assert got == pytest.approx(want, rel=1e-12)


def test_expected_error_zero_factor():
    A = make_rng(5).standard_normal((2, 3))
    assert expected_frobenius_error(A, np.zeros((3, 2)), 2,
                                    uniform_probs(3)) == 0.0


def test_expected_error_dominates_enumeration():
    rng = make_rng(6)
    A = rng.standard_normal((2, 2))
    B = rng.standard_normal((2, 2))
    probs = uniform_probs(2)
    mom = enumerate_sketch_moments(A, B, 1, probs)
    assert expected_frobenius_error(A, B, 1, probs) >= mom.expected_fro_err_sq - 1e-12


def test_variance_bound_dominates_enumeration():
    rng = make_rng(7)
    for c in (1, 2):
        A = rng.standard_normal((2, 3))
        B = rng.standard_normal((3, 2))
        probs = _random_probs(rng, 3)
        mom = enumerate_sketch_moments(A, B, c, probs)
        for i in range(2):
            for j in range(2):
                bound = entry_variance_bound(A, B, probs, c, i, j)
                assert mom.variance[i, j] <= bound + 1e-12


def test_variance_bound_scaling_and_zeros():
    rng = make_rng(8)
    A = rng.standard_normal((2, 3))
    B = rng.standard_normal((3, 2))
    probs = uniform_probs(3)
    b1 = entry_variance_bound(A, B, probs, 1, 0, 0)
    b2 = entry_variance_bound(A, B, probs, 2, 0, 0)
    assert b1 == pytest.approx(2.0 * b2, rel=1e-14)
    assert entry_variance_bound(np.zeros((2, 3)), B, probs, 1, 0, 0) == 0.0
    with pytest.raises(ValueError):
        entry_variance_bound(A, B, probs, 1, 2, 0)


def test_variance_bound_dimension_mismatch():
    """Mismatched factors or probabilities raise, as in expected_frobenius_error."""
    A = np.ones((3, 1))
    B = np.arange(8.0).reshape(4, 2) + 1
    with pytest.raises(ValueError, match="dimension mismatch"):
        expected_frobenius_error(A, B, 1, uniform_probs(4))
    with pytest.raises(ValueError, match="dimension mismatch"):
        entry_variance_bound(A, B, uniform_probs(4), 1, 0, 0)
    A = np.ones((3, 4))
    with pytest.raises(ValueError, match="dimension mismatch"):
        entry_variance_bound(A, B, uniform_probs(3), 1, 0, 0)
    assert entry_variance_bound(A, B, uniform_probs(4), 1, 0, 0) > 0.0


def test_zero_probability_on_live_term_rejected():
    A = np.ones((2, 2))
    B = np.ones((2, 2))
    bad = ProbVector(p=np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="zero sampling probability"):
        expected_frobenius_error(A, B, 1, bad)
    with pytest.raises(ValueError, match="zero sampling probability"):
        entry_variance_bound(A, B, bad, 1, 0, 0)


def test_sample_size_frobenius_values():
    assert sample_size_frobenius(1, 1.0, 0.5).count == 40
    assert sample_size_frobenius(2, 1.0, 0.5).count == 160
    assert sample_size_frobenius(2, 1.0, 0.5).raw == pytest.approx(160.0)
    # quadratic in d
    assert sample_size_frobenius(4, 1.0, 0.5).count == 4 * 160
    for bad in ((0, 1.0, 0.5), (1, 0.0, 0.5), (1, 1.5, 0.5), (1, 1.0, 1.0),
                (1, 1.0, 0.0)):
        with pytest.raises(ValueError):
            sample_size_frobenius(*bad)


def test_sample_size_spectral_values():
    got = sample_size_spectral(10, 1.0, 0.5, 0.1)
    lead = 96.0 * 10 / 0.25
    assert got.raw == pytest.approx(lead * math.log(lead / math.sqrt(0.1)),
                                    rel=1e-14)
    assert got.count == 36114
    assert sample_size_spectral(20, 1.0, 0.5, 0.1).count > 2 * got.count
    assert sample_size_spectral(10, 1.0, 0.5, 0.01).count > got.count
    with pytest.raises(ValueError):
        sample_size_spectral(10, 1.0, 0.5, 1.0)


def test_gram_sketch_error_full_sample():
    Q, _ = np.linalg.qr(make_rng(9).standard_normal((6, 3)))
    plan = SamplingPlan(indices=np.arange(6), scales=np.ones(6), n=6)
    R = sampled_rows(Q, plan)
    G = np.eye(3) - R.T @ R
    spec, fro = spectral_norm(G), frobenius_norm(G)
    assert spec <= 1e-12 and fro <= 1e-12


def test_gram_sketch_error_scalar_case():
    u = np.zeros((5, 1))
    u[2, 0] = 1.0
    plan = draw_plan(uniform_probs(5), 3, 1)
    R = sampled_rows(u, plan)
    want = abs(1.0 - float(np.sum(plan.scales ** 2 * u[plan.indices, 0] ** 2)))
    G = np.eye(1) - R.T @ R
    spec, fro = spectral_norm(G), frobenius_norm(G)
    assert spec == pytest.approx(want, abs=1e-12)
    assert fro == pytest.approx(want, abs=1e-12)


def test_cauchy_schwarz_relation():
    rng = make_rng(10)
    for _ in range(20):
        A = rng.standard_normal((3, 4))
        B = rng.standard_normal((4, 3))
        lhs = (np.linalg.norm(A, axis=0) * np.linalg.norm(B, axis=1)).sum() ** 2
        rhs = frobenius_norm(A) ** 2 * frobenius_norm(B) ** 2
        assert lhs <= rhs * (1.0 + 1e-12)


def test_enumeration_cap():
    A = np.ones((2, 50))
    B = np.ones((50, 2))
    with pytest.raises(ValueError, match="cap"):
        enumerate_sketch_moments(A, B, 3, uniform_probs(50))
