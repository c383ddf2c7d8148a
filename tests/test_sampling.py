import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.stats

from rnla import (ProbVector, SamplingPlan, beta_of, colnorm_probs, draw_plan,
                  expected_frobenius_error, make_rng, optimal_probs,
                  rand_matrix_multiply, rownorm_probs, uniform_probs)
from rnla.linalg import _BLOCK
from rnla.sampling import _sq_norms


def test_optimal_probs_hand_case():
    # column norms (1, 2) times row norms (1, 2) -> weights (1, 4)
    A = np.diag([1.0, 2.0])
    B = np.diag([1.0, 2.0])
    p = optimal_probs(A, B)
    np.testing.assert_allclose(p.p, [0.2, 0.8], atol=1e-15)


def test_optimal_probs_symmetry_and_point_mass():
    A = np.array([[1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_allclose(optimal_probs(A, A).p, [0.5, 0.5], atol=1e-15)
    A1 = np.array([[0.0, 2.0, 0.0]])
    B1 = np.ones((3, 2))
    np.testing.assert_allclose(optimal_probs(A1, B1).p, [0.0, 1.0, 0.0],
                               atol=1e-15)


def test_optimal_probs_degenerate():
    with pytest.raises(ValueError, match="degenerate distribution"):
        optimal_probs(np.zeros((2, 2)), np.ones((2, 2)))
    with pytest.raises(ValueError):
        optimal_probs(np.ones((2, 3)), np.ones((2, 3)))  # inner mismatch


def test_colnorm_probs():
    np.testing.assert_allclose(colnorm_probs(np.eye(4)).p, [0.25] * 4,
                               atol=1e-15)
    p = colnorm_probs(np.array([[1.0, 0.0], [0.0, 3.0]]))
    np.testing.assert_allclose(p.p, [0.1, 0.9], atol=1e-15)
    assert abs(p.p.sum() - 1.0) <= 1e-12
    with pytest.raises(ValueError, match="degenerate"):
        colnorm_probs(np.zeros((2, 2)))


def test_rownorm_probs():
    np.testing.assert_allclose(rownorm_probs(np.eye(4)).p, [0.25] * 4,
                               atol=1e-15)
    B = np.array([[1.0, 0.0], [0.0, 3.0]])
    np.testing.assert_allclose(rownorm_probs(B).p, [0.1, 0.9], atol=1e-15)
    single = np.array([[0.0, 0.0], [2.0, 1.0]])
    np.testing.assert_allclose(rownorm_probs(single).p, [0.0, 1.0], atol=1e-15)


def test_leverage_scores_sum_to_dimension():
    Q, _ = np.linalg.qr(make_rng(2).standard_normal((10, 3)))
    assert abs(float(np.sum(Q * Q)) - 3.0) <= 1e-10


def test_uniform_probs():
    np.testing.assert_allclose(uniform_probs(1).p, [1.0])
    np.testing.assert_allclose(uniform_probs(4).p, [0.25] * 4)
    p = uniform_probs(7).p
    assert p.min() == p.max()
    with pytest.raises(ValueError):
        uniform_probs(0)


def test_prob_vector_validation():
    with pytest.raises(ValueError):
        ProbVector(p=np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        ProbVector(p=np.array([-0.5, 1.5]))
    for bad in (np.array([]), np.full((2, 2), 0.25)):
        with pytest.raises(ValueError, match="nonempty 1-d vector"):
            ProbVector(p=bad)


def test_beta_of():
    u = uniform_probs(4)
    assert beta_of(u, u) == 1.0
    point = ProbVector(p=np.array([1.0, 0.0, 0.0, 0.0]))
    assert beta_of(u, point) == pytest.approx(0.25, abs=1e-15)
    assert beta_of(point, ProbVector(p=np.array([0.0, 1.0, 0.0, 0.0]))) == 0.0
    A = make_rng(3).standard_normal((3, 5))
    assert beta_of(colnorm_probs(A), colnorm_probs(A)) == 1.0
    with pytest.raises(ValueError, match="equal length"):
        beta_of(u, uniform_probs(3))


def test_draw_plan_point_mass():
    point = ProbVector(p=np.array([0.0, 1.0, 0.0]))
    plan = draw_plan(point, 5, 123)
    assert np.all(plan.indices == 1)
    np.testing.assert_allclose(plan.scales, 1.0 / np.sqrt(5.0), atol=1e-15)


def test_draw_plan_n1():
    plan = draw_plan(uniform_probs(1), 4, 9)
    assert np.all(plan.indices == 0)
    np.testing.assert_allclose(plan.scales, 0.5, atol=1e-15)


def test_draw_plan_deterministic():
    p = uniform_probs(6)
    a = draw_plan(p, 10, 42)
    b = draw_plan(p, 10, 42)
    assert a.indices.tobytes() == b.indices.tobytes()
    assert a.scales.tobytes() == b.scales.tobytes()
    c = draw_plan(p, 10, 43)
    assert a.indices.tobytes() != c.indices.tobytes()


def test_draw_plan_scale_invariant():
    p = colnorm_probs(make_rng(4).standard_normal((3, 5)))
    plan = draw_plan(p, 20, 7)
    recon = plan.scales * np.sqrt(plan.indices.size * p.p[plan.indices])
    np.testing.assert_allclose(recon, 1.0, atol=1e-12)


def test_draw_plan_never_picks_zero_probability():
    p = ProbVector(p=np.array([0.5, 0.0, 0.5, 0.0]))
    plan = draw_plan(p, 2000, 11)
    assert set(np.unique(plan.indices)) <= {0, 2}
    assert np.all(np.isfinite(plan.scales))


def test_draw_plan_frequencies_binomial():
    """Uniform n=4, c=1e5: each frequency within 4 sigma of 0.25."""
    c = 100_000
    plan = draw_plan(uniform_probs(4), c, 2024)
    sigma = np.sqrt(0.25 * 0.75 / c)
    for k in range(4):
        freq = float(np.sum(plan.indices == k)) / c
        assert abs(freq - 0.25) <= 4.0 * sigma


def test_draw_plan_chi_square_gof():
    """n=8, c=1e5 draws pass a chi-square fit test at significance 1e-6."""
    n, c = 8, 100_000
    p = colnorm_probs(make_rng(5).standard_normal((4, n)))
    plan = draw_plan(p, c, 77)
    observed = np.bincount(plan.indices, minlength=n).astype(float)
    expected = c * p.p
    stat = float(np.sum((observed - expected) ** 2 / expected))
    assert stat <= scipy.stats.chi2.isf(1e-6, n - 1)


def test_sampling_plan_validation():
    plan = SamplingPlan(indices=np.array([0, 2]), scales=np.ones(2), n=3)
    assert plan.indices.tolist() == [0, 2]
    for bad in (-1, 3):  # 0-based: valid indices are [0, n)
        with pytest.raises(ValueError, match="out of"):
            SamplingPlan(indices=np.array([bad]), scales=np.array([1.0]), n=3)
    with pytest.raises(ValueError):
        SamplingPlan(indices=np.array([1, 2]), scales=np.array([1.0]), n=3)
    with pytest.raises(ValueError):
        SamplingPlan(indices=np.array([], dtype=np.int64), scales=np.array([]), n=3)
    with pytest.raises(ValueError):
        draw_plan(uniform_probs(3), 0, 0)


def test_plan_application_helpers():
    rng = make_rng(6)
    A = rng.standard_normal((4, 6))
    B = rng.standard_normal((6, 3))
    sk = rand_matrix_multiply(A, B, 5, uniform_probs(6), 3)
    C, R, plan = sk.C, sk.R, sk.plan
    for t in range(5):
        i = plan.indices[t]
        np.testing.assert_allclose(C[:, t], A[:, i] * plan.scales[t],
                                   atol=1e-15)
        np.testing.assert_allclose(R[t, :], B[i, :] * plan.scales[t],
                                   atol=1e-15)
    with pytest.raises(ValueError, match="columns"):
        rand_matrix_multiply(A.T, B, 5, uniform_probs(6), 3)
    with pytest.raises(ValueError, match="rows"):
        rand_matrix_multiply(A, B.T, 5, uniform_probs(6), 3)


# 4097 x 4 takes blocks of 4096 rows and a last block of one; 300 x 100 takes
# blocks of 163 and 137 rows; 20000 x 1 is a column longer than one block.
@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (37, 50), (5000, 3),
                                   (3, 5000), (4097, 4), (300, 100), (20000, 1)])
def test_sq_norms_equal_numpy_sum_bit_for_bit(shape):
    """Also on a column-major view of the same values (the Gram instance's A
    is the transpose of a row-major A^T): the bits do not depend on layout."""
    M = make_rng(3).standard_normal(shape)
    F = np.ascontiguousarray(M.T).T
    assert F.flags.f_contiguous and np.array_equal(F, M)
    for axis in (0, 1):
        got = _sq_norms(M, axis)
        assert got.tobytes() == np.sum(M * M, axis=axis).tobytes()
        assert np.sqrt(got).tobytes() == np.linalg.norm(M, axis=axis).tobytes()
        assert _sq_norms(F, axis).tobytes() == got.tobytes()


def test_sq_norms_of_an_overflowing_entry_are_inf_without_a_warning():
    M = np.array([[1e200, 1.0], [2.0, 3.0]])
    with np.errstate(all="raise"):
        assert _sq_norms(M, 0).tolist() == [np.inf, 10.0]
        assert _sq_norms(M, 1).tolist() == [np.inf, 13.0]


@pytest.mark.parametrize("family", [lambda A: optimal_probs(A, A.T), colnorm_probs,
                                    rownorm_probs], ids=["optimal", "colnorm", "rownorm"])
def test_weights_that_overflow_are_refused_without_a_warning(family):
    A = np.array([[1e200, 1.0], [2.0, 3.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="sampling weights overflow float64"):
            family(A)


def _traced_peak(call) -> int:
    call()  # outside the count: one-time imports and caches
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


M_PEAK = make_rng(4).standard_normal((512, 2048))
MT_PEAK = np.ascontiguousarray(M_PEAK.T)


@pytest.mark.parametrize("axis", [0, 1])
def test_sq_norms_hold_no_temporary_larger_than_a_block(axis):
    assert _BLOCK * 8 < 0.1 * M_PEAK.nbytes
    assert _traced_peak(lambda: _sq_norms(M_PEAK, axis)) < 0.1 * M_PEAK.nbytes


@pytest.mark.parametrize("name", ["optimal_probs", "expected_frobenius_error"])
def test_public_norm_consumers_square_no_copy_of_the_matrix(name):
    """Neither squares nor masks M: the entry check (`as_matrix`, at the
    public boundary) scans it by blocks."""
    probs = optimal_probs(M_PEAK, MT_PEAK)
    call = {"optimal_probs": lambda: optimal_probs(M_PEAK, MT_PEAK),
            "expected_frobenius_error": lambda: expected_frobenius_error(
                M_PEAK, MT_PEAK, 64, probs)}[name]
    assert _traced_peak(call) < 0.1 * M_PEAK.nbytes
