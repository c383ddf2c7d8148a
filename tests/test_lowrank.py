import tracemalloc

import numpy as np
import pytest

import rnla.lowrank
from rnla import (ExactLowRank, SketchRankError, enumerate_sketch_moments,
                  exact_low_rank, gen_matrix, lowrank_sample_size_explicit,
                  make_rng, make_srht, orthonormal_basis, rand_low_rank,
                  srht_apply, structural_inequality_check, thin_svd, uniform_probs)


def test_sample_size_explicit_frozen():
    out = lowrank_sample_size_explicit(256, 2, 0.5)
    assert out.count == 169714
    assert out.raw == pytest.approx(169713.55345275524, rel=1e-12)


def test_sample_size_monotonicity():
    assert lowrank_sample_size_explicit(512, 2, 0.5).count > \
        lowrank_sample_size_explicit(256, 2, 0.5).count
    assert lowrank_sample_size_explicit(256, 3, 0.5).count > \
        lowrank_sample_size_explicit(256, 2, 0.5).count
    assert lowrank_sample_size_explicit(256, 2, 0.25).count > \
        lowrank_sample_size_explicit(256, 2, 0.5).count


def test_sample_size_validation():
    with pytest.raises(ValueError):
        lowrank_sample_size_explicit(2, 1, 0.5)
    with pytest.raises(ValueError):
        lowrank_sample_size_explicit(16, 0, 0.5)
    with pytest.raises(ValueError):
        lowrank_sample_size_explicit(16, 1, 0.6)
    with pytest.raises(ValueError):
        lowrank_sample_size_explicit(16, 1, 0.0)


def _baseline(f, k):
    """The best rank-k error ||A - A_k||_F from the singular tail."""
    return float(np.sqrt(np.sum(f.sigma[k:] ** 2)))


def test_exact_rank_matrix_recovered():
    rng = make_rng(0)
    A = rng.standard_normal((16, 2)) @ rng.standard_normal((2, 12))
    f = exact_low_rank(A, 2)
    for seed in range(3):
        res = rand_low_rank(A, 2, 0.25, seed=seed, c_override=4, exact=f)
        assert _baseline(f, 2) == pytest.approx(0.0, abs=1e-10)
        assert res.error_fro <= 1e-8
        assert res.diagnostics.tail_sq == pytest.approx(0.0, abs=1e-18)
        assert res.c_used == 4


def test_identity_and_split_on_random_runs():
    """Extraction identity holds exactly; the error splits into range + tail."""
    cases = [
        gen_matrix("gaussian", 32, 24, 1),
        gen_matrix("lowrank_plus_noise", 48, 32, 2,
                   sigma=(10.0, 8.0, 6.0, 5.0), eta=0.05),
    ]
    for A in cases:
        scale = max(1.0, np.linalg.norm(A, "fro"))
        f, ex = thin_svd(A), exact_low_rank(A, 4)
        for seed in range(5):
            res = rand_low_rank(A, 4, 0.25, seed=seed, c_override=12, exact=ex)
            d = res.diagnostics
            assert d.identity_gap <= 1e-9 * scale
            op = make_srht(A.shape[1], 12, seed, side="right")
            U_C = orthonormal_basis(srht_apply(op, A))
            A_k = f.truncate(4).reconstruct()
            dense = np.linalg.norm(A_k - U_C @ (U_C.T @ A_k), "fro") ** 2
            assert d.projected_tail_sq == pytest.approx(dense, rel=1e-12)
            assert res.error_fro ** 2 <= d.projected_tail_sq + d.tail_sq + 1e-8
            assert res.error_fro >= _baseline(f, 4) - 1e-10
            assert 4 <= d.basis_cols <= 12


def test_error_beats_relative_target_often():
    A = gen_matrix("lowrank_plus_noise", 64, 32, 3,
                   sigma=(10.0, 8.0, 6.0, 5.0), eta=0.02)
    baseline = _baseline(thin_svd(A), 4)
    hits = 0
    for seed in range(20):
        res = rand_low_rank(A, 4, 0.25, seed=seed, c_override=16)
        if res.error_fro <= 1.25 * baseline:
            hits += 1
    assert hits >= 15


def test_deterministic_in_seed():
    A = gen_matrix("gaussian", 16, 16, 4)
    r1 = rand_low_rank(A, 2, 0.25, seed=5, c_override=6)
    r2 = rand_low_rank(A, 2, 0.25, seed=5, c_override=6)
    r3 = rand_low_rank(A, 2, 0.25, seed=6, c_override=6)
    assert r1.U_tilde_k.tobytes() == r2.U_tilde_k.tobytes()
    assert r1.error_fro == r2.error_fro
    assert r1.U_tilde_k.tobytes() != r3.U_tilde_k.tobytes()


def test_returned_basis_is_orthonormal():
    A = gen_matrix("gaussian", 20, 14, 7)
    res = rand_low_rank(A, 3, 0.25, seed=0, c_override=8)
    U = res.U_tilde_k
    assert U.shape == (20, 3)
    np.testing.assert_allclose(U.T @ U, np.eye(3), atol=1e-10)


def test_rank_deficient_sketch_raises():
    rng = make_rng(8)
    A = np.outer(rng.standard_normal(12), rng.standard_normal(10))
    with pytest.raises(SketchRankError, match=r"c = 4"):
        rand_low_rank(A, 2, 0.25, seed=0, c_override=4)


def test_parameter_validation():
    A = gen_matrix("gaussian", 8, 6, 9)
    with pytest.raises(ValueError):
        rand_low_rank(A, 0, 0.25, seed=0, c_override=4)
    with pytest.raises(ValueError):
        rand_low_rank(A, 7, 0.25, seed=0, c_override=8)
    with pytest.raises(ValueError):
        rand_low_rank(A, 2, 0.5, seed=0, c_override=4)
    with pytest.raises(ValueError):
        rand_low_rank(A, 2, 0.25, seed=0, c_override=1)


def test_default_width_at_least_n_pad_is_refused(monkeypatch):
    """No c_override and a theoretical width >= n_pad: refused before make_srht."""
    def no_operator(*args, **kwargs):
        raise AssertionError("make_srht ran")

    monkeypatch.setattr(rnla.lowrank, "make_srht", no_operator)
    count = lowrank_sample_size_explicit(3, 1, 0.25).count
    with pytest.raises(ValueError, match=rf"c = {count} is at least n_pad = 4; "
                                         r"pass c_override \(--c\)"):
        rand_low_rank(np.eye(3), 1, 0.25, seed=0)


def test_identity_check_direct():
    """For any orthonormal U_C: A - Uk Uk^T A = A - U_C (U_C^T A)_k, Uk = U_C U_{W,k}."""
    A = gen_matrix("gaussian", 24, 18, 10)
    U_C = orthonormal_basis(A @ make_rng(11).standard_normal((18, 6)))
    fw = thin_svd(U_C.T @ A)
    U_k = U_C @ fw.U[:, :3]
    gap = np.linalg.norm((A - U_k @ (U_k.T @ A))
                         - (A - U_C @ fw.truncate(3).reconstruct()), "fro")
    assert gap <= 1e-9


@pytest.mark.parametrize("diagnostics", [True, False])
def test_one_factorization_of_W_per_call(monkeypatch, diagnostics):
    """np.linalg.svd sees C and W = U_C^T A once each; diagnostics reuse W's."""
    A = gen_matrix("lowrank_plus_noise", 32, 24, 2, sigma=(8.0, 6.0, 4.0),
                   eta=0.01)
    exact = exact_low_rank(A, 3) if diagnostics else None
    shapes = []
    svd = np.linalg.svd

    def counting_svd(M, *args, **kwargs):
        shapes.append(np.shape(M))
        return svd(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    res = rand_low_rank(A, 3, 0.25, seed=0, c_override=10, exact=exact)
    # C is 32 x 10; W has one row per column of U_C, and 24 columns.
    assert len(shapes) == 2 and shapes[0] == (32, 10) and shapes[1][1] == 24
    if diagnostics:
        assert res.diagnostics.identity_gap <= 1e-9 * np.linalg.norm(A, "fro")


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_diagnostics_carry_the_harness_verdicts(scale):
    """identity_ok is identity_gap <= 1e-9 max(1, ||A||_F), and split_ok is
    error^2 <= projected_tail_sq + tail_sq + 1e-8, written out here.  The
    scales put ||A||_F below and above 1."""
    for seed in range(8):
        A = scale * gen_matrix("lowrank_plus_noise", 40, 24, seed,
                               sigma=(8.0, 6.0, 4.0, 1.0), eta=0.05)
        res = rand_low_rank(A, 3, 0.25, seed, c_override=8,
                            exact=exact_low_rank(A, 3))
        d = res.diagnostics
        norm_A = float(np.linalg.norm(A, "fro"))
        assert d.identity_ok == (d.identity_gap <= 1e-9 * max(1.0, norm_A))
        assert d.split_ok == (res.error_fro ** 2
                              <= d.projected_tail_sq + d.tail_sq + 1e-8)
        assert rand_low_rank(A, 3, 0.25, seed, c_override=8).diagnostics is None


def _peak_bytes(call):
    """call()'s result and the peak of the memory it traced."""
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# m >= 1.83 n is where LAPACK's own SVD runs a QR first; the rank-2 A has
# rank below k = 4; the zero A has rank 0 and an empty Y.
@pytest.mark.parametrize("m, n, rank", [
    (64, 24, None), (40, 30, None), (24, 24, None), (20, 48, None),
    (30, 20, 2), (12, 8, 0), (8, 12, 0),
], ids=["tall-2:1", "tall-4:3", "square", "wide", "rank<k", "zero", "zero-wide"])
def test_exact_low_rank_matches_the_thin_svd(m, n, rank):
    rng = make_rng(m * n)
    if rank is None:
        A = rng.standard_normal((m, n)) * np.logspace(0, -3, n)
    else:
        A = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
    k = 4
    f, ex = thin_svd(A), exact_low_rank(A, k)
    s1 = f.sigma[0] if f.rank else 0.0
    assert ex.sigma.shape == f.sigma.shape
    assert np.abs(ex.sigma - f.sigma).max(initial=0.0) <= 1e-13 * s1
    j = min(k, f.rank)
    assert ex.Y.shape == (m, j)
    Y = f.U[:, :j] * f.sigma[:j]
    assert np.abs(ex.Y @ ex.Y.T - Y @ Y.T).max(initial=0.0) <= 1e-12 * s1 ** 2


@pytest.mark.parametrize("m, n", [(1024, 512), (512, 1024)], ids=["tall", "wide"])
def test_exact_low_rank_keeps_no_factor_of_the_instance_size(m, n):
    """The record holds sigma and the m x k Y; no m x n U is formed or kept."""
    A = gen_matrix("gaussian", m, n, 17)
    ex, peak = _peak_bytes(lambda: exact_low_rank(A, 10))
    assert ex.sigma.nbytes + ex.Y.nbytes <= 0.05 * A.nbytes
    assert peak <= 3.2 * A.nbytes


@pytest.mark.parametrize("diagnostics, bound", [(True, 1.3), (False, 1.11)],
                         ids=["diagnostic", "plain"])
def test_solve_peaks_near_one_instance(diagnostics, bound):
    """The residual is the one m x n buffer: the identity gap is measured on
    c x n matrices, and G = U_C^T A is freed before the residual is formed.
    A first, untraced call builds the transform's cached Hadamard tables."""
    A = gen_matrix("lowrank_plus_noise", 2048, 1024, 18, sigma=[10.0] * 10,
                   eta=0.01)
    ex = exact_low_rank(A, 10) if diagnostics else None

    def solve():
        return rand_low_rank(A, 10, 0.25, 1, c_override=64, exact=ex)

    solve()
    res, peak = _peak_bytes(solve)
    if diagnostics:
        assert res.diagnostics.identity_ok and res.diagnostics.split_ok
    assert peak <= bound * A.nbytes


@pytest.mark.parametrize("m, n", [(96, 64), (64, 96)], ids=["tall", "wide"])
def test_identity_gap_is_the_m_by_n_gap(m, n):
    """The c x n gap ||W_k W_k^T G - G_k||_F equals the m x n gap
    ||(A - Utilde_k Utilde_k^T A) - (A - U_C G_k)||_F to roundoff."""
    A = gen_matrix("lowrank_plus_noise", m, n, 20, sigma=(9.0, 7.0, 5.0, 3.0),
                   eta=0.05)
    ex = exact_low_rank(A, 4)
    for seed in range(4):
        res = rand_low_rank(A, 4, 0.25, seed, c_override=16, exact=ex)
        U_C = orthonormal_basis(srht_apply(make_srht(n, 16, seed, side="right"), A))
        fw = thin_svd(U_C.T @ A)
        U_k = U_C @ fw.U[:, :4]
        dense = np.linalg.norm((A - U_k @ (U_k.T @ A))
                               - (A - U_C @ fw.truncate(4).reconstruct()), "fro")
        assert abs(res.diagnostics.identity_gap - dense) <= 1e-12 * max(
            1.0, np.linalg.norm(A, "fro"))


def test_exact_record_must_fit_the_instance_and_k():
    A = gen_matrix("gaussian", 16, 12, 19)
    with pytest.raises(ValueError, match=r"exact.Y is \(10, 3\), not \(16, 3\)"):
        rand_low_rank(A, 3, 0.25, 0, c_override=6, exact=exact_low_rank(A[:10], 3))
    with pytest.raises(ValueError, match=r"exact.Y is \(16, 2\), not \(16, 3\)"):
        rand_low_rank(A, 3, 0.25, 0, c_override=6, exact=exact_low_rank(A, 2))
    with pytest.raises(ValueError, match=r"k=13 out of range"):
        exact_low_rank(A, 13)
    with pytest.raises(ValueError, match=r"k=0 out of range"):
        exact_low_rank(A, 0)
    assert isinstance(exact_low_rank(A, 3), ExactLowRank)


def test_structural_inequality_random_sketches():
    rng = make_rng(12)
    A = gen_matrix("gaussian", 10, 8, 13)
    for _ in range(20):
        lhs, rhs = structural_inequality_check(A, rng.standard_normal((8, 4)), 2)
        assert lhs <= rhs + 1e-9


def test_structural_inequality_ideal_sketch_is_tight():
    A = gen_matrix("gaussian", 10, 8, 14)
    V_k = thin_svd(A).V[:, :2]
    lhs, rhs = structural_inequality_check(A, V_k, 2)
    assert lhs == pytest.approx(0.0, abs=1e-16)
    assert rhs == pytest.approx(0.0, abs=1e-16)


def test_structural_inequality_validation():
    A = gen_matrix("gaussian", 10, 8, 15)
    Z_perp = thin_svd(A).V[:, 2:]
    with pytest.raises(ValueError, match="misses top singular directions"):
        structural_inequality_check(A, Z_perp, 2)
    with pytest.raises(ValueError):
        structural_inequality_check(A, np.ones((5, 2)), 1)
    with pytest.raises(ValueError):
        structural_inequality_check(np.outer(np.ones(4), np.ones(4)),
                                    np.eye(4), 2)


def _column_sample_fro(X, c):
    """Enumerated E ||X S||_F^2 under uniform c-column sampling, and ||X||_F^2."""
    mom = enumerate_sketch_moments(X, X.T, c, uniform_probs(X.shape[1]))
    return float(np.trace(mom.mean)), float(np.sum(X * X))


def test_column_sampling_unbiased_for_fro_norm():
    X = np.array([[1.0, 2.0]])
    expected, actual = _column_sample_fro(X, 1)
    assert actual == pytest.approx(5.0, abs=1e-14)
    assert expected == pytest.approx(actual, rel=1e-12)
    Y = make_rng(16).standard_normal((4, 5))
    for c in (1, 2, 3):
        expected, actual = _column_sample_fro(Y, c)
        assert expected == pytest.approx(actual, rel=1e-12)
    assert _column_sample_fro(np.zeros((3, 3)), 2) == (0.0, 0.0)
