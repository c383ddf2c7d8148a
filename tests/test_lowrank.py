import numpy as np
import pytest

import rnla.lowrank
from rnla import (SketchRankError, column_sample_fro_check, frobenius_norm,
                  gen_matrix, lowrank_sample_size_explicit, make_rng, make_srht,
                  orthonormal_basis, rand_low_rank,
                  rayleigh_ritz_identity_check, srht_apply,
                  structural_inequality_check, thin_svd)


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


def _baseline(svd_A, k):
    """The best rank-k error ||A - A_k||_F from the singular tail."""
    return float(np.sqrt(np.sum(svd_A.sigma[k:] ** 2)))


def test_exact_rank_matrix_recovered():
    rng = make_rng(0)
    A = rng.standard_normal((16, 2)) @ rng.standard_normal((2, 12))
    f = thin_svd(A)
    for seed in range(3):
        res = rand_low_rank(A, 2, 0.25, seed=seed, c_override=4, svd_A=f)
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
        scale = max(1.0, frobenius_norm(A))
        f = thin_svd(A)
        for seed in range(5):
            res = rand_low_rank(A, 4, 0.25, seed=seed, c_override=12, svd_A=f)
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
    A = gen_matrix("gaussian", 24, 18, 10)
    U_C = orthonormal_basis(A @ make_rng(11).standard_normal((18, 6)))
    assert rayleigh_ritz_identity_check(A, U_C, 3) <= 1e-9
    rank1 = np.outer(np.ones(6), np.ones(4))
    with pytest.raises(SketchRankError, match=r"= 1 < k = 2$"):
        rayleigh_ritz_identity_check(rank1, orthonormal_basis(rank1), 2)


@pytest.mark.parametrize("diagnostics", [True, False])
def test_one_factorization_of_W_per_call(monkeypatch, diagnostics):
    """np.linalg.svd sees C and W = U_C^T A once each; diagnostics reuse W's."""
    A = gen_matrix("lowrank_plus_noise", 32, 24, 2, sigma=(8.0, 6.0, 4.0),
                   eta=0.01)
    svd_A = thin_svd(A) if diagnostics else None
    shapes = []
    svd = np.linalg.svd

    def counting_svd(M, *args, **kwargs):
        shapes.append(np.shape(M))
        return svd(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    res = rand_low_rank(A, 3, 0.25, seed=0, c_override=10, svd_A=svd_A)
    # C is 32 x 10; W has one row per column of U_C, and 24 columns.
    assert len(shapes) == 2 and shapes[0] == (32, 10) and shapes[1][1] == 24
    if diagnostics:
        assert res.diagnostics.identity_gap <= 1e-9 * frobenius_norm(A)


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


def test_column_sampling_unbiased_for_fro_norm():
    X = np.array([[1.0, 2.0]])
    expected, actual = column_sample_fro_check(X, 1)
    assert actual == pytest.approx(5.0, abs=1e-14)
    assert expected == pytest.approx(actual, rel=1e-12)
    Y = make_rng(16).standard_normal((4, 5))
    for c in (1, 2, 3):
        expected, actual = column_sample_fro_check(Y, c)
        assert expected == pytest.approx(actual, rel=1e-12)
    assert column_sample_fro_check(np.zeros((3, 3)), 2) == (0.0, 0.0)


def test_column_sampling_caps():
    with pytest.raises(ValueError, match="cap"):
        column_sample_fro_check(np.ones((2, 7)), 2)
    with pytest.raises(ValueError, match="cap"):
        column_sample_fro_check(np.ones((2, 3)), 4)
    with pytest.raises(ValueError):
        column_sample_fro_check(np.ones((2, 3)), 0)
