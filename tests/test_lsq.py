import math

import numpy as np
import pytest

from rnla import (SketchRankError, check_conditions, exact_least_squares,
                  forward_error_bound, gen_lsq_instance, ls_sample_size,
                  rand_least_squares, rand_least_squares_amplified, thin_svd)
from rnla.lsq import COND22_THRESHOLD


def test_exact_solver_hand_instance():
    A = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    x, Z = exact_least_squares(A, np.array([1.0, 2.0, 2.0]))
    np.testing.assert_allclose(x, [1.0, 2.0], atol=1e-14)
    assert Z == pytest.approx(2.0, abs=1e-14)


def test_exact_solver_minimum_norm():
    A = np.array([[1.0, 0.0], [1.0, 0.0]])
    x, Z = exact_least_squares(A, np.array([1.0, 1.0]))
    np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-12)
    assert Z == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        exact_least_squares(A, np.ones(3))


def _branches(n, d, eps):
    """The embedding and accuracy branches behind ls_sample_size's max."""
    ln_nd = math.log(40.0 * n * d)
    embed = 48.0 ** 2 * d * ln_nd * math.log(100.0 ** 2 * d * ln_nd)
    return embed, 40.0 * d * ln_nd / eps


def test_sample_size_frozen_values():
    out = ls_sample_size(1024, 5, 0.5)
    embed, eps_b = _branches(1024, 5, 0.5)
    assert embed == pytest.approx(1877131.7814106275, rel=1e-12)
    assert eps_b == pytest.approx(4891.915668858996, rel=1e-12)
    assert out.raw == pytest.approx(embed, rel=1e-12)
    assert out.count == 1877132


def test_sample_size_eps_branch_dominates():
    out = ls_sample_size(1024, 5, 1e-6)
    embed, eps_b = _branches(1024, 5, 1e-6)
    assert eps_b > embed
    assert out.raw == pytest.approx(eps_b, rel=1e-12)
    assert out.count == math.ceil(out.raw)


def test_sample_size_validation():
    with pytest.raises(ValueError):
        ls_sample_size(4, 5, 0.5)
    with pytest.raises(ValueError):
        ls_sample_size(8, 2, 0.0)
    with pytest.raises(ValueError):
        ls_sample_size(8, 2, 1.0)


def _split_instance():
    # b = (3, 4, 5) against the first two coordinate axes: bperp = 5 e_3.
    U_A = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    b = np.array([3.0, 4.0, 5.0])
    bperp = np.array([0.0, 0.0, 5.0])
    bperp_err = 3 * np.finfo(float).eps * float(np.linalg.norm(b))
    return U_A, bperp, float(np.linalg.norm(bperp)), bperp_err


def test_conditions_identity_sketch_passes():
    U_A, bperp, Z, bperp_err = _split_instance()
    rep = check_conditions(U_A, bperp, Z, bperp_err, eps=0.5)
    assert rep.sigma_min_sq == pytest.approx(1.0, abs=1e-12)
    assert rep.cross_term == pytest.approx(0.0, abs=1e-14)
    assert rep.Z == pytest.approx(5.0, abs=1e-12)
    assert rep.cond22_pass and rep.cond23_pass


def test_conditions_shrunken_basis_fails_22():
    U_A, bperp, Z, bperp_err = _split_instance()
    rep = check_conditions(0.5 * U_A, bperp, Z, bperp_err, eps=0.5)
    assert rep.sigma_min_sq == pytest.approx(0.25, abs=1e-12)
    assert not rep.cond22_pass
    assert 0.25 < COND22_THRESHOLD


def test_conditions_cross_term_threshold():
    U_A, _, Z, bperp_err = _split_instance()
    leaked = np.array([0.1, 0.2, 0.0])  # (XU)^T Xb = leaked, norm^2 = 0.05
    assert check_conditions(U_A, leaked, Z, bperp_err, eps=0.5).cond23_pass
    assert not check_conditions(U_A, leaked, Z, bperp_err,
                                eps=1e-3).cond23_pass


def test_randomized_deterministic_in_seed():
    A, b, _ = gen_lsq_instance(64, 3, 0, consistent=False)
    s1 = rand_least_squares(A, b, 0.5, seed=7, r_override=16)
    s2 = rand_least_squares(A, b, 0.5, seed=7, r_override=16)
    s3 = rand_least_squares(A, b, 0.5, seed=8, r_override=16)
    assert s1.x_tilde.tobytes() == s2.x_tilde.tobytes()
    assert s1.residual_norm == s2.residual_norm
    assert s1.x_tilde.tobytes() != s3.x_tilde.tobytes()
    assert s1.r_used == 16


def test_randomized_validation():
    A, b, _ = gen_lsq_instance(16, 3, 1)
    with pytest.raises(ValueError):
        rand_least_squares(A, b, 0.5, seed=0, r_override=2)
    with pytest.raises(ValueError):
        rand_least_squares(A, b, 1.5, seed=0, r_override=8)
    with pytest.raises(SketchRankError, match=r"d = 3 at r = 8"):
        rand_least_squares(A[:, [0, 1, 0]], b, 0.5, seed=0, r_override=8)
    with pytest.raises(ValueError, match="A has 16 rows but b has length 15"):
        rand_least_squares(A, b[:15], 0.5, seed=0, r_override=8)
    with pytest.raises(ValueError, match=r"U of shape \(8, 3\); A needs \(16, 3\)"):
        rand_least_squares(A, b, 0.5, seed=0, r_override=8, svd_A=thin_svd(A[:8]))


def test_randomized_recovers_consistent_solution():
    """b in range(A) means the sketched solve is exact for full-rank sketches."""
    A, b, x_star = gen_lsq_instance(64, 3, 2, consistent=True)
    svd_A = thin_svd(A)
    for seed in range(5):
        sol = rand_least_squares(A, b, 0.5, seed=seed, r_override=16,
                                 svd_A=svd_A)
        np.testing.assert_allclose(sol.x_tilde, x_star, atol=1e-8)
        assert sol.residual_norm <= 1e-8
        assert sol.diagnostics.Z == pytest.approx(0.0, abs=1e-10)


def test_randomized_default_size_is_theoretical():
    """The theoretical size is at least n_pad = 2 here, so it is refused."""
    count = ls_sample_size(2, 1, 0.9).count
    with pytest.raises(ValueError, match=rf"r = {count} is at least n_pad = 2"):
        rand_least_squares(*gen_lsq_instance(2, 1, 3)[:2], 0.9, seed=0)


def test_ops_accounting():
    A, b, _ = gen_lsq_instance(100, 4, 4)
    n_pad, r, cols = 128, 32, 5
    per_apply = cols * 2 * n_pad * math.log2(r + 1)
    bare = rand_least_squares(A, b, 0.5, seed=0, r_override=r)
    full = rand_least_squares(A, b, 0.5, seed=0, r_override=r,
                              svd_A=thin_svd(A))
    assert 0 < bare.ops <= per_apply
    assert bare.ops < full.ops <= 2 * per_apply
    assert bare.diagnostics is None


def test_conditions_imply_residual_and_forward_bounds():
    """Both realized-sketch conditions force the accuracy guarantees."""
    eps = 0.5
    A, b, _ = gen_lsq_instance(64, 3, 5)
    x_opt, Z = exact_least_squares(A, b)
    f = thin_svd(A)
    gamma = float(np.linalg.norm(U := f.U @ (f.U.T @ b)) / np.linalg.norm(b))
    del U
    passes = 0
    for seed in range(50):
        sol = rand_least_squares(A, b, eps, seed=seed, r_override=48, svd_A=f)
        rep = sol.diagnostics
        assert rep.Z == pytest.approx(Z, abs=1e-10)
        if rep.cond22_pass and rep.cond23_pass:
            passes += 1
            assert sol.residual_norm <= math.sqrt(1 + eps) * Z + 1e-8
            fwd = float(np.linalg.norm(sol.x_tilde - x_opt))
            assert fwd <= math.sqrt(eps) * Z / f.sigma[-1] + 1e-8
            assert fwd <= forward_error_bound(A, b, eps, gamma) + 1e-8
    assert passes >= 20  # non-vacuous: the sweep at this size lands ~30/50


def test_amplified_matches_seed_sweep():
    A, b, _ = gen_lsq_instance(64, 3, 6)
    amp = rand_least_squares_amplified(A, b, 0.5, delta=0.01, seed=11,
                                       r_override=16)
    singles = [rand_least_squares(A, b, 0.5, seed=11 + t, r_override=16)
               for t in range(3)]  # ceil(ln 100 / ln 5) = 3
    best = singles[0]
    for s in singles[1:]:
        if s.residual_norm < best.residual_norm:
            best = s
    assert amp.residual_norm == best.residual_norm
    assert amp.x_tilde.tobytes() == best.x_tilde.tobytes()
    assert amp.residual_norm <= min(s.residual_norm for s in singles)
    with pytest.raises(ValueError):
        rand_least_squares_amplified(A, b, 0.5, delta=0.0, seed=0)


def test_forward_error_bound_frozen_case():
    A = np.eye(4)[:, :2]
    b = np.array([1.0, 0.0, 1.0, 0.0])
    # kappa = 1, ||x_opt|| = 1, gamma = 1/sqrt(2) so sqrt(gamma^-2 - 1) = 1.
    assert forward_error_bound(A, b, 0.25, 1 / math.sqrt(2)) == \
        pytest.approx(0.5, abs=1e-12)
    assert forward_error_bound(A, b, 0.25, 1.0) == 0.0


def test_forward_error_bound_validation():
    A = np.eye(3, 2)
    with pytest.raises(ValueError):
        forward_error_bound(A, np.ones(3), 0.5, 0.0)
    with pytest.raises(ValueError):
        forward_error_bound(A, np.ones(3), 0.5, 1.5)
    with pytest.raises(ValueError):
        forward_error_bound(np.zeros((3, 2)), np.ones(3), 0.5, 0.5)


def test_scale_invariance_of_conditions():
    A, b, _ = gen_lsq_instance(32, 2, 7)
    f = thin_svd(A)
    r1 = rand_least_squares(A, b, 0.5, seed=3, r_override=16,
                            svd_A=f).diagnostics
    r2 = rand_least_squares(A, b * 10.0, 0.5, seed=3, r_override=16,
                            svd_A=f).diagnostics
    assert r1.cond22_pass == r2.cond22_pass
    assert r1.cond23_pass == r2.cond23_pass
    assert r2.Z == pytest.approx(10.0 * r1.Z, rel=1e-10)
