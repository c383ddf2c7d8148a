import math
import tracemalloc

import numpy as np
import pytest

from rnla import (SketchRankError, check_conditions, exact_least_squares,
                  forward_error_bound, gen_lsq_instance, gen_matrix, ls_sample_size,
                  make_rng, rand_least_squares, rand_least_squares_amplified,
                  thin_svd)
from rnla.lsq import COND22_THRESHOLD, _exact_solve


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


# (n, d, rows of each block _tall_qr factors).  At k = d + 1 = 17 a block has
# 2**14 // 17 = 963 rows: one row short of two blocks, exactly two, a 16-row
# tail that joins the block before it, a 17-row tail that does not.  At
# k = 101, 2k = 202 rows exceed 2**14 // 101 = 162 and set the block, and a
# 50-row tail joins the last one.  Then a square [A, b] and a wide A.
@pytest.mark.parametrize("n, d, blocks", [
    (1925, 16, [1925]),
    (1926, 16, [963, 963]),
    (2905, 16, [963, 963, 979]),
    (2906, 16, [963, 963, 963, 17]),
    (1060, 100, [202, 202, 202, 202, 252]),
    (17, 16, [17]),
    (3, 5, [3]),
], ids=["one-block", "two-blocks", "short-tail", "k-row-tail", "wide-k", "n=d+1",
        "wide-A"])
def test_exact_solve_matches_lstsq_at_block_boundaries(monkeypatch, n, d, blocks):
    rng = make_rng(n + d)
    A, b = rng.standard_normal((n, d)), rng.standard_normal(n)
    x_l = np.linalg.lstsq(A, b, rcond=None)[0]
    Z_l = float(np.linalg.norm(A @ x_l - b))
    shapes = []
    qr = np.linalg.qr

    def recording_qr(M, *args, **kwargs):
        shapes.append(M.shape)
        return qr(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", recording_qr)
    f, x_opt, Z = _exact_solve(A, b)
    k = d + 1
    stacked = [(len(blocks) * k, k)] if len(blocks) > 1 else []
    assert shapes == [(rows, k) for rows in blocks] + stacked
    assert np.linalg.norm(x_opt - x_l) <= 1e-12 * np.linalg.norm(x_l)
    assert Z == pytest.approx(Z_l, rel=1e-12, abs=1e-14 * np.linalg.norm(b))
    assert f.rank == min(n, d)
    assert np.abs(f.U.T @ f.U - np.eye(f.rank)).max() <= 1e-13
    assert np.abs(f.reconstruct() - A).max() <= 1e-12 * np.abs(A).max()
    x_e, Z_e = exact_least_squares(A, b)
    assert np.array_equal(x_e, x_opt) and Z_e == Z


def test_exact_solve_allocates_one_array_of_the_instance_size():
    """Q is written over [A, b] and U_A over Q: no second n x d array."""
    A, b, _ = gen_lsq_instance(40000, 16, 1)
    tracemalloc.start()
    try:
        f, _, _ = _exact_solve(A, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * (A.nbytes + b.nbytes)
    assert f.U.shape == A.shape


def test_exact_solve_keeps_the_min_norm_solution_of_a_rank_deficient_A():
    A, b, _ = gen_lsq_instance(8192, 4, 3)
    A = A[:, [0, 1, 2, 0]]
    f, x_opt, Z = _exact_solve(A, b)
    x_l = np.linalg.lstsq(A, b, rcond=None)[0]
    assert f.rank == 3
    assert np.linalg.norm(x_opt - x_l) <= 1e-12 * np.linalg.norm(x_l)
    assert x_opt[0] == pytest.approx(x_opt[3], rel=1e-12)
    assert Z == pytest.approx(np.linalg.norm(A @ x_l - b), rel=1e-12)


@pytest.mark.parametrize("kappa", [1.0, 1e6, 1e10])
def test_condition_flags_agree_with_the_thin_svd_basis(kappa):
    """The QR oracle's U_A gives the thin SVD's cond22 and cond23 verdicts.

    The thin SVD of A is the reference.  Residual noise 0 makes the system
    consistent, where cond23 compares roundoff with roundoff: a basis
    orthonormal only to kappa * u, such as A V diag(1/sigma), fails there.
    """
    n, d, r, eps = 1024, 8, 256, 0.05
    for noise in (1e-2, 1e-8, 0.0):
        for seed in range(10):
            A = gen_matrix("lowrank_plus_noise", n, d, seed,
                           sigma=np.geomspace(1.0, 1.0 / kappa, d))
            rng = make_rng(seed + 100)
            b = A @ rng.standard_normal(d) + noise * rng.standard_normal(n)
            reports = [rand_least_squares(A, b, eps, seed=seed, r_override=r,
                                          svd_A=f).diagnostics
                       for f in (thin_svd(A), _exact_solve(A, b)[0])]
            flags = [(rep.cond22_pass, rep.cond23_pass) for rep in reports]
            assert flags[0] == flags[1], (noise, seed)


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


@pytest.mark.parametrize("diagnostics", [False, True])
def test_randomized_peak_memory_is_one_padded_buffer(diagnostics):
    """(A, b) and (U_A, bperp) go into the transform's buffer as they are, with
    no stacked copy: the solve peaks at about the bytes of [A, b]."""
    A, b, _ = gen_lsq_instance(16384, 16, 5)
    svd_A = _exact_solve(A, b)[0] if diagnostics else None
    rand_least_squares(A, b, 0.5, seed=0, r_override=256, svd_A=svd_A)
    tracemalloc.start()
    try:
        rand_least_squares(A, b, 0.5, seed=0, r_override=256, svd_A=svd_A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * (A.nbytes + b.nbytes)


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
