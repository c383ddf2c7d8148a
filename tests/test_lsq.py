import math
import tracemalloc

import numpy as np
import pytest

import rnla.linalg
import rnla.lsq
from rnla import (SketchRankError, check_conditions, exact_least_squares,
                  gen_lsq_instance, gen_matrix, ls_sample_size, make_rng, make_srht,
                  rand_least_squares, srht_apply, thin_svd)
from rnla.linalg import _tall_qr
from rnla.lsq import COND22_THRESHOLD, _exact_solve


def test_exact_solver_hand_instance():
    A = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    ex = exact_least_squares(A, np.array([1.0, 2.0, 2.0]))
    np.testing.assert_allclose(ex.x_opt, [1.0, 2.0], atol=1e-14)
    assert ex.Z == pytest.approx(2.0, abs=1e-14)
    np.testing.assert_allclose(ex.bperp, [0.0, 0.0, 2.0], atol=1e-14)


def test_exact_solver_minimum_norm():
    A = np.array([[1.0, 0.0], [1.0, 0.0]])
    ex = exact_least_squares(A, np.array([1.0, 1.0]))
    np.testing.assert_allclose(ex.x_opt, [1.0, 0.0], atol=1e-12)
    assert ex.Z == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        exact_least_squares(A, np.ones(3))


# (n, d, rows of each block _tall_qr factors).  At k = d + 1 = 17 a block has
# 2**14 // 17 = 963 rows: one row short of two blocks, exactly two, a 16-row
# tail that joins the block before it, a 17-row tail that does not.  Above
# k = 32, 16k rows exceed 2**14 // k and set the block: at k = 65, exactly two
# blocks of 1040 rows; at k = 101, two of 1616 rows, and a 50-row tail joins
# the last one.  Then a square [A, b] and a wide A.
@pytest.mark.parametrize("n, d, blocks", [
    (1925, 16, [1925]),
    (1926, 16, [963, 963]),
    (2905, 16, [963, 963, 979]),
    (2906, 16, [963, 963, 963, 17]),
    (2080, 64, [1040, 1040]),
    (3282, 100, [1616, 1666]),
    (17, 16, [17]),
    (3, 5, [3]),
], ids=["one-block", "two-blocks", "short-tail", "k-row-tail", "two-blocks-k=65",
        "wide-k", "n=d+1", "wide-A"])
def test_exact_solve_matches_lstsq_at_block_boundaries(monkeypatch, n, d, blocks):
    rng = make_rng(n + d)
    A, b = rng.standard_normal((n, d)), rng.standard_normal(n)
    x_l = np.linalg.lstsq(A, b, rcond=None)[0]
    Z_l = float(np.linalg.norm(A @ x_l - b))
    diag_ref = np.abs(np.diag(np.linalg.qr(np.column_stack([A, b]), mode="r")))
    diag = np.abs(np.diag(_tall_qr((A, b))))
    assert np.abs(diag - diag_ref).max() <= 1e-13 * diag_ref.max()
    shapes = []
    dgeqrf = rnla.linalg.lapack_lite.dgeqrf

    def recording_dgeqrf(m, n, a, lda, tau, work, lwork, info):
        # A workspace query (lwork = -1) factors nothing.
        if lwork != -1:
            shapes.append((m, n))
        return dgeqrf(m, n, a, lda, tau, work, lwork, info)

    monkeypatch.setattr(rnla.linalg.lapack_lite, "dgeqrf", recording_dgeqrf)
    ex = _exact_solve(A, b)
    k = d + 1
    stacked = [(len(blocks) * k, k)] if len(blocks) > 1 else []
    assert shapes == [(rows, k) for rows in blocks] + stacked
    assert np.linalg.norm(ex.x_opt - x_l) <= 1e-12 * np.linalg.norm(x_l)
    assert ex.Z == pytest.approx(Z_l, rel=1e-12, abs=1e-14 * np.linalg.norm(b))
    assert np.array_equal(ex.bperp, b - A @ ex.x_opt)
    assert ex.sigma.size == min(n, d)
    np.testing.assert_allclose(ex.sigma, np.linalg.svd(A, compute_uv=False)[:ex.sigma.size],
                               rtol=1e-12)
    assert np.abs(ex.V.T @ ex.V - np.eye(ex.sigma.size)).max() <= 1e-13
    assert np.abs(A @ ex.V @ ex.V.T - A).max() <= 1e-12 * np.abs(A).max()
    ex_e = exact_least_squares(A, b)
    assert np.array_equal(ex_e.x_opt, ex.x_opt) and ex_e.Z == ex.Z


def _frozen_row_major_tall_qr(blocks):
    """_tall_qr as it factored row-major blocks one np.linalg.qr call at a time."""
    cols = [B.reshape(B.shape[0], -1) for B in blocks]
    m, k = cols[0].shape[0], sum(c.shape[1] for c in cols)
    rows = max(16 * k, 2 ** 14 // k)
    if m < 2 * rows:
        return np.linalg.qr(cols[0] if len(cols) == 1 else np.concatenate(cols, axis=1),
                            mode="r")
    bounds = [*range(0, m - k + 1, rows), m]
    buf = np.empty((max(hi - lo for lo, hi in zip(bounds, bounds[1:])), k))
    Rs = np.empty(((len(bounds) - 1) * k, k))
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        block = buf[:hi - lo]
        np.concatenate([c[lo:hi] for c in cols], axis=1, out=block)
        Rs[i * k:(i + 1) * k] = np.linalg.qr(block, mode="r")
    return np.linalg.qr(Rs, mode="r")


# The block-boundary shapes, then k = 4 (4096-row blocks): exactly 8 full
# blocks and a 100-row tail; 8 and a 4098-row last block that took in a 2-row
# tail; 10 and a 4040-row tail; 16 and a 4099-row last block.  Then k = 129
# and k = 201, past geqrf's crossover of 128 columns to its blocked code, which
# it takes only with the workspace numpy's qr asks for: one full block and a
# 2136-row last one, then two and a 2568-row last one.
@pytest.mark.parametrize("n, d", [(1925, 16), (1926, 16), (2905, 16), (2906, 16),
                                  (2080, 64), (3282, 100), (17, 16), (3, 5),
                                  (8 * 4096 + 100, 3), (9 * 4096 + 2, 3), (45000, 3),
                                  (17 * 4096 + 3, 3), (4200, 128), (9000, 200)])
def test_column_major_tall_qr_gives_the_row_major_bits(n, d):
    """Blocks factored in place in a column-major buffer hand geqrf the same
    values: R byte for byte, for a tuple, a lone matrix and a lone vector."""
    rng = make_rng(n * d)
    A, b = rng.standard_normal((n, d)), rng.standard_normal(n)
    for blocks in ((A, b), (A,), (b,)):
        R = _tall_qr(blocks)
        assert R.flags.c_contiguous
        assert R.tobytes() == _frozen_row_major_tall_qr(blocks).tobytes()


def _peak_bytes(call):
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_exact_solve_allocates_one_array_of_the_instance_size():
    """At most one array of [A, b]'s size, and the record keeps nothing larger than b."""
    A, b, _ = gen_lsq_instance(40000, 16, 1)
    ex, peak = _peak_bytes(lambda: _exact_solve(A, b))
    assert peak <= 1.25 * (A.nbytes + b.nbytes)
    assert max(a.nbytes for a in (ex.x_opt, ex.sigma, ex.V, ex.bperp)) == b.nbytes


def test_exact_solve_peaks_below_a_quarter_of_the_instance():
    """No Q and no copy of [A, b]: row blocks pass through one small buffer, and
    bperp and A @ x_opt share one array."""
    A, b, _ = gen_lsq_instance(131072, 16, 2)
    _, peak = _peak_bytes(lambda: _exact_solve(A, b))
    assert peak <= 0.25 * (A.nbytes + b.nbytes)


def test_exact_solve_factors_each_block_where_it_is_gathered():
    """LAPACK factors each row block in the one buffer it was gathered into,
    with no copy of its own: the oracle peaks below a tenth of [A, b]."""
    A, b, _ = gen_lsq_instance(131072, 16, 2)
    _, peak = _peak_bytes(lambda: _exact_solve(A, b))
    assert peak <= 0.1 * (A.nbytes + b.nbytes)


def _frozen_tall_qr_solve(A, b):
    """(R, x_opt, Z) as the Q-forming blocked QR gave them before it kept R only."""
    M = np.column_stack([A, b])
    m, k = M.shape
    rows = max(2 * k, 2 ** 14 // k)
    if m < 2 * rows:
        _, R = np.linalg.qr(M)
    else:
        bounds = [*range(0, m - k + 1, rows), m]
        Rs = np.empty(((len(bounds) - 1) * k, k))
        for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            M[lo:hi], Rs[i * k:(i + 1) * k] = np.linalg.qr(M[lo:hi])
        _, R = np.linalg.qr(Rs)
    d = A.shape[1]
    x_opt = thin_svd(R[:d, :d]).pinv() @ R[:d, d]
    return R, x_opt, float(np.linalg.norm(A @ x_opt - b))


@pytest.mark.parametrize("n", [1925, 1926], ids=["one-block", "two-blocks"])
def test_r_only_qr_gives_the_q_forming_bits(n):
    A, b, _ = gen_lsq_instance(n, 16, n)
    R0, x0, Z0 = _frozen_tall_qr_solve(A, b)
    ex = _exact_solve(A, b)
    assert _tall_qr((A, b)).tobytes() == R0.tobytes()
    assert ex.x_opt.tobytes() == x0.tobytes()
    assert ex.Z == Z0


def test_exact_solve_keeps_the_min_norm_solution_of_a_rank_deficient_A():
    A, b, _ = gen_lsq_instance(8192, 4, 3)
    A = A[:, [0, 1, 2, 0]]
    ex = _exact_solve(A, b)
    x_l = np.linalg.lstsq(A, b, rcond=None)[0]
    assert ex.sigma.size == 3 and ex.V.shape == (4, 3)
    assert np.linalg.norm(ex.x_opt - x_l) <= 1e-12 * np.linalg.norm(x_l)
    assert ex.x_opt[0] == pytest.approx(ex.x_opt[3], rel=1e-12)
    assert ex.Z == pytest.approx(np.linalg.norm(A @ x_l - b), rel=1e-12)


@pytest.mark.parametrize("kappa", [1.0, 1e6, 1e10])
def test_condition_flags_agree_with_the_thin_svd_basis(kappa):
    """The solver's (X A) V diag(1/sigma) and X bperp give the verdicts of
    transforming the thin SVD's U_A and bperp = b - U_A U_A^T b.

    That second transform of the thin SVD's basis is the reference.  Residual
    noise 0 makes the system consistent, where cond23 compares roundoff with
    roundoff: a basis orthonormal only to kappa * u, such as A V diag(1/sigma)
    transformed, fails there, and so would X b - (X A) x_opt for X bperp.
    """
    n, d, r, eps = 1024, 8, 256, 0.05
    for noise in (1e-2, 1e-8, 0.0):
        for seed in range(10):
            A = gen_matrix("lowrank_plus_noise", n, d, seed,
                           sigma=np.geomspace(1.0, 1.0 / kappa, d))
            rng = make_rng(seed + 100)
            b = A @ rng.standard_normal(d) + noise * rng.standard_normal(n)
            U = thin_svd(A).U
            bperp = b - U @ (U.T @ b)
            sk = srht_apply(make_srht(n, r, seed, side="left"), (U, bperp))
            ref = check_conditions(sk[:, :d], sk[:, d], float(np.linalg.norm(bperp)),
                                   n * np.finfo(float).eps * float(np.linalg.norm(b)),
                                   eps)
            rep = rand_least_squares(A, b, eps, seed=seed, r_override=r,
                                     exact=_exact_solve(A, b)).diagnostics
            assert ((rep.cond22_pass, rep.cond23_pass)
                    == (ref.cond22_pass, ref.cond23_pass)), (noise, seed)


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
    with pytest.raises(ValueError, match="exact is for an A of 8 rows and rank 3; "
                                         "this A is 16 x 3"):
        rand_least_squares(A, b, 0.5, seed=0, r_override=8,
                           exact=exact_least_squares(A[:8], b[:8]))


def test_randomized_recovers_consistent_solution():
    """b in range(A) means the sketched solve is exact for full-rank sketches."""
    A, b, x_star = gen_lsq_instance(64, 3, 2, consistent=True)
    ex = exact_least_squares(A, b)
    for seed in range(5):
        sol = rand_least_squares(A, b, 0.5, seed=seed, r_override=16, exact=ex)
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
                              exact=exact_least_squares(A, b))
    assert 0 < bare.ops <= per_apply
    assert bare.ops < full.ops <= bare.ops + per_apply / cols  # bperp, one column
    assert bare.diagnostics is None


def test_diagnostic_solve_transforms_one_column_the_second_time(monkeypatch):
    """X U_A comes from the first sketch; only bperp is transformed again."""
    A, b, _ = gen_lsq_instance(100, 4, 4)
    ex = exact_least_squares(A, b)
    widths = []
    apply = rnla.lsq.srht_apply

    def recording_apply(op, M, counter=None):
        blocks = M if isinstance(M, tuple) else (M,)
        widths.append(sum(1 if B.ndim == 1 else B.shape[1] for B in blocks))
        return apply(op, M, counter)

    monkeypatch.setattr(rnla.lsq, "srht_apply", recording_apply)
    rand_least_squares(A, b, 0.5, seed=0, r_override=32, exact=ex)
    assert widths == [5, 1]


@pytest.mark.parametrize("diagnostics", [False, True])
@pytest.mark.parametrize("m, bound", [(16384, 0.8), (16385, 1.35)])
def test_randomized_peak_memory_is_half_a_padded_buffer(m, bound, diagnostics):
    """(A, b) and then bperp go into the transform's (n_pad/2, k) half
    buffer as they are, with no stacked copy and no (n_pad, k) buffer: the
    solve peaks at about 0.70x [A, b] with no padding (n_pad = m) and at
    1.26x with the most (n_pad = 2m - 2), against 1.12x and 2.18x for a
    whole padded buffer."""
    A, b, _ = gen_lsq_instance(m, 16, 5)
    ex = _exact_solve(A, b) if diagnostics else None
    rand_least_squares(A, b, 0.5, seed=0, r_override=256, exact=ex)
    _, peak = _peak_bytes(
        lambda: rand_least_squares(A, b, 0.5, seed=0, r_override=256, exact=ex))
    assert peak <= bound * (A.nbytes + b.nbytes)


def test_conditions_imply_residual_and_forward_bounds():
    """Both realized-sketch conditions force the accuracy guarantees."""
    eps = 0.5
    A, b, _ = gen_lsq_instance(64, 3, 5)
    ex = exact_least_squares(A, b)
    x_opt, Z = ex.x_opt, ex.Z
    passes = 0
    for seed in range(50):
        sol = rand_least_squares(A, b, eps, seed=seed, r_override=48, exact=ex)
        rep = sol.diagnostics
        assert rep.Z == pytest.approx(Z, abs=1e-10)
        if rep.cond22_pass and rep.cond23_pass:
            passes += 1
            assert sol.residual_norm <= math.sqrt(1 + eps) * Z + 1e-8
            fwd = float(np.linalg.norm(sol.x_tilde - x_opt))
            assert fwd <= math.sqrt(eps) * Z / ex.sigma[-1] + 1e-8
    assert passes >= 20  # non-vacuous: the sweep at this size lands ~30/50


def test_scale_invariance_of_conditions():
    A, b, _ = gen_lsq_instance(32, 2, 7)
    r1, r2 = (rand_least_squares(A, bb, 0.5, seed=3, r_override=16,
                                 exact=exact_least_squares(A, bb)).diagnostics
              for bb in (b, b * 10.0))
    assert r1.cond22_pass == r2.cond22_pass
    assert r1.cond23_pass == r2.cond23_pass
    assert r2.Z == pytest.approx(10.0 * r1.Z, rel=1e-10)
