import math

import numpy as np
import pytest

from rnla import (as_matrix, as_vector, frobenius_norm, make_rng,
                  orthonormal_basis, pseudoinverse, spectral_norm, thin_svd)


def test_frobenius_norm_values():
    assert frobenius_norm(np.eye(3)) == pytest.approx(math.sqrt(3), abs=1e-15)
    assert frobenius_norm(np.zeros((2, 2))) == 0.0
    assert frobenius_norm([[3.0, 4.0]]) == pytest.approx(5.0, abs=1e-15)


def test_spectral_norm_values():
    assert spectral_norm(np.diag([3.0, 2.0])) == pytest.approx(3.0, abs=1e-12)
    assert spectral_norm(np.zeros((2, 3))) == 0.0
    assert spectral_norm(np.zeros((0, 3))) == 0.0


def _spectral_norm_cases():
    rng = make_rng(5)
    Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    negative = (Q * np.array([-9.0, 4.0, 3.0, 2.0, 1.0, 0.5])) @ Q.T
    negative = (negative + negative.T) / 2  # exactly symmetric
    return {"tall": rng.standard_normal((9, 4)), "wide": rng.standard_normal((4, 9)),
            "square": rng.standard_normal((7, 7)), "symmetric-negative": negative,
            "zero": np.zeros((5, 3)), "empty": np.zeros((0, 3)),
            "empty-square": np.zeros((0, 0)),
            # Entries whose squares underflow or overflow in float64.
            "tiny": np.array([[1e-200, 0.0, 0.0]]),
            "tiny-tall": 1e-200 * rng.standard_normal((9, 4)),
            "huge": np.array([[1e200, 1e200], [3e200, 0.0]]),
            "huge-wide": 1e200 * rng.standard_normal((4, 9))}


@pytest.mark.parametrize("case", sorted(_spectral_norm_cases()))
def test_spectral_norm_matches_numpy_without_an_svd(monkeypatch, case):
    """The eigenvalue rules agree with np.linalg.norm(M, 2); no SVD is taken.

    The symmetric case's most negative eigenvalue is the largest in magnitude;
    the tiny and huge cases would lose their Gram to underflow or overflow
    without scaling.
    """
    M = _spectral_norm_cases()[case]
    ref = float(np.linalg.norm(M, 2)) if M.size else 0.0
    if case == "symmetric-negative":
        assert np.array_equal(M, M.T) and -np.linalg.eigvalsh(M)[0] == pytest.approx(ref)
    calls = []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a))
    got = spectral_norm(M)
    assert calls == []
    assert abs(got - ref) <= 1e-12 * ref
    if ref == 0.0:
        assert got == 0.0 and math.copysign(1.0, got) == 1.0


def test_spectral_norm_randomized_maximization():
    # Oracle: max ||Mx|| over random unit x, polished by power iteration on
    # the Gram matrix so the comparison is meaningful at 1e-6.
    rng = make_rng(11)
    M = rng.standard_normal((5, 3))
    xs = rng.standard_normal((10_000, 3))
    xs /= np.linalg.norm(xs, axis=1)[:, None]
    norms = np.linalg.norm(xs @ M.T, axis=1)
    raw_max = float(norms.max())
    v = xs[int(np.argmax(norms))]
    G = M.T @ M
    for _ in range(100):
        v = G @ v
        v /= np.linalg.norm(v)
    polished = float(np.linalg.norm(M @ v))
    s = spectral_norm(M)
    assert s >= raw_max - 1e-12
    assert abs(s - polished) <= 1e-6


def test_thin_svd_diagonal():
    f = thin_svd(np.diag([3.0, 2.0]))
    assert f.rank == 2
    np.testing.assert_allclose(f.sigma, [3.0, 2.0], atol=1e-12)


def test_thin_svd_zero_matrix():
    f = thin_svd(np.zeros((3, 2)))
    assert f.rank == 0
    assert f.U.shape == (3, 0)
    assert f.sigma.shape == (0,)
    assert f.V.shape == (2, 0)


def test_thin_svd_factor_invariants():
    rng = make_rng(2)
    for _ in range(20):
        M = rng.standard_normal((4, 3))
        f = thin_svd(M)
        assert np.max(np.abs(f.U.T @ f.U - np.eye(f.rank))) <= 1e-10
        assert np.max(np.abs(f.V.T @ f.V - np.eye(f.rank))) <= 1e-10
        assert np.all(np.diff(f.sigma) <= 0.0)
        resid = frobenius_norm(M - f.reconstruct())
        assert resid <= 1e-10 * max(1.0, frobenius_norm(M))


def test_thin_svd_rejects_bad_input():
    with pytest.raises(ValueError):
        thin_svd(np.array([[np.nan, 1.0]]))
    with pytest.raises(ValueError):
        as_matrix(np.ones(3))
    with pytest.raises(ValueError):
        as_vector(np.ones((2, 3)))
    with pytest.raises(ValueError, match="empty matrix"):
        thin_svd(np.zeros((0, 3)))


def test_as_vector_flattens_a_single_row_or_column():
    for shape in ((3, 1), (1, 3)):
        v = as_vector(np.arange(3.0).reshape(shape))
        assert v.shape == (3,) and v.tolist() == [0.0, 1.0, 2.0]


def test_numerical_rank_cutoff():
    base = np.diag([1.0, 1e-6, 1e-13])
    assert thin_svd(base).rank == 2
    assert thin_svd(np.diag([1.0, 1e-6, 1e-3])).rank == 3


def test_pseudoinverse_invertible():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.max(np.abs(pseudoinverse(A) - np.linalg.inv(A))) <= 1e-10


def test_pseudoinverse_zero_matrix():
    P = pseudoinverse(np.zeros((3, 2)))
    assert P.shape == (2, 3)
    assert np.all(P == 0.0)


def test_pseudoinverse_left_inverse_tall():
    rng = make_rng(3)
    A = rng.standard_normal((7, 3))
    assert np.max(np.abs(pseudoinverse(A) @ A - np.eye(3))) <= 1e-10


def test_penrose_properties():
    """All four defining identities, including rank-deficient inputs."""
    rng = make_rng(4)
    for t in range(10):
        A = rng.standard_normal((5, 4))
        if t % 2:
            A[:, 3] = A[:, 0] + A[:, 1]  # force rank 3
        P = pseudoinverse(A)
        assert np.max(np.abs(A @ P @ A - A)) <= 1e-8
        assert np.max(np.abs(P @ A @ P - P)) <= 1e-8
        assert np.max(np.abs((A @ P).T - A @ P)) <= 1e-8
        assert np.max(np.abs((P @ A).T - P @ A)) <= 1e-8


def test_best_rank_k_diagonal():
    """A_k is the truncated thin SVD, thin_svd(M).truncate(k).reconstruct()."""
    def best(M, k):
        return thin_svd(M).truncate(k).reconstruct()

    np.testing.assert_allclose(best(np.diag([3.0, 2.0, 1.0]), 2),
                               np.diag([3.0, 2.0, 0.0]), atol=1e-12)
    # k above the rank keeps every factor; rank 0 reconstructs zeros.
    np.testing.assert_allclose(best(np.diag([3.0, 0.0, 0.0]), 2),
                               np.diag([3.0, 0.0, 0.0]), atol=1e-12)
    np.testing.assert_array_equal(best(np.zeros((3, 2)), 1), np.zeros((3, 2)))


def test_best_rank_k_full_rank_reproduces():
    rng = make_rng(5)
    M = rng.standard_normal((4, 3))
    M_3 = thin_svd(M).truncate(3).reconstruct()
    assert frobenius_norm(M - M_3) <= 1e-10 * frobenius_norm(M)


def test_best_rank_k_error_matches_tail():
    rng = make_rng(6)
    M = rng.standard_normal((6, 4))
    f = thin_svd(M)
    err_sq = frobenius_norm(M - f.truncate(2).reconstruct()) ** 2
    tail_sq = float(np.sum(f.sigma[2:] ** 2))
    assert abs(err_sq - tail_sq) <= 1e-9 * max(1.0, tail_sq)


def test_orthonormal_basis_projector():
    rng = make_rng(7)
    Q, _ = np.linalg.qr(rng.standard_normal((6, 3)))
    B = orthonormal_basis(Q)
    assert np.max(np.abs(B @ B.T - Q @ Q.T)) <= 1e-10


def test_orthonormal_basis_hand_case():
    B = orthonormal_basis(np.array([[1.0], [1.0]]))
    assert B.shape == (2, 1)
    np.testing.assert_allclose(np.abs(B[:, 0]), [1 / math.sqrt(2)] * 2,
                               atol=1e-12)
    assert B[0, 0] * B[1, 0] > 0.0


def test_orthonormal_basis_rank_saturation():
    M = np.outer([1.0, 2.0, 3.0], [1.0, 1.0])
    assert orthonormal_basis(M).shape == (3, 1)
    with pytest.raises(ValueError):
        orthonormal_basis(np.zeros((3, 2)))


def test_norm_chain():
    rng = make_rng(8)
    for _ in range(20):
        M = rng.standard_normal((5, 4))
        fro, spec = frobenius_norm(M), spectral_norm(M)
        assert fro + 1e-12 >= spec
        assert spec + 1e-12 >= fro / math.sqrt(thin_svd(M).rank)


def test_matrix_pythagoras():
    rng = make_rng(9)
    for _ in range(20):
        A = rng.standard_normal((6, 4))
        Q, _ = np.linalg.qr(rng.standard_normal((6, 2)))
        X = Q @ (Q.T @ A)
        Y = A - X
        lhs = frobenius_norm(X + Y) ** 2
        rhs = frobenius_norm(X) ** 2 + frobenius_norm(Y) ** 2
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, rhs)


def test_singular_value_perturbation():
    rng = make_rng(10)
    for _ in range(20):
        A = rng.standard_normal((5, 4))
        E = 0.1 * rng.standard_normal((5, 4))
        sa = np.linalg.svd(A, compute_uv=False)
        sb = np.linalg.svd(A + E, compute_uv=False)
        assert np.max(np.abs(sa - sb)) <= spectral_norm(E) + 1e-9
