import numpy as np
import pytest

from ratlanczos import (DomainError, RankDeficiencyError, StabilityError,
                        care_newton, expm_general, lyap_sym,
                        matfun_first_cols, qr_thin, sym_eig)


def test_sym_eig_diagonal_permutation():
    lam, V = sym_eig(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(lam, [1.0, 2.0, 3.0])
    # columns are signed unit vectors
    assert np.allclose(np.abs(V).sum(axis=0), 1.0)


def test_sym_eig_2x2_analytic():
    S = np.array([[2.0, 1.0], [1.0, 2.0]])
    lam, V = sym_eig(S)
    assert np.allclose(lam, [1.0, 3.0], atol=1e-14)
    r = 1.0 / np.sqrt(2.0)
    for col, ref in zip(V.T, (np.array([r, -r]), np.array([r, r]))):
        assert min(np.linalg.norm(col - ref), np.linalg.norm(col + ref)) < 1e-14


def test_sym_eig_reconstruction(rng):
    S = rng.standard_normal((30, 30))
    S = 0.5 * (S + S.T)
    lam, V = sym_eig(S)
    nrm = np.linalg.norm(S, 2)
    assert np.linalg.norm((V * lam) @ V.T - S, 2) <= 1e-12 * nrm
    assert np.linalg.norm(V.T @ V - np.eye(30), 2) <= 1e-12


def test_matfun_identity_and_sqrt():
    S = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert np.allclose(matfun_first_cols(S, lambda x: x, 2), S, atol=1e-14)
    assert np.allclose(matfun_first_cols(np.diag([1.0, 4.0]), "sqrt", 2),
                       np.diag([1.0, 2.0]), atol=1e-14)


def test_matfun_exp_vs_taylor_series():
    S = np.array([[2.0, 1.0], [1.0, 2.0]])
    E = matfun_first_cols(S, "exp", 2)
    # truncated Taylor oracle
    T = np.zeros((2, 2))
    term = np.eye(2)
    for k in range(1, 60):
        T = T + term
        term = term @ S / k
    assert np.linalg.norm(E - T) <= 1e-12 * np.linalg.norm(T)


def test_matfun_domain_error_names_eigenvalue():
    with pytest.raises(DomainError, match="-1"):
        matfun_first_cols(np.diag([1.0, -1.0]), "log", 2)
    with pytest.raises(DomainError):
        matfun_first_cols(np.diag([1.0, 0.0]), "inv", 2)


def test_matfun_polynomial_exactness(rng):
    # f a random polynomial of degree <= 4 against the explicit matrix poly
    for _ in range(20):
        n = rng.integers(3, 12)
        S = rng.standard_normal((n, n))
        S = 0.5 * (S + S.T)
        coef = rng.standard_normal(5)
        F = matfun_first_cols(S, lambda x: np.polyval(coef, x), n)
        P = np.zeros((n, n))
        for c in coef:
            P = P @ S + c * np.eye(n)
        assert np.linalg.norm(F - P) <= 1e-10 * max(np.linalg.norm(P), 1.0)


def test_expm_basics():
    assert np.array_equal(expm_general(np.zeros((2, 2))), np.eye(2))
    E = expm_general(np.diag([-1.0, -2.0]))
    assert np.allclose(E, np.diag([np.exp(-1), np.exp(-2)]), atol=1e-14)
    N = expm_general(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert np.array_equal(N, np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_expm_overflow_reports_norm():
    with pytest.raises(OverflowError, match="1-norm"):
        expm_general(np.array([[1e6, 0.0], [0.0, 1e6]]))


def test_qr_thin_orthonormal_passthrough(rng):
    Q0, _ = np.linalg.qr(rng.standard_normal((20, 4)))
    Q, R = qr_thin(Q0)
    assert np.linalg.norm(Q - Q0) <= 1e-13
    assert np.linalg.norm(R - np.eye(4)) <= 1e-13
    assert np.all(np.diag(R) >= 0)


def test_qr_thin_rank_deficiency():
    e1 = np.zeros(5)
    e1[0] = 1.0
    with pytest.raises(RankDeficiencyError) as exc:
        qr_thin(np.column_stack([e1, e1]))
    assert exc.value.rank == 1


def test_qr_thin_reconstruction(rng):
    V = rng.standard_normal((40, 3))
    Q, R = qr_thin(V)
    assert np.linalg.norm(Q @ R - V) <= 1e-13 * np.linalg.norm(V)
    assert np.linalg.norm(Q.T @ Q - np.eye(3)) <= 1e-13
    assert np.all(np.diag(R) >= 0)


def test_lyap_analytic_and_zero():
    Y = lyap_sym(np.diag([-1.0, -2.0]), np.outer([1.0, 0.0], [1.0, 0.0]))
    assert np.allclose(Y, np.diag([0.5, 0.0]), atol=1e-14)
    assert np.array_equal(lyap_sym(np.diag([-1.0, -2.0]), np.zeros((2, 2))),
                          np.zeros((2, 2)))


def test_lyap_unstable_rejected():
    with pytest.raises(StabilityError):
        lyap_sym(np.diag([-1.0, 0.5]), np.eye(2))


def test_lyap_residual_random(rng):
    for _ in range(200):
        n = rng.integers(2, 11)
        lam = -rng.uniform(0.1, 10.0, n)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        J = (Q * lam) @ Q.T
        J = 0.5 * (J + J.T)
        G = rng.standard_normal((n, n))
        W = G @ G.T
        Y = lyap_sym(J, W)
        res = np.linalg.norm(J @ Y + Y @ J + W)
        bound = 1e-11 * (np.linalg.norm(J) * np.linalg.norm(Y) + np.linalg.norm(W))
        assert res <= bound
        assert np.min(np.linalg.eigvalsh(Y)) >= -1e-10 * np.linalg.norm(Y)


def test_care_scalar_analytic():
    Y = care_newton(np.array([[-1.0]]), np.array([[1.0]]), np.array([[1.0]]),
                    np.array([[1.0]]))
    assert abs(Y[0, 0] - (-1.0 + np.sqrt(2.0))) <= 5e-12


def test_care_zero_cost():
    Y = care_newton(np.diag([-1.0, -2.0]), np.eye(2), np.eye(2), np.zeros((2, 2)))
    assert np.array_equal(Y, np.zeros((2, 2)))


def test_care_residual_and_stabilizing(rng):
    for _ in range(200):
        n = rng.integers(2, 9)
        p = int(rng.integers(1, 3))
        lam = -rng.uniform(0.1, 5.0, n)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        J = (Q * lam) @ Q.T
        J = 0.5 * (J + J.T)
        B = rng.standard_normal((n, p))
        Rinv = np.eye(p)
        G = rng.standard_normal((n, n))
        W = G @ G.T
        Y = care_newton(J, B, Rinv, W)
        res = np.linalg.norm(J @ Y + Y @ J - Y @ B @ Rinv @ B.T @ Y + W)
        assert res <= 1e-11 * np.linalg.norm(W)
        closed = J - B @ Rinv @ B.T @ Y
        assert np.max(np.linalg.eigvals(closed).real) < 0.0


def test_care_unstable_rejected():
    with pytest.raises(StabilityError):
        care_newton(np.array([[0.5]]), np.array([[1.0]]), np.array([[1.0]]),
                    np.array([[1.0]]))
