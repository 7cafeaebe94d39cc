import numpy as np
import pytest

from ratlanczos import DimensionError, SparseSym, SymmetryError, norm_estimate
from ratlanczos.problems import gen_laplacian2d

from conftest import rand_sym


def test_spmv_diagonal():
    A = SparseSym.from_dense(np.diag([1.0, 2.0, 3.0]))
    assert np.array_equal(A.matvec(np.ones(3)), np.array([1.0, 2.0, 3.0]))


def test_spmv_unit_vector_extracts_column():
    A = gen_laplacian2d(3)
    e5 = np.zeros(9)
    e5[5] = 1.0
    assert np.array_equal(A.matvec(e5), A.to_dense()[:, 5])


def test_spmv_matches_dense_oracle(rng):
    A, Ad = rand_sym(rng, 50, 0.5, 10.0)
    x = rng.standard_normal(50)
    y = A.matvec(x)
    tol = 1e-14 * np.linalg.norm(Ad, 2) * np.linalg.norm(x)
    assert np.linalg.norm(y - Ad @ x) <= tol


def test_spmv_dimension_mismatch():
    A = SparseSym.from_dense(np.eye(3))
    with pytest.raises(DimensionError):
        A.matvec(np.ones(4))


def test_asymmetric_rejected():
    M = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(SymmetryError):
        SparseSym.from_dense(M)


def test_asymmetric_pattern_rejected():
    # structurally asymmetric CSR: entry (0,1) without (1,0)
    with pytest.raises(SymmetryError):
        SparseSym(2, [0, 2, 3], [0, 1, 1], [1.0, 5.0, 1.0])


def test_bad_hint_rejected():
    with pytest.raises(ValueError):
        SparseSym.from_dense(np.eye(2), definiteness_hint="spd")


def test_from_coo_sums_duplicates():
    A = SparseSym.from_coo(2, [0, 0, 1], [1, 1, 0], [1.0, 2.0, 3.0])
    assert A.to_dense()[0, 1] == 3.0


def test_scaled_rows_cols(rng):
    A, Ad = rand_sym(rng, 20, 0.5, 5.0)
    d = rng.uniform(0.5, 2.0, 20)
    B = A.scaled_rows_cols(d)
    assert np.allclose(B.to_dense(), np.diag(d) @ Ad @ np.diag(d))


def test_norm_estimate_close(rng):
    A, Ad = rand_sym(rng, 60, 0.5, 20.0)
    est = norm_estimate(A, steps=30)
    true = np.linalg.norm(Ad, 2)
    assert 0.8 * true <= est <= true * (1 + 1e-8)


def test_spmv_bit_reproducible(rng):
    A, _ = rand_sym(rng, 40, 0.5, 10.0)
    x = rng.standard_normal(40)
    y1 = A.matvec(x)
    y2 = A.matvec(x)
    assert np.array_equal(y1, y2)
