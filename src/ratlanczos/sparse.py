"""Symmetric sparse matrices in CSR form and the kernels built on them."""

import numpy as np
import scipy.sparse as sp

from .errors import DimensionError, SymmetryError


class SparseSym:
    """Symmetric sparse matrix stored in canonical CSR form.

    The stored pattern and values are validated to be symmetric on
    construction: every stored entry (i, j, v) has a stored counterpart
    (j, i, v).  Indices within a row are kept sorted so that matrix-vector
    products accumulate in a fixed row-major, index-ascending order.

    Parameters
    ----------
    n : int
        Dimension.
    row_ptr, col_idx, values : array_like
        CSR arrays.

    Attributes
    ----------
    fill_order : (ip, perm_c) or None
        The fill-reducing ordering that every sparse shifted factorization
        of I - A/xi shares, since all poles give the same pattern: the
        matrix is factored as (I - A/xi)[ip][:, ip], with
        ``perm_c = argsort(ip)``.  ``shifts.shifted_factorize`` fills it
        on the first one.
    """

    def __init__(self, n, row_ptr, col_idx, values):
        mat = sp.csr_matrix(
            (np.asarray(values, dtype=float),
             np.asarray(col_idx, dtype=np.int64),
             np.asarray(row_ptr, dtype=np.int64)),
            shape=(n, n),
        )
        mat.sum_duplicates()
        mat.sort_indices()
        _check_symmetric(mat)
        self._mat = mat
        self.fill_order = None

    @classmethod
    def _from_scipy(cls, mat):
        mat = sp.csr_matrix(mat)
        return cls(mat.shape[0], mat.indptr, mat.indices, mat.data)

    @classmethod
    def from_dense(cls, A):
        A = np.asarray(A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimensionError(f"expected a square matrix, got shape {A.shape}")
        return cls._from_scipy(sp.csr_matrix(A))

    @classmethod
    def from_coo(cls, n, rows, cols, vals):
        mat = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
        return cls._from_scipy(mat)

    @property
    def n(self):
        return self._mat.shape[0]

    @property
    def nnz(self):
        return self._mat.nnz

    @property
    def row_ptr(self):
        return self._mat.indptr

    @property
    def col_idx(self):
        return self._mat.indices

    @property
    def values(self):
        return self._mat.data

    def matvec(self, x):
        """y = A x, accumulated in the canonical CSR order (row-major,
        ascending column index within each row), so repeated calls are
        bit-reproducible."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise DimensionError(
                f"vector of length {x.shape} incompatible with dimension {self.n}")
        return self._mat.dot(x)

    def matmat(self, X):
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[0] != self.n:
            raise DimensionError(
                f"matrix of shape {X.shape} incompatible with dimension {self.n}")
        return self._mat.dot(X)

    def to_dense(self):
        return self._mat.toarray()

    def to_scipy(self):
        """Return the underlying canonical CSR matrix (do not modify)."""
        return self._mat

    def scaled_rows_cols(self, d):
        """Return diag(d) @ A @ diag(d) as a new SparseSym."""
        d = np.asarray(d, dtype=float)
        if d.shape != (self.n,):
            raise DimensionError("scaling vector length mismatch")
        mat = self._mat.copy()
        rows = np.repeat(np.arange(self.n), np.diff(mat.indptr))
        # d_i * d_j first: IEEE multiplication commutes, so the scaled
        # entry (i, j) stays bit-equal to (j, i)
        mat.data = mat.data * (d[rows] * d[mat.indices])
        return SparseSym._from_scipy(mat)

    def __repr__(self):
        return f"SparseSym(n={self.n}, nnz={self.nnz})"


def _check_symmetric(mat):
    diff = (mat - mat.T).tocoo()
    if diff.nnz and np.max(np.abs(diff.data)) != 0.0:
        i = int(np.argmax(np.abs(diff.data)))
        raise SymmetryError(
            "matrix is not symmetric: entry ({}, {}) differs from its "
            "transpose by {:.3e}".format(diff.row[i], diff.col[i], diff.data[i]))


def power_iteration(A: SparseSym, steps: int = 20, seed: int = 0):
    """Power iteration on a symmetric operator.

    Returns (norm estimate, final iterate); the Rayleigh quotient of the
    final iterate carries the sign of the dominant eigenvalue.
    """
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    v = rng.standard_normal(A.n)
    nv = np.linalg.norm(v)
    if nv == 0.0:
        v = np.ones(A.n)
        nv = np.linalg.norm(v)
    v /= nv
    est = 0.0
    for _ in range(steps):
        w = A.matvec(v)
        est = np.linalg.norm(w)
        if est == 0.0:
            return 0.0, v
        v = w / est
    return float(est), v


def norm_estimate(A: SparseSym, steps: int = 20, seed: int = 0) -> float:
    """Spectral norm estimate of a symmetric operator by power iteration."""
    return power_iteration(A, steps=steps, seed=seed)[0]
