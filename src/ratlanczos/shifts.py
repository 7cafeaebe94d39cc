"""Poles, shifted operators I - A/xi and their reusable factorizations."""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DimensionError, IndefiniteShiftError, ShiftError
from .sparse import SparseSym, power_iteration

#: ``shifted_factorize`` takes dense Cholesky only for an operator with
#: n <= DENSE_CUTOFF that stores more than DENSE_ROW_NNZ entries per row on
#: average; every other operator goes to the sparse SuperLU factorization
#: (``sparse-ldl``).
#: Fill, and with it the sparse cost, follows the entries per row, not the
#: stored fraction.  With one BLAS thread and n = 400-2000, SuperLU won on
#: both factor and solve time at 4-6 entries per row (2-D Laplacians and
#: random patterns), lost 1.1-1.5x on the factor while solving 2.3-2.9x
#: faster at 9, and lost 1.8-2.3x on the factor at 13 and 3.6-4.3x at 21-25.
DENSE_CUTOFF = 2000
DENSE_ROW_NNZ = 8

#: debug switch: verify the residual of every shifted solve
CHECK_SOLVE_RESIDUALS = False
SOLVE_RESIDUAL_RTOL = 1e-8


@dataclass(frozen=True)
class Shift:
    """A pole xi: either a finite nonzero real or the infinity sentinel.

    The inverse of the infinity sentinel is exactly zero, so an infinite
    pole turns a shifted solve into a plain copy (polynomial step).
    """

    value: float

    def __post_init__(self):
        v = float(self.value)
        if math.isnan(v):
            raise ShiftError("pole value is NaN")
        if v == 0.0:
            raise ShiftError("finite poles must be nonzero")
        object.__setattr__(self, "value", v)

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.value)

    @property
    def inv(self) -> float:
        """1 / xi, with 1 / inf = 0 exactly."""
        return 0.0 if self.is_infinite else 1.0 / self.value

    def __repr__(self):
        return "Shift(inf)" if self.is_infinite else f"Shift({self.value:g})"


INFINITY = Shift(math.inf)


class ShiftSequence:
    """Ordered pole list xi_1 ... xi_m consumed one per iteration.

    The two conceptual leading poles xi_{-1} = xi_0 = inf are not stored;
    the recurrences start from zero inverse shifts instead.
    """

    def __init__(self, shifts):
        out = []
        for s in shifts:
            out.append(s if isinstance(s, Shift) else Shift(float(s)))
        if not out:
            raise ShiftError("empty pole list")
        self.shifts = tuple(out)

    @classmethod
    def cycled(cls, values, m):
        """Repeat ``values`` cyclically until the sequence has length m."""
        vals = [v if isinstance(v, Shift) else Shift(float(v)) for v in values]
        if not vals:
            raise ShiftError("empty pole list")
        return cls([vals[i % len(vals)] for i in range(m)])

    @classmethod
    def all_infinite(cls, m):
        return cls([INFINITY] * m)

    def __len__(self):
        return len(self.shifts)

    def __getitem__(self, i):
        return self.shifts[i]

    def __iter__(self):
        return iter(self.shifts)

    def values(self):
        return np.array([s.value for s in self.shifts])


def default_shifts(A: SparseSym, m):
    """Fallback pole sequence when the caller supplies none.

    12 magnitudes log-spaced over the six decades [norm(A)/10**6, norm(A)],
    norm(A) from ``power_iteration(A)``; every other one is used for two
    consecutive steps (xi_1, xi_1, xi_3, xi_3, ...), cycled to length
    ``m``, so an odd ``m`` cuts the last pair.  A repeated pole needs no
    new factorization and half the solve columns of its step.  The sign
    is opposite to the Rayleigh quotient of the power iterate.  For a
    definite operator that quotient has the sign of the spectrum, so every
    shifted matrix I - A/xi is positive definite (positive poles for a
    stable, negative definite operator); ``shifted_factorize`` proves it
    or raises ``IndefiniteShiftError``.
    """
    nrm, v = power_iteration(A)
    return _poles_from_power(A, m, nrm, v)


def _poles_from_power(A: SparseSym, m, nrm, v):
    """``default_shifts`` from a power iteration the caller already ran:
    ``nrm, v = power_iteration(A)``."""
    if nrm == 0.0:
        nrm = 1.0
    sign = 1.0 if float(v @ A.matvec(v)) < 0.0 else -1.0
    mags = np.logspace(math.log10(nrm), math.log10(nrm) - 6, 12)
    return ShiftSequence.cycled([sign * mg for mg in np.repeat(mags[::2], 2)], m)


class ShiftedFactorization:
    """Reusable factorization of I - A/xi.

    ``solve`` accepts a vector or an (n, k) block of right-hand sides and
    solves them all against the single stored factorization.  With the
    module flag CHECK_SOLVE_RESIDUALS set, every solve is verified
    against the operator.
    """

    def __init__(self, shift: Shift, method: str, n: int, solver, apply_op=None):
        self.shift = shift
        self.method = method
        self.n = n
        self._solver = solver
        self._apply_op = apply_op

    def solve(self, B):
        B = np.asarray(B, dtype=float)
        single = B.ndim == 1
        if B.shape[0] != self.n:
            raise DimensionError(
                f"right-hand side rows {B.shape[0]} != dimension {self.n}")
        B2 = B if not single else B.reshape(-1, 1)
        X = self._solver(B2)
        if CHECK_SOLVE_RESIDUALS and self._apply_op is not None:
            res = np.linalg.norm(self._apply_op(X) - B2, axis=0)
            bound = SOLVE_RESIDUAL_RTOL * np.maximum(
                np.linalg.norm(B2, axis=0), 1e-300)
            assert np.all(res <= bound), (
                f"shifted solve residual {res.max():.3e} exceeds "
                f"{bound.min():.3e} for xi = {self.shift.value:g}")
        return X[:, 0] if single else X


def _dominance_certificate(M) -> bool:
    """True when Gershgorin proves the symmetric CSC matrix M positive
    definite: a positive diagonal d and, in every column, off-diagonal
    absolute sum off with d - off > 4 k eps (d + off), k the largest
    number of stored entries in a column (columns are rows, M being
    symmetric).  The allowance covers the rounding of the computed sums,
    so an accepted M is SPD as stored.  O(nnz) time and O(n) extra memory
    beyond one copy of the values.
    """
    counts = np.diff(M.indptr)
    if counts.min() == 0:      # an empty column has a zero diagonal
        return False
    d = M.diagonal()
    off = np.add.reduceat(np.abs(M.data), M.indptr[:-1]) - d
    tol = 4.0 * counts.max() * np.finfo(float).eps
    return bool(np.all(d > 0.0) and np.all(d - off > tol * (d + off)))


def shifted_factorize(A: SparseSym, xi: Shift) -> ShiftedFactorization:
    """Factor I - A/xi once for repeated multi right-hand-side solves.

    The shifted matrix must be symmetric positive definite, which holds
    whenever the pole sign is opposite to the spectrum of A.  The
    factorization's ``method`` records the solver taken:

    - ``identity`` for an infinite pole;
    - ``dense-cholesky``, LAPACK Cholesky of the dense n x n matrix, when
      n <= DENSE_CUTOFF and A stores more than DENSE_ROW_NNZ entries per
      row on average;
    - ``sparse-ldl`` otherwise: SuperLU in symmetric mode (diagonal
      pivots, no pivoting threshold) after a minimum-degree ordering of
      A^T + A.  It is an LU factorization, not an LDL^T.  Positive
      definiteness is proved from I - A/xi itself (symmetric, because A
      is) when it is strictly diagonally dominant with a positive
      diagonal, with a rounding allowance on the row sums (Gershgorin);
      diagonal pivots of an SPD matrix are positive.  Otherwise it is
      read off the signs of U's diagonal, which makes SciPy keep CSC
      copies of L and U on the factor for its lifetime (about as much
      memory again as the factor).

    Raises
    ------
    IndefiniteShiftError
        If the factorization detects a nonpositive pivot.
    """
    n = A.n
    if xi.is_infinite:
        return ShiftedFactorization(xi, "identity", n, lambda B: B.copy(),
                                    apply_op=lambda X: X)
    inv = xi.inv
    apply_op = lambda X: X - inv * A.matmat(X)

    if n <= DENSE_CUTOFF and A.nnz > DENSE_ROW_NNZ * n:
        M = np.eye(n) - inv * A.to_dense()
        try:
            c, low = sla.cho_factor(M, lower=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise IndefiniteShiftError(
                f"I - A/xi with xi = {xi.value:g} is not positive definite: {exc}",
                shift=xi) from exc
        return ShiftedFactorization(
            xi, "dense-cholesky", n,
            lambda B: sla.cho_solve((c, low), B, check_finite=False),
            apply_op=apply_op)

    M = (sp.identity(n, format="csr") - inv * A.to_scipy()).tocsc()
    try:
        lu = spla.splu(M, permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise IndefiniteShiftError(
            f"sparse factorization of I - A/xi failed for xi = {xi.value:g}: {exc}",
            shift=xi) from exc
    if not _dominance_certificate(M):
        # reading lu.U makes SciPy build CSC copies of L and U and keep
        # them on the factor for its lifetime
        dU = lu.U.diagonal()
        if np.any(dU <= 0.0):
            raise IndefiniteShiftError(
                f"I - A/xi with xi = {xi.value:g} is not positive definite "
                f"(pivot {dU.min():.3e})", shift=xi)
    return ShiftedFactorization(xi, "sparse-ldl", n, lu.solve,
                                apply_op=apply_op)


class FactorizationCache:
    """Cache of shifted factorizations keyed by pole value.

    Pole sequences are commonly short lists applied cyclically, and the
    default schedule uses each pole for two consecutive steps, so reusing
    the factorization of a repeated pole removes most of the solve setup
    cost of a run.  Every factor stays resident for the cache's lifetime.
    """

    def __init__(self, A: SparseSym):
        self.A = A
        self._cache = {}

    def get(self, xi: Shift) -> ShiftedFactorization:
        key = xi.value
        fact = self._cache.get(key)
        if fact is None:
            fact = shifted_factorize(self.A, xi)
            self._cache[key] = fact
        return fact
