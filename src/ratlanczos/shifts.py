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
    or raises ``IndefiniteShiftError``.  Each call runs the power
    iteration again; ``FactorizationCache.default_shifts`` runs it once
    per cache.
    """
    nrm, v = power_iteration(A)
    return _default_poles(nrm, _pole_sign(A, v), m)


def _pole_sign(A: SparseSym, v):
    """Sign of the default poles: opposite to the Rayleigh quotient of the
    power iterate ``v``."""
    return 1.0 if float(v @ A.matvec(v)) < 0.0 else -1.0


def _default_poles(nrm, sign, m):
    """``default_shifts`` of length ``m`` from the norm estimate ``nrm``
    and the pole sign."""
    if nrm == 0.0:
        nrm = 1.0
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


def _fill_order(M):
    """(ip, perm_c) of the minimum-degree ordering of A^T + A that SuperLU
    takes for the CSC matrix M in symmetric mode: ``ip`` lists the rows
    and columns of M in elimination order, ``perm_c = argsort(ip)``.
    The ordering depends on the pattern only, so an incomplete factor
    that drops every entry it may (about a third of a full factor's time)
    returns the ``perm_c`` a full ``splu`` would take.
    """
    perm_c = spla.spilu(M, permc_spec="MMD_AT_PLUS_A", drop_tol=1.0,
                        fill_factor=1, diag_pivot_thresh=0.0,
                        options={"SymmetricMode": True}).perm_c
    # perm_c views the factor's memory: copy it, so the factor is freed
    return np.argsort(perm_c), perm_c.astype(np.intp)


#: index entries ``_permuted`` relabels per gather
_RELABEL_CHUNK = 1 << 12


def _permuted(D, ip, perm_c):
    """D[ip][:, ip] of the symmetric CSR matrix D, as a CSC matrix.

    Selects the rows, relabels the column indices in place and sorts
    them, so only one copy of D is made; D being symmetric, so is the
    result, whose CSR arrays are then its CSC arrays.
    """
    P = D[ip]
    idx = P.indices
    # in chunks: a gather makes an intp copy of its index array and an
    # intp result, which for the whole of idx would take 4x its bytes
    for s in range(0, idx.size, _RELABEL_CHUNK):
        idx[s:s + _RELABEL_CHUNK] = perm_c[idx[s:s + _RELABEL_CHUNK]]
    P.has_sorted_indices = False
    P.sort_indices()
    return sp.csc_matrix((P.data, P.indices, P.indptr), shape=P.shape)


def shifted_factorize(A: SparseSym, xi: Shift) -> ShiftedFactorization:
    """Factor I - A/xi once for repeated multi right-hand-side solves.

    The shifted matrix must be symmetric positive definite, which holds
    whenever the pole sign is opposite to the spectrum of A.  The
    factorization's ``method`` records the solver taken:

    - ``identity`` for an infinite pole;
    - ``dense-cholesky``, LAPACK Cholesky of the dense n x n matrix, when
      n <= DENSE_CUTOFF and A stores more than DENSE_ROW_NNZ entries per
      row on average;
    - ``sparse-ldl`` otherwise.  When A stores no entry off its diagonal,
      I - A/xi is its diagonal d and d is the factor: ``d > 0`` proves it
      positive definite, and a solve is one division into a column-major
      array, the values SuperLU's solve gives bit for bit, with no
      ordering, SuperLU factor or dominance certificate.  Any other
      operator is factored by SuperLU in symmetric mode (diagonal
      pivots, no pivoting threshold) of the symmetrically permuted
      matrix (I - A/xi)[ip][:, ip], with ``NATURAL`` column order.  The
      minimum-degree ordering ``ip`` of A^T + A is computed once, on the
      first sparse factorization of A, and kept on ``A.fill_order``:
      every pole gives the same pattern.  Each solve permutes its
      right-hand sides and un-permutes the solution.  The same pipeline
      factors a pole again bit for bit.  It is an LU factorization, not
      an LDL^T.  Positive definiteness is proved from I - A/xi itself
      (symmetric, because A is) when it is strictly diagonally dominant
      with a positive diagonal, with a rounding allowance on the row
      sums (Gershgorin); diagonal pivots of an SPD matrix are positive.
      Otherwise it is read off the signs of U's diagonal, which makes
      SciPy keep CSC copies of L and U on the factor for its lifetime
      (about as much memory again as the factor).

    Raises
    ------
    IndefiniteShiftError
        If the ordering or the factorization meets a zero pivot, or a
        pivot (a diagonal entry, for a diagonal operator) is nonpositive.
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

    diag = _stored_diagonal(A)
    if diag is not None:
        d = 1.0 - inv * diag
        if not np.all(d > 0.0):
            raise IndefiniteShiftError(
                f"I - A/xi with xi = {xi.value:g} is not positive definite "
                f"(diagonal entry {d.min():.3e})", shift=xi)
        d = d[:, None]
        return ShiftedFactorization(
            xi, "sparse-ldl", n, lambda B: np.divide(B, d, order="F"),
            apply_op=apply_op)

    D = sp.identity(n, format="csr") - inv * A.to_scipy()
    try:
        if A.fill_order is None:
            # D is symmetric, so its CSR arrays are its CSC arrays
            A.fill_order = _fill_order(
                sp.csc_matrix((D.data, D.indices, D.indptr), shape=D.shape))
        ip, perm_c = A.fill_order
        M = _permuted(D, ip, perm_c)
        del D
        lu = spla.splu(M, permc_spec="NATURAL", diag_pivot_thresh=0.0,
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

    def solve(B):
        return _take_rows(lu.solve(_take_rows(B, ip)), perm_c)
    return ShiftedFactorization(xi, "sparse-ldl", n, solve, apply_op=apply_op)


def _stored_diagonal(A: SparseSym):
    """The diagonal of A if A stores no entry off it, else None.  Costs
    O(1) when A stores more than n entries, O(n) otherwise."""
    if A.nnz > A.n:
        return None
    rows = np.repeat(np.arange(A.n), np.diff(A.row_ptr))
    if not np.array_equal(rows, A.col_idx):
        return None
    return A.to_scipy().diagonal()


def _take_rows(X, idx):
    """X[idx] for an (n, k) array, gathered along its memory order: row
    gathers of a column-major array (as SuperLU returns) took 3-8x as
    long at n = 40000 and k = 2-4."""
    if X.flags.f_contiguous:
        return np.take(X.T, idx, axis=1).T
    return np.take(X, idx, axis=0)


class FactorizationCache:
    """Cache of shifted factorizations keyed by pole value, and of the
    operator's power iterate.

    Pole sequences are commonly short lists applied cyclically, and the
    default schedule uses each pole for two consecutive steps, so reusing
    the factorization of a repeated pole removes most of the solve setup
    cost of a run.

    By default every factor stays resident for the cache's lifetime, so
    callers that share one cache across runs reuse all of them.  With
    ``keep_one`` a finite-pole miss first drops the resident finite-pole
    factor, then factors the new pole, so at most one stays resident.
    Infinite poles cost nothing to keep and are never dropped.  A factor
    that failed the dominance certificate carries SciPy's copies of L and
    U, so the bound covers those too.  Refactoring gives the same factor,
    so ``keep_one`` changes memory and factorization count, never a
    result.

    The step driver reads a run's default poles from its cache, and a
    form query its norm estimate, so the runs that share one also share
    its one power iteration: ``norm_estimate`` runs it on the first call
    and keeps the norm estimate and the power iterate, ``default_shifts``
    takes the pole sign from that iterate on its first call.  Both are
    deterministic, so they equal what ``power_iteration(A)`` and
    ``default_shifts(A, m)`` compute.
    """

    def __init__(self, A: SparseSym, keep_one=False):
        self.A = A
        self._cache = {}
        self._keep_one = keep_one
        self._power = None      # (norm estimate, power iterate)
        self._sign = None

    def get(self, xi: Shift) -> ShiftedFactorization:
        key = xi.value
        fact = self._cache.get(key)
        if fact is None:
            if self._keep_one and not xi.is_infinite:
                self._cache = {k: f for k, f in self._cache.items()
                               if math.isinf(k)}
            fact = shifted_factorize(self.A, xi)
            self._cache[key] = fact
        return fact

    def norm_estimate(self):
        """The norm estimate of ``power_iteration(A)``."""
        if self._power is None:
            self._power = power_iteration(self.A)
        return self._power[0]

    def default_shifts(self, m) -> ShiftSequence:
        """``default_shifts(A, m)``."""
        nrm = self.norm_estimate()
        if self._sign is None:
            self._sign = _pole_sign(self.A, self._power[1])
        return _default_poles(nrm, self._sign, m)
