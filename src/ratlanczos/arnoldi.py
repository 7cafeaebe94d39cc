"""Long-recurrence rational Arnoldi with full orthogonalization.

The memory-hungry reference method: it stores every basis vector,
orthogonalizes new directions against all of them (classical
Gram-Schmidt with one reorthogonalization pass) and forms the projected
matrix explicitly.  Used as the correctness oracle and comparison
baseline for the short-recurrence runs.  One shifted solve per iteration
per block column, half as many as the short recurrence.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dense import qr_thin
from .errors import DeflationNeededError, RankDeficiencyError
from .lanczos import _as_side_matrix, _drive
from .sparse import SparseSym

_EPS = float(np.finfo(float).eps)


@dataclass
class ArnoldiResult:
    """Full-basis decomposition after m iterations.

    ``Q`` has (m+1) p orthonormal columns and is a column-major view of
    the process's storage, not a copy: the only array with n rows.  ``J``
    is the explicit projection Q^T A Q over all of them (slice the leading
    m p rows and columns to compare with a short-recurrence projection).
    ``Hbar`` and ``Kbar`` satisfy A Q Kbar = Q Hbar; ``Kbar`` and
    ``orth_trace`` are computed when read.  ``R0`` is the QR factor of the
    start block, ``side_projections`` holds Q^T U for a side matrix U, when
    one was given, and ``elapsed`` is the run's wall time (no per-step
    timings are kept).
    """

    Q: np.ndarray
    Hbar: np.ndarray
    J: np.ndarray
    p: int
    m: int
    termination: str
    shifts: tuple
    R0: np.ndarray = None
    side_projections: Optional[np.ndarray] = None
    elapsed: float = 0.0

    @property
    def J_m(self):
        """Projection onto the first m block columns (matches the
        short-recurrence J of the same iteration count)."""
        mp = self.m * self.p
        return self.J[:mp, :mp]

    @property
    def Kbar(self):
        """(Hbar + Ibar) diag(1/xi_k), each pole inverse repeated p times:
        a step's column h with A Q h / xi = Q h - q_j gives A Q Kbar = Q Hbar.
        An infinite pole's step has A q_j = Q h, so its columns are Ibar's."""
        inv = np.repeat([xi.inv for xi in self.shifts], self.p)
        poly = np.repeat([xi.is_infinite for xi in self.shifts], self.p)
        Ibar = np.eye(*self.Hbar.shape)
        return np.where(poly, Ibar, (self.Hbar + Ibar) * inv)

    @property
    def orth_trace(self):
        """||I - Q_k^T Q_k||_2 after each iteration, k = 2p, ..., (m+1)p."""
        Qs = (self.Q[:, :k] for k in range(2 * self.p, (self.m + 2) * self.p, self.p))
        return np.array([np.linalg.norm(np.eye(Q.shape[1]) - Q.T @ Q, 2) for Q in Qs])


class ArnoldiProcess:
    """Incremental rational Arnoldi with room for m iterations; ``step``
    makes one solve-and-orthogonalize iteration at a time so callers can
    evaluate stopping rules."""

    def __init__(self, A: SparseSym, V, m, side_matrix=None):
        V = np.asarray(V, dtype=float)
        if V.ndim == 1:
            V = V.reshape(-1, 1)
        n, p = V.shape
        self.A = A
        self.m_max = m
        self.p = p
        self.n = n
        # column-major, so a new block touches only its own pages
        self.Q = np.zeros((n, (m + 1) * p), order="F")
        self.J = np.zeros(((m + 1) * p, (m + 1) * p))
        self.Hbar = np.zeros(((m + 1) * p, m * p))
        self.j = 0
        self.breakdown = None
        self.shifts_used = []
        self.side_matrix = (None if side_matrix is None
                            else _as_side_matrix(side_matrix, n))

        Q0, self.R0 = qr_thin(V)
        self._append_block(Q0)

    def _append_block(self, Qnew):
        p = self.p
        k = self.j * p
        self.Q[:, k:k + p] = Qnew
        # grow the explicit projection
        self.J[:k + p, k:k + p] = self.Q[:, :k + p].T @ self.A.matmat(Qnew)
        self.J[k:k + p, :k] = self.J[:k, k:k + p].T

    def step(self, xi, factorization):
        """One iteration on pole xi: shifted solve with ``factorization``
        (of I - A/xi), CGS2 orthogonalization, QR.  An infinite pole takes
        the polynomial step A q_j instead, since (I - A/xi)^-1 q_j = q_j
        adds no direction.  Stored blocks that fill
        the space or a collapsed new block set ``breakdown`` to the step
        number: they span an invariant subspace.  A new block that keeps
        only part of its rank, or does not fit, raises DeflationNeededError."""
        if self.breakdown is not None:
            raise RuntimeError(f"process already terminated at step {self.breakdown}")
        if self.j >= self.m_max:
            raise RuntimeError("iteration budget exhausted")
        j, p = self.j, self.p
        k = j * p
        Qj = self.Q[:, k:k + p]
        Wnew = self.A.matmat(Qj) if xi.is_infinite else factorization.solve(Qj)

        Qact = self.Q[:, :k + p]
        h1 = Qact.T @ Wnew
        Wnew = Wnew - Qact @ h1
        h2 = Qact.T @ Wnew
        Wnew = Wnew - Qact @ h2
        hcol = h1 + h2

        scale = np.linalg.norm(hcol) + np.linalg.norm(Wnew)
        if (k + p >= self.n
                or np.linalg.norm(Wnew, "fro") <= self.n * _EPS * max(scale, 1.0)):
            self.breakdown = j + 1
            return
        try:
            Qnew, hdiag = qr_thin(Wnew)
        except RankDeficiencyError:
            Qnew = None
        if Qnew is None or k + 2 * p > self.n:
            raise DeflationNeededError(
                f"new block at step {j + 1} is rank deficient or does not "
                "fit; deflation is not supported",
                result=self.result("deflation-needed", 0.0))

        # relation columns: (I - A/xi)^-1 q_j = Q h implies
        # A Q h / xi = Q h - q_j, so Hbar holds h - e_j; A q_j = Q h for
        # an infinite pole, so Hbar holds h
        self.Hbar[:k + p, k:k + p] = hcol
        self.Hbar[k + p:k + 2 * p, k:k + p] = hdiag
        if not xi.is_infinite:
            self.Hbar[k:k + p, k:k + p] -= np.eye(p)

        self.j += 1
        self.shifts_used.append(xi)
        self._append_block(Qnew)

    @property
    def _width(self):
        """Columns of the current projection: the first j blocks, or all
        j + 1 stored blocks once a lucky breakdown has made them span an
        invariant subspace."""
        blocks = self.j if self.breakdown is None else self.j + 1
        return blocks * self.p

    @property
    def J_view(self):
        """Projection onto the current basis (see ``_width``)."""
        w = self._width
        return self.J[:w, :w]

    @property
    def side_view(self):
        """Projection Q^T U of the current basis onto the side matrix
        (the long method can afford to compute it on demand)."""
        if self.side_matrix is None:
            return None
        return self.Q[:, :self._width].T @ self.side_matrix

    def result(self, termination, elapsed):
        jp = (self.j + 1) * self.p
        side = None
        if self.side_matrix is not None:
            side = self.Q[:, :jp].T @ self.side_matrix
        return ArnoldiResult(
            Q=self.Q[:, :jp],
            Hbar=self.Hbar[:jp, :self.j * self.p].copy(),
            J=self.J[:jp, :jp].copy(),
            p=self.p,
            m=self.j,
            termination=termination,
            shifts=tuple(self.shifts_used),
            R0=self.R0,
            side_projections=side,
            elapsed=elapsed,
        )


def arnoldi_run(A: SparseSym, V, shifts, m, callback=None, solver_cache=None,
                side_matrix=None) -> ArnoldiResult:
    """Run m rational Arnoldi iterations from v (or an n x p block).

    ``callback(process)`` is evaluated after every iteration; returning
    True stops early with termination "converged".  A lucky breakdown
    ends the run after one last call, whose return is ignored, with
    ``J_view`` and ``side_view`` covering every stored block.
    """
    proc, termination, elapsed = _drive(
        A, shifts, m, lambda: ArnoldiProcess(A, V, m, side_matrix=side_matrix),
        ArnoldiProcess.step, callback, solver_cache)
    return proc.result(termination, elapsed)
