"""Block rational Lanczos with the same basis-free projection trick.

Starts from p orthonormalized columns and carries p x p coefficient
blocks instead of scalars.  The running solves against the block
tridiagonal factor K_j use its inverse transpose where the transposed
system requires it; the p = 1 case reduces exactly to the scalar
recurrence.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dense import qr_thin
from .errors import (AlphaBreakdownError, DeflationNeededError, DimensionError,
                     RankDeficiencyError, SingularKError)
from .lanczos import _as_side_matrix, _drive
from .shifts import Shift, shifted_factorize
from .sparse import SparseSym

_EPS = float(np.finfo(float).eps)


@dataclass
class BlockRecurrenceState:
    """Rolling state of the block recurrence; block analogue of the scalar
    state with p x p coefficient blocks and (j p) x p recurrence columns."""

    n: int
    p: int
    m_max: int
    j: int = 0
    alphas: list = field(default_factory=list)
    betas: list = field(default_factory=list)
    omegas: list = field(default_factory=list)
    Y: np.ndarray = None
    T: np.ndarray = None
    Yhat: np.ndarray = None
    eta: np.ndarray = None
    Qhat: np.ndarray = None
    Qbar: np.ndarray = None
    AQhat: np.ndarray = None
    AQbar: np.ndarray = None
    J: np.ndarray = None
    side: Optional[np.ndarray] = None
    basis: Optional[np.ndarray] = None
    sig2: float = 0.0
    sig1: float = 0.0
    R0: np.ndarray = None
    shifts_used: list = field(default_factory=list)
    breakdown: Optional[int] = None

    @property
    def J_view(self):
        jp = self.j * self.p
        return self.J[:jp, :jp]

    @property
    def Y_view(self):
        return self.Y[:self.j * self.p]

    @property
    def T_view(self):
        return self.T[:self.j * self.p]

    @property
    def Yhat_view(self):
        return self.Yhat[:self.j * self.p]

    @property
    def side_view(self):
        return None if self.side is None else self.side[:self.j * self.p]


def block_init_state(A: SparseSym, V, m_max, side_matrix=None, retain_basis=False):
    """Orthonormalize the start block and allocate the block state."""
    V = np.asarray(V, dtype=float)
    if V.ndim == 1:
        V = V.reshape(-1, 1)
    if V.shape[0] != A.n:
        raise DimensionError(f"start block rows {V.shape[0]} != dimension {A.n}")
    n, p = V.shape
    Qhat, R0 = qr_thin(V)

    st = BlockRecurrenceState(n=n, p=p, m_max=m_max, R0=R0)
    st.Y = np.zeros((m_max * p, p))
    st.T = np.zeros((m_max * p, p))
    st.Yhat = np.zeros((m_max * p, p))
    st.Qhat = Qhat
    st.Qbar = np.zeros((n, p))
    st.AQhat = A.matmat(Qhat)
    st.AQbar = np.zeros((n, p))
    st.J = np.zeros((m_max * p, m_max * p))
    st.eta = np.zeros((p, p))
    if side_matrix is not None:
        U = _as_side_matrix(side_matrix, n)
        st.side = np.zeros(((m_max + 1) * p, U.shape[1]))
        st.side[:p] = Qhat.T @ U
        st._side_matrix = U
    if retain_basis:
        st.basis = np.zeros((n, (m_max + 1) * p))
        st.basis[:, :p] = Qhat
    return st


def block_lanczos_step(A: SparseSym, state: BlockRecurrenceState, xi: Shift,
                       factorization=None, check=False) -> BlockRecurrenceState:
    """Advance the block recurrence by one step (one 2p-column solve, or
    p columns when xi repeats the previous pole: the second block of
    right-hand sides is then (I - A/xi) Q_hat, which solves to Q_hat).

    A fully collapsed new block means the start block spanned an invariant
    subspace: the run terminates as a lucky breakdown with the current
    projection final.  A partially rank-deficient block would require
    deflation, which is not implemented, so it raises DeflationNeededError.
    So does a new block that does not fit in the directions left when p
    does not divide n, whether or not its QR factor shows the rank loss.
    """
    if state.breakdown is not None:
        raise RuntimeError(f"recurrence already terminated at step {state.breakdown}")
    if state.j >= state.m_max:
        raise RuntimeError("state is full; allocate a larger m_max")
    j = state.j + 1
    p = state.p
    sig = xi.inv

    if j == 1:
        Rt = state.AQhat.copy()
    else:
        beta_prev = state.betas[-1]
        Rt = state.AQhat - (state.Qbar - state.sig2 * state.AQbar) @ beta_prev.T
    if factorization is None:
        factorization = shifted_factorize(A, xi)
    if sig == state.sig1:
        R, S = factorization.solve(Rt), state.Qhat
    else:
        St = state.Qhat - state.sig1 * state.AQhat
        RS = factorization.solve(np.hstack([Rt, St]))
        R, S = RS[:, :p], RS[:, p:]

    try:
        alpha_j = np.linalg.solve(state.Qhat.T @ S, state.Qhat.T @ R)
    except np.linalg.LinAlgError as exc:
        raise AlphaBreakdownError(
            f"block projection system singular at step {j}: {exc}") from exc
    SA = S @ alpha_j
    Qblk = R - SA

    # noise floor of the cancellation R - S alpha sets the collapse and
    # rank-loss detection scale; a basis that already fills the space
    # cannot grow regardless of the noise level
    scale = np.linalg.norm(R, "fro") + np.linalg.norm(SA, "fro")
    tol_rank = 4.0 * state.n * _EPS * scale
    lucky = (j * p >= state.n
             or np.linalg.norm(Qblk, "fro") <= tol_rank)
    if not lucky:
        try:
            Qnew, beta_j = qr_thin(Qblk)
            dead = np.abs(np.diag(beta_j)) <= tol_rank
        except RankDeficiencyError as exc:
            Qnew, beta_j, dead = None, None, np.ones(p, dtype=bool)
            if exc.rank and exc.rank > 0:
                raise DeflationNeededError(
                    f"normalization block rank deficient at step {j} "
                    f"(rank {exc.rank}); deflation is not supported",
                    result=_block_finalize(state, "deflation-needed", 0.0)) from exc
        if np.all(dead):
            # every direction collapsed: the subspace is invariant
            lucky = True
            beta_j = np.zeros((p, p))
        elif np.any(dead) or (j + 1) * p > state.n:
            raise DeflationNeededError(
                f"normalization block numerically rank deficient at step {j}; "
                "deflation is not supported",
                result=_block_finalize(state, "deflation-needed", 0.0))
    else:
        Qnew, beta_j = None, np.zeros((p, p))

    # commit the step
    state.alphas.append(alpha_j)
    state.betas.append(beta_j)
    jp = j * p
    if j == 1:
        omega_j = np.eye(p)
        oinv = np.eye(p)
        state.Y[:p] = np.eye(p)
        state.T[:p] = np.eye(p)
        state.Yhat[:p] = alpha_j
    else:
        beta_prev = state.betas[-2]
        oprev_inv = np.linalg.inv(state.omegas[-1])
        omega_j = alpha_j * state.sig1 + np.eye(p) \
            - (state.sig1 * state.sig2) * (beta_prev @ oprev_inv @ beta_prev.T)
        svals = np.linalg.svd(omega_j, compute_uv=False)
        if svals[-1] <= state.n * _EPS * max(svals[0], 1.0):
            raise SingularKError(
                f"running block factor numerically singular at step {j}")
        oinv = np.linalg.inv(omega_j)
        top = (j - 1) * p
        Ytop = -state.sig2 * (state.Y[:top] @ beta_prev.T @ oinv)
        Ttop = -state.sig1 * (state.T[:top] @ beta_prev.T @ oinv.T)
        Yhtop = -state.sig2 * (state.Yhat[:top] @ beta_prev.T @ oinv)
        state.Y[:top] = Ytop
        state.T[:top] = Ttop
        state.Yhat[:top] = Yhtop
        state.Y[top:jp] = oinv
        state.T[top:jp] = oinv.T
        # bottom coupling uses the freshly updated block row j-1 of Y
        state.Yhat[top:jp] = beta_prev @ state.Y[top - p:top] + alpha_j @ oinv
        state.Yhat[top - p:top] += beta_prev.T @ oinv
    state.omegas.append(omega_j)
    state.shifts_used.append(xi)
    state.j = j

    if lucky:
        col = state.Yhat[:jp].copy()
        _write_block_column(state.J, col, j, p)
        state.breakdown = j
        state.sig2, state.sig1 = state.sig1, sig
        if check:
            _block_check_recurrences(state)
        return state

    state.Qbar = state.Qhat
    state.AQbar = state.AQhat
    state.Qhat = Qnew
    state.AQhat = A.matmat(Qnew)
    eta = Qnew.T @ state.AQhat
    state.eta = 0.5 * (eta + eta.T)

    corr = sig * (beta_j.T @ (np.eye(p) - sig * state.eta) @ beta_j) @ oinv
    col = state.Yhat[:jp] - state.T[:jp] @ corr
    _write_block_column(state.J, col, j, p)

    if state.side is not None:
        state.side[jp:jp + p] = Qnew.T @ state._side_matrix
    if state.basis is not None:
        state.basis[:, jp:jp + p] = Qnew
    state.sig2, state.sig1 = state.sig1, sig
    if check:
        _block_check_recurrences(state)
    return state


def _write_block_column(J, col, j, p):
    """Write block column j and mirror it; the diagonal block is
    symmetrized first so J is exactly symmetric."""
    jp = j * p
    D = col[jp - p:jp]
    col[jp - p:jp] = 0.5 * (D + D.T)
    J[:jp, jp - p:jp] = col
    J[jp - p:jp, :jp] = col.T


@dataclass
class BlockLanczosResult:
    """Outcome of a block run; fields mirror the scalar result with
    p x p coefficient blocks and the initial QR factor R0 of the start
    block (needed to undo the orthonormalization in applications)."""

    J: np.ndarray
    alphas: list
    betas: list
    omegas: list
    R0: np.ndarray
    shifts: tuple
    termination: str
    m: int
    p: int
    side_projections: Optional[np.ndarray] = None
    basis: Optional[np.ndarray] = None
    breakdown_step: Optional[int] = None
    state: Optional[BlockRecurrenceState] = None
    elapsed: float = 0.0


def block_run(A: SparseSym, V, shifts, m, side_matrix=None, retain_basis=False,
              callback=None, solver_cache=None,
              check_invariants=False) -> BlockLanczosResult:
    """Run up to m block steps from the n x p start block V.

    V must have full numerical column rank.  See the scalar ``run`` for
    the meaning of the remaining arguments.
    """
    return _block_finalize(*_drive(
        A, shifts, m,
        lambda: block_init_state(A, V, m, side_matrix=side_matrix,
                                 retain_basis=retain_basis),
        lambda state, xi, fact: block_lanczos_step(A, state, xi, fact,
                                                   check=check_invariants),
        callback, solver_cache))


def _block_finalize(state, termination, elapsed):
    j, p = state.j, state.p
    jp = j * p
    side = None
    if state.side is not None:
        side = state.side[:jp].copy()
    basis = None
    if state.basis is not None:
        ncols = jp if state.breakdown is not None else jp + p
        basis = state.basis[:, :ncols].copy()
    return BlockLanczosResult(
        J=state.J[:jp, :jp].copy(),
        alphas=[a.copy() for a in state.alphas],
        betas=[b.copy() for b in state.betas],
        omegas=[w.copy() for w in state.omegas],
        R0=state.R0.copy(),
        shifts=tuple(state.shifts_used),
        termination=termination,
        m=j,
        p=p,
        side_projections=side,
        basis=basis,
        breakdown_step=state.breakdown,
        state=state,
        elapsed=elapsed,
    )


def block_assemble_HK(result: BlockLanczosResult):
    """Block analogue of assemble_HK: ((m+1)p) x (mp) block tridiagonal
    factors satisfying A Q_{m+1} Kbar = Q_{m+1} Hbar with a retained basis."""
    return _block_assemble_HK(result.alphas, result.betas, result.shifts,
                              result.p)


def _block_assemble_HK(alphas, betas, shifts, p):
    """``block_assemble_HK`` from the coefficient blocks of steps 1 ... m
    and the poles consumed; ``_block_check_recurrences`` takes the leading
    mp x mp part."""
    m = len(alphas)
    Hbar = np.zeros(((m + 1) * p, m * p))
    for jb in range(m):
        r = jb * p
        Hbar[r:r + p, r:r + p] = alphas[jb]
        Hbar[r + p:r + 2 * p, r:r + p] = betas[jb]
        if jb + 1 < m:
            Hbar[r:r + p, r + p:r + 2 * p] = betas[jb].T
    sig_rows = np.repeat(np.array([0.0] + [s.inv for s in shifts]), p)
    Kbar = np.eye((m + 1) * p, m * p) + sig_rows[:, None] * Hbar
    return Hbar, Kbar


def _block_check_recurrences(state, rtol=1e-10):
    j, p = state.j, state.p
    Hbar, Kbar = _block_assemble_HK(state.alphas, state.betas,
                                    state.shifts_used, p)
    H, K = Hbar[:j * p], Kbar[:j * p]
    Ej = np.zeros((j * p, p))
    Ej[-p:] = np.eye(p)
    scale = max(np.linalg.norm(K, 1), 1.0)
    ynorm = max(np.linalg.norm(state.Y_view), 1.0)
    ry = np.linalg.norm(K @ state.Y_view - Ej)
    rt = np.linalg.norm(K.T @ state.T_view - Ej)
    rh = np.linalg.norm(H @ state.Y_view - state.Yhat_view)
    if ry > rtol * scale * ynorm or rt > rtol * scale * ynorm \
            or rh > rtol * max(np.linalg.norm(H, 1), 1.0) * ynorm:
        raise AssertionError(
            f"block recurrence invariants violated at step {j}: "
            f"|KY-E|={ry:.3e} |K'T-E|={rt:.3e} |HY-Yhat|={rh:.3e}")
