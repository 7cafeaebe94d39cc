"""Basis-free short-recurrence rational Lanczos for symmetric matrices.

Builds the projected matrix J_m = Q_m^T A Q_m of the rational Krylov
subspace span{v, (I - A/xi_1)^-1 v, ...} while keeping only two long
basis vectors (plus two cached operator products).  The column of J
appended at step j comes from O(j)-sized recurrences on the running
solves of the tridiagonal factor, never from the discarded basis.

All formulas are written in terms of inverse poles sigma_j = 1/xi_j,
with sigma = 0 for the infinite pole, so an infinite pole degrades a
step to plain polynomial Lanczos.
"""

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (AlphaBreakdownError, DimensionError,
                     OperatorMismatchError, ShiftError, SingularKError)
from .shifts import FactorizationCache, Shift, ShiftSequence, shifted_factorize
from .sparse import SparseSym

_EPS = float(np.finfo(float).eps)

TERM_MAX_ITERATIONS = "max-iterations"
TERM_CONVERGED = "converged"
TERM_LUCKY_BREAKDOWN = "lucky-breakdown"

#: terminations after which the projection is exact for its subspace
EXACT_TERMINATIONS = (TERM_CONVERGED, TERM_LUCKY_BREAKDOWN)


@dataclass
class RecurrenceState:
    """Rolling O(m)-sized state of the recurrence.

    Coefficient arrays are 1-based (index j holds the step-j value, entry
    0 is the conventional leading value, e.g. beta[0] = 0).  ``y``, ``t``
    and ``yhat`` hold the active prefix of length ``j``: the solutions of
    K_j y = e_j, K_j^T t = e_j and the product H_j y_j.
    """

    n: int
    m_max: int
    j: int = 0
    alpha: np.ndarray = None
    beta: np.ndarray = None
    omega: np.ndarray = None
    y: np.ndarray = None
    t: np.ndarray = None
    yhat: np.ndarray = None
    eta: float = 0.0
    qhat: np.ndarray = None
    qbar: np.ndarray = None
    Aqhat: np.ndarray = None
    Aqbar: np.ndarray = None
    J: np.ndarray = None
    side: Optional[np.ndarray] = None
    basis: Optional[np.ndarray] = None
    sig2: float = 0.0       # 1/xi_{j-2}
    sig1: float = 0.0       # 1/xi_{j-1}
    norm_v: float = 1.0
    shifts_used: list = field(default_factory=list)
    breakdown: Optional[int] = None

    # -- views over the active prefix -------------------------------------
    @property
    def J_view(self):
        return self.J[:self.j, :self.j]

    @property
    def y_view(self):
        return self.y[:self.j]

    @property
    def t_view(self):
        return self.t[:self.j]

    @property
    def yhat_view(self):
        return self.yhat[:self.j]

    @property
    def side_view(self):
        """Rows q_1^T U ... q_j^T U accumulated so far."""
        return None if self.side is None else self.side[:self.j]


def _as_side_matrix(side_matrix, n):
    """The side matrix U as an (n, k) float array."""
    U = np.asarray(side_matrix, dtype=float)
    if U.ndim == 1:
        U = U.reshape(-1, 1)
    if U.shape[0] != n:
        raise DimensionError("side matrix row count mismatch")
    return U


def init_state(A: SparseSym, v, m_max, side_matrix=None, retain_basis=False):
    """Normalize the start vector and allocate the recurrence state."""
    v = np.asarray(v, dtype=float)
    if v.shape != (A.n,):
        raise DimensionError(f"start vector shape {v.shape} != ({A.n},)")
    norm_v = float(np.linalg.norm(v))
    if norm_v == 0.0:
        raise ValueError("start vector must be nonzero")
    qhat = v / norm_v

    st = RecurrenceState(n=A.n, m_max=m_max, norm_v=norm_v)
    st.alpha = np.zeros(m_max + 1)
    st.beta = np.zeros(m_max + 1)
    st.omega = np.zeros(m_max + 1)
    st.y = np.zeros(m_max)
    st.t = np.zeros(m_max)
    st.yhat = np.zeros(m_max)
    st.qhat = qhat
    st.qbar = np.zeros(A.n)
    st.Aqhat = A.matvec(qhat)
    st.Aqbar = np.zeros(A.n)
    st.J = np.zeros((m_max, m_max))
    if side_matrix is not None:
        U = _as_side_matrix(side_matrix, A.n)
        st.side = np.zeros((m_max + 1, U.shape[1]))
        st.side[0] = qhat @ U
        st._side_matrix = U
    if retain_basis:
        st.basis = np.zeros((A.n, m_max + 1))
        st.basis[:, 0] = qhat
    return st


def lanczos_step(A: SparseSym, state: RecurrenceState, xi: Shift,
                 factorization=None, check=False) -> RecurrenceState:
    """Advance the recurrence by one step, consuming pole xi.

    Performs the shifted solve, updates the coefficient recurrences and
    appends column j to the projected matrix.  The solve takes two
    right-hand sides, or one when xi repeats the previous pole: the
    second right-hand side is then (I - A/xi) q_hat, whose solution is
    q_hat itself.  The state is updated in place and returned.

    A vanishing normalization factor terminates the run (the subspace has
    become invariant); ``state.breakdown`` records the step and the
    projected matrix of size j is final and exact for that subspace.
    """
    if state.breakdown is not None:
        raise RuntimeError(f"recurrence already terminated at step {state.breakdown}")
    if state.j >= state.m_max:
        raise RuntimeError("state is full; allocate a larger m_max")
    j = state.j + 1
    sig = xi.inv

    # combined shifted solve with two right-hand sides, one on a repeat
    beta_prev = state.beta[j - 1]
    rt = state.Aqhat - beta_prev * (state.qbar - state.sig2 * state.Aqbar)
    if factorization is None:
        factorization = shifted_factorize(A, xi)
    if sig == state.sig1:
        r, s = factorization.solve(rt), state.qhat
    else:
        st_vec = state.qhat - state.sig1 * state.Aqhat
        rs = factorization.solve(np.column_stack([rt, st_vec]))
        r, s = rs[:, 0], rs[:, 1]

    denom = float(s @ state.qhat)
    if abs(denom) <= state.n * _EPS * np.linalg.norm(s):
        raise AlphaBreakdownError(
            f"projection coefficient undefined at step {j}: |s^T q| = {abs(denom):.3e}")
    alpha_j = float(r @ state.qhat) / denom
    q = r - alpha_j * s
    beta_j = float(np.linalg.norm(q))

    state.alpha[j] = alpha_j
    state.beta[j] = beta_j

    # coefficient recurrences for the running K_j / K_j^T solves
    if j == 1:
        omega_j = 1.0
        state.y[0] = 1.0
        state.t[0] = 1.0
        state.yhat[0] = alpha_j
    else:
        omega_j = alpha_j * state.sig1 + 1.0 \
            - beta_prev ** 2 * state.sig1 * state.sig2 / state.omega[j - 1]
        if abs(omega_j) <= state.n * _EPS * (1.0 + abs(alpha_j * state.sig1)):
            raise SingularKError(
                f"running triangular factor is numerically singular at step {j} "
                f"(omega = {omega_j:.3e})")
        cy = beta_prev * state.sig2 / omega_j
        ct = beta_prev * state.sig1 / omega_j
        state.y[:j - 1] *= -cy
        state.t[:j - 1] *= -ct
        state.y[j - 1] = 1.0 / omega_j
        state.t[j - 1] = 1.0 / omega_j
        state.yhat[:j - 1] *= -cy
        state.yhat[j - 1] = beta_prev * state.y[j - 2] + alpha_j / omega_j
        state.yhat[j - 2] += beta_prev / omega_j
    state.omega[j] = omega_j
    state.shifts_used.append(xi)
    state.j = j

    lucky = j >= state.n or beta_j <= state.n * _EPS * np.linalg.norm(r)
    if lucky:
        # correction term carries a beta_j^2 factor: drop it
        col = state.yhat[:j].copy()
        state.J[:j, j - 1] = col
        state.J[j - 1, :j] = col
        state.breakdown = j
        state.sig2, state.sig1 = state.sig1, sig
        if check:
            _check_recurrences(state)
        return state

    # advance the long vectors, caching the single new operator product
    state.qbar = state.qhat
    state.Aqbar = state.Aqhat
    state.qhat = q / beta_j
    state.Aqhat = A.matvec(state.qhat)
    state.eta = float(state.qhat @ state.Aqhat)

    corr = beta_j ** 2 * sig * (1.0 - sig * state.eta) / omega_j
    col = state.yhat[:j] - corr * state.t[:j]
    state.J[:j, j - 1] = col
    state.J[j - 1, :j] = col

    if state.side is not None:
        state.side[j] = state.qhat @ state._side_matrix
    if state.basis is not None:
        state.basis[:, j] = state.qhat
    state.sig2, state.sig1 = state.sig1, sig
    if check:
        _check_recurrences(state)
    return state


@dataclass
class LanczosResult:
    """Outcome of a recurrence run.

    ``J`` is the m x m projected matrix (exactly symmetric by
    construction), ``alpha``/``beta``/``omega`` the step coefficients
    (index 0 is step 1), and ``side_projections`` the rows q_j^T U for a
    user-supplied side matrix U, accumulated before each basis vector was
    discarded.  ``basis`` holds q_1 ... q_{m+1} only when requested.
    """

    J: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    omega: np.ndarray
    shifts: tuple
    norm_v: float
    termination: str
    m: int
    side_projections: Optional[np.ndarray] = None
    basis: Optional[np.ndarray] = None
    breakdown_step: Optional[int] = None
    state: Optional[RecurrenceState] = None
    elapsed: float = 0.0


def run(A: SparseSym, v, shifts, m, side_matrix=None, retain_basis=False,
        callback=None, solver_cache=None,
        check_invariants=False) -> LanczosResult:
    """Run up to m steps of the recurrence from start vector v.

    Parameters
    ----------
    shifts : ShiftSequence, iterable or None
        Poles xi_1 ... xi_m, one consumed per step; must supply at least m.
        None takes ``default_shifts(A, m)``, read from the run's factor
        cache (see ``_drive``).
    side_matrix : array, optional
        Columns U whose projections q_j^T U are accumulated on the fly.
    callback : callable, optional
        Called with the state after every step; returning True stops the
        run with termination "converged".  A lucky breakdown ends the run
        after one last call on the final, exact state, whose return is
        ignored.
    retain_basis : bool
        Keep all basis vectors (diagnostics mode only; defeats the point
        of the short recurrence).
    solver_cache : FactorizationCache, optional
        Shared factorizations of ``A``, all kept resident.  Without one
        the run keeps one finite-pole factor at a time (see ``_drive``).
    """
    return _finalize(*_drive(
        A, shifts, m,
        lambda: init_state(A, v, m, side_matrix=side_matrix,
                           retain_basis=retain_basis),
        lambda state, xi, fact: lanczos_step(A, state, xi, fact,
                                             check=check_invariants),
        callback, solver_cache))


def _drive(A: SparseSym, shifts, m, start, step, callback=None,
           solver_cache=None):
    """The step loop of ``run``, ``block_run`` and ``arnoldi_run``.

    Checks m, that a passed ``solver_cache`` was built for ``A`` itself
    (``OperatorMismatchError`` otherwise) and the poles, then builds the
    process with ``start()`` and calls ``step(process, xi, factorization)``
    once per pole, the factorization coming from ``solver_cache``.  A
    passed cache keeps every pole it serves.  When it is None, the driver
    builds one that keeps a single finite pole resident and drops it on
    the next finite-pole miss.  On the paired default schedule, which
    repeats every 12 steps, xi_1 returns at step 13: a pole that went to
    its factor is factored again, and one the cache iterates by conjugate
    gradients (see ``FactorizationCache``) resumes its step budget.
    ``shifts=None`` takes the cache's ``default_shifts(m)``, bit for bit
    ``default_shifts(A, m)``, so the callers that share one cache share its
    power iteration.  ``callback(process)`` after a step returning True
    stops the run as converged.  A step that sets ``process.breakdown``
    ends the run as a lucky breakdown, after one last callback whose
    return is ignored.

    Returns (process, termination, elapsed seconds).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if solver_cache is None:
        solver_cache = FactorizationCache(A, keep_one=True)
    elif solver_cache.A is not A:
        B = solver_cache.A
        raise OperatorMismatchError(
            f"solver_cache was built for another operator (n = {B.n}, "
            f"nnz = {B.nnz}) than the one passed (n = {A.n}, nnz = {A.nnz})")
    if shifts is None:
        shifts = solver_cache.default_shifts(m)
    elif not isinstance(shifts, ShiftSequence):
        shifts = ShiftSequence(shifts)
    if len(shifts) < m:
        raise ShiftError(f"{len(shifts)} poles supplied for m = {m} steps")

    t0 = time.perf_counter()
    process = start()
    termination = TERM_MAX_ITERATIONS
    for k in range(m):
        xi = shifts[k]
        step(process, xi, solver_cache.get(xi))
        if process.breakdown is not None:
            termination = TERM_LUCKY_BREAKDOWN
            if callback is not None:
                callback(process)
            break
        if callback is not None and callback(process):
            termination = TERM_CONVERGED
            break
    return process, termination, time.perf_counter() - t0


def converge(runner, value, stop, *args, **kwargs):
    """The convergence loop of every pipeline: ``runner(*args, **kwargs)``
    (``run``, ``block_run`` or ``arnoldi_run``) with a callback that
    appends ``value(process)`` to a history after every step and stops
    the run when ``stop(history)`` is True.  A lucky breakdown appends the
    value of the final, exact process too; its stop is not acted on.

    Returns (run result, history, converged): the history has one entry
    per step taken, and ``converged`` is True when the run ended on the
    rule or on a lucky breakdown, False when the step budget ran out.
    """
    history = []

    def callback(process):
        history.append(value(process))
        return stop(history)

    res = runner(*args, callback=callback, **kwargs)
    return res, history, res.termination in EXACT_TERMINATIONS


def check_lag(s):
    """The stopping lag ``s`` of a lag-s rule, which must be at least 1:
    at s = 0 an iterate is compared with itself, so every run would stop
    after its first step.  Raises ValueError otherwise."""
    if s < 1:
        raise ValueError(f"stopping lag must be >= 1, got s = {s}")
    return s


def lag_rule(s, tol):
    """The lag-s relative stopping rule as a stop function of a history:
    the newest iterate differs from the one s steps back by at most
    ``tol`` relative to the newest, or by at most ``tol`` absolutely when
    the newest is zero.  Array iterates are compared in the Frobenius
    norm.  The lag goes through ``check_lag`` when the rule is built."""
    check_lag(s)

    def stop(history):
        if len(history) <= s:
            return False
        cur, prev = history[-1], history[-1 - s]
        norm = np.linalg.norm if np.ndim(cur) else abs
        size, diff = norm(cur), norm(cur - prev)
        return diff <= tol * size if size else diff <= tol

    return stop


def _finalize(state, termination, elapsed):
    j = state.j
    side = None
    if state.side is not None:
        side = state.side[:j].copy()
    basis = None
    if state.basis is not None:
        ncols = j if state.breakdown is not None else j + 1
        basis = state.basis[:, :ncols].copy()
    return LanczosResult(
        J=state.J[:j, :j].copy(),
        alpha=state.alpha[1:j + 1].copy(),
        beta=state.beta[1:j + 1].copy(),
        omega=state.omega[1:j + 1].copy(),
        shifts=tuple(state.shifts_used),
        norm_v=state.norm_v,
        termination=termination,
        m=j,
        side_projections=side,
        basis=basis,
        breakdown_step=state.breakdown,
        state=state,
        elapsed=elapsed,
    )


def assemble_HK(result: LanczosResult):
    """Reassemble the (m+1) x m recurrence matrices from the coefficients.

    Returns (Hbar, Kbar) with Hbar tridiagonal-plus-last-row and
    Kbar = Ibar + diag(0, 1/xi_1, ..., 1/xi_m) Hbar, so that with the
    retained basis A Q_{m+1} Kbar = Q_{m+1} Hbar.
    """
    return _assemble_HK(result.alpha, result.beta, result.shifts)


def _assemble_HK(alpha, beta, shifts):
    """``assemble_HK`` from the coefficients of steps 1 ... m and the
    poles consumed; ``_check_recurrences`` takes the leading m x m part."""
    m = len(alpha)
    Hbar = np.zeros((m + 1, m))
    for j in range(m):
        Hbar[j, j] = alpha[j]
        Hbar[j + 1, j] = beta[j]
        if j + 1 < m:
            Hbar[j, j + 1] = beta[j]
    sig_rows = np.array([0.0] + [s.inv for s in shifts])
    Kbar = np.eye(m + 1, m) + sig_rows[:, None] * Hbar
    return Hbar, Kbar


def _check_recurrences(state, rtol=1e-10):
    """Assert the running solves against freshly assembled factors."""
    j = state.j
    Hbar, Kbar = _assemble_HK(state.alpha[1:j + 1], state.beta[1:j + 1],
                              state.shifts_used)
    H, K = Hbar[:j], Kbar[:j]
    ej = np.zeros(j)
    ej[-1] = 1.0
    scale = max(np.linalg.norm(K, 1), 1.0)
    ry = np.linalg.norm(K @ state.y_view - ej)
    rt = np.linalg.norm(K.T @ state.t_view - ej)
    rh = np.linalg.norm(H @ state.y_view - state.yhat_view)
    bound_y = rtol * scale * max(np.linalg.norm(state.y_view), 1.0)
    bound_h = rtol * max(np.linalg.norm(H, 1), 1.0) * max(np.linalg.norm(state.y_view), 1.0)
    if ry > bound_y or rt > bound_y or rh > bound_h:
        raise AssertionError(
            f"recurrence invariants violated at step {j}: "
            f"|Ky-e|={ry:.3e} |K't-e|={rt:.3e} |Hy-yhat|={rh:.3e}")


@dataclass
class DiagnosticsReport:
    """Per-iteration finite-precision traces from a basis-retaining run."""

    orth_loss: np.ndarray
    ritz_values: np.ndarray
    ritz_residuals: np.ndarray
    component_q1Q: Optional[np.ndarray] = None
    component_fJe1: Optional[np.ndarray] = None
    component_products: Optional[np.ndarray] = None


def diagnostics(A: SparseSym, result: LanczosResult, f=None) -> DiagnosticsReport:
    """Orthogonality loss, extreme Ritz-pair residuals and the component
    products |q_1^T Q_j|_l * |f(J_j) e_1|_l of the final step.

    Requires a run made with ``retain_basis=True``.  The Ritz pair tracked
    is the one with the largest Ritz value (the first to converge for the
    spectra of interest).
    """
    from .dense import matfun_action_e1, sym_eig

    if result.basis is None:
        raise ValueError("diagnostics require a run with retain_basis=True")
    Q = result.basis
    m = result.m
    G = Q[:, :m].T @ Q[:, :m]
    orth = np.empty(m)
    ritz_val = np.empty(m)
    ritz_res = np.empty(m)
    for j in range(1, m + 1):
        orth[j - 1] = np.linalg.norm(np.eye(j) - G[:j, :j], 2)
        lam, V = sym_eig(result.J[:j, :j])
        x = Q[:, :j] @ V[:, -1]
        ritz_val[j - 1] = lam[-1]
        ritz_res[j - 1] = np.linalg.norm(A.matvec(x) - lam[-1] * x) / abs(lam[-1])

    rep = DiagnosticsReport(orth_loss=orth, ritz_values=ritz_val,
                            ritz_residuals=ritz_res)
    if f is not None:
        # deviation of q_1^T Q_j from its exact-arithmetic value e_1^T;
        # the first entry is the (exactly normalized) unit inner product
        eps = Q[:, 0] @ Q[:, :m]
        eps[0] -= 1.0
        q1Q = np.abs(eps)
        fJe1 = np.abs(matfun_action_e1(result.J, f))
        rep.component_q1Q = q1Q
        rep.component_fJe1 = fJe1
        rep.component_products = q1Q * fJe1
    return rep
