"""Model-reduction pipelines for symmetric LTI systems.

H2 norms through projected Lyapunov equations, their parametric
quadrature extension, and LQR feedback through projected Riccati
equations.  All pipelines ride on the block short recurrence: the
projected matrix, the input/output projections and the initial-state
projection are accumulated while the basis is discarded.
"""

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.linalg as sla

from .arnoldi import arnoldi_run
from .block import block_run
from .dense import care_newton, expm_general, lyap_sym_solver
from .errors import DimensionError, StabilityError
from .io import read_dense_matrix, read_matrix_market, read_system_descriptor
from .lanczos import check_lag, converge, lag_rule
from .sparse import SparseSym


@dataclass
class LtiSystem:
    """Symmetric LTI system (E) x' = A x + B u, y = C x.

    ``E``, when present, is the diagonal of a positive mass matrix (its
    entries, length n).  ``R`` is the SPD control weight of the LQR
    functional and ``x0`` the initial state; both optional.
    """

    A: SparseSym
    B: np.ndarray
    C: np.ndarray
    E: Optional[np.ndarray] = None
    x0: Optional[np.ndarray] = None
    R: Optional[np.ndarray] = None

    def __post_init__(self):
        n = self.A.n
        self.B = np.asarray(self.B, dtype=float)
        if self.B.ndim == 1:
            self.B = self.B.reshape(-1, 1)
        self.C = np.asarray(self.C, dtype=float)
        if self.C.ndim == 1:
            self.C = self.C.reshape(1, -1)
        if self.B.shape[0] != n:
            raise DimensionError(f"B has {self.B.shape[0]} rows, expected {n}")
        if self.C.shape[1] != n:
            raise DimensionError(f"C has {self.C.shape[1]} columns, expected {n}")
        if self.E is not None:
            self.E = np.asarray(self.E, dtype=float).ravel()
            if self.E.shape != (n,):
                raise DimensionError("mass diagonal length mismatch")
            if np.any(self.E <= 0.0):
                raise ValueError("mass matrix diagonal must be positive")
        if self.x0 is not None:
            self.x0 = np.asarray(self.x0, dtype=float).ravel()
            if self.x0.shape != (n,):
                raise DimensionError("x0 length mismatch")
        if self.R is not None:
            self.R = np.atleast_2d(np.asarray(self.R, dtype=float))
            p = self.B.shape[1]
            if self.R.shape != (p, p):
                raise DimensionError(f"R must be {p} x {p}")

    @property
    def n(self):
        return self.A.n

    @property
    def num_inputs(self):
        return self.B.shape[1]

    @property
    def num_outputs(self):
        return self.C.shape[0]


def mass_transform(sys: LtiSystem) -> LtiSystem:
    """Fold a positive diagonal mass matrix into the system.

    Returns the equivalent explicit system with A' = E^-1/2 A E^-1/2,
    B' = E^-1/2 B, C' = C E^-1/2 and x0' = E^1/2 x0; the H2 norm is
    unchanged by this congruence.
    """
    if sys.E is None:
        return sys
    s = 1.0 / np.sqrt(sys.E)
    A2 = sys.A.scaled_rows_cols(s)
    B2 = s[:, None] * sys.B
    C2 = sys.C * s[None, :]
    x02 = None if sys.x0 is None else np.sqrt(sys.E) * sys.x0
    return LtiSystem(A=A2, B=B2, C=C2, E=None, x0=x02, R=sys.R)


def _choose_seed(sys: LtiSystem):
    """Krylov seed by the thinner of C^T and B; the other side is the
    projection accumulated on the fly."""
    if sys.num_outputs <= sys.num_inputs:
        return sys.C.T.copy(), sys.B.copy(), "observability"
    return sys.B.copy(), sys.C.T.copy(), "controllability"


@dataclass
class H2Result:
    norm: float
    history: np.ndarray
    iterations: int
    converged: bool
    seeded_with: str
    default_shifts_used: bool
    method: str = "lanczos"
    block: object = None


def _gramian_form(lyap, jp, F, G):
    """tr(G^T Y G) for the reduced Gramian Y of J Y + Y J + W = 0, where W
    holds F F^T in its leading block; ``lyap`` solves for J."""
    p0 = F.shape[0]
    W = np.zeros((jp, jp))
    W[:p0, :p0] = F @ F.T
    Y = lyap(W)
    return float(np.sum(G * (Y @ G)))


def _h2_value(state):
    J = state.J_view
    val = _gramian_form(lyap_sym_solver(J), J.shape[0], state.R0,
                        state.side_view)
    return math.sqrt(max(val, 0.0))


def h2_norm(sys: LtiSystem, shifts=None, tol=1e-8, s=1,
            max_m=80) -> H2Result:
    """H2 norm of a stable symmetric system by Gramian projection.

    Each step solves the reduced Lyapunov equation of the Gramian whose
    factor seeded the subspace and evaluates the trace form with the
    accumulated opposite-side projection; the run stops when two norm
    iterates lagged by ``s`` agree to relative ``tol``; ``s < 1`` raises
    ValueError.

    Stability is checked on what the run computes: each step's J must be
    stable (``StabilityError``) and each pole's I - A/xi definite
    (``IndefiniteShiftError``).  An unstable A whose J stays stable and
    whose factorizations all succeed passes silently.
    """
    return _h2_norm(sys, shifts, tol, s, max_m, block_run, "lanczos")


def h2_norm_arnoldi(sys: LtiSystem, shifts=None, tol=1e-8, s=1,
                    max_m=80) -> H2Result:
    """Full-basis twin of ``h2_norm`` (comparison baseline)."""
    return _h2_norm(sys, shifts, tol, s, max_m, arnoldi_run, "arnoldi")


def _h2_norm(sys, shifts, tol, s, max_m, runner, method):
    """Body of ``h2_norm`` on the subspace method ``runner``."""
    stop = lag_rule(s, tol)
    sys = mass_transform(sys)
    seed, side, mode = _choose_seed(sys)
    res, history, converged = converge(
        runner, _h2_value, stop, sys.A, seed, shifts, max_m,
        side_matrix=side)
    return H2Result(norm=history[-1], history=np.array(history),
                    iterations=res.m, converged=converged, seeded_with=mode,
                    default_shifts_used=shifts is None, method=method,
                    block=res)


@dataclass
class ParametricIO:
    """Affine parametric input/output maps B(mu) = B1 + B2 b(mu) and
    C(mu) = C1 + c(mu) C2, with a quadrature rule over the parameter
    domain."""

    B1: np.ndarray
    B2: np.ndarray
    C1: np.ndarray
    C2: np.ndarray
    b: Callable
    c: Callable
    nodes: list
    weights: np.ndarray

    def __post_init__(self):
        self.B1 = np.atleast_2d(np.asarray(self.B1, dtype=float))
        self.B2 = np.atleast_2d(np.asarray(self.B2, dtype=float))
        self.C1 = np.atleast_2d(np.asarray(self.C1, dtype=float))
        self.C2 = np.atleast_2d(np.asarray(self.C2, dtype=float))
        if self.B1.shape != self.B2.shape:
            raise DimensionError("B1 and B2 must have equal shapes")
        if self.C1.shape != self.C2.shape:
            raise DimensionError("C1 and C2 must have equal shapes")
        self.weights = np.asarray(self.weights, dtype=float).ravel()
        if len(self.nodes) != self.weights.size:
            raise DimensionError("one weight per quadrature node required")
        if np.any(self.weights <= 0.0):
            raise ValueError("quadrature weights must be positive")


def h2_param_norm(A, pio: ParametricIO, shifts=None, tol=1e-8, s=1,
                  max_m=80) -> H2Result:
    """Parametric H2 norm: quadrature over the parameter of the traced
    Gramian form, all nodes served by one parameter-independent subspace
    seeded with [C1^T, C2^T].

    The reduced Lyapunov right-hand side at node mu carries the output
    map through gamma [I; c(mu)^T] [I, c(mu)] gamma^T; the input map
    enters the trace through the accumulated [B1, B2] projection and
    [I; b(mu)].
    """
    stop = lag_rule(s, tol)
    if isinstance(A, LtiSystem):
        A = A.A
    q = pio.C1.shape[0]
    p = pio.B1.shape[1]
    seed = np.hstack([pio.C1.T, pio.C2.T])
    side = np.hstack([pio.B1, pio.B2])

    wincs = [np.vstack([np.eye(q), np.asarray(pio.c(mu), dtype=float).T])
             for mu in pio.nodes]
    bincs = [np.vstack([np.eye(p), np.asarray(pio.b(mu), dtype=float)])
             for mu in pio.nodes]

    def value(state):
        J, gamma, G = state.J_view, state.R0, state.side_view
        lyap = lyap_sym_solver(J)
        total = 0.0
        for w_quad, winc, binc in zip(pio.weights, wincs, bincs):
            total += w_quad * _gramian_form(lyap, J.shape[0], gamma @ winc,
                                            G @ binc)
        return math.sqrt(max(total, 0.0))

    res, history, converged = converge(
        block_run, value, stop, A, seed, shifts, max_m, side_matrix=side)
    return H2Result(norm=history[-1], history=np.array(history),
                    iterations=res.m, converged=converged,
                    seeded_with="parametric-output",
                    default_shifts_used=shifts is None, block=res)


# ---------------------------------------------------------------------------
# LQR feedback

@dataclass
class ReducedController:
    """Reduced feedback data: u(t) = Rinv B^T Y exp((J - B Rinv B^T Y) t) z0."""

    m: int
    J: np.ndarray
    B: np.ndarray
    Y: np.ndarray
    z0: np.ndarray
    Rinv: np.ndarray

    def gain(self):
        return self.Rinv @ self.B.T @ self.Y

    def closed_loop(self):
        return self.J - self.B @ self.gain()


def eval_control(ctrl: ReducedController, t) -> np.ndarray:
    """Feedback signal of the reduced model at time t >= 0."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    p = ctrl.Rinv.shape[0]
    if ctrl.m == 0:
        return np.zeros(p)
    E = expm_general(ctrl.closed_loop() * t)
    return ctrl.gain() @ E @ ctrl.z0


def _quad_energy(M, L, z):
    """Exact integral of ||L exp(M t) z||^2 over [0, inf) for stable M,
    via the Lyapunov equation M^T X + X M + L^T L = 0."""
    if M.shape[0] == 0:
        return 0.0
    if np.max(np.linalg.eigvals(M).real) >= 0.0:
        raise StabilityError("closed-loop matrix is not stable")
    X = sla.solve_continuous_lyapunov(M.T, -(L.T @ L))
    return float(z @ X @ z)


def l2_stop_metric(ctrl: ReducedController, prev: ReducedController) -> float:
    """Relative squared L2([0, inf)) distance between the feedback signals
    of two controllers from the same run.

    Both integrals are evaluated in closed form on the reduced models
    (the cross terms through the stacked two-block closed loop), so no
    time-quadrature truncation enters.
    """
    if ctrl.m == 0 and prev.m == 0:
        return 0.0
    L1 = ctrl.gain()
    M1 = ctrl.closed_loop()
    den = _quad_energy(M1, L1, ctrl.z0)
    L2 = prev.gain()
    M2 = prev.closed_loop()
    Mt = np.block([[M1, np.zeros((ctrl.m, prev.m))],
                   [np.zeros((prev.m, ctrl.m)), M2]])
    Lt = np.hstack([L1, -L2])
    zt = np.concatenate([ctrl.z0, prev.z0])
    num = max(_quad_energy(Mt, Lt, zt), 0.0)   # roundoff can dip below zero
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / den


@dataclass
class LqrResult:
    controller: ReducedController
    iterations: int
    converged: bool
    metric_history: np.ndarray
    default_shifts_used: bool
    method: str = "lanczos"
    block: object = None


def _trivial_controller(p):
    return ReducedController(m=0, J=np.zeros((0, 0)), B=np.zeros((0, p)),
                             Y=np.zeros((0, 0)), z0=np.zeros(0),
                             Rinv=np.eye(p))


def lqr_reduce(sys: LtiSystem, shifts=None, tol=1e-8, s=4,
               max_m=80) -> LqrResult:
    """Reduced LQR feedback for a stable symmetric system.

    Seeds the subspace with C^T, accumulates the projections of B and
    x0, solves the projected Riccati equation at every step and stops
    when the relative L2 distance between feedback signals lagged by
    ``s`` drops below ``tol``; ``s < 1`` raises ValueError.

    Stability is checked as in ``h2_norm``, by each step's J and each
    pole's factorization, so an unstable A whose J stays stable and whose
    factorizations all succeed passes silently.
    """
    return _lqr_reduce(sys, shifts, tol, s, max_m, block_run, "lanczos")


def lqr_reduce_arnoldi(sys: LtiSystem, shifts=None, tol=1e-8, s=4,
                       max_m=80) -> LqrResult:
    """Full-basis twin of ``lqr_reduce`` (comparison baseline)."""
    return _lqr_reduce(sys, shifts, tol, s, max_m, arnoldi_run, "arnoldi")


def _lqr_reduce(sys, shifts, tol, s, max_m, runner, method):
    """Body of ``lqr_reduce`` on the subspace method ``runner``."""
    # the controllers of the last s + 1 steps
    recent = deque(maxlen=check_lag(s) + 1)
    if sys.R is None or sys.x0 is None:
        raise ValueError("LQR reduction needs both R and x0 on the system")
    sys = mass_transform(sys)
    p = sys.num_inputs
    Rinv = np.linalg.solve(sys.R, np.eye(p))
    if not np.any(sys.C):
        # zero output: the optimal feedback is identically zero
        return LqrResult(controller=_trivial_controller(p), iterations=0,
                         converged=True, metric_history=np.array([]),
                         default_shifts_used=False, method=method)
    side = np.hstack([sys.B, sys.x0.reshape(-1, 1)])

    def metric(state):
        """Solve the step's reduced Riccati equation; the L2 metric against
        the controller of s steps back, NaN until there is one."""
        J, gamma, side_proj = state.J_view, state.R0, state.side_view
        q = gamma.shape[0]
        W = np.zeros_like(J)
        W[:q, :q] = gamma @ gamma.T
        Bm = side_proj[:, :p]
        Y = care_newton(J, Bm, Rinv, W)
        recent.append(ReducedController(m=J.shape[0], J=J.copy(), B=Bm.copy(),
                                        Y=Y, z0=side_proj[:, p].copy(),
                                        Rinv=Rinv))
        if len(recent) <= s:
            return math.nan
        return l2_stop_metric(recent[-1], recent[0])

    res, history, converged = converge(
        runner, metric, lambda h: h[-1] <= tol, sys.A, sys.C.T.copy(),
        shifts, max_m, side_matrix=side)
    return LqrResult(controller=recent[-1], iterations=res.m,
                     converged=converged, metric_history=np.array(history),
                     default_shifts_used=shifts is None, method=method,
                     block=res)


def system_from_descriptor(path) -> LtiSystem:
    """Assemble an LtiSystem from a descriptor file; see
    io.read_system_descriptor for the format."""
    entries = read_system_descriptor(path)
    A = read_matrix_market(entries["A"])
    n = A.n

    def load(key, default):
        val = entries.get(key)
        if val is None:
            return default
        if isinstance(val, str):
            val = read_dense_matrix(val)
        return np.asarray(val, dtype=float)

    B = load("B", np.zeros((n, 1)))
    C = load("C", np.zeros((1, n)))
    if B.ndim == 1:
        B = B.reshape(-1, 1)
    if C.ndim == 1:
        C = C.reshape(1, -1)
    if C.shape[1] != n and C.shape[0] == n:
        C = C.T
    return LtiSystem(A=A, B=B, C=C, E=entries.get("E"), x0=entries.get("x0"),
                     R=entries.get("R"))
