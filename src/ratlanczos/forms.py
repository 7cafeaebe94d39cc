"""Bilinear and quadratic forms of matrix functions, stochastic trace
estimation, log-determinants and the Gaussian-process precision matrix
generator.

The central approximation: after m short-recurrence steps the quadratic
form v^T f(A) v is ||v||^2 e_1^T f(J_m) e_1 with J_m the projected
matrix, exact for rational functions p(x)/q(x)^2 with deg p <= 2m - 1
and q the pole polynomial of the subspace.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Union

import numpy as np

from .arnoldi import arnoldi_run
from .block import block_run
from .dense import matfun_action_e1, matfun_first_cols
from .errors import DimensionError, RankDeficiencyError
from .lanczos import converge, lag_rule, run
from .shifts import FactorizationCache, ShiftSequence
from .sparse import SparseSym

STRATEGIES = ("quadratic", "polarization", "oblique", "block2x2")
STOPPING_RULES = ("iterate-difference", "residual-bound", "both")

#: safety inflation applied to the power-iteration norm estimate used in
#: the residual bound
NORM_INFLATION = 1.05


@dataclass
class FormRequest:
    """How to approximate a form: which function, strategy and stopping.

    ``s`` is the stopping lag: the iterate-difference rule compares the
    value at step j with the one at step j - s.  The residual-bound rule
    stops once the computable bound drops below ``tol``; ``both``
    requires the two conditions at the same step.
    """

    f: Union[str, Callable] = "exp"
    strategy: str = "quadratic"
    tol: float = 1e-8
    s: int = 1
    max_m: int = 60
    stopping_rule: str = "iterate-difference"

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.stopping_rule not in STOPPING_RULES:
            raise ValueError(f"unknown stopping rule {self.stopping_rule!r}")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if not 1 <= self.s < self.max_m:
            raise ValueError("stopping lag must satisfy 1 <= s < max_m")


@dataclass
class FormResult:
    value: float
    history: np.ndarray
    residual_bounds: np.ndarray
    iterations: int
    converged: bool
    termination: str
    strategy: str = "quadratic"
    lanczos: object = None


def _query_cache(A, solver_cache):
    """The caller's shared cache, or the query's own one, which keeps one
    finite-pole factor resident as the driver's own does."""
    if solver_cache is not None:
        return solver_cache
    return FactorizationCache(A, keep_one=True)


def residual_bound(state, f, tau=1.0, norm_A=None):
    """Upper bound on the norm of the differential-equation residual of
    the subspace approximation to f(tau A) v at the current step.

    Uses only quantities the recurrence already carries: the last
    normalization factor, the pole just consumed and the running solution
    t_m of the transposed triangular system.  ``norm_A`` is a spectral
    norm estimate of the operator (a 20-step power iteration inflated by
    5 percent is enough).
    """
    if norm_A is None:
        raise ValueError("norm_A estimate is required")
    if state.beta[state.j] == 0.0:
        return 0.0
    return _bound(state, matfun_action_e1(state.J_view, f, scale=tau), norm_A)


def _bound(state, w, norm_A):
    """The residual bound from w = f(tau J) e_1; zero once a lucky
    breakdown has made the subspace invariant."""
    if state.breakdown is not None:
        return 0.0
    sig = state.sig1          # inverse of the pole consumed at this step
    return (abs(state.beta[state.j]) * (1.0 + abs(sig) * norm_A)
            * abs(float(state.t_view @ w)))


def quad_form(A: SparseSym, v, shifts=None, req: FormRequest = None,
              solver_cache=None) -> FormResult:
    """Approximate the quadratic form v^T f(A) v.

    Runs the short recurrence, evaluating ||v||^2 e_1^T f(J_j) e_1 at
    every step, and stops by the request's rule: the relative difference
    of iterates lagged by s, the residual bound, or both.

    ``solver_cache``, a ``FactorizationCache`` of ``A``, shares across
    queries the shifted factors, the norm estimate of the residual bound
    and the default poles, so a warm query runs no power iteration and
    factors no pole.  Without one, the query builds its own cache, which
    keeps one factor at a time.  The results are the same bit for bit.
    """
    req = req or FormRequest()
    res, history, bounds, converged = _scalar_form(
        A, v, shifts, req, _query_cache(A, solver_cache),
        lambda state, w: state.norm_v ** 2 * w[0])
    return FormResult(value=history[-1], history=history,
                      residual_bounds=bounds, iterations=res.m,
                      converged=converged, termination=res.termination,
                      strategy="quadratic", lanczos=res)


def _scalar_form(A, v, shifts, req, cache, iterate, side_matrix=None):
    """The recurrence from v, stopped by the request's rule on the pairs
    (``iterate(state, w)``, residual bound) with w = f(J) e_1.

    Returns (run result, iterates, residual bounds, converged).
    """
    norm_A = NORM_INFLATION * cache.norm_estimate()

    def value(state):
        w = matfun_action_e1(state.J_view, req.f)
        return iterate(state, w), _bound(state, w, norm_A)

    res, history, converged = converge(
        run, value, _form_stop(req), A, v, shifts, req.max_m,
        side_matrix=side_matrix, solver_cache=cache)
    iterates, bounds = (np.array(h) for h in zip(*history))
    return res, iterates, bounds, converged


def _form_stop(req):
    """The request's stopping rule over (iterate, residual bound) pairs:
    the lag-s difference of the iterates, the newest bound at most tol, or
    both at the same step."""
    lag = lag_rule(req.s, req.tol)

    def stop(history):
        bound_ok = history[-1][1] <= req.tol
        if req.stopping_rule == "residual-bound":
            return bound_ok
        diff_ok = lag([x for x, _ in history[-1 - req.s:]])
        if req.stopping_rule == "iterate-difference":
            return diff_ok
        return diff_ok and bound_ok

    return stop


@dataclass
class BilinearResult:
    value: float
    strategy: str
    iterations: int
    history: Optional[np.ndarray] = None
    parts: dict = field(default_factory=dict)


def bilinear_form(A: SparseSym, u, v, shifts=None, req: FormRequest = None,
                  solver_cache=None) -> BilinearResult:
    """Approximate the bilinear form u^T f(A) v.

    Strategies:

    - ``quadratic``: requires u = v; plain quadratic form.
    - ``polarization``: two quadratic-form runs on u + v and u - v at
      twice the cost, keeping the full 2m - 1 exactness degree.
    - ``oblique``: one run from v, projecting u on the fly; exact only up
      to numerator degree m - 1, so the residual-bound stopping rule is
      the appropriate choice here.
    - ``block2x2``: block run on [u, v]; the (1, 2) entry of the 2 x 2
      block form gives the value.  Favored default for u != v on
      stability grounds.  Parallel u, v make the start block rank
      deficient; fall back to the quadratic form in that case.

    Without a ``solver_cache``, both runs of a polarization share one
    power iteration through the query's own cache.
    """
    req = req or FormRequest()
    cache = _query_cache(A, solver_cache)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise DimensionError("u and v must have equal shapes")
    strategy = req.strategy

    if strategy == "quadratic":
        if not np.array_equal(u, v):
            raise ValueError(
                "strategy 'quadratic' needs u = v; use polarization, "
                "oblique or block2x2 for u != v")
        r = quad_form(A, v, shifts, req, solver_cache=cache)
        return BilinearResult(r.value, strategy, r.iterations, r.history)

    if strategy == "polarization":
        plus, minus = u + v, u - v
        parts = {}

        def _one(w, key):
            if np.linalg.norm(w) == 0.0:
                parts[key] = None
                return 0.0, 0
            r = quad_form(A, w, shifts, req, solver_cache=cache)
            parts[key] = r
            return r.value, r.iterations

        val_p, it_p = _one(plus, "plus")
        val_m, it_m = _one(minus, "minus")
        return BilinearResult(0.25 * (val_p - val_m), strategy,
                              max(it_p, it_m), parts=parts)

    if strategy == "oblique":
        res, history, _, _ = _scalar_form(
            A, v, shifts, req, cache,
            lambda state, w: state.norm_v * float(state.side_view[:, 0] @ w),
            side_matrix=u)
        return BilinearResult(history[-1], strategy, res.m, history)

    # block2x2
    try:
        br = block_quad_form(A, np.column_stack([u, v]), shifts, req,
                             solver_cache=cache)
    except RankDeficiencyError as exc:
        raise RankDeficiencyError(
            "block2x2 strategy needs linearly independent u and v; "
            "for parallel vectors use the quadratic form instead "
            f"({exc})", rank=exc.rank) from exc
    history = np.array([M[0, 1] for M in br.history])
    return BilinearResult(float(br.value[0, 1]), strategy, br.iterations,
                          history)


@dataclass
class BlockFormResult:
    value: np.ndarray
    history: list
    iterations: int
    converged: bool
    termination: str
    block: object = None


def block_quad_form(A: SparseSym, V, shifts=None, req: FormRequest = None,
                    solver_cache=None) -> BlockFormResult:
    """Approximate the p x p block form V^T f(A) V.

    The start block is orthonormalized internally and its triangular
    factor reapplied, so the result refers to the original columns of V.
    Stopping uses the relative Frobenius change of the block iterate
    lagged by ``req.s``.
    """
    return _block_quad_form(A, V, shifts, req, solver_cache, block_run)


def _block_quad_form(A, V, shifts, req, solver_cache, runner):
    """Body of ``block_quad_form`` on either subspace method: ``runner``
    is ``block_run`` or ``arnoldi_run``."""
    req = req or FormRequest()
    V = np.asarray(V, dtype=float)
    if V.ndim == 1:
        V = V.reshape(-1, 1)
    p = V.shape[1]

    def value(state):
        R0 = state.R0
        M = R0.T @ matfun_first_cols(state.J_view, req.f, p)[:p, :] @ R0
        return 0.5 * (M + M.T)

    res, history, converged = converge(
        runner, value, lag_rule(req.s, req.tol), A, V, shifts, req.max_m,
        solver_cache=solver_cache)
    return BlockFormResult(value=history[-1], history=history,
                           iterations=res.m, converged=converged,
                           termination=res.termination, block=res)


# ---------------------------------------------------------------------------
# stochastic trace estimation

@dataclass
class TraceRequest:
    """Hutchinson estimation setup: ``num_probes`` Rademacher vectors
    processed in blocks of ``block_size`` columns, reproducibly generated
    from ``seed`` (one counter-based stream per probe index)."""

    f: Union[str, Callable] = "log"
    num_probes: int = 20
    block_size: int = 1
    seed: int = 0
    shifts: Optional[ShiftSequence] = None
    tol: float = 1e-8
    s: int = 1
    max_m: int = 60

    def __post_init__(self):
        if self.num_probes < 1 or self.block_size < 1:
            raise ValueError("num_probes and block_size must be >= 1")


@dataclass
class TraceResult:
    estimate: float
    samples: np.ndarray
    stderr: float
    history: np.ndarray
    group_histories: list
    iterations: int
    converged: bool


def rademacher_block(n, seed, start, count):
    """Columns start .. start+count-1 of the probe stream for ``seed``.

    Each probe is generated by a counter-based generator keyed by
    (seed, probe index), so any probe can be regenerated independently of
    execution order or grouping.
    """
    Z = np.empty((n, count))
    for i in range(count):
        key = np.array([seed, start + i], dtype=np.uint64)
        g = np.random.Generator(np.random.Philox(key=key))
        Z[:, i] = g.integers(0, 2, n) * 2.0 - 1.0
    return Z


def hutchinson_trace(A: SparseSym, req: TraceRequest) -> TraceResult:
    """Stochastic estimate of tr(f(A)) from Rademacher probes.

    Probes are consumed in blocks through the block recurrence; the
    per-probe samples are the diagonal entries of each block form
    Z^T f(A) Z.  Over the full +-1 ensemble the mean is exactly the
    trace, so the estimator is unbiased.  The estimate is the sample
    mean, with the standard error of the mean attached.
    """
    return _hutchinson_trace(A, req, block_run)


def _hutchinson_trace(A, req, runner):
    """Body of ``hutchinson_trace`` on the subspace method ``runner``."""
    n = A.n
    cache = FactorizationCache(A)
    freq = FormRequest(f=req.f, tol=req.tol, s=req.s, max_m=req.max_m)

    samples = np.empty(req.num_probes)
    group_histories = []
    iterations = 0
    converged = True
    start = 0
    while start < req.num_probes:
        count = min(req.block_size, req.num_probes - start)
        Z = rademacher_block(n, req.seed, start, count)
        br = _block_quad_form(A, Z, req.shifts, freq, cache, runner)
        samples[start:start + count] = np.diag(br.value)
        group_histories.append(
            np.array([float(np.mean(np.diag(M))) for M in br.history]))
        iterations = max(iterations, br.iterations)
        converged = converged and br.converged
        start += count

    # combined per-iteration estimate; groups that stopped early hold
    # their final value
    depth = max(len(h) for h in group_histories)
    comb = np.empty(depth)
    for j in range(depth):
        comb[j] = float(np.mean([h[min(j, len(h) - 1)] for h in group_histories]))
    estimate = float(np.mean(samples))
    stderr = (float(np.std(samples, ddof=1) / math.sqrt(req.num_probes))
              if req.num_probes > 1 else float("nan"))
    return TraceResult(estimate=estimate, samples=samples, stderr=stderr,
                       history=comb, group_histories=group_histories,
                       iterations=iterations, converged=converged)


@dataclass
class LogDetResult:
    logdet: float
    stderr: float
    samples: np.ndarray
    history: np.ndarray
    iterations: int
    converged: bool
    loglik: Optional[float] = None


def logdet(A: SparseSym, req: TraceRequest, x=None) -> LogDetResult:
    """Stochastic log-determinant of an SPD matrix via tr log(A).

    When a data vector x is supplied the Gaussian log-likelihood
    0.5 log det A - 0.5 x^T A x - n/2 log(2 pi) of the precision matrix A
    is evaluated as well.
    """
    tr = hutchinson_trace(A, replace(req, f="log"))
    loglik = None
    if x is not None:
        x = np.asarray(x, dtype=float)
        loglik = 0.5 * tr.estimate - 0.5 * float(x @ A.matvec(x)) \
            - 0.5 * A.n * math.log(2.0 * math.pi)
    return LogDetResult(logdet=tr.estimate, stderr=tr.stderr,
                        samples=tr.samples, history=tr.history,
                        iterations=tr.iterations, converged=tr.converged,
                        loglik=loglik)


def gp_precision_matrix(points, phi, delta) -> SparseSym:
    """Precision matrix of a planar Gaussian-process neighborhood model.

    Points closer than ``delta`` are neighbors with weight
    gamma = 1 - d/delta (the reciprocal choice); the matrix has
    1 + phi * sum_k gamma_ik on the diagonal and -phi * gamma_ij off it.
    Strict diagonal dominance with unit slack makes it SPD with smallest
    eigenvalue at least 1.  Larger delta gives a denser matrix.
    """
    if phi <= 0 or delta <= 0:
        raise ValueError("phi and delta must be positive")
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DimensionError("expected an (n, 2) array of planar points")
    n = pts.shape[0]
    from scipy.spatial import cKDTree
    pairs = cKDTree(pts).query_pairs(r=delta, output_type="ndarray")
    if pairs.size:
        d = np.linalg.norm(pts[pairs[:, 0]] - pts[pairs[:, 1]], axis=1)
        keep = (d > 0.0) & (d < delta)
        pairs, d = pairs[keep], d[keep]
    else:
        d = np.empty(0)
    gamma = 1.0 - d / delta

    diag = np.ones(n)
    np.add.at(diag, pairs[:, 0], phi * gamma)
    np.add.at(diag, pairs[:, 1], phi * gamma)
    rows = np.concatenate([pairs[:, 0], pairs[:, 1], np.arange(n)])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0], np.arange(n)])
    vals = np.concatenate([-phi * gamma, -phi * gamma, diag])
    return SparseSym.from_coo(n, rows, cols, vals)


# ---------------------------------------------------------------------------
# full-basis comparison twins (for the experiment harness)

def quad_form_arnoldi(A: SparseSym, v, shifts=None, req: FormRequest = None,
                      solver_cache=None) -> FormResult:
    """Same iterate as ``quad_form`` evaluated on the full-basis method.

    Stops by iterate difference only (the residual bound is a
    short-recurrence quantity).
    """
    req = req or FormRequest()
    v = np.asarray(v, dtype=float)
    nv = float(np.linalg.norm(v))

    def value(proc):
        return nv ** 2 * matfun_action_e1(proc.J_view, req.f)[0]

    res, history, converged = converge(
        arnoldi_run, value, lag_rule(req.s, req.tol), A, v, shifts,
        req.max_m, solver_cache=solver_cache)
    return FormResult(value=history[-1], history=np.array(history),
                      residual_bounds=np.array([]), iterations=res.m,
                      converged=converged, termination=res.termination,
                      strategy="quadratic", lanczos=res)


def hutchinson_trace_arnoldi(A: SparseSym, req: TraceRequest) -> TraceResult:
    """Full-basis twin of ``hutchinson_trace`` with the same probes."""
    return _hutchinson_trace(A, req, arnoldi_run)
