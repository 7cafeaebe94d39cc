"""Dense kernels for the small projected problems.

Everything here operates on matrices of the reduced dimension (a few
dozen rows), so plain LAPACK-backed dense algebra is the right tool.
"""

import numpy as np
import scipy.linalg as sla

from .errors import (ConvergenceError, DimensionError, DomainError,
                     RankDeficiencyError, StabilityError)

STABILITY_RTOL = 1e-12
CARE_RESIDUAL_RTOL = 1e-11
CARE_MAX_ITER = 60

_EPS = float(np.finfo(float).eps)

#: scalar functions accepted by name, with their admissible spectra
_NAMED_FUNCTIONS = {
    "exp": (np.exp, None),
    "log": (np.log, lambda lam: lam > 0.0),
    "sqrt": (np.sqrt, lambda lam: lam >= 0.0),
    "inv": (lambda lam: 1.0 / lam, lambda lam: lam != 0.0),
}


def resolve_function(f):
    """Map a function name or callable to (callable, domain_check, label)."""
    if callable(f):
        return f, None, getattr(f, "__name__", "user")
    try:
        fn, dom = _NAMED_FUNCTIONS[f]
    except KeyError:
        raise ValueError(
            f"unknown function {f!r}; expected one of {sorted(_NAMED_FUNCTIONS)} "
            "or a callable") from None
    return fn, dom, f


def _require_square(S, name="matrix"):
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {S.shape}")
    return S


def sym_eig(S):
    """Eigendecomposition of a symmetric matrix.

    Returns eigenvalues in ascending order and orthonormal eigenvectors.
    """
    S = _require_square(S)
    try:
        lam, V = np.linalg.eigh(S)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"symmetric eigensolver failed: {exc}") from exc
    return lam, V


def _eval_on_spectrum(lam, f):
    fn, dom, label = resolve_function(f)
    if dom is not None and not np.all(dom(lam)):
        bad = lam[~dom(lam)][0]
        raise DomainError(f"function {label!r} undefined at eigenvalue {bad:.6e}")
    with np.errstate(all="ignore"):
        flam = np.asarray(fn(lam), dtype=float)
    if not np.all(np.isfinite(flam)):
        bad = lam[~np.isfinite(flam)][0]
        raise DomainError(f"function {label!r} undefined at eigenvalue {bad:.6e}")
    return flam


def matfun_action_e1(S, f, scale=1.0):
    """First column of f(scale * S) for symmetric S."""
    lam, V = sym_eig(S)
    flam = _eval_on_spectrum(scale * lam, f)
    return (V * flam) @ V[0, :]


def matfun_first_cols(S, f, p):
    """First p columns of f(S) for symmetric S.

    ``f`` is a name from {exp, log, sqrt, inv} or a callable applied to the
    eigenvalues.  Raises DomainError naming the first offending eigenvalue
    when f is undefined somewhere on the spectrum.
    """
    lam, V = sym_eig(S)
    flam = _eval_on_spectrum(lam, f)
    return (V * flam) @ V[:p, :].T


def expm_general(M):
    """Matrix exponential of a general (possibly nonsymmetric) square matrix.

    Backed by scaling-and-squaring with diagonal Pade approximants;
    exp(0) = I exactly.
    """
    M = _require_square(M)
    with np.errstate(over="ignore", invalid="ignore"):
        E = sla.expm(M)
    if not np.all(np.isfinite(E)):
        raise OverflowError(
            "matrix exponential overflowed; 1-norm of argument is "
            f"{np.linalg.norm(M, 1):.3e}")
    return E


def qr_thin(V):
    """Thin QR factorization with a nonnegative-diagonal R.

    The sign convention makes the factorization deterministic across
    platforms.  Numerical rank deficiency raises RankDeficiencyError
    carrying the detected rank.
    """
    V = np.asarray(V, dtype=float)
    if V.ndim != 2:
        raise DimensionError("expected a 2-d array")
    n, p = V.shape
    if p > n:
        raise DimensionError(f"thin QR requires p <= n, got shape {V.shape}")
    Q, R = np.linalg.qr(V)
    s = np.sign(np.diag(R))
    s[s == 0.0] = 1.0
    Q = Q * s
    R = s[:, None] * R
    svals = np.linalg.svd(R, compute_uv=False)
    norm2 = svals[0] if svals.size else 0.0
    tol = max(n, p) * _EPS * norm2
    if np.min(np.abs(np.diag(R))) <= tol:
        rank = int(np.sum(svals > tol))
        raise RankDeficiencyError(
            f"input of shape {V.shape} is numerically rank deficient "
            f"(rank {rank})", rank=rank)
    return Q, R


def _assert_stable_sym(J, name="J"):
    lam, V = sym_eig(J)
    tol = STABILITY_RTOL * max(abs(lam[0]), abs(lam[-1]), 1e-300)
    if lam[-1] >= -tol:
        raise StabilityError(
            f"{name} must be stable; largest eigenvalue is {lam[-1]:.6e}")
    return lam, V


def lyap_sym_solver(J):
    """Factor symmetric stable J once; returns a solver W -> Y of
    J Y + Y J + W = 0 for symmetric right-hand sides W.

    Each solve works in the eigenbasis of J, where the transformed
    solution is -W_ij / (lambda_i + lambda_j).  The result is symmetrized
    exactly.
    """
    lam, V = _assert_stable_sym(J)
    denom = lam[:, None] + lam[None, :]

    def solve(W):
        Y = V @ (-(V.T @ W @ V) / denom) @ V.T
        return 0.5 * (Y + Y.T)

    return solve


def lyap_sym(J, W):
    """Solve J Y + Y J + W = 0 for symmetric stable J and symmetric W
    (one right-hand side of ``lyap_sym_solver``)."""
    J = _require_square(J, "J")
    W = _require_square(W, "W")
    if J.shape != W.shape:
        raise DimensionError("J and W must have equal shapes")
    return lyap_sym_solver(J)(W)


def care_newton(J, B, Rinv, W):
    """Stabilizing solution of J Y + Y J - Y B Rinv B^T Y + W = 0.

    Newton-Kleinman iteration started from Y = 0, which is admissible
    because J is symmetric stable.  Each step solves a Lyapunov equation
    with the current (nonsymmetric) closed-loop matrix.  Convergence is
    declared when the Riccati residual drops below 1e-11 * ||W||_F, within
    CARE_MAX_ITER steps.

    Returns the symmetric PSD solution; the closed loop J - B Rinv B^T Y
    is verified to be stable.
    """
    J = _require_square(J, "J")
    W = _require_square(W, "W")
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B.reshape(-1, 1)
    Rinv = np.asarray(Rinv, dtype=float)
    if B.shape[0] != J.shape[0] or Rinv.shape != (B.shape[1], B.shape[1]):
        raise DimensionError("incompatible shapes for the Riccati data")
    _assert_stable_sym(J)

    S = B @ Rinv @ B.T
    normW = np.linalg.norm(W, "fro")
    tol = CARE_RESIDUAL_RTOL * normW
    Y = np.zeros_like(J)

    def residual(Y):
        return J @ Y + Y @ J - Y @ S @ Y + W

    res = np.linalg.norm(residual(Y), "fro")
    it = 0
    while res > tol:
        if it >= CARE_MAX_ITER:
            raise ConvergenceError(
                f"Newton iteration stagnated after {CARE_MAX_ITER} steps "
                f"(residual {res:.3e}, target {tol:.3e})")
        Ak = J - S @ Y
        G = W + Y @ S @ Y
        Y = sla.solve_continuous_lyapunov(Ak.T, -G)
        Y = 0.5 * (Y + Y.T)
        res = np.linalg.norm(residual(Y), "fro")
        it += 1

    closed = J - S @ Y
    if np.max(np.linalg.eigvals(closed).real) >= 0.0:
        raise StabilityError(
            "computed Riccati solution is not stabilizing")
    return Y
