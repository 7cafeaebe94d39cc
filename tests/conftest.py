"""Shared helpers for the test suite: random instances with prescribed
spectra, valid pole draws and independent reference computations."""

import weakref

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import ratlanczos.shifts as shifts_mod
from ratlanczos import ShiftSequence, SparseSym, arnoldi_run
from ratlanczos.shifts import ShiftedFactorization


def rand_sym(rng, n, lam_lo, lam_hi):
    """Dense-backed symmetric matrix with eigenvalues uniform in
    [lam_lo, lam_hi] and a random orthogonal eigenbasis."""
    lam = rng.uniform(lam_lo, lam_hi, size=n)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    M = (Q * lam) @ Q.T
    M = 0.5 * (M + M.T)
    return SparseSym.from_dense(M), M


def rand_shifts(rng, m, lam_lo, lam_hi):
    """Poles with sign opposite to a positive spectrum in [lam_lo, lam_hi],
    magnitudes drawn from the spectral range."""
    mags = rng.uniform(lam_lo, lam_hi, size=m)
    return ShiftSequence([-float(x) for x in mags])


def reference_lanczos(Ad, v, m):
    """Independent classical three-term recurrence (no reorthogonalization).

    Returns (alpha, beta) of the tridiagonal projection.
    """
    n = Ad.shape[0]
    q = v / np.linalg.norm(v)
    q_prev = np.zeros(n)
    beta_prev = 0.0
    alphas, betas = [], []
    for _ in range(m):
        w = Ad @ q
        a = float(q @ w)
        w = w - a * q - beta_prev * q_prev
        b = float(np.linalg.norm(w))
        alphas.append(a)
        betas.append(b)
        if b == 0.0:
            break
        q_prev = q
        q = w / b
        beta_prev = b
    return np.array(alphas), np.array(betas)


def dense_matfun_oracle(Ad, f):
    """f(A) for dense symmetric A via eigendecomposition (numpy only)."""
    lam, V = np.linalg.eigh(Ad)
    if callable(f):
        flam = f(lam)
    else:
        flam = {"exp": np.exp, "log": np.log, "sqrt": np.sqrt,
                "inv": lambda x: 1.0 / x}[f](lam)
    return (V * flam) @ V.T


def pole_polynomial(x, shifts, m):
    """q(x) = prod_{j<m} (1 - x / xi_j) over the first m-1 poles."""
    out = np.ones_like(np.asarray(x, dtype=float))
    for s in list(shifts)[:m - 1]:
        out = out * (1.0 - np.asarray(x, dtype=float) * s.inv)
    return out


def repeat_pole_lists(a, b, c):
    """Named six-pole lists with consecutive repeats, from three distinct
    finite poles a, b, c."""
    inf = np.inf
    return {
        "pairs": [a, a, b, b, c, c],
        "triples": [a, a, a, b, b, b],
        "one-repeated": [a] * 6,
        "all-infinite": [inf] * 6,
        "inf-then-repeats": [inf, inf, a, a, a, b],
    }


def repeated_steps(poles):
    """Per step, whether its pole repeats the previous one (xi_0 = inf)."""
    prev = [np.inf] + list(poles[:-1])
    return [float(x) == float(y) for x, y in zip(poles, prev)]


def assert_projection_matches(J, basis, Ad, A, V, poles):
    """J is exactly symmetric, equals basis^T A basis over its columns and
    equals an independent projection (Q_o, J_o) onto the same space in the
    Lanczos basis: with M = Q_o^T basis, J = M^T J_o M (M is orthogonal
    per block).  The oracle is the Arnoldi twin on the same poles."""
    k = J.shape[0]
    Q = basis[:, :k]
    nrm = np.linalg.norm(Ad, 2)
    assert np.array_equal(J, J.T)
    assert np.abs(J - Q.T @ Ad @ Q).max() <= 1e-10 * nrm
    ar = arnoldi_run(A, V, poles, len(poles))
    Qo, Jo = ar.Q[:, :k], ar.J_m
    assert Jo.shape == J.shape
    M = Qo.T @ Q
    assert np.abs(M.T @ Jo @ M - J).max() <= 1e-9 * nrm


@pytest.fixture
def solve_columns(monkeypatch):
    """Right-hand-side columns of every shifted solve, in call order."""
    cols = []
    solve = ShiftedFactorization.solve

    def counting(self, B):
        cols.append(1 if np.ndim(B) == 1 else np.shape(B)[1])
        return solve(self, B)

    monkeypatch.setattr(ShiftedFactorization, "solve", counting)
    return cols


class FactorReads:
    """Stands in for the ``scipy.sparse.linalg`` module that
    ``ratlanczos.shifts`` calls.  Its ``splu`` factors as SciPy does and
    counts in ``count`` the reads of the factor's ``L`` and ``U``, which
    make SciPy build CSC copies of both and keep them on the factor;
    ``factors`` holds every factor it made.  ``spilu``, which computes
    the fill ordering, is SciPy's."""

    spilu = staticmethod(spla.spilu)

    def __init__(self):
        self.count = 0
        self.factors = []

    def splu(self, *args, **kwargs):
        lu = _ReadCountingLU(self, spla.splu(*args, **kwargs))
        self.factors.append(lu)
        return lu


class _ReadCountingLU:
    def __init__(self, reads, lu):
        self._reads = reads
        self._lu = lu

    def __getattr__(self, name):
        if name in ("L", "U"):
            self._reads.count += 1
        return getattr(self._lu, name)


@pytest.fixture
def factor_reads(monkeypatch):
    """A ``FactorReads`` in place of ``shifts.spla`` for the test."""
    reads = FactorReads()
    monkeypatch.setattr(shifts_mod, "spla", reads)
    return reads


class Factorizations(list):
    """(pole value, weak reference to the factor) of every call of
    ``shifts.shifted_factorize``, in call order."""

    def alive(self):
        """Poles whose factor is still referenced somewhere."""
        return [xi for xi, ref in self if ref() is not None]


@pytest.fixture
def factorizations(monkeypatch):
    """A ``Factorizations`` record filled by a wrapper around
    ``shifts.shifted_factorize``, which the cache looks up at call time."""
    made = Factorizations()
    factorize = shifts_mod.shifted_factorize

    def recording(A, xi):
        F = factorize(A, xi)
        made.append((xi.value, weakref.ref(F)))
        return F

    monkeypatch.setattr(shifts_mod, "shifted_factorize", recording)
    return made


def belady_count(poles, k, steps=None):
    """Factorizations over the first ``steps`` poles (all by default) of a
    cache that keeps at most k finite poles and, when full, drops the one
    whose next use in ``poles`` is farthest ahead.  Infinite poles are
    factored once and kept."""
    poles = [float(x) for x in poles]
    resident, count = set(), 0
    for i in range(len(poles) if steps is None else steps):
        x = poles[i]
        if x in resident:
            continue
        count += 1
        finite = [y for y in resident if np.isfinite(y)]
        if np.isfinite(x) and len(finite) == k:
            rest = poles[i + 1:]
            resident.remove(max(finite, key=lambda y: rest.index(y) if y in rest
                                else len(rest)))
        resident.add(x)
    return count


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
