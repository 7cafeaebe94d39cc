"""Randomized invariants (hypothesis, derandomized): the short
recurrences on pole lists that mix infinite, repeated and distinct finite
poles, the positive definiteness decision of ``shifted_factorize``, the
sign of the default poles, and bit-identical results from the driver's
bounded factor cache."""

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, event, given, settings, strategies as st  # noqa: E402

import ratlanczos.shifts as shifts_mod  # noqa: E402
from ratlanczos import (FactorizationCache, IndefiniteShiftError,  # noqa: E402
                        RatLanczosError, Shift, SparseSym, arnoldi_run,
                        block_run, default_shifts, run, shifted_factorize)

from conftest import FactorReads, belady_count  # noqa: E402


@st.composite
def instances(draw):
    """(n, p, log10 spectrum ends, per-step pole draws, seed).  A step
    draws ``inf``, ``repeat`` (the previous pole; inf on the first step,
    repeating xi_0 = inf) or the log10 magnitude of a new finite pole."""
    n = draw(st.integers(2, 40))
    m = draw(st.integers(1, 8))
    p = draw(st.sampled_from([1, 2]))
    lo = draw(st.floats(-2.0, 0.0))
    hi = draw(st.floats(0.0, 2.0))
    steps = draw(st.lists(
        st.one_of(st.just("inf"), st.just("repeat"), st.floats(lo - 1.0, hi + 1.0)),
        min_size=m, max_size=m))
    return n, p, lo, hi, steps, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=50, derandomize=True, deadline=None)
@given(instances())
def test_projection_invariants_on_mixed_poles(case):
    # J is exactly symmetric and equals the retained-basis projection up
    # to the basis's orthogonality loss; the only failures allowed are
    # typed ones (e.g. DeflationNeededError when p does not divide n)
    n, p, lo, hi, steps, seed = case
    rng = np.random.default_rng(seed)
    lam = 10.0 ** rng.uniform(lo, hi, n)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    Ad = (Q * lam) @ Q.T
    Ad = 0.5 * (Ad + Ad.T)
    A = SparseSym.from_dense(Ad)
    poles = []
    for s in steps:
        if s == "inf" or (s == "repeat" and not poles):
            poles.append(np.inf)
        elif s == "repeat":
            poles.append(poles[-1])
        else:
            poles.append(-10.0 ** s)
    V = rng.standard_normal((n, p))
    try:
        if p == 1:
            res = run(A, V[:, 0], poles, len(poles), retain_basis=True,
                      check_invariants=True)
        else:
            res = block_run(A, V, poles, len(poles), retain_basis=True,
                            check_invariants=True)
    except RatLanczosError:
        return
    J = res.J
    assert np.all(np.isfinite(J))
    assert np.array_equal(J, J.T)
    k = J.shape[0]
    B = res.basis[:, :k]
    orth = np.linalg.norm(np.eye(k) - B.T @ B, 2)
    nrm = np.linalg.norm(Ad, 2)
    assert np.abs(J - B.T @ Ad @ B).max() <= (1e-10 + 2.0 * orth) * nrm


@st.composite
def shifted_operators(draw):
    """(A as a dense array, pole).  A is symmetric with n to 3n random
    off-diagonal pairs of magnitude 0.5 to 1 and random sign, so at most
    7 stored entries per row on average and ``shifted_factorize`` takes
    the sparse path.  Its diagonal is free in [-2, 2], or of a drawn sign
    and either dominant or just large enough to make A definite (rarely
    dominant); the pole has either sign, drawn relative to the
    diagonal's."""
    n = draw(st.integers(2, 40))
    pairs = draw(st.integers(n, 3 * n))
    diagonal = draw(st.sampled_from(["free", "dominant", "definite"]))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    # the pole's sign opposite to the diagonal's, or the same
    pole_sign = -sign if draw(st.booleans()) else sign
    pole = pole_sign * 10.0 ** draw(st.floats(-1.0, 1.5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    i, j = rng.integers(0, n, (2, pairs))
    keep = i != j
    W = np.zeros((n, n))
    k = keep.sum()
    W[i[keep], j[keep]] = rng.choice([-1.0, 1.0], k) * rng.uniform(0.5, 1.0, k)
    W = W + W.T
    gap = rng.uniform(0.1, 2.0, n)
    if diagonal == "dominant":
        d = sign * (np.abs(W).sum(axis=1) + gap)
    elif diagonal == "definite":
        d = sign * (np.abs(np.linalg.eigvalsh(W)).max() + gap)
    else:
        d = rng.uniform(-2.0, 2.0, n)
    return W + np.diag(d), pole


@settings(max_examples=100, derandomize=True, deadline=None)
@given(shifted_operators())
def test_shifted_factorize_decides_definiteness(case):
    # a factor comes back exactly when I - A/xi is positive definite, and
    # IndefiniteShiftError is the only failure (no raw LinAlgError or
    # RuntimeError); a dominant diagonal of the sign opposite to the pole
    # is proved without reading L or U
    Ad, pole = case
    n = Ad.shape[0]
    M = np.eye(n) - Ad * (1.0 / pole)
    lam = np.linalg.eigvalsh(M)
    assume(abs(lam[0]) > 1e-8 * np.abs(lam).max())
    A = SparseSym.from_dense(Ad)
    reads = FactorReads()
    with mock.patch.object(shifts_mod, "spla", reads):
        try:
            F = shifted_factorize(A, Shift(pole))
        except IndefiniteShiftError:
            assert lam[0] < 0
            event("indefinite, read pivots" if reads.count else "indefinite, singular")
            return
    assert lam[0] > 0
    assert F.method == "sparse-ldl"
    b = np.ones(n)
    x = F.solve(b)
    assert np.linalg.norm(M @ x - b) <= 1e-10 * lam[-1] * np.linalg.norm(x)
    d = np.diag(Ad)
    if np.all(d * pole < 0) and np.all(np.abs(d) > np.abs(Ad).sum(axis=1) - np.abs(d)):
        assert reads.count == 0
    event("definite, read pivots" if reads.count else "definite, certificate")


@settings(max_examples=50, derandomize=True, deadline=None)
@given(st.integers(2, 40), st.sampled_from([-1.0, 1.0]), st.floats(0.0, 4.0),
       st.floats(-3.0, 3.0), st.integers(0, 2 ** 32 - 1))
def test_default_poles_oppose_a_definite_spectrum(n, sign, log_cond, log_scale,
                                                  seed):
    # the sign read from the power iterate's Rayleigh quotient is opposite
    # to every definite spectrum, so each distinct default pole factors
    rng = np.random.default_rng(seed)
    lam = sign * 10.0 ** (log_scale - rng.uniform(0.0, log_cond, n))
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    Ad = (Q * lam) @ Q.T
    A = SparseSym.from_dense(0.5 * (Ad + Ad.T))
    seq = default_shifts(A, 12)
    assert np.all(np.sign(seq.values()) == -sign)
    for xi in set(seq):
        shifted_factorize(A, xi)


@st.composite
def cycled_schedules(draw):
    """(n, p, log10 spectrum ends, poles, sparse, seed).  The poles cycle
    a period of at least two distinct finite poles, log-spaced
    in a drawn order, each used once or twice in a row and mixed with
    infinite ones, for at least two periods, so the driver's bounded
    cache must factor some pole again.  n leaves room for more than one
    period of steps, and p need not divide it; ``sparse`` sends the
    factorizations to SuperLU instead of dense Cholesky."""
    p = draw(st.sampled_from([1, 2, 3]))
    lo = draw(st.floats(-2.0, 0.0))
    hi = draw(st.floats(0.0, 2.0))
    mags = np.linspace(lo - 1.0, hi + 1.0, draw(st.integers(2, 5)))
    period = []
    for mag in draw(st.permutations(mags)):
        period += [-10.0 ** mag] * draw(st.integers(1, 2))
        if draw(st.booleans()):
            period.append(np.inf)
    n = draw(st.integers(p * (len(period) + 2), 60))
    m = len(period) * draw(st.integers(2, 3))
    poles = [period[i % len(period)] for i in range(m)]
    return n, p, lo, hi, poles, draw(st.booleans()), draw(st.integers(0, 2 ** 32 - 1))


def _run_or_error(runner, cache):
    try:
        return runner(cache)
    except RatLanczosError as exc:
        return type(exc)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(cycled_schedules())
def test_bounded_cache_is_bit_identical(case):
    # the driver's own cache refactors evicted poles; SuperLU and LAPACK
    # are deterministic, so J, the start block's factor and the side
    # projections equal those of a run on a caller's cache bit for bit,
    # for the scalar, block and Arnoldi runners alike.  Only typed errors
    # are allowed, and both caches must meet the same one
    n, p, lo, hi, poles, sparse, seed = case
    rng = np.random.default_rng(seed)
    lam = 10.0 ** rng.uniform(lo, hi, n)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    Ad = (Q * lam) @ Q.T
    A = SparseSym.from_dense(0.5 * (Ad + Ad.T))
    V = rng.standard_normal((n, p))
    U = rng.standard_normal((n, 2))
    m = len(poles)
    runners = {
        "block": lambda c: block_run(A, V, poles, m, side_matrix=U,
                                     solver_cache=c),
        "arnoldi": lambda c: arnoldi_run(A, V, poles, m, side_matrix=U,
                                         solver_cache=c),
    }
    if p == 1:
        runners["scalar"] = lambda c: run(A, V[:, 0], poles, m, side_matrix=U,
                                          solver_cache=c)
    cutoff = 0 if sparse else shifts_mod.DENSE_CUTOFF
    for name, runner in runners.items():
        with mock.patch.object(shifts_mod, "DENSE_CUTOFF", cutoff):
            bounded = _run_or_error(runner, None)
            shared = _run_or_error(runner, FactorizationCache(A))
        if isinstance(bounded, type):
            assert bounded is shared, name
            event(f"{name}: {bounded.__name__}")
            continue
        assert bounded.m == shared.m
        assert np.array_equal(bounded.J, shared.J), name
        assert np.array_equal(bounded.side_projections, shared.side_projections)
        if name == "scalar":
            assert bounded.norm_v == shared.norm_v
        else:
            assert np.array_equal(bounded.R0, shared.R0)
        refactored = (belady_count(poles, 1, bounded.m)
                      > belady_count(poles, m, bounded.m))
        event(f"{name}: {'refactored' if refactored else 'no refactor'}")
