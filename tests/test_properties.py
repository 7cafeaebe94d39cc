"""Randomized invariants of the short recurrences on pole lists that mix
infinite, repeated and distinct finite poles (hypothesis, derandomized)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ratlanczos import RatLanczosError, SparseSym, block_run, run  # noqa: E402


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
    A = SparseSym.from_dense(Ad, definiteness_hint="positive")
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
