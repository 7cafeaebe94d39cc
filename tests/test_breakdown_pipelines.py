"""Pipelines that end in a lucky breakdown, and the full-basis twins on
the same inputs.

The runners call the pipeline callback once more on the breakdown step,
so every history ends with exactly one entry per step and its last value
comes from the final, exact projection.
"""

import numpy as np
import pytest
import scipy.linalg as sla

from ratlanczos import (FormRequest, LtiSystem, ShiftSequence, SparseSym,
                        StabilityError, TraceRequest, block_quad_form,
                        eval_control, h2_norm, h2_norm_arnoldi,
                        hutchinson_trace, hutchinson_trace_arnoldi, lqr_reduce,
                        lqr_reduce_arnoldi, quad_form, rademacher_block)
from ratlanczos.lanczos import TERM_LUCKY_BREAKDOWN

from conftest import rand_sym

LAM = np.arange(1.0, 7.0)


def _unit(*idx):
    e = np.zeros(LAM.size)
    e[list(idx)] = 1.0
    return e


def _spd():
    return SparseSym.from_dense(np.diag(LAM), definiteness_hint="positive")


def _stable_system():
    """-diag(1..6) observed through e_0 + e_1: the seed spans an invariant
    subspace of dimension 2."""
    A = SparseSym.from_dense(-np.diag(LAM), definiteness_hint="negative")
    return LtiSystem(A=A, B=np.ones((LAM.size, 1)), C=_unit(0, 1)[None, :],
                     R=np.array([[1.0]]), x0=np.linspace(1.0, 2.0, LAM.size))


def test_quad_form_eigenvector_combination_is_exact():
    v = _unit(0) + 2.0 * _unit(3)
    req = FormRequest(f="exp", tol=1e-14, s=1, max_m=5)
    res = quad_form(_spd(), v, ShiftSequence.cycled([-1.0, -3.0], 5), req)
    assert res.termination == TERM_LUCKY_BREAKDOWN and res.converged
    assert res.iterations == 2
    assert len(res.history) == res.iterations
    assert len(res.residual_bounds) == res.iterations
    assert res.residual_bounds[-1] == 0.0
    exact = np.exp(1.0) + 4.0 * np.exp(4.0)
    assert abs(res.value - exact) <= 1e-13 * exact


def test_block_quad_form_invariant_start_block_is_exact():
    V = np.column_stack([_unit(0, 2), _unit(1, 3)])
    req = FormRequest(f="exp", tol=1e-14, s=1, max_m=5)
    res = block_quad_form(_spd(), V, ShiftSequence.cycled([-1.0, -3.0], 5), req)
    assert res.termination == TERM_LUCKY_BREAKDOWN and res.converged
    assert res.iterations == 2
    assert len(res.history) == res.iterations
    exact = V.T @ np.diag(np.exp(LAM)) @ V
    assert np.abs(res.value - exact).max() <= 1e-12 * np.abs(exact).max()


def test_h2_norm_invariant_seed_is_exact():
    sys_ = _stable_system()
    res = h2_norm(sys_, ShiftSequence.cycled([1.0, 3.0], 5), tol=1e-14, s=1,
                  max_m=5)
    assert res.block.termination == TERM_LUCKY_BREAKDOWN and res.converged
    assert res.iterations == 2
    assert len(res.history) == res.iterations
    Ad = -np.diag(LAM)
    P = sla.solve_continuous_lyapunov(Ad.T, -(sys_.C.T @ sys_.C))
    exact = float(np.sqrt(np.trace(sys_.B.T @ P @ sys_.B)))
    assert abs(res.norm - exact) <= 1e-13 * exact


def test_trace_twin_matches_on_filled_space(rng):
    # blocks of 2 probes fill the 6-dimensional space at the third step
    A, Ad = rand_sym(rng, LAM.size, 1.0, 6.0)
    req = TraceRequest(f="exp", num_probes=4, block_size=2, seed=5,
                       shifts=ShiftSequence.cycled([-1.0, -3.0], 6), tol=1e-14,
                       s=1, max_m=6)
    short = hutchinson_trace(A, req)
    twin = hutchinson_trace_arnoldi(A, req)
    assert short.converged and twin.converged
    # the twin counts completed expansions: the breakdown step is not one
    assert short.iterations == 3 and twin.iterations == 2
    Z = rademacher_block(LAM.size, 5, 0, 4)
    lam, U = np.linalg.eigh(Ad)
    exact = np.sum((U.T @ Z) ** 2 * np.exp(lam)[:, None], axis=0)
    scale = np.abs(exact).max()
    assert np.abs(short.samples - exact).max() <= 1e-12 * scale
    assert np.abs(twin.samples - exact).max() <= 1e-12 * scale
    assert len(short.history) == len(twin.history) == 3
    assert np.abs(short.history - twin.history).max() <= 1e-12 * scale


def test_h2_twin_matches_on_invariant_seed():
    sys_ = _stable_system()
    sh = ShiftSequence.cycled([1.0, 3.0], 5)
    short = h2_norm(sys_, sh, tol=1e-14, s=1, max_m=5)
    twin = h2_norm_arnoldi(sys_, sh, tol=1e-14, s=1, max_m=5)
    assert twin.method == "arnoldi" and twin.converged
    assert twin.block.termination == TERM_LUCKY_BREAKDOWN
    assert len(twin.history) == len(short.history) == 2
    assert np.abs(twin.history - short.history).max() <= 1e-13 * short.norm


def test_lqr_twin_matches_on_invariant_seed():
    sys_ = _stable_system()
    sh = ShiftSequence.cycled([1.0, 3.0], 5)
    short = lqr_reduce(sys_, sh, tol=1e-14, s=1, max_m=5)
    twin = lqr_reduce_arnoldi(sys_, sh, tol=1e-14, s=1, max_m=5)
    assert short.block.termination == TERM_LUCKY_BREAKDOWN
    assert twin.block.termination == TERM_LUCKY_BREAKDOWN
    assert short.converged and twin.converged and twin.method == "arnoldi"
    assert len(short.metric_history) == short.iterations == 2
    # the breakdown step is numbered like the short recurrence's, so the
    # twin compares it with its predecessor as well
    assert np.isnan(twin.metric_history[0])
    assert np.all(np.isfinite(twin.metric_history[1:]))
    assert twin.metric_history.shape == short.metric_history.shape
    for t in (0.0, 0.1, 1.0):
        uS = eval_control(short.controller, t)
        uT = eval_control(twin.controller, t)
        assert np.abs(uS - uT).max() <= 1e-10 * np.abs(uS).max()


@pytest.mark.parametrize("twin", [h2_norm_arnoldi, lqr_reduce_arnoldi])
def test_control_twins_screen_stability(twin):
    A = SparseSym.from_dense(np.diag(LAM), definiteness_hint="positive")
    sys_ = LtiSystem(A=A, B=np.ones((LAM.size, 1)), C=_unit(0)[None, :],
                     R=np.array([[1.0]]), x0=np.ones(LAM.size))
    with pytest.warns(UserWarning, match="unstable"):
        with pytest.raises(StabilityError):
            twin(sys_, ShiftSequence.cycled([-1.0], 3), max_m=3)
