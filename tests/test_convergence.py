"""The termination contract the pipelines share through one convergence
loop: a run ends on its stopping rule (converged), on a lucky breakdown
(converged, see test_breakdown_pipelines.py) or on its step budget (not
converged), and its history holds one entry per step taken."""

import numpy as np
import pytest

from ratlanczos import (FormRequest, LqrResult, LtiSystem, ParametricIO,
                        bilinear_form, block_quad_form, h2_norm, h2_norm_arnoldi,
                        h2_param_norm, lqr_reduce, lqr_reduce_arnoldi,
                        quad_form, quad_form_arnoldi)
from ratlanczos.cli import lqr_system

from conftest import rand_sym

N = 100


def _system(rng):
    A, _ = rand_sym(rng, N, -10.0, -0.5)
    return LtiSystem(A=A, B=rng.standard_normal((N, 1)),
                     C=rng.standard_normal((1, N)), R=np.array([[1.0]]),
                     x0=rng.standard_normal(N))


def _param_io(sys_):
    return ParametricIO(B1=sys_.B, B2=np.roll(sys_.B, 1), C1=sys_.C,
                        C2=np.roll(sys_.C, 1), b=lambda mu: [[mu]],
                        c=lambda mu: [[mu]], nodes=[0.0, 1.0],
                        weights=[0.5, 0.5])


def _operator(rng):
    A, _ = rand_sym(rng, N, 1.0, 10.0)
    return A


def _req(tol, max_m, strategy="quadratic"):
    return FormRequest(f="sqrt", strategy=strategy, tol=tol, s=1, max_m=max_m)


#: pipeline name -> (rng, tol, max_m) -> result
PIPELINES = {
    "quad_form": lambda rng, tol, max_m: quad_form(
        _operator(rng), rng.standard_normal(N), req=_req(tol, max_m)),
    "bilinear_form-oblique": lambda rng, tol, max_m: bilinear_form(
        _operator(rng), rng.standard_normal(N), rng.standard_normal(N),
        req=_req(tol, max_m, "oblique")),
    "block_quad_form": lambda rng, tol, max_m: block_quad_form(
        _operator(rng), rng.standard_normal((N, 2)), req=_req(tol, max_m)),
    "quad_form_arnoldi": lambda rng, tol, max_m: quad_form_arnoldi(
        _operator(rng), rng.standard_normal(N), req=_req(tol, max_m)),
    "h2_norm": lambda rng, tol, max_m: h2_norm(
        _system(rng), tol=tol, s=1, max_m=max_m),
    "h2_param_norm": lambda rng, tol, max_m: (lambda sys_: h2_param_norm(
        sys_.A, _param_io(sys_), tol=tol, s=1, max_m=max_m))(_system(rng)),
    "lqr_reduce": lambda rng, tol, max_m: lqr_reduce(
        _system(rng), tol=tol, s=1, max_m=max_m),
}


def _history(res):
    return res.metric_history if isinstance(res, LqrResult) else res.history


def _converged(res, max_m):
    # a BilinearResult reports no flag; only its step count tells whether
    # the run stopped before its budget
    if hasattr(res, "converged"):
        return res.converged
    return res.iterations < max_m


@pytest.mark.parametrize("name", PIPELINES)
def test_termination_contract(rng, name):
    pipeline = PIPELINES[name]

    # the budget ends long before a 1e-30 rule could fire
    res = pipeline(rng, 1e-30, 3)
    assert res.iterations == 3 and len(_history(res)) == 3
    assert _converged(res, 3) is False

    # the rule fires well before the budget (and before N steps could
    # make the subspace invariant)
    res = pipeline(rng, 1e-6, 30)
    assert 1 < res.iterations < 30 and len(_history(res)) == res.iterations
    assert _converged(res, 30) is True
    if hasattr(res, "termination"):
        assert res.termination == "converged"


def _lqr_zero_output(sys_, s):
    sys_.C = np.zeros_like(sys_.C)
    return lqr_reduce(sys_, s=s)


@pytest.mark.parametrize("s", [0, -1])
@pytest.mark.parametrize("pipeline", [
    h2_norm, h2_norm_arnoldi,
    lambda sys_, s: h2_param_norm(sys_.A, _param_io(sys_), s=s),
    lqr_reduce, lqr_reduce_arnoldi, _lqr_zero_output,
], ids=["h2_norm", "h2_norm_arnoldi", "h2_param_norm", "lqr_reduce",
        "lqr_reduce_arnoldi", "lqr_reduce-zero-output"])
def test_control_pipelines_reject_nonpositive_lag(pipeline, s,
                                                  factorizations):
    # at s = 0 the lag-s rule compares an iterate with itself and stopped
    # every run after one step as converged; the lag is refused before any
    # factorization, and before lqr's zero-output shortcut
    with pytest.raises(ValueError, match="stopping lag"):
        pipeline(lqr_system(30), s=s)
    assert not factorizations
