import itertools
from dataclasses import replace

import numpy as np
import pytest

import ratlanczos.shifts as shifts_mod
from ratlanczos import (BlockFormResult, FactorizationCache, FormRequest,
                        FormResult, OperatorMismatchError, RankDeficiencyError,
                        ShiftSequence, SparseSym, TraceRequest, arnoldi_run,
                        bilinear_form, block_quad_form, block_run,
                        default_shifts, gp_precision_matrix, hutchinson_trace,
                        init_state, lanczos_step, logdet, norm_estimate,
                        quad_form, quad_form_arnoldi, rademacher_block,
                        residual_bound, run)
from ratlanczos.dense import matfun_action_e1
from ratlanczos.problems import (gen_laplacian2d, gen_strakos, gp_points,
                                 strakos_eigenvalues)

from conftest import (belady_count, dense_matfun_oracle, pole_polynomial,
                      rand_shifts, rand_sym)


# ---------------------------------------------------------------------------
# quadratic forms

def test_identity_function_first_iterate_exact(rng):
    A, Ad = rand_sym(rng, 20, 1.0, 6.0)
    v = rng.standard_normal(20)
    req = FormRequest(f=lambda x: x, tol=1e-15, s=1, max_m=3)
    res = quad_form(A, v, rand_shifts(rng, 3, 1.0, 6.0), req)
    assert abs(res.history[0] - v @ Ad @ v) <= 1e-12 * abs(v @ Ad @ v)


def test_eigenvector_start_is_exact_after_one_step():
    A = SparseSym.from_dense(np.diag([1.0, 4.0, 9.0]))
    v = np.array([0.0, 1.0, 0.0])
    req = FormRequest(f="sqrt", tol=1e-12, s=1, max_m=5)
    res = quad_form(A, v, ShiftSequence.cycled([-2.0], 5), req)
    assert res.iterations == 1
    assert res.converged
    assert abs(res.value - 2.0) <= 1e-14


def test_quad_form_against_dense_oracle(rng):
    n, mmax = 80, 30
    A, Ad = rand_sym(rng, n, 0.5, 40.0)
    v = rng.standard_normal(n)
    req = FormRequest(f="inv", tol=1e-13, s=2, max_m=mmax)
    res = quad_form(A, v, ShiftSequence.cycled([-0.7, -5.0, -30.0], mmax), req)
    oracle = v @ np.linalg.solve(Ad, v)
    assert abs(res.value - oracle) <= 1e-9 * abs(oracle)
    assert res.history.shape[0] == res.iterations


def test_strakos_sqrt_form(rng):
    n = 400
    A = gen_strakos(n, 0.01, 100.0, 0.45)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    req = FormRequest(f="sqrt", tol=1e-12, s=2, max_m=40)
    res = quad_form(A, v, None, req)
    lam = strakos_eigenvalues(n, 0.01, 100.0, 0.45)
    oracle = float(np.sum(v ** 2 * np.sqrt(lam)))
    assert abs(res.value - oracle) <= 1e-9


def test_domain_error_propagates(rng):
    # indefinite spectrum: log is undefined on part of it
    A, _ = rand_sym(rng, 12, -0.5, 2.0)
    v = rng.standard_normal(12)
    req = FormRequest(f="log", tol=1e-10, s=1, max_m=6)
    with pytest.raises(Exception, match="undefined"):
        quad_form(A, v, ShiftSequence.cycled([-5.0], 6), req)


def test_form_request_validation():
    with pytest.raises(ValueError):
        FormRequest(tol=0.0)
    with pytest.raises(ValueError):
        FormRequest(s=5, max_m=5)
    with pytest.raises(ValueError):
        FormRequest(strategy="magic")
    with pytest.raises(ValueError):
        FormRequest(stopping_rule="never")


# ---------------------------------------------------------------------------
# residual bound

def _run_with_bounds(A, Ad, v, shifts, m, f="exp"):
    normA = 1.05 * norm_estimate(A)
    cache = FactorizationCache(A)
    st = init_state(A, v, m, retain_basis=True)
    bounds, trues = [], []
    for k in range(m):
        lanczos_step(A, st, shifts[k], factorization=cache.get(shifts[k]))
        bounds.append(residual_bound(st, f, 1.0, normA))
        w = matfun_action_e1(st.J_view, f)
        Qj = st.basis[:, :st.j]
        y = Qj @ w
        trues.append(np.linalg.norm(Ad @ y - Qj @ (st.J_view @ w)))
    return np.array(bounds), np.array(trues)


def test_residual_bound_dominates_true_residual(rng):
    A, Ad = rand_sym(rng, 60, -20.0, -0.5)
    v = rng.standard_normal(60)
    sh = ShiftSequence.cycled([1.0, 8.0, 18.0], 15)
    bounds, trues = _run_with_bounds(A, Ad, v, sh, 15)
    assert np.all(bounds >= trues * (1.0 - 1e-12))
    # both sequences head downward overall
    assert bounds[-1] < bounds[0] and trues[-1] < trues[0]


def test_residual_bound_zero_at_breakdown():
    A = SparseSym.from_dense(np.diag([-1.0, -2.0]))
    st = init_state(A, np.array([1.0, 0.0]), 2)
    from ratlanczos.shifts import Shift
    lanczos_step(A, st, Shift(1.0))
    assert st.breakdown == 1
    assert residual_bound(st, "exp", 1.0, 2.0) == 0.0


# ---------------------------------------------------------------------------
# bilinear strategies

def test_strategies_agree_for_equal_vectors(rng):
    A, Ad = rand_sym(rng, 40, 1.0, 10.0)
    v = rng.standard_normal(40)
    sh = ShiftSequence.cycled([-1.5, -8.0], 20)
    req = FormRequest(f="exp", tol=1e-12, s=1, max_m=20)
    base = quad_form(A, v, sh, req)
    pol = bilinear_form(A, v.copy(), v, sh,
                        FormRequest(f="exp", strategy="polarization",
                                    tol=1e-12, s=1, max_m=20))
    obl = bilinear_form(A, v.copy(), v, sh,
                        FormRequest(f="exp", strategy="oblique",
                                    tol=1e-12, s=1, max_m=20))
    assert abs(pol.value - base.value) <= 1e-12 * abs(base.value)
    assert abs(obl.value - base.value) <= 1e-12 * abs(base.value)
    with pytest.raises(RankDeficiencyError, match="quadratic"):
        bilinear_form(A, v.copy(), v, sh,
                      FormRequest(f="exp", strategy="block2x2",
                                  tol=1e-12, s=1, max_m=20))


def test_orthogonal_eigenvectors_give_zero():
    A = SparseSym.from_dense(np.diag([1.0, 2.0]))
    u = np.array([1.0, 0.0])
    v = np.array([0.0, 1.0])
    sh = ShiftSequence.cycled([-3.0], 4)
    for strategy in ("polarization", "oblique", "block2x2"):
        req = FormRequest(f=lambda x: x, strategy=strategy, tol=1e-10, s=1,
                          max_m=4)
        res = bilinear_form(A, u, v, sh, req)
        assert abs(res.value) <= 1e-13


def test_strategies_match_dense_oracle(rng):
    n = 80
    A, Ad = rand_sym(rng, n, 1.0, 4.0)
    u = rng.standard_normal(n)
    v = rng.standard_normal(n)
    oracle = u @ np.linalg.solve(Ad, v)
    sh = ShiftSequence.cycled([-1.3, -2.6], 12)
    for strategy in ("polarization", "oblique", "block2x2"):
        req = FormRequest(f="inv", strategy=strategy, tol=1e-13, s=1, max_m=12)
        res = bilinear_form(A, u, v, sh, req)
        assert abs(res.value - oracle) <= 1e-8 * max(abs(oracle), 1.0), strategy


def test_quadratic_strategy_requires_equal_vectors(rng):
    A, _ = rand_sym(rng, 10, 1.0, 4.0)
    with pytest.raises(ValueError):
        bilinear_form(A, np.ones(10), np.arange(10.0), None,
                      FormRequest(strategy="quadratic"))


# ---------------------------------------------------------------------------
# block forms

def test_block_form_eigenvector_block_exact():
    A = SparseSym.from_dense(np.diag([1.0, 2.0, 3.0, 4.0]))
    V = np.zeros((4, 2))
    V[1, 0] = 1.0
    V[3, 1] = 1.0
    req = FormRequest(f="sqrt", tol=1e-12, s=1, max_m=4)
    res = block_quad_form(A, V, ShiftSequence.cycled([-1.0], 4), req)
    assert np.allclose(res.value, np.diag(np.sqrt([2.0, 4.0])), atol=1e-13)
    assert res.converged


def test_block_form_width_one_equals_quadratic(rng):
    A, Ad = rand_sym(rng, 30, 1.0, 8.0)
    v = 1.7 * rng.standard_normal(30)
    sh = ShiftSequence.cycled([-2.0, -6.0], 10)
    req = FormRequest(f="exp", tol=1e-12, s=1, max_m=10)
    blk = block_quad_form(A, v.reshape(-1, 1), sh, req)
    quad = quad_form(A, v, sh, req)
    assert abs(blk.value[0, 0] - quad.value) <= 1e-11 * abs(quad.value)


def test_block_form_against_dense_oracle(rng):
    n, p = 100, 3
    A, Ad = rand_sym(rng, n, 0.2, 6.0)
    V = rng.standard_normal((n, p))
    req = FormRequest(f="exp", tol=1e-12, s=1, max_m=25)
    res = block_quad_form(A, V, ShiftSequence.cycled([-0.5, -2.0, -5.0], 25), req)
    oracle = V.T @ dense_matfun_oracle(Ad, "exp") @ V
    assert np.abs(res.value - oracle).max() <= 1e-8 * np.abs(oracle).max()


# ---------------------------------------------------------------------------
# exactness along the subspace

def test_rational_function_action_exact(rng):
    n, m = 50, 6
    A, Ad = rand_sym(rng, n, 1.0, 10.0)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    sh = rand_shifts(rng, m, 1.0, 10.0)
    res = run(A, v, sh, m, retain_basis=True)
    lamA, VA = np.linalg.eigh(Ad)
    lamJ, VJ = np.linalg.eigh(res.J)
    for _ in range(5):
        coef = rng.standard_normal(m)      # degree <= m - 1
        fA = np.polyval(coef, lamA) / pole_polynomial(lamA, res.shifts, m)
        fJ = np.polyval(coef, lamJ) / pole_polynomial(lamJ, res.shifts, m)
        lhs = VA @ (fA * (VA.T @ v))
        rhs = res.basis[:, :m] @ (VJ @ (fJ * VJ[0, :]))
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * max(np.linalg.norm(lhs), 1.0)


def test_moment_matching(rng):
    for _ in range(10):
        n = int(rng.integers(20, 60))
        m = int(rng.integers(2, 6))
        A, Ad = rand_sym(rng, n, 0.5, 10.0)
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        sh = rand_shifts(rng, m, 0.5, 10.0)
        res = run(A, v, sh, m)
        lamA, VA = np.linalg.eigh(Ad)
        lamJ, VJ = np.linalg.eigh(res.J)
        w2A = (VA.T @ v) ** 2
        for _ in range(5):
            coef = rng.standard_normal(2 * m)   # degree <= 2m - 1
            qA = pole_polynomial(lamA, res.shifts, m)
            qJ = pole_polynomial(lamJ, res.shifts, m)
            lhs = float(np.sum(w2A * np.polyval(coef, lamA) / qA ** 2))
            rhs = float(np.sum(VJ[0, :] ** 2 * np.polyval(coef, lamJ) / qJ ** 2))
            assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), 1e-30)


# ---------------------------------------------------------------------------
# stochastic traces

def test_exhaustive_rademacher_ensemble_is_exact(rng):
    n = 4
    A, Ad = rand_sym(rng, n, 0.5, 3.0)
    FA = dense_matfun_oracle(Ad, "exp")
    tr_exact = np.trace(FA)
    req = FormRequest(f="exp", tol=1e-13, s=1, max_m=n + 1)
    vals = []
    for signs in itertools.product([-1.0, 1.0], repeat=n):
        z = np.array(signs)
        res = block_quad_form(A, z.reshape(-1, 1),
                              ShiftSequence.cycled([-1.0, -2.5], n + 1), req)
        vals.append(res.value[0, 0])
    assert abs(np.mean(vals) - tr_exact) <= 1e-12 * abs(tr_exact)


def test_exhaustive_identity_trace(rng):
    n = 4
    A, Ad = rand_sym(rng, n, 0.5, 3.0)
    vals = [z @ Ad @ z for signs in itertools.product([-1.0, 1.0], repeat=n)
            for z in [np.array(signs)]]
    assert abs(np.mean(vals) - np.trace(Ad)) <= 1e-12 * abs(np.trace(Ad))


def test_hutchinson_samples_match_direct_forms(rng):
    n = 40
    A, Ad = rand_sym(rng, n, 0.5, 5.0)
    req = TraceRequest(f="exp", num_probes=5, block_size=2, seed=42,
                       shifts=ShiftSequence.cycled([-1.0, -3.0], 30),
                       tol=1e-12, s=1, max_m=30)
    tr = hutchinson_trace(A, req)
    FA = dense_matfun_oracle(Ad, "exp")
    Z = rademacher_block(n, 42, 0, 5)
    direct = np.array([Z[:, k] @ FA @ Z[:, k] for k in range(5)])
    assert np.abs(tr.samples - direct).max() <= 1e-8 * np.abs(direct).max()
    assert abs(tr.estimate - direct.mean()) <= 1e-8 * abs(direct.mean())
    assert tr.stderr == pytest.approx(np.std(direct, ddof=1) / np.sqrt(5), rel=1e-6)


def test_trace_methods_agree():
    # the two subspace methods see the same projections, so the probe
    # estimates and iteration counts coincide
    pts = gp_points(400, seed=7)
    A = gp_precision_matrix(pts, phi=20.0, delta=0.04)
    req = TraceRequest(f="log", num_probes=8, block_size=4, seed=3,
                       tol=1e-8, s=1, max_m=25)
    t1 = hutchinson_trace(A, req)
    from ratlanczos import hutchinson_trace_arnoldi
    t2 = hutchinson_trace_arnoldi(A, req)
    assert t1.iterations == t2.iterations
    assert np.abs(t1.samples - t2.samples).max() <= 1e-9
    assert abs(t1.estimate - t2.estimate) <= 1e-9


def test_probe_stream_reproducible():
    Z1 = rademacher_block(50, 9, 0, 4)
    Z2 = rademacher_block(50, 9, 0, 4)
    assert np.array_equal(Z1, Z2)
    # probe i is independent of how the stream is chunked
    Z3 = rademacher_block(50, 9, 2, 2)
    assert np.array_equal(Z1[:, 2:], Z3)
    assert set(np.unique(Z1)) <= {-1.0, 1.0}


def test_logdet_identity_and_diagonal():
    A = SparseSym.from_dense(np.eye(6))
    req = TraceRequest(f="log", num_probes=4, block_size=2, seed=1,
                       shifts=ShiftSequence.cycled([-1.0], 8), tol=1e-12,
                       s=1, max_m=8)
    res = logdet(A, req)
    assert abs(res.logdet) <= 1e-12

    D = SparseSym.from_dense(np.diag([2.0, 4.0]))
    req = TraceRequest(f="log", num_probes=4, block_size=1, seed=1,
                       shifts=ShiftSequence.cycled([-1.0], 3), tol=1e-12,
                       s=1, max_m=3)
    res = logdet(D, req)
    # every +-1 probe gives exactly log 8 on a diagonal matrix
    assert abs(res.logdet - np.log(8.0)) <= 1e-12


def test_logdet_gp_matrix_within_noise(rng):
    pts = gp_points(200, seed=5)
    A = gp_precision_matrix(pts, phi=20.0, delta=0.05)
    req = TraceRequest(f="log", num_probes=30, block_size=10, seed=2,
                       tol=1e-9, s=1, max_m=30)
    x = rng.standard_normal(200)
    res = logdet(A, req, x=x)
    lam = np.linalg.eigvalsh(A.to_dense())
    exact = float(np.sum(np.log(lam)))
    assert abs(res.logdet - exact) <= 3.0 * res.stderr
    expected_ll = 0.5 * res.logdet - 0.5 * x @ A.matvec(x) \
        - 0.5 * 200 * np.log(2 * np.pi)
    assert res.loglik == pytest.approx(expected_ll, rel=1e-12)


# ---------------------------------------------------------------------------
# GP precision matrices

def test_gp_two_far_points_identity():
    pts = np.array([[0.0, 0.0], [0.5, 0.0]])
    A = gp_precision_matrix(pts, phi=20.0, delta=0.3)
    assert np.array_equal(A.to_dense(), np.eye(2))


def test_gp_two_close_points():
    pts = np.array([[0.0, 0.0], [0.05, 0.0]])
    A = gp_precision_matrix(pts, phi=20.0, delta=0.1)
    assert np.allclose(A.to_dense(), [[11.0, -10.0], [-10.0, 11.0]], atol=1e-12)


def test_gp_density_scale():
    pts = gp_points(1000, seed=7)
    A = gp_precision_matrix(pts, phi=20.0, delta=0.02)
    assert 1800 <= A.nnz <= 2900
    assert np.all(default_shifts(A, 12).values() < 0.0)
    lam_min = np.linalg.eigvalsh(A.to_dense()).min()
    assert lam_min >= 1.0 - 1e-10


def test_import_leaves_kd_tree_unloaded():
    # only gp_precision_matrix needs scipy.spatial, which costs about
    # 100 ms and 7.5 MB to import, so it loads it when called
    import os
    import subprocess
    import sys
    from pathlib import Path

    import ratlanczos
    src = str(Path(ratlanczos.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, ratlanczos; "
            "print('scipy.spatial' in sys.modules, 'scipy.sparse' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out == ["False", "True"]


def test_gp_validation():
    with pytest.raises(ValueError):
        gp_precision_matrix(np.zeros((3, 2)), phi=-1.0, delta=0.1)


# ---------------------------------------------------------------------------
# the power iterate and default poles shared through a solver cache

def _strakos(n=200):
    return gen_strakos(n, 0.01, 100.0, 0.45)


def _gp():
    return gp_precision_matrix(gp_points(300, 2), phi=20.0, delta=0.1)


@pytest.fixture
def power_calls(monkeypatch):
    """Calls of ``power_iteration`` and of the pole sign's Rayleigh
    quotient, counted on the names the cache looks up in
    ``ratlanczos.shifts``."""
    calls = {"power_iteration": 0, "_pole_sign": 0}

    def count(name):
        fn = getattr(shifts_mod, name)

        def counting(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(shifts_mod, name, counting)

    count("power_iteration")
    count("_pole_sign")
    return calls


def test_warm_queries_run_one_power_iteration(power_calls, rng):
    A = _strakos()
    cache = FactorizationCache(A)
    req = FormRequest(f="sqrt", tol=1e-10, s=1, max_m=30)
    for _ in range(4):
        quad_form(A, rng.standard_normal(A.n), req=req, solver_cache=cache)
    u, v = rng.standard_normal((2, A.n))
    bilinear_form(A, u, v, req=replace(req, strategy="oblique"), solver_cache=cache)
    block_quad_form(A, np.column_stack([u, v]), req=req, solver_cache=cache)
    quad_form_arnoldi(A, v, req=req, solver_cache=cache)
    assert power_calls == {"power_iteration": 1, "_pole_sign": 1}
    for m in (17, 30):
        assert np.array_equal(cache.default_shifts(m).values(),
                              default_shifts(A, m).values())


def test_polarization_runs_one_power_iteration(power_calls, rng):
    # without a shared cache the two runs of a polarization share the
    # query's own one
    A = _strakos()
    u, v = rng.standard_normal((2, A.n))
    req = FormRequest(f="sqrt", tol=1e-10, s=1, max_m=30,
                      strategy="polarization")
    res = bilinear_form(A, u, v, req=req)
    assert res.parts["plus"] is not None and res.parts["minus"] is not None
    assert power_calls == {"power_iteration": 1, "_pole_sign": 1}


def _form_arrays(res):
    """Every number a form result reports, as a list of arrays."""
    if isinstance(res, FormResult):
        return [np.array(res.value), res.history, res.residual_bounds]
    if isinstance(res, BlockFormResult):
        return [res.value, np.array(res.history)]
    parts = [a for r in res.parts.values() if r is not None
             for a in _form_arrays(r)]
    history = [] if res.history is None else [res.history]
    return [np.array(res.value), *history, *parts]


QUERIES = {
    "quad_form": lambda A, u, v, req, c: quad_form(A, v, req=req, solver_cache=c),
    "oblique": lambda A, u, v, req, c: bilinear_form(
        A, u, v, req=replace(req, strategy="oblique",
                             stopping_rule="residual-bound"), solver_cache=c),
    "polarization": lambda A, u, v, req, c: bilinear_form(
        A, u, v, req=replace(req, strategy="polarization"), solver_cache=c),
    "block2x2": lambda A, u, v, req, c: bilinear_form(
        A, u, v, req=replace(req, strategy="block2x2"), solver_cache=c),
    "block_quad_form": lambda A, u, v, req, c: block_quad_form(
        A, np.column_stack([u, v]), req=req, solver_cache=c),
    "quad_form_arnoldi": lambda A, u, v, req, c: quad_form_arnoldi(
        A, v, req=req, solver_cache=c),
}


@pytest.mark.parametrize("make", [_strakos, _gp], ids=["strakos", "gp"])
@pytest.mark.parametrize("query", sorted(QUERIES))
def test_shared_cache_changes_no_bit(query, make, rng):
    # on the diagonal (Strakos) and dense (GP) paths, cold and warm queries
    # on a shared cache give what a query without one gives, bit for bit
    A = make()
    u, v = rng.standard_normal((2, A.n))
    req = FormRequest(f="sqrt", tol=1e-10, s=1, max_m=30)
    ask = QUERIES[query]
    alone = _form_arrays(ask(A, u, v, req, None))
    cache = FactorizationCache(A)
    for _ in range(2):
        shared = _form_arrays(ask(A, u, v, req, cache))
        assert len(shared) == len(alone)
        for x, y in zip(shared, alone):
            assert np.array_equal(x, y)


@pytest.mark.parametrize("query", sorted(QUERIES))
def test_shared_cache_on_iterated_poles_agrees_at_roundoff(query, rng):
    # a grid Laplacian's largest poles are iterated; the CG budget is the
    # cache's, so a warm query meets them at their factor where a query's
    # own cache iterates: the cold query keeps the bits, a warm one takes
    # as many steps and agrees in its value; the oblique strategy's
    # two-sided recurrence amplifies the solves' 1e-15 differences to
    # about 1e-9 relative, the symmetric queries stay near 1e-13
    A = SparseSym._from_scipy(-gen_laplacian2d(50).to_scipy())
    u, v = rng.standard_normal((2, A.n))
    req = FormRequest(f="sqrt", tol=1e-10, s=1, max_m=30)
    ask = QUERIES[query]
    alone = _form_arrays(ask(A, u, v, req, None))
    cache = FactorizationCache(A)
    cold = _form_arrays(ask(A, u, v, req, cache))
    for x, y in zip(cold, alone, strict=True):
        assert np.array_equal(x, y)
    warm = _form_arrays(ask(A, u, v, req, cache))
    assert [np.shape(x) for x in warm] == [np.shape(y) for y in alone]
    assert np.abs(warm[0] - alone[0]).max() <= 1e-8 * np.abs(alone[0]).max()
    assert cache.get(cache.default_shifts(1)[0]).method == "sparse-ldl"


def test_query_without_cache_keeps_one_factor(factorizations, rng):
    # a query's own cache keeps one finite factor, as the driver's own
    # does; the two runs of a polarization share it
    A, _ = rand_sym(rng, 40, 0.5, 2.0)
    poles = ShiftSequence.cycled([-0.5, -1.0, -1.0, -2.0, -4.0], 12)
    req = FormRequest(f="sqrt", tol=1e-300, s=1, max_m=12)
    res = quad_form(A, rng.standard_normal(A.n), poles, req)
    assert res.iterations == 12
    assert len(factorizations) == belady_count(poles.values(), 1) == 10
    factorizations.clear()
    u, v = rng.standard_normal((2, A.n))
    res = bilinear_form(A, u, v, poles, replace(req, strategy="polarization"))
    twice = np.concatenate([poles.values()] * 2)
    assert [r.iterations for r in res.parts.values()] == [12, 12]
    assert len(factorizations) == belady_count(twice, 1) == 20


def test_explicit_poles_bound_takes_cached_norm(power_calls, rng):
    A = _gp()
    v = rng.standard_normal(A.n)
    poles = ShiftSequence.cycled([-0.5, -5.0, -50.0], 30)
    req = FormRequest(f="sqrt", tol=1e-10, s=1, max_m=30,
                      stopping_rule="residual-bound")
    alone = quad_form(A, v, poles, req)
    # explicit poles need no pole sign
    assert power_calls == {"power_iteration": 1, "_pole_sign": 0}
    cache = FactorizationCache(A)
    for _ in range(2):
        res = quad_form(A, v, poles, req, solver_cache=cache)
        assert np.array_equal(res.residual_bounds, alone.residual_bounds)
        assert np.all(res.residual_bounds > 0.0)
    assert power_calls == {"power_iteration": 2, "_pole_sign": 0}


def test_warm_strakos_query_does_only_per_vector_work(no_superlu, monkeypatch):
    # the benchmark's Strakos query: once the shared cache is warm, a
    # query makes one matvec to start and one per step, no power
    # iteration and no SuperLU call
    A = gen_strakos(900, 0.01, 100, 0.45)
    vectors = np.random.default_rng(0).standard_normal((3, A.n))
    req = FormRequest(f="sqrt", tol=1e-10, s=1, max_m=40)
    cache = FactorizationCache(A)
    quad_form(A, vectors[0], req=req, solver_cache=cache)
    matvecs = []
    matvec = SparseSym.matvec

    def counting(self, x):
        matvecs.append(1)
        return matvec(self, x)

    monkeypatch.setattr(SparseSym, "matvec", counting)
    for v in vectors[1:]:
        matvecs.clear()
        res = quad_form(A, v, req=req, solver_cache=cache)
        assert res.termination == "converged"
        assert len(matvecs) == res.iterations + 1


# ---------------------------------------------------------------------------
# a solver cache built for another operator

MISMATCH_RUNNERS = {
    "run": lambda A, v, c: run(A, v, default_shifts(A, 3), 3, solver_cache=c),
    "block_run": lambda A, v, c: block_run(
        A, np.column_stack([v, np.roll(v, 1)]), default_shifts(A, 3), 3,
        solver_cache=c),
    "arnoldi_run": lambda A, v, c: arnoldi_run(A, v, default_shifts(A, 3), 3,
                                               solver_cache=c),
    "quad_form": lambda A, v, c: quad_form(A, v, solver_cache=c),
}


@pytest.mark.parametrize("runner", sorted(MISMATCH_RUNNERS))
def test_cache_of_another_operator_is_refused(runner, rng):
    A = gen_laplacian2d(5)
    other = _strakos(30)
    v = rng.standard_normal(A.n)
    with pytest.raises(OperatorMismatchError) as exc:
        MISMATCH_RUNNERS[runner](A, v, FactorizationCache(other))
    assert isinstance(exc.value, ValueError)
    msg = str(exc.value)
    assert f"n = {other.n}, nnz = {other.nnz}" in msg
    assert f"n = {A.n}, nnz = {A.nnz}" in msg
    # an equal copy is another operator too: its factors are not checked
    twin = SparseSym(A.n, A.row_ptr, A.col_idx, A.values)
    with pytest.raises(OperatorMismatchError):
        MISMATCH_RUNNERS[runner](A, v, FactorizationCache(twin))
    # the cache of the operator itself is accepted
    MISMATCH_RUNNERS[runner](A, v, FactorizationCache(A))
