"""Acceptance gate: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with -s) and asserts the
criterion.  Criterion 6's iteration window documents a regime that the
faithful stopping rule does not reproduce (measured alternatives are
recorded in the decisions ledger); its assertion is expected to fail.
"""

import json
import time
from pathlib import Path

import numpy as np

import ratlanczos as rl
from ratlanczos import (FactorizationCache, LtiSystem, ParametricIO,
                        ShiftSequence, SparseSym, TraceRequest)
from ratlanczos.cli import lqr_system, main as cli_main
from ratlanczos.dense import matfun_action_e1

from conftest import rand_shifts, rand_sym, reference_lanczos


def _report(num, title, ok, detail=""):
    print(f"\nACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {title}: {detail}")


# ---------------------------------------------------------------------------

def _log_uniform_instance(rng, n, span=1e4):
    """SPD instance with log-uniform spectrum: convergence (and hence
    short-recurrence orthogonality drift) stays mild through 25 steps, so
    the basis comparison remains meaningful."""
    lam = np.exp(rng.uniform(0.0, np.log(span), n))
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    Ad = (Q * lam) @ Q.T
    Ad = 0.5 * (Ad + Ad.T)
    return SparseSym.from_dense(Ad, definiteness_hint="positive"), Ad


def _log_uniform_shifts(rng, m, span=1e4):
    return ShiftSequence([-float(x) for x in
                          np.exp(rng.uniform(0.0, np.log(span), m))])


def test_criterion_1_basis_free_projection_correctness():
    """J from the short recurrence equals the explicit-basis projection."""
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst_scalar = 0.0
    for _ in range(100):
        n = int(rng.integers(30, 301))
        m = int(rng.integers(2, 26))
        A, Ad = _log_uniform_instance(rng, n)
        v = rng.standard_normal(n)
        res = rl.run(A, v, _log_uniform_shifts(rng, m), m, retain_basis=True)
        Q = res.basis[:, :res.m]
        err = np.abs(res.J - Q.T @ Ad @ Q).max() / np.linalg.norm(Ad, 2)
        worst_scalar = max(worst_scalar, err)

    worst_block = 0.0
    for _ in range(100):
        n = int(rng.integers(60, 301))
        p = int(rng.integers(1, 5))
        # total space dimension m p capped like the scalar depth
        mcap = max(2, min(25, 25 // p, n // p - 1))
        m = int(rng.integers(2, mcap + 1))
        A, Ad = _log_uniform_instance(rng, n)
        V = rng.standard_normal((n, p))
        res = rl.block_run(A, V, _log_uniform_shifts(rng, m), m,
                           retain_basis=True)
        Q = res.basis[:, :res.m * p]
        err = np.abs(res.J - Q.T @ Ad @ Q).max() / np.linalg.norm(Ad, 2)
        worst_block = max(worst_block, err)
    elapsed = time.perf_counter() - t0

    ok = worst_scalar <= 1e-10 and worst_block <= 1e-10 and elapsed < 30.0
    _report(1, "basis-free projection correctness", ok,
            f"scalar max rel err {worst_scalar:.2e}, block {worst_block:.2e}, "
            f"{elapsed:.1f} s")
    assert worst_scalar <= 1e-10
    assert worst_block <= 1e-10
    assert elapsed < 30.0


def test_criterion_2_moment_matching():
    """Rational quadrature exactness through polynomial degree 2m - 1."""
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(15, 61))
        m = int(rng.integers(2, 7))
        A, Ad = rand_sym(rng, n, 0.5, 10.0)
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        res = rl.run(A, v, rand_shifts(rng, m, 0.5, 10.0), m)
        lamA, VA = np.linalg.eigh(Ad)
        lamJ, VJ = np.linalg.eigh(res.J)
        w2A = (VA.T @ v) ** 2
        qA = np.ones(n)
        qJ = np.ones(res.m)
        for s in res.shifts[:m - 1]:
            qA *= 1.0 - lamA * s.inv
            qJ *= 1.0 - lamJ * s.inv
        for _ in range(10):
            coef = rng.standard_normal(2 * m)
            lhs = float(np.sum(w2A * np.polyval(coef, lamA) / qA ** 2))
            rhs = float(np.sum(VJ[0, :] ** 2 * np.polyval(coef, lamJ) / qJ ** 2))
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-300))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    _report(2, "moment matching to degree 2m-1", ok,
            f"max rel err {worst:.2e}, {elapsed:.1f} s")
    assert worst <= 1e-8
    assert elapsed < 10.0


def test_criterion_3_residual_bound_domination():
    """Computable residual bound dominates the true residual, f=exp."""
    rng = np.random.default_rng(303)
    violations = 0
    checked = 0
    for _ in range(50):
        n = int(rng.integers(20, 80))
        m = int(rng.integers(4, 13))
        A, Ad = rand_sym(rng, n, -20.0, -0.3)
        v = rng.standard_normal(n)
        sh = ShiftSequence([abs(s.value) for s in rand_shifts(rng, m, 0.3, 20.0)])
        normA = 1.05 * rl.norm_estimate(A)
        cache = FactorizationCache(A)
        st = rl.init_state(A, v, m, retain_basis=True)
        for k in range(m):
            rl.lanczos_step(A, st, sh[k], factorization=cache.get(sh[k]))
            if st.breakdown is not None:
                break
            bound = rl.residual_bound(st, "exp", 1.0, normA)
            w = matfun_action_e1(st.J_view, "exp")
            Qj = st.basis[:, :st.j]
            true = np.linalg.norm(Ad @ (Qj @ w) - Qj @ (st.J_view @ w))
            checked += 1
            if bound < true * (1.0 - 1e-12):
                violations += 1
    ok = violations == 0
    _report(3, "residual bound dominates true residual", ok,
            f"{checked} steps checked, {violations} violations")
    assert violations == 0


def test_criterion_4_polynomial_limit():
    """All-infinite poles reproduce classical Lanczos coefficients."""
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(30, 200))
        m = int(rng.integers(3, 11))
        A, Ad = rand_sym(rng, n, 1.0, 10.0)
        v = rng.standard_normal(n)
        res = rl.run(A, v, ShiftSequence.all_infinite(m), m)
        al, be = reference_lanczos(Ad, v, m)
        worst = max(worst, np.abs(res.alpha - al).max(),
                    np.abs(res.beta - be).max())
    ok = worst <= 1e-12
    _report(4, "polynomial-limit degeneration", ok, f"max coeff diff {worst:.2e}")
    assert worst <= 1e-12


def test_criterion_5_stochastic_trace_regime():
    """Planar GP precision matrix, n=1000, 20-probe block, f=log."""
    t0 = time.perf_counter()
    pts = rl.gp_points(1000, seed=7)
    A = rl.gp_precision_matrix(pts, phi=20.0, delta=0.02)
    req = TraceRequest(f="log", num_probes=20, block_size=20, seed=3,
                       tol=1e-8, s=1, max_m=20)
    tr = rl.hutchinson_trace(A, req)
    lam = np.linalg.eigvalsh(A.to_dense())
    oracle = float(np.sum(np.log(lam)))
    err = abs(tr.estimate - oracle)
    # iteration at which the estimate settles within a tenth of its own
    # stochastic noise scale
    settle = np.abs(tr.history - tr.estimate) <= 0.1 * tr.stderr
    floor_iter = int(np.argmax(settle)) + 1
    elapsed = time.perf_counter() - t0
    ok = 4 <= floor_iter <= 8 and err <= 3.0 * tr.stderr and elapsed < 30.0
    _report(5, "stochastic trace regime", ok,
            f"floor at iteration {floor_iter}, |err| {err:.3f} vs "
            f"3*stderr {3 * tr.stderr:.3f}, {elapsed:.1f} s")
    assert 4 <= floor_iter <= 8
    assert err <= 3.0 * tr.stderr
    assert elapsed < 30.0


def test_criterion_6_lqr_regime():
    """Distributed-control Laplacian problem, tol 1e-8, lag 4.

    The operator uses the physical 1/h^2 stencil scaling; the written
    inverse-grid scaling makes the feedback problem degenerate (converges
    immediately), which contradicts the reported growth of iteration
    counts with n.  The 20-35 iteration window itself is NOT reproduced
    by the faithful squared-ratio stopping rule (measured with the paired
    default poles: 14 iterations; the unsquared reading of the same rule,
    tol=1e-16 on the same metric history, gives 32).  The window
    assertion is kept as stated and is expected to fail; see the
    decisions ledger.
    """
    t0 = time.perf_counter()
    sys_ = lqr_system(200, scaling="physical")
    res = rl.lqr_reduce(sys_, None, tol=1e-8, s=4, max_m=45)
    ares = rl.lqr_reduce_arnoldi(sys_, None, tol=1e-8, s=4, max_m=45)
    elapsed = time.perf_counter() - t0

    agree = {}
    for t in (0.0, 0.1, 1.0):
        uL = rl.eval_control(res.controller, t)
        uA = rl.eval_control(ares.controller, t)
        denom = np.linalg.norm(uA)
        agree[t] = np.linalg.norm(uL - uA) / denom if denom else 0.0
    window_ok = 20 <= res.iterations <= 35
    ok = (window_ok and res.iterations == ares.iterations
          and all(v <= 1e-6 for v in agree.values()) and elapsed < 120.0)
    _report(6, "LQR reduction regime", ok,
            f"iterations {res.iterations} (window 20-35, full-basis "
            f"{ares.iterations}), control agreement "
            + ", ".join(f"t={t}: {v:.1e}" for t, v in agree.items())
            + f", {elapsed:.1f} s")
    assert res.converged and ares.converged
    assert res.iterations == ares.iterations
    for t, v in agree.items():
        assert v <= 1e-6, f"control mismatch at t={t}"
    assert elapsed < 120.0
    assert window_ok, (
        f"converged in {res.iterations} iterations; the stated 20-35 window "
        "is not attained by the faithful squared-ratio stopping rule "
        "(unsquared reading gives 32) - see decisions ledger")


def test_criterion_7_finite_precision_study():
    """Clustered-spectrum diagonal matrix, f=sqrt, 30 steps."""
    results = {}
    for rho in (0.45, 0.85):
        A = rl.gen_strakos(900, 0.01, 100.0, rho)
        g = np.random.Generator(np.random.Philox(key=np.uint64(11)))
        v = g.standard_normal(900)
        v /= np.linalg.norm(v)
        res = rl.run(A, v, rl.default_shifts(A, 30), 30, retain_basis=True)
        rep = rl.diagnostics(A, res, f="sqrt")
        lam = rl.strakos_eigenvalues(900, 0.01, 100.0, rho)
        exact = float(np.sum(v ** 2 * np.sqrt(lam)))
        w = matfun_action_e1(res.J, "sqrt")
        results[rho] = {
            "err": abs(w[0] - exact),
            "orth": rep.orth_loss[-1],
            "prod": rep.component_products.max(),
        }
    r45, r85 = results[0.45], results[0.85]
    ok = (r45["prod"] <= 1e-12 and r85["prod"] <= 1e-12
          and r45["err"] <= 1e-9 and r85["err"] <= 1e-9
          and r45["orth"] > 1e-4)
    _report(7, "finite-precision component compensation", ok,
            f"rho=0.45: err {r45['err']:.1e}, orth {r45['orth']:.1e}, "
            f"prod {r45['prod']:.1e}; rho=0.85: err {r85['err']:.1e}, "
            f"prod {r85['prod']:.1e}")
    assert r45["prod"] <= 1e-12 and r85["prod"] <= 1e-12
    assert r45["err"] <= 1e-9 and r85["err"] <= 1e-9
    assert r45["orth"] > 1e-4


def test_criterion_8_h2_checks():
    """Analytic 2x2 norm, Galerkin residuals, parametric cross-check."""
    # analytic value
    A = SparseSym.from_dense(np.diag([-1.0, -2.0]), definiteness_hint="negative")
    sys_ = LtiSystem(A=A, B=np.array([1.0, 0.0]), C=np.array([[1.0, 0.0]]))
    r = rl.h2_norm(sys_, ShiftSequence([3.0, 4.0]), tol=1e-12, s=1, max_m=2)
    analytic_err = abs(r.norm - np.sqrt(0.5))

    # Galerkin residual orthogonality on 20 random stable systems
    rng = np.random.default_rng(808)
    worst_galerkin = 0.0
    for _ in range(20):
        n = int(rng.integers(15, 45))
        Asys, Ad = rand_sym(rng, n, -10.0, -0.4)
        B = rng.standard_normal((n, 2))
        C = rng.standard_normal((1, n))
        m = int(rng.integers(4, 12))
        sh = ShiftSequence([abs(s.value) for s in rand_shifts(rng, m, 0.4, 10.0)])
        res = rl.h2_norm(LtiSystem(A=Asys, B=B, C=C), sh, tol=1e-14, s=1,
                         max_m=m, retain_basis=True)
        blk = res.block
        Q = blk.basis[:, :blk.m * blk.p]
        W = np.zeros((blk.m * blk.p,) * 2)
        W[:blk.p, :blk.p] = blk.R0 @ blk.R0.T
        Y = rl.lyap_sym(blk.J, W)
        P = Q @ Y @ Q.T
        G = Q.T @ (Ad @ P + P @ Ad + C.T @ C) @ Q
        scale = (np.linalg.norm(Ad, 2) * np.linalg.norm(P, 2)
                 + np.linalg.norm(C) ** 2)
        worst_galerkin = max(worst_galerkin, np.linalg.norm(G) / scale)

    # constant-parameter cross-check against the nonparametric path
    n = 18
    Ap, _ = rand_sym(rng, n, -6.0, -0.5)
    B1 = rng.standard_normal((n, 1))
    B2 = rng.standard_normal((n, 1))
    C1 = rng.standard_normal((1, n))
    C2 = rng.standard_normal((1, n))
    b0 = 0.6
    pio = ParametricIO(B1=B1, B2=B2, C1=C1, C2=C2,
                       b=lambda mu: b0 * np.eye(1),
                       c=lambda mu: np.zeros((1, 1)),
                       nodes=[0.0], weights=[1.0])
    rp = rl.h2_param_norm(Ap, pio, None, tol=1e-12, s=1, max_m=30)
    rb = rl.h2_norm(LtiSystem(A=Ap, B=B1 + b0 * B2, C=C1), None,
                    tol=1e-12, s=1, max_m=30)
    cross_err = abs(rp.norm - rb.norm) / rb.norm

    ok = analytic_err <= 1e-12 and worst_galerkin <= 1e-9 and cross_err <= 1e-10
    _report(8, "H2 substitute checks", ok,
            f"analytic err {analytic_err:.1e}, worst Galerkin "
            f"{worst_galerkin:.1e}, parametric cross-check {cross_err:.1e}")
    assert analytic_err <= 1e-12
    assert worst_galerkin <= 1e-9
    assert cross_err <= 1e-10


def test_criterion_9_cli_determinism(tmp_path):
    """Byte-identical CSV on rerun of every bundled smoke config."""
    manifest = Path(__file__).resolve().parents[1] / "configs" / "smoke.json"
    runs = json.loads(manifest.read_text())["runs"]
    mismatched = []
    for k, argv in enumerate(runs):
        d1 = tmp_path / f"a{k}"
        d2 = tmp_path / f"b{k}"
        assert cli_main(list(argv) + ["--outdir", str(d1)]) == 0
        assert cli_main(list(argv) + ["--outdir", str(d2)]) == 0
        for f1 in sorted(d1.glob("*.csv")):
            f2 = d2 / f1.name
            if f1.read_bytes() != f2.read_bytes():
                mismatched.append(f"{argv[0]}/{f1.name}")
    ok = not mismatched
    _report(9, "CLI determinism", ok,
            f"{len(runs)} configs rerun" + (f", mismatches: {mismatched}"
                                            if mismatched else ""))
    assert not mismatched
