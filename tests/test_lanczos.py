import numpy as np
import pytest

from ratlanczos import (Shift, ShiftError, ShiftSequence, SparseSym,
                        arnoldi_run, assemble_HK, block_run, default_shifts,
                        diagnostics, init_state, lanczos_step, run)
from ratlanczos.lanczos import (TERM_CONVERGED, TERM_LUCKY_BREAKDOWN,
                                TERM_MAX_ITERATIONS, lag_rule)

from conftest import (assert_projection_matches, rand_shifts, rand_sym,
                      reference_lanczos, repeat_pole_lists, repeated_steps)


def test_first_step_initial_values(rng):
    A, Ad = rand_sym(rng, 12, 1.0, 5.0)
    v = rng.standard_normal(12)
    st = init_state(A, v, 4)
    lanczos_step(A, st, Shift(-2.0))
    assert st.omega[1] == 1.0
    assert st.y[0] == 1.0 and st.t[0] == 1.0
    assert st.yhat[0] == st.alpha[1]


def test_first_diagonal_entry_is_rayleigh_quotient():
    # hand-checked 2x2 case: J_11 must equal v^T A v for any valid pole
    A = SparseSym.from_dense(np.diag([1.0, 2.0]))
    v = np.array([1.0, 1.0]) / np.sqrt(2.0)
    res = run(A, v, ShiftSequence([-1.0]), 1)
    assert abs(res.J[0, 0] - 1.5) < 1e-14


def test_lucky_breakdown_on_eigenvector():
    A = SparseSym.from_dense(np.diag([1.0, 2.0]))
    e1 = np.array([1.0, 0.0])
    res = run(A, e1, ShiftSequence([-3.0, -4.0]), 2, retain_basis=True,
              side_matrix=e1)
    assert res.termination == TERM_LUCKY_BREAKDOWN
    assert res.breakdown_step == 1
    assert np.allclose(res.J, [[1.0]], atol=1e-14)
    # on breakdown only the surviving vectors are reported
    assert res.basis.shape == (2, 1)
    assert res.side_projections.shape == (1, 1)


def test_two_step_projection_vs_gram_schmidt():
    A = SparseSym.from_dense(np.diag([-1.0, -2.0, -3.0]))
    v = np.ones(3) / np.sqrt(3.0)
    res = run(A, v, ShiftSequence([1.0, 2.0]), 2)
    # explicit Gram-Schmidt basis of span{v, (I - A)^-1 v}
    Ad = A.to_dense()
    w = np.linalg.solve(np.eye(3) - Ad, v)
    q2 = w - (v @ w) * v
    q2 /= np.linalg.norm(q2)
    Q = np.column_stack([v, q2])
    Jexp = Q.T @ Ad @ Q
    assert np.abs(res.J - Jexp).max() <= 1e-12


def test_side_projection_of_start_vector(rng):
    A, _ = rand_sym(rng, 30, 1.0, 8.0)
    v = 2.5 * rng.standard_normal(30)
    res = run(A, v, rand_shifts(rng, 6, 1.0, 8.0), 6, side_matrix=v)
    side = res.side_projections[:, 0]
    assert abs(side[0] - np.linalg.norm(v)) <= 1e-12 * np.linalg.norm(v)
    assert np.abs(side[1:]).max() <= 1e-10 * np.linalg.norm(v)


def test_single_step_rayleigh(rng):
    A, Ad = rand_sym(rng, 15, 1.0, 4.0)
    v = rng.standard_normal(15)
    res = run(A, v, rand_shifts(rng, 1, 1.0, 4.0), 1)
    vn = v / np.linalg.norm(v)
    assert abs(res.J[0, 0] - vn @ Ad @ vn) <= 1e-13


@pytest.mark.parametrize("runner", [run, block_run, arnoldi_run],
                         ids=["run", "block_run", "arnoldi_run"])
def test_runner_contract(rng, runner):
    # the three runners share one step driver: same checks, same
    # callback stop and the same lucky-breakdown label
    A, _ = rand_sym(rng, 10, 1.0, 4.0)
    v = rng.standard_normal(10)
    with pytest.raises(ShiftError):
        runner(A, v, ShiftSequence([-1.0]), 3)
    with pytest.raises(ValueError):
        runner(A, v, ShiftSequence([-1.0]), 0)

    res = runner(A, v, rand_shifts(rng, 5, 1.0, 4.0), 5,
                 callback=lambda process: process.j == 2)
    assert res.termination == TERM_CONVERGED and res.m == 2

    # no poles: the driver's cache supplies default_shifts(A, m), bit for bit
    res = runner(A, v, None, 5)
    explicit = runner(A, v, default_shifts(A, 5), 5)
    assert res.shifts == explicit.shifts
    assert np.array_equal(res.J, explicit.J)

    D = SparseSym.from_dense(np.diag([1.0, 2.0, 3.0]))
    res = runner(D, np.array([0.0, 1.0, 0.0]), ShiftSequence([-1.0, -2.0]), 2)
    assert res.termination == TERM_LUCKY_BREAKDOWN


def test_projection_matches_retained_basis(rng):
    for _ in range(20):
        n = int(rng.integers(20, 120))
        m = int(rng.integers(2, 16))
        A, Ad = rand_sym(rng, n, 0.5, 30.0)
        v = rng.standard_normal(n)
        res = run(A, v, rand_shifts(rng, m, 0.5, 30.0), m, retain_basis=True,
                  check_invariants=True)
        Q = res.basis[:, :res.m]
        assert np.abs(res.J - Q.T @ Ad @ Q).max() <= 1e-10 * np.linalg.norm(Ad, 2)


def test_projection_exactly_symmetric(rng):
    A, _ = rand_sym(rng, 40, 0.5, 10.0)
    v = rng.standard_normal(40)
    res = run(A, v, rand_shifts(rng, 10, 0.5, 10.0), 10)
    assert np.array_equal(res.J, res.J.T)


@pytest.mark.parametrize("name", list(repeat_pole_lists(-1.0, -2.0, -3.0)))
def test_repeated_poles_solve_one_column(rng, solve_columns, name):
    # a step whose pole repeats the previous one (xi_0 = inf) solves only
    # r: its second right-hand side (I - A/xi) q_hat solves to q_hat
    n, m = 40, 6
    A, Ad = rand_sym(rng, n, 0.5, 20.0)
    v = rng.standard_normal(n)
    poles = repeat_pole_lists(*(-rng.uniform(0.5, 20.0, 3)))[name]
    res = run(A, v, poles, m, retain_basis=True, check_invariants=True)
    assert solve_columns == [1 if rep else 2 for rep in repeated_steps(poles)]
    assert res.m == m
    assert_projection_matches(res.J, res.basis, Ad, A, v, poles)


def test_distinct_poles_solve_two_columns(rng, solve_columns):
    # without consecutive repeats every step keeps its two-column solve,
    # the arithmetic of the unpaired recurrence
    A, _ = rand_sym(rng, 40, 0.5, 20.0)
    run(A, rng.standard_normal(40), rand_shifts(rng, 8, 0.5, 20.0), 8)
    assert solve_columns == [2] * 8


def test_infinite_poles_reduce_to_classical_lanczos(rng):
    for _ in range(5):
        n = int(rng.integers(30, 120))
        m = 10
        A, Ad = rand_sym(rng, n, 1.0, 10.0)
        v = rng.standard_normal(n)
        res = run(A, v, ShiftSequence.all_infinite(m), m)
        al, be = reference_lanczos(Ad, v, m)
        assert np.abs(res.alpha - al).max() <= 1e-12
        assert np.abs(res.beta - be).max() <= 1e-12
        # projected matrix is tridiagonal in the polynomial limit
        assert np.abs(np.triu(res.J, 2)).max() == 0.0


def test_lucky_breakdown_invariant_subspace(rng):
    n, k = 40, 4
    lam = np.sort(rng.uniform(1.0, 10.0, n))
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    Ad = (Q * lam) @ Q.T
    Ad = 0.5 * (Ad + Ad.T)
    A = SparseSym.from_dense(Ad)
    idx = [3, 11, 25, 33]
    v = Q[:, idx].sum(axis=1)
    res = run(A, v, rand_shifts(rng, k + 3, 1.0, 10.0), k + 3)
    assert res.termination == TERM_LUCKY_BREAKDOWN
    assert res.breakdown_step == k
    ritz = np.linalg.eigvalsh(res.J)
    assert np.abs(np.sort(lam[idx]) - ritz).max() <= 1e-10


def test_assemble_HK_single_step(rng):
    A, _ = rand_sym(rng, 10, 1.0, 4.0)
    v = rng.standard_normal(10)
    res = run(A, v, ShiftSequence([-2.0]), 1)
    H, K = assemble_HK(res)
    assert H.shape == (2, 1) and K.shape == (2, 1)
    assert H[0, 0] == res.alpha[0] and H[1, 0] == res.beta[0]
    assert K[0, 0] == 1.0
    assert abs(K[1, 0] - res.beta[0] / (-2.0)) <= 1e-15


def test_assemble_HK_polynomial_limit(rng):
    A, _ = rand_sym(rng, 20, 1.0, 4.0)
    v = rng.standard_normal(20)
    res = run(A, v, ShiftSequence.all_infinite(5), 5)
    H, K = assemble_HK(res)
    assert np.array_equal(K, np.vstack([np.eye(5), np.zeros((1, 5))]))


def test_assemble_HK_relation_residual(rng):
    n, m = 100, 8
    A, Ad = rand_sym(rng, n, 0.5, 20.0)
    v = rng.standard_normal(n)
    res = run(A, v, rand_shifts(rng, m, 0.5, 20.0), m, retain_basis=True)
    H, K = assemble_HK(res)
    rel = np.linalg.norm(Ad @ res.basis @ K - res.basis @ H)
    assert rel <= 1e-12 * np.linalg.norm(Ad, 2)


def test_solve_K_columns_first_steps(rng):
    A, _ = rand_sym(rng, 20, 1.0, 6.0)
    v = rng.standard_normal(20)
    st = init_state(A, v, 3)
    lanczos_step(A, st, Shift(-2.0))
    y, t = st.y_view, st.t_view
    assert np.array_equal(y, [1.0]) and np.array_equal(t, [1.0])
    lanczos_step(A, st, Shift(-3.0))
    y, t = st.y_view, st.t_view
    # the leading pole is conceptually infinite, so y_2 = (0, 1/omega_2)
    assert y[0] == 0.0
    assert abs(y[1] - 1.0 / st.omega[2]) <= 1e-15


def test_solve_K_columns_vs_assembled_solve(rng):
    n, m = 60, 10
    A, _ = rand_sym(rng, n, 0.5, 15.0)
    v = rng.standard_normal(n)
    res = run(A, v, rand_shifts(rng, m, 0.5, 15.0), m)
    st = res.state
    K = assemble_HK(res)[1][:m]
    ej = np.zeros(m)
    ej[-1] = 1.0
    y_ref = np.linalg.solve(K, ej)
    t_ref = np.linalg.solve(K.T, ej)
    y, t = st.y_view, st.t_view
    scale = max(np.abs(y_ref).max(), 1.0)
    assert np.abs(y - y_ref).max() <= 1e-13 * scale
    assert np.abs(t - t_ref).max() <= 1e-13 * max(np.abs(t_ref).max(), 1.0)


def test_diagnostics_small_exact_case(rng):
    A, _ = rand_sym(rng, 10, 1.0, 3.0)
    v = rng.standard_normal(10)
    res = run(A, v, rand_shifts(rng, 3, 1.0, 3.0), 3, retain_basis=True)
    rep = diagnostics(A, res, f="sqrt")
    assert rep.orth_loss.max() <= 1e-13
    assert rep.component_products.max() <= 1e-13
    assert rep.ritz_residuals.shape == (3,)


def test_diagnostics_requires_basis(rng):
    A, _ = rand_sym(rng, 10, 1.0, 3.0)
    v = rng.standard_normal(10)
    res = run(A, v, rand_shifts(rng, 3, 1.0, 3.0), 3)
    with pytest.raises(ValueError):
        diagnostics(A, res)


def test_callback_stops_run(rng):
    A, _ = rand_sym(rng, 30, 1.0, 5.0)
    v = rng.standard_normal(30)
    res = run(A, v, rand_shifts(rng, 10, 1.0, 5.0), 10,
              callback=lambda st: st.j >= 4)
    assert res.m == 4 and res.termination == "converged"


def test_max_iterations_termination(rng):
    A, _ = rand_sym(rng, 30, 1.0, 5.0)
    v = rng.standard_normal(30)
    res = run(A, v, rand_shifts(rng, 3, 1.0, 5.0), 3)
    assert res.termination == TERM_MAX_ITERATIONS


@pytest.mark.parametrize("history, s, expected", [
    ([1.0], 1, False),                                  # no lagged iterate yet
    ([1.0, 1.0 + 5e-9], 1, True),                       # scalar, relative
    ([1.0, 1.0 + 5e-8], 1, False),
    ([1.0, 3.0, 1.0 + 5e-9], 2, True),                  # lag 2 skips the middle
    ([1.0, 1.0 + 5e-9, 3.0], 2, False),
    ([np.eye(2), (1.0 + 5e-9) * np.eye(2)], 1, True),   # block, Frobenius
    ([np.eye(2), np.eye(2) + 1e-7], 1, False),
    ([5e-9, 0.0], 1, True),                             # zero iterate: absolute
    ([5e-8, 0.0], 1, False),
    ([np.full((2, 2), 4e-9), np.zeros((2, 2))], 1, True),
])
def test_lag_converged(history, s, expected):
    assert lag_rule(s, 1e-8)(history) == expected
