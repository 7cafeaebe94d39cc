import numpy as np
import pytest

from ratlanczos import (DeflationNeededError, FormRequest, RankDeficiencyError,
                        ShiftSequence, SparseSym, arnoldi_run, block_assemble_HK,
                        block_run, run)
from ratlanczos.forms import _block_quad_form
from ratlanczos.lanczos import TERM_LUCKY_BREAKDOWN

from conftest import (assert_projection_matches, rand_shifts, rand_sym,
                      repeat_pole_lists, repeated_steps)


def test_block_width_one_matches_scalar(rng):
    for _ in range(50):
        n = int(rng.integers(20, 80))
        m = int(rng.integers(2, 8))
        A, _ = rand_sym(rng, n, 0.5, 20.0)
        v = rng.standard_normal(n)
        sh = rand_shifts(rng, m, 0.5, 20.0)
        rb = block_run(A, v.reshape(-1, 1), sh, m)
        rs = run(A, v, sh, m)
        assert np.abs(rb.J - rs.J).max() <= 1e-13 * max(1.0, np.abs(rs.J).max())
        for a_blk, a in zip(rb.alphas, rs.alpha):
            assert abs(a_blk[0, 0] - a) <= 1e-13 * max(1.0, abs(a))
        for b_blk, b in zip(rb.betas, rs.beta):
            assert abs(b_blk[0, 0] - b) <= 1e-13 * max(1.0, abs(b))


def test_invariant_block_subspace_breaks_down():
    A = SparseSym.from_dense(np.diag(np.arange(1.0, 7.0)),
                             definiteness_hint="positive")
    V = np.zeros((6, 2))
    V[0, 0] = 1.0
    V[1, 1] = 1.0
    res = block_run(A, V, ShiftSequence([-3.0, -4.0]), 2)
    assert res.termination == TERM_LUCKY_BREAKDOWN
    assert res.breakdown_step == 1
    assert np.allclose(res.J, np.diag([1.0, 2.0]), atol=1e-13)


def test_block_projection_vs_explicit_basis(rng):
    n, p, m = 150, 3, 6
    A, Ad = rand_sym(rng, n, 0.5, 25.0)
    V = rng.standard_normal((n, p))
    res = block_run(A, V, rand_shifts(rng, m, 0.5, 25.0), m,
                    retain_basis=True, check_invariants=True)
    Q = res.basis[:, :m * p]
    assert np.abs(res.J - Q.T @ Ad @ Q).max() <= 1e-10 * np.linalg.norm(Ad, 2)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", list(repeat_pole_lists(-1.0, -2.0, -3.0)))
def test_block_repeated_poles_solve_p_columns(rng, solve_columns, name, p):
    # a repeated pole's second block of right-hand sides solves to Q_hat
    n, m = 40, 6
    A, Ad = rand_sym(rng, n, 0.5, 20.0)
    V = rng.standard_normal((n, p))
    poles = repeat_pole_lists(*(-rng.uniform(0.5, 20.0, 3)))[name]
    res = block_run(A, V, poles, m, retain_basis=True, check_invariants=True)
    assert solve_columns == [p if rep else 2 * p for rep in repeated_steps(poles)]
    assert res.m == m
    assert_projection_matches(res.J, res.basis, Ad, A, V, poles)


@pytest.mark.parametrize("p", [2, 3])
def test_block_distinct_poles_solve_2p_columns(rng, solve_columns, p):
    A, _ = rand_sym(rng, 40, 0.5, 20.0)
    block_run(A, rng.standard_normal((40, p)), rand_shifts(rng, 6, 0.5, 20.0), 6)
    assert solve_columns == [2 * p] * 6


def test_block_projection_exactly_symmetric(rng):
    A, _ = rand_sym(rng, 60, 0.5, 10.0)
    V = rng.standard_normal((60, 2))
    res = block_run(A, V, rand_shifts(rng, 5, 0.5, 10.0), 5)
    assert np.array_equal(res.J, res.J.T)


def test_beta_blocks_triangular_nonneg(rng):
    A, _ = rand_sym(rng, 50, 0.5, 10.0)
    V = rng.standard_normal((50, 3))
    res = block_run(A, V, rand_shifts(rng, 5, 0.5, 10.0), 5)
    for b in res.betas:
        assert np.abs(np.tril(b, -1)).max() == 0.0
        assert np.all(np.diag(b) >= 0.0)


def test_rank_deficient_start_block_rejected(rng):
    A, _ = rand_sym(rng, 20, 1.0, 5.0)
    v = rng.standard_normal(20)
    with pytest.raises(RankDeficiencyError):
        block_run(A, np.column_stack([v, v]), ShiftSequence([-1.0]), 1)


def test_immediate_rank_collapse_requests_deflation(rng):
    # one start column is an eigenvector: its chain contributes no new
    # direction, so the very first normalization block is rank deficient
    A = SparseSym.from_dense(np.diag([1.0, 2.0, 3.0, 4.0, 5.0]),
                             definiteness_hint="positive")
    V = np.zeros((5, 2))
    V[0, 0] = 1.0
    V[:, 1] = rng.standard_normal(5)
    with pytest.raises(DeflationNeededError) as exc:
        block_run(A, V, ShiftSequence([-1.5, -2.5, -3.5]), 3)
    partial = exc.value.result
    assert partial is not None and partial.m == 0
    assert partial.termination == "deflation-needed"


def test_partial_rank_collapse_after_one_step(rng):
    # first column spans a 2-d invariant subspace: its chain saturates at
    # step 2 while the generic column keeps producing directions
    A = SparseSym.from_dense(np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
                             definiteness_hint="positive")
    V = np.zeros((6, 2))
    V[0, 0] = 1.0
    V[1, 0] = 1.0
    V[:, 1] = rng.standard_normal(6)
    with pytest.raises(DeflationNeededError) as exc:
        block_run(A, V, ShiftSequence([-1.5, -2.5, -3.5]), 3)
    partial = exc.value.result
    assert partial.m == 1
    assert partial.termination == "deflation-needed"
    assert partial.J.shape == (2, 2)


@pytest.mark.parametrize("runner", [block_run, arnoldi_run],
                         ids=lambda r: r.__name__)
def test_trailing_short_block_requests_deflation(runner):
    # n = 7, p = 4: the second block has only 3 directions left, so it is
    # rank deficient even where its QR factor does not show it; neither
    # subspace method may end as an exact projection of a non-invariant
    # subspace
    rng = np.random.default_rng(127)
    lam = rng.uniform(0.1, 10.0, 7)
    Q, _ = np.linalg.qr(rng.standard_normal((7, 7)))
    V = rng.standard_normal((7, 4))
    poles = ShiftSequence([-float(x) for x in rng.uniform(0.1, 10.0, 7)])
    Ad = (Q * lam) @ Q.T
    A = SparseSym.from_dense(0.5 * (Ad + Ad.T), definiteness_hint="positive")
    req = FormRequest(f="sqrt", tol=1e-12, s=1, max_m=7)
    with pytest.raises(DeflationNeededError) as exc:
        _block_quad_form(A, V, poles, req, None, runner)
    partial = exc.value.result
    assert partial.m == 0 and partial.termination == "deflation-needed"


def test_block_moment_matching(rng):
    # block extension of the 2m-1 exactness degree, on the orthonormalized
    # start block
    for _ in range(10):
        n, p, m = 50, 2, 4
        A, Ad = rand_sym(rng, n, 1.0, 10.0)
        V = rng.standard_normal((n, p))
        V, _ = np.linalg.qr(V)
        sh = rand_shifts(rng, m, 1.0, 10.0)
        res = block_run(A, V, sh, m)
        lamA, VA = np.linalg.eigh(Ad)
        lamJ, VJ = np.linalg.eigh(res.J)
        for _ in range(5):
            coef = rng.standard_normal(2 * m)
            qA = np.ones(n)
            qJ = np.ones(m * p)
            for s in res.shifts[:m - 1]:
                qA *= (1.0 - lamA * s.inv)
                qJ *= (1.0 - lamJ * s.inv)
            WA = VA.T @ V
            lhs = WA.T @ ((np.polyval(coef, lamA) / qA ** 2)[:, None] * WA)
            WJ = VJ[:p, :].T
            rhs = WJ.T @ ((np.polyval(coef, lamJ) / qJ ** 2)[:, None] * WJ)
            assert np.abs(lhs - rhs).max() <= 1e-8 * max(np.abs(lhs).max(), 1e-30)


def test_block_assemble_HK_structure(rng):
    A, _ = rand_sym(rng, 30, 1.0, 5.0)
    V = rng.standard_normal((30, 2))
    res = block_run(A, V, ShiftSequence([-2.0]), 1)
    H, K = block_assemble_HK(res)
    assert K.shape == (4, 2)
    assert np.array_equal(K[:2, :2], np.eye(2))

    res_inf = block_run(A, V, ShiftSequence.all_infinite(3), 3)
    H, K = block_assemble_HK(res_inf)
    assert np.array_equal(K, np.vstack([np.eye(6), np.zeros((2, 6))]))


def test_block_assemble_HK_relation(rng):
    n, p, m = 80, 2, 5
    A, Ad = rand_sym(rng, n, 0.5, 15.0)
    V = rng.standard_normal((n, p))
    res = block_run(A, V, rand_shifts(rng, m, 0.5, 15.0), m, retain_basis=True)
    H, K = block_assemble_HK(res)
    rel = np.linalg.norm(Ad @ res.basis @ K - res.basis @ H)
    assert rel <= 1e-11 * np.linalg.norm(Ad, 2)


def test_block_side_projections(rng):
    n, p, m = 40, 2, 4
    A, Ad = rand_sym(rng, n, 0.5, 8.0)
    V = rng.standard_normal((n, p))
    U = rng.standard_normal((n, 3))
    res = block_run(A, V, rand_shifts(rng, m, 0.5, 8.0), m,
                    side_matrix=U, retain_basis=True)
    Q = res.basis[:, :m * p]
    assert np.abs(res.side_projections - Q.T @ U).max() <= 1e-12
