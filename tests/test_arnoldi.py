import numpy as np

from ratlanczos import arnoldi_run, block_run, run

from conftest import rand_shifts, rand_sym


def _sign_align(Qa, Qb):
    """Diagonal sign similarity between two bases of the same flag."""
    return np.sign(np.sum(Qa * Qb, axis=0))


def _max_sin_principal_angle(Qa, Qb):
    """Largest principal-angle sine, computed through the complement
    projection so small angles are not lost to cancellation."""
    U1, _ = np.linalg.qr(Qa)
    U2, _ = np.linalg.qr(Qb)
    R = U2 - U1 @ (U1.T @ U2)
    return np.linalg.svd(R, compute_uv=False).max()


def test_span_matches_short_recurrence(rng):
    n, m = 100, 10
    A, Ad = rand_sym(rng, n, 1.0, 10.0)
    v = rng.standard_normal(n)
    sh = rand_shifts(rng, m, 1.0, 10.0)
    ar = arnoldi_run(A, v, sh, m)
    lz = run(A, v, sh, m, retain_basis=True)
    assert _max_sin_principal_angle(ar.Q, lz.basis) <= 1e-8


def test_cross_method_projections_agree(rng):
    # the two orthogonalizations produce the same basis up to column
    # signs, so the projections agree through that sign similarity
    n, m = 100, 10
    A, Ad = rand_sym(rng, n, 1.0, 10.0)
    v = rng.standard_normal(n)
    sh = rand_shifts(rng, m, 1.0, 10.0)
    ar = arnoldi_run(A, v, sh, m)
    lz = run(A, v, sh, m, retain_basis=True)
    d = _sign_align(ar.Q[:, :m], lz.basis[:, :m])
    J_aligned = (ar.J_m * d[None, :]) * d[:, None]
    assert np.abs(J_aligned - lz.J).max() <= 1e-9 * np.linalg.norm(Ad, 2)


def test_single_iteration(rng):
    A, Ad = rand_sym(rng, 20, 1.0, 5.0)
    v = rng.standard_normal(20)
    ar = arnoldi_run(A, v, rand_shifts(rng, 1, 1.0, 5.0), 1)
    vn = v / np.linalg.norm(v)
    assert np.abs(ar.Q[:, 0] - vn).max() <= 1e-14
    assert abs(ar.J_m[0, 0] - vn @ Ad @ vn) <= 1e-13


def test_orthogonality_enforced(rng):
    for _ in range(5):
        n = int(rng.integers(40, 150))
        m = int(rng.integers(4, 14))
        A, _ = rand_sym(rng, n, 0.5, 25.0)
        v = rng.standard_normal(n)
        ar = arnoldi_run(A, v, rand_shifts(rng, m, 0.5, 25.0), m)
        assert ar.orth_trace.shape == (m,)
        assert ar.orth_trace.max() <= 1e-12


def test_relation_matrices(rng):
    n, m = 80, 7
    A, Ad = rand_sym(rng, n, 0.5, 15.0)
    v = rng.standard_normal(n)
    finite = list(rand_shifts(rng, m, 0.5, 15.0))
    # an infinite pole takes the polynomial step A q_j, not a solve that
    # returns q_j and would end the run as a false lucky breakdown
    for poles in (finite, [finite[0], np.inf] + finite[2:], [np.inf] * m):
        ar = arnoldi_run(A, v, poles, m)
        assert ar.m == m
        rel = np.linalg.norm(Ad @ ar.Q @ ar.Kbar - ar.Q @ ar.Hbar)
        assert rel <= 1e-12 * np.linalg.norm(Ad, 2)


def test_block_arnoldi_vs_block_recurrence(rng):
    n, p, m = 90, 2, 6
    A, Ad = rand_sym(rng, n, 1.0, 12.0)
    V = rng.standard_normal((n, p))
    sh = rand_shifts(rng, m, 1.0, 12.0)
    ar = arnoldi_run(A, V, sh, m)
    bl = block_run(A, V, sh, m, retain_basis=True)
    assert _max_sin_principal_angle(ar.Q, bl.basis) <= 1e-8
    assert ar.orth_trace.max() <= 1e-12


def test_lucky_termination_on_eigenvector(rng):
    import ratlanczos as rl
    A = rl.SparseSym.from_dense(np.diag([1.0, 2.0, 3.0]))
    e2 = np.array([0.0, 1.0, 0.0])
    ar = arnoldi_run(A, e2, rl.ShiftSequence([-1.0, -2.0]), 2)
    assert ar.termination == "lucky-breakdown"
    assert ar.m == 0
    assert abs(ar.J[0, 0] - 2.0) <= 1e-14
    assert ar.orth_trace.shape == (0,)


def test_start_factor_and_side_projections(rng):
    n, p, m = 50, 2, 4
    A, _ = rand_sym(rng, n, 1.0, 8.0)
    V = rng.standard_normal((n, p))
    U = rng.standard_normal((n, 3))
    seen = []

    def cb(proc):
        seen.append(proc.side_view.shape)

    ar = arnoldi_run(A, V, rand_shifts(rng, m, 1.0, 8.0), m, callback=cb,
                     side_matrix=U)
    assert np.abs(ar.Q[:, :p] @ ar.R0 - V).max() <= 1e-13 * np.abs(V).max()
    assert np.abs(ar.side_projections - ar.Q.T @ U).max() <= 1e-14 * n
    # the callback sees the rows of the first j blocks after step j
    assert seen == [(j * p, 3) for j in range(1, m + 1)]


def test_lucky_breakdown_views_cover_stored_blocks():
    # span{e_0 + e_1} grows to the invariant span{e_0, e_1}: the second
    # expansion breaks down with both stored columns in the projection
    import ratlanczos as rl
    A = rl.SparseSym.from_dense(np.diag([1.0, 2.0, 3.0]))
    v = np.array([1.0, 1.0, 0.0])
    U = np.eye(3)[:, :1]
    widths = []

    def cb(proc):
        widths.append((proc.J_view.shape, proc.side_view.shape))
        return False

    ar = arnoldi_run(A, v, rl.ShiftSequence([-1.0, -2.0, -3.0]), 3,
                     callback=cb, side_matrix=U)
    assert ar.termination == "lucky-breakdown" and ar.m == 1
    assert widths == [((1, 1), (1, 1)), ((2, 2), (2, 1))]
    assert np.allclose(np.linalg.eigvalsh(ar.J), [1.0, 2.0], atol=1e-13)
