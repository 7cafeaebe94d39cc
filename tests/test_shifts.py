import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import ratlanczos.shifts as shifts_mod
from ratlanczos import (INFINITY, FactorizationCache, IndefiniteShiftError,
                        Shift, ShiftError, ShiftSequence, SparseSym,
                        default_shifts, run, shifted_factorize)
from ratlanczos.problems import gen_laplacian2d, gen_strakos
from ratlanczos.sparse import power_iteration

from conftest import belady_count, rand_sym


def test_shift_validation():
    with pytest.raises(ShiftError):
        Shift(0.0)
    with pytest.raises(ShiftError):
        Shift(float("nan"))
    assert INFINITY.inv == 0.0
    assert Shift(-2.0).inv == -0.5


def test_infinite_shift_identity_solve(rng):
    A, _ = rand_sym(rng, 10, 0.5, 2.0)
    F = shifted_factorize(A, INFINITY)
    b = rng.standard_normal(10)
    assert np.array_equal(F.solve(b), b)


def test_diagonal_shift_solve():
    A = SparseSym.from_dense(np.diag([-1.0, -2.0]))
    F = shifted_factorize(A, Shift(1.0))
    # I - A/1 = diag(2, 3)
    x = F.solve(np.array([2.0, 3.0]))
    assert np.allclose(x, [1.0, 1.0], atol=1e-15)


def _complete_graph_laplacian(rng, n):
    """Negative Laplacian of a complete graph with random weights: n
    entries per row, so ``shifted_factorize`` takes the dense side."""
    W = np.triu(rng.uniform(0.5, 1.0, (n, n)), 1)
    W = W + W.T
    return SparseSym.from_dense(W - np.diag(W.sum(axis=1)))


@pytest.mark.parametrize("method", ["dense-cholesky", "sparse-ldl"])
def test_laplacian_solve_residual(method, rng):
    # a complete-graph Laplacian on the dense side of the solver choice,
    # the negative definite 2-D Laplacian (n = 400) on the sparse side
    A = (_complete_graph_laplacian(rng, 40) if method == "dense-cholesky"
         else gen_laplacian2d(20))
    xi = Shift(10.0)
    F = shifted_factorize(A, xi)
    assert F.method == method
    b = rng.standard_normal(A.n)
    x = F.solve(b)
    M = np.eye(A.n) - A.to_dense() / 10.0
    assert np.linalg.norm(M @ x - b) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("method", ["dense-cholesky", "sparse-ldl"])
def test_multi_rhs_solve(method, rng):
    A = (rand_sym(rng, 40, -5.0, -0.5)[0] if method == "dense-cholesky"
         else gen_laplacian2d(10))
    xi = Shift(5.0)
    F = shifted_factorize(A, xi)
    assert F.method == method
    B = rng.standard_normal((A.n, 2))
    X = F.solve(B)
    M = np.eye(A.n) - A.to_dense() / 5.0
    for k in range(2):
        assert np.linalg.norm(M @ X[:, k] - B[:, k]) <= 1e-12 * np.linalg.norm(B[:, k])


def _banded(n, half):
    """Diagonally dominant SPD band matrix: 2 * half + 1 entries per
    interior row."""
    M = np.diag(np.full(n, 2.0 * half + 1.0))
    for k in range(1, half + 1):
        M += np.diag(np.ones(n - k), k) + np.diag(np.ones(n - k), -k)
    return SparseSym.from_dense(M)


def test_auto_chooses_solver_by_entries_per_row(rng, monkeypatch):
    def auto_method(A, pole):
        return shifted_factorize(A, Shift(pole)).method

    # 1 entry per row (diagonal)
    assert auto_method(gen_strakos(900, 0.01, 100, 0.45), -1.0) == "sparse-ldl"
    # about 5 per row
    assert auto_method(gen_laplacian2d(20), 1.0) == "sparse-ldl"
    # either side of DENSE_ROW_NNZ = 8 per row
    assert auto_method(_banded(100, 3), -1.0) == "sparse-ldl"
    assert auto_method(_banded(100, 4), -1.0) == "dense-cholesky"
    dense, _ = rand_sym(rng, 40, 1.0, 2.0)
    assert auto_method(dense, -1.0) == "dense-cholesky"
    # above the size cutoff even a dense operator goes sparse
    monkeypatch.setattr(shifts_mod, "DENSE_CUTOFF", 39)
    assert auto_method(dense, -1.0) == "sparse-ldl"


def test_indefinite_shift_reported_on_auto_path(rng):
    # pole inside the spectrum [1, 2] of a diagonal operator: sparse path
    A = SparseSym.from_coo(200, np.arange(200), np.arange(200),
                           np.linspace(1.0, 2.0, 200))
    assert shifted_factorize(A, Shift(-1.0)).method == "sparse-ldl"
    with pytest.raises(IndefiniteShiftError) as exc:
        shifted_factorize(A, Shift(1.5))
    assert exc.value.shift.value == 1.5
    # pole inside the spectrum of a Laplacian: sparse path
    L = gen_laplacian2d(20)
    lam = np.linalg.eigvalsh(L.to_dense())
    with pytest.raises(IndefiniteShiftError):
        shifted_factorize(L, Shift(float(np.median(lam))))
    # pole inside the spectrum [1, 2] of a dense operator: dense path
    D, _ = rand_sym(rng, 40, 1.0, 2.0)
    assert shifted_factorize(D, Shift(-1.0)).method == "dense-cholesky"
    with pytest.raises(IndefiniteShiftError):
        shifted_factorize(D, Shift(1.5))


@pytest.mark.parametrize("A", [gen_laplacian2d(20), gen_strakos(900, 0.01, 100, 0.45)],
                         ids=["laplacian", "strakos"])
def test_dominant_operator_skips_factor_copies(A, factor_reads, rng):
    # every default pole leaves I - A/xi strictly diagonally dominant, so
    # positive definiteness is proved without reading L or U
    b = rng.standard_normal(A.n)
    for xi in default_shifts(A, 12):
        F = shifted_factorize(A, xi)
        assert F.method == "sparse-ldl"
        M = np.eye(A.n) - A.to_dense() / xi.value
        assert np.linalg.norm(M @ F.solve(b) - b) <= 1e-12 * np.linalg.norm(b)
    assert factor_reads.count == 0


def test_dominance_certificate_needs_a_margin():
    # a row with equality (the path-graph Laplacian, singular), a margin
    # inside the rounding allowance, an empty column or a nonpositive
    # diagonal proves nothing
    L = sp.diags([-np.ones(4), [1.0, 2.0, 2.0, 2.0, 1.0], -np.ones(4)],
                 [-1, 0, 1], format="csc")
    eye = sp.identity(5, format="csc")
    certified = shifts_mod._dominance_certificate
    assert not certified(L)
    assert not certified((L + 1e-15 * eye).tocsc())
    assert certified((L + 1e-12 * eye).tocsc())
    assert not certified(sp.csc_matrix(np.diag([1.0, 1.0, 0.0])))
    assert not certified(sp.csc_matrix(np.diag([1.0, 1.0, -1.0])))


def _signed_random_graph(n, seed):
    """Zero-diagonal symmetric matrix with +-1 and +-2 entries on about 6
    random positions per row.  Its spectral radius (about 5 at n = 200)
    is far below its largest absolute row sum (13-14)."""
    rng = np.random.default_rng(seed)
    i, j = rng.integers(0, n, (2, 3 * n))
    keep = i != j
    W = np.zeros((n, n))
    W[i[keep], j[keep]] = rng.choice([-1.0, 1.0], keep.sum())
    return SparseSym.from_dense(W + W.T)


def test_nondominant_spd_falls_back_to_pivots(factor_reads, rng):
    # I - A/xi with xi above the spectrum is SPD, but Gershgorin cannot
    # prove it: the pivot signs decide, and reading them costs the copies
    A = _signed_random_graph(200, 0)
    Ad = A.to_dense()
    xi = 1.25 * np.linalg.eigvalsh(Ad)[-1]
    M = np.eye(A.n) - Ad / xi
    assert np.linalg.eigvalsh(M)[0] > 0.1
    assert np.any(2.0 * np.diag(M) < np.abs(M).sum(axis=1))
    F = shifted_factorize(A, Shift(xi))
    assert F.method == "sparse-ldl"
    assert factor_reads.count > 0
    b = rng.standard_normal(A.n)
    assert np.linalg.norm(M @ F.solve(b) - b) <= 1e-12 * np.linalg.norm(b)
    # the same pattern with a pole inside the spectrum still raises
    with pytest.raises(IndefiniteShiftError):
        shifted_factorize(A, Shift(0.5 * xi))


def test_certified_factor_keeps_no_python_copy():
    # the SuperLU factor lives outside the Python heap; CSC copies of L
    # and U (5.9x the bytes of M here) would stay allocated with it.  The
    # peak is set by building M: I, A/xi and their difference (2.5x)
    A = gen_laplacian2d(60)
    xi = default_shifts(A, 1)[0]
    M = (sp.identity(A.n, format="csr") - A.to_scipy() / xi.value).tocsc()
    m_bytes = M.data.nbytes + M.indices.nbytes + M.indptr.nbytes
    shifted_factorize(A, xi)
    tracemalloc.start()
    try:
        F = shifted_factorize(A, xi)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert F.method == "sparse-ldl"
    assert kept < 2 * m_bytes
    assert peak < 3 * m_bytes


def test_default_shifts_sign_and_span(rng):
    A, Ad = rand_sym(rng, 30, 1.0, 10.0)
    seq = default_shifts(A, 20)
    assert len(seq) == 20
    vals = seq.values()
    assert np.all(vals < 0)          # opposite sign to a positive spectrum
    neg, _ = rand_sym(rng, 30, -10.0, -1.0)
    seq2 = default_shifts(neg, 5)
    assert np.all(seq2.values() > 0)
    # indefinite: opposite to the dominant eigenvalue's sign, which the
    # power iterate's Rayleigh quotient takes on
    for lam, sign in (((-10.0, 2.0), 1.0), ((-2.0, 10.0), -1.0)):
        U = SparseSym.from_dense(np.diag(np.linspace(*lam, 30)))
        assert np.all(np.sign(default_shifts(U, 9).values()) == sign)


@pytest.mark.parametrize("m", [1, 7, 12, 13, 30])
def test_default_shifts_paired_schedule(rng, m):
    # every other of 12 log-spaced magnitudes, each twice in a row,
    # cycled; an odd m cuts the last pair
    A, _ = rand_sym(rng, 30, 1.0, 10.0)
    nrm = power_iteration(A)[0]
    vals = default_shifts(A, m).values()
    assert len(vals) == m
    mags = np.logspace(np.log10(nrm), np.log10(nrm) - 6, 12)[::2]
    want = -np.repeat(mags, 2)
    assert np.array_equal(vals, want[np.arange(m) % len(want)])


def test_cycled_sequence():
    seq = ShiftSequence.cycled([1.0, 2.0], 5)
    assert [s.value for s in seq] == [1.0, 2.0, 1.0, 2.0, 1.0]
    with pytest.raises(ShiftError):
        ShiftSequence([])


def test_factorization_cache_reuses(rng):
    A, _ = rand_sym(rng, 15, 0.5, 2.0)
    cache = FactorizationCache(A)
    f1 = cache.get(Shift(-1.0))
    f2 = cache.get(Shift(-1.0))
    assert f1 is f2
    assert cache.get(Shift(-2.0)) is not f1
    # a cache built without a schedule keeps every factor, beyond
    # RESIDENT_FACTORS distinct poles
    cache.get(Shift(-3.0))
    assert cache.get(Shift(-1.0)) is f1


def _alive_after_each_step(A, v, poles, factorizations, solver_cache=None):
    """Run the scalar recurrence over ``poles``; the number of finite-pole
    factors alive after every step, and the poles of all those alive
    after the last one."""
    alive = []

    def cb(state):
        alive.append(factorizations.alive())

    res = run(A, v, poles, len(poles), solver_cache=solver_cache, callback=cb)
    assert res.m == len(poles)
    return [int(np.isfinite(xs).sum()) for xs in alive], alive[-1]


def test_driver_cache_evicts_by_schedule(factorizations, rng):
    # a a b b c c a a b b: at step 5 the schedule uses a again before b,
    # so b goes; at step 9 b is factored again
    A, _ = rand_sym(rng, 30, 0.5, 2.0)
    v = rng.standard_normal(30)
    a, b, c = -1.0, -2.0, -4.0
    poles = [a, a, b, b, c, c, a, a, b, b]
    assert shifts_mod.RESIDENT_FACTORS == 2
    alive, _ = _alive_after_each_step(A, v, poles, factorizations)
    assert [xi for xi, _ in factorizations] == [a, b, c, b]
    assert belady_count(poles, 2) == 4
    assert max(alive) == shifts_mod.RESIDENT_FACTORS
    # a caller's cache keeps all three factors and makes each once
    factorizations.clear()
    cache = FactorizationCache(A)
    alive, _ = _alive_after_each_step(A, v, poles, factorizations, cache)
    assert [xi for xi, _ in factorizations] == [a, b, c]
    assert alive[-1] == 3


def test_driver_cache_residency_bound(factorizations, rng):
    # four poles cycled with period 5: at most two finite factors are
    # referenced anywhere after every step, and the count is Belady's
    A, _ = rand_sym(rng, 40, 0.5, 2.0)
    poles = ShiftSequence.cycled([-0.5, -1.0, -1.0, -2.0, -4.0], 25).values()
    alive, _ = _alive_after_each_step(A, rng.standard_normal(40), poles,
                                      factorizations)
    assert max(alive) <= shifts_mod.RESIDENT_FACTORS
    assert len(factorizations) == belady_count(poles, 2) > 4


def test_infinite_poles_neither_count_nor_evict(factorizations, rng):
    # two finite poles interleaved with infinite ones fit in the two
    # resident factors: a, inf and b are each factored once and kept
    A, _ = rand_sym(rng, 30, 0.5, 2.0)
    a, b, inf = -1.0, -3.0, np.inf
    poles = [a, inf, b, inf, a, inf, b, inf, a]
    alive, last = _alive_after_each_step(A, rng.standard_normal(30), poles,
                                         factorizations)
    assert [xi for xi, _ in factorizations] == [a, inf, b]
    assert alive[2:] == [2] * (len(poles) - 2)
    assert last == [a, inf, b]
