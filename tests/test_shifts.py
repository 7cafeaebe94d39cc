import numpy as np
import pytest

import ratlanczos.shifts as shifts_mod
from ratlanczos import (INFINITY, FactorizationCache, IndefiniteShiftError,
                        Shift, ShiftError, ShiftSequence, SparseSym,
                        default_shifts, shifted_factorize)
from ratlanczos.problems import gen_laplacian2d, gen_strakos
from ratlanczos.sparse import power_iteration

from conftest import rand_sym


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
    A = SparseSym.from_dense(np.diag([-1.0, -2.0]), definiteness_hint="negative")
    F = shifted_factorize(A, Shift(1.0))
    # I - A/1 = diag(2, 3)
    x = F.solve(np.array([2.0, 3.0]))
    assert np.allclose(x, [1.0, 1.0], atol=1e-15)


def _complete_graph_laplacian(rng, n):
    """Negative Laplacian of a complete graph with random weights: n
    entries per row, so ``shifted_factorize`` takes the dense side."""
    W = np.triu(rng.uniform(0.5, 1.0, (n, n)), 1)
    W = W + W.T
    return SparseSym.from_dense(W - np.diag(W.sum(axis=1)),
                                definiteness_hint="negative")


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
    return SparseSym.from_dense(M, definiteness_hint="positive")


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
                           np.linspace(1.0, 2.0, 200),
                           definiteness_hint="positive")
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


def test_sign_check_warns():
    A = SparseSym.from_dense(np.diag([1.0, 2.0]), definiteness_hint="positive")
    seq = ShiftSequence([3.0])      # same sign as spectrum
    with pytest.warns(UserWarning):
        seq.check_sign_against(A)


def test_default_shifts_sign_and_span(rng):
    A, Ad = rand_sym(rng, 30, 1.0, 10.0)
    seq = default_shifts(A, 20)
    assert len(seq) == 20
    vals = seq.values()
    assert np.all(vals < 0)          # opposite sign to a positive spectrum
    neg, _ = rand_sym(rng, 30, -10.0, -1.0)
    seq2 = default_shifts(neg, 5)
    assert np.all(seq2.values() > 0)
    # without a hint, opposite to the dominant eigenvalue's sign
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
