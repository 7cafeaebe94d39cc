import numpy as np
import pytest

from ratlanczos.problems import (gen_indicator, gen_laplacian2d, gen_strakos,
                                 gp_points, grid_coords, strakos_eigenvalues)
from ratlanczos.shifts import default_shifts


def test_laplacian_3x3_stencil():
    A = gen_laplacian2d(3)
    assert A.n == 9
    Ad = A.to_dense()
    center = 4                      # node (1, 1)
    assert Ad[center, center] == -1.0
    off = Ad[center].copy()
    off[center] = 0.0
    assert sorted(off[off != 0.0]) == [0.25, 0.25, 0.25, 0.25]


def test_laplacian_negative_definite():
    A = gen_laplacian2d(8)
    lam = np.linalg.eigvalsh(A.to_dense())
    assert lam.max() < 0.0
    assert np.all(default_shifts(A, 12).values() > 0.0)


def test_laplacian_large_dimension():
    A = gen_laplacian2d(200)
    assert A.n == 40000
    with pytest.raises(ValueError):
        gen_laplacian2d(2)


def test_strakos_endpoints_exact():
    lam = strakos_eigenvalues(900, 0.01, 100.0, 0.45)
    assert lam[0] == 0.01
    assert lam[-1] == 100.0


def test_strakos_matches_scripted_formula():
    n, l1, ln, rho = 900, 0.01, 100.0, 0.45
    A = gen_strakos(n, l1, ln, rho)
    diag = A.to_dense().diagonal()
    ref = np.array([l1 + (i - 1) / (n - 1) * (ln - l1) * rho ** (n - i)
                    for i in range(1, n + 1)])
    assert np.abs(diag - ref).max() <= 1e-15 * ln


def test_strakos_validation():
    with pytest.raises(ValueError):
        gen_strakos(10, 0.01, 100.0, 0.0)
    with pytest.raises(ValueError):
        gen_strakos(10, 100.0, 0.01, 0.5)
    A = gen_strakos(10, 0.01, 100.0, 0.5)
    assert np.all(default_shifts(A, 12).values() < 0.0)


def test_indicator_full_and_empty():
    assert np.array_equal(gen_indicator(5, ((0.0, 1.0), (0.0, 1.0))),
                          np.ones(25))
    # inverted bounds select nothing
    assert np.array_equal(gen_indicator(5, ((0.6, 0.4), (0.0, 1.0))),
                          np.zeros(25))
    with pytest.raises(ValueError):
        gen_indicator(5, ((-0.1, 0.5), (0.0, 1.0)))


def test_indicator_count_matches_grid_enumeration():
    nbar = 10
    box = ((0.2, 0.8), (0.2, 0.8))
    ind = gen_indicator(nbar, box)
    xy = grid_coords(nbar)
    count = sum(1 for x, y in xy
                if 0.2 <= x <= 0.8 and 0.2 <= y <= 0.8)
    assert int(ind.sum()) == count
    per_axis = sum(1 for i in range(nbar) if 0.2 <= i / (nbar - 1) <= 0.8)
    assert count == per_axis ** 2


def test_gp_points_reproducible():
    p1 = gp_points(100, seed=3)
    p2 = gp_points(100, seed=3)
    assert np.array_equal(p1, p2)
    assert p1.shape == (100, 2)
    assert p1.min() >= 0.0 and p1.max() <= 1.0
    assert not np.array_equal(p1, gp_points(100, seed=4))


@pytest.mark.parametrize("n", [0, 1])
def test_strakos_refuses_fewer_than_two_points(n):
    with pytest.raises(ValueError, match=f"n = {n}"):
        gen_strakos(n, 0.01, 100.0, 0.45)
