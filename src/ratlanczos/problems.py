"""Test-problem generators used by the experiment harness."""

import numpy as np
import scipy.sparse as sp

from .sparse import SparseSym


def gen_laplacian2d(nbar) -> SparseSym:
    """Five-point Laplacian on the unit square, scaled by 1/(nbar-1)^2.

    A = (T kron I + I kron T) / (nbar - 1)^2 with T = tridiag(1, -2, 1)
    of order nbar; n = nbar^2, symmetric negative definite.  Grid node
    k maps to (ix, iy) = (k // nbar, k % nbar) with coordinates
    (ix, iy) / (nbar - 1).
    """
    if nbar < 3:
        raise ValueError("nbar must be >= 3")
    T = sp.diags([np.ones(nbar - 1), -2.0 * np.ones(nbar), np.ones(nbar - 1)],
                 [-1, 0, 1], format="csr")
    I = sp.identity(nbar, format="csr")
    A = (sp.kron(T, I) + sp.kron(I, T)).tocsr() / (nbar - 1) ** 2
    return SparseSym._from_scipy(A)


def grid_coords(nbar):
    """Coordinates of the gen_laplacian2d grid nodes, in node order."""
    idx = np.arange(nbar * nbar)
    h = 1.0 / (nbar - 1)
    return np.column_stack([(idx // nbar) * h, (idx % nbar) * h])


def gen_indicator(nbar, box):
    """0/1 vector marking the grid nodes inside the closed box.

    ``box`` is ((x_lo, x_hi), (y_lo, y_hi)) with the box inside the unit
    square; node ordering matches gen_laplacian2d.
    """
    (xlo, xhi), (ylo, yhi) = box
    for lo, hi in ((xlo, xhi), (ylo, yhi)):
        if not (0.0 <= lo and hi <= 1.0):
            raise ValueError("box must lie inside the unit square")
    xy = grid_coords(nbar)
    inside = ((xy[:, 0] >= xlo) & (xy[:, 0] <= xhi)
              & (xy[:, 1] >= ylo) & (xy[:, 1] <= yhi))
    return inside.astype(float)


def gen_strakos(n, lam1, lamn, rho) -> SparseSym:
    """Diagonal matrix with geometrically clustered eigenvalues.

    lambda_i = lam1 + (i-1)/(n-1) * (lamn - lam1) * rho^(n-i); rho close
    to one spreads the values almost uniformly, small rho clusters them
    near lam1 with a few isolated large ones.  A standard stressor for
    short-recurrence orthogonality loss.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got n = {n}")
    if not 0.0 < rho <= 1.0:
        raise ValueError("rho must be in (0, 1]")
    if not lam1 < lamn:
        raise ValueError("lam1 must be below lamn")
    i = np.arange(1, n + 1, dtype=float)
    lam = lam1 + (i - 1.0) / (n - 1.0) * (lamn - lam1) * rho ** (n - i)
    idx = np.arange(n)
    return SparseSym.from_coo(n, idx, idx, lam)


def strakos_eigenvalues(n, lam1, lamn, rho):
    i = np.arange(1, n + 1, dtype=float)
    return lam1 + (i - 1.0) / (n - 1.0) * (lamn - lam1) * rho ** (n - i)


def gp_points(n, seed=0):
    """n uniform points in the unit square from a counter-based stream."""
    g = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    return g.random((n, 2))
