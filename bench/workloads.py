"""The benchmark workloads: generated inputs, one pipeline call, its check.

Every workload builds its inputs from the run's seed and hands the
library only those generated inputs.  ``call(i)`` is one pipeline call
on input ``i``; ``reference()`` computes, outside the timed calls, what
``check`` compares each call's output with.

Importing this module puts the checkout's ``src`` first on the path and
refuses any other installed copy of the package.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy.sparse.linalg as spla  # noqa: E402

import ratlanczos  # noqa: E402
from ratlanczos import (FactorizationCache, FormRequest, LtiSystem,  # noqa: E402
                        TraceRequest, eval_control, gen_strakos,
                        gp_precision_matrix, gp_points, hutchinson_trace_arnoldi,
                        logdet, lqr_reduce, lqr_reduce_arnoldi, quad_form,
                        strakos_eigenvalues)
from ratlanczos.cli import lqr_system  # noqa: E402

if Path(ratlanczos.__file__).resolve().parent != ROOT / "src" / "ratlanczos":
    raise ImportError(f"ratlanczos imported from {ratlanczos.__file__}, "
                      f"not from {ROOT / 'src'}")

F64 = 8


def _rng(seed, stream):
    return np.random.Generator(np.random.Philox(
        key=np.array([seed, stream], dtype=np.uint64)))


class Workload:
    """One closed-loop workload; subclasses fill in the pipeline."""

    #: span name of the pipeline call in a traced run
    top_span = "forms.call"

    def cold_start(self):
        """Drop state shared across calls, so the next call starts cold."""

    def outputs(self, result):
        """The values a call returns, compared bit for bit between a traced
        and an untraced call on the same input."""
        raise NotImplementedError

    def check(self, i, result, reference):
        """(passed, error measure) for call ``i`` against ``reference``."""
        raise NotImplementedError

    def iterations(self, result):
        return result.iterations


class QuadFormStrakos(Workload):
    """One ``quad_form`` query per call on the Strakos n = 900 matrix.

    Each query takes a fresh seeded start vector from a pool; all queries
    share one factorization cache, which the warm-up query fills.  The
    matrix is diagonal, so the exact form is a weighted sum.
    """

    name = "quadform-strakos900"
    n = 900
    #: (n, lambda_1, lambda_n, rho) of the spectrum
    spectrum = (n, 0.01, 100, 0.45)
    #: start vectors the queries cycle through
    pool = 256

    def __init__(self, seed):
        self.A = gen_strakos(*self.spectrum)
        self.sqrt_lam = np.sqrt(strakos_eigenvalues(*self.spectrum))
        self.vectors = _rng(seed, 0).standard_normal((self.pool, self.n))
        self.req = FormRequest(f="sqrt", tol=1e-10, s=1, max_m=40)
        self.cold_start()

    def cold_start(self):
        self.cache = FactorizationCache(self.A)

    def call(self, i):
        return quad_form(self.A, self.vectors[i % self.pool], req=self.req,
                         solver_cache=self.cache)

    def outputs(self, result):
        return np.array([result.value])

    def reference(self):
        return [float(v ** 2 @ self.sqrt_lam) for v in self.vectors]

    def check(self, i, result, reference):
        exact = reference[i % self.pool]
        err = abs(result.value - exact) / abs(exact)
        return err <= 1e-8, err

    def long_vector_bytes(self, result):
        return 4 * self.n * F64


class LogDetGp(Workload):
    """Stochastic log-det of a GP precision matrix, n = 10000, 20 probes in
    one block, with the basis-free block recurrence.

    tol = 1e-7 stopped every seed tried at 8 block steps: the lagged
    relative change falls from about 1e-6 to about 3e-8 there.  At the
    default 1e-8 it sits on a plateau, and the step count, with the call
    time, moves between 9 and 11 with the seed.
    """

    name = "logdet-gp10k"
    n = 10000
    p = 20

    def __init__(self, seed):
        self.P = gp_precision_matrix(gp_points(self.n, seed), phi=20, delta=0.02)
        self.req = TraceRequest(num_probes=self.p, block_size=self.p, seed=seed,
                                max_m=40, tol=1e-7)

    def call(self, i):
        return logdet(self.P, self.req)

    def estimate(self, result):
        return result.logdet

    def outputs(self, result):
        return np.concatenate([[self.estimate(result), result.stderr],
                               result.samples])

    def twin(self):
        return hutchinson_trace_arnoldi(self.P, self.req).estimate

    def reference(self):
        lu = spla.splu(self.P.to_scipy().tocsc())
        exact = float(np.sum(np.log(np.abs(lu.U.diagonal()))))
        return [self.twin(), exact]

    def check(self, i, result, reference):
        """Agrees with the other subspace method on the same probes, and
        lies within four standard errors of the exact log-det."""
        twin, exact = reference
        est = self.estimate(result)
        err = abs(est - twin) / abs(twin)
        return err <= 1e-10 and abs(est - exact) <= 4.0 * result.stderr, err

    def long_vector_bytes(self, result):
        return 4 * self.n * self.p * F64


class LogDetGpArnoldi(LogDetGp):
    """``logdet-gp10k`` on the full-basis Arnoldi twin: same probes, half
    the solve columns, a stored basis."""

    name = "logdet-gp10k-arnoldi"

    def call(self, i):
        return hutchinson_trace_arnoldi(self.P, self.req)

    def estimate(self, result):
        return result.estimate

    def twin(self):
        return logdet(self.P, self.req).logdet

    def long_vector_bytes(self, result):
        # Q and A Q, (m + 1) p columns each
        return 2 * self.n * (result.iterations + 1) * self.p * F64


class LqrLaplace(Workload):
    """``lqr_reduce`` on the n = 40000 Laplacian control problem.

    The seed perturbs the flat initial state by up to 25 % per entry;
    the operator, actuation and observation are those of
    ``cli.lqr_system(200)``.
    """

    name = "lqr-laplace40k"
    top_span = "control.call"
    times = (0.0, 0.1, 1.0)

    def __init__(self, seed):
        base = lqr_system(200)
        x0 = base.x0 * (1.0 + 0.25 * _rng(seed, 0).uniform(-1.0, 1.0, base.n))
        self.sys = LtiSystem(A=base.A, B=base.B, C=base.C, R=base.R, x0=x0)

    def call(self, i):
        return lqr_reduce(self.sys, tol=1e-8, s=4)

    def control(self, result):
        return [float(eval_control(result.controller, t)[0]) for t in self.times]

    def outputs(self, result):
        return np.concatenate([self.control(result), result.metric_history,
                               result.controller.Y.ravel()])

    def reference(self):
        return self.control(lqr_reduce_arnoldi(self.sys, tol=1e-8, s=4))

    def check(self, i, result, reference):
        u = np.array(self.control(result))
        ref = np.array(reference)
        err = float(np.max(np.abs(u - ref) / np.abs(ref)))
        return err <= 1e-6, err

    def long_vector_bytes(self, result):
        # four n x p block vectors plus the side rows q_j^T [B, x0]
        p = self.sys.C.shape[0]
        side_cols = self.sys.B.shape[1] + 1
        return (4 * self.sys.n * p + (result.iterations + 1) * p * side_cols) * F64


WORKLOADS = {w.name: w for w in (LqrLaplace, LogDetGp, QuadFormStrakos,
                                 LogDetGpArnoldi)}
