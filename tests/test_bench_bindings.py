"""The library names the benchmark in ``bench/`` binds to.

``bench/workloads.py`` imports pipeline functions by name and
``bench/tracing.py`` wraps the attributes listed in ``SITES``; a refactor
that moves or drops one of them breaks the benchmark, so it fails here.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402,F401  (imports the pipeline names it calls)


def test_every_traced_site_resolves():
    bound = tracing.bindings()
    assert len(bound) == len(tracing.SITES)
    for (module, cls, attr, _), obj in zip(tracing.SITES, bound):
        assert callable(obj), ".".join(filter(None, (module, cls, attr)))



def test_factorization_labels_counted_by_worker():
    """``bench/worker.py`` counts dense and sparse factorizations by the
    ``method`` label of ``shifted_factorize``: an operator on each side of
    the solver choice must carry a label the worker reads."""
    import numpy as np

    from ratlanczos import Shift, shifted_factorize
    from ratlanczos.problems import gen_laplacian2d

    from conftest import rand_sym

    dense, _ = rand_sym(np.random.default_rng(0), 40, 1.0, 2.0)
    worker = (BENCH / "worker.py").read_text()
    for A, xi, label in ((dense, -1.0, "dense-cholesky"),
                         (gen_laplacian2d(20), 1.0, "sparse-ldl")):
        assert shifted_factorize(A, Shift(xi)).method == label
        assert f'"shifts.factorize.{label}"' in worker
