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


#: ``method`` labels of a served pole that ``bench/worker.py`` does not
#: count as a factorization: an infinite pole costs nothing, and a pole
#: the cache iterates makes no factor until it goes to ``sparse-ldl``
UNCOUNTED_LABELS = {"identity", "cg"}


def test_factorization_labels_counted_by_worker():
    """Every ``method`` label a served pole can carry is either one
    ``bench/worker.py`` counts, read as text, or listed as uncounted, so
    a new label cannot silently vanish from the per-layer counts.  The
    operators below reach every label: dense and sparse sides of the
    solver choice, an infinite pole, and the cache's iterated pole."""
    import numpy as np

    from ratlanczos import INFINITY, FactorizationCache, Shift
    from ratlanczos.problems import gen_laplacian2d

    from conftest import rand_sym

    dense, _ = rand_sym(np.random.default_rng(0), 40, 1.0, 2.0)
    lap = gen_laplacian2d(20)
    worker = (BENCH / "worker.py").read_text()
    cache = FactorizationCache(lap)
    iterated = cache.get(cache.default_shifts(1)[0])
    served = {FactorizationCache(dense).get(Shift(-1.0)).method,
              cache.get(Shift(1.0)).method, cache.get(INFINITY).method,
              iterated.method}
    iterated.solve(np.ones((lap.n, 40)))
    served.add(iterated.method)
    assert served == {"dense-cholesky", "sparse-ldl", "identity", "cg"}
    for label in served - UNCOUNTED_LABELS:
        assert f'"shifts.factorize.{label}"' in worker
