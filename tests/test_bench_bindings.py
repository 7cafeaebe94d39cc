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

