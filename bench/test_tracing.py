"""Tests of the benchmark's tracing wrappers on the real workloads.

    python3 -m pytest bench

Makes one untraced and one traced call of every workload (seed 0).
"""

import os

from worker import THREAD_VARS

for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

#: the layers each workload must reach, and no others
EXPECTED = {
    "lqr-laplace40k": {
        "control.call", "shifts.factorize", "shifts.cache.get", "shifts.solve",
        "sparse.matvec", "sparse.matmat", "block.step", "dense.qr_thin",
        "dense.care_newton", "control.l2_stop_metric"},
    "logdet-gp10k": {
        "forms.call", "shifts.factorize", "shifts.cache.get", "shifts.solve",
        "sparse.matvec", "sparse.matmat", "block.step", "dense.qr_thin",
        "dense.matfun"},
    "quadform-strakos900": {
        "forms.call", "shifts.factorize", "shifts.cache.get", "shifts.solve",
        "sparse.matvec", "lanczos.step", "dense.matfun"},
    "logdet-gp10k-arnoldi": {
        "forms.call", "shifts.factorize", "shifts.cache.get", "shifts.solve",
        "sparse.matvec", "sparse.matmat", "arnoldi.step", "dense.qr_thin",
        "dense.matfun"},
}

#: one span name per binding site, so that sites sharing a layer name
#: (the two thin-QR and the two f(J) bindings) are told apart
SITE_NAMES = tuple(f"{mod}.{cls or ''}.{attr}" for mod, cls, attr, _ in tracing.SITES)
LAYER_OF = {site: layer for site, (*_, layer) in zip(SITE_NAMES, tracing.SITES)}


@pytest.fixture(scope="module")
def runs():
    """Per workload: (untraced outputs, traced outputs, spans fired,
    bindings before, bindings after)."""
    per_site = tuple((mod, cls, attr, site)
                     for (mod, cls, attr, _), site in zip(tracing.SITES, SITE_NAMES))
    out = {}
    for name, cls in workloads.WORKLOADS.items():
        w = cls(0)
        untraced = w.outputs(w.call(0))
        w.cold_start()
        before = tracing.bindings()
        tracer = tracing.Tracer()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tracing, "SITES", per_site)
            with tracer.installed():
                with tracer.call(w.top_span):
                    traced = w.outputs(w.call(0))
        count, _ = tracer.totals()
        fired = {span for span, c in count.items() if c}
        out[name] = (untraced, traced, fired, before, tracing.bindings())
    return out


def test_every_wrapper_fires_where_assigned(runs):
    fired_sites = set()
    for name, (_, _, fired, _, _) in runs.items():
        layers = {LAYER_OF.get(span, span) for span in fired}
        assert layers == EXPECTED[name], name
        fired_sites |= fired
    assert fired_sites >= set(SITE_NAMES)


def test_patched_attributes_restored(runs):
    for name, (_, _, _, before, after) in runs.items():
        assert all(a is b for a, b in zip(after, before)), name


def test_attributes_restored_after_a_failing_call():
    before = tracing.bindings()
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer().installed():
            assert tracing.bindings() != before
            1 / 0
    assert all(a is b for a, b in zip(tracing.bindings(), before))


def test_traced_results_bit_identical(runs):
    for name, (untraced, traced, _, _, _) in runs.items():
        assert untraced.tobytes() == traced.tobytes(), name


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    # call 1: a 1.0 s parent holding children of 0.25 s and 0.5 s, the
    # second with a 0.125 s grandchild
    tracer.spans = [("call", 0.0, 1.0, -1, 1), ("solve", 0.0, 0.25, 0, 1),
                    ("step", 0.5, 1.0, 0, 1), ("solve", 0.5, 0.625, 2, 1)]
    count, self_s = tracer.totals()
    assert dict(count) == {"call": 1, "solve": 2, "step": 1}
    assert self_s == {"call": 0.25, "solve": 0.375, "step": 0.375}
