"""One benchmark process: set a workload up, then compute, time or trace it.

    python3 bench/worker.py --mode MODE --workload NAME --seed N --seconds S

run.py starts it with the BLAS thread variables pinned to one thread.
Every mode first sets up: imports the package, builds the inputs from
the seed and makes one warm-up call; that time is ``setup_s``.  Then:

- ``reference``: computes the reference outputs the timed calls are
  checked against.  It runs in its own process so that its memory does
  not count towards the measured one.
- ``setup``: nothing more.
- ``memory``: one more call, then reports the process's peak RSS.
- ``measure``: closed-loop calls for S seconds, each timed and checked.
- ``trace``: alternating traced and untraced calls for S seconds, then
  one call under tracemalloc.

``measure`` and ``trace`` read the reference outputs as JSON on stdin.
The last line of stdout is one JSON object.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import tracemalloc
import traceback

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_CALLS = 3

#: spans whose count per call is a layer metric
COUNTED = ("shifts.factorize", "shifts.solve", "sparse.matvec", "sparse.matmat",
           "lanczos.step", "block.step", "arnoldi.step", "dense.qr_thin",
           "dense.matfun", "dense.care_newton", "control.l2_stop_metric")
#: self-time groups reported as one metric each: every workload reaches
#: at least one span of every group, so no time reads zero
SELF_TIME_GROUPS = {
    "shifts.factorize.self_s": ("shifts.factorize",),
    "shifts.solve.self_s": ("shifts.solve",),
    "sparse.apply.self_s": ("sparse.matvec", "sparse.matmat"),
    "step.self_s": ("lanczos.step", "block.step", "arnoldi.step"),
    "dense.self_s": ("dense.qr_thin", "dense.matfun", "dense.care_newton",
                     "control.l2_stop_metric"),
    "call.self_s": ("forms.call", "control.call"),
}


def new_stats():
    return {"call_s": [], "attempted": 0, "failed": 0, "max_err": 0.0,
            "iterations": [], "long_vector_bytes": []}


def timed_call(w, i, reference, stats, tracer=None):
    """Time and check call ``i``; a call that raises or fails its check is
    failed.  Returns the call's outputs as bytes, or None if it raised.

    Only the bytes leave this function: a result held across the next
    call pins freed allocator pages and inflates the peak RSS."""
    stats["attempted"] += 1
    t0 = time.perf_counter()
    try:
        if tracer is None:
            res = w.call(i)
        else:
            with tracer.call(w.top_span):
                res = w.call(i)
        elapsed = time.perf_counter() - t0
        ok, err = w.check(i, res, reference)
    except Exception:
        traceback.print_exc()
        stats["failed"] += 1
        return None
    stats["call_s"].append(elapsed)
    stats["failed"] += not ok
    stats["max_err"] = max(stats["max_err"], err)
    stats["iterations"].append(w.iterations(res))
    stats["long_vector_bytes"].append(w.long_vector_bytes(res))
    return w.outputs(res).tobytes()


def measure(w, reference, seconds):
    """Closed loop: each call starts when the previous one has returned."""
    stats = new_stats()
    start = time.perf_counter()
    i = 0
    while i < MIN_CALLS or time.perf_counter() - start < seconds:
        timed_call(w, i, reference, stats)
        i += 1
    return stats


def layer_metrics(tracer, untraced, traced, py_peak_mb):
    """Per-call layer metrics of the traced calls."""
    count, self_s = tracer.totals()
    n = len(traced["call_s"])
    m = {f"{name}.count": count[name] / n for name in COUNTED}
    m["shifts.factorize.dense_count"] = tracer.counts["shifts.factorize.dense-cholesky"] / n
    m["shifts.factorize.sparse_count"] = tracer.counts["shifts.factorize.sparse-ldl"] / n
    gets = count["shifts.cache.get"]
    m["shifts.cache.get_count"] = gets / n
    m["shifts.cache.hit_ratio"] = 1.0 - count["shifts.factorize"] / gets if gets else 0.0
    m["shifts.solve.rhs_cols"] = tracer.counts["shifts.solve.rhs_cols"] / n
    m["sparse.matmat.cols"] = tracer.counts["sparse.matmat.cols"] / n
    for metric, names in SELF_TIME_GROUPS.items():
        m[metric] = sum(self_s[name] for name in names) / n
    m["solver.iterations"] = statistics.mean(traced["iterations"])
    m["mem.long_vector_bytes"] = statistics.mean(traced["long_vector_bytes"])
    m["mem.py_peak_mb"] = py_peak_mb
    m["trace.overhead_frac"] = (statistics.median(traced["call_s"])
                                / statistics.median(untraced["call_s"]) - 1.0)
    spans = {name: {"count": count[name] / n, "self_s": self_s[name] / n}
             for name in sorted(count)}
    return m, spans


def trace(w, reference, seconds):
    """Pairs of a traced and an untraced call on the same input, for S
    seconds.  Alternating puts both halves of the overhead ratio under
    the same machine load; the traced call goes first, so that it is the
    one that fills a cache emptied by ``cold_start``."""
    import tracing

    w.cold_start()
    tracer = tracing.Tracer()
    before = tracing.bindings()
    traced, untraced = new_stats(), new_stats()
    identical = True
    start = time.perf_counter()
    i = 0
    while i < 2 or time.perf_counter() - start < seconds:
        with tracer.installed():
            out_traced = timed_call(w, i, reference, traced, tracer)
        out_untraced = timed_call(w, i, reference, untraced)
        identical &= out_traced == out_untraced
        i += 1
    restored = all(a is b for a, b in zip(tracing.bindings(), before))

    tracemalloc.start()
    try:
        w.call(0)
        py_peak_mb = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()

    layers, spans = layer_metrics(tracer, untraced, traced, py_peak_mb)
    return {
        "attempted": untraced["attempted"] + traced["attempted"],
        "failed": untraced["failed"] + traced["failed"],
        "max_err": max(untraced["max_err"], traced["max_err"]),
        "calls": {"untraced": len(untraced["call_s"]), "traced": len(traced["call_s"])},
        "restored": restored,
        "bit_identical": identical,
        "layers": layers,
        "spans": spans,
    }


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", required=True,
                    choices=("reference", "setup", "memory", "measure", "trace"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args()
    reference = json.load(sys.stdin) if args.mode in ("measure", "trace") else None

    t0 = time.perf_counter()
    import workloads

    w = workloads.WORKLOADS[args.workload](args.seed)
    w.call(0)
    result = {"setup_s": time.perf_counter() - t0}

    if args.mode == "reference":
        result["reference"] = w.reference()
    elif args.mode == "memory":
        w.call(1)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    elif args.mode == "measure":
        stats = measure(w, reference, args.seconds)
        result.update({key: stats[key] for key in
                       ("call_s", "attempted", "failed", "max_err")})
    elif args.mode == "trace":
        result.update(trace(w, reference, args.seconds))
    if args.mode in ("measure", "trace"):
        result["env"] = environment()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
