"""Benchmark of the ratlanczos pipelines, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S]

Workloads, metric names and units are the ones ``BENCHMARK.json`` at the
root of the checkout declares.  A run starts fresh Python processes for
the workload (see worker.py), one after another, each with OpenBLAS,
OpenMP and MKL pinned to one thread in its own environment only:

- ``--trace 0``: a reference process, a set-up process, the measuring
  process and a memory process.  ``setup_s`` is the median of the first
  three set-up times; the call times come from the measuring process,
  which runs no tracing.  ``peak_rss_mb`` comes from the memory process,
  which runs with glibc's mmap threshold fixed: its default threshold
  adapts to the sizes freed, which made the peak of ``logdet-gp10k``
  read either about 230 or about 280 MB from run to run.  With it fixed,
  freed factors go back to the system and the peak is the live one.
- ``--trace 1``: a reference process and a tracing process, which reports
  the per-layer metrics.

Every timed call is checked against the reference outputs.  A run prints
a record (environment, sample counts, checks, every metric with its unit
and, when traced, the per-span split), then as its last line one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--workload all`` runs every workload untraced and traced
and prints every metric by name with its unit.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import THREAD_VARS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PINNED_THREADS = {var: "1" for var in THREAD_VARS}
#: the memory process's allocator setting: glibc's default, held fixed
FIXED_MMAP_THRESHOLD = {"MALLOC_MMAP_THRESHOLD_": "131072"}
#: a run, with all its processes, ends within this many seconds
DEADLINE_S = 170.0


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def worker(mode, workload, seed, seconds, deadline, reference=None, env=None):
    """Run one worker process to completion; its last stdout line as JSON."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--mode", mode,
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(
        cmd, cwd=ROOT, env={**os.environ, **PINNED_THREADS, **(env or {})},
        input=json.dumps(reference), stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise SystemExit(f"{mode} process of {workload} exited with code "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_untraced(workload, seed, seconds, deadline):
    ref = worker("reference", workload, seed, seconds, deadline)
    setup = worker("setup", workload, seed, seconds, deadline)
    out = worker("measure", workload, seed, seconds, deadline, ref["reference"])
    memory = worker("memory", workload, seed, seconds, deadline,
                    env=FIXED_MMAP_THRESHOLD)
    calls = out["call_s"]
    if len(calls) < 2:
        raise SystemExit(f"{workload}: {len(calls)} calls completed, need 2")
    setups = [ref["setup_s"], setup["setup_s"], out["setup_s"]]
    metrics = {
        "call_s.p50": statistics.median(calls),
        "call_s.p90": statistics.quantiles(calls, n=10, method="inclusive")[-1],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": memory["peak_rss_mb"],
        "ok_frac": 1.0 - out["failed"] / out["attempted"],
    }
    record = {"samples": {"call_s": len(calls), "setup_s": len(setups)},
              "checks": {"max_err": out["max_err"]}}
    return out, metrics, record, out["failed"] == 0


def run_traced(workload, seed, seconds, deadline):
    ref = worker("reference", workload, seed, seconds, deadline)
    out = worker("trace", workload, seed, seconds, deadline, ref["reference"])
    record = {"samples": out["calls"],
              "checks": {key: out[key] for key in
                         ("max_err", "restored", "bit_identical")},
              "spans": out["spans"]}
    correct = out["failed"] == 0 and out["restored"] and out["bit_identical"]
    return out, out["layers"], record, correct


def run(spec, workload, seed, seconds, traced):
    """One benchmark run: (record, result line)."""
    deadline = time.monotonic() + DEADLINE_S
    runner = run_traced if traced else run_untraced
    out, metrics, record, correct = runner(workload, seed, seconds, deadline)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}
    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} are "
                         "computed or declared, not both")
    metrics = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(traced), "env": out["env"], **record,
              "attempted": out["attempted"], "failed": out["failed"],
              "metrics": metrics}
    result = {"correct": bool(correct), "attempted": out["attempted"],
              "failed": out["failed"], "metrics": metrics}
    return record, result


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if args.workload != "all":
        record, result = run(spec, args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(record, indent=1))
        print(json.dumps(result))
        return

    all_correct = True
    for workload in names:
        for traced in (False, True):
            record, result = run(spec, workload, args.seed, args.seconds, traced)
            all_correct &= result["correct"]
            kind = "traced" if traced else "untraced"
            print(f"# {workload} {kind}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"samples={record['samples']}")
            for name, m in record["metrics"].items():
                print(f"{workload:22s} {name:32s} {m['value']:16.6g} {m['unit']}")
    print(json.dumps({"env": record["env"]}))
    sys.exit(0 if all_correct else 1)


if __name__ == "__main__":
    main()
