"""Experiment command line: generators, dataset ingestion and the study
subcommands, with machine-readable CSV/JSON outputs.

Every experiment writes a per-iteration CSV (versioned header comment,
RFC-4180 body, 17 significant digits) and a JSON summary echoing its
configuration.  Same configuration and seed give byte-identical CSV.
"""

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from . import __version__
from .control import (LtiSystem, ParametricIO, eval_control, h2_norm,
                      h2_norm_arnoldi, h2_param_norm, lqr_reduce,
                      lqr_reduce_arnoldi, system_from_descriptor)
from .dense import _eval_on_spectrum, matfun_action_e1
from .errors import RatLanczosError
from .forms import (FormRequest, TraceRequest, bilinear_form, gp_precision_matrix,
                    hutchinson_trace, hutchinson_trace_arnoldi, quad_form,
                    quad_form_arnoldi)
from .io import read_matrix_market, write_matrix_market
from .lanczos import diagnostics, run
from .problems import (gen_indicator, gen_laplacian2d, gen_strakos, gp_points,
                       strakos_eigenvalues)
from .shifts import ShiftSequence, default_shifts
from .sparse import SparseSym

CSV_SCHEMA = "ratlanczos-csv v1"
OUTDIR_ENV = "RATLANCZOS_OUTDIR"


# ---------------------------------------------------------------------------
# output plumbing

def _fmt(x):
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return "nan"
    return format(float(x), ".16e")


def _cell(x):
    if isinstance(x, bool):
        return str(x)
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return _fmt(x)
    return str(x)


def write_csv(path, name, header, rows):
    """RFC-4180 CSV with a leading versioned comment line; floats carry
    17 significant digits so reruns are byte-comparable."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# {CSV_SCHEMA} {name}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(x) for x in row) + "\n")


def write_summary(path, experiment, config, results):
    if not isinstance(config, dict):
        config = vars(config)
    config = {k: v for k, v in config.items() if k != "func"}
    payload = {
        "experiment": experiment,
        "version": __version__,
        "config": config,
        "results": results,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return str(obj)


def resolve_outdir(args):
    out = args.outdir or os.environ.get(OUTDIR_ENV) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def parse_shifts(spec_str, max_m):
    if not spec_str:
        return None
    vals = []
    for tok in spec_str.split(","):
        tok = tok.strip()
        if not tok:
            continue
        vals.append(math.inf if tok.lower() in ("inf", "+inf", "infinity")
                    else (-math.inf if tok.lower() == "-inf" else float(tok)))
    return ShiftSequence.cycled(vals, max_m)


def _matrix_from_args(args):
    """Operator selection shared by biform/fpa: a Matrix Market file or a
    named generator."""
    if getattr(args, "matrix", None):
        A = read_matrix_market(args.matrix)
        if args.diag_shift:
            M = A.to_scipy() + args.diag_shift * sp.identity(A.n, format="csr")
            hint = "negative" if args.diag_shift < 0 else "unknown"
            A = SparseSym._from_scipy(M.tocsr(), hint)
        return A
    if args.gen == "strakos":
        return gen_strakos(args.n, args.lam1, args.lamn, args.rho)
    if args.gen == "laplacian2d":
        return gen_laplacian2d(args.nbar)
    raise ValueError("no operator: pass --matrix or --gen")


def _run_compared(args, outdir, name, header, rows, summary, pipeline, twin):
    """Run ``pipeline()``, write ``<name>.csv`` from ``rows(result)`` and
    collect ``summary(result)`` with the wall time.  Under ``--compare``
    the full-basis ``twin()`` goes through the same two functions into
    ``<name>_arnoldi.csv`` and ``results["arnoldi"]``; a string ``twin``
    says why there is none and is recorded as a note.

    Returns (result, twin result or None, results).
    """
    def one(call, csv_name):
        t0 = time.perf_counter()
        res = call()
        wall = time.perf_counter() - t0
        write_csv(outdir / csv_name, name, header, rows(res))
        return res, {**summary(res), "wall_time_s": wall}

    res, results = one(pipeline, f"{name}.csv")
    ares = None
    if args.compare:
        if isinstance(twin, str):
            results["arnoldi"] = {"note": twin}
        else:
            ares, results["arnoldi"] = one(twin, f"{name}_arnoldi.csv")
    return res, ares, results


def _status(res):
    """Iteration count and stopping status of a pipeline result."""
    return {"iterations": res.iterations, "converged": res.converged,
            "termination": "converged" if res.converged else "max-iterations"}


def _rel_change_rows(history, s):
    """(iteration, value, change relative to the value s steps back)."""
    rows = []
    for j, val in enumerate(history, start=1):
        rel = math.nan
        if j - 1 >= s and val != 0.0:
            rel = abs(val - history[j - 1 - s]) / abs(val)
        rows.append((j, val, rel))
    return rows


def _unit_vector(n, index=None, seed=0):
    if index is not None:
        v = np.zeros(n)
        v[index] = 1.0
        return v
    g = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    v = g.standard_normal(n)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# subcommands

def cmd_biform(args):
    outdir = resolve_outdir(args)
    A = _matrix_from_args(args)
    n = A.n
    v = _unit_vector(n, args.index, args.seed)
    u = v if args.index2 is None else _unit_vector(n, args.index2, args.seed + 1)
    strategy = args.strategy
    if strategy == "auto":
        strategy = "quadratic" if args.index2 is None else "block2x2"
    req = FormRequest(f=args.f, strategy=strategy, tol=args.tol, s=args.s,
                      max_m=args.max_m, stopping_rule=args.stopping_rule)
    shifts = parse_shifts(args.shifts, args.max_m)

    oracle = None
    if args.oracle == "dense" or (args.oracle == "auto" and n <= 2000):
        lam, V = np.linalg.eigh(A.to_dense())
        flam = _eval_on_spectrum(lam, args.f)
        oracle = float((V.T @ u) @ (flam * (V.T @ v)))

    def rows(res):
        if strategy == "quadratic":
            history, bounds = res.history, res.residual_bounds
        else:
            history = res.history if res.history is not None else [res.value]
            bounds = ()
        return [(j, val, math.nan if oracle is None else abs(val - oracle),
                 bounds[j - 1] if j - 1 < len(bounds) else math.nan)
                for j, val in enumerate(history, start=1)]

    def summary(res):
        term = res.termination if strategy == "quadratic" else strategy
        return {"value": res.value, "iterations": res.iterations,
                "termination": str(term), "oracle": oracle,
                "default_shifts_used": shifts is None}

    if strategy == "quadratic":
        pipeline = lambda: quad_form(A, v, shifts, req)
        twin = lambda: quad_form_arnoldi(A, v, shifts, req)
    else:
        pipeline = lambda: bilinear_form(A, u, v, shifts, req)
        twin = "comparison implemented for the quadratic strategy"
    _, _, results = _run_compared(
        args, outdir, "biform",
        ["iteration", "value", "error_vs_oracle", "residual_bound"],
        rows, summary, pipeline, twin)
    write_summary(outdir / "biform.json", "biform", vars(args), results)
    return 0


def cmd_trace(args):
    outdir = resolve_outdir(args)
    pts = gp_points(args.n, seed=args.pts_seed)
    A = gp_precision_matrix(pts, phi=args.phi, delta=args.delta)
    shifts = parse_shifts(args.shifts, args.max_m)
    req = TraceRequest(f=args.f, num_probes=args.probes, block_size=args.p,
                       seed=args.seed, shifts=shifts, tol=args.tol, s=args.s,
                       max_m=args.max_m)
    oracle = None
    if args.oracle == "dense" or (args.oracle == "auto" and args.n <= 2000):
        lam = np.linalg.eigvalsh(A.to_dense())
        oracle = float(np.sum(_eval_on_spectrum(lam, args.f)))

    def rows(tr):
        return [(j, est, math.nan if oracle is None else abs(est - oracle))
                for j, est in enumerate(tr.history, start=1)]

    def summary(tr):
        return {"estimate": tr.estimate, "stderr": tr.stderr, **_status(tr),
                "nnz": A.nnz, "oracle": oracle,
                "default_shifts_used": shifts is None}

    _, _, results = _run_compared(
        args, outdir, "trace", ["iteration", "estimate", "error_vs_oracle"],
        rows, summary, lambda: hutchinson_trace(A, req),
        lambda: hutchinson_trace_arnoldi(A, req))
    write_summary(outdir / "trace.json", "trace", vars(args), results)
    return 0


def _demo_system():
    A = SparseSym.from_dense(np.diag([-1.0, -2.0]), definiteness_hint="negative")
    return LtiSystem(A=A, B=np.array([1.0, 0.0]), C=np.array([[1.0, 0.0]]))


def cmd_h2(args):
    outdir = resolve_outdir(args)
    if args.demo:
        sys_ = _demo_system()
    elif args.descriptor:
        sys_ = system_from_descriptor(args.descriptor)
    else:
        raise ValueError("pass --descriptor or --demo")
    shifts = parse_shifts(args.shifts, args.max_m)
    _, _, results = _run_compared(
        args, outdir, "h2", ["iteration", "norm", "rel_change"],
        lambda res: _rel_change_rows(res.history, args.s),
        lambda res: {"norm": res.norm, **_status(res),
                     "seeded_with": res.seeded_with,
                     "default_shifts_used": res.default_shifts_used},
        lambda: h2_norm(sys_, shifts, tol=args.tol, s=args.s, max_m=args.max_m),
        lambda: h2_norm_arnoldi(sys_, shifts, tol=args.tol, s=args.s,
                                max_m=args.max_m))
    write_summary(outdir / "h2.json", "h2", vars(args), results)
    return 0


def _named_param_form(spec_str, size):
    """Named parameter maps for the CLI: zero, one, linear, const:<v>."""
    if spec_str == "zero":
        return lambda mu: np.zeros((size, size))
    if spec_str == "one":
        return lambda mu: np.eye(size)
    if spec_str == "linear":
        return lambda mu: float(mu) * np.eye(size)
    if spec_str.startswith("const:"):
        c = float(spec_str.split(":", 1)[1])
        return lambda mu: c * np.eye(size)
    raise ValueError(f"unknown parameter form {spec_str!r}")


def cmd_h2param(args):
    outdir = resolve_outdir(args)
    if not args.demo:
        raise ValueError("pass --demo")
    sys_ = _demo_system()
    B1 = sys_.B
    B2 = np.array([[0.0], [1.0]])
    C1 = sys_.C
    C2 = np.array([[0.0, 1.0]])
    A = sys_.A
    nodes = np.linspace(args.mu_min, args.mu_max, args.mu_nodes)
    # trapezoid weights over the node grid
    if nodes.size == 1:
        weights = np.array([1.0])
    else:
        h = np.diff(nodes)
        weights = np.zeros(nodes.size)
        weights[:-1] += 0.5 * h
        weights[1:] += 0.5 * h
    pio = ParametricIO(B1=B1, B2=B2, C1=C1, C2=C2,
                       b=_named_param_form(args.b_form, B1.shape[1]),
                       c=_named_param_form(args.c_form, C1.shape[0]),
                       nodes=list(nodes), weights=weights)
    shifts = parse_shifts(args.shifts, args.max_m)
    _, _, results = _run_compared(
        args, outdir, "h2param", ["iteration", "norm", "rel_change"],
        lambda res: _rel_change_rows(res.history, args.s),
        lambda res: {"norm": res.norm, **_status(res), "nodes": list(nodes),
                     "default_shifts_used": res.default_shifts_used},
        lambda: h2_param_norm(A, pio, shifts, tol=args.tol, s=args.s,
                              max_m=args.max_m),
        "no full-basis twin for the parametric H2 norm")
    write_summary(outdir / "h2param.json", "h2param", vars(args), results)
    return 0


def lqr_system(nbar, scaling="physical"):
    """The distributed-control test problem on the unit square: 5-point
    Laplacian operator, box-indicator actuation and observation, unit
    control weight and a flat initial state.

    ``scaling`` picks the operator normalization: "physical" multiplies
    the stencil by (nbar-1)^2 (the 1/h^2 finite-difference Laplacian),
    "inverse-grid" divides by (nbar-1)^2.
    """
    A = gen_laplacian2d(nbar)
    if scaling == "physical":
        A = SparseSym._from_scipy(A.to_scipy() * float(nbar - 1) ** 4,
                                  definiteness_hint="negative")
    elif scaling != "inverse-grid":
        raise ValueError(f"unknown scaling {scaling!r}")
    n = A.n
    B = gen_indicator(nbar, ((0.2, 0.8), (0.2, 0.8)))
    C = gen_indicator(nbar, ((0.1, 0.9), (0.1, 0.9)))
    x0 = np.ones(n) / (nbar - 1)
    return LtiSystem(A=A, B=B, C=C.reshape(1, -1), R=np.array([[1.0]]), x0=x0)


def cmd_lqr(args):
    outdir = resolve_outdir(args)
    sys_ = lqr_system(args.nbar, scaling=args.scaling)
    shifts = parse_shifts(args.shifts, args.max_m)
    tsamples = [0.0, 0.1, 1.0]
    res, ares, results = _run_compared(
        args, outdir, "lqr", ["iteration", "l2_metric"],
        lambda r: list(enumerate(r.metric_history, start=1)),
        lambda r: {**_status(r), "default_shifts_used": r.default_shifts_used,
                   "u_samples": {str(t): eval_control(r.controller, t).tolist()
                                 for t in tsamples}},
        lambda: lqr_reduce(sys_, shifts, tol=args.tol, s=args.s,
                           max_m=args.max_m),
        lambda: lqr_reduce_arnoldi(sys_, shifts, tol=args.tol, s=args.s,
                                   max_m=args.max_m))
    if ares is not None:
        agree = {}
        for t in tsamples:
            uL = eval_control(res.controller, t)
            uA = eval_control(ares.controller, t)
            denom = np.linalg.norm(uA)
            agree[str(t)] = float(np.linalg.norm(uL - uA) / denom) if denom \
                else float(np.linalg.norm(uL - uA))
        results["arnoldi"]["control_relative_difference"] = agree
    write_summary(outdir / "lqr.json", "lqr", vars(args), results)
    return 0


def cmd_fpa(args):
    outdir = resolve_outdir(args)
    A = gen_strakos(args.n, args.lam1, args.lamn, args.rho)
    v = _unit_vector(args.n, None, args.seed)
    shifts = parse_shifts(args.shifts, args.m)
    if shifts is None:
        shifts = default_shifts(A, args.m)
    t0 = time.perf_counter()
    res = run(A, v, shifts, args.m, retain_basis=True)
    rep = diagnostics(A, res, f=args.f)
    lam = strakos_eigenvalues(args.n, args.lam1, args.lamn, args.rho)
    exact = float(np.sum(v ** 2 * _eval_on_spectrum(lam, args.f)))
    rows = []
    for j in range(1, res.m + 1):
        w = matfun_action_e1(res.J[:j, :j], args.f)
        val = res.norm_v ** 2 * w[0]
        # error of the ideal iterate and of the basis-aware bilinear form
        q1Qj = res.basis[:, 0] @ res.basis[:, :j]
        true_val = res.norm_v ** 2 * float(q1Qj @ w)
        rows.append((j, val, abs(val - exact), abs(true_val - exact),
                     rep.orth_loss[j - 1], rep.ritz_values[j - 1],
                     rep.ritz_residuals[j - 1]))
    wall = time.perf_counter() - t0
    write_csv(outdir / "fpa.csv", "fpa",
              ["iteration", "value", "error", "error_q1Q", "orth_loss",
               "ritz_value", "ritz_residual"], rows)
    comp_rows = [(l + 1, rep.component_q1Q[l], rep.component_fJe1[l],
                  rep.component_products[l]) for l in range(res.m)]
    write_csv(outdir / "fpa_components.csv", "fpa_components",
              ["ell", "q1Q_deviation", "fJe1", "product"], comp_rows)
    write_summary(outdir / "fpa.json", "fpa", vars(args),
                  {"final_error": rows[-1][2], "orth_loss": rep.orth_loss[-1],
                   "max_component_product": float(rep.component_products.max()),
                   "iterations": res.m, "termination": res.termination,
                   "wall_time_s": wall})
    return 0


def cmd_normalize(args):
    A = read_matrix_market(args.infile) if args.symmetric_input \
        else _read_general_symmetrized(args.infile)
    M = A.to_scipy()
    if args.symmetric:
        deg = np.asarray(np.abs(M).sum(axis=1)).ravel()
        deg[deg == 0.0] = 1.0
        d = 1.0 / np.sqrt(deg)
        M = sp.diags(d) @ M @ sp.diags(d)
    if args.shift:
        M = M + args.shift * sp.identity(M.shape[0], format="csr")
    hint = "negative" if args.shift and args.shift <= -2.0 else "unknown"
    out = SparseSym._from_scipy(M.tocsr(), hint)
    write_matrix_market(out, args.outfile)
    print(f"wrote {args.outfile}: n={out.n} nnz={out.nnz}")
    return 0


def _read_general_symmetrized(path):
    import scipy.io as sio
    M = sio.mmread(str(path)).tocsr()
    M = M.maximum(M.T)
    return SparseSym._from_scipy(M)


def cmd_sweep(args):
    manifest = json.loads(Path(args.manifest).read_text())
    runs = manifest["runs"] if isinstance(manifest, dict) else manifest
    base = resolve_outdir(args)
    jobs = []
    for k, argv in enumerate(runs):
        rundir = base / f"run_{k:04d}"
        rundir.mkdir(parents=True, exist_ok=True)
        jobs.append((k, list(argv) + ["--outdir", str(rundir)]))
    if args.jobs > 1:
        import multiprocessing as mp
        with mp.Pool(args.jobs) as pool:
            codes = pool.map(_sweep_one, jobs)
    else:
        codes = [_sweep_one(j) for j in jobs]
    bad = [i for i, c in enumerate(codes) if c != 0]
    if bad:
        print(f"sweep: {len(bad)} of {len(codes)} runs failed: {bad}",
              file=sys.stderr)
        return 1
    print(f"sweep: {len(codes)} runs completed in {base}")
    return 0


def _sweep_one(job):
    """Run one manifest entry.  Any exception of the run, expected or
    not, is reported as ``main``'s JSON error record plus the run index."""
    k, argv = job
    try:
        return _run(build_parser().parse_args(argv), Exception, run=k)
    except SystemExit as exc:
        return int(exc.code or 0)


# ---------------------------------------------------------------------------
# argument wiring

def _add_common(p, tol=1e-8, s=1, max_m=60):
    p.add_argument("--outdir", default=None,
                   help=f"output directory (default: ${OUTDIR_ENV} or cwd)")
    p.add_argument("--shifts", default=None,
                   help="comma-separated poles, cycled; 'inf' allowed "
                        "(default: automatic log-spaced poles)")
    p.add_argument("--tol", type=float, default=tol)
    p.add_argument("--s", type=int, default=s, help="stopping lag")
    p.add_argument("--max-m", type=int, default=max_m)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--compare", action="store_true",
                   help="also run the full-basis method and report both")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="ratlanczos",
        description="Short-recurrence rational Lanczos experiments")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("biform", help="quadratic/bilinear form of f(A)")
    p.add_argument("--matrix", help="Matrix Market file for A")
    p.add_argument("--diag-shift", type=float, default=0.0,
                   help="add c*I to the loaded matrix")
    p.add_argument("--gen", choices=["strakos", "laplacian2d"])
    p.add_argument("--n", type=int, default=900)
    p.add_argument("--lam1", type=float, default=0.01)
    p.add_argument("--lamn", type=float, default=100.0)
    p.add_argument("--rho", type=float, default=0.45)
    p.add_argument("--nbar", type=int, default=50)
    p.add_argument("--f", default="exp")
    p.add_argument("--index", type=int, default=None,
                   help="use e_i as the vector (default: seeded random unit)")
    p.add_argument("--index2", type=int, default=None,
                   help="second index for a bilinear form")
    p.add_argument("--strategy", default="auto",
                   choices=["auto", "quadratic", "polarization", "oblique",
                            "block2x2"])
    p.add_argument("--stopping-rule", default="iterate-difference",
                   choices=["iterate-difference", "residual-bound", "both"])
    p.add_argument("--oracle", default="auto", choices=["auto", "dense", "none"])
    _add_common(p)
    p.set_defaults(func=cmd_biform)

    p = sub.add_parser("trace", help="stochastic trace of f(A) on the "
                                     "planar GP precision matrix")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--phi", type=float, default=20.0)
    p.add_argument("--delta", type=float, default=0.02)
    p.add_argument("--pts-seed", type=int, default=7)
    p.add_argument("--probes", type=int, default=20)
    p.add_argument("--p", type=int, default=20, help="probe block size")
    p.add_argument("--f", default="log")
    p.add_argument("--oracle", default="auto", choices=["auto", "dense", "none"])
    _add_common(p, max_m=40)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("h2", help="H2 norm of an LTI system")
    p.add_argument("--descriptor", help="system descriptor file")
    p.add_argument("--demo", action="store_true",
                   help="built-in 2x2 system with norm sqrt(1/2)")
    _add_common(p, max_m=80)
    p.set_defaults(func=cmd_h2)

    p = sub.add_parser("h2param", help="parametric H2 norm (quadrature)")
    p.add_argument("--demo", action="store_true")
    p.add_argument("--b-form", default="linear",
                   help="parameter map for B: zero|one|linear|const:<v>")
    p.add_argument("--c-form", default="zero")
    p.add_argument("--mu-min", type=float, default=0.0)
    p.add_argument("--mu-max", type=float, default=1.0)
    p.add_argument("--mu-nodes", type=int, default=5)
    _add_common(p, max_m=80)
    p.set_defaults(func=cmd_h2param)

    p = sub.add_parser("lqr", help="reduced LQR feedback on the "
                                   "distributed-control Laplacian problem")
    p.add_argument("--nbar", type=int, default=200)
    p.add_argument("--scaling", default="physical",
                   choices=["physical", "inverse-grid"])
    _add_common(p, tol=1e-8, s=4, max_m=60)
    p.set_defaults(func=cmd_lqr)

    p = sub.add_parser("fpa", help="finite-precision study on the "
                                   "clustered-spectrum diagonal matrix")
    p.add_argument("--n", type=int, default=900)
    p.add_argument("--lam1", type=float, default=0.01)
    p.add_argument("--lamn", type=float, default=100.0)
    p.add_argument("--rho", type=float, default=0.45)
    p.add_argument("--m", type=int, default=30)
    p.add_argument("--f", default="sqrt")
    p.add_argument("--outdir", default=None)
    p.add_argument("--shifts", default=None)
    p.add_argument("--seed", type=int, default=11)
    p.set_defaults(func=cmd_fpa)

    p = sub.add_parser("normalize", help="preprocess a Matrix Market file "
                                         "(symmetric normalization, shift)")
    p.add_argument("infile")
    p.add_argument("outfile")
    p.add_argument("--symmetric", action="store_true",
                   help="apply D^-1/2 A D^-1/2 degree normalization")
    p.add_argument("--symmetric-input", action="store_true",
                   help="input is already symmetric storage")
    p.add_argument("--shift", type=float, default=0.0,
                   help="add shift*I after normalization")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("sweep", help="run a manifest of experiment configs "
                                     "on a worker pool")
    p.add_argument("manifest", help="JSON list of argv lists (or "
                                    "{'runs': [...]})")
    p.add_argument("--outdir", default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_sweep)
    return ap


def main(argv=None):
    return _run(build_parser().parse_args(argv),
                (RatLanczosError, ValueError, OSError))


def _run(args, errors, **extra):
    """Run the parsed command; an exception of type ``errors`` is printed
    to stderr as a JSON record (with ``extra`` fields) and gives exit 1."""
    try:
        return args.func(args)
    except errors as exc:
        err = {"error": type(exc).__name__, "message": str(exc),
               "command": args.command, **extra}
        print(json.dumps(err, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
