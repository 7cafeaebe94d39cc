import json
from pathlib import Path

import numpy as np
import pytest

from ratlanczos.cli import main
from ratlanczos.io import read_matrix_market, write_matrix_market

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def run_cli(args):
    return main([str(a) for a in args])


def test_biform_smoke_and_determinism(tmp_path):
    args = ["biform", "--gen", "strakos", "--n", "200", "--f", "sqrt",
            "--tol", "1e-10", "--max-m", "20", "--seed", "3"]
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    assert run_cli(args + ["--outdir", d1]) == 0
    assert run_cli(args + ["--outdir", d2]) == 0
    assert (d1 / "biform.csv").read_bytes() == (d2 / "biform.csv").read_bytes()
    summary = json.loads((d1 / "biform.json").read_text())
    assert summary["results"]["oracle"] is not None
    assert summary["results"]["value"] == pytest.approx(
        summary["results"]["oracle"], abs=1e-8)


def test_biform_compare_mode(tmp_path):
    args = ["biform", "--gen", "strakos", "--n", "150", "--f", "exp",
            "--tol", "1e-9", "--max-m", "15", "--compare",
            "--outdir", tmp_path]
    assert run_cli(args) == 0
    assert (tmp_path / "biform_arnoldi.csv").exists()
    summary = json.loads((tmp_path / "biform.json").read_text())
    assert "arnoldi" in summary["results"]


def test_biform_compare_with_infinite_pole(tmp_path):
    # the full-basis twin takes a polynomial step at the infinite pole and
    # converges to the oracle like the main run
    args = ["biform", "--gen", "strakos", "--n", "200", "--f", "sqrt",
            "--tol", "1e-10", "--max-m", "20", "--shifts=-1,-10,inf",
            "--compare", "--outdir", tmp_path]
    assert run_cli(args) == 0
    twin = np.genfromtxt(tmp_path / "biform_arnoldi.csv", delimiter=",",
                         skip_header=2)
    assert twin[-1, 2] <= 1e-8


def test_biform_bilinear_indices(tmp_path):
    args = ["biform", "--gen", "strakos", "--n", "120", "--f", "exp",
            "--index", "3", "--index2", "7", "--max-m", "15",
            "--outdir", tmp_path]
    assert run_cli(args) == 0
    summary = json.loads((tmp_path / "biform.json").read_text())
    assert summary["results"]["termination"] == "block2x2"


def test_trace_smoke(tmp_path):
    args = ["trace", "--n", "300", "--probes", "6", "--p", "3",
            "--max-m", "20", "--compare", "--outdir", tmp_path]
    assert run_cli(args) == 0
    summary = json.loads((tmp_path / "trace.json").read_text())
    res = summary["results"]
    assert abs(res["estimate"] - res["oracle"]) <= 3.0 * res["stderr"]
    assert res["iterations"] == res["arnoldi"]["iterations"]
    assert (tmp_path / "trace_arnoldi.csv").exists()
    csv1 = (tmp_path / "trace.csv").read_bytes()
    assert run_cli(args) == 0
    assert (tmp_path / "trace.csv").read_bytes() == csv1


def test_h2_demo(tmp_path):
    assert run_cli(["h2", "--demo", "--max-m", "2", "--outdir", tmp_path]) == 0
    summary = json.loads((tmp_path / "h2.json").read_text())
    assert summary["results"]["norm"] == pytest.approx(np.sqrt(0.5), abs=1e-12)


def test_h2_descriptor(tmp_path, rng):
    from conftest import rand_sym
    A, _ = rand_sym(rng, 8, -5.0, -0.5)
    write_matrix_market(A, tmp_path / "A.mtx")
    from scipy.io import mmwrite
    mmwrite(tmp_path / "B.mtx", rng.standard_normal((8, 1)))
    mmwrite(tmp_path / "C.mtx", rng.standard_normal((1, 8)))
    (tmp_path / "sys.txt").write_text("A = A.mtx\nB = B.mtx\nC = C.mtx\n")
    assert run_cli(["h2", "--descriptor", tmp_path / "sys.txt",
                    "--outdir", tmp_path, "--max-m", "8", "--compare"]) == 0
    # the twin's CSV carries the same lag-s relative change as the main one
    main, twin = (np.genfromtxt(tmp_path / name, delimiter=",", skip_header=2)
                  for name in ("h2.csv", "h2_arnoldi.csv"))
    assert np.isnan(twin[0, 2]) and np.all(np.isfinite(twin[1:, 2]))
    assert np.allclose(twin[:, 2], main[:, 2], rtol=1e-6, equal_nan=True)


def test_h2param_demo(tmp_path):
    assert run_cli(["h2param", "--demo", "--mu-nodes", "3",
                    "--max-m", "10", "--compare", "--outdir", tmp_path]) == 0
    summary = json.loads((tmp_path / "h2param.json").read_text())
    assert summary["results"]["norm"] > 0
    # no full-basis twin: --compare leaves a note, not silence
    assert "note" in summary["results"]["arnoldi"]
    with pytest.raises(SystemExit):
        run_cli(["h2param", "--descriptor", tmp_path / "sys.txt"])


def test_lqr_smoke_compare(tmp_path):
    args = ["lqr", "--nbar", "30", "--max-m", "25", "--compare",
            "--outdir", tmp_path]
    assert run_cli(args) == 0
    summary = json.loads((tmp_path / "lqr.json").read_text())
    res = summary["results"]
    assert res["converged"]
    assert res["iterations"] == res["arnoldi"]["iterations"]
    for rel in res["arnoldi"]["control_relative_difference"].values():
        assert rel <= 1e-6


def test_fpa_smoke(tmp_path):
    assert run_cli(["fpa", "--n", "300", "--m", "20",
                    "--outdir", tmp_path]) == 0
    assert (tmp_path / "fpa.csv").exists()
    assert (tmp_path / "fpa_components.csv").exists()
    summary = json.loads((tmp_path / "fpa.json").read_text())
    assert summary["results"]["final_error"] <= 1e-8


def test_normalize_subcommand(tmp_path, rng):
    # small symmetric 0/1 adjacency
    n = 12
    M = (rng.random((n, n)) < 0.3).astype(float)
    M = np.triu(M, 1)
    M = M + M.T
    from ratlanczos import SparseSym
    write_matrix_market(SparseSym.from_dense(M), tmp_path / "adj.mtx")
    out = tmp_path / "norm.mtx"
    assert run_cli(["normalize", tmp_path / "adj.mtx", out,
                    "--symmetric", "--symmetric-input", "--shift", "-2"]) == 0
    A = read_matrix_market(out)
    lam = np.linalg.eigvalsh(A.to_dense())
    # normalized adjacency spectrum lies in [-1, 1]; shifted by -2
    assert lam.max() <= -1.0 + 1e-10
    assert lam.min() >= -3.0 - 1e-10


def test_outdir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("RATLANCZOS_OUTDIR", str(tmp_path / "envdir"))
    assert run_cli(["h2", "--demo", "--max-m", "2"]) == 0
    assert (tmp_path / "envdir" / "h2.json").exists()


def test_error_exit_code(tmp_path, capsys):
    code = run_cli(["biform", "--outdir", tmp_path])   # no operator
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["command"] == "biform"


def test_sweep_manifest(tmp_path):
    manifest = tmp_path / "mani.json"
    manifest.write_text(json.dumps({"runs": [
        ["h2", "--demo", "--max-m", "2"],
        ["fpa", "--n", "200", "--m", "10"],
    ]}))
    assert run_cli(["sweep", manifest, "--outdir", tmp_path / "sw",
                    "--jobs", "2"]) == 0
    assert (tmp_path / "sw" / "run_0000" / "h2.json").exists()
    assert (tmp_path / "sw" / "run_0001" / "fpa.json").exists()


def test_sweep_error_records_carry_run_index(tmp_path, capsys, monkeypatch):
    import ratlanczos.cli as cli

    def boom(args):
        raise RuntimeError("boom")

    def bad_value(args):
        raise ValueError("bad")

    monkeypatch.setattr(cli, "cmd_h2", boom)
    monkeypatch.setattr(cli, "cmd_fpa", bad_value)
    manifest = tmp_path / "mani.json"
    manifest.write_text(json.dumps([["fpa", "--n", "100", "--m", "5"],
                                    ["h2", "--demo"]]))
    assert run_cli(["sweep", manifest, "--outdir", tmp_path / "sw"]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert [json.loads(line) for line in lines[:2]] == [
        {"command": "fpa", "error": "ValueError", "message": "bad", "run": 0},
        {"command": "h2", "error": "RuntimeError", "message": "boom", "run": 1}]
    assert lines[-1] == "sweep: 2 of 2 runs failed: [0, 1]"


def test_bundled_smoke_manifest(tmp_path):
    import time
    manifest = CONFIG_DIR / "smoke.json"
    assert manifest.exists()
    t0 = time.perf_counter()
    assert run_cli(["sweep", manifest, "--outdir", tmp_path]) == 0
    assert time.perf_counter() - t0 < 60.0


def test_smoke_manifest_reproducible_across_processes(tmp_path):
    """Two fresh processes with BLAS pinned to one thread write the same
    bytes to every CSV of the bundled smoke sweep."""
    import os
    import subprocess
    import sys

    import ratlanczos
    src = str(Path(ratlanczos.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [
               src, os.environ.get("PYTHONPATH")]))}
    outs = [tmp_path / "p1", tmp_path / "p2"]
    for out in outs:
        subprocess.run([sys.executable, "-m", "ratlanczos.cli", "sweep",
                        str(CONFIG_DIR / "smoke.json"), "--outdir", str(out)],
                       env=env, check=True, capture_output=True)
    csvs = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*.csv"))
    assert csvs == sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*.csv"))
    assert len(csvs) >= 6
    for rel in csvs:
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel


def test_solve_residual_debug_flag(rng):
    import ratlanczos.shifts as shifts_mod
    from conftest import rand_sym
    from ratlanczos import Shift, shifted_factorize
    A, _ = rand_sym(rng, 20, -5.0, -0.5)
    shifts_mod.CHECK_SOLVE_RESIDUALS = True
    try:
        F = shifted_factorize(A, Shift(2.0))
        F.solve(np.ones(20))            # assertion inside must hold
    finally:
        shifts_mod.CHECK_SOLVE_RESIDUALS = False


def test_network_matrix_optional(tmp_path):
    """Exercise the external-dataset path when a Matrix Market file is
    supplied through the environment; skipped otherwise."""
    import os
    path = os.environ.get("RATLANCZOS_NETWORK_MTX")
    if not path or not Path(path).exists():
        pytest.skip("no network dataset supplied")
    out = tmp_path / "norm.mtx"
    assert run_cli(["normalize", path, out, "--symmetric", "--shift", "-2"]) == 0
    assert run_cli(["biform", "--matrix", out, "--f", "exp", "--index", "0",
                    "--oracle", "none", "--outdir", tmp_path]) == 0
