import csv
import json

import numpy as np
import pytest

from lassokit import io as lio
from lassokit.cli import (
    EXIT_BAD_INPUT,
    EXIT_OK,
    EXIT_UNREACHABLE,
    main,
)


def _gen(tmp_path, *extra, seed=0, m=24, n=40, k=4):
    out = tmp_path / "bundle"
    code = main([
        "gen", "--out", str(out), "--seed", str(seed), "--m", str(m),
        "--n", str(n), "--k", str(k), *extra,
    ])
    assert code == EXIT_OK
    return out


def test_gen_solve_roundtrip(tmp_path, capsys):
    out = _gen(tmp_path)
    capsys.readouterr()
    trace = tmp_path / "trace.csv"
    xfile = tmp_path / "x.txt"
    code = main([
        "solve", "--manifest", str(out / "manifest.txt"),
        "--trace", str(trace), "--out", str(xfile),
    ])
    record = json.loads(capsys.readouterr().out.strip())
    assert code == EXIT_OK
    assert record["schema"] == 1
    assert record["status"] == "optimal"
    assert record["gap"] <= 1e-6
    assert record["iterations"] >= 1
    # The face phases, by the reason each ended; added keys keep schema 1.
    assert set(record["phase_ends"]) == {"edge", "stall", "no_descent",
                                         "solve_end"}
    assert record["face_phases"] == sum(record["phase_ends"].values())
    assert type(record["pairs_rejected"]) is int
    assert record["forward_products"] > 0 and record["adjoint_products"] > 0
    x = lio.read_vector(str(xfile))
    assert len(x) == 40
    with open(trace, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iteration", "f", "gap", "step_kind", "face_dim"]
    assert len(rows) > 1


def test_solvers_agree_through_cli(tmp_path, capsys):
    out = _gen(tmp_path)
    capsys.readouterr()
    fs = []
    for solver in ("spg", "hybrid"):
        code = main(["solve", "--manifest", str(out / "manifest.txt"),
                     "--solver", solver])
        assert code == EXIT_OK
        fs.append(json.loads(capsys.readouterr().out.strip())["f"])
    assert fs[0] == pytest.approx(fs[1], rel=1e-8, abs=1e-12)


def test_solve_rejects_sigma_manifest(tmp_path, capsys):
    out = _gen(tmp_path, "--mode", "sigma")
    capsys.readouterr()
    code = main(["solve", "--manifest", str(out / "manifest.txt")])
    assert code == EXIT_BAD_INPUT


def test_root_rejects_tau_manifest(tmp_path, capsys):
    out = _gen(tmp_path)
    capsys.readouterr()
    code = main(["root", "--manifest", str(out / "manifest.txt")])
    assert code == EXIT_BAD_INPUT


def test_root_converges(tmp_path, capsys):
    out = _gen(tmp_path, "--mode", "sigma")
    capsys.readouterr()
    code = main(["root", "--manifest", str(out / "manifest.txt")])
    record = json.loads(capsys.readouterr().out.strip())
    assert code == EXIT_OK
    assert record["status"] == "converged"
    rel = abs(record["misfit"] - record["sigma"]) / max(record["sigma"], 1e-3)
    assert rel <= 1e-5
    # One path entry per subproblem, after the radius-zero point.
    path = record["path"]
    assert len(path) == record["subproblems"] + 1
    assert path[0]["tau"] == 0
    assert path[-1]["tau"] == record["tau"]
    assert path[-1]["misfit"] == record["misfit"]
    assert all(entry["warm_pairs"] >= 0 for entry in path)
    assert record["forward_products"] > 0 and record["adjoint_products"] > 0


def test_root_unreachable_sigma_exits_4(tmp_path, capsys):
    out = _gen(tmp_path, "--mode", "sigma", seed=1, m=64, n=128, k=20)
    capsys.readouterr()
    manifest = out / "manifest.txt"
    manifest.write_text(manifest.read_text() + "mu = 0.1\n")
    code = main(["root", "--manifest", str(manifest)])
    record = json.loads(capsys.readouterr().out.strip())
    assert code == EXIT_UNREACHABLE == 4
    assert record["status"] == "sigma_unreachable"
    assert record["misfit"] > record["sigma"]


def test_missing_b_manifest(tmp_path, capsys):
    out = _gen(tmp_path)
    capsys.readouterr()
    manifest = out / "manifest.txt"
    lines = [ln for ln in manifest.read_text().splitlines()
             if not ln.startswith("b")]
    manifest.write_text("\n".join(lines) + "\n")
    assert main(["solve", "--manifest", str(manifest)]) == EXIT_BAD_INPUT


@pytest.mark.parametrize("command, mode, bad", [
    ("solve", "tau", "b"), ("root", "sigma", "b"), ("root", "sigma", "sigma"),
    ("solve", "tau", "A"), ("root", "sigma", "A"),
])
def test_non_finite_data_exits_bad_input(tmp_path, capsys, command, mode, bad):
    out = _gen(tmp_path, "--mode", mode)
    capsys.readouterr()
    manifest = out / "manifest.txt"
    if bad == "b":
        b = lio.read_vector(str(out / "b.txt"))
        b[3] = np.nan
        lio.write_vector(str(out / "b.txt"), b)
    elif bad == "A":
        a = lio.read_matrix_market_array(str(out / "A.mtx"))
        a[2, 5] = np.nan
        lio.write_matrix_market_array(str(out / "A.mtx"), a)
    else:
        lines = [ln for ln in manifest.read_text().splitlines()
                 if not ln.startswith(bad)]
        manifest.write_text("\n".join(lines + [f"{bad} = nan"]) + "\n")
    assert main([command, "--manifest", str(manifest)]) == EXIT_BAD_INPUT
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("key", ["tau", "mu"])
def test_infinite_tau_or_mu_exits_bad_input(tmp_path, capsys, key):
    out = _gen(tmp_path, "--mode", "tau")
    capsys.readouterr()
    manifest = out / "manifest.txt"
    lines = [ln for ln in manifest.read_text().splitlines()
             if not ln.startswith(key)]
    manifest.write_text("\n".join(lines + [f"{key} = inf"]) + "\n")
    assert main(["solve", "--manifest", str(manifest)]) == EXIT_BAD_INPUT
    assert capsys.readouterr().err.startswith("error:")


def test_gen_determinism(tmp_path, capsys):
    out1 = _gen(tmp_path / "a", seed=5)
    out2 = _gen(tmp_path / "b", seed=5)
    capsys.readouterr()
    for name in ("A.mtx", "b.txt", "x0.txt", "manifest.txt"):
        assert (out1 / name).read_text() == (out2 / name).read_text()


def test_bench_empty_sweep(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ks": [], "instances": 0}))
    out = tmp_path / "bench.csv"
    assert main(["bench", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["k", "dist", "solver", "tol", "mean_time", "mean_iters",
                     "pct_solved", "median_gap", "mean_speedup_vs_spg"]]


def test_bench_small_sweep(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "m": 24, "n": 40, "ks": [4], "dists": ["pm_one"],
        "solvers": ["spg", "hybrid"], "tols": [1e-6], "instances": 2,
    }))
    out = tmp_path / "bench.csv"
    assert main(["bench", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    for row in rows:
        assert float(row["pct_solved"]) == 100.0
        assert float(row["median_gap"]) <= 1e-6
    hybrid = next(r for r in rows if r["solver"] == "hybrid")
    assert hybrid["mean_speedup_vs_spg"] != ""


def test_bench_bad_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"solvers": ["bogus"]}))
    assert main(["bench", "--config", str(cfg)]) == EXIT_BAD_INPUT
    cfg.write_text("not json")
    assert main(["bench", "--config", str(cfg)]) == EXIT_BAD_INPUT
    # A one-row sphere walk cannot step; it used to hang.
    cfg.write_text(json.dumps({"kind": "sphere_walk", "m": 1, "n": 3,
                               "ks": [1], "instances": 1}))
    assert main(["bench", "--config", str(cfg)]) == EXIT_BAD_INPUT
    # A sparsity above n used to die in the run with a traceback.
    cfg.write_text(json.dumps({"m": 8, "n": 10, "ks": [20], "instances": 1}))
    assert main(["bench", "--config", str(cfg)]) == EXIT_BAD_INPUT
    # So did a negative tolerance, and no instances with a non-empty sweep.
    cfg.write_text(json.dumps({"m": 8, "n": 10, "ks": [2], "instances": 1,
                               "tols": [-1]}))
    assert main(["bench", "--config", str(cfg)]) == EXIT_BAD_INPUT
    for instances in (0, -3):
        cfg.write_text(json.dumps({"m": 8, "n": 10, "ks": [2],
                                   "instances": instances}))
        assert main(["bench", "--config", str(cfg)]) == EXIT_BAD_INPUT
    # A negative matrix size passed validation and crashed mid-sweep.
    cfg.write_text(json.dumps({"m": -3, "n": 10, "ks": [2], "instances": 1}))
    assert main(["bench", "--config", str(cfg)]) == EXIT_BAD_INPUT


@pytest.mark.parametrize("command, mode", [("solve", "tau"), ("root", "sigma")])
@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_bad_tolerance_exits_bad_input(tmp_path, capsys, command, mode, tol):
    out = _gen(tmp_path, "--mode", mode)
    capsys.readouterr()
    code = main([command, "--manifest", str(out / "manifest.txt"), "--tol", tol])
    assert code == EXIT_BAD_INPUT
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("command, mode", [("solve", "tau"), ("root", "sigma")])
def test_negative_max_iter_exits_bad_input(tmp_path, capsys, command, mode):
    out = _gen(tmp_path, "--mode", mode)
    capsys.readouterr()
    code = main([command, "--manifest", str(out / "manifest.txt"),
                 "--max-iter", "-1"])
    assert code == EXIT_BAD_INPUT
    assert capsys.readouterr().err.startswith("error:")


def test_arc_audit(capsys):
    code = main(["arc-audit", "--n", "3", "--trials", "50", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.count("PASS") == 2
    assert "FAIL" not in out


def test_gen_invalid_spec(tmp_path):
    code = main(["gen", "--out", str(tmp_path / "x"), "--gamma", "3.0",
                 "--kind", "sphere_walk"])
    assert code == EXIT_BAD_INPUT
    code = main(["gen", "--out", str(tmp_path / "x"), "--kind", "sphere_walk",
                 "--m", "1", "--n", "3", "--k", "1"])
    assert code == EXIT_BAD_INPUT
    code = main(["gen", "--out", str(tmp_path / "x"), "--m", "-3", "--n", "5",
                 "--k", "1"])
    assert code == EXIT_BAD_INPUT


def test_solve_missing_manifest(tmp_path):
    assert main(["solve", "--manifest", str(tmp_path / "nope.txt")]) \
        == EXIT_BAD_INPUT
