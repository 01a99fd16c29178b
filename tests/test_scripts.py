"""Smoke tests for the experiment scripts under scripts/."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_born_scaling_first_order_ratio_is_quadratic(capsys):
    script = _load("born_scaling")
    argv = ["--orders", "1", "--epsilons", "0.1", "0.05", "--quadrature-points", "33"]
    assert script.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "order,epsilon,error,ratio_to_previous"
    assert len(lines) == 3
    ratio = float(lines[2].split(",")[3])
    # c11's bound: the ratio lies within a factor 1.5 of 2^(order+1) = 4.
    assert max(ratio / 4.0, 4.0 / ratio) < 1.5


def test_stepper_vs_kernel_is_second_order(capsys):
    script = _load("stepper_vs_kernel")
    assert script.main(["--refinements", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "steps,dt,error,observed_order"
    assert len(lines) == 4
    order = float(lines[-1].split(",")[3])
    assert 1.9 <= order <= 2.1


@pytest.mark.parametrize("method", ["crank-nicolson", "midpoint-exponential"])
def test_dirac_wavepacket_keeps_unit_norm(capsys, method):
    script = _load("dirac_wavepacket")
    argv = ["--points", "32", "--steps", "40", "--every", "10", "--method", method]
    assert script.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "step,time,norm,center"
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "10", "20", "30", "40"]
    assert all(abs(float(line.split(",")[2]) - 1.0) <= 1e-10 for line in lines[1:])


def test_table_gate_writes_every_table_once(tmp_path, capsys):
    script = _load("table_gate")
    assert script.main([str(tmp_path), "--seeds", "7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "table,exit_code"
    assert all(line.endswith(",0") for line in lines[1:])
    names = {
        "run-c13": "report.csv", "green-c13": "green.csv",
        "run-readme": "report.csv", "green-readme": "green.csv",
        "run-c13-frame-constant": "report.csv", "reduce-c13-frame-constant": "reduce.csv",
        "run-c13-frame-phase": "report.csv", "reduce-c13-frame-phase": "reduce.csv",
        "run-dirac-static": "report.csv", "reduce-dirac-static": "reduce.csv",
        "green-dirac-born": "green.csv",
        "green-dirac-born-order0": "green.csv", "green-dirac-born-order1": "green.csv",
        "green-dirac-born-order3": "green.csv", "green-schrodinger-born": "green.csv",
    }
    expected = {f"{name}-seed7/{table}" for name, table in names.items()} | {"check-seed7/checks.csv"}
    written = {str(path.relative_to(tmp_path)) for path in tmp_path.rglob("*") if path.is_file()}
    assert written == expected | {"blas.txt"}
    assert len(lines) == 1 + len(expected)
    # In process numpy is already loaded, so the pool is recorded, not pinned.
    recorded = (tmp_path / "blas.txt").read_text(encoding="utf-8").splitlines()
    assert [line.split("=")[0] for line in recorded] == list(script.BLAS_VARIABLES)


def test_table_gate_pins_the_threads_it_is_given(tmp_path):
    # Fresh interpreters, where the pool is pinned before numpy loads.
    env = {name: value for name, value in os.environ.items()
           if name not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = str(SCRIPTS.parent / "src")
    for threads in (1, 2):
        command = [sys.executable, str(SCRIPTS / "table_gate.py"), str(tmp_path / str(threads)),
                   "--seeds", "7", "--threads", str(threads)]
        done = subprocess.run(command, capture_output=True, text=True, env=env, timeout=300)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert lines[0] == "table,exit_code" and all(line.endswith(",0") for line in lines[1:])
        assert (tmp_path / str(threads) / "blas.txt").read_text(encoding="utf-8") == (
            f"OPENBLAS_NUM_THREADS={threads}\nOMP_NUM_THREADS={threads}\n"
            f"MKL_NUM_THREADS={threads}\n")
    if len(os.sched_getaffinity(0)) >= 2:
        # The last digits of the Born table follow the pool size.
        table = Path("green-dirac-born-seed7", "green.csv")
        assert (tmp_path / "1" / table).read_bytes() != (tmp_path / "2" / table).read_bytes()


def test_route_sweep_prints_each_column_against_its_tolerance(capsys, monkeypatch):
    script = _load("route_sweep")
    assert script.main(["3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "column,worst,tolerance,factory"
    rows = [line.split(",") for line in lines[1:]]
    assert [row[0] for row in rows] == list(script.TOLERANCE)
    seen = [(float(worst), float(tolerance), factory) for _, worst, tolerance, factory in rows
            if worst != "-"]
    assert seen and all(worst <= tolerance for worst, tolerance, _ in seen)
    assert all(factory.endswith(("crank-nicolson", "midpoint-exponential"))
               for _, _, factory in seen)
    # A column past its tolerance fails the sweep; no difference is below -1.
    monkeypatch.setattr(script, "TOLERANCE", {name: -1.0 for name in script.TOLERANCE})
    assert script.main(["3"]) == 1


def test_line_trace_lists_the_package_lines_a_run_never_executes(tmp_path):
    # A fresh interpreter, so that the package is imported under the trace.
    env = {**os.environ, "PYTHONPATH": ""}
    command = [sys.executable, str(SCRIPTS / "line_trace.py"), "-q", "-p", "no:cacheprovider",
               str(SCRIPTS.parent / "tests" / "test_grid.py")]
    done = subprocess.run(command, capture_output=True, text=True, env=env, cwd=tmp_path,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    header = next(k for k, line in enumerate(lines) if line.startswith("line trace: "))
    match = re.fullmatch(r"line trace: (\d+) of (\d+) executable lines in src/bundlewave never ran",
                         lines[header])
    missing, total = int(match[1]), int(match[2])
    listed = lines[header + 1:]
    assert 0 < missing < total and len(listed) == missing
    places = [re.fullmatch(r"src/bundlewave/(\w+)\.py:(\d+): \S.*", line) for line in listed]
    assert all(places)
    assert [(m[1], int(m[2])) for m in places] == sorted((m[1], int(m[2])) for m in places)
    # The grid tests march nothing.
    assert "src/bundlewave/evolution.py" in {line.split(":")[0] for line in listed}


def _bench_run(wall, rss, load):
    """A run as bench_pairs.run_once returns it, with two metrics."""
    metrics = {"wall_s": {"value": wall, "unit": "s"}, "peak_rss_mb": {"value": rss, "unit": "MiB"}}
    return {"host": {"blas_threads": 1},
            "result": {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics},
            "load": {"before": [load, 0.4, 0.3], "after": [load + 0.1, 0.4, 0.3]}}


def _bench_pairs(parent_walls, change_walls):
    return [{"pair": p, "seed": 10 + p, "first": ("parent", "change")[p % 2],
             "parent": _bench_run(before, 80.0, 0.5 + p),
             "change": _bench_run(after, 80.0 - p, 1.5 + p)}
            for p, (before, after) in enumerate(zip(parent_walls, change_walls))]


def test_bench_pairs_folds_runs_into_quartiles_and_pair_counts():
    script = _load("bench_pairs")
    better = {"wall_s": "lower", "peak_rss_mb": "lower"}
    record = script.fold(_bench_pairs([1.0, 1.2, 1.1, 1.3, 0.9], [0.8, 0.9, 1.1, 1.0, 0.7]), better)
    assert record["seeds"] == [10, 11, 12, 13, 14] and record["blas_threads"] == 1
    assert record["parent"]["wall_s"] == {"median": 1.1, "q1": 1.0, "q3": 1.2, "n": 5, "unit": "s"}
    assert record["change"]["wall_s"]["median"] == 0.9
    change = record["change"]
    assert (change["runs"], change["attempted"], change["failed"]) == (5, 15, 0)
    # Equal readings count for neither side: pair 2's wall, pair 0's memory.
    assert record["pairs"]["wall_s"] == {"change_better": 4, "change_worse": 0, "pairs": 5}
    assert record["pairs"]["peak_rss_mb"] == {"change_better": 4, "change_worse": 0, "pairs": 5}
    assert [entry["first"] for entry in record["load"]] == ["parent", "change"] * 2 + ["parent"]
    assert record["load"][3]["change"] == {"before": [4.5, 0.4, 0.3], "after": [4.6, 0.4, 0.3]}
    # Four wins in five pairs fall short of nine tenths.
    claim = script.claim(record, "w", "wall_s", "lower")
    assert not claim["met"] and "better in 4 of 5 pairs" in claim["reading"]


def test_bench_pairs_claim_needs_a_gap_wider_than_the_parent_spread():
    script = _load("bench_pairs")
    better = {"wall_s": "lower", "peak_rss_mb": "lower"}
    parent = [1.0, 1.4, 1.1, 1.3, 0.9]
    met = script.fold(_bench_pairs(parent, [w - 0.4 for w in parent]), better)
    assert script.claim(met, "w", "wall_s", "lower")["met"]
    # Better in every pair, but by less than the parent's interquartile range.
    close = script.fold(_bench_pairs(parent, [w - 0.1 for w in parent]), better)
    assert close["pairs"]["wall_s"]["change_better"] == 5
    assert not script.claim(close, "w", "wall_s", "lower")["met"]
    # A metric where higher is better counts the other way round.
    flipped = script.fold(_bench_pairs(parent, [w - 0.3 for w in parent]), {"wall_s": "higher"})
    assert flipped["pairs"]["wall_s"] == {"change_better": 0, "change_worse": 5, "pairs": 5}
