"""Self-tests of the benchmark.  Not part of the package's test suite; run

    python3 -m pytest -q perfbench

The traced-run tests start the real benchmark twice per workload and take a
few minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
import workloads  # noqa: E402

COUNT_METRICS = [name for name, unit in tracing.LAYER_METRICS if unit in tracing.COUNT_UNITS]


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_benchmark_json_lists_the_reported_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        tracing.LAYER_METRICS + [("trace.overhead", "ratio")]
    assert {m["name"] for m in bench["end_to_end"]} == {"setup_s", "wall_s", "cpu_s", "peak_rss_mb"}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_layer_metrics_take_self_time_and_attribute_kernels():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["evolution.evolve", 1.0, 9.0, 0],
        ["kernel.lu_factor", 1.0, 2.0, 1],
        ["kernel.lu_solve", 2.0, 3.0, 1],
        ["kernel.lu_solve", 3.0, 4.0, 1],
        ["cli.callback", 4.0, 5.0, 1],
        ["grid.inner", 4.0, 4.5, 5],
        ["kernel.lu_solve", 9.5, 9.75, 0],  # owned by the CLI, not evolution
    ]
    metrics = tracing.layer_metrics(spans, {"evolution.steps": 2})
    assert metrics["evolution.evolve_s"] == 8.0
    assert metrics["evolution.self_s"] == 8.0 - 1.0 - 1.0 - 1.0 - 1.0
    assert metrics["evolution.solve_calls"] == 2
    assert metrics["evolution.factorize_calls"] == 1
    assert metrics["evolution.steps_per_factorization"] == 2.0
    assert metrics["cli.self_s"] == (10.0 - 8.0 - 0.25) + (1.0 - 0.5)
    assert metrics["grid.inner_calls"] == 1
    assert tracing.kernel_counts(spans) == {
        "kernel.lu_factor@evolution.evolve": 1,
        "kernel.lu_solve@evolution.evolve": 2,
        "kernel.lu_solve@cli.main": 1,
    }


def test_nested_spans_of_one_layer_count_once():
    spans = [
        ["green.eigenbasis", 0.0, 4.0, -1],
        ["green.eigenbasis", 1.0, 3.0, 0],
        ["green.eigenbasis", 5.0, 6.0, -1],
    ]
    metrics = tracing.layer_metrics(spans, {})
    assert metrics["green.eigenbasis_calls"] == 2
    assert metrics["green.eigenbasis_s"] == 5.0


def test_tracer_restores_the_originals():
    workloads.use_checkout_source(ROOT)
    import numpy
    import scipy.linalg

    from bundlewave import cli, evolution, green

    before = (cli.evolve, evolution.evolve, green.EigenBasis.__dict__["from_dense"],
              scipy.linalg.lu_solve, numpy.linalg.solve)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cli.evolve is evolution.evolve is not before[0]
        numpy.linalg.solve(numpy.eye(2), numpy.ones(2))
    after = (cli.evolve, evolution.evolve, green.EigenBasis.__dict__["from_dense"],
             scipy.linalg.lu_solve, numpy.linalg.solve)
    assert after == before
    spans, _ = tracer.finish_op()
    assert [span[0] for span in spans] == ["kernel.solve"]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_counts_repeat_between_traced_runs(workload):
    results = []
    for _ in range(2):
        proc = _bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, proc.stderr
        results.append({name: result["metrics"][name]["value"] for name in COUNT_METRICS})
    assert results[0] == results[1]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "_work", "__pycache__"))
    proc = _bench("--workload", "green-dirac-born", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
