"""bundlewave benchmark: three cross-validated workloads, timed end to end.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from anywhere inside a checkout; bundlewave is imported from the
checkout's ``src``.  The loop is closed, with one client in one process: an
operation starts when the previous one and its correctness check are done.
After a cold-start measurement, the per-seed reference and one warm-up
operation, operations run until ``--seconds`` would be exceeded.

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` untraced and traced operations alternate, and the result holds
the per-layer metrics of the traced ones plus the tracing overhead.  The last
line of standard output is the result as JSON; the host record and sample
counts are printed before it and written, with the spans of a traced run,
under ``perfbench/results``.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
WORK_DIR = BENCH_DIR / "_work"
COLD_STARTS = 5
NPROC = len(os.sched_getaffinity(0))


def pin_blas_threads(threads: int) -> None:
    """Fix the BLAS pool size; numpy reads it when it loads, here and in the
    cold-start children, so call this before anything imports numpy."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy is already loaded; the BLAS pool cannot be pinned")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)


def cpu_seconds() -> float:
    """User plus system CPU of this process, all of its threads."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def host_record(seed: int, blas_threads: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads,
        "seed": seed,
    }


def cold_starts(name: str, seed: int, workdir: Path) -> list[float]:
    """Wall time of fresh interpreters that build the workload and exit."""
    times = []
    for _ in range(COLD_STARTS):
        start = time.perf_counter()
        # No timeout: with one, the wait polls in steps of up to 50 ms.
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "coldstart.py"), name, str(seed), str(workdir)],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return times


class Runner:
    """Runs and checks operations; counts the attempted and the failed."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []

    def operation(self, tracer=None):
        """(wall, cpu) of one checked operation, or None if it raised."""
        self.attempted += 1
        context = tracer.installed() if tracer is not None else contextlib.nullcontext()
        try:
            with context:
                start_cpu, start = cpu_seconds(), time.perf_counter()
                self.workload.operation()
                wall, cpu = time.perf_counter() - start, cpu_seconds() - start_cpu
        except Exception:
            traceback.print_exc()
            self.failures.append(f"operation {self.attempted} raised")
            return None
        problems = self.workload.check()
        if problems:
            print(f"operation {self.attempted} failed: {'; '.join(problems)}", file=sys.stderr)
            self.failures.append(f"operation {self.attempted}: {'; '.join(problems)}")
        return wall, cpu


def measure(runner: Runner, seconds: float, trace: bool):
    """The timed loop.  Traced runs alternate untraced and traced operations,
    starting untraced.  Returns untraced (wall, cpu) pairs, traced walls and
    the traced operations' (spans, extra)."""
    untraced, traced_walls, traced_ops = [], [], []
    tracer = tracing.Tracer() if trace else None
    typical = []
    loop_start = time.perf_counter()
    while True:
        enough = untraced and (traced_walls or not trace)
        elapsed = time.perf_counter() - loop_start
        if enough and elapsed + statistics.median(typical) > seconds:
            break
        if elapsed >= seconds and runner.failures:
            break
        use_tracer = trace and len(untraced) > len(traced_walls)
        result = runner.operation(tracer if use_tracer else None)
        if use_tracer:
            spans, extra = tracer.finish_op()
        if result is None:
            continue
        typical.append(result[0])
        if use_tracer:
            extra["cli.output_bytes"] = runner.workload.output_bytes()
            traced_walls.append(result[0])
            traced_ops.append((spans, extra))
        else:
            untraced.append(result)
    return untraced, traced_walls, traced_ops


def layer_summary(untraced, traced_walls, traced_ops):
    """Per-layer metrics: counts from the traced operations (which must all
    agree), times as medians, and the tracing overhead."""
    per_op = [tracing.layer_metrics(spans, extra) for spans, extra in traced_ops]
    metrics, mismatched = {}, []
    for name, unit in tracing.LAYER_METRICS:
        values = [op[name] for op in per_op]
        if unit in tracing.COUNT_UNITS:
            if len(set(values)) > 1:
                mismatched.append(f"{name}: {values}")
            value = values[0]
        else:
            value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
    overhead = statistics.median(traced_walls) / statistics.median(w for w, _ in untraced)
    metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    return metrics, mismatched


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    workload_cls = workloads.WORKLOADS[args.workload]
    blas_threads = min(workload_cls.blas_threads, NPROC)
    pin_blas_threads(blas_threads)
    try:
        workloads.use_checkout_source(ROOT)
    except (FileNotFoundError, ImportError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2

    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        setup = [] if args.trace else cold_starts(args.workload, args.seed, workdir)
        workload = workload_cls(workdir, args.seed)
        workload.prepare()
        runner = Runner(workload)
        runner.operation()  # warm-up: checked, not timed
        untraced, traced_walls, traced_ops = measure(runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()

    host = host_record(args.seed, blas_threads)
    samples = {"setup_s": len(setup), "operations": len(untraced), "traced": len(traced_walls)}
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "host": host, "samples": samples, "setup_s": setup,
              "wall_s": [w for w, _ in untraced], "cpu_s": [c for _, c in untraced],
              "traced_wall_s": traced_walls, "failures": runner.failures}
    mismatched = []
    if args.trace:
        metrics, mismatched = layer_summary(untraced, traced_walls, traced_ops)
        if mismatched:
            print("perfbench: counts differ between traced operations: "
                  + "; ".join(mismatched), file=sys.stderr)
        spans_file = RESULTS_DIR / f"{args.workload}-seed{args.seed}-spans.json"
        record["spans_file"] = spans_file.name
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(w for w, _ in untraced), "unit": "s"},
            "cpu_s": {"value": statistics.median(c for _, c in untraced), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MiB",
            },
        }
    record["metrics"] = metrics

    RESULTS_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        ops = [{"spans": spans, "extra": extra, "kernels": tracing.kernel_counts(spans)}
               for spans, extra in traced_ops]
        spans_file.write_text(json.dumps({"host": host, "span_fields": ["name", "start", "end", "parent"],
                                          "operations": ops}) + "\n", encoding="utf-8")

    print("host " + json.dumps(host))
    print("samples " + json.dumps(samples))
    print(json.dumps({"correct": not runner.failures and not mismatched, "attempted": runner.attempted,
                      "failed": len(runner.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
