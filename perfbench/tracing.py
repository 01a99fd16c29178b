"""Spans around bundlewave's public functions, recorded from outside.

``Tracer.installed()`` replaces each traced function with a wrapper that
records a span (name, start, end, parent) and restores the originals on exit.
Functions that other bundlewave modules imported by name are replaced in
those modules too.  The linear-algebra kernels bundlewave calls through
``scipy.linalg`` and ``numpy.linalg`` get ``kernel.*`` spans, which
``layer_metrics`` attributes to the nearest enclosing bundlewave span.

Spans and per-operation counts stay in memory; ``run.py`` writes them out
when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

# (span name, module, attribute); "Class.method" patches the class.
LAYER_TARGETS = [
    ("config.parse", "bundlewave.config", "parse_config"),
    ("config.build", "bundlewave.config", "build_grid"),
    ("config.build", "bundlewave.config", "build_factory"),
    ("config.build", "bundlewave.config", "build_frame"),
    ("config.build", "bundlewave.config", "build_initial_state"),
    ("reduction.at", "bundlewave.reduction", "HamiltonianFactory.at"),
    ("algebra.dense", "bundlewave.algebra", "MatrixOperator.dense"),
    ("algebra.apply", "bundlewave.algebra", "MatrixOperator.apply"),
    ("algebra.frame", "bundlewave.algebra", "matrix_in_frame"),
    ("grid.inner", "bundlewave.grid", "inner"),
    ("evolution.evolve", "bundlewave.evolution", "evolve"),
    ("evolution.step_matrix", "bundlewave.evolution", "step_matrix"),
    ("bundle.transport", "bundlewave.bundle", "evolution_transport"),
    ("bundle.lookup", "bundlewave.bundle", "TransportAlongMap.transport"),
    ("green.eigenbasis", "bundlewave.green", "EigenBasis.from_dense"),
    ("green.eigenbasis", "bundlewave.green", "EigenBasis.from_factory"),
    ("green.born", "bundlewave.green", "born_kernel"),
    ("green.free_kernel", "bundlewave.green", "retarded_kernel"),
    ("green.propagate", "bundlewave.green", "propagate_retarded"),
    ("cli.main", "bundlewave.cli", "main"),
]

KERNEL_TARGETS = [
    ("kernel.lu_factor", "scipy.linalg", "lu_factor"),
    ("kernel.lu_solve", "scipy.linalg", "lu_solve"),
    ("kernel.expm", "scipy.linalg", "expm"),
    ("kernel.solve", "numpy.linalg", "solve"),
    ("kernel.eigh", "numpy.linalg", "eigh"),
    ("kernel.inv", "numpy.linalg", "inv"),
]

# Kernels that factorize (or exponentiate) a dense step operator.  A dense
# ``numpy.linalg.solve`` factorizes its matrix on every call.
FACTORIZE_KERNELS = ("kernel.lu_factor", "kernel.expm", "kernel.solve")
COMPLEX_BYTES = 16

# (name, unit) of every per-layer metric, in report order.
LAYER_METRICS = [
    ("config.parse_s", "s"),
    ("config.build_s", "s"),
    ("reduction.at_calls", "count"),
    ("reduction.at_s", "s"),
    ("algebra.dense_calls", "count"),
    ("algebra.dense_s", "s"),
    ("algebra.dense_bytes", "B"),
    ("algebra.frame_s", "s"),
    ("algebra.apply_calls", "count"),
    ("algebra.apply_s", "s"),
    ("grid.inner_calls", "count"),
    ("grid.inner_s", "s"),
    ("evolution.evolve_s", "s"),
    ("evolution.self_s", "s"),
    ("evolution.solve_calls", "count"),
    ("evolution.solve_s", "s"),
    ("evolution.bytes_per_step", "B"),
    ("evolution.factorize_calls", "count"),
    ("evolution.factorize_s", "s"),
    ("evolution.steps_per_factorization", "steps"),
    ("evolution.step_matrix_calls", "count"),
    ("evolution.step_matrix_s", "s"),
    ("bundle.transport_s", "s"),
    ("bundle.lookup_s", "s"),
    ("bundle.frames_bytes", "B"),
    ("green.eigenbasis_calls", "count"),
    ("green.eigenbasis_s", "s"),
    ("green.born_s", "s"),
    ("green.free_kernel_calls", "count"),
    ("green.free_kernel_s", "s"),
    ("green.propagate_s", "s"),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "B"),
]
COUNT_UNITS = ("count", "B", "steps")


class Tracer:
    """Spans of one operation at a time; ``finish_op`` hands them over."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index]
        self.extra: dict[str, float] = {}
        self._stack: list[int] = []
        # span name -> hook(args, kwargs) -> (args, kwargs, after(result))
        self._hooks = {
            "algebra.dense": self._dense_hook,
            "bundle.transport": self._transport_hook,
            "evolution.evolve": self._evolve_hook,
        }

    def _record(self, name: str, fn, args, kwargs):
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                args, kwargs, after = hook(args, kwargs)
            result = self._record(name, fn, args, kwargs)
            if hook is not None:
                after(result)
            return result

        return wrapper

    def _add(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0) + value

    def _dense_hook(self, args, kwargs):
        return args, kwargs, lambda result: self._add("algebra.dense_bytes", result.nbytes)

    def _transport_hook(self, args, kwargs):
        return args, kwargs, lambda result: self._add("bundle.frames_bytes", result.frames.nbytes)

    def _evolve_hook(self, args, kwargs):
        # evolve(initial, factory, dt, steps, t0=..., method=..., callback=...)
        bound = dict(zip(("initial", "factory", "dt", "steps", "t0", "method", "callback"), args))
        bound.update(kwargs)
        size = bound["factory"].dimension * bound["initial"].grid.npoints
        # Per step: the LU factor plus the explicit right-hand operator for
        # Crank-Nicolson, the cached exponential otherwise.
        operands = 2 if bound.get("method", "crank-nicolson") == "crank-nicolson" else 1
        steps = bound["steps"]
        callback = bound.get("callback")
        if callback is not None:
            def traced_callback(*cb_args, **cb_kwargs):
                return self._record("cli.callback", callback, cb_args, cb_kwargs)

            if "callback" in kwargs:
                kwargs = dict(kwargs, callback=traced_callback)
            else:
                args = args[:6] + (traced_callback,) + args[7:]

        def after(_result):
            self._add("evolution.steps", steps)
            self._add("evolution.operand_bytes", steps * operands * size * size * COMPLEX_BYTES)

        return args, kwargs, after

    @contextlib.contextmanager
    def installed(self):
        """Trace every target while the block runs."""
        restore = []
        try:
            for name, module_name, attr in LAYER_TARGETS + KERNEL_TARGETS:
                module = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[method]
                    if isinstance(raw, classmethod):
                        patched = classmethod(self._wrap(name, raw.__func__))
                    else:
                        patched = self._wrap(name, raw)
                    restore.append((cls, method, raw))
                    setattr(cls, method, patched)
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(name, original)
                holders = [module]
                if module_name.startswith("bundlewave"):
                    holders += [mod for key, mod in sys.modules.items()
                                if key.split(".")[0] == "bundlewave" and mod is not module
                                and getattr(mod, attr, None) is original]
                for holder in holders:
                    restore.append((holder, attr, original))
                    setattr(holder, attr, wrapper)
            yield self
        finally:
            for holder, attr, original in reversed(restore):
                setattr(holder, attr, original)

    def finish_op(self) -> tuple[list, dict]:
        """Spans and extra counts of the operation just run; resets both."""
        if self._stack:
            raise RuntimeError("an operation ended inside an open span")
        spans, extra = self.spans, self.extra
        self.spans, self.extra = [], {}
        return spans, extra


def layer_metrics(spans: list, extra: dict) -> dict[str, float]:
    """Per-layer metrics of one operation from its spans.

    A layer's time counts its outermost spans only, so a traced function that
    calls another of the same layer is not counted twice.  Self time is a
    span's duration minus that of its direct children.
    """
    n = len(spans)
    duration = [end - start for _, start, end, _ in spans]
    self_time = list(duration)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            self_time[parent] -= duration[i]

    def ancestors(i):
        parent = spans[i][3]
        while parent >= 0:
            yield parent
            parent = spans[parent][3]

    def owner(i):
        """Nearest enclosing span that is not a kernel."""
        return next((spans[a][0] for a in ancestors(i)
                     if not spans[a][0].startswith("kernel.")), "")

    def outermost(name):
        return [i for i in range(n) if spans[i][0] == name
                and all(spans[a][0] != name for a in ancestors(i))]

    def inclusive(name):
        return sum(duration[i] for i in outermost(name))

    def own(name):
        return sum(self_time[i] for i in range(n) if spans[i][0] == name)

    solves = [i for i in range(n) if spans[i][0] == "kernel.lu_solve"
              and owner(i).startswith("evolution.")]
    factorizations = [i for i in range(n) if spans[i][0] in FACTORIZE_KERNELS
                      and owner(i).startswith("evolution.")]
    in_evolve = [i for i in factorizations if owner(i) == "evolution.evolve"]
    free_kernels = [i for i in range(n) if spans[i][0] == "green.free_kernel"
                    and spans[i][3] >= 0 and spans[spans[i][3]][0] == "green.born"]
    steps = extra.get("evolution.steps", 0)

    return {
        "config.parse_s": inclusive("config.parse"),
        "config.build_s": inclusive("config.build"),
        "reduction.at_calls": len(outermost("reduction.at")),
        "reduction.at_s": inclusive("reduction.at"),
        "algebra.dense_calls": len(outermost("algebra.dense")),
        "algebra.dense_s": inclusive("algebra.dense"),
        "algebra.dense_bytes": extra.get("algebra.dense_bytes", 0),
        "algebra.frame_s": inclusive("algebra.frame"),
        "algebra.apply_calls": len(outermost("algebra.apply")),
        "algebra.apply_s": inclusive("algebra.apply"),
        "grid.inner_calls": len(outermost("grid.inner")),
        "grid.inner_s": inclusive("grid.inner"),
        "evolution.evolve_s": inclusive("evolution.evolve"),
        "evolution.self_s": own("evolution.evolve"),
        "evolution.solve_calls": len(solves),
        "evolution.solve_s": sum(duration[i] for i in solves),
        "evolution.bytes_per_step": extra.get("evolution.operand_bytes", 0) / steps if steps else 0,
        "evolution.factorize_calls": len(factorizations),
        "evolution.factorize_s": sum(duration[i] for i in factorizations),
        "evolution.steps_per_factorization": steps / len(in_evolve) if in_evolve else steps,
        "evolution.step_matrix_calls": len(outermost("evolution.step_matrix")),
        "evolution.step_matrix_s": inclusive("evolution.step_matrix"),
        "bundle.transport_s": own("bundle.transport"),
        "bundle.lookup_s": inclusive("bundle.lookup"),
        "bundle.frames_bytes": extra.get("bundle.frames_bytes", 0),
        "green.eigenbasis_calls": len(outermost("green.eigenbasis")),
        "green.eigenbasis_s": inclusive("green.eigenbasis"),
        "green.born_s": own("green.born"),
        "green.free_kernel_calls": len(free_kernels),
        "green.free_kernel_s": sum(duration[i] for i in free_kernels),
        "green.propagate_s": inclusive("green.propagate"),
        "cli.self_s": own("cli.main") + own("cli.callback"),
        "cli.output_bytes": extra.get("cli.output_bytes", 0),
    }


def kernel_counts(spans: list) -> dict[str, int]:
    """Kernel calls by the bundlewave span that made them, e.g.
    ``kernel.lu_solve@evolution.evolve``."""
    counts: dict[str, int] = {}
    for i, (name, _, _, parent) in enumerate(spans):
        if not name.startswith("kernel."):
            continue
        while parent >= 0 and spans[parent][0].startswith("kernel."):
            parent = spans[parent][3]
        key = f"{name}@{spans[parent][0] if parent >= 0 else 'benchmark'}"
        counts[key] = counts.get(key, 0) + 1
    return counts
