"""Command-line front end.

Subcommands:

* ``run``    -- march the configured model and tabulate per-step observables;
* ``check``  -- run one named invariant suite (or all of them);
* ``green``  -- compare kernel propagation against time stepping;
* ``reduce`` -- print the structure of the reduced first-order operator.

Each subcommand writes one CSV table (with a header line) to standard output,
or into the ``--out`` directory under a fixed per-command file name; ``run``
additionally writes ``snapshots.csv`` when a snapshot cadence is configured.
Identical inputs produce byte-identical files.  Exit codes: 0 success,
1 failed invariant, 2 configuration problem, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial
from itertools import count

import numpy as np

from .algebra import AlgebraError, matrix_in_frame
from .bundle import BundleError, induced_fibre_product
from .checks import SUITES, run_checks
from .config import (
    ConfigError,
    RunConfig,
    build_factory,
    build_frame,
    build_grid,
    build_initial_state,
    load_config,
    resolved_observables,
)
from .evolution import (
    EvolutionError,
    evolve,
    hamiltonian_dense,
    kg_charges,
    march,
)
from .green import (
    EigenBasis,
    GreenError,
    ScalarFieldKernel,
    born_kernel,
    propagate_retarded,
    retarded_kernel,
)
from .grid import FibreProduct, GridError, GridFunction, stacked_inner
from .reduction import (
    HamiltonianFactory,
    ReductionError,
    dirac_hamiltonian,
    schrodinger_hamiltonian,
)

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

TABLE_NAMES = {
    "run": "report.csv",
    "check": "checks.csv",
    "green": "green.csv",
    "reduce": "reduce.csv",
}

_NUMERICAL_ERRORS = (GridError, AlgebraError, ReductionError, EvolutionError, GreenError, BundleError)


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _write_csv(lines: list[str], out_dir: str | None, name: str) -> None:
    text = "\n".join(lines) + "\n"
    if out_dir is None:
        sys.stdout.write(text)
    else:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _framed_problem(cfg: RunConfig, grid, factory, state):
    """Move the run into the configured gauge frame.

    Returns the (possibly transformed) factory and state plus the fibre
    product in which norms are taken; the induced product makes the frame
    change an isometry, so reported norms match the reference-frame run.
    """
    frame = build_frame(cfg, grid)
    if frame is None:
        return factory, state, None
    frames = frame.frames
    inverse = np.linalg.inv(frames)
    # C-ordered like every marched state, so all norms sum in one order.
    state = GridFunction(grid, np.ascontiguousarray(np.einsum("xij,jx->ix", inverse, state.values)))
    factory = HamiltonianFactory(
        matrix_in_frame(factory.at(), frames, grid),
        factory.label + "-framed" if factory.label else "framed",
        factory.hbar,
    )
    return factory, state, induced_fibre_product(frames)


def _run_observables(cfg: RunConfig, grid, product: FibreProduct | None):
    """(name, measure) per configured observable; `measure` maps states
    stacked as (rows, m, N) to one real value per state."""
    observables = []
    for name in resolved_observables(cfg):
        if name == "charge":
            observables.append(("charge", partial(kg_charges, grid)))
        elif name == "position":
            observables.append(("position", lambda states: stacked_inner(
                grid, states, grid.points * states, product).real))
    return observables


def _cmd_run(cfg: RunConfig, args, out_dir: str | None) -> tuple[int, list[str]]:
    grid = build_grid(cfg)
    factory = build_factory(cfg, grid)
    state = build_initial_state(cfg, grid, seed=args.seed)
    factory, state, product = _framed_problem(cfg, grid, factory, state)
    observables = _run_observables(cfg, grid, product)

    every = cfg.output.snapshot_every
    if every > 0 and out_dir is None:
        raise ConfigError(
            "snapshots need an artifact directory: pass --out or set [output] directory"
        )

    header = "step,time,norm"
    for name, _ in observables:
        header += f",{name}"
    header += ",norm-drift"
    lines = [header]
    snapshot_lines = ["t,x,component,re,im"]
    coords = grid.points

    def record(first: int, times: np.ndarray, states: np.ndarray) -> None:
        """Rows for the states (rows, m, N) after steps first, first + 1, ...;
        each column is measured for the whole block at once."""
        norms = np.sqrt(np.maximum(stacked_inner(grid, states, states, product).real, 0.0))
        columns = [norms] + [measure(states) for _, measure in observables]
        columns.append(np.abs(norms - 1.0))
        rows = zip(*(column.tolist() for column in columns))
        for step, t, values, cells in zip(count(first), times.tolist(), states, rows):
            lines.append(",".join([str(step), _fmt(t)] + [_fmt(cell) for cell in cells]))
            if every > 0 and step % every == 0:
                for comp in range(values.shape[0]):
                    for idx in range(grid.npoints):
                        value = values[comp, idx]
                        snapshot_lines.append(
                            f"{_fmt(t)},{_fmt(coords[idx])},{comp},"
                            f"{_fmt(value.real)},{_fmt(value.imag)}"
                        )

    t0 = cfg.evolution.start_time
    record(0, np.array([t0]), state.values[np.newaxis])
    step = 1
    for times, states in march(state, factory, dt=cfg.evolution.time_step,
                               steps=cfg.evolution.steps, t0=t0, method=cfg.evolution.method):
        record(step, times, states)
        step += len(states)
    if every > 0:
        _write_csv(snapshot_lines, out_dir, "snapshots.csv")
    return EXIT_OK, lines


def _cmd_check(args) -> tuple[int, list[str]]:
    suite = args.suite
    if suite != "all" and suite not in SUITES:
        raise ConfigError(
            f"unknown check suite {suite!r}: available are all, {', '.join(sorted(SUITES))}"
        )
    results = run_checks(suite, seed=args.seed, tolerance_scale=args.tolerance_scale)
    lines = ["name,status,value,tolerance"]
    failed = False
    for r in results:
        status = "ok" if r.passed else "fail"
        failed = failed or not r.passed
        lines.append(f"{r.name},{status},{_fmt(r.value)},{_fmt(r.tolerance)}")
    return (EXIT_INVARIANT if failed else EXIT_OK), lines


def _require_reference_frame(cfg: RunConfig, grid) -> None:
    if build_frame(cfg, grid) is not None:
        raise ConfigError(
            "the green tables are computed in the reference frame; drop the [frame] section"
        )


def _green_first_order(cfg: RunConfig, args) -> list[str]:
    grid = build_grid(cfg)
    _require_reference_frame(cfg, grid)
    factory = build_factory(cfg, grid)
    state = build_initial_state(cfg, grid, seed=args.seed)
    s, t = cfg.green.source_time, cfg.green.target_time
    dt = (t - s) / cfg.evolution.steps
    evolved = evolve(state, factory, dt=dt, steps=cfg.evolution.steps, t0=s,
                     method="midpoint-exponential")
    h = hamiltonian_dense(factory, grid)
    basis = EigenBasis.from_dense(h, grid, factory.dimension, factory.hbar, factory.label)
    kernelled = propagate_retarded(basis, state, t, s, dirac=cfg.model.kind == "dirac")
    lines = [
        f"duality-defect,{_fmt((evolved - kernelled).norm())}",
        f"kernel-completeness,{_fmt(basis.completeness_defect())}",
    ]
    # Born comparison against the exactly-known kernel of the scaled problem.
    m = cfg.model
    if m.kind == "dirac":
        free = dirac_hamiltonian(m.mass, 0.0, None, m.hbar, m.light_speed)
    else:
        free = schrodinger_hamiltonian(m.mass, 0.0, m.hbar)
    h0 = hamiltonian_dense(free, grid)
    perturbation = h - h0
    if np.max(np.abs(perturbation)) > 0:
        eps = cfg.green.perturbation_scale
        scaled = eps * perturbation
        free_basis = EigenBasis.from_dense(h0, grid, free.dimension, free.hbar, free.label)
        exact_basis = EigenBasis.from_dense(
            h0 + scaled, grid, factory.dimension, m.hbar, label="perturbed",
        )
        approx = born_kernel(free_basis, scaled, t, s, order=cfg.green.born_order,
                             quad_points=cfg.green.quadrature_points)
        exact = retarded_kernel(exact_basis, t, s)
        defect = float(np.max(np.abs(approx - exact)))
        lines.append(f"born-defect-order-{cfg.green.born_order},{_fmt(defect)}")
    return lines


def _green_scalar_field(cfg: RunConfig, args) -> list[str]:
    pot = cfg.potential
    if pot.scalar_profile != "constant" or pot.vector_amplitude != 0.0 \
            or pot.vector_profile == "samples":
        raise ConfigError(
            "the scalar-field kernel keeps only a constant scalar potential exact; "
            "use profile 'constant' and no vector potential"
        )
    grid = build_grid(cfg)
    _require_reference_frame(cfg, grid)
    factory = build_factory(cfg, grid)
    state = build_initial_state(cfg, grid, seed=args.seed)
    s, t = cfg.green.source_time, cfg.green.target_time
    m = cfg.model
    kernel = ScalarFieldKernel.build(
        grid, m.mass, m.hbar, m.light_speed,
        charge=m.charge, scalar_potential=pot.scalar_amplitude,
    )
    phi = kernel.propagate(state, t, s)
    dt = (t - s) / cfg.evolution.steps
    evolved = evolve(state, factory, dt=dt, steps=cfg.evolution.steps, t0=s,
                     method="midpoint-exponential")
    defect = float(np.max(np.abs(evolved.values[0] - phi)))
    return [f"duality-defect,{_fmt(defect)}"]


def _cmd_green(cfg: RunConfig, args) -> tuple[int, list[str]]:
    kind = cfg.model.kind
    if kind in ("schrodinger", "dirac"):
        lines = _green_first_order(cfg, args)
    elif kind == "kg-canonical":
        lines = _green_scalar_field(cfg, args)
    else:
        raise ConfigError(
            f"the green command supports schrodinger, dirac and kg-canonical, got {kind!r}"
        )
    return EXIT_OK, ["quantity,value"] + lines


def _cmd_reduce(cfg: RunConfig, args) -> tuple[int, list[str]]:
    grid = build_grid(cfg)
    factory = build_factory(cfg, grid)
    op = factory.at()
    frame = build_frame(cfg, grid)
    if frame is not None:
        op = matrix_in_frame(op, frame.frames, grid)
    lines = ["row,col,operator"]
    for i, j, text in op.describe():
        lines.append(f"{i},{j},{text}")
    return EXIT_OK, lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bundlewave",
        description="Desk-scale relativistic wave equations: reduction, transport, kernels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "evolve the configured model and tabulate observables"),
        ("check", "run one invariant suite, or all of them"),
        ("green", "compare kernel propagation with time stepping"),
        ("reduce", "show the structure of the reduced operator"),
    ):
        p = sub.add_parser(name, help=help_text)
        if name != "check":
            p.add_argument("--config", required=True, help="path to a run configuration")
        else:
            p.add_argument("suite", nargs="?", default="all",
                           help="suite name (all, %s)" % ", ".join(sorted(SUITES)))
            p.add_argument("--config", required=False, help="ignored; checks are self-contained")
        p.add_argument("--out", default=None,
                       help="write CSV artifacts into this directory instead of standard output")
        p.add_argument("--seed", type=int, default=0, help="seed for any randomised content")
        p.add_argument("--tolerance-scale", type=float, default=1.0,
                       help="multiply all check tolerances by this factor")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = args.out
    try:
        if not (np.isfinite(args.tolerance_scale) and args.tolerance_scale > 0):
            raise ConfigError(
                f"--tolerance-scale must be finite and positive, got {args.tolerance_scale}"
            )
        if args.seed < 0:
            raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
        if args.command == "check":
            code, lines = _cmd_check(args)
        else:
            cfg = load_config(args.config)
            if out_dir is None and cfg.output.directory:
                out_dir = cfg.output.directory
            if args.command == "run":
                code, lines = _cmd_run(cfg, args, out_dir)
            elif args.command == "green":
                code, lines = _cmd_green(cfg, args)
            else:
                code, lines = _cmd_reduce(cfg, args)
    except (ConfigError, FileNotFoundError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERICAL_ERRORS as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    _write_csv(lines, out_dir, TABLE_NAMES[args.command])
    return code


if __name__ == "__main__":
    sys.exit(main())
