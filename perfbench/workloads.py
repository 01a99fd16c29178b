"""The benchmark's three workloads.

Each workload drives bundlewave through its public entry points and checks
every answer against a second route:

* ``run-dirac-static``: ``bundlewave run`` in the phase frame, checked
  against the identity-frame run of the same configuration;
* ``green-dirac-born``: ``bundlewave green``, whose table already holds the
  stepper-vs-kernel and Born-vs-exact defects;
* ``timedep-dirac-routes``: ``evolve`` against ``evolution_transport`` on a
  time-dependent potential.

The seed chooses the initial state only: the ``random`` profile of the CLI
workloads, and the packet centre and wavenumber of the library workload.
bundlewave is imported inside the methods, so that a cold start in a fresh
interpreter (``coldstart.py``) pays for the import.
"""

from __future__ import annotations

import csv
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
CONFIG_DIR = BENCH_DIR / "configs"

# Tolerances of the correctness checks.
FRAMED_TOL = 1e-10  # framed-norm tolerance of tests/test_cli.py
NORM_DRIFT_TOL = 1e-10
DUALITY_TOL = 1e-8  # tolerance of checks.check_green_duality
BORN_DEFECT_TOL = 5e-6  # measured 4.3515e-6 on the fixed 33-point trapezoid rule
ROUTES_TOL = 1e-10


def use_checkout_source(root: Path) -> None:
    """Import bundlewave from ``root/src``, never from an installed copy."""
    src = root / "src"
    if not (src / "bundlewave" / "__init__.py").is_file():
        raise FileNotFoundError(f"no bundlewave sources under {src}")
    sys.path.insert(0, str(src))
    import bundlewave

    if Path(bundlewave.__file__).resolve().parent != (src / "bundlewave").resolve():
        raise ImportError(f"bundlewave was imported from {bundlewave.__file__}, not {src}")


def _read_table(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _dir_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in path.iterdir() if entry.is_file())


class CliWorkload:
    """One ``bundlewave <command> --config <cfg> --out <dir> --seed <seed>``
    per operation."""

    blas_threads = 2
    command = ""
    config_name = ""
    table = ""

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.config_path = CONFIG_DIR / self.config_name
        self.out_dir = workdir / "op"

    def cold_start(self) -> None:
        from bundlewave import config

        cfg = config.load_config(str(self.config_path))
        grid = config.build_grid(cfg)
        config.build_factory(cfg, grid)
        config.build_frame(cfg, grid)
        config.build_initial_state(cfg, grid, seed=self.seed)

    def prepare(self) -> None:
        """Work done once per seed, outside the timed region."""

    def _main(self, config_path: Path, out_dir: Path) -> None:
        from bundlewave import cli

        argv = [self.command, "--config", str(config_path), "--out", str(out_dir),
                "--seed", str(self.seed)]
        code = cli.main(argv)
        if code != cli.EXIT_OK:
            raise RuntimeError(f"bundlewave {' '.join(argv)} exited with {code}")

    def operation(self) -> None:
        self._main(self.config_path, self.out_dir)

    def output_bytes(self) -> int:
        return _dir_bytes(self.out_dir)

    def check(self) -> list[str]:
        """Failures of the last operation's output; empty when it passed."""
        raise NotImplementedError


class RunDiracStatic(CliWorkload):
    name = "run-dirac-static"
    command = "run"
    config_name = "run-dirac-static.cfg"
    table = "report.csv"

    def prepare(self) -> None:
        # The identity-frame run of the same configuration is the second route.
        from bundlewave import config

        cfg = config.load_config(str(self.config_path))
        cfg.frame = config.FrameSection()
        plain = self.workdir / "identity.cfg"
        plain.write_text(config.emit_config(cfg), encoding="utf-8")
        ref_dir = self.workdir / "reference"
        self._main(plain, ref_dir)
        self.reference = _read_table(ref_dir / self.table)

    def check(self) -> list[str]:
        rows = _read_table(self.out_dir / self.table)
        if len(rows) != len(self.reference):
            return [f"{len(rows)} rows, the identity-frame run has {len(self.reference)}"]
        failures = []
        for column in ("norm", "position"):
            worst = max(abs(float(a[column]) - float(b[column]))
                        for a, b in zip(rows, self.reference))
            if not worst <= FRAMED_TOL:
                failures.append(f"{column} differs from the identity frame by {worst:.3e}")
        drift = max(float(row["norm-drift"]) for row in rows)
        if not drift <= NORM_DRIFT_TOL:
            failures.append(f"norm-drift {drift:.3e}")
        return failures


class GreenDiracBorn(CliWorkload):
    name = "green-dirac-born"
    command = "green"
    config_name = "green-dirac-born.cfg"
    table = "green.csv"

    def check(self) -> list[str]:
        values = {row["quantity"]: float(row["value"])
                  for row in _read_table(self.out_dir / self.table)}
        failures = []
        for quantity, tol in (("duality-defect", DUALITY_TOL),
                              ("born-defect-order-2", BORN_DEFECT_TOL)):
            value = values.get(quantity)
            if value is None or not value <= tol:
                failures.append(f"{quantity} = {value} exceeds {tol:g}")
        return failures


class TimedepDiracRoutes:
    """``evolve`` and ``evolution_transport`` over the same span of a
    Crank-Nicolson march in the potential 0.3 cos(2 pi x / L) cos(3 t)."""

    name = "timedep-dirac-routes"
    # At mN=512 a two-thread LU is slower than one thread (evolve takes 1.9 s
    # against 0.86 s), so a second thread would only add spinning.
    blas_threads = 1
    config_path = CONFIG_DIR / "timedep-dirac-routes.cfg"
    amplitude = 0.3
    frequency = 3.0
    samples = 11  # (samples - 1) * substeps equals the configured steps
    substeps = 4

    def __init__(self, workdir: Path, seed: int):
        import random

        rng = random.Random(seed)
        self.center = rng.uniform(0.3, 0.7)  # fraction of the box
        self.wavenumber_index = rng.randint(1, 6)
        self.text = self.config_path.read_text(encoding="utf-8")
        self.result = None

    def _build(self):
        import numpy as np

        from bundlewave import config
        from bundlewave.reduction import Potentials, dirac_hamiltonian

        cfg = config.parse_config(self.text)
        cfg.initial.center = self.center
        cfg.initial.wavenumber_index = self.wavenumber_index
        grid = config.build_grid(cfg)
        x, length = grid.points, grid.length
        amplitude, frequency = self.amplitude, self.frequency
        potentials = Potentials(
            scalar=lambda t: amplitude * np.cos(2.0 * np.pi * x / length) * np.cos(frequency * t)
        )
        m = cfg.model
        factory = dirac_hamiltonian(m.mass, m.charge, potentials, m.hbar, m.light_speed)
        state = config.build_initial_state(cfg, grid)
        return cfg, grid, factory, state

    def cold_start(self) -> None:
        self._build()

    def prepare(self) -> None:
        pass

    def operation(self) -> None:
        from bundlewave.bundle import PathSampling, evolution_transport
        from bundlewave.evolution import evolve

        cfg, grid, factory, state = self._build()
        ev = cfg.evolution
        stepped = evolve(state, factory, dt=ev.time_step, steps=ev.steps, t0=ev.start_time,
                         method=ev.method)
        sampling = PathSampling.uniform(
            ev.start_time, ev.start_time + ev.steps * ev.time_step, self.samples
        )
        transport = evolution_transport(factory, grid, sampling, method=ev.method,
                                        substeps=self.substeps)
        transported = transport.transport(-1, 0) @ state.flatten()
        self.result = (stepped.flatten(), transported)

    def output_bytes(self) -> int:
        return 0

    def check(self) -> list[str]:
        import numpy as np

        stepped, transported = self.result
        gap = float(np.max(np.abs(stepped - transported)))
        if not gap <= ROUTES_TOL:
            return [f"stepper and transport differ by {gap:.3e}"]
        return []


WORKLOADS = {cls.name: cls for cls in (RunDiracStatic, GreenDiracBorn, TimedepDiracRoutes)}
