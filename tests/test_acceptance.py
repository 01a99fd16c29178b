"""Thirteen end-to-end acceptance criteria for the whole library.

Each test measures one advertised guarantee at its stated tolerance and
prints a single machine-readable PASS/FAIL line.
"""

import textwrap

import numpy as np
import pytest

from bundlewave.algebra import (
    METRIC_SIGNATURE,
    ScaleOp,
    alpha_matrices,
    anticommutator_defect,
    beta_matrix,
    dirac_gammas,
    kg_gammas,
)
from bundlewave.bundle import (
    PathSampling,
    TransportAlongMap,
    derivation_along_path,
    evolution_transport,
    flat_transport,
    transport_coefficients,
    transported_lifting,
)
from bundlewave.cli import EXIT_OK, main
from bundlewave.evolution import EvolutionOperator, evolve, kg_charge
from bundlewave.green import EigenBasis, born_kernel, propagate_retarded, retarded_kernel
from bundlewave.grid import GridFunction, SpatialGrid1D
from bundlewave.reduction import (
    Potentials,
    companion_hamiltonian,
    dirac_hamiltonian,
    gauge_transform,
    kg_5d_hamiltonian,
    kg_canonical_hamiltonian,
    kg_nonrel_frame,
    kg_nonrel_hamiltonian,
    schrodinger_hamiltonian,
)


def _report(criterion: str, measurements) -> None:
    """Print one `PASS`/`FAIL` line for a criterion and assert it.

    Each measurement is (label, value, bound) for value <= bound, or
    (label, value, bound, ">=") for a lower bound.
    """
    clauses = []
    ok = True
    for label, value, bound, *rest in measurements:
        op = rest[0] if rest else "<="
        holds = value >= bound if op == ">=" else value <= bound
        ok = ok and holds
        clauses.append(f"{label}={value:.3e}{op}{bound:.3e}")
    line = f"{criterion}: " + ", ".join(clauses) + (" PASS" if ok else " FAIL")
    print(line)
    assert ok, line


def _normalised(grid: SpatialGrid1D, values: np.ndarray) -> GridFunction:
    state = GridFunction(grid, values)
    return (1.0 / state.norm()) * state


def test_c01_clifford_exactness():
    defect = anticommutator_defect(dirac_gammas())
    _report("c01 clifford-exactness", [("anticommutator-defect", defect, 0.0)])


def test_c02_scalar_generator_table():
    gammas = kg_gammas()
    worst = 0.0
    for mu in range(4):
        expected = np.zeros((5, 5), dtype=complex)
        expected[mu, 4] = 1.0
        expected[4, mu] = METRIC_SIGNATURE[mu]
        worst = max(worst, float(np.max(np.abs(gammas.matrix(mu) - expected))))
    _report("c02 scalar-generator-table", [("entry-mismatch", worst, 0.0)])


def test_c03_free_dirac_unitarity():
    grid = SpatialGrid1D(64, 2.0 * np.pi)
    values = np.zeros((4, 64), dtype=complex)
    values[0] = np.exp(-((grid.points - np.pi) ** 2)) * np.exp(2j * grid.points)
    state = _normalised(grid, values)
    drift = [0.0]
    evolve(
        state,
        dirac_hamiltonian(mass=1.0),
        dt=1e-3,
        steps=1000,
        method="crank-nicolson",
        callback=lambda t, s: drift.append(abs(s.norm() - 1.0)),
    )
    _report("c03 free-dirac-unitarity", [("norm-drift", max(drift), 1e-8)])


def test_c04_evolution_composition():
    grid = SpatialGrid1D(16, 2.0 * np.pi)
    factory = schrodinger_hamiltonian(
        1.0, potential=lambda t: np.sin(1.3 * t) * 0.3 * np.cos(grid.points)
    )
    worst = 0.0
    for method in ("crank-nicolson", "midpoint-exponential"):
        op = EvolutionOperator(factory, grid, dt=0.05, steps=8, method=method)
        direct = op.matrix(0.0, 0.4)
        chained = op.matrix(0.2, 0.4) @ op.matrix(0.0, 0.2)
        worst = max(worst, float(np.max(np.abs(direct - chained))))
    _report("c04 evolution-composition", [("composition-defect", worst, 1e-10)])


def test_c05_kernel_evolution_duality():
    grid = SpatialGrid1D(32, 2.0 * np.pi)
    rng = np.random.default_rng(0)
    cases = [
        ("one-component", schrodinger_hamiltonian(1.0, potential=0.4 * np.cos(grid.points))),
        ("four-component", dirac_hamiltonian(mass=1.0)),
    ]
    measurements = []
    for label, factory in cases:
        basis = EigenBasis.from_factory(factory, grid)
        worst = 0.0
        for _ in range(5):
            shape = (factory.dimension, grid.npoints)
            state = _normalised(
                grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            )
            stepped = evolve(state, factory, dt=0.01, steps=50, method="midpoint-exponential")
            kernelled = propagate_retarded(basis, state, 0.5, 0.0)
            worst = max(worst, (stepped - kernelled).norm())
        measurements.append((label, worst, 1e-8))
    _report("c05 kernel-evolution-duality", measurements)


def test_c06_companion_reduction_fidelity():
    # phi'' = alpha phi' + beta phi with constant coefficients against the
    # closed form through the characteristic roots.
    alpha, beta = -0.3, -4.0
    phi0, dphi0 = 1.0, 0.2
    root = np.sqrt(complex(alpha * alpha + 4.0 * beta))
    r_plus, r_minus = (alpha + root) / 2.0, (alpha - root) / 2.0
    c_plus = (dphi0 - r_minus * phi0) / (r_plus - r_minus)
    c_minus = phi0 - c_plus
    exact = c_plus * np.exp(r_plus) + c_minus * np.exp(r_minus)

    grid = SpatialGrid1D(2, 1.0)
    initial = GridFunction(
        grid, np.stack([np.full(2, phi0, dtype=complex), np.full(2, dphi0, dtype=complex)])
    )
    final = evolve(initial, companion_hamiltonian([ScaleOp(beta), ScaleOp(alpha)]), dt=1e-4, steps=10000)
    relative = float(np.max(np.abs(final.values[0] - exact)) / abs(exact))
    _report("c06 companion-reduction-fidelity", [("relative-error", relative, 1e-6)])


def test_c07_scalar_cross_form_equivalence():
    mass, hbar, c, k = 1.3, 0.9, 1.7, 1.0
    grid = SpatialGrid1D(16, 2.0 * np.pi)
    omega = np.sqrt((c * k) ** 2 + (mass * c * c / hbar) ** 2)
    mode = np.exp(1j * k * grid.points)
    canonical0 = GridFunction(grid, np.stack([mode, -1j * omega * mode]))
    five0 = GridFunction(
        grid,
        np.stack([
            mass * c * c * mode,
            -1j * omega * mode,
            1j * k * mode,
            np.zeros_like(mode),
            np.zeros_like(mode),
        ]),
    )
    canonical = kg_canonical_hamiltonian(mass, hbar=hbar, c=c)
    five = kg_5d_hamiltonian(mass, hbar=hbar, c=c)
    end_two = evolve(canonical0, canonical, dt=1e-3, steps=500, method="midpoint-exponential")
    end_five = evolve(five0, five, dt=1e-3, steps=500, method="midpoint-exponential")
    wave_defect = float(
        np.max(np.abs(end_five.values[0] / (mass * c * c) - end_two.values[0]))
    )

    frame = kg_nonrel_frame(mass, hbar=hbar, c=c)
    gauged = gauge_transform(kg_canonical_hamiltonian(mass, hbar=hbar, c=c), frame)
    direct = kg_nonrel_hamiltonian(mass, hbar=hbar, c=c)
    frame_defect = float(
        np.max(np.abs(gauged.at().dense(grid) - direct.at().dense(grid)))
    )
    _report(
        "c07 scalar-cross-form-equivalence",
        [("five-component-wave", wave_defect, 1e-6), ("frame-change", frame_defect, 1e-10)],
    )


def test_c08_dispersion():
    # Eigenvalues of the four-component momentum-space symbol.
    mass, hbar, c = 1.0, 1.0, 1.0
    alpha_x = alpha_matrices()[0]
    beta = beta_matrix()
    symbol_defect = 0.0
    for k in range(-7, 9):
        symbol = c * hbar * k * alpha_x + mass * c * c * beta
        energy = np.sqrt((hbar * k * c) ** 2 + (mass * c * c) ** 2)
        got = np.sort(np.linalg.eigvalsh(symbol))
        expected = np.array([-energy, -energy, energy, energy])
        symbol_defect = max(symbol_defect, float(np.max(np.abs(got - expected))))

    # Mode frequency read off a stepped scalar-field plane wave.
    grid = SpatialGrid1D(32, 2.0 * np.pi)
    k = 2.0
    omega = np.sqrt((c * k) ** 2 + (mass * c * c / hbar) ** 2)
    mode = np.exp(1j * k * grid.points)
    state = GridFunction(grid, np.stack([mode, -1j * omega * mode]))
    dt = 0.005
    overlaps = [complex(grid.spacing * np.sum(np.conj(mode) * state.values[0]))]
    evolve(
        state,
        kg_canonical_hamiltonian(mass, hbar=hbar, c=c),
        dt=dt,
        steps=400,
        callback=lambda t, s: overlaps.append(
            complex(grid.spacing * np.sum(np.conj(mode) * s.values[0]))
        ),
    )
    steps_phase = [-np.angle(b / a) / dt for a, b in zip(overlaps, overlaps[1:])]
    relative = abs(np.mean(steps_phase) - omega) / omega
    _report(
        "c08 dispersion",
        [("symbol-eigenvalues", symbol_defect, 1e-10), ("mode-frequency", relative, 1e-4)],
    )


def test_c09_transport_laws():
    rng = np.random.default_rng(0)

    def frames(n, dim):
        out = np.empty((n, dim, dim), dtype=complex)
        for i in range(n):
            q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
            p, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
            out[i] = q @ np.diag(rng.uniform(0.5, 2.0, size=dim)) @ p
        return out

    sampling = PathSampling.uniform(0.0, 1.0, 8)
    transport = TransportAlongMap(sampling, frames(8, 3))
    law_defect = 0.0
    for _ in range(100):
        i, j, k = rng.integers(0, 8, size=3)
        law_defect = max(
            law_defect,
            float(np.max(np.abs(transport.transport(j, j) - np.eye(3)))),
            float(
                np.max(
                    np.abs(
                        transport.transport(i, j) @ transport.transport(j, k)
                        - transport.transport(i, k)
                    )
                )
            ),
        )

    gauge = frames(8, 3)
    twisted = transport.with_gauge(gauge)
    gauge_defect = 0.0
    for _ in range(100):
        i, j = rng.integers(0, 8, size=2)
        direct = np.linalg.solve(
            gauge[i], transport.transport(i, j) @ gauge[j]
        )
        gauge_defect = max(
            gauge_defect, float(np.max(np.abs(twisted.transport(i, j) - direct)))
        )

    ends = frames(2, 3)
    routes = []
    for _ in range(2):
        field = np.concatenate([ends[:1], frames(3, 3), ends[1:]])
        routes.append(flat_transport(PathSampling.uniform(0.0, 1.0, 5), field).transport(4, 0))
    flat_defect = float(np.max(np.abs(routes[0] - routes[1])))

    _report(
        "c09 transport-laws",
        [
            ("identity-composition", law_defect, 1e-12),
            ("gauge-invariance", gauge_defect, 1e-12),
            ("flat-path-independence", flat_defect, 1e-12),
        ],
    )


def test_c10_transported_lifting_derivation():
    grid = SpatialGrid1D(8, 8.0 * np.pi)
    x = grid.points
    factory = schrodinger_hamiltonian(
        1.0, potential=lambda t: np.sin(1.3 * t) * 0.3 * np.cos(2.0 * np.pi * x / grid.length)
    )
    seed = np.exp(-((x - grid.length / 2) ** 2) / 8.0) * np.exp(0.25j * x)
    seed = seed / np.sqrt(grid.spacing * np.sum(np.abs(seed) ** 2))
    spacings, errors = [], []
    for nsamples in (11, 21, 41, 81):
        sampling = PathSampling.uniform(0.0, 1.0, nsamples)
        transport = evolution_transport(factory, grid, sampling, method="crank-nicolson")
        lifting = transported_lifting(transport, seed)
        residual = derivation_along_path(
            transport, lifting, (nsamples - 1) // 2, mode="coefficients"
        )
        spacings.append(1.0 / (nsamples - 1))
        errors.append(float(np.max(np.abs(residual))))
    order = float(np.polyfit(np.log(spacings), np.log(errors), 1)[0])

    free = schrodinger_hamiltonian(1.0)
    eps = 3e-4
    probe = evolution_transport(free, grid, PathSampling(np.array([0.5 - eps, 0.5, 0.5 + eps])))
    gamma = transport_coefficients(probe, 1, mode="arrival")
    expected = -1j * free.at().dense(grid)
    gamma_defect = float(np.max(np.abs(gamma - expected)))
    _report(
        "c10 transported-lifting-derivation",
        [("derivation-order", order, 0.9, ">="), ("generator-relation", gamma_defect, 1e-8)],
    )


def test_c11_born_series_scaling():
    grid = SpatialGrid1D(16, 2.0 * np.pi)
    base = schrodinger_hamiltonian(1.0)
    basis = EigenBasis.from_factory(base, grid)
    profile = np.diag(0.8 * np.cos(grid.points))
    t = 0.6
    errors = []
    for eps in (0.1, 0.05, 0.025):
        perturbed = base.at().dense(grid) + eps * profile
        exact = retarded_kernel(EigenBasis.from_dense(perturbed, grid, 1), t, 0.0)
        approx = born_kernel(basis, eps * profile, t, 0.0, order=1, quad_points=129)
        errors.append(float(np.max(np.abs(approx - exact))))
    ratios = [errors[i] / errors[i + 1] for i in range(2)]
    factor = max(max(r / 4.0, 4.0 / r) for r in ratios)
    _report("c11 born-series-scaling", [("quadratic-ratio-factor", factor, 1.5)])


def test_c12_free_scalar_charge_conservation():
    grid = SpatialGrid1D(32, 2.0 * np.pi)
    base = np.exp(-((grid.points - np.pi) ** 2)) * np.exp(1j * grid.points)
    state = GridFunction(grid, np.stack([base, 1j * base]))
    start = kg_charge(state)
    drift = [0.0]
    evolve(
        state,
        kg_canonical_hamiltonian(mass=1.0),
        dt=0.01,
        steps=1000,
        method="crank-nicolson",
        callback=lambda t, s: drift.append(abs(kg_charge(s) - start)),
    )
    assert abs(start) > 0.1
    _report("c12 free-scalar-charge-conservation", [("charge-drift", max(drift), 1e-8)])


def test_c13_cli_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        textwrap.dedent(
            """
            [model]
            kind = kg-canonical
            [grid]
            points = 16
            [evolution]
            time-step = 0.01
            steps = 5
            [initial]
            profile = random
            """
        ),
        encoding="utf-8",
    )
    paths = [tmp_path / "a", tmp_path / "b"]
    for path in paths:
        assert main(["run", "--config", str(cfg), "--out", str(path), "--seed", "7"]) == EXIT_OK
    first = (paths[0] / "report.csv").read_bytes()
    second = (paths[1] / "report.csv").read_bytes()
    mismatch = float(first != second)
    _report("c13 cli-determinism", [("byte-mismatch", mismatch, 0.0)])
