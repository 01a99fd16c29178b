"""Named invariant checks run by the command-line `check` subcommand.

Each check measures one structural or numerical invariant of the library and
compares it against a tolerance (scaled by a user factor).  Checks are
deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    METRIC_SIGNATURE,
    MatrixOperator,
    anticommutator_defect,
    dirac_gammas,
    kg_gammas,
    matrix_in_frame,
    DerivativeOp,
    ScaleOp,
)
from .bundle import (
    PathSampling,
    evolution_transport,
    flat_transport,
    transported_lifting,
)
from .evolution import evolve, kg_charge
from .green import EigenBasis, propagate_retarded
from .grid import GridFunction, SpatialGrid1D, derivative_matrix
from .reduction import (
    companion_hamiltonian,
    dirac_hamiltonian,
    kg_canonical_hamiltonian,
    schrodinger_hamiltonian,
)


@dataclass
class CheckResult:
    name: str
    value: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.value <= self.tolerance


def _gaussian_state(grid: SpatialGrid1D, dim: int, component: int = 0) -> GridFunction:
    values = np.zeros((dim, grid.npoints), dtype=complex)
    x = grid.points
    values[component] = np.exp(-((x - grid.length / 2.0) ** 2))
    state = GridFunction(grid, values)
    return state * (1.0 / state.norm())


def check_clifford_anticommutator() -> CheckResult:
    """{gamma_mu, gamma_nu} = 2 eta_mumu delta_munu on the 4x4 set, exactly."""
    return CheckResult("clifford-anticommutator", anticommutator_defect(dirac_gammas()), 0.0)


def check_scalar_set_structure() -> CheckResult:
    """The 5x5 first-order set has its only entries at (mu, 4) and (4, mu)."""
    gammas = kg_gammas()
    worst = 0.0
    for mu in range(4):
        g = gammas.matrix(mu)
        expected = np.zeros((5, 5))
        expected[mu, 4] = 1.0
        expected[4, mu] = METRIC_SIGNATURE[mu]
        worst = max(worst, float(np.max(np.abs(g - expected))))
    return CheckResult("scalar-set-structure", worst, 0.0)


def check_derivative_antisymmetry() -> CheckResult:
    """The periodic first-derivative matrix is anti-Hermitian."""
    grid = SpatialGrid1D(16, 2.0 * np.pi)
    d = derivative_matrix(grid)
    defect = float(np.max(np.abs(d + d.conj().T)))
    return CheckResult("derivative-antisymmetry", defect, 1e-13)


def check_companion_structure() -> CheckResult:
    """Companion blocks: identities above the diagonal, coefficients in the
    bottom block row, nothing else."""
    grid = SpatialGrid1D(8, 2.0 * np.pi)
    factory = companion_hamiltonian([(-2.0) * DerivativeOp(2), 0.5 * DerivativeOp(1), ScaleOp(0.25)])
    dense = factory.at().dense(grid)
    n = grid.npoints
    eye = np.eye(n)
    expected = np.zeros((3 * n, 3 * n), dtype=complex)
    expected[0:n, n:2 * n] = 1j * eye
    expected[n:2 * n, 2 * n:3 * n] = 1j * eye
    expected[2 * n:3 * n, 0:n] = 1j * (-2.0) * derivative_matrix(grid, 2)
    expected[2 * n:3 * n, n:2 * n] = 1j * 0.5 * derivative_matrix(grid, 1)
    expected[2 * n:3 * n, 2 * n:3 * n] = 1j * 0.25 * eye
    return CheckResult("companion-structure", float(np.max(np.abs(dense - expected))), 1e-12)


def check_evolution_unitarity() -> CheckResult:
    """Norm drift of the four-component free evolution over 50 steps."""
    grid = SpatialGrid1D(16, 2.0 * np.pi)
    factory = dirac_hamiltonian(mass=1.0)
    state = _gaussian_state(grid, 4)
    final = evolve(state, factory, dt=0.01, steps=50)
    return CheckResult("evolution-unitarity", abs(final.norm() - 1.0), 1e-10)


def check_frame_change_connection() -> CheckResult:
    """A phase frame shifts the derivative by i theta'(x)."""
    grid = SpatialGrid1D(32, 2.0 * np.pi)
    x = grid.points
    theta = np.sin(x)
    frame = np.exp(1j * theta)[:, None, None] * np.eye(1)
    op = MatrixOperator([[DerivativeOp(1)]])
    framed = matrix_in_frame(op, frame)
    psi = GridFunction(grid, np.exp(np.cos(x))[None, :])
    got = framed.apply(psi).values[0]
    expected = (-np.sin(x)) * np.exp(np.cos(x)) + 1j * np.cos(x) * np.exp(np.cos(x))
    return CheckResult("frame-change-connection", float(np.max(np.abs(got - expected))), 1e-9)


def _probe_transport():
    grid = SpatialGrid1D(8, 8.0 * np.pi)
    factory = schrodinger_hamiltonian(mass=1.0)
    sampling = PathSampling.uniform(0.0, 0.8, 9)
    return evolution_transport(factory, grid, sampling), grid


def check_transport_identity() -> CheckResult:
    """K(i <- i) = Id at every sample."""
    transport, _ = _probe_transport()
    size = transport.fibre_dim
    worst = max(
        float(np.max(np.abs(transport.transport(i, i) - np.eye(size))))
        for i in range(transport.nsamples)
    )
    return CheckResult("transport-identity", worst, 1e-12)


def check_transport_composition(seed: int) -> CheckResult:
    """K(i <- j) K(j <- k) = K(i <- k) over random index triples."""
    transport, _ = _probe_transport()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        i, j, k = rng.integers(0, transport.nsamples, size=3)
        lhs = transport.transport(i, j) @ transport.transport(j, k)
        rhs = transport.transport(i, k)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return CheckResult("transport-composition", worst, 1e-12)


def check_flat_path_independence() -> CheckResult:
    """Flat transports between fixed endpoints agree across samplings."""
    npoints = 32
    grid = SpatialGrid1D(npoints, 2.0 * np.pi)
    x = grid.points
    field = np.empty((npoints, 2, 2), dtype=complex)
    field[:, 0, 0] = 1.0 + 0.1 * np.cos(x)
    field[:, 0, 1] = 0.2 * np.sin(x)
    field[:, 1, 0] = 0.1 * np.sin(2 * x)
    field[:, 1, 1] = 1.0 + 0.1 * np.cos(2 * x)
    coarse_idx = [0, 8, 16, 24, 31]
    fine_idx = list(range(32))
    coarse = flat_transport(PathSampling(x[coarse_idx]), field[coarse_idx])
    fine = flat_transport(PathSampling(x[fine_idx]), field[fine_idx])
    diff = coarse.transport(len(coarse_idx) - 1, 0) - fine.transport(len(fine_idx) - 1, 0)
    return CheckResult("flat-path-independence", float(np.max(np.abs(diff))), 1e-12)


def check_gauge_invariance(seed: int) -> CheckResult:
    """Transported liftings in a changed gauge are the gauge-mapped originals."""
    transport, grid = _probe_transport()
    rng = np.random.default_rng(seed)
    size = transport.fibre_dim
    frames = np.empty((transport.nsamples, size, size), dtype=complex)
    for i in range(transport.nsamples):
        q, _ = np.linalg.qr(
            rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        )
        frames[i] = q
    seed_vec = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    plain = transported_lifting(transport, seed_vec)
    changed = transported_lifting(
        transport.with_gauge(frames), np.linalg.solve(frames[0], seed_vec)
    )
    worst = max(
        float(np.max(np.abs(changed.values[i] - np.linalg.solve(frames[i], plain.values[i]))))
        for i in range(transport.nsamples)
    )
    return CheckResult("gauge-invariance", worst, 1e-12)


def check_green_duality() -> CheckResult:
    """Kernel propagation reproduces the exponential-midpoint evolution."""
    grid = SpatialGrid1D(32, 2.0 * np.pi)
    factory = schrodinger_hamiltonian(mass=1.0)
    state = _gaussian_state(grid, 1)
    t_final = 0.4
    evolved = evolve(state, factory, dt=0.01, steps=40, method="midpoint-exponential")
    basis = EigenBasis.from_factory(factory, grid)
    kernelled = propagate_retarded(basis, state, t_final, 0.0)
    return CheckResult("green-duality", (evolved - kernelled).norm(), 1e-8)


def check_charge_conservation() -> CheckResult:
    """The free scalar-field charge is constant along the evolution."""
    grid = SpatialGrid1D(16, 2.0 * np.pi)
    factory = kg_canonical_hamiltonian(mass=1.0)
    values = np.zeros((2, grid.npoints), dtype=complex)
    x = grid.points
    values[0] = np.exp(1j * x) + 0.3 * np.exp(-1j * 2 * x)
    values[1] = 1j * np.exp(1j * x)
    state = GridFunction(grid, values)
    state = state * (1.0 / state.norm())
    start = kg_charge(state)
    drifts = []
    evolve(state, factory, dt=0.01, steps=100,
           callback=lambda t, s: drifts.append(abs(kg_charge(s) - start)))
    return CheckResult("charge-conservation", max(drifts), 1e-10)


# Suite name -> checks, each wrapped to take the seed uniformly.
SUITES = {
    "algebra": [
        lambda seed: check_clifford_anticommutator(),
        lambda seed: check_scalar_set_structure(),
        lambda seed: check_derivative_antisymmetry(),
        lambda seed: check_frame_change_connection(),
    ],
    "reduction": [
        lambda seed: check_companion_structure(),
    ],
    "evolution": [
        lambda seed: check_evolution_unitarity(),
        lambda seed: check_charge_conservation(),
    ],
    "bundle": [
        lambda seed: check_transport_identity(),
        lambda seed: check_transport_composition(seed),
        lambda seed: check_flat_path_independence(),
        lambda seed: check_gauge_invariance(seed),
    ],
    "green": [
        lambda seed: check_green_duality(),
    ],
}


def run_checks(suite: str = "all", seed: int = 0, tolerance_scale: float = 1.0) -> list[CheckResult]:
    """Run one named suite, or every suite for ``all``."""
    if suite == "all":
        names = list(SUITES)
    elif suite in SUITES:
        names = [suite]
    else:
        raise KeyError(suite)
    results = (check(seed) for name in names for check in SUITES[name])
    return [CheckResult(r.name, r.value, r.tolerance * tolerance_scale) for r in results]
