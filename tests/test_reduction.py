"""First-order reductions, their equivalences, and gauge frames."""

import dataclasses

import numpy as np
import pytest

from bundlewave.algebra import (
    DerivativeOp,
    MatrixOperator,
    ScaleOp,
    alpha_matrices,
    beta_matrix,
    kron_component_matrix,
)
from bundlewave.evolution import evolve, hamiltonian_dense
from bundlewave.grid import GridFunction, SpatialGrid1D, derivative_matrix, derivative_values
from bundlewave.reduction import (
    GaugeFrame,
    HamiltonianFactory,
    LinearTimeSystem,
    Potentials,
    ReductionError,
    block_diag_hamiltonian,
    companion_hamiltonian,
    covariant_scalar_residual,
    dirac_hamiltonian,
    gauge_transform,
    kg_5d_hamiltonian,
    kg_canonical_hamiltonian,
    kg_nonrel_frame,
    kg_nonrel_hamiltonian,
    maxwell_hamiltonian,
    schrodinger_hamiltonian,
)

GRID = SpatialGrid1D(16, 2.0 * np.pi)


# ---------------------------------------------------------------------------
# Factories


def test_factory_reads_dimension_and_time_dependence_from_its_operator():
    assert [f.name for f in dataclasses.fields(HamiltonianFactory)] == ["op", "label", "hbar"]
    static = MatrixOperator([[DerivativeOp(2), ScaleOp(0.5)], [ScaleOp(0.5), DerivativeOp(1)]])
    driven = static + MatrixOperator([[ScaleOp(lambda t: np.sin(t)), ScaleOp(0.0)],
                                      [ScaleOp(0.0), ScaleOp(0.0)]])
    for op, varies in ((static, False), (driven, True)):
        factory = HamiltonianFactory(op, "hand-built", 0.7)
        assert factory.at() is op
        assert factory.dimension == 2
        assert factory.time_dependent is varies


def test_factory_refuses_a_non_square_operator():
    with pytest.raises(ReductionError, match="square"):
        HamiltonianFactory(MatrixOperator.zeros(2, 3))


# ---------------------------------------------------------------------------
# Companion reduction


def test_companion_block_structure():
    # Identities above the diagonal, coefficients along the bottom row.
    f0 = MatrixOperator([[(-2.0) * DerivativeOp(2)]])
    f1 = MatrixOperator([[0.5 * DerivativeOp(1)]])
    f2 = MatrixOperator.from_constant(np.array([[0.25]]))
    factory = companion_hamiltonian(LinearTimeSystem(3, [f0, f1, f2]))
    dense = hamiltonian_dense(factory, GRID)
    n = GRID.npoints
    expected = np.zeros((3 * n, 3 * n), dtype=complex)
    expected[0:n, n:2 * n] = 1j * np.eye(n)
    expected[n:2 * n, 2 * n:3 * n] = 1j * np.eye(n)
    expected[2 * n:3 * n, 0:n] = -2j * derivative_matrix(GRID, 2)
    expected[2 * n:3 * n, n:2 * n] = 0.5j * derivative_matrix(GRID, 1)
    expected[2 * n:3 * n, 2 * n:3 * n] = 0.25j * np.eye(n)
    assert np.max(np.abs(dense - expected)) < 1e-13


def test_companion_validates_coefficients():
    with pytest.raises(ReductionError):
        LinearTimeSystem(2, [MatrixOperator.identity(1)])
    with pytest.raises(ReductionError):
        LinearTimeSystem(0, [])
    with pytest.raises(ReductionError):
        LinearTimeSystem(1, [lambda t: MatrixOperator.identity(1)])
    bad = LinearTimeSystem(1, [MatrixOperator.identity(2)], base_components=1)
    with pytest.raises(ReductionError):
        companion_hamiltonian(bad).at()


def test_companion_matches_second_order_solution():
    # phi'' = -omega^2 phi on a single point: the stacked evolution
    # reproduces cosine motion.
    grid = SpatialGrid1D(2, 1.0)
    omega = 2.0
    factory = companion_hamiltonian(
        LinearTimeSystem(2, [MatrixOperator.from_constant([[-(omega**2)]]), MatrixOperator.zeros(1, 1)])
    )
    state = GridFunction(grid, np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex))
    final = evolve(state, factory, dt=1e-3, steps=1000, method="midpoint-exponential")
    assert final.values[0, 0] == pytest.approx(np.cos(omega * 1.0), abs=1e-9)
    assert final.values[1, 0] == pytest.approx(-omega * np.sin(omega * 1.0), abs=1e-9)


# ---------------------------------------------------------------------------
# Four-component operator


def test_dirac_dense_assembly():
    mass, charge, hbar, c = 1.3, 0.4, 0.7, 2.0
    x = GRID.points
    scalar = 0.2 * np.cos(x)
    vector = 0.1 * np.sin(x)
    factory = dirac_hamiltonian(mass, charge, Potentials(scalar, vector), hbar, c)
    dense = hamiltonian_dense(factory, GRID)
    alpha1 = alpha_matrices()[0]
    beta = beta_matrix()
    n = GRID.npoints
    momentum = -1j * hbar * derivative_matrix(GRID) - (charge / c) * np.diag(vector)
    expected = (
        np.kron(np.eye(4), charge * np.diag(scalar))
        + c * np.kron(alpha1, momentum)
        + mass * c * c * kron_component_matrix(beta, n)
    )
    assert np.max(np.abs(dense - expected)) < 1e-12


def test_dirac_free_is_hermitian():
    dense = hamiltonian_dense(dirac_hamiltonian(mass=1.0), GRID)
    assert np.max(np.abs(dense - dense.conj().T)) < 1e-13


def test_dirac_time_dependent_potential():
    factory = dirac_hamiltonian(
        1.0, charge=1.0, potentials=Potentials(scalar=lambda t: 2.0 * t)
    )
    assert factory.time_dependent
    h0 = hamiltonian_dense(factory, GRID, t=0.0)
    h1 = hamiltonian_dense(factory, GRID, t=1.0)
    assert np.max(np.abs((h1 - h0) - 2.0 * np.eye(4 * GRID.npoints))) < 1e-12


DRIVING = Potentials(scalar=lambda t: 0.1 * t, vector=lambda t: np.cos(GRID.points + t))


@pytest.mark.parametrize("build", [
    lambda: dirac_hamiltonian(1.0, 1.0, Potentials(scalar=lambda t: np.cos(GRID.points + t))),
    lambda: dirac_hamiltonian(1.0),
    lambda: schrodinger_hamiltonian(1.0, potential=lambda t: np.cos(GRID.points - t)),
    lambda: kg_nonrel_hamiltonian(1.0, 1.0, Potentials(scalar=lambda t: 0.1 * t)),
    lambda: kg_canonical_hamiltonian(1.0, 1.0, Potentials(scalar=lambda t: 0.1 * t)),
    lambda: kg_canonical_hamiltonian(1.0),
    lambda: kg_5d_hamiltonian(1.0),
    lambda: maxwell_hamiltonian(),
    # A field of charge 0 does not couple to its potentials, callable or not.
    lambda: dirac_hamiltonian(1.0, 0.0, DRIVING),
    lambda: kg_canonical_hamiltonian(1.0, 0.0, DRIVING),
    lambda: kg_nonrel_hamiltonian(1.0, 0.0, DRIVING),
])
def test_builders_share_one_operator_across_times(build):
    # Time enters the one operator only through callable scale factors,
    # realized at each t, and the time-dependence flag is read from the
    # operator: it is set exactly when the realized H varies.
    factory = build()
    h1, h2 = hamiltonian_dense(factory, GRID, 0.1), hamiltonian_dense(factory, GRID, 2.3)
    change = np.max(np.abs(h1 - h2))
    assert change > 0.1 if factory.time_dependent else change == 0.0


# ---------------------------------------------------------------------------
# Scalar-field stackings


def test_canonical_free_bottom_row():
    # f_0 = -(c/hbar)^2 p.p - (m c^2 / hbar)^2 in the lower-left block, with
    # the momentum squared realised as two composed first derivatives.
    mass, hbar, c = 1.5, 0.8, 2.0
    dense = hamiltonian_dense(kg_canonical_hamiltonian(mass, hbar=hbar, c=c), GRID)
    n = GRID.npoints
    d1 = derivative_matrix(GRID, 1)
    f0 = (c**2) * (d1 @ d1) - ((mass * c * c / hbar) ** 2) * np.eye(n)
    assert np.max(np.abs(dense[n:, :n] - 1j * hbar * f0)) < 1e-11
    assert np.max(np.abs(dense[:n, n:] - 1j * hbar * np.eye(n))) < 1e-13
    assert np.max(np.abs(dense[n:, n:])) == 0.0


def test_canonical_with_potential_terms():
    charge, v0, hbar = 0.6, 0.9, 1.0
    pots = Potentials(scalar=v0)
    dense = hamiltonian_dense(kg_canonical_hamiltonian(1.0, charge, pots, hbar), GRID)
    n = GRID.npoints
    f1_block = dense[n:, n:]
    expected = 1j * hbar * (2 * charge / (1j * hbar)) * v0 * np.eye(n)
    assert np.max(np.abs(f1_block - expected)) < 1e-13
    # The f_0 block gains +(e V / hbar)^2 relative to the free form.
    free = hamiltonian_dense(kg_canonical_hamiltonian(1.0, hbar=hbar), GRID)
    shift = (dense[n:, :n] - free[n:, :n]) / (1j * hbar)
    assert np.max(np.abs(shift - (charge * v0 / hbar) ** 2 * np.eye(n))) < 1e-12


def test_nonrel_split_equals_gauged_canonical():
    mass, charge, hbar, c = 1.2, 0.5, 0.9, 1.5
    pots = Potentials(scalar=0.3 * np.cos(GRID.points))
    canonical = kg_canonical_hamiltonian(mass, charge, pots, hbar, c)
    split = kg_nonrel_hamiltonian(mass, charge, pots, hbar, c)
    frame = kg_nonrel_frame(mass, hbar, c)
    gauged = gauge_transform(canonical, frame)
    diff = hamiltonian_dense(gauged, GRID) - hamiltonian_dense(split, GRID)
    assert np.max(np.abs(diff)) < 1e-10


def test_nonrel_needs_mass():
    with pytest.raises(ReductionError):
        kg_nonrel_hamiltonian(0.0)
    with pytest.raises(ReductionError):
        kg_nonrel_frame(0.0)


def test_nonrel_free_slow_component_is_schrodinger_like():
    # For a slow mode the first diagonal entry acts as mc^2 - (hbar^2/2m) d^2.
    mass, hbar, c = 1.0, 1.0, 1.0
    dense = hamiltonian_dense(kg_nonrel_hamiltonian(mass, hbar=hbar, c=c), GRID)
    n = GRID.npoints
    d1 = derivative_matrix(GRID, 1)
    expected = mass * c * c * np.eye(n) - (hbar**2 / (2 * mass)) * (d1 @ d1)
    assert np.max(np.abs(dense[:n, :n] - expected)) < 1e-11


def test_five_component_tracks_canonical():
    mass, hbar, c = 1.0, 1.0, 1.0
    x = GRID.points
    phi0 = np.exp(1j * x) + 0.2 * np.exp(-2j * x)
    phidot0 = 0.3j * np.exp(1j * x)
    canonical = kg_canonical_hamiltonian(mass, hbar=hbar, c=c)
    five = kg_5d_hamiltonian(mass, hbar, c)
    zeros = np.zeros_like(phi0)
    s2 = GridFunction(GRID, np.stack([phi0, phidot0]))
    s5 = GridFunction(
        GRID,
        np.stack([mass * c * c * phi0, phidot0, derivative_values(GRID, phi0), zeros, zeros]),
    )
    e2 = evolve(s2, canonical, dt=0.001, steps=400)
    e5 = evolve(s5, five, dt=0.001, steps=400)
    assert np.max(np.abs(e5.values[0] / (mass * c * c) - e2.values[0])) < 1e-10
    # Transverse gradient components stay identically zero.
    assert np.max(np.abs(e5.values[3:])) == 0.0


def test_five_component_needs_mass():
    with pytest.raises(ReductionError):
        kg_5d_hamiltonian(0.0)


@pytest.mark.parametrize("mass", [0.0, -1.0, -1e-300])
@pytest.mark.parametrize(
    "builder", [schrodinger_hamiltonian, kg_nonrel_hamiltonian, kg_nonrel_frame, kg_5d_hamiltonian]
)
def test_mass_divisors_need_a_positive_mass(builder, mass):
    with pytest.raises(ReductionError, match="positive mass"):
        builder(mass)


def test_covariant_scalar_residual_vanishes_on_plane_wave():
    # Analytic plane-wave snapshots of the five-component state; the residual
    # of the first-order covariant form shrinks at second order in dt.
    mass, hbar, c = 1.0, 1.0, 1.0
    k = 2.0
    omega = np.sqrt((c * k) ** 2 + (mass * c * c / hbar) ** 2)
    x = GRID.points

    def five_state(t):
        phi = np.exp(1j * (k * x - omega * t))
        return GridFunction(
            GRID,
            np.stack([
                mass * c * c * phi,
                -1j * omega * phi,
                1j * k * phi,
                np.zeros_like(phi),
                np.zeros_like(phi),
            ]),
        )

    residuals = []
    for dt in (1e-2, 5e-3):
        r = covariant_scalar_residual(
            five_state(-dt), five_state(0.0), five_state(dt), dt, mass, hbar, c
        )
        residuals.append(float(np.max(np.abs(r.values))))
    assert residuals[0] < 1e-3
    assert residuals[0] / residuals[1] > 3.0


def test_covariant_scalar_residual_shape_check():
    bad = GridFunction(GRID, np.zeros((2, GRID.npoints)))
    with pytest.raises(ReductionError):
        covariant_scalar_residual(bad, bad, bad, 0.1, 1.0)


# ---------------------------------------------------------------------------
# Field pair, one component, stacking


def test_curl_system_plane_wave_dispersion():
    # Right-moving pair (E_y, H_z) with E_y = -H_z travels at speed c.
    c = 1.0
    factory = maxwell_hamiltonian(c=c)
    dense = hamiltonian_dense(factory, GRID)
    assert np.max(np.abs(dense - dense.conj().T)) < 1e-12
    k = 3.0
    x = GRID.points
    mode = np.exp(1j * k * x)
    zeros = np.zeros_like(mode)
    # A right-moving wave pairs the transverse electric and magnetic
    # components with the same sign.
    state = GridFunction(GRID, np.stack([mode, zeros, zeros, mode]))
    t_final = 0.5
    final = evolve(state, factory, dt=1e-3, steps=500, method="midpoint-exponential")
    expected = np.exp(1j * k * (x - c * t_final))
    assert np.max(np.abs(final.values[0] - expected)) < 1e-9


def test_schrodinger_factory():
    factory = schrodinger_hamiltonian(mass=2.0, potential=np.cos(GRID.points))
    dense = hamiltonian_dense(factory, GRID)
    expected = -(1.0 / 4.0) * derivative_matrix(GRID, 2) + np.diag(np.cos(GRID.points))
    assert np.max(np.abs(dense - expected)) < 1e-12
    with pytest.raises(ReductionError):
        schrodinger_hamiltonian(mass=0.0)


def test_block_diag_stacks_factories():
    a = schrodinger_hamiltonian(mass=1.0)
    b = maxwell_hamiltonian()
    stacked = block_diag_hamiltonian([a, b])
    assert stacked.dimension == 5
    dense = hamiltonian_dense(stacked, GRID)
    n = GRID.npoints
    assert np.max(np.abs(dense[:n, :n] - hamiltonian_dense(a, GRID))) == 0.0
    assert np.max(np.abs(dense[n:, n:] - hamiltonian_dense(b, GRID))) == 0.0
    assert np.max(np.abs(dense[:n, n:])) == 0.0


# ---------------------------------------------------------------------------
# Gauge frames


def test_gauge_transform_constant_conjugation():
    factory = schrodinger_hamiltonian(mass=1.0)
    a = np.array([[2.0]])
    gauged = gauge_transform(
        _expand_to(factory), GaugeFrame(np.array([[1.0, 0.5], [0.0, 1.0]]))
    )
    h = hamiltonian_dense(_expand_to(factory), GRID)
    m = np.array([[1.0, 0.5], [0.0, 1.0]])
    expected = (
        kron_component_matrix(m, GRID.npoints)
        @ h
        @ kron_component_matrix(np.linalg.inv(m), GRID.npoints)
    )
    assert np.max(np.abs(hamiltonian_dense(gauged, GRID) - expected)) < 1e-11


def _expand_to(factory):
    return block_diag_hamiltonian([factory, factory], label="pair")


def test_gauge_transform_time_dependent_term():
    # H~ = A H A^{-1} + i hbar A' A^{-1} with A = exp(i w t) on one component.
    w = 0.7
    factory = schrodinger_hamiltonian(mass=1.0, hbar=2.0)
    frame = GaugeFrame(
        lambda t: np.array([[np.exp(1j * w * t)]]),
        derivative=lambda t: np.array([[1j * w * np.exp(1j * w * t)]]),
    )
    gauged = gauge_transform(factory, frame)
    t = 0.3
    h = hamiltonian_dense(factory, GRID, t)
    expected = h + 2.0 * 1j * (1j * w) * np.eye(GRID.npoints)
    assert np.max(np.abs(hamiltonian_dense(gauged, GRID, t) - expected)) < 1e-11


def test_gauge_transform_finite_difference_rate():
    w = 0.7
    factory = schrodinger_hamiltonian(mass=1.0)
    frame = GaugeFrame(lambda t: np.array([[np.exp(1j * w * t)]]))
    gauged = gauge_transform(factory, frame)
    t = 0.3
    h = hamiltonian_dense(factory, GRID, t)
    expected = h - w * np.eye(GRID.npoints)
    assert np.max(np.abs(hamiltonian_dense(gauged, GRID, t) - expected)) < 1e-8


def test_gauge_transform_refuses_a_singular_constant_frame_when_called():
    with pytest.raises(ReductionError, match="singular"):
        gauge_transform(_expand_to(schrodinger_hamiltonian(1.0)), GaugeFrame(np.ones((2, 2))))


def test_driven_frame_that_leaves_its_initial_support_is_refused():
    # A(0) = I and dA/dt(0) = 0, so the (0, 1) entry has no place in H~.
    frame = GaugeFrame(lambda t: np.array([[1.0, t * t], [0.0, 1.0]]))
    gauged = gauge_transform(_expand_to(schrodinger_hamiltonian(1.0)), frame)
    assert gauged.time_dependent
    hamiltonian_dense(gauged, GRID, 0.0)
    with pytest.raises(ReductionError, match="leaves its support") as refused:
        hamiltonian_dense(gauged, GRID, 0.5)
    assert "\n" not in str(refused.value)
    state = GridFunction(GRID, np.ones((2, GRID.npoints), dtype=complex))
    with pytest.raises(ReductionError, match="leaves its support"):
        evolve(state, gauged, dt=0.1, steps=5)


def test_gauge_frame_guards():
    with pytest.raises(ReductionError):
        GaugeFrame(np.zeros((2, 2))).inverse_at()
    with pytest.raises(ReductionError):
        GaugeFrame(np.zeros((2, 3))).at()
    with pytest.raises(ReductionError):
        gauge_transform(schrodinger_hamiltonian(1.0), GaugeFrame(np.eye(3)))
    assert GaugeFrame(np.eye(2)).condition_number() == pytest.approx(1.0)
    assert GaugeFrame(np.eye(2)).is_unitary()
