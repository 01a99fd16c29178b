"""Transports from frames, their laws, coefficients, and liftings."""

import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from bundlewave.algebra import MatrixOperator, ScaleOp, op_sum
from bundlewave.bundle import (
    BundleError,
    Lifting,
    PathSampling,
    TransportAlongMap,
    Trivialization,
    derivation_along_path,
    evolution_transport,
    flat_transport,
    generator_from_transport,
    induced_fibre_product,
    transport_coefficients,
    transported_lifting,
)
from bundlewave.evolution import (
    EvolutionError,
    EvolutionOperator,
    evolve,
    hamiltonian_dense,
    step_matrix,
)
from bundlewave.grid import GridFunction, SpatialGrid1D, inner
from bundlewave.reduction import (
    HamiltonianFactory,
    Potentials,
    dirac_hamiltonian,
    kg_5d_hamiltonian,
    schrodinger_hamiltonian,
)

GRID = SpatialGrid1D(8, 8.0 * np.pi)


def _free_factory():
    return schrodinger_hamiltonian(1.0)


def _driven_factory():
    x = GRID.points
    return schrodinger_hamiltonian(
        1.0, potential=lambda t: np.sin(1.3 * t) * 0.3 * np.cos(2.0 * np.pi * x / GRID.length)
    )


def _packet_flat(grid: SpatialGrid1D) -> np.ndarray:
    x = grid.points
    values = np.exp(-((x - grid.length / 2) ** 2) / 8.0) * np.exp(0.25j * x)
    return values / np.sqrt(grid.spacing * np.sum(np.abs(values) ** 2))


def _conditioned_frames(rng: np.random.Generator, nsamples: int, dim: int) -> np.ndarray:
    """Random invertible frames with singular values in [0.5, 2]."""
    frames = np.empty((nsamples, dim, dim), dtype=complex)
    for i in range(nsamples):
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        p, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        frames[i] = q @ np.diag(rng.uniform(0.5, 2.0, size=dim)) @ p
    return frames


# ---------------------------------------------------------------------------
# Samplings and trivializations


def test_path_sampling_validation():
    with pytest.raises(BundleError):
        PathSampling(np.array([0.3]))
    with pytest.raises(BundleError):
        PathSampling(np.array([0.0, 0.5, 0.5]))
    for parameters in ([0.0, np.nan], [0.0, np.inf], [-np.inf, 0.0], [np.nan, 0.0, 1.0]):
        with pytest.raises(BundleError, match="finite"):
            PathSampling(parameters)
    sampling = PathSampling.uniform(0.0, 1.0, 5)
    assert sampling.nsamples == 5
    assert abs(sampling.spacing(2) - 0.25) < 1e-15


def test_trivialization_constructors_and_checks():
    with pytest.raises(BundleError):
        Trivialization(np.ones((3, 2)))
    with pytest.raises(BundleError, match="frame 1"):
        Trivialization(np.stack([np.eye(2), np.zeros((2, 2))]))
    with pytest.raises(BundleError, match="frame 2 is singular"):
        Trivialization(np.stack([np.eye(2), np.eye(2), np.diag([1e8, 1e-9])]))
    assert Trivialization.constant(0.5 * np.eye(64), 2).dim == 64
    assert Trivialization.identity(4, 3).is_unitary()
    phases = Trivialization.phase(np.linspace(0, 1, 4), dim=2)
    assert phases.dim == 2 and phases.is_unitary()
    stretched = Trivialization.constant(np.diag([2.0, 1.0]), 3)
    assert not stretched.is_unitary()


def test_induced_fibre_product_makes_frames_isometric():
    rng = np.random.default_rng(7)
    grid = SpatialGrid1D(12, 3.0)
    field = _conditioned_frames(rng, grid.npoints, 2)
    product = induced_fibre_product(field)
    a = GridFunction(grid, rng.normal(size=(2, 12)) + 1j * rng.normal(size=(2, 12)))
    b = GridFunction(grid, rng.normal(size=(2, 12)) + 1j * rng.normal(size=(2, 12)))
    mapped_a = GridFunction(grid, np.einsum("xij,jx->ix", field, a.values))
    mapped_b = GridFunction(grid, np.einsum("xij,jx->ix", field, b.values))
    assert abs(inner(a, b, product) - inner(mapped_a, mapped_b)) < 1e-12
    with pytest.raises(BundleError):
        induced_fibre_product(np.eye(2))


# ---------------------------------------------------------------------------
# Transport laws


def test_transport_identity_and_composition_from_random_frames():
    rng = np.random.default_rng(11)
    sampling = PathSampling.uniform(0.0, 1.0, 6)
    transport = TransportAlongMap(sampling, _conditioned_frames(rng, 6, 3))
    for i in range(6):
        assert np.max(np.abs(transport.transport(i, i) - np.eye(3))) < 1e-13
    for _ in range(50):
        i, j, k = rng.integers(0, 6, size=3)
        chained = transport.transport(i, j) @ transport.transport(j, k)
        assert np.max(np.abs(chained - transport.transport(i, k))) < 1e-12


def test_transport_frame_validation():
    sampling = PathSampling.uniform(0.0, 1.0, 3)
    with pytest.raises(BundleError):
        TransportAlongMap(sampling, np.ones((3, 2)))
    with pytest.raises(BundleError):
        TransportAlongMap(sampling, np.stack([np.eye(2)] * 4))
    with pytest.raises(BundleError, match="frame 2 is singular"):
        TransportAlongMap(sampling, np.stack([np.eye(2), np.eye(2), np.zeros((2, 2))]))
    with pytest.raises(BundleError, match="frame 1 is singular"):
        TransportAlongMap(sampling, np.stack([np.eye(2), np.diag([1e8, 1e-9]), np.eye(2)]))
    halves = TransportAlongMap(sampling, np.stack([0.5 * np.eye(64)] * 3))
    assert np.array_equal(halves.transport(2, 0), np.eye(64))
    transport = TransportAlongMap(sampling, np.stack([np.eye(2)] * 3))
    with pytest.raises(BundleError):
        transport.transport(3, 0)


def test_flat_transport_depends_only_on_endpoints():
    rng = np.random.default_rng(3)
    sampling = PathSampling.uniform(0.0, 1.0, 5)
    ends = _conditioned_frames(rng, 2, 2)
    route_a = np.concatenate([ends[:1], _conditioned_frames(rng, 3, 2), ends[1:]])
    route_b = np.concatenate([ends[:1], _conditioned_frames(rng, 3, 2), ends[1:]])
    k_a = flat_transport(sampling, route_a).transport(4, 0)
    k_b = flat_transport(sampling, route_b).transport(4, 0)
    assert np.max(np.abs(k_a - k_b)) < 1e-13


def test_with_gauge_conjugates_transports():
    rng = np.random.default_rng(5)
    sampling = PathSampling.uniform(0.0, 1.0, 4)
    transport = TransportAlongMap(sampling, _conditioned_frames(rng, 4, 3))
    gauge = Trivialization(_conditioned_frames(rng, 4, 3))
    twisted = transport.with_gauge(gauge)
    expected = np.linalg.solve(gauge.frames[2], transport.transport(2, 1) @ gauge.frames[1])
    assert np.max(np.abs(twisted.transport(2, 1) - expected)) < 1e-12


def test_with_gauge_expands_componentwise():
    # A gauge on the components acts on stacked fibres as kron(g, Id_N).
    rng = np.random.default_rng(9)
    sampling = PathSampling.uniform(0.0, 1.0, 3)
    transport = TransportAlongMap(sampling, _conditioned_frames(rng, 3, 4))
    gauge = Trivialization(_conditioned_frames(rng, 3, 2))
    twisted = transport.with_gauge(gauge)
    big = np.stack([np.kron(g, np.eye(2)) for g in gauge.frames])
    expected = np.linalg.solve(big[1], transport.transport(1, 0) @ big[0])
    assert np.max(np.abs(twisted.transport(1, 0) - expected)) < 1e-12
    with pytest.raises(BundleError):
        transport.with_gauge(Trivialization.identity(3, 3))
    with pytest.raises(BundleError):
        transport.with_gauge(Trivialization.identity(5, 2))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_transport_laws_hold_for_any_frames(seed):
    rng = np.random.default_rng(seed)
    sampling = PathSampling.uniform(0.0, 1.0, 4)
    transport = TransportAlongMap(sampling, _conditioned_frames(rng, 4, 2))
    i, j, k = rng.integers(0, 4, size=3)
    assert np.max(np.abs(transport.transport(j, j) - np.eye(2))) < 1e-13
    chained = transport.transport(i, j) @ transport.transport(j, k)
    assert np.max(np.abs(chained - transport.transport(i, k))) < 1e-12


# ---------------------------------------------------------------------------
# Evolution transports


def test_evolution_transport_matches_dense_propagators():
    factory = _driven_factory()
    sampling = PathSampling.uniform(0.0, 0.4, 5)
    transport = evolution_transport(factory, GRID, sampling)
    op = EvolutionOperator(factory, GRID, dt=0.1, steps=4, method="midpoint-exponential")
    assert np.max(np.abs(transport.transport(3, 1) - op.matrix(0.1, 0.3))) < 1e-12
    assert np.max(np.abs(transport.transport(0, 4) - op.matrix(0.4, 0.0))) < 1e-12


def test_evolution_transport_substeps_refine_intervals():
    factory = _driven_factory()
    coarse = PathSampling.uniform(0.0, 0.4, 3)
    fine = PathSampling.uniform(0.0, 0.4, 5)
    doubled = evolution_transport(factory, GRID, coarse, substeps=2)
    refined = evolution_transport(factory, GRID, fine)
    assert np.max(np.abs(doubled.transport(2, 0) - refined.transport(4, 0))) < 1e-13
    with pytest.raises(BundleError):
        evolution_transport(factory, GRID, coarse, substeps=0)
    with pytest.raises(BundleError):
        evolution_transport(factory, SpatialGrid1D(2048, 1.0), coarse)


def _reference_transport_frames(factory, grid, sampling, method, substeps, gauge):
    """Frames accumulated as products with explicit step matrices."""
    size = factory.dimension * grid.npoints
    times = sampling.parameters
    frames = np.empty((sampling.nsamples, size, size), dtype=complex)
    frames[0] = np.eye(size, dtype=complex)
    for i in range(sampling.nsamples - 1):
        delta = (times[i + 1] - times[i]) / substeps
        backward = frames[i]
        for k in range(substeps):
            backward = backward @ step_matrix(
                factory, grid, times[i] + (k + 1) * delta, -delta, method
            )
        frames[i + 1] = backward
    transport = TransportAlongMap(sampling, frames)
    return transport.frames if gauge is None else transport.with_gauge(gauge).frames


def _transport_case(model: str, driven: bool):
    grid = SpatialGrid1D(8, 6.0)
    x = grid.points
    profile = 0.3 * np.cos(2.0 * np.pi * x / grid.length)
    if model == "schrodinger":
        potential = (lambda t: np.sin(1.3 * t) * profile) if driven else profile
        return schrodinger_hamiltonian(1.0, potential=potential), grid
    scalar = (lambda t: np.cos(3.0 * t) * profile) if driven else profile
    return dirac_hamiltonian(1.0, 1.0, Potentials(scalar=scalar)), grid


@pytest.mark.parametrize("with_gauge", [False, True])
@pytest.mark.parametrize("substeps", [1, 3])
@pytest.mark.parametrize("driven", [False, True])
@pytest.mark.parametrize("model", ["schrodinger", "dirac"])
@pytest.mark.parametrize("method", ["crank-nicolson", "midpoint-exponential"])
def test_evolution_transport_matches_step_matrix_products(model, driven, substeps, with_gauge, method):
    factory, grid = _transport_case(model, driven)
    sampling = PathSampling(np.array([0.0, 0.07, 0.2, 0.26, 0.41]))
    gauge = None
    if with_gauge:
        angles = np.linspace(0.0, 1.1, sampling.nsamples)
        gauge = Trivialization.phase(angles, factory.dimension)
    transport = evolution_transport(factory, grid, sampling, method, substeps, gauge)
    expected = _reference_transport_frames(factory, grid, sampling, method, substeps, gauge)
    defect = np.max(np.abs(transport.frames - expected)) / np.max(np.abs(expected))
    assert defect <= 1e-12
    for i in range(sampling.nsamples):
        for j in range(sampling.nsamples):
            want = np.linalg.solve(expected[i], expected[j])
            got = transport.transport(i, j)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (i, j)


@pytest.mark.parametrize("model, groups", [
    ("dirac", [[0, 3], [1, 2]]),
    ("kg-5d", [[0, 1, 2], [3], [4]]),
    ("schrodinger", [[0]]),
])
def test_evolution_transport_holds_one_frame_stack_per_component_group(model, groups):
    grid = SpatialGrid1D(8, 6.0)
    factory = {
        "dirac": dirac_hamiltonian(1.0, 1.0, Potentials(scalar=lambda t: 0.3 * np.cos(t))),
        "kg-5d": kg_5d_hamiltonian(1.0),
        "schrodinger": schrodinger_hamiltonian(1.0),
    }[model]
    sampling = PathSampling.uniform(0.0, 0.2, 5)
    transport = evolution_transport(factory, grid, sampling, "crank-nicolson", substeps=2)
    n = grid.npoints
    held = sum(stack.nbytes for _, stack in transport._blocks)
    assert held == sum(sampling.nsamples * (len(group) * n) ** 2 * 16 for group in groups)
    frames = transport.frames
    assert frames.shape == (sampling.nsamples, factory.dimension * n, factory.dimension * n)
    # Entries between different groups are exact zeros.
    label = np.repeat([next(g for g, group in enumerate(groups) if c in group)
                       for c in range(factory.dimension)], n)
    between = label[:, None] != label[None, :]
    assert np.all(frames[:, between] == 0)
    for i, j in [(0, 4), (4, 0), (3, 1), (2, 2)]:
        assert np.all(transport.transport(i, j)[between] == 0), (i, j)


@pytest.mark.parametrize("method", ["crank-nicolson", "midpoint-exponential"])
def test_driven_dirac_transport_matches_evolve(method):
    # Both routes step the two Dirac component groups on their own.
    factory, grid = _transport_case("dirac", driven=True)
    rng = np.random.default_rng(3)
    shape = (factory.dimension, grid.npoints)
    state = GridFunction(grid, rng.normal(size=shape) + 1j * rng.normal(size=shape))
    state = (1.0 / state.norm()) * state
    dt, steps = 0.01, 40
    stepped = evolve(state, factory, dt=dt, steps=steps, t0=0.1, method=method)
    sampling = PathSampling.uniform(0.1, 0.1 + dt * steps, 11)
    transport = evolution_transport(factory, grid, sampling, method, substeps=4)
    transported = transport.transport(-1, 0) @ state.flatten()
    assert np.max(np.abs(stepped.flatten() - transported)) <= 1e-12


def _summed_driven_factory(grid: SpatialGrid1D) -> HamiltonianFactory:
    """Driven Dirac assembled by hand: its diagonal entries are sums of the
    free operator's entries and a callable scale factor, beside the shared
    off-diagonal entries of the free operator."""
    free = dirac_hamiltonian(1.0).at()
    profile = 0.3 * np.cos(2.0 * np.pi * grid.points / grid.length)
    driven = ScaleOp(lambda t: np.cos(3.0 * t) * profile)
    return HamiltonianFactory(MatrixOperator([
        [op_sum(free.entry(i, j), driven) if i == j else free.entry(i, j) for j in range(4)]
        for i in range(4)
    ]), "summed")


def _two_sided_step(factory, grid, mid, dt, method):
    """The step of size dt from the whole H at `mid`, by a two-sided solve
    or a full-matrix exponential."""
    h = hamiltonian_dense(factory, grid, mid)
    if method == "midpoint-exponential":
        return scipy.linalg.expm(-1j * dt * h / factory.hbar)
    eye, k = np.eye(h.shape[0]), 0.5j * dt * h / factory.hbar
    return np.linalg.solve(eye + k, eye - k)


@pytest.mark.parametrize("method", ["crank-nicolson", "midpoint-exponential"])
def test_summed_driven_entries_match_two_sided_steps(method):
    grid = SpatialGrid1D(8, 6.0)
    factory = _summed_driven_factory(grid)
    assert factory.time_dependent
    rng = np.random.default_rng(9)
    shape = (factory.dimension, grid.npoints)
    state = GridFunction(grid, rng.normal(size=shape) + 1j * rng.normal(size=shape))
    dt, steps, t0 = 0.02, 12, 0.1
    psi = state.flatten()
    for k in range(steps):
        psi = _two_sided_step(factory, grid, t0 + (k + 0.5) * dt, dt, method) @ psi
    stepped = evolve(state, factory, dt=dt, steps=steps, t0=t0, method=method)
    assert np.max(np.abs(stepped.flatten() - psi)) <= 1e-12 * np.max(np.abs(psi))

    sampling = PathSampling(np.array([0.0, 0.07, 0.2, 0.26]))
    substeps = 2
    transport = evolution_transport(factory, grid, sampling, method, substeps)
    times = sampling.parameters
    frame = np.eye(factory.dimension * grid.npoints, dtype=complex)
    for i in range(sampling.nsamples - 1):
        delta = (times[i + 1] - times[i]) / substeps
        for k in range(substeps):
            mid = times[i] + (k + 0.5) * delta
            frame = frame @ _two_sided_step(factory, grid, mid, -delta, method)
        defect = np.max(np.abs(transport.frames[i + 1] - frame)) / np.max(np.abs(frame))
        assert defect <= 1e-12


def test_only_gauged_evolution_transports_pass_the_frame_guard(monkeypatch):
    import bundlewave.bundle as bundle_module

    calls = []
    guard = bundle_module.singular_index

    def counted(matrices):
        calls.append(np.shape(matrices))
        return guard(matrices)

    monkeypatch.setattr(bundle_module, "singular_index", counted)
    factory, grid = _transport_case("dirac", driven=True)
    sampling = PathSampling.uniform(0.0, 0.2, 5)
    for method in ("crank-nicolson", "midpoint-exponential"):
        evolution_transport(factory, grid, sampling, method, substeps=2)
    assert calls == []
    gauge = Trivialization.phase(np.linspace(0.0, 1.0, 5), factory.dimension)
    calls.clear()
    evolution_transport(factory, grid, sampling, gauge=gauge)
    # `with_gauge` guards the gauged frames.
    assert calls == [(5, 32, 32)]
    calls.clear()
    TransportAlongMap(sampling, np.broadcast_to(np.eye(3), (5, 3, 3)))
    flat_transport(sampling, np.broadcast_to(np.eye(3), (5, 3, 3)))
    assert len(calls) == 2


def test_evolution_transport_refuses_unknown_methods_and_fractional_substeps():
    factory, sampling = _driven_factory(), PathSampling.uniform(0.0, 0.4, 3)
    with pytest.raises(EvolutionError, match="unknown evolution method 'euler'"):
        evolution_transport(factory, GRID, sampling, method="euler")
    with pytest.raises(BundleError, match="substeps must be an integer"):
        evolution_transport(factory, GRID, sampling, substeps=1.5)
    # A numpy integer is a step count like any other.
    assert np.array_equal(evolution_transport(factory, GRID, sampling, substeps=np.int64(2)).frames,
                          evolution_transport(factory, GRID, sampling, substeps=2).frames)


@pytest.mark.parametrize("method", ["crank-nicolson", "midpoint-exponential"])
def test_overflowing_transport_is_an_evolution_error(method):
    factory, grid = _transport_case("dirac", driven=True)
    # Any numpy RuntimeWarning raised on the way becomes an error here.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvolutionError):
            evolution_transport(factory, grid, PathSampling.uniform(0.0, 1e308, 3), method)


def test_arrival_and_departure_coefficients_are_opposite():
    transport = evolution_transport(_free_factory(), GRID, PathSampling.uniform(0.0, 0.3, 4))
    arrival = transport_coefficients(transport, 1, mode="arrival")
    departure = transport_coefficients(transport, 1, mode="departure")
    assert np.max(np.abs(arrival + departure)) < 1e-12
    with pytest.raises(BundleError):
        transport_coefficients(transport, 0)
    with pytest.raises(BundleError):
        transport_coefficients(transport, 3)
    with pytest.raises(BundleError):
        transport_coefficients(transport, 1, mode="sideways")


def test_generator_readback_recovers_hamiltonian():
    hbar = 1.0
    eps = 3e-4
    sampling = PathSampling(np.array([0.5 - eps, 0.5, 0.5 + eps]))
    transport = evolution_transport(_free_factory(), GRID, sampling)
    recovered = generator_from_transport(transport, 1, hbar=hbar)
    dense = hamiltonian_dense(_free_factory(), GRID)
    assert np.max(np.abs(recovered - dense)) < 1e-8


# ---------------------------------------------------------------------------
# Liftings and derivations


@pytest.mark.parametrize("model", ["schrodinger", "dirac"])
def test_transported_lifting_is_the_sampled_solution(model):
    # Driven Dirac is held as two component groups, each solved on its own.
    factory, grid = _transport_case(model, driven=True) if model == "dirac" else (_driven_factory(), GRID)
    sampling = PathSampling.uniform(0.0, 0.4, 5)
    transport = evolution_transport(factory, grid, sampling)
    seed = np.concatenate([(c + 1) * _packet_flat(grid) for c in range(factory.dimension)])
    lifting = transported_lifting(transport, seed)
    assert np.max(np.abs(lifting.values[0] - seed)) == 0.0
    state = GridFunction(grid, seed.reshape(factory.dimension, grid.npoints))
    for i in range(1, 5):
        evolved = evolve(state, factory, dt=0.1, steps=i, method="midpoint-exponential")
        assert np.max(np.abs(lifting.values[i] - evolved.flatten())) < 1e-12


def test_transported_lifting_origin_and_shape():
    rng = np.random.default_rng(13)
    sampling = PathSampling.uniform(0.0, 1.0, 4)
    transport = TransportAlongMap(sampling, _conditioned_frames(rng, 4, 3))
    seed = rng.normal(size=3) + 1j * rng.normal(size=3)
    lifting = transported_lifting(transport, seed, origin=2)
    assert np.max(np.abs(lifting.values[2] - seed)) < 1e-14
    expected = transport.transport(0, 2) @ seed
    assert np.max(np.abs(lifting.values[0] - expected)) < 1e-12
    with pytest.raises(BundleError):
        transported_lifting(transport, np.ones(2))


def test_derivation_vanishes_on_transported_liftings():
    transport = evolution_transport(_driven_factory(), GRID, PathSampling.uniform(0.0, 0.4, 5))
    lifting = transported_lifting(transport, _packet_flat(GRID))
    residual = derivation_along_path(transport, lifting, 2, mode="limit")
    assert np.max(np.abs(residual)) < 1e-10


def test_derivation_of_constant_lifting_reads_the_generator():
    # For a lifting frozen at lambda_0 the pullback difference tends to
    # (i/hbar) H lambda_0.
    factory = _free_factory()
    delta = 1e-4
    sampling = PathSampling.uniform(0.0, 3 * delta, 4)
    transport = evolution_transport(factory, GRID, sampling)
    seed = _packet_flat(GRID)
    frozen = Lifting(sampling, np.tile(seed, (4, 1)))
    residual = derivation_along_path(transport, frozen, 1, mode="limit")
    expected = 1j * hamiltonian_dense(factory, GRID) @ seed
    assert np.max(np.abs(residual - expected)) < 1e-6


def test_coefficient_derivation_refines_at_second_order():
    factory = _driven_factory()
    errors = []
    for nsamples in (11, 21):
        sampling = PathSampling.uniform(0.0, 1.0, nsamples)
        transport = evolution_transport(factory, GRID, sampling, method="crank-nicolson")
        lifting = transported_lifting(transport, _packet_flat(GRID))
        mid = (nsamples - 1) // 2
        residual = derivation_along_path(transport, lifting, mid, mode="coefficients")
        errors.append(np.max(np.abs(residual)))
    assert errors[0] / errors[1] > 3.0


def test_derivation_input_validation():
    transport = evolution_transport(_free_factory(), GRID, PathSampling.uniform(0.0, 0.3, 4))
    lifting = transported_lifting(transport, _packet_flat(GRID))
    with pytest.raises(BundleError):
        derivation_along_path(transport, lifting, 3, mode="limit")
    with pytest.raises(BundleError):
        derivation_along_path(transport, lifting, 0, mode="coefficients")
    with pytest.raises(BundleError):
        derivation_along_path(transport, lifting, 1, mode="antisymmetric")
    other = Lifting(PathSampling.uniform(0.0, 0.6, 4), lifting.values)
    with pytest.raises(BundleError):
        derivation_along_path(transport, other, 1)
