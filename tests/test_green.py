"""Retarded kernels, the scalar-field sine kernel, and the Born iteration."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from bundlewave.algebra import AlgebraError, Frame, dirac_gammas
from bundlewave.evolution import (
    DENSE_STATE_LIMIT,
    _block,
    _connected_sets,
    _coupling,
    _positions,
    evolve,
)
from bundlewave.green import (
    MAX_BORN_ORDER,
    EigenBasis,
    GreenError,
    ScalarFieldKernel,
    born_kernel,
    chain_kernels,
    green_morphism,
    propagate_retarded,
    retarded_kernel,
    retarded_kernel_dirac,
)
from bundlewave.grid import GridFunction, SpatialGrid1D
from bundlewave.reduction import (
    Potentials,
    dirac_hamiltonian,
    kg_5d_hamiltonian,
    kg_canonical_hamiltonian,
    schrodinger_hamiltonian,
)

GRID = SpatialGrid1D(16, 2.0 * np.pi)


def _packet(grid: SpatialGrid1D, components: int = 1) -> GridFunction:
    x = grid.points
    base = np.exp(-((x - np.pi) ** 2)) * np.exp(1j * x)
    values = np.stack([np.roll(base, 2 * i) * (1.0 + 0.3j * i) for i in range(components)])
    return GridFunction(grid, values)


def _schrodinger_basis():
    factory = schrodinger_hamiltonian(1.0, potential=0.4 * np.cos(GRID.points))
    return factory, EigenBasis.from_factory(factory, GRID)


# ---------------------------------------------------------------------------
# Eigenbasis kernels


def test_eigenbasis_is_weighted_orthonormal_and_complete():
    _, basis = _schrodinger_basis()
    [(_, modes)] = basis.blocks
    gram = GRID.spacing * (modes.conj().T @ modes)
    assert np.max(np.abs(gram - np.eye(GRID.npoints))) < 1e-12
    assert basis.completeness_defect() < 1e-12


def test_propagator_matches_matrix_exponential():
    factory, basis = _schrodinger_basis()
    h = factory.at().dense(GRID)
    delta = 0.7
    assert np.max(np.abs(basis.propagator(delta, 0.0) - scipy.linalg.expm(-1j * delta * h))) < 1e-12


def test_kernel_propagation_is_dual_to_stepping():
    factory, basis = _schrodinger_basis()
    state = _packet(GRID)
    stepped = evolve(state, factory, dt=0.01, steps=50, method="midpoint-exponential")
    from_kernel = propagate_retarded(basis, state, 0.5, 0.0)
    assert np.max(np.abs(from_kernel.values - stepped.values)) < 1e-11


def test_kernel_vanishes_on_and_before_the_source_time():
    _, basis = _schrodinger_basis()
    assert np.all(retarded_kernel(basis, 0.3, 0.3) == 0)
    assert np.all(retarded_kernel(basis, 0.1, 0.3) == 0)
    with pytest.raises(GreenError):
        propagate_retarded(basis, _packet(GRID), 0.3, 0.3)


def test_four_component_kernel_duality():
    factory = dirac_hamiltonian(mass=1.0)
    basis = EigenBasis.from_factory(factory, GRID)
    state = _packet(GRID, components=4)
    stepped = evolve(state, factory, dt=0.01, steps=40, method="midpoint-exponential")
    from_kernel = propagate_retarded(basis, state, 0.4, 0.0)
    assert np.max(np.abs(from_kernel.values - stepped.values)) < 1e-11
    _, plain = _schrodinger_basis()
    with pytest.raises(GreenError):
        retarded_kernel_dirac(plain, 0.4, 0.0)


def test_chaining_through_an_intermediate_time():
    _, basis = _schrodinger_basis()
    direct = retarded_kernel(basis, 0.9, 0.1)
    chained = chain_kernels(
        retarded_kernel(basis, 0.9, 0.4), retarded_kernel(basis, 0.4, 0.1),
        basis.hbar, GRID.spacing,
    )
    assert np.max(np.abs(direct - chained)) < 1e-12


def test_eigenbasis_guards():
    skew = np.diag(np.arange(GRID.npoints)) + 1j * np.eye(GRID.npoints)
    with pytest.raises(GreenError, match="not Hermitian"):
        EigenBasis.from_dense(skew, GRID, 1)
    with pytest.raises(GreenError):
        EigenBasis.from_dense(np.eye(4), GRID, 1)
    big = SpatialGrid1D(1026, 1.0)
    with pytest.raises(GreenError, match="exceeds"):
        EigenBasis.from_dense(np.eye(1026, dtype=complex), big, 1)


# ---------------------------------------------------------------------------
# Component groups: one eigh per group against one eigh of the whole matrix


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda m: st.lists(st.booleans(), min_size=m * m, max_size=m * m).map(
            lambda bits: np.array(bits).reshape(m, m)
        )
    )
)
def test_connected_sets_partition_the_coupling_graph(bits):
    pattern = np.triu(bits) | np.triu(bits).T
    m = pattern.shape[0]
    groups = _connected_sets(pattern)
    assert sorted(c for group in groups for c in group) == list(range(m))
    assert all(group == sorted(group) for group in groups)
    assert [group[0] for group in groups] == sorted(group[0] for group in groups)
    # Reachability by repeated squaring of (Id + pattern).
    reach = np.eye(m, dtype=int) + pattern
    for _ in range(m):
        reach = np.minimum(reach @ reach, 1)
    label = {c: k for k, group in enumerate(groups) for c in group}
    for i in range(m):
        for j in range(m):
            assert (label[i] == label[j]) == bool(reach[i, j])


def _one_eigh_basis(h: np.ndarray, dimension: int) -> EigenBasis:
    """The reference basis: a single eigh of the whole matrix."""
    energies, vectors = np.linalg.eigh(0.5 * (h + h.conj().T))
    size = dimension * GRID.npoints
    return EigenBasis(energies, [(slice(0, size), vectors / np.sqrt(GRID.spacing))], GRID,
                      dimension, 1.0)


def _group_mask(groups: list[list[int]], dimension: int) -> np.ndarray:
    """True on the flat entries whose row and column components share a group."""
    same = np.zeros((dimension, dimension), dtype=bool)
    for group in groups:
        same[np.ix_(group, group)] = True
    return np.kron(same, np.ones((GRID.npoints, GRID.npoints), dtype=bool))


def _assert_block_positions(basis: EigenBasis, groups: list[list[int]]) -> None:
    """The basis holds one block per group, at the group's flat positions."""
    flat = np.arange(basis.energies.size)
    assert len(basis.blocks) == len(groups)
    for (at, modes), group in zip(basis.blocks, groups):
        expected = _positions(group, GRID.npoints)
        assert type(at) is type(expected)
        assert np.array_equal(flat[at], flat[expected])
        assert modes.shape == (flat[at].size,) * 2


def _assert_close(value: np.ndarray, reference: np.ndarray) -> None:
    assert np.max(np.abs(value - reference)) <= 1e-12 * np.max(np.abs(reference))


# Models with more than one component group, and their groups.
GROUPED_MODELS = {
    "dirac": (
        lambda: dirac_hamiltonian(1.0, 1.0, Potentials(scalar=0.3 * np.cos(GRID.points))),
        [[0, 3], [1, 2]],
    ),
    "kg-5d": (lambda: kg_5d_hamiltonian(1.3), [[0, 1, 2], [3], [4]]),
}


def _grouped_problem(model):
    """(factory, grouped basis, one-eigh reference basis, groups) of a model."""
    build, groups = GROUPED_MODELS[model]
    factory = build()
    h = factory.at().dense(GRID)
    return factory, EigenBasis.from_dense(h, GRID, factory.dimension), _one_eigh_basis(
        h, factory.dimension
    ), groups


def test_one_group_basis_is_one_eigh_of_the_whole_matrix():
    factory, basis = _schrodinger_basis()
    h = factory.at().dense(GRID)
    energies, vectors = np.linalg.eigh(0.5 * (h + h.conj().T))
    _assert_block_positions(basis, [[0]])
    assert np.array_equal(basis.energies, energies)
    assert np.array_equal(basis.blocks[0][1], vectors / np.sqrt(GRID.spacing))


@pytest.mark.parametrize("model", sorted(GROUPED_MODELS))
def test_grouped_basis_matches_one_eigh_of_the_whole_matrix(model):
    factory, basis, reference, groups = _grouped_problem(model)
    _assert_block_positions(basis, groups)
    h = factory.at().dense(GRID)
    for at, modes in basis.blocks:
        assert np.all(np.diff(basis.energies[at]) >= 0)
        # Each block holds the eigenvectors of its own group block of H.
        _assert_close(h[_block(at, at)] @ modes, modes * basis.energies[at])
    spectrum = np.sort(reference.energies)
    assert np.max(np.abs(np.sort(basis.energies) - spectrum)) <= 1e-12 * np.max(np.abs(spectrum))
    _assert_close(basis.propagator(0.7, 0.2), reference.propagator(0.7, 0.2))
    _assert_close(retarded_kernel(basis, 0.7, 0.2), retarded_kernel(reference, 0.7, 0.2))
    assert basis.completeness_defect() < 1e-12 and reference.completeness_defect() < 1e-12
    assert abs(basis.completeness_defect() - reference.completeness_defect()) <= 1e-12


def test_dirac_basis_diagonalizes_its_twin_groups_once(monkeypatch):
    # Dirac's groups {0, 3} and {1, 2} realize to blocks with the same bits.
    factory, basis, reference, groups = _grouped_problem("dirac")
    h = factory.at().dense(GRID)
    calls = []
    eigh = np.linalg.eigh

    def counted(matrix):
        calls.append(matrix.shape)
        return eigh(matrix)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    again = EigenBasis.from_dense(h, GRID, factory.dimension)
    assert calls == [(2 * GRID.npoints,) * 2]
    assert np.array_equal(again.energies, basis.energies)
    _assert_block_positions(again, groups)
    for (_, modes), (_, expected) in zip(again.blocks, basis.blocks):
        assert np.array_equal(modes, expected)
    (_, first), (_, second) = basis.blocks
    assert np.array_equal(first, second)


def test_grouped_four_component_kernel_matches_the_dense_weighting():
    factory, basis, reference, _ = _grouped_problem("dirac")
    gamma0 = np.kron(dirac_gammas().matrix(0), np.eye(GRID.npoints))
    dense = retarded_kernel(reference, 0.7, 0.2) @ gamma0
    _assert_close(retarded_kernel_dirac(basis, 0.7, 0.2), dense)
    _assert_close(retarded_kernel_dirac(reference, 0.7, 0.2), dense)
    # Applied without forming the kernel, against the formed ones: G psi,
    # and G gamma0 gamma0 psi, the four-component kernel on a weighted source.
    state = _packet(GRID, components=4)
    applied = propagate_retarded(basis, state, 0.7, 0.2).flatten()
    for kernel, source in ((retarded_kernel(reference, 0.7, 0.2), state.flatten()),
                           (dense, gamma0 @ state.flatten())):
        _assert_close(applied, (1j * GRID.spacing) * (kernel @ source))
    with pytest.raises(GreenError, match="components"):
        propagate_retarded(basis, _packet(GRID, components=2), 0.7, 0.2)


def test_reading_a_basis_never_scans_or_copies_its_modes(monkeypatch):
    import bundlewave.green as green_module

    factory = GROUPED_MODELS["dirac"][0]()
    h = factory.at().dense(GRID)
    state = _packet(GRID, components=4)
    readings = (
        lambda basis: basis.propagator(0.7, 0.2),
        lambda basis: propagate_retarded(basis, state, 0.7, 0.2).values,
        lambda basis: basis.completeness_defect(),
    )
    # A fresh basis per call gives the values each read must repeat.
    fresh = [read(EigenBasis.from_dense(h, GRID, factory.dimension)) for read in readings]
    basis = EigenBasis.from_dense(h, GRID, factory.dimension)
    calls, blocks = [], []
    scan, block = green_module._coupling, green_module._block

    def counted(*args):
        calls.append(args[1:])
        return scan(*args)

    def counted_block(*args):
        blocks.append(args)
        return block(*args)

    monkeypatch.setattr(green_module, "_coupling", counted)
    monkeypatch.setattr(green_module, "_block", counted_block)
    repeated = [[read(basis) for read in readings] for _ in range(2)]
    # The basis holds its group blocks: no read scans or indexes dense modes.
    assert calls == []
    assert blocks == []
    for values in repeated:
        for value, expected in zip(values, fresh):
            assert np.array_equal(value, expected)


def _patterned_perturbation(dimension: int, pattern: list[tuple[int, int]]) -> np.ndarray:
    """Random Hermitian W whose nonzero component blocks are the diagonal
    ones and the listed (i, j) pairs with their mirrors."""
    allowed = np.eye(dimension, dtype=bool)
    for i, j in pattern:
        allowed[i, j] = allowed[j, i] = True
    rng = np.random.default_rng(31)
    size = dimension * GRID.npoints
    a = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    mask = np.kron(allowed, np.ones((GRID.npoints, GRID.npoints), dtype=bool))
    return 0.05 * np.where(mask, a + a.conj().T, 0.0)


# (model, extra component couplings of W, the groups the iterates keep).
BORN_GROUP_CASES = {
    "dirac-block-diagonal": ("dirac", [(0, 3), (1, 2)], [[0, 3], [1, 2]]),
    "dirac-merged": ("dirac", [(0, 1)], [[0, 1, 2, 3]]),
    "kg-5d-block-diagonal": ("kg-5d", [(0, 2)], [[0, 1, 2], [3], [4]]),
    "kg-5d-merged": ("kg-5d", [(3, 4)], [[0, 1, 2], [3, 4]]),
}


@pytest.mark.parametrize("quad_points", [3, 33])
@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(BORN_GROUP_CASES))
def test_grouped_born_kernel_matches_the_one_group_basis(case, order, quad_points):
    model, pattern, kept = BORN_GROUP_CASES[case]
    factory, basis, reference, _ = _grouped_problem(model)
    perturbation = _patterned_perturbation(factory.dimension, pattern)
    approx = born_kernel(basis, perturbation, 0.7, 0.2, order=order, quad_points=quad_points)
    _assert_close(
        approx, born_kernel(reference, perturbation, 0.7, 0.2, order=order, quad_points=quad_points)
    )
    outside = ~_group_mask(kept, factory.dimension)
    assert np.all(approx[outside] == 0)
    if case.endswith("merged"):
        inside_basis_groups = _group_mask(GROUPED_MODELS[model][1], factory.dimension)
        assert np.any(approx[~inside_basis_groups & ~outside] != 0)


def test_twin_groups_hold_one_mode_array():
    _, basis, _, _ = _grouped_problem("dirac")
    (_, first), (_, second) = basis.blocks
    assert first is second


def _dense_mode_born_kernel(basis, perturbation, t, s, order, quad_points):
    """`born_kernel` with its groups read from a dense mode matrix, as
    well as from W, and each group's modes sliced out of it."""
    import bundlewave.green as green_module

    size, npoints = basis.energies.size, basis.grid.npoints
    modes = np.zeros((size, size), dtype=complex)
    for at, block in basis.blocks:
        modes[_block(at, at)] = block
    coupled = (_coupling(perturbation, basis.dimension, npoints)
               | _coupling(modes, basis.dimension, npoints))
    out = np.zeros((size, size), dtype=complex)
    for group in _connected_sets(coupled):
        at = _positions(group, npoints)
        out[_block(at, at)] = green_module._born_iterate(
            modes[_block(at, at)], basis.energies[at], perturbation[_block(at, at)],
            basis.hbar, basis.grid.spacing, (t - s) / (quad_points - 1), order, quad_points)
    return out


@pytest.mark.parametrize("case", sorted(BORN_GROUP_CASES))
def test_born_kernel_reads_its_groups_from_the_basis_blocks(case, monkeypatch):
    # The groups come from the blocks' positions and W's coupling alone, and
    # give the bits of the groups a dense mode matrix gives.
    import bundlewave.green as green_module

    model, pattern, _ = BORN_GROUP_CASES[case]
    factory, basis, _, _ = _grouped_problem(model)
    perturbation = _patterned_perturbation(factory.dimension, pattern)
    expected = _dense_mode_born_kernel(basis, perturbation, 0.7, 0.2, 2, 9)
    scanned = []
    scan = green_module._coupling

    def counted(matrix, *args):
        scanned.append(matrix)
        return scan(matrix, *args)

    monkeypatch.setattr(green_module, "_coupling", counted)
    approx = born_kernel(basis, perturbation, 0.7, 0.2, order=2, quad_points=9)
    assert len(scanned) == 1 and scanned[0] is perturbation
    assert np.array_equal(approx, expected)


@pytest.mark.parametrize("scalar, iterations", [(True, 1), (False, 2)])
def test_born_kernel_iterates_once_per_distinct_group(scalar, iterations, monkeypatch):
    # A scalar perturbation of Dirac keeps its groups {0, 3} and {1, 2}
    # twins; a random block-diagonal one does not.
    import bundlewave.green as green_module

    factory, basis, reference, _ = _grouped_problem("dirac")
    if scalar:
        perturbation = np.diag(np.tile(0.05 * np.sin(GRID.points), 4)).astype(complex)
    else:
        perturbation = _patterned_perturbation(factory.dimension, [(0, 3), (1, 2)])
    calls = []
    iterate = green_module._born_iterate

    def counted(*args):
        calls.append(args[0].shape)
        return iterate(*args)

    monkeypatch.setattr(green_module, "_born_iterate", counted)
    approx = born_kernel(basis, perturbation, 0.7, 0.2, order=2, quad_points=9)
    assert calls == [(2 * GRID.npoints,) * 2] * iterations
    _assert_close(approx, born_kernel(reference, perturbation, 0.7, 0.2, order=2, quad_points=9))


@pytest.mark.parametrize("order", [1, 2, 3])
def test_born_memory_does_not_grow_with_the_quadrature(order):
    # The sweep holds O(order) matrices per group, not one per node: from
    # Q = 9 to Q = 129 only the (Q, |S| N) phase table grows.
    grid = SpatialGrid1D(32, 2.0 * np.pi)
    basis = EigenBasis.from_factory(dirac_hamiltonian(1.0), grid)
    perturbation = np.diag(np.tile(0.3 * np.cos(grid.points), 4)).astype(complex)

    def peak(quad_points):
        tracemalloc.start()
        try:
            born_kernel(basis, perturbation, 0.7, 0.2, order=order, quad_points=quad_points)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(129) <= 1.25 * peak(9)


# ---------------------------------------------------------------------------
# Scalar-field sine kernel


def test_scalar_kernel_free_plane_wave_frequency():
    # (phi, dphi/dt) = (exp(ikx), -i w exp(ikx)) propagates to
    # exp(i k x - i w t) with w = sqrt(c^2 k^2 + (m c^2 / hbar)^2).
    mass, c, k = 1.3, 1.0, 2.0
    kernel = ScalarFieldKernel.build(GRID, mass, c=c)
    omega = np.sqrt((c * k) ** 2 + (mass * c * c) ** 2)
    mode = np.exp(1j * k * GRID.points)
    state = GridFunction(GRID, np.stack([mode, -1j * omega * mode]))
    phi = kernel.propagate(state, 0.5, 0.0)
    assert np.max(np.abs(phi - np.exp(-1j * omega * 0.5) * mode)) < 1e-12


def test_scalar_kernel_free_field_duality():
    mass = 1.0
    factory = kg_canonical_hamiltonian(mass)
    kernel = ScalarFieldKernel.build(GRID, mass)
    state = _packet(GRID, components=2)
    stepped = evolve(state, factory, dt=1e-3, steps=500, method="midpoint-exponential")
    phi = kernel.propagate(state, 0.5, 0.0)
    assert np.max(np.abs(phi - stepped.values[0])) < 1e-12


def test_scalar_kernel_constant_potential_duality():
    mass, charge, potential = 1.0, 0.5, 0.7
    factory = kg_canonical_hamiltonian(mass, charge=charge, potentials=Potentials(scalar=potential))
    kernel = ScalarFieldKernel.build(GRID, mass, charge=charge, scalar_potential=potential)
    state = _packet(GRID, components=2)
    stepped = evolve(state, factory, dt=1e-3, steps=500, method="midpoint-exponential")
    phi = kernel.propagate(state, 0.5, 0.0)
    assert np.max(np.abs(phi - stepped.values[0])) < 1e-12


def test_two_slot_kernel_forms_g_once(monkeypatch):
    mass, charge, potential = 1.0, 0.5, 0.7
    kernel = ScalarFieldKernel.build(GRID, mass, charge=charge, scalar_potential=potential)
    coupling = 2.0 * charge * potential / (1j * kernel.hbar)
    expected = (kernel.scalar_rate(0.5, 0.1) - coupling * kernel.scalar(0.5, 0.1),
                kernel.scalar(0.5, 0.1))
    calls = []
    scalar = kernel.scalar

    def counted(t, s):
        calls.append((t, s))
        return scalar(t, s)

    monkeypatch.setattr(kernel, "scalar", counted)
    first, second = kernel.vector(0.5, 0.1)
    assert calls == [(0.5, 0.1)]
    assert np.array_equal(first, expected[0]) and np.array_equal(second, expected[1])


def test_scalar_kernel_guards():
    kernel = ScalarFieldKernel.build(GRID, 1.0)
    assert np.all(kernel.scalar(0.2, 0.2) == 0)
    assert np.all(kernel.scalar_rate(0.2, 0.3) == 0)
    with pytest.raises(GreenError):
        kernel.vector(0.2, 0.2)
    with pytest.raises(GreenError):
        kernel.propagate(_packet(GRID), 0.5, 0.0)
    with pytest.raises(GreenError, match="exceeds limit"):
        ScalarFieldKernel.build(SpatialGrid1D(2 * DENSE_STATE_LIMIT, 1.0), 1.0)


# ---------------------------------------------------------------------------
# Born iteration


def test_born_order_zero_returns_the_free_kernel():
    _, basis = _schrodinger_basis()
    free = retarded_kernel(basis, 0.6, 0.0)
    assert np.array_equal(born_kernel(basis, np.zeros_like(free), 0.6, 0.0, order=0), free)


def test_born_orders_match_taylor_remainders_for_constant_shift():
    # Adding w*Id multiplies the kernel by exp(-i w (t-s)); the order-k
    # iterate reproduces its k-th Taylor polynomial, so the relative error is
    # the remainder |exp(-i theta) - poly_k(-i theta)| with theta = w (t-s).
    _, basis = _schrodinger_basis()
    w, t = 0.2, 0.6
    theta = w * t
    shift = w * np.eye(GRID.npoints)
    free = retarded_kernel(basis, t, 0.0)
    exact = np.exp(-1j * theta) * free
    scale = np.max(np.abs(exact))
    for order, poly in ((1, 1.0 - 1j * theta), (2, 1.0 - 1j * theta - theta**2 / 2.0)):
        approx = born_kernel(basis, shift, t, 0.0, order=order)
        measured = np.max(np.abs(approx - exact)) / scale
        remainder = abs(np.exp(-1j * theta) - poly)
        assert abs(measured - remainder) < 0.05 * remainder


def test_born_first_order_error_scales_quadratically():
    _, basis = _schrodinger_basis()
    profile = np.diag(0.8 * np.cos(GRID.points))
    t = 0.6
    errors = []
    for eps in (0.1, 0.05):
        perturbed = schrodinger_hamiltonian(1.0).at().dense(GRID) + 0.4 * np.cos(
            GRID.points
        ) * np.eye(GRID.npoints) + eps * profile
        exact_basis = EigenBasis.from_dense(perturbed, GRID, 1)
        exact = retarded_kernel(exact_basis, t, 0.0)
        approx = born_kernel(basis, eps * profile, t, 0.0, order=1, quad_points=129)
        errors.append(np.max(np.abs(approx - exact)))
    ratio = errors[0] / errors[1]
    assert 3.3 < ratio < 4.7


def _born_reference(basis, perturbation, t, s, order, quad_points):
    """The direct route: one dense free kernel per quadrature pair, summed by
    the trapezoid rule in the grid basis."""
    size = basis.energies.size
    h = basis.grid.spacing
    coincidence = np.eye(size, dtype=complex) / (1j * basis.hbar * h)
    times = np.linspace(s, t, quad_points)
    dt = times[1] - times[0]

    def free(a, b):
        return coincidence if a <= b else retarded_kernel(basis, a, b)

    level = [free(tj, s) for tj in times]
    for _ in range(order):
        new = [coincidence]
        for j in range(1, quad_points):
            weights = np.full(j + 1, dt)
            weights[0] = weights[-1] = dt / 2.0
            integral = sum(
                w * (free(times[j], times[i]) @ perturbation @ level[i])
                for i, w in enumerate(weights)
            )
            new.append(free(times[j], s) + h * integral)
        level = new
    return level[-1]


BORN_FACTORIES = {
    "schrodinger": schrodinger_hamiltonian(1.0, potential=0.4 * np.cos(GRID.points)),
    "dirac": dirac_hamiltonian(mass=1.0),
}


def _born_problem(model):
    """Free basis of the model and a dense random Hermitian perturbation."""
    basis = EigenBasis.from_factory(BORN_FACTORIES[model], GRID)
    size = basis.energies.size
    rng = np.random.default_rng(23)
    a = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    return basis, 0.05 * (a + a.conj().T)


@pytest.mark.parametrize("quad_points", [3, 4, 33])
@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("model", sorted(BORN_FACTORIES))
def test_born_kernel_matches_the_per_pair_quadrature(model, order, quad_points):
    basis, perturbation = _born_problem(model)
    t, s = 0.7, 0.2
    expected = _born_reference(basis, perturbation, t, s, order, quad_points)
    approx = born_kernel(basis, perturbation, t, s, order=order, quad_points=quad_points)
    assert np.max(np.abs(approx - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("model", sorted(BORN_FACTORIES))
def test_born_order_zero_is_the_free_kernel_at_a_shifted_source(model):
    basis, perturbation = _born_problem(model)
    assert np.array_equal(
        born_kernel(basis, perturbation, 0.7, 0.2, order=0), retarded_kernel(basis, 0.7, 0.2)
    )


def test_born_guards():
    _, basis = _schrodinger_basis()
    w = np.eye(GRID.npoints)
    with pytest.raises(GreenError):
        born_kernel(basis, w, 0.0, 0.0)
    with pytest.raises(GreenError):
        born_kernel(basis, w, 0.5, 0.0, order=MAX_BORN_ORDER + 1)
    with pytest.raises(GreenError):
        born_kernel(basis, w, 0.5, 0.0, order=-1)
    with pytest.raises(GreenError):
        born_kernel(basis, w, 0.5, 0.0, quad_points=2)
    with pytest.raises(GreenError):
        born_kernel(basis, np.eye(3), 0.5, 0.0)


# ---------------------------------------------------------------------------
# Frame changes of kernels


def _linear_frame(source, target):
    """The frame running linearly from `source` at t = 0 to `target` at t = 1."""
    return Frame(lambda t: source + t * (target - source), lambda t: target - source)


def test_green_morphism_conjugates_componentwise():
    rng = np.random.default_rng(17)
    n = 6
    kernel = rng.normal(size=(2 * n, 2 * n)) + 1j * rng.normal(size=(2 * n, 2 * n))
    l_target = np.array([[1.0, 0.5j], [0.0, 2.0]])
    l_source = np.array([[2.0, 0.0], [1.0, 1.0 + 1j]])
    seen = green_morphism(kernel, _linear_frame(l_source, l_target), 1.0, 0.0, n)
    expected = np.kron(np.linalg.inv(l_target), np.eye(n)) @ kernel @ np.kron(l_source, np.eye(n))
    assert np.max(np.abs(seen - expected)) < 1e-12


@pytest.mark.parametrize(
    "target", [np.zeros((2, 2)), np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])], ids=["zero", "near"]
)
def test_green_morphism_refuses_a_singular_target_frame(target):
    n = 4
    kernel = np.eye(2 * n, dtype=complex)
    with pytest.raises(AlgebraError, match="singular"):
        green_morphism(kernel, _linear_frame(np.eye(2), target), 1.0, 0.0, n)


def test_green_morphism_refuses_a_field_frame():
    n = 4
    kernel = np.eye(2 * n, dtype=complex)
    field = np.broadcast_to(np.eye(2, dtype=complex), (n, 2, 2)).copy()
    with pytest.raises(GreenError, match="field frame") as refused:
        green_morphism(kernel, Frame(field), 1.0, 0.0, n)
    assert "\n" not in str(refused.value)
