"""Operator matrices, the odot product, frames, and the Clifford sets."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bundlewave.algebra import (
    AlgebraError,
    DerivativeOp,
    IdentityOp,
    MatrixOperator,
    ScaleOp,
    SumOp,
    ZeroOp,
    alpha_matrices,
    anticommutator_defect,
    beta_matrix,
    dirac_gammas,
    frame_connection,
    kg_gammas,
    kron_component_matrix,
    matrix_in_frame,
    op_compose,
    op_scale,
    op_sum,
    pauli_matrices,
    promote,
    singular_index,
    slashed_contract,
)
from bundlewave.grid import GridFunction, SpatialGrid1D, derivative_matrix
from bundlewave.reduction import (
    Potentials,
    dirac_hamiltonian,
    kg_canonical_hamiltonian,
    schrodinger_hamiltonian,
)

GRID = SpatialGrid1D(12, 2.0 * np.pi)


def rand_state(components, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((components, GRID.npoints)) + 1j * rng.standard_normal(
        (components, GRID.npoints)
    )
    return GridFunction(GRID, values)


# ---------------------------------------------------------------------------
# Scalar operator algebra


def test_operator_arithmetic_matches_dense():
    op = 2.0 * DerivativeOp(1) + ScaleOp(np.cos(GRID.points)) - IdentityOp()
    composed = op @ DerivativeOp(1)
    state = rand_state(1, seed=1)
    dense = composed.dense(GRID)
    applied = composed.apply(state.values[0], GRID)
    assert np.allclose(dense @ state.values[0], applied, atol=1e-11)


def test_compose_applies_right_to_left():
    # (scale . d/dx) f = x * f', not (x f)'.
    op = op_compose(ScaleOp(GRID.points), DerivativeOp(1))
    mode = np.exp(1j * GRID.points)
    got = op.apply(mode, GRID)
    assert np.allclose(got, GRID.points * 1j * mode, atol=1e-11)


def test_zero_simplifications():
    assert op_scale(0.0, DerivativeOp(1)).is_zero()
    assert op_compose(ZeroOp(), DerivativeOp(1)).is_zero()
    assert op_sum().is_zero()
    assert isinstance(op_compose(IdentityOp(), DerivativeOp(2)), DerivativeOp)


def test_scale_factor_time_dependence():
    op = ScaleOp(lambda t: t * np.ones(GRID.npoints))
    assert op.factor_values(GRID, 2.0)[0] == pytest.approx(2.0)
    values = np.ones(GRID.npoints)
    assert np.allclose(op.apply(values, GRID, t=3.0), 3.0 * values)


def _driven_field(t):
    return np.cos(GRID.points + t)


def test_split_keeps_static_operators_whole():
    for static in (ZeroOp(), IdentityOp(), DerivativeOp(2), ScaleOp(np.ones(GRID.npoints)),
                   op_sum(IdentityOp(), op_scale(-1j, DerivativeOp(1)))):
        part, rest = static.split()
        assert part is static and rest.is_zero()
    driven = ScaleOp(_driven_field)
    part, rest = driven.split()
    assert part.is_zero() and rest is driven
    for varying in (op_compose(DerivativeOp(1), op_scale(2.0, driven)), op_sum(IdentityOp(), driven)):
        assert not varying.split()[1].is_zero()


def test_split_of_a_static_operator_returns_its_own_entries():
    factory = dirac_hamiltonian(1.0, 1.0, Potentials(scalar=0.3 * np.cos(GRID.points)))
    op = factory.at()
    static, driven = op.split()
    for i in range(4):
        for j in range(4):
            assert static.entry(i, j) is op.entry(i, j)
            assert driven.entry(i, j).is_zero()


def test_split_separates_mixed_sums_and_scaled_sums():
    driven = ScaleOp(_driven_field)
    derivative = op_scale(-0.5, DerivativeOp(2))
    part, rest = op_sum(derivative, IdentityOp(), driven).split()
    assert isinstance(part, SumOp) and part.terms[0] is derivative
    assert rest is driven
    # i hbar (p^2 + m^2 + V(t)^2), as the companion form writes f_0.
    scaled = op_scale(1j * 0.7, op_sum(derivative, op_scale(2.0, IdentityOp()), driven))
    part, rest = scaled.split()
    for t in (0.0, 0.4, 1.3):
        assert np.array_equal(rest.dense(GRID, t), 0.7j * driven.dense(GRID, t))
        whole = scaled.dense(GRID, t)
        assert np.max(np.abs(part.dense(GRID, t) + rest.dense(GRID, t) - whole)) <= 1e-14 * np.max(np.abs(whole))
    assert np.array_equal(part.dense(GRID, 0.0), part.dense(GRID, 5.0))


def test_kinetic_momentum_squared_stays_whole_in_the_driven_part():
    momentum = op_sum(op_scale(-1j, DerivativeOp(1)), ScaleOp(lambda t: -t * np.sin(GRID.points)))
    square = op_compose(momentum, momentum)
    part, rest = square.split()
    assert part.is_zero() and rest is square


def test_matrix_split_realizes_to_the_whole_operator():
    static = op_scale(-1j, DerivativeOp(1))
    driven = ScaleOp(_driven_field)
    op = MatrixOperator([[op_sum(static, driven), static], [static, driven]])
    part, rest = op.split()
    assert part.entry(0, 1) is static and part.entry(0, 0) is static and part.entry(1, 1).is_zero()
    assert rest.entry(0, 0) is driven and rest.entry(0, 1).is_zero()
    realized = part.dense(GRID)
    for t in (0.0, 0.4, 1.3):
        whole = op.dense(GRID, t)
        assert np.max(np.abs(realized + rest.dense(GRID, t) - whole)) <= 1e-14 * np.max(np.abs(whole))


def test_dense_realizes_a_shared_entry_once(derivative_calls):
    shared = op_scale(-1j, DerivativeOp(1))
    op = MatrixOperator([[shared, shared], [ZeroOp(), shared]])
    realized = op.dense(GRID)
    # One realization for the entry that appears three times.
    assert len(derivative_calls) == 1
    block = shared.dense(GRID)
    n = GRID.npoints
    assert np.array_equal(realized[:n, :n], block) and np.array_equal(realized[:n, n:], block)
    assert np.array_equal(realized[n:, n:], block) and not np.any(realized[n:, :n])


def test_scale_factor_shape_check():
    with pytest.raises(AlgebraError):
        ScaleOp(np.ones(5)).factor_values(GRID)


# ---------------------------------------------------------------------------
# Matrices of operators


def test_matrix_operator_apply_matches_dense():
    op = MatrixOperator(
        [
            [DerivativeOp(1), ScaleOp(1.5)],
            [IdentityOp(), op_scale(-1j, DerivativeOp(2))],
        ]
    )
    state = rand_state(2, seed=2)
    direct = op.apply(state).flatten()
    assert np.allclose(op.dense(GRID) @ state.flatten(), direct, atol=1e-11)


def _dense_by_columns(op: MatrixOperator, grid: SpatialGrid1D, t: float) -> np.ndarray:
    """Dense matrix of an operator matrix, one `apply` per basis state."""
    cols = op.shape[1]
    basis = np.eye(cols * grid.npoints, dtype=complex)
    return np.stack(
        [op.apply(GridFunction.from_flat(grid, e, cols), t).flatten() for e in basis], axis=1
    )


def _rotation_frames(grid: SpatialGrid1D, dim: int) -> np.ndarray:
    angles = 0.4 * np.cos(2.0 * np.pi * grid.points / grid.length)
    frames = np.broadcast_to(np.eye(dim, dtype=complex), (grid.npoints, dim, dim)).copy()
    frames[:, 0, 0] = frames[:, 1, 1] = np.cos(angles)
    frames[:, 0, 1], frames[:, 1, 0] = -np.sin(angles), np.sin(angles)
    return frames * np.exp(1j * angles)[:, None, None]


@pytest.mark.parametrize("model", ["schrodinger", "dirac", "kg-canonical", "framed-dirac"])
@pytest.mark.parametrize("boundary", ["periodic", "reflecting"])
def test_dense_matches_columnwise_apply(model, boundary):
    grid = SpatialGrid1D(16, 6.0, boundary)
    x = grid.points
    potentials = Potentials(scalar=lambda t: 0.3 * np.cos(x + t), vector=0.2 * np.sin(x))
    if model == "schrodinger":
        factory = schrodinger_hamiltonian(1.3, potential=lambda t: 0.5 * np.cos(x - t))
    elif model == "kg-canonical":
        factory = kg_canonical_hamiltonian(0.8, 1.0, potentials)
    else:
        factory = dirac_hamiltonian(0.7, 1.0, potentials)
    t = 0.37
    op = factory.at()
    if model == "framed-dirac":
        op = matrix_in_frame(op, _rotation_frames(grid, 4), grid)
    expected = _dense_by_columns(op, grid, t)
    assert np.max(np.abs(op.dense(grid, t) - expected)) <= 1e-13 * max(np.max(np.abs(expected)), 1.0)


def test_odot_matches_dense_product():
    a = MatrixOperator([[DerivativeOp(1), IdentityOp()], [ZeroOp(), ScaleOp(2.0)]])
    b = MatrixOperator([[ScaleOp(np.sin(GRID.points)), ZeroOp()], [IdentityOp(), DerivativeOp(1)]])
    product = a.odot(b)
    assert np.allclose(product.dense(GRID), a.dense(GRID) @ b.dense(GRID), atol=1e-11)


def test_constant_matrices_promote_through_odot():
    c = np.array([[1.0, 2.0], [0.0, -1j]])
    a = MatrixOperator([[DerivativeOp(1), ZeroOp()], [IdentityOp(), DerivativeOp(2)]])
    left = promote(c).odot(a)
    right = a.odot(c)
    assert np.allclose(left.dense(GRID), kron_component_matrix(c, GRID.npoints) @ a.dense(GRID))
    assert np.allclose(right.dense(GRID), a.dense(GRID) @ kron_component_matrix(c, GRID.npoints))


def test_componentwise_constant_is_kron():
    c = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.allclose(promote(c).dense(GRID), kron_component_matrix(c, GRID.npoints))


def test_odot_shape_mismatch():
    a = MatrixOperator.zeros(2, 3)
    with pytest.raises(AlgebraError):
        a.odot(MatrixOperator.zeros(2, 2))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_odot_associative_on_random_constants(seed):
    rng = np.random.default_rng(seed)
    mats = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3)]
    a, b, c = (promote(m) for m in mats)
    left = a.odot(b).odot(c).dense(GRID)
    right = a.odot(b.odot(c)).dense(GRID)
    assert np.allclose(left, right, atol=1e-10)


# ---------------------------------------------------------------------------
# Frames


def test_phase_frame_shifts_derivative():
    # e^{-i theta} d/dx e^{i theta} = d/dx + i theta'.
    grid = SpatialGrid1D(32, 2.0 * np.pi)
    x = grid.points
    frame = np.exp(1j * np.sin(x))[:, None, None] * np.eye(1)
    framed = matrix_in_frame(MatrixOperator([[DerivativeOp(1)]]), frame, grid)
    psi = GridFunction(grid, np.exp(np.cos(x))[None, :])
    got = framed.apply(psi).values[0]
    expected = (-np.sin(x) + 1j * np.cos(x)) * np.exp(np.cos(x))
    assert np.max(np.abs(got - expected)) < 1e-9


def test_frame_connection_of_phase_frame():
    grid = SpatialGrid1D(32, 2.0 * np.pi)
    x = grid.points
    frame = np.exp(1j * np.sin(x))[:, None, None] * np.eye(1)
    conn = frame_connection(frame, grid)
    assert np.max(np.abs(conn[:, 0, 0] - 1j * np.cos(x))) < 1e-10


@pytest.mark.parametrize(
    "bad", [np.zeros((2, 2)), np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])], ids=["zero", "near"]
)
def test_frame_connection_refuses_a_singular_frame(bad):
    frame = np.broadcast_to(np.eye(2, dtype=complex), (GRID.npoints, 2, 2)).copy()
    frame[5] = bad
    with pytest.raises(AlgebraError, match="singular at point index 5"):
        frame_connection(frame, GRID)


def test_singular_frame_detected():
    frame = np.ones((GRID.npoints, 1, 1), dtype=complex)
    frame[3] = 0.0
    with pytest.raises(AlgebraError, match="point index 3"):
        matrix_in_frame(MatrixOperator([[IdentityOp()]]), frame, GRID)


def test_singularity_guard_tests_conditioning_not_scale():
    assert singular_index(0.5 * np.eye(64)) is None
    assert singular_index(1e-30 * np.eye(3)) is None
    assert singular_index(np.diag([1e8, 1e-9])) == 0
    assert singular_index(np.stack([np.eye(2), np.zeros((2, 2))])) == 1
    assert singular_index(np.stack([np.eye(2), np.full((2, 2), np.nan)])) == 1
    ill = np.broadcast_to(np.diag([1e8, 1e-9]), (GRID.npoints, 2, 2)).copy()
    ill[:5] = np.eye(2)
    with pytest.raises(AlgebraError, match="point index 5"):
        matrix_in_frame(MatrixOperator.identity(2), ill, GRID)
    halves = np.broadcast_to(0.5 * np.eye(2), (GRID.npoints, 2, 2))
    assert matrix_in_frame(MatrixOperator.identity(2), halves, GRID).shape == (2, 2)


# ---------------------------------------------------------------------------
# Clifford sets


def test_four_component_set_is_exactly_clifford():
    assert anticommutator_defect(dirac_gammas()) == 0.0


def test_time_matrix_is_diagonal_signature():
    g0 = dirac_gammas().matrix(0)
    assert np.array_equal(g0, np.diag([1.0, 1.0, -1.0, -1.0]))


def test_velocity_and_mass_matrices():
    alphas = alpha_matrices()
    beta = beta_matrix()
    sx = pauli_matrices()[0]
    # alpha_1 is off-diagonal sigma_x; beta squares to one and anticommutes.
    assert np.array_equal(alphas[0][:2, 2:], sx)
    assert np.array_equal(alphas[0][2:, :2], sx)
    assert np.array_equal(beta @ beta, np.eye(4))
    for a in alphas:
        assert np.max(np.abs(a @ beta + beta @ a)) == 0.0
        assert np.array_equal(a @ a, np.eye(4))


def test_five_component_set_structure():
    gammas = kg_gammas()
    for mu in range(4):
        g = gammas.matrix(mu)
        expected = np.zeros((5, 5))
        expected[mu, 4] = 1.0
        expected[4, mu] = gammas.signature[mu]
        assert np.array_equal(g, expected)


def test_five_component_set_is_not_clifford():
    # The square (Gamma^0)^2 is a projector, not the identity.
    assert anticommutator_defect(kg_gammas()) == 2.0


def test_slashed_contract_scalar_components():
    gammas = dirac_gammas()
    covector = (1.0, 2.0, 0.0, -1.0)
    manual = sum(complex(covector[mu]) * gammas.matrix(mu) for mu in range(4))
    assert np.array_equal(slashed_contract(gammas, covector), manual)


def test_slashed_contract_field_components():
    gammas = dirac_gammas()
    a1 = np.cos(GRID.points)
    op = slashed_contract(gammas, (1.0, a1, 0.0, 0.0))
    state = rand_state(4, seed=5)
    applied = op.apply(state).values
    manual = np.einsum("ij,jx->ix", gammas.matrix(0), state.values) + (
        a1[None, :] * np.einsum("ij,jx->ix", gammas.matrix(1), state.values)
    )
    assert np.allclose(applied, manual, atol=1e-12)
