"""Grids, derivatives, grid functions, and the weighted inner product."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bundlewave.grid import (
    FibreProduct,
    GridError,
    GridFunction,
    SpatialGrid1D,
    derivative_matrix,
    derivative_values,
    discrete_delta,
    inner,
    stacked_inner,
)


def test_grid_spacing_conventions():
    ring = SpatialGrid1D(8, 4.0, "periodic")
    assert ring.spacing == pytest.approx(0.5)
    box = SpatialGrid1D(9, 4.0, "reflecting")
    assert box.spacing == pytest.approx(0.5)
    assert box.points[-1] == pytest.approx(4.0)
    assert ring.points[-1] == pytest.approx(4.0 - 0.5)


def test_grid_validation():
    with pytest.raises(GridError):
        SpatialGrid1D(1, 1.0)
    for length in (-1.0, 0.0, np.nan, np.inf, -np.inf):
        with pytest.raises(GridError, match="positive and finite"):
            SpatialGrid1D(8, length)
    with pytest.raises(GridError):
        SpatialGrid1D(8, 1.0, "absorbing")
    with pytest.raises(GridError):
        SpatialGrid1D(8, 1.0, "reflecting").wavenumbers
    with pytest.raises(GridError, match="non-negative"):
        derivative_values(SpatialGrid1D(8, 1.0), np.zeros(8), order=-1)
    with pytest.raises(GridError, match="7 points, grid has 8"):
        derivative_values(SpatialGrid1D(8, 1.0), np.zeros(7))


def test_spectral_derivative_is_exact_on_modes():
    # d/dx e^{ikx} = ik e^{ikx} for every representable wavenumber.
    grid = SpatialGrid1D(16, 2.0 * np.pi)
    for k in (1, 3, -5):
        mode = np.exp(1j * k * grid.points)
        for order in (0, 1, 2, 3):
            got = derivative_values(grid, mode, order=order)
            assert np.max(np.abs(got - (1j * k) ** order * mode)) < 1e-12


def test_nyquist_mode_first_derivative_dropped():
    # On an even-size ring the unpaired alternating mode has no odd derivative.
    grid = SpatialGrid1D(8, 2.0 * np.pi)
    alternating = np.cos(4 * grid.points)  # the +-1 pattern
    assert np.max(np.abs(derivative_values(grid, alternating))) < 1e-12
    # Even orders keep it.
    second = derivative_values(grid, alternating, order=2)
    assert np.max(np.abs(second + 16 * alternating)) < 1e-10


def test_central_difference_second_order():
    # Halving h divides the interior error by about four.
    errors = []
    for n in (33, 65):
        grid = SpatialGrid1D(n, 1.0, "reflecting")
        x = grid.points
        got = derivative_values(grid, np.sin(np.pi * x))
        errors.append(np.max(np.abs(got - np.pi * np.cos(np.pi * x))[2:-2]))
    assert errors[0] / errors[1] > 3.0


def test_reflecting_wall_sees_zero_outside():
    grid = SpatialGrid1D(5, 4.0, "reflecting")
    values = np.ones(5)
    got = derivative_values(grid, values)
    # Interior differences vanish; the walls see a zero ghost point.
    assert got[0] == pytest.approx(values[1] / (2 * grid.spacing))
    assert got[-1] == pytest.approx(-values[-2] / (2 * grid.spacing))
    assert np.max(np.abs(got[1:-1])) < 1e-14


def test_derivative_matrix_matches_apply():
    grid = SpatialGrid1D(12, 2.0 * np.pi)
    rng = np.random.default_rng(7)
    values = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    direct = derivative_values(grid, values, order=2)
    assert np.allclose(derivative_matrix(grid, 2) @ values, direct, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=2, max_value=17))
def test_flatten_round_trip(components, npoints):
    grid = SpatialGrid1D(npoints, 1.0)
    rng = np.random.default_rng(components * 31 + npoints)
    values = rng.standard_normal((components, npoints))
    state = GridFunction(grid, values)
    flat = state.flatten()
    # Component-major: index = component * N + point.
    assert flat[1 * npoints - 1] == values[0, -1]
    back = GridFunction.from_flat(grid, flat, components)
    assert np.array_equal(back.values, state.values)


def test_grid_function_shape_checks():
    grid = SpatialGrid1D(8, 1.0)
    with pytest.raises(GridError):
        GridFunction(grid, np.zeros((2, 7)))
    with pytest.raises(GridError):
        GridFunction.from_flat(grid, np.zeros(15), 2)
    with pytest.raises(GridError, match=r"must be \(components, npoints\)"):
        GridFunction(grid, np.zeros((2, 2, 8)))


def test_inner_product_conjugate_linear_in_first_slot():
    grid = SpatialGrid1D(8, 1.0)
    rng = np.random.default_rng(3)
    a = GridFunction(grid, rng.standard_normal((2, 8)) + 1j * rng.standard_normal((2, 8)))
    b = GridFunction(grid, rng.standard_normal((2, 8)) + 1j * rng.standard_normal((2, 8)))
    assert inner(a, b) == pytest.approx(np.conj(inner(b, a)))
    assert inner(2j * a, b) == pytest.approx(-2j * inner(a, b))
    assert inner(a, 2j * b) == pytest.approx(2j * inner(a, b))


def test_inner_product_weight():
    grid = SpatialGrid1D(4, 2.0)
    a = GridFunction(grid, np.ones((2, 4)))
    w = FibreProduct(np.tile(np.diag([2.0, 3.0]), (4, 1, 1)))
    # h * sum over 4 points of (2 + 3)
    assert inner(a, a, w) == pytest.approx(grid.spacing * 4 * 5)


def test_fibre_product_rejects_bad_weights():
    with pytest.raises(GridError, match="Hermitian"):
        FibreProduct(np.tile([[0.0, 1.0], [0.0, 0.0]], (3, 1, 1)))
    with pytest.raises(GridError, match="positive definite at point index 0"):
        FibreProduct(np.tile([[1.0, 0.0], [0.0, -1.0]], (3, 1, 1)))
    with pytest.raises(GridError, match="square"):
        FibreProduct(np.zeros((3, 2, 3)))
    # One constant (m, m) weight for every point is not a form of its own.
    for weights in (np.eye(2), np.diag([2.0, 3.0]), np.zeros((2, 3))):
        with pytest.raises(GridError, match=r"must be \(N, m, m\)"):
            FibreProduct(weights)
    # Non-finite entries are refused before numpy can warn (the suite turns
    # warnings into errors).
    for bad in (np.nan, np.inf):
        per_point = np.tile(np.eye(2), (3, 1, 1))
        per_point[1, 1, 1] = bad
        with pytest.raises(GridError, match="finite"):
            FibreProduct(per_point)
    with pytest.raises(GridError, match="sampled at 3 points, grid has 4"):
        FibreProduct(np.tile(np.eye(2), (3, 1, 1))).by_point(4)


def test_weighted_inner_positive():
    grid = SpatialGrid1D(6, 1.0)
    rng = np.random.default_rng(11)
    raw = rng.standard_normal((6, 2, 2)) + 1j * rng.standard_normal((6, 2, 2))
    weights = np.einsum("xji,xjk->xik", raw.conj(), raw) + 0.1 * np.eye(2)
    fp = FibreProduct(weights)
    psi = GridFunction(grid, rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6)))
    assert inner(psi, psi, fp).real > 0
    assert abs(inner(psi, psi, fp).imag) < 1e-12


def _hermitian_weights(rng, shape, m):
    raw = rng.standard_normal(shape + (m, m)) + 1j * rng.standard_normal(shape + (m, m))
    return np.einsum("...ji,...jk->...ik", raw.conj(), raw) + 0.1 * np.eye(m)


@pytest.mark.parametrize("rows", [1, 8])
@pytest.mark.parametrize("weight", ["per-point", "diagonal", "none"])
@pytest.mark.parametrize("m, npoints", [(1, 8), (2, 7), (4, 16)])
def test_stacked_inner_rows_equal_inner_bitwise(m, npoints, weight, rows):
    # Diagonal weights, as a phase frame induces, take a broadcast multiply
    # in place of the einsum, and must sum to the same bits.
    grid = SpatialGrid1D(npoints, 3.0)
    rng = np.random.default_rng(m * 100 + npoints)
    fp = {
        "per-point": lambda: FibreProduct(_hermitian_weights(rng, (npoints,), m)),
        "diagonal": lambda: FibreProduct(rng.uniform(0.5, 2.0, (npoints, m))[..., None] * np.eye(m)),
        "none": lambda: None,
    }[weight]()
    shape = (rows, m, npoints)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    stacked = stacked_inner(grid, a, b, fp)
    assert stacked.shape == (rows,)
    for row in range(rows):
        single = inner(GridFunction(grid, a[row]), GridFunction(grid, b[row]), fp)
        assert complex(stacked[row]) == single
    # States held in point-major (Fortran) order, as a frame change leaves
    # them, sum in their own memory order, stacked or not, exactly as the
    # formula written out for one pair does.
    for order in "CF":
        first, second = np.asarray(a[0], order=order), np.asarray(b[0], order=order)
        single = inner(GridFunction(grid, first), GridFunction(grid, second), fp)
        stacked = stacked_inner(grid, first[np.newaxis], second[np.newaxis], fp)
        assert complex(stacked[0]) == single
        if fp is not None:
            second = np.einsum("xij,jx->ix", fp.weights, second)
        assert single == complex(grid.spacing * np.sum(np.conj(first) * second))


def test_stacked_inner_refuses_mismatched_shapes():
    grid = SpatialGrid1D(8, 1.0)
    with pytest.raises(GridError):
        stacked_inner(grid, np.zeros((2, 1, 8)), np.zeros((3, 1, 8)))
    with pytest.raises(GridError):
        stacked_inner(grid, np.zeros((2, 1, 6)), np.zeros((2, 1, 6)))
    with pytest.raises(GridError):
        stacked_inner(grid, np.zeros(8), np.zeros(8))
    with pytest.raises(GridError):
        stacked_inner(grid, np.zeros((2, 1, 8)), np.zeros((2, 1, 8)),
                      FibreProduct(np.tile(np.eye(2), (8, 1, 1))))


def test_discrete_delta_has_unit_mass():
    grid = SpatialGrid1D(16, 2.0)
    delta = discrete_delta(grid, 0.7)
    assert grid.spacing * np.sum(delta.values) == pytest.approx(1.0)
    probe = GridFunction(grid, np.cos(grid.points)[None, :])
    # <delta_x0, f> picks out the value at the nearest grid point.
    x0 = grid.points[grid.nearest_index(0.7)]
    assert inner(delta, probe) == pytest.approx(np.cos(x0))
    # Past a reflecting grid's walls, the delta sits on the nearer wall.
    box = SpatialGrid1D(9, 4.0, "reflecting")
    for x0, wall in ((-1.0, 0), (5.0, 8)):
        assert np.flatnonzero(discrete_delta(box, x0).values[0]).tolist() == [wall]


def test_mismatched_grids_refused():
    a = GridFunction(SpatialGrid1D(8, 1.0), np.zeros((1, 8)))
    b = GridFunction(SpatialGrid1D(8, 2.0), np.zeros((1, 8)))
    with pytest.raises(GridError):
        inner(a, b)
    with pytest.raises(GridError, match="component mismatch: 1 vs 2"):
        inner(a, GridFunction(a.grid, np.zeros((2, 8))))
