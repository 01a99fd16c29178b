"""Time stepping, dense propagators, observables, and conserved charge."""

import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from bundlewave import evolution
from bundlewave.algebra import (
    DerivativeOp,
    IdentityOp,
    MatrixOperator,
    ScaleOp,
    matrix_in_frame,
)
from bundlewave.evolution import (
    DENSE_STATE_LIMIT,
    STEP_STATE_LIMIT,
    EvolutionError,
    EvolutionOperator,
    _component_groups,
    _power,
    evolve,
    expectation,
    hamiltonian_dense,
    kg_charge,
    kg_charges,
    march,
    step_matrix,
)
from bundlewave.grid import FibreProduct, GridFunction, SpatialGrid1D, inner
from bundlewave.reduction import (
    GaugeFrame,
    HamiltonianFactory,
    LinearTimeSystem,
    Potentials,
    block_diag_hamiltonian,
    companion_hamiltonian,
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


def _gaussian(grid: SpatialGrid1D, center: float, width: float, k: float = 0.0):
    x = grid.points
    values = np.exp(-((x - center) ** 2) / (2 * width**2)) * np.exp(1j * k * x)
    state = GridFunction(grid, values[np.newaxis, :])
    return (1.0 / state.norm()) * state


# ---------------------------------------------------------------------------
# Exactly solvable single-mode checks


def test_plane_wave_picks_up_free_particle_phase():
    # exp(ikx) is an eigenvector of the free operator with E = (hbar k)^2 / 2m,
    # so the exact propagator multiplies it by exp(-i E t / hbar).
    mass, hbar, k = 1.0, 1.0, 2.0
    factory = schrodinger_hamiltonian(mass, hbar=hbar)
    mode = GridFunction(GRID, np.exp(1j * k * GRID.points)[np.newaxis, :])
    dt, steps = 0.01, 50
    final = evolve(mode, factory, dt=dt, steps=steps, method="midpoint-exponential")
    energy = (hbar * k) ** 2 / (2 * mass)
    expected = np.exp(-1j * energy * dt * steps / hbar) * mode.values
    assert np.max(np.abs(final.values - expected)) < 1e-11


def test_crank_nicolson_phase_per_step_is_two_arctan():
    # On an eigenvector the rational step multiplies by
    # (1 - i E dt / 2 hbar) / (1 + i E dt / 2 hbar) = exp(-2i arctan(E dt / 2 hbar)).
    mass, hbar, k = 1.0, 1.0, 3.0
    factory = schrodinger_hamiltonian(mass, hbar=hbar)
    mode = GridFunction(GRID, np.exp(1j * k * GRID.points)[np.newaxis, :])
    dt, steps = 0.05, 37
    final = evolve(mode, factory, dt=dt, steps=steps, method="crank-nicolson")
    energy = (hbar * k) ** 2 / (2 * mass)
    phase = -2.0 * steps * np.arctan(energy * dt / (2 * hbar))
    expected = np.exp(1j * phase) * mode.values
    assert np.max(np.abs(final.values - expected)) < 1e-12


def test_crank_nicolson_preserves_norm_with_potential():
    factory = schrodinger_hamiltonian(1.0, potential=0.5 * np.cos(GRID.points))
    state = _gaussian(GRID, np.pi, 0.7, k=1.0)
    drift = []
    evolve(
        state,
        factory,
        dt=0.02,
        steps=200,
        callback=lambda t, s: drift.append(abs(s.norm() - 1.0)),
    )
    assert max(drift) < 1e-12


# ---------------------------------------------------------------------------
# Step matrices and convergence order


def _reference_crank_nicolson(h, dt, hbar=1.0):
    """The two-sided solve (I + K)^-1 (I - K), K = i dt H / 2 hbar."""
    eye = np.eye(h.shape[0])
    coeff = 0.5j * dt / hbar
    return np.linalg.solve(eye + coeff * h, eye - coeff * h)


def _plus_at_origin(factory, term, label=""):
    """The factory with `term` added to the (0, 0) entry of its operator."""
    entries = [list(row) for row in factory.op.entries]
    entries[0][0] = entries[0][0] + term
    return HamiltonianFactory(MatrixOperator(entries), label, factory.hbar)


def _static_factories():
    return {
        "schrodinger": schrodinger_hamiltonian(1.0, potential=0.5 * np.cos(GRID.points)),
        "dirac": dirac_hamiltonian(
            1.0, charge=1.0, potentials=Potentials(scalar=0.3 * np.cos(GRID.points))
        ),
    }


def test_step_matrix_forms():
    factory = schrodinger_hamiltonian(1.0, potential=np.sin(GRID.points))
    h = hamiltonian_dense(factory, GRID)
    dt = 0.03
    expm_step = step_matrix(factory, GRID, 0.0, dt, "midpoint-exponential")
    assert np.max(np.abs(expm_step - scipy.linalg.expm(-1j * dt * h))) < 1e-12
    cn_step = step_matrix(factory, GRID, 0.0, dt, "crank-nicolson")
    assert np.max(np.abs(cn_step - _reference_crank_nicolson(h, dt))) < 1e-12


@pytest.mark.parametrize("dt", [0.03, -0.03])
@pytest.mark.parametrize("kind", ["schrodinger", "dirac"])
def test_cayley_step_matrix_matches_two_sided_solve(kind, dt):
    factory = _static_factories()[kind]
    expected = _reference_crank_nicolson(hamiltonian_dense(factory, GRID), dt, factory.hbar)
    step = step_matrix(factory, GRID, 0.0, dt, "crank-nicolson")
    assert np.max(np.abs(step - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("kind", ["schrodinger", "dirac"])
def test_static_evolve_matches_per_step_lu_route(kind):
    # The same H plus a callable term that is always zero is driven, so it
    # is factored and solved at every step, instead of going through the
    # cached step matrix.
    static = _static_factories()[kind]
    rebuilt = _plus_at_origin(static, ScaleOp(lambda t: 0.0), "rebuilt")
    assert rebuilt.time_dependent
    rng = np.random.default_rng(7)
    shape = (static.dimension, GRID.npoints)
    state = GridFunction(GRID, rng.normal(size=shape) + 1j * rng.normal(size=shape))
    state = (1.0 / state.norm()) * state
    cached = evolve(state, static, dt=0.02, steps=200)
    stepped = evolve(state, rebuilt, dt=0.02, steps=200)
    assert np.max(np.abs(cached.values - stepped.values)) <= 1e-12


@pytest.mark.parametrize("kind", ["schrodinger", "dirac", "companion"])
def test_time_dependent_evolve_matches_two_sided_solves(kind):
    x = GRID.points
    if kind == "schrodinger":
        factory = schrodinger_hamiltonian(1.0, potential=lambda t: 0.5 * np.cos(x) * np.sin(1.3 * t))
    elif kind == "dirac":
        factory = dirac_hamiltonian(
            1.0, charge=1.0, potentials=Potentials(scalar=lambda t: 0.3 * np.cos(x) * np.cos(3.0 * t))
        )
    else:
        # The order-2 Klein-Gordon form, m = c = hbar = 1, with a driven
        # term: t enters only through the ScaleOp in f_0.
        f0 = DerivativeOp(2) - IdentityOp() - ScaleOp(lambda t: 0.5 * np.cos(x) * np.sin(1.3 * t))
        factory = companion_hamiltonian(
            LinearTimeSystem(2, [MatrixOperator([[f0]]), MatrixOperator.zeros(1, 1)])
        )
    rng = np.random.default_rng(11)
    shape = (factory.dimension, GRID.npoints)
    state = GridFunction(GRID, rng.normal(size=shape) + 1j * rng.normal(size=shape))
    state = (1.0 / state.norm()) * state
    dt, steps, t0 = 0.02, 60, 0.1
    psi = state.flatten()
    for k in range(steps):
        h_mid = hamiltonian_dense(factory, GRID, t0 + (k + 0.5) * dt)
        psi = _reference_crank_nicolson(h_mid, dt, factory.hbar) @ psi
    stepped = evolve(state, factory, dt=dt, steps=steps, t0=t0)
    assert np.max(np.abs(stepped.flatten() - psi)) <= 1e-12 * np.max(np.abs(psi))


def test_step_matrix_uses_midpoint_of_interval():
    # For H(t) = g(t) * Id the one-step matrix is exp(-i dt g(t + dt/2)).
    factory = schrodinger_hamiltonian(1.0, potential=lambda t: np.full(4, t**2))
    small = SpatialGrid1D(4, 1.0)
    dt = 0.2
    step = step_matrix(factory, small, 1.0, dt, "midpoint-exponential")
    kinetic = hamiltonian_dense(schrodinger_hamiltonian(1.0), small)
    mid = kinetic + ((1.0 + dt / 2) ** 2) * np.eye(4)
    assert np.max(np.abs(step - scipy.linalg.expm(-1j * dt * mid))) < 1e-12


@pytest.mark.parametrize("method", ["crank-nicolson", "midpoint-exponential"])
def test_time_dependent_stepping_is_second_order(method):
    # H(t) = sin(t) * Id commutes with itself, so the exact propagator is
    # exp(-i (1 - cos(t))) and the midpoint rule contributes an O(dt^2) error.
    small = SpatialGrid1D(4, 1.0)
    factory = HamiltonianFactory(
        MatrixOperator([[ScaleOp(lambda t: np.full(4, np.sin(t)))]]), "oscillating-phase"
    )
    initial = GridFunction(small, np.full((1, 4), 0.5 + 0.0j))
    exact = np.exp(-1j * (1.0 - np.cos(1.0))) * initial.values
    errors = []
    for steps in (10, 20, 40):
        final = evolve(initial, factory, dt=1.0 / steps, steps=steps, method=method)
        errors.append(np.max(np.abs(final.values - exact)))
    order = np.polyfit(np.log([10, 20, 40]), np.log(errors), 1)[0]
    assert -2.3 < order < -1.8


# ---------------------------------------------------------------------------
# Component groups: each decoupled group is stepped on its own


def _full_matrix_step(factory, grid, t, dt, method):
    """The step from the whole (mN)^2 H, in the grouped stepper's order of
    operations: one LU of all of I + K, or expm of all of -i dt H / hbar."""
    h = hamiltonian_dense(factory, grid, t + dt / 2.0)
    if method == "midpoint-exponential":
        h *= -1j * dt / factory.hbar
        return scipy.linalg.expm(h)
    h *= 1j * dt / (2.0 * factory.hbar)
    h[np.diag_indices_from(h)] += 1.0
    lu = scipy.linalg.lu_factor(h.T)
    step = scipy.linalg.lu_solve(lu, np.eye(h.shape[0], dtype=complex, order="F")).T
    step *= 2.0
    step[np.diag_indices_from(step)] -= 1.0
    return step


def _full_matrix_evolve(state, factory, dt, steps, method):
    """`steps` steps with full-matrix factors: a static H reuses one step
    matrix, a time-dependent H is factored at every midpoint."""
    psi = state.flatten()
    unit = None if factory.time_dependent else _full_matrix_step(factory, GRID, 0.0, dt, method)
    for k in range(steps):
        if unit is not None:
            psi = unit @ psi
        elif method == "midpoint-exponential":
            psi = _full_matrix_step(factory, GRID, k * dt, dt, method) @ psi
        else:
            h = hamiltonian_dense(factory, GRID, k * dt + dt / 2.0)
            h *= 1j * dt / (2.0 * factory.hbar)
            h[np.diag_indices_from(h)] += 1.0
            lu = scipy.linalg.lu_factor(h.T)
            psi = 2.0 * scipy.linalg.lu_solve(lu, psi, trans=1) - psi
    return psi


def _driven_profile(t):
    return 0.3 * np.cos(GRID.points) * np.cos(3.0 * t)


# Models with more than one group, and the groups they must have.
_GROUPED = {
    "dirac": (
        lambda: dirac_hamiltonian(1.0, 1.0, Potentials(scalar=0.3 * np.cos(GRID.points))),
        [[0, 3], [1, 2]],
    ),
    "dirac-driven": (
        lambda: dirac_hamiltonian(1.0, 1.0, Potentials(scalar=_driven_profile)),
        [[0, 3], [1, 2]],
    ),
    "maxwell": (maxwell_hamiltonian, [[0, 3], [1, 2]]),
    "kg-5d": (lambda: kg_5d_hamiltonian(1.3), [[0, 1, 2], [3], [4]]),
}

# Models whose components all couple: one group, today's arithmetic.
_ONE_GROUP = {
    "schrodinger": lambda: schrodinger_hamiltonian(1.0, potential=0.5 * np.cos(GRID.points)),
    "schrodinger-driven": lambda: schrodinger_hamiltonian(
        1.0, potential=lambda t: 0.5 * np.cos(GRID.points) * np.sin(1.3 * t)
    ),
    "kg-canonical": lambda: kg_canonical_hamiltonian(
        1.0, 1.0, Potentials(scalar=0.2 * np.cos(GRID.points))
    ),
    "kg-canonical-driven": lambda: kg_canonical_hamiltonian(
        1.0, 1.0, Potentials(scalar=_driven_profile)
    ),
}


def _rotation_frame(angle: float) -> np.ndarray:
    """Constant frame mixing components 0 and 1 of a four-component fibre."""
    frame = np.eye(4, dtype=complex)
    frame[0, 0] = frame[1, 1] = np.cos(angle)
    frame[0, 1], frame[1, 0] = -np.sin(angle), np.sin(angle)
    return frame


def test_component_groups_follow_the_coupling_graph():
    for build, groups in _GROUPED.values():
        assert _component_groups(build().at()) == groups
    assert _component_groups(schrodinger_hamiltonian(1.0).at()) == [[0]]
    assert _component_groups(kg_canonical_hamiltonian(1.0).at()) == [[0, 1]]
    assert _component_groups(kg_nonrel_hamiltonian(1.0).at()) == [[0, 1]]
    # A frame that mixes components 0 and 1 joins the two Dirac groups.
    dirac = dirac_hamiltonian(1.0).at()
    assert _component_groups(matrix_in_frame(dirac, _rotation_frame(0.4), GRID)) == [[0, 1, 2, 3]]
    phase = np.exp(0.7j * np.cos(GRID.points))[:, None, None] * np.eye(4)
    assert _component_groups(matrix_in_frame(dirac, phase, GRID)) == [[0, 3], [1, 2]]


@pytest.mark.parametrize("dt", [0.03, -0.03])
@pytest.mark.parametrize("method", ["crank-nicolson", "midpoint-exponential"])
@pytest.mark.parametrize("model", sorted(_GROUPED))
def test_grouped_step_matrix_matches_the_full_matrix_step(model, method, dt):
    build, groups = _GROUPED[model]
    factory = build()
    step = step_matrix(factory, GRID, 0.2, dt, method)
    expected = _full_matrix_step(factory, GRID, 0.2, dt, method)
    assert np.max(np.abs(step - expected)) <= 1e-13
    coupled = np.zeros((factory.dimension, factory.dimension), dtype=bool)
    for group in groups:
        coupled[np.ix_(group, group)] = True
    off_group = ~np.kron(coupled, np.ones((GRID.npoints, GRID.npoints), dtype=bool))
    assert np.all(step[off_group] == 0)


@pytest.mark.parametrize("method", ["crank-nicolson", "midpoint-exponential"])
@pytest.mark.parametrize("model", sorted(_ONE_GROUP))
def test_one_group_steps_are_the_full_matrix_steps(model, method):
    factory = _ONE_GROUP[model]()
    step = step_matrix(factory, GRID, 0.2, 0.03, method)
    assert np.array_equal(step, _full_matrix_step(factory, GRID, 0.2, 0.03, method))
    rng = np.random.default_rng(5)
    shape = (factory.dimension, GRID.npoints)
    state = GridFunction(GRID, rng.normal(size=shape) + 1j * rng.normal(size=shape))
    final = evolve(state, factory, dt=0.03, steps=20, method=method)
    assert np.array_equal(final.flatten(), _full_matrix_evolve(state, factory, 0.03, 20, method))


def test_mixing_frame_makes_one_group_of_the_full_matrix_step():
    base = dirac_hamiltonian(1.0, 1.0, Potentials(scalar=0.3 * np.cos(GRID.points)))
    framed = HamiltonianFactory(
        matrix_in_frame(base.at(), _rotation_frame(0.4), GRID), "dirac-rotated"
    )
    step = step_matrix(framed, GRID, 0.0, 0.03)
    assert np.array_equal(step, _full_matrix_step(framed, GRID, 0.0, 0.03, "crank-nicolson"))


# ---------------------------------------------------------------------------
# Static marches in blocks: the power route


def _reference_static_march(state, factory, dt, steps, method):
    """Every state of a static march, from one `step_matrix` product per step."""
    unit = step_matrix(factory, state.grid, 0.0, dt, method)
    states = [state.flatten()]
    for _ in range(steps):
        states.append(unit @ states[-1])
    return np.array(states[1:])


def _phase_framed_dirac():
    base = dirac_hamiltonian(1.0, 1.0, Potentials(scalar=0.3 * np.cos(GRID.points)))
    phase = np.exp(0.7j * np.cos(GRID.points))[:, None, None] * np.eye(4)
    return HamiltonianFactory(matrix_in_frame(base.at(), phase, GRID), "dirac-phase")


def _kg_5d_beside_schrodinger():
    """kg-5d's coupled components {0, 1, 2} and a Schrodinger component
    {3} with a potential: two unequal groups, both with nontrivial steps."""
    kg, schrodinger = kg_5d_hamiltonian(1.3), _ONE_GROUP["schrodinger"]()
    out = MatrixOperator.zeros(4, 4)
    for i in range(3):
        for j in range(3):
            out.entries[i][j] = kg.op.entry(i, j)
    out.entries[3][3] = schrodinger.op.entry(0, 0)
    return HamiltonianFactory(out, "kg-5d-beside-schrodinger")


# Static models and how many of their groups take the power route over
# _POWER_STEPS steps on GRID: a group does when the steps after the first
# block number at least log2(B) |S| N.
_POWER_STEPS = 109  # 13 blocks of 8 and a partial block of 5
_POWERED = {
    "dirac": (_GROUPED["dirac"][0], 2),
    "dirac-phase-frame": (_phase_framed_dirac, 2),
    "schrodinger": (_ONE_GROUP["schrodinger"], 1),
    # Groups {0, 1, 2} (|S| N = 48) below the rule, {3} and {4} (16) above.
    "kg-5d": (_GROUPED["kg-5d"][0], 2),
    "kg-5d-beside-schrodinger": (_kg_5d_beside_schrodinger, 1),
}


def _random_state(dimension, seed):
    rng = np.random.default_rng(seed)
    shape = (dimension, GRID.npoints)
    state = GridFunction(GRID, rng.normal(size=shape) + 1j * rng.normal(size=shape))
    return (1.0 / state.norm()) * state


@pytest.mark.parametrize("dt", [0.02, -0.02])
@pytest.mark.parametrize("method", ["crank-nicolson", "midpoint-exponential"])
@pytest.mark.parametrize("model", sorted(_POWERED))
def test_power_route_matches_one_step_matrix_per_step(model, method, dt, monkeypatch):
    build, powered = _POWERED[model]
    factory = build()
    powers = []

    def counted(unit, spare):
        powers.append(unit.shape)
        return _power(unit, spare)

    monkeypatch.setattr(evolution, "_power", counted)
    state = _random_state(factory.dimension, 3)
    final = evolve(state, factory, dt=dt, steps=_POWER_STEPS, method=method)
    assert len(powers) == powered
    expected = _reference_static_march(state, factory, dt, _POWER_STEPS, method)[-1]
    assert np.max(np.abs(final.flatten() - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_power_route_callback_sees_every_state_once_and_in_order():
    factory = _GROUPED["dirac"][0]()
    state = _random_state(4, 5)
    times, kept, copies = [], [], []

    def keep(t, s):
        times.append(t)
        kept.append(s)
        copies.append(s.values.copy())

    dt, t0 = 0.02, 0.5
    evolve(state, factory, dt=dt, steps=_POWER_STEPS, t0=t0, callback=keep)
    assert times == [t0 + k * dt for k in range(1, _POWER_STEPS + 1)]
    # States kept by the callback are not overwritten by later blocks.
    for held, copy in zip(kept, copies):
        assert np.array_equal(held.values, copy)
    expected = _reference_static_march(state, factory, dt, _POWER_STEPS, "crank-nicolson")
    got = np.array([held.flatten() for held in kept])
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def _growing_factory(rate: float) -> HamiltonianFactory:
    """H = i rate: every state grows by the same factor at each step."""
    return HamiltonianFactory(MatrixOperator([[ScaleOp(1j * rate)]]), "growth")


def test_overflow_on_the_power_route_is_an_evolution_error():
    small = SpatialGrid1D(4, 1.0)
    # CN grows each state by (1 + 0.2) / (1 - 0.2) = 1.5 per step, so 1e300
    # passes the float range at step 47, in the power-route block of steps
    # 41-48.
    state = GridFunction(small, np.full((1, 4), 1e300 + 0j))
    seen = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvolutionError, match="at step 47"):
            evolve(state, _growing_factory(0.4), dt=1.0, steps=60, callback=lambda t, s: seen.append(t))
    assert seen == [float(k) for k in range(1, 47)]
    # The exponential step grows by e^92 ~ 1e40, finite, but its eighth power
    # is not: the power itself is refused before any later block.
    tiny = GridFunction(small, np.full((1, 4), 1e-300 + 0j))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvolutionError, match="step matrix left the finite range"):
            evolve(tiny, _growing_factory(92.0), dt=1.0, steps=60, method="midpoint-exponential")


# ---------------------------------------------------------------------------
# march: the states a block at a time


@pytest.mark.parametrize("model", ["dirac", "dirac-driven"])
def test_march_blocks_cover_every_step_in_order_and_end_at_evolve(model):
    factory = _GROUPED[model][0]()
    state = _random_state(4, 7)
    dt, t0 = 0.02, 0.5
    steps = _POWER_STEPS if model == "dirac" else 11
    blocks = list(march(state, factory, dt, steps, t0=t0))
    times = np.concatenate([times for times, _ in blocks])
    assert times.tolist() == [t0 + k * dt for k in range(1, steps + 1)]
    for block_times, states in blocks:
        assert states.shape == (len(block_times), 4, GRID.npoints)
    # The static march comes in blocks of B = 8 (the last one partial), the
    # driven march one step at a time.
    rows = [len(states) for _, states in blocks]
    assert rows == ([8] * 13 + [5] if model == "dirac" else [1] * steps)
    final = evolve(state, factory, dt, steps, t0=t0)
    assert np.array_equal(blocks[-1][1][-1], final.values)


def test_march_blocks_are_never_overwritten():
    factory = _GROUPED["dirac"][0]()
    held, copies = [], []
    for _, states in march(_random_state(4, 9), factory, 0.02, _POWER_STEPS):
        held.append(states)
        copies.append(states.copy())
    assert not any(np.shares_memory(a, b) for i, a in enumerate(held) for b in held[i + 1:])
    for states, copy in zip(held, copies):
        assert np.array_equal(states, copy)


def test_march_yields_the_finite_prefix_before_the_error():
    # As in the power-route overflow test: step 47 overflows inside the
    # block of steps 41-48, whose finite steps 41-46 come first.
    state = GridFunction(SpatialGrid1D(4, 1.0), np.full((1, 4), 1e300 + 0j))
    seen = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvolutionError, match="at step 47"):
            for times, states in march(state, _growing_factory(0.4), 1.0, 60):
                assert np.all(np.isfinite(states))
                seen.append(times.tolist())
    assert seen[-1] == [41.0, 42.0, 43.0, 44.0, 45.0, 46.0]
    assert sum(seen, []) == [float(k) for k in range(1, 47)]


def test_march_checks_its_arguments_when_called():
    state = _random_state(1, 2)
    factory = schrodinger_hamiltonian(1.0)
    for bad in ({"dt": 0.0}, {"steps": -1}, {"steps": 2.5}, {"method": "euler"}):
        args = {"dt": 0.1, "steps": 3, **bad}
        with pytest.raises(EvolutionError):
            march(state, factory, args.pop("dt"), args.pop("steps"), **args)
    assert list(march(state, factory, 0.1, 0)) == []


def test_kg_charges_rows_equal_kg_charge_bitwise():
    rng = np.random.default_rng(4)
    values = rng.normal(size=(8, 2, GRID.npoints)) + 1j * rng.normal(size=(8, 2, GRID.npoints))
    charges = kg_charges(GRID, values)
    assert [kg_charge(GridFunction(GRID, row)) for row in values] == charges.tolist()
    with pytest.raises(EvolutionError, match="two-component"):
        kg_charges(GRID, values[:, :1])


def test_overflow_on_the_driven_march_is_an_evolution_error():
    small = SpatialGrid1D(4, 1.0)
    # H = 0.4 i grows each state by 1.5 per Crank-Nicolson step as before,
    # but the Cayley apply forms 2 (I + K)^-1 psi = 2.5 psi first, which
    # leaves the float range one step earlier than the state itself.
    factory = HamiltonianFactory(
        MatrixOperator([[ScaleOp(lambda t: np.full(4, 0.4j))]]), "driven-growth"
    )
    state = GridFunction(small, np.full((1, 4), 1e300 + 0j))
    times, kept, copies = [], [], []

    def keep(t, s):
        times.append(t)
        kept.append(s)
        copies.append(s.values.copy())

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvolutionError, match="at step 46"):
            evolve(state, factory, dt=1.0, steps=60, callback=keep)
    assert times == [float(k) for k in range(1, 46)]
    # Each kept state is its own array, never overwritten by later steps.
    assert not any(np.shares_memory(a.values, b.values) for a, b in zip(kept, kept[1:]))
    for held, copy in zip(kept, copies):
        assert np.array_equal(held.values, copy)
    assert np.allclose([held.values[0, 0] for held in kept], 1e300 * 1.5 ** np.arange(1, 46), rtol=1e-12)


@pytest.mark.parametrize("method", ["crank-nicolson", "midpoint-exponential"])
def test_driven_march_realizes_derivatives_at_its_first_step_only(method, derivative_calls):
    factory = dirac_hamiltonian(1.0, 1.0, Potentials(scalar=_driven_profile))
    seen = []
    evolve(_random_state(4, 5), factory, dt=0.01, steps=40, method=method,
           callback=lambda t, state: seen.append(len(derivative_calls)))
    # The four derivative entries are one shared momentum operator: one
    # realization in all, at the first step.
    assert seen == [1] * 40


# Driven factories sharing one operator, and the derivative calls that
# realizing their static part S takes: one d^2/dx^2 for Schrodinger, and
# the two first derivatives of one p . p for kg-canonical.
_DRIVEN_SHARED = {
    "schrodinger": (lambda hbar: schrodinger_hamiltonian(
        1.0, potential=lambda t: 0.3 * np.cos(GRID.points) * np.cos(3.0 * t), hbar=hbar), 1),
    "kg-canonical": (lambda hbar: kg_canonical_hamiltonian(
        1.0, 1.0, Potentials(scalar=_driven_profile), hbar=hbar), 2),
}


@pytest.mark.parametrize("route", ["evolve", "transport"])
@pytest.mark.parametrize("method", ["crank-nicolson", "midpoint-exponential"])
@pytest.mark.parametrize("model", sorted(_DRIVEN_SHARED))
def test_driven_shared_operators_realize_derivatives_at_the_first_step_only(
    model, method, route, derivative_calls
):
    from bundlewave.bundle import PathSampling, evolution_transport

    make, realizations = _DRIVEN_SHARED[model]
    # A zero-valued callable factor records the derivative calls made
    # before each step realizes its driven part.
    seen = []
    probe = ScaleOp(lambda t: seen.append(len(derivative_calls)) or 0.0)
    factory = _plus_at_origin(make(1.0), probe)
    assert not derivative_calls
    if route == "evolve":
        evolve(_random_state(factory.dimension, 5), factory, dt=0.01, steps=40, method=method)
    else:
        evolution_transport(factory, GRID, PathSampling(np.linspace(0.0, 0.4, 11)), method, 4)
    seen.append(len(derivative_calls))
    assert seen == [realizations] * 41


def _driven_dirac():
    return dirac_hamiltonian(1.0, 1.0, Potentials(scalar=_driven_profile))


def _driven_kg_canonical():
    return kg_canonical_hamiltonian(1.0, 1.0, Potentials(scalar=_driven_profile))


def _rotation(t):
    c, s = np.cos(0.9 * t), np.sin(0.9 * t)
    return np.array([[c, -s], [s, c]])


_PHASES = np.array([0.3, -0.7, 1.1, 0.2])

# Gauged and stacked factories built once, and the derivative realizations
# of one 40-step march.  A constant frame or a stack realizes each distinct
# entry of S once, as the builders do: the four conjugated momentum entries
# of Dirac, the eight first derivatives in the four gauged kg-canonical
# entries, the one shared momentum of a stacked Dirac, Schrodinger's
# d^2/dx^2 beside Maxwell's four entries.
_WRAPPED_ONCE = {
    "dirac-phase-frame": (
        lambda: gauge_transform(_driven_dirac(), GaugeFrame(np.diag(np.exp(1j * _PHASES)))), 4),
    "kg-canonical-nonrel-frame": (
        lambda: gauge_transform(_driven_kg_canonical(), kg_nonrel_frame(1.0)), 8),
    "stacked-dirac": (lambda: block_diag_hamiltonian([_driven_dirac()]), 1),
    "stacked-schrodinger-maxwell": (lambda: block_diag_hamiltonian(
        [_DRIVEN_SHARED["schrodinger"][0](1.0), maxwell_hamiltonian()]), 5),
}
# A driven frame enters every entry of H, which is then realized whole at
# every step: at most the 4 (Dirac) or 8 (kg-canonical) derivatives per step
# that rebuilding H at each step takes.
_WRAPPED_DRIVEN = {
    "dirac-driven-phase": (lambda: gauge_transform(
        _driven_dirac(), GaugeFrame(lambda t: np.diag(np.exp(1j * _PHASES * t)))), 160),
    "kg-canonical-driven-rotation": (
        lambda: gauge_transform(_driven_kg_canonical(), GaugeFrame(_rotation)), 320),
}


@pytest.mark.parametrize("method", ["crank-nicolson", "midpoint-exponential"])
@pytest.mark.parametrize("model", sorted(_WRAPPED_ONCE) + sorted(_WRAPPED_DRIVEN))
def test_gauged_and_stacked_marches_realize_their_entries_once(model, method, derivative_calls):
    make, realizations = {**_WRAPPED_ONCE, **_WRAPPED_DRIVEN}[model]
    factory = make()
    assert factory.time_dependent
    evolve(_random_state(factory.dimension, 5), factory, dt=0.01, steps=40, method=method)
    if model in _WRAPPED_ONCE:
        assert len(derivative_calls) == realizations
    else:
        assert 0 < len(derivative_calls) <= realizations


def _realized_per_step(factory):
    """The factory with every entry of H driven whole, so that a march
    realizes every entry whole at every step."""
    from bundlewave.algebra import LinearGridOperator, ZeroOp

    class Whole(LinearGridOperator):
        def __init__(self, entry):
            self.entry = entry

        def apply(self, values, grid, t=0.0):
            return self.entry.apply(values, grid, t)

        def is_zero(self):
            return self.entry.is_zero()

        def split(self):
            return ZeroOp(), self

    op = MatrixOperator([[Whole(entry) for entry in row] for row in factory.op.entries])
    return HamiltonianFactory(op, hbar=factory.hbar)


@pytest.mark.parametrize("method", ["crank-nicolson", "midpoint-exponential"])
@pytest.mark.parametrize("hbar", [1.0, 0.7])
@pytest.mark.parametrize("model", sorted(_DRIVEN_SHARED))
def test_split_marches_agree_with_whole_realizations(model, hbar, method):
    from bundlewave.bundle import PathSampling, evolution_transport

    factory = _DRIVEN_SHARED[model][0](hbar)
    reference = _realized_per_step(factory)
    state = _random_state(factory.dimension, 8)
    split = evolve(state, factory, dt=0.01, steps=20, method=method).values
    whole = evolve(state, reference, dt=0.01, steps=20, method=method).values
    assert np.max(np.abs(split - whole)) <= 1e-13 * np.max(np.abs(whole))
    sampling = PathSampling(np.array([0.0, 0.07, 0.2]))
    split = evolution_transport(factory, GRID, sampling, method, 2).frames
    whole = evolution_transport(reference, GRID, sampling, method, 2).frames
    assert np.max(np.abs(split - whole)) <= 1e-13 * np.max(np.abs(whole))


# ---------------------------------------------------------------------------
# Dense two-time propagators


def _driven_factory():
    return schrodinger_hamiltonian(
        1.0, potential=lambda t: np.sin(1.3 * t) * 0.3 * np.cos(GRID.points)
    )


def test_evolution_operator_identity_and_composition():
    op = EvolutionOperator(_driven_factory(), GRID, dt=0.05, steps=8)
    assert np.array_equal(op.matrix(0.2, 0.2), np.eye(GRID.npoints))
    chained = op.matrix(0.25, 0.4) @ op.matrix(0.05, 0.25)
    assert np.max(np.abs(op.matrix(0.05, 0.4) - chained)) < 1e-13


def test_evolution_operator_backward_inverts_forward():
    op = EvolutionOperator(_driven_factory(), GRID, dt=0.05, steps=8)
    round_trip = op.matrix(0.4, 0.1) @ op.matrix(0.1, 0.4)
    assert np.max(np.abs(round_trip - np.eye(GRID.npoints))) < 1e-12


def test_evolution_operator_matches_evolve():
    op = EvolutionOperator(_driven_factory(), GRID, dt=0.05, steps=8)
    state = _gaussian(GRID, np.pi, 0.6)
    stepped = evolve(state, _driven_factory(), dt=0.05, steps=6)
    assert np.max(np.abs(op.apply(state, 0.0, 0.3).values - stepped.values)) < 1e-12


def test_evolution_operator_refuses_off_lattice_times():
    op = EvolutionOperator(schrodinger_hamiltonian(1.0), GRID, dt=0.05, steps=8)
    with pytest.raises(EvolutionError):
        op.matrix(0.0, 0.125)
    with pytest.raises(EvolutionError):
        op.matrix(-0.05, 0.1)
    with pytest.raises(EvolutionError):
        op.matrix(0.0, 0.45)
    for t in (np.nan, np.inf, -np.inf, 1e308):
        with pytest.raises(EvolutionError, match="not on the evolution lattice"):
            op.matrix(t, 0.1)
        with pytest.raises(EvolutionError, match="not on the evolution lattice"):
            op.matrix(0.1, t)


@pytest.mark.parametrize("method", ["crank-nicolson", "midpoint-exponential"])
def test_evolution_operator_realizes_derivatives_once(method, derivative_calls):
    op = EvolutionOperator(_driven_factory(), GRID, dt=0.05, steps=8, method=method)
    op.matrix(0.0, 0.4)
    # One stepper for the operator's lifetime: the shared d^2/dx^2 is
    # realized once for all eight step matrices.
    assert len(derivative_calls) == 1


def test_every_route_asks_for_h_at_the_step_midpoints():
    from bundlewave.bundle import PathSampling, evolution_transport

    asked = []

    def profile(t):
        asked.append(t)
        return 0.3 * np.cos(GRID.points) * np.cos(3.0 * t)

    factory = schrodinger_hamiltonian(1.0, potential=profile)
    t0, dt, steps = 0.1, 0.01, 60
    starts = [t0 + k * dt for k in range(steps)]
    midpoints = [t + dt / 2 for t in starts]
    for method in evolution.METHODS:
        asked.clear()
        evolve(_random_state(1, 5), factory, dt=dt, steps=steps, t0=t0, method=method)
        assert asked == midpoints
        asked.clear()
        step_matrix(factory, GRID, starts[7], dt, method)
        assert asked == [midpoints[7]]
        asked.clear()
        op = EvolutionOperator(factory, GRID, dt=dt, steps=steps, t0=t0, method=method)
        op.matrix(t0, t0 + steps * dt)
        assert asked == midpoints
        # A transport substep U(tau - delta <- tau) is the step of size
        # -delta from tau.
        times, substeps = np.linspace(0.1, 0.4, 7), 3
        expected = []
        for i in range(times.size - 1):
            delta = (times[i + 1] - times[i]) / substeps
            taus = [times[i] + (k + 1) * delta for k in range(substeps)]
            expected += [tau + (-delta) / 2 for tau in taus]
        asked.clear()
        evolution_transport(factory, GRID, PathSampling(times), method, substeps)
        assert asked == expected


def test_size_guards():
    big = SpatialGrid1D(STEP_STATE_LIMIT + 1, 1.0)
    state = GridFunction(big, np.ones((1, big.npoints), dtype=complex))
    with pytest.raises(EvolutionError):
        evolve(state, schrodinger_hamiltonian(1.0), dt=0.1, steps=1)
    dense_big = SpatialGrid1D(DENSE_STATE_LIMIT + 1, 1.0)
    with pytest.raises(EvolutionError):
        EvolutionOperator(schrodinger_hamiltonian(1.0), dense_big, dt=0.1, steps=1)


def test_rejected_inputs():
    state = _gaussian(GRID, np.pi, 0.7)
    with pytest.raises(EvolutionError):
        evolve(state, schrodinger_hamiltonian(1.0), dt=0.1, steps=1, method="euler")
    two = GridFunction(GRID, np.ones((2, GRID.npoints), dtype=complex))
    with pytest.raises(EvolutionError):
        evolve(two, schrodinger_hamiltonian(1.0), dt=0.1, steps=1)


@pytest.mark.parametrize("driven", [False, True])
def test_step_count_must_be_nonnegative(driven):
    state = _gaussian(GRID, np.pi, 0.7)
    factory = _driven_factory() if driven else schrodinger_hamiltonian(1.0)
    with pytest.raises(EvolutionError, match="nonnegative number of steps"):
        evolve(state, factory, dt=0.1, steps=-3)
    # Zero steps return the initial state.
    assert np.array_equal(evolve(state, factory, dt=0.1, steps=0).values, state.values)


@pytest.mark.parametrize("driven", [False, True])
def test_step_counts_must_be_integers(driven):
    state = _gaussian(GRID, np.pi, 0.7)
    factory = _driven_factory() if driven else schrodinger_hamiltonian(1.0)
    with pytest.raises(EvolutionError, match="steps must be an integer, got 2.5"):
        evolve(state, factory, dt=0.1, steps=2.5)
    with pytest.raises(EvolutionError, match="steps must be an integer, got 2.7"):
        EvolutionOperator(factory, GRID, dt=0.1, steps=2.7)
    with pytest.raises(EvolutionError, match="need at least one step"):
        EvolutionOperator(factory, GRID, dt=0.1, steps=0)
    # Numpy integers are step counts like any other.
    assert np.array_equal(evolve(state, factory, dt=0.1, steps=np.int64(3)).values,
                          evolve(state, factory, dt=0.1, steps=3).values)
    op = EvolutionOperator(factory, GRID, dt=0.1, steps=np.int32(3))
    assert op.steps == 3 and np.array_equal(op.matrix(0.0, 0.3), EvolutionOperator(
        factory, GRID, dt=0.1, steps=3).matrix(0.0, 0.3))


@pytest.mark.parametrize("driven", [False, True])
def test_time_step_must_be_finite_and_nonzero(driven):
    state = _gaussian(GRID, np.pi, 0.7)
    factory = _driven_factory() if driven else schrodinger_hamiltonian(1.0)
    for dt in (0.0, np.nan, np.inf):
        with pytest.raises(EvolutionError, match="time step dt"):
            evolve(state, factory, dt=dt, steps=3)
    # A negative step marches back over the same midpoints.
    there = evolve(state, factory, dt=0.1, steps=3)
    back = evolve(there, factory, dt=-0.1, steps=3, t0=0.3)
    assert np.max(np.abs(back.values - state.values)) <= 1e-12


@pytest.mark.parametrize("driven", [False, True])
def test_step_matrix_and_evolution_operator_share_the_time_step_guard(driven):
    factory = _driven_factory() if driven else schrodinger_hamiltonian(1.0)
    for dt in (0.0, np.nan, np.inf, -np.inf):
        with pytest.raises(EvolutionError, match="time step dt"):
            step_matrix(factory, GRID, 0.0, dt)
        with pytest.raises(EvolutionError, match="time step dt"):
            EvolutionOperator(factory, GRID, dt=dt, steps=3)
    # A negative step is still a step.
    back = EvolutionOperator(factory, GRID, dt=-0.1, steps=3, t0=0.3)
    assert np.array_equal(back.matrix(0.3, 0.2), step_matrix(factory, GRID, 0.3, -0.1))


def test_nonfinite_states_are_detected():
    values = np.ones((1, GRID.npoints), dtype=complex)
    values[0, 3] = np.inf
    state = GridFunction(GRID, values)
    with pytest.raises(EvolutionError, match="finite"):
        evolve(state, schrodinger_hamiltonian(1.0), dt=0.1, steps=1)


def test_overflowing_state_is_an_evolution_error():
    # A finite state at the edge of the float range overflows in the matvec;
    # that must end in EvolutionError, not in a numpy RuntimeWarning.
    state = GridFunction(GRID, 1e308 * np.exp(1j * np.arange(GRID.npoints) ** 2)[np.newaxis, :])
    factory = schrodinger_hamiltonian(1.0, potential=0.5 * np.cos(GRID.points))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvolutionError, match="finite"):
            evolve(state, factory, dt=0.5, steps=3)


def test_callback_sees_every_lattice_time():
    times = []
    state = _gaussian(GRID, np.pi, 0.7)
    evolve(
        state,
        schrodinger_hamiltonian(1.0),
        dt=0.1,
        steps=5,
        t0=2.0,
        callback=lambda t, s: times.append(t),
    )
    assert np.allclose(times, 2.0 + 0.1 * np.arange(1, 6))


# ---------------------------------------------------------------------------
# Observables and the scalar-field charge


def test_position_expectation_of_gaussian():
    position = MatrixOperator([[ScaleOp(GRID.points.astype(complex))]])
    state = _gaussian(GRID, np.pi, 0.5)
    value = expectation(position, state)
    assert abs(value - np.pi) < 1e-6
    assert abs(inner(state, position.apply(state)) - value * inner(state, state)) < 1e-12


def test_observable_respects_fibre_product():
    position = MatrixOperator([[ScaleOp(GRID.points.astype(complex))]])
    state = _gaussian(GRID, np.pi, 0.5)
    applied = position.apply(state)
    doubled = inner(state, applied, FibreProduct(2.0 * np.eye(1)))
    assert abs(doubled - 2.0 * inner(state, applied)) < 1e-12


def test_kg_charge_closed_form():
    # phi = 1, dphi/dt = i*omega gives density -2*omega, so the charge is
    # -2 * omega * L.
    omega = 3.0
    ones = np.ones(GRID.npoints, dtype=complex)
    state = GridFunction(GRID, np.stack([ones, 1j * omega * ones]))
    assert abs(kg_charge(state) + 2.0 * omega * GRID.length) < 1e-12
    with pytest.raises(EvolutionError):
        kg_charge(GridFunction(GRID, ones[np.newaxis, :]))


def test_kg_charge_conserved_by_crank_nicolson():
    factory = kg_canonical_hamiltonian(mass=1.0)
    packet = _gaussian(GRID, np.pi, 0.8, k=1.0)
    state = GridFunction(GRID, np.stack([packet.values[0], 1j * packet.values[0]]))
    start = kg_charge(state)
    assert abs(start) > 0.1
    drift = []
    evolve(
        state,
        factory,
        dt=0.01,
        steps=300,
        callback=lambda t, s: drift.append(abs(kg_charge(s) - start)),
    )
    assert max(drift) < 1e-10


# ---------------------------------------------------------------------------
# Property: the rational step is unitary for any constant hermitian generator


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(-2, 2, allow_nan=False), min_size=8, max_size=8), st.integers(0, 2**31 - 1))
def test_crank_nicolson_unitary_for_random_hermitian(reals, seed):
    raw = np.array(reals[:4]).reshape(2, 2) + 1j * np.array(reals[4:]).reshape(2, 2)
    hermitian = 0.5 * (raw + raw.conj().T)
    factory = HamiltonianFactory(MatrixOperator.from_constant(hermitian), "random-hermitian")
    small = SpatialGrid1D(4, 1.0)
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    state = GridFunction(small, values)
    final = evolve(state, factory, dt=0.3, steps=20)
    assert abs(final.norm() - state.norm()) < 1e-12 * max(1.0, state.norm())
