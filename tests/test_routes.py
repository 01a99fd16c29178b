"""Route agreement: every way of propagating a state gives the same state.

One hypothesis strategy draws a factory (the six model builders, a gauge
transform by a constant, driven-phase, driven-rotation or driven x-field
frame, or a block-diagonal stack, a stack of a builder with itself, whose
groups are twins, or a stack of two Schrodinger copies whose potentials
switch on at t = inf and at a drawn time, whose groups are twins before it
and differ after it), a grid, hbar, c, potentials, a method, a step count
and a start time.  Two groups of a driven H are twins at a step when they
hold one base, write the same blocks, and those blocks hold the same bits;
twins share one step, which each march or transport applies one step ahead
from a worker thread that its `ahead` generator owns.  Each example propagates one random state along every route
and holds each route against `evolve`, or the reference named below,
with one tolerance per pair of routes written once below:

* `operator`: `EvolutionOperator.matrix` forward;
* `operator-back`: `EvolutionOperator.matrix` backward, applied to the
  state `evolve` returned, which must give back the initial state;
* `steps`: a textbook stepper written here, independent of the library's
  stepper: H realized whole, `op.dense(grid, t + dt/2)` on the full mN
  matrix, then `scipy.linalg.expm`, or one Crank-Nicolson solve with
  I + K/2 against I - K/2, per step, with no component groups or twins;
* `transport`: `evolution_transport` over the march with one substep per
  step, read forward as K(t_end <- t0);
* `transport-pair`: `evolution_transport` sampled at every lattice time,
  read as K(t_i <- t_j) for a drawn pair of samples after t0, against
  `EvolutionOperator.matrix`: neither frame is the identity, so each
  group's solve is a full one;
* `eigenbasis`: for a static Hermitian H, `EigenBasis.propagator` over the
  march against midpoint-exponential `evolve`, which is exact there;
* `frame`: `evolve` of `matrix_in_frame(op, f)` from f^-1 psi, mapped
  back by f, for an x-dependent phase or rotation field f drawn from the
  example's seed.

The gauged wrappers march f^-1 psi under f^-1 H f - i hbar f^-1 df/dt
(`algebra.Frame`); every column marches that one factory, so the sign of
the rate term is held by `test_reduction.py`, not here.
"""

import numpy as np
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bundlewave.algebra import Frame, matrix_in_frame
from bundlewave.bundle import PathSampling, evolution_transport
from bundlewave.evolution import METHODS, EvolutionOperator, evolve
from bundlewave.green import EigenBasis
from bundlewave.grid import GridFunction, SpatialGrid1D
from bundlewave.reduction import (
    HamiltonianFactory,
    Potentials,
    block_diag_hamiltonian,
    dirac_hamiltonian,
    gauge_transform,
    kg_5d_hamiltonian,
    kg_canonical_hamiltonian,
    kg_nonrel_hamiltonian,
    maxwell_hamiltonian,
    schrodinger_hamiltonian,
)

# Worst relative difference to its reference allowed for each route.
TOLERANCE = {
    "operator": 1e-13,
    "operator-back": 1e-13,
    "steps": 1e-13,
    "transport": 1e-13,
    "transport-pair": 1e-13,
    "eigenbasis": 1e-13,
    "frame": 1e-13,
}

BUILDERS = ("dirac", "kg-canonical", "kg-nonrel", "kg-5d", "maxwell", "schrodinger")
WRAPPERS = ("gauged-constant", "gauged-phase", "gauged-rotation", "gauged-field", "block-diag",
            "block-twin", "block-diverging")


def _builder(kind, grid, hbar, c, charge, driven):
    """One model builder, with a cosine potential that is static or driven."""
    x = grid.points
    profile = 0.3 * np.cos(2.0 * np.pi * x / grid.length)
    scalar = (lambda t: profile * np.cos(3.0 * t)) if driven else profile
    # Only the charged scalar fields read the rate of a driven potential.
    rate = (lambda t: -3.0 * profile * np.sin(3.0 * t)) if driven and kind.startswith("kg") else None
    potentials = Potentials(scalar=scalar, scalar_rate=rate)
    if kind == "dirac":
        return dirac_hamiltonian(1.0, charge, potentials, hbar, c)
    if kind == "kg-canonical":
        return kg_canonical_hamiltonian(1.0, charge, potentials, hbar, c)
    if kind == "kg-nonrel":
        return kg_nonrel_hamiltonian(1.0, charge, potentials, hbar, c)
    if kind == "kg-5d":
        return kg_5d_hamiltonian(1.0, hbar, c)
    if kind == "maxwell":
        return maxwell_hamiltonian(hbar, c)
    return schrodinger_hamiltonian(1.0, scalar, hbar)


def _wrapped(kind, base, other, grid):
    """A gauge transform of `base`, or the stack of `base` and `other`.  The
    constant, phase and rotation frames undo I + 0.3i E_01, diag(e^{i r t})
    and a rotation at rate 0.8: f is their inverse."""
    m = base.dimension
    if kind == "block-diag":
        return block_diag_hamiltonian([base, other])
    if kind == "gauged-constant":
        frame = np.eye(m, dtype=complex) + 0.3j * np.eye(m, k=1)
        return gauge_transform(base, Frame(np.linalg.inv(frame)))
    rates = np.linspace(-0.9, 1.3, m)
    if kind == "gauged-phase":
        return gauge_transform(base, Frame(lambda t: np.diag(np.exp(-1j * rates * t)),
                                           lambda t: np.diag(-1j * rates * np.exp(-1j * rates * t))))
    if kind == "gauged-field":
        # f(t, x) = diag(exp(i sin(0.9 t) chi(x) r_k)).
        chi = np.cos(2.0 * np.pi * grid.points / grid.length)

        def field(t):
            return np.exp(1j * np.sin(0.9 * t) * np.outer(chi, rates))[:, :, None] * np.eye(m)

        def field_rate(t):
            return 0.9j * np.cos(0.9 * t) * np.outer(chi, rates)[:, :, None] * field(t)

        return gauge_transform(base, Frame(field, field_rate))

    def rotation(t):
        # Mixes the first and the last component at rate -0.8.
        frame = np.eye(m, dtype=complex)
        c, s = np.cos(0.8 * t), np.sin(0.8 * t)
        frame[0, 0], frame[0, -1], frame[-1, 0], frame[-1, -1] = c, s, -s, c
        return frame

    generator = np.zeros((m, m))
    generator[-1, 0], generator[0, -1] = -0.8, 0.8
    return gauge_transform(base, Frame(rotation, lambda t: generator @ rotation(t)))


def _diverging(grid, hbar, t_star):
    """Two Schrodinger copies whose potentials are exactly 0 before their
    switch-on time and driven from it on: the first at t = inf, the second
    at t_star.  Both write the same diagonal, so they are twins before
    t_star."""
    profile = 0.3 * np.cos(2.0 * np.pi * grid.points / grid.length)
    off = np.zeros(grid.npoints)

    def switched(start):
        return schrodinger_hamiltonian(
            1.0, lambda t: profile * np.cos(3.0 * t) if t >= start else off, hbar
        )

    return block_diag_hamiltonian([switched(np.inf), switched(t_star)])


def _frame_field(rng, grid, m):
    """An x-dependent frame field (N, m, m) drawn from `rng`: a phase per
    component, or a rotation of the first and the last component."""
    wave = np.cos(2.0 * np.pi * grid.points / grid.length + rng.uniform(0.0, 2.0 * np.pi))
    if m == 1 or rng.random() < 0.5:
        return np.exp(1j * np.outer(wave, rng.uniform(-1.5, 1.5, m)))[:, :, None] * np.eye(m)
    angles = rng.uniform(-1.5, 1.5) * wave
    frames = np.broadcast_to(np.eye(m, dtype=complex), (grid.npoints, m, m)).copy()
    c, s = np.cos(angles), np.sin(angles)
    frames[:, 0, 0], frames[:, 0, -1], frames[:, -1, 0], frames[:, -1, -1] = c, -s, s, c
    return frames


@st.composite
def examples(draw):
    grid = SpatialGrid1D(
        draw(st.sampled_from([6, 8, 12])), 6.0, draw(st.sampled_from(["periodic", "reflecting"]))
    )
    hbar, c = draw(st.sampled_from([1.0, 0.7])), draw(st.sampled_from([1.0, 1.3]))

    def builder():
        kind = draw(st.sampled_from(BUILDERS))
        charge = draw(st.sampled_from([0.0, 0.5, 1.0]))
        return _builder(kind, grid, hbar, c, charge, draw(st.booleans()))

    kind = draw(st.sampled_from(BUILDERS + WRAPPERS))
    if kind in BUILDERS:
        factory = _builder(kind, grid, hbar, c, draw(st.sampled_from([0.0, 0.5, 1.0])),
                           draw(st.booleans()))
    elif kind == "block-twin":
        base = builder()
        factory = block_diag_hamiltonian([base, base])
    elif kind == "block-diverging":
        factory = _diverging(grid, hbar, draw(st.sampled_from([0.05, 0.35, 0.5])))
    else:
        base = builder()
        if kind == "gauged-rotation" and base.dimension == 1:
            base = block_diag_hamiltonian([base, builder()])
        factory = _wrapped(kind, base, builder() if kind == "block-diag" else None, grid)
    return dict(
        factory=factory,
        grid=grid,
        method=draw(st.sampled_from(METHODS)),
        steps=draw(st.integers(1, 11)),
        dt=draw(st.sampled_from([0.01, 0.04])),
        t0=draw(st.sampled_from([0.0, 0.3])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def _textbook_march(factory, grid, psi, method, steps, dt, t0):
    """`psi` after `steps` steps, each with the whole H at its midpoint and
    K = i H dt / hbar: exp(-K) by `scipy.linalg.expm`, or Crank-Nicolson,
    (I + K/2) psi' = (I - K/2) psi."""
    eye = np.eye(psi.size)
    for k in range(steps):
        kdt = (1j * dt / factory.hbar) * factory.at().dense(grid, t0 + k * dt + dt / 2)
        if method == "midpoint-exponential":
            psi = scipy.linalg.expm(-kdt) @ psi
        else:
            psi = np.linalg.solve(eye + kdt / 2, (eye - kdt / 2) @ psi)
    return psi


def route_differences(factory, grid, method, steps, dt, t0, seed):
    """Relative difference of every route to its reference, by route."""
    rng = np.random.default_rng(seed)
    shape = (factory.dimension, grid.npoints)
    state = GridFunction(grid, rng.normal(size=shape) + 1j * rng.normal(size=shape))
    psi = state.flatten()
    t_end = t0 + steps * dt
    final = evolve(state, factory, dt, steps, t0, method).flatten()
    operator = EvolutionOperator(factory, grid, dt, steps, t0, method)
    sampling = PathSampling(np.array([t0, t_end]))
    transport = evolution_transport(factory, grid, sampling, method, substeps=steps)
    routes = {
        "operator": (operator.matrix(t0, t_end) @ psi, final),
        "operator-back": (operator.matrix(t_end, t0) @ final, psi),
        "steps": (_textbook_march(factory, grid, psi, method, steps, dt, t0), final),
        "transport": (transport.transport(-1, 0) @ psi, final),
    }
    lattice = evolution_transport(factory, grid, PathSampling(operator.times), method)
    i, j = rng.integers(1, steps + 1, size=2)
    routes["transport-pair"] = (
        lattice.transport(i, j), operator.matrix(operator.times[j], operator.times[i])
    )
    frames = _frame_field(rng, grid, factory.dimension)
    framed = HamiltonianFactory(matrix_in_frame(factory.at(), frames), hbar=factory.hbar)
    start = GridFunction(grid, np.einsum("xij,jx->ix", np.linalg.inv(frames), state.values))
    marched = evolve(start, framed, dt, steps, t0, method).values
    routes["frame"] = (np.einsum("xij,jx->ix", frames, marched).reshape(-1), final)
    if not factory.time_dependent:
        # A drawn H is Hermitian to rounding or far from it.
        h = factory.at().dense(grid)
        if np.max(np.abs(h - h.conj().T)) <= 1e-12 * max(1.0, np.max(np.abs(h))):
            exact = final if method == "midpoint-exponential" else evolve(
                state, factory, dt, steps, t0, "midpoint-exponential").flatten()
            basis = EigenBasis.from_factory(factory, grid)
            routes["eigenbasis"] = (basis.propagator(t_end, t0) @ psi, exact)
    return {
        name: float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
        for name, (got, want) in routes.items()
    }


_PINNED_GRID = SpatialGrid1D(12, 6.0, "periodic")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(examples())
# kg-nonrel under the driven phase frame: a frame rate 1e-10 off the exact
# one puts its `transport` at 1.02e-11.
@example(dict(
    factory=_wrapped("gauged-phase", _builder("kg-nonrel", _PINNED_GRID, 1.0, 1.0, 0.0, False), None,
                     _PINNED_GRID),
    grid=_PINNED_GRID, method="midpoint-exponential", steps=11, dt=0.04, t0=0.3, seed=29077,
))
def test_every_route_agrees_with_evolve(example):
    differences = route_differences(**example)
    for name, difference in differences.items():
        assert difference <= TOLERANCE[name], (name, difference)
