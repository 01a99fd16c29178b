"""Route agreement: every way of propagating a state gives the same state.

One hypothesis strategy draws a factory (the six model builders, a gauge
transform by a constant, driven-phase or driven-rotation frame, or a
block-diagonal stack), a grid, hbar, c, potentials, a method, a step count
and a start time.  Each example propagates one random state along every
route and holds each route against `evolve`, or the reference named below,
with one tolerance per pair of routes written once below:

* `operator`: `EvolutionOperator.matrix` forward;
* `operator-back`: `EvolutionOperator.matrix` backward, applied to the
  state `evolve` returned, which must give back the initial state;
* `steps`: the product of one `step_matrix` per step;
* `transport`: `evolution_transport` over the march with one substep per
  step, read forward as K(t_end <- t0);
* `transport-pair`: `evolution_transport` sampled at every lattice time,
  read as K(t_i <- t_j) for a drawn pair of samples after t0, against
  `EvolutionOperator.matrix`: neither frame is the identity, so each
  group's solve is a full one;
* `eigenbasis`: for a static Hermitian H, `EigenBasis.propagator` over the
  march against midpoint-exponential `evolve`, which is exact there.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bundlewave.bundle import PathSampling, evolution_transport
from bundlewave.evolution import METHODS, EvolutionOperator, evolve, hamiltonian_dense, step_matrix
from bundlewave.green import EigenBasis
from bundlewave.grid import GridFunction, SpatialGrid1D
from bundlewave.reduction import (
    GaugeFrame,
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
    "transport": 1e-11,
    "transport-pair": 1e-11,
    "eigenbasis": 1e-13,
}

BUILDERS = ("dirac", "kg-canonical", "kg-nonrel", "kg-5d", "maxwell", "schrodinger")
WRAPPERS = ("gauged-constant", "gauged-phase", "gauged-rotation", "block-diag")


def _builder(kind, grid, hbar, c, charge, driven):
    """One model builder, with a cosine potential that is static or driven."""
    x = grid.points
    profile = 0.3 * np.cos(2.0 * np.pi * x / grid.length)
    scalar = (lambda t: profile * np.cos(3.0 * t)) if driven else profile
    potentials = Potentials(scalar=scalar)
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


def _wrapped(kind, base, other):
    """A gauge transform of `base`, or the stack of `base` and `other`."""
    m = base.dimension
    if kind == "block-diag":
        return block_diag_hamiltonian([base, other])
    if kind == "gauged-constant":
        frame = np.eye(m, dtype=complex) + 0.3j * np.eye(m, k=1)
        return gauge_transform(base, GaugeFrame(frame))
    rates = np.linspace(-0.9, 1.3, m)
    if kind == "gauged-phase":
        return gauge_transform(base, GaugeFrame(lambda t: np.diag(np.exp(1j * rates * t))))

    def rotation(t):
        # Mixes the first and the last component at rate 0.8.
        frame = np.eye(m, dtype=complex)
        c, s = np.cos(0.8 * t), np.sin(0.8 * t)
        frame[0, 0], frame[0, -1], frame[-1, 0], frame[-1, -1] = c, -s, s, c
        return frame

    return gauge_transform(base, GaugeFrame(rotation))


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
    else:
        base = builder()
        if kind == "gauged-rotation" and base.dimension == 1:
            base = block_diag_hamiltonian([base, builder()])
        factory = _wrapped(kind, base, builder() if kind == "block-diag" else None)
    return dict(
        factory=factory,
        grid=grid,
        method=draw(st.sampled_from(METHODS)),
        steps=draw(st.integers(1, 11)),
        dt=draw(st.sampled_from([0.01, 0.04])),
        t0=draw(st.sampled_from([0.0, 0.3])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def route_differences(factory, grid, method, steps, dt, t0, seed):
    """Relative difference of every route to its reference, by route."""
    rng = np.random.default_rng(seed)
    shape = (factory.dimension, grid.npoints)
    state = GridFunction(grid, rng.normal(size=shape) + 1j * rng.normal(size=shape))
    psi = state.flatten()
    t_end = t0 + steps * dt
    final = evolve(state, factory, dt, steps, t0, method).flatten()
    operator = EvolutionOperator(factory, grid, dt, steps, t0, method)
    product = np.eye(psi.size, dtype=complex)
    for k in range(steps):
        product = step_matrix(factory, grid, t0 + k * dt, dt, method) @ product
    sampling = PathSampling(np.array([t0, t_end]))
    transport = evolution_transport(factory, grid, sampling, method, substeps=steps)
    routes = {
        "operator": (operator.matrix(t0, t_end) @ psi, final),
        "operator-back": (operator.matrix(t_end, t0) @ final, psi),
        "steps": (product @ psi, final),
        "transport": (transport.transport(-1, 0) @ psi, final),
    }
    lattice = evolution_transport(factory, grid, PathSampling(operator.times), method)
    i, j = rng.integers(1, steps + 1, size=2)
    routes["transport-pair"] = (
        lattice.transport(i, j), operator.matrix(operator.times[j], operator.times[i])
    )
    if not factory.time_dependent:
        # A drawn H is Hermitian to rounding or far from it.
        h = hamiltonian_dense(factory, grid)
        if np.max(np.abs(h - h.conj().T)) <= 1e-12 * max(1.0, np.max(np.abs(h))):
            exact = final if method == "midpoint-exponential" else evolve(
                state, factory, dt, steps, t0, "midpoint-exponential").flatten()
            basis = EigenBasis.from_factory(factory, grid)
            routes["eigenbasis"] = (basis.propagator(t_end, t0) @ psi, exact)
    return {
        name: float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
        for name, (got, want) in routes.items()
    }


@settings(max_examples=100, deadline=None, derandomize=True)
@given(examples())
def test_every_route_agrees_with_evolve(example):
    differences = route_differences(**example)
    for name, difference in differences.items():
        assert difference <= TOLERANCE[name], (name, difference)
