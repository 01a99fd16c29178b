"""The spectral Crank-Nicolson route: a driven H = C + P(t) on a periodic
grid, C translation invariant and P pointwise, marched by FFT sweeps.

`MatrixOperator.symbol` splits H; the route is held against the LU march
(`evolution._driven_blocks`), which solves the same scheme, so the two agree
to rounding.  Operators that do not split, and steps whose sweeps would not
contract by at least one half, take the LU route.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bundlewave import evolution
from bundlewave.algebra import Frame, MatrixOperator, ScaleOp
from bundlewave.evolution import EvolutionError, _StepFactors, evolve, march
from bundlewave.grid import GridFunction, SpatialGrid1D
from bundlewave.reduction import (
    HamiltonianFactory,
    Potentials,
    dirac_hamiltonian,
    gauge_transform,
    kg_5d_hamiltonian,
    kg_canonical_hamiltonian,
    kg_nonrel_hamiltonian,
    maxwell_hamiltonian,
    schrodinger_hamiltonian,
)

TOLERANCE = 1e-13


def _plus_at_origin(factory, term):
    """The factory with `term` added to the (0, 0) entry of its operator."""
    entries = [list(row) for row in factory.op.entries]
    entries[0][0] = entries[0][0] + term
    return HamiltonianFactory(MatrixOperator(entries), factory.label, factory.hbar)


def _factory(kind, grid, hbar=1.0, c=1.0, driven=True):
    """A builder with a cosine potential, driven or static; Maxwell and kg-5d,
    which take no potential, get a pointwise term at the origin."""
    x = grid.points
    profile = 0.3 * np.cos(2.0 * np.pi * x / grid.length)
    drive = (lambda t: profile * np.cos(3.0 * t)) if driven else profile
    rate = (lambda t: -3.0 * profile * np.sin(3.0 * t)) if driven else None
    if kind == "dirac-scalar":
        return dirac_hamiltonian(1.0, 1.0, Potentials(scalar=drive), hbar, c)
    if kind == "dirac-vector":
        return dirac_hamiltonian(1.0, 1.0, Potentials(scalar=profile, vector=drive), hbar, c)
    if kind == "kg-canonical":
        return kg_canonical_hamiltonian(1.0, 1.0, Potentials(scalar=drive, scalar_rate=rate), hbar, c)
    if kind == "kg-nonrel":
        return kg_nonrel_hamiltonian(1.0, 1.0, Potentials(scalar=drive, scalar_rate=rate), hbar, c)
    if kind == "schrodinger":
        return schrodinger_hamiltonian(1.0, drive, hbar)
    free = maxwell_hamiltonian(hbar, c) if kind == "maxwell" else kg_5d_hamiltonian(1.0, hbar, c)
    return _plus_at_origin(free, ScaleOp(drive))


KINDS = ("dirac-scalar", "dirac-vector", "kg-canonical", "kg-nonrel", "schrodinger", "maxwell",
         "kg-5d")


def _state(factory, grid, seed=3):
    rng = np.random.default_rng(seed)
    shape = (factory.dimension, grid.npoints)
    return GridFunction(grid, rng.normal(size=shape) + 1j * rng.normal(size=shape))


def _lu_states(factory, state, dt, steps, t0=0.0):
    """Every state of the LU march of `factory` from `state`."""
    factors = _StepFactors(factory, state.grid, "crank-nicolson")
    return np.concatenate(list(evolution._driven_blocks(state.flatten(), factors, t0, dt, steps)))


@pytest.fixture
def lus(monkeypatch):
    """A list that gains one entry per LU that a march takes."""
    calls = []
    getrf = evolution._getrf

    def counted(a):
        calls.append(a.shape)
        return getrf(a)

    monkeypatch.setattr(evolution, "_getrf", counted)
    return calls


# ---------------------------------------------------------------------------
# The symbol


def _circulant(symbol):
    """The dense N x N matrix with eigenvalues `symbol` on the Fourier modes."""
    n = symbol.size
    return np.fft.ifft(symbol[:, None] * np.fft.fft(np.eye(n), axis=0), axis=0)


@pytest.mark.parametrize("npoints", [12, 13])
@pytest.mark.parametrize("kind", KINDS)
def test_symbol_matches_the_fft_of_dense(kind, npoints):
    # At even N the odd derivatives drop the Nyquist wavenumber; at odd N
    # there is none.
    grid = SpatialGrid1D(npoints, 6.0)
    factory = _factory(kind, grid, hbar=0.7, c=1.3)
    t = 0.3
    symbol, pointwise = factory.op.symbol(grid)
    m, n = factory.dimension, npoints
    dense = factory.op.dense(grid, t)
    values = pointwise.fields(grid, t)
    # The pointwise part sits on the diagonal of each N x N block.
    blocks = dense.reshape(m, n, m, n).transpose(0, 2, 1, 3).copy()
    for i in range(m):
        for j in range(m):
            blocks[i, j][np.diag_indices(n)] -= values[:, i, j]
    columns = np.fft.fft(blocks[:, :, :, 0], axis=-1).transpose(2, 0, 1)
    scale = np.max(np.abs(symbol))
    assert np.max(np.abs(symbol - columns)) <= 1e-14 * scale
    # What is left of each block is the circulant of its symbol.
    for i in range(m):
        for j in range(m):
            assert np.max(np.abs(blocks[i, j] - _circulant(symbol[:, i, j]))) <= 1e-14 * scale
    if npoints % 2 == 0 and kind.startswith("dirac"):
        # c alpha_1 p, which alone couples components 0 and 3, vanishes at
        # the Nyquist wavenumber, up to the rounding of the derivative.
        assert abs(symbol[n // 2, 0, 3]) <= 1e-14 * scale


def test_operators_that_are_not_c_plus_p_have_no_symbol():
    grid = SpatialGrid1D(12, 6.0)
    profile = 0.3 * np.cos(2.0 * np.pi * grid.points / grid.length)
    assert _factory("dirac-scalar", grid).op.symbol(SpatialGrid1D(12, 6.0, "reflecting")) is None
    # (p - qA)^2 puts the field A beside a derivative.
    kg = kg_canonical_hamiltonian(1.0, 1.0, Potentials(scalar=profile, vector=profile))
    assert kg.op.symbol(grid) is None
    # So does a frame that varies in x, and one that varies in t.
    field = np.exp(0.7j * profile)[:, None, None] * np.eye(4)
    assert gauge_transform(_factory("dirac-scalar", grid), Frame(field)).op.symbol(grid) is None
    phase = gauge_transform(_factory("dirac-scalar", grid),
                            Frame(lambda t: np.exp(0.7j * t) * np.eye(4),
                                  lambda t: 0.7j * np.exp(0.7j * t) * np.eye(4)))
    assert phase.op.symbol(grid) is None
    # A constant frame keeps the split.
    mixing = np.eye(4) + 0.3j * np.eye(4, k=1)
    assert gauge_transform(_factory("dirac-scalar", grid), Frame(mixing)).op.symbol(grid) is not None


# ---------------------------------------------------------------------------
# The march


@pytest.mark.parametrize("npoints", [12, 64])
@pytest.mark.parametrize("hbar, c", [(1.0, 1.0), (0.7, 1.3)])
@pytest.mark.parametrize("kind", KINDS)
def test_spectral_march_agrees_with_the_lu_march(kind, hbar, c, npoints, lus):
    # On the box of `timedep-dirac-routes`, L = 20.  At L = 6 and N = 64 the
    # Klein-Gordon steps are ill-conditioned (cond(I + K) = 310): there the
    # LU march itself is 6e-14 from a dense solve, and kg-canonical's
    # sweeps do not all contract by one half, so it hands over to the LU.
    grid = SpatialGrid1D(npoints, 20.0)
    factory = _factory(kind, grid, hbar, c)
    state = _state(factory, grid)
    dt, steps, t0 = 0.04, 11, 0.3
    spectral = np.concatenate([states.reshape(len(states), -1)
                               for _, states in march(state, factory, dt, steps, t0)])
    assert not lus
    lu = _lu_states(factory, state, dt, steps, t0)
    assert lus
    assert np.max(np.abs(spectral - lu)) <= TOLERANCE * np.max(np.abs(lu))


@pytest.mark.parametrize("kind", KINDS)
def test_the_norm_bound_is_no_smaller_than_the_two_norm(kind):
    # On the symbols C^(k) and on A(k) = (I + K^_C(k))^-1 at two steps; the
    # bound holds exactly, the comparison to within rounding.
    grid = SpatialGrid1D(64, 20.0)
    factory = _factory(kind, grid, hbar=0.7, c=1.3)
    symbol = factory.op.symbol(grid)[0]
    eye = np.eye(factory.dimension)
    for dt in (0.01, 0.5):
        inverse = np.linalg.inv(eye + 1j * dt / (2.0 * factory.hbar) * symbol)
        for matrices in (symbol, inverse):
            norms = np.linalg.norm(matrices, 2, axis=(1, 2))
            assert np.all(evolution._norm_bound(matrices) >= norms * (1.0 - 4 * np.finfo(float).eps))


def test_the_benchmark_march_stays_spectral(lus):
    # The march of `timedep-dirac-routes`: 40 steps of 0.01 at N = 128, L = 20.
    grid = SpatialGrid1D(128, 20.0)
    factory = _factory("dirac-scalar", grid)
    assert len(list(march(_state(factory, grid), factory, 0.01, 40))) == 40
    assert not lus


def _ineligible(kind):
    """(factory, grid) of a driven H that is not C + P(t) on its grid."""
    periodic = SpatialGrid1D(12, 20.0)
    profile = 0.3 * np.cos(2.0 * np.pi * periodic.points / periodic.length)
    if kind == "reflecting":
        return _factory("dirac-scalar", periodic), SpatialGrid1D(12, 20.0, "reflecting")
    if kind == "field-frame":
        field = np.exp(0.7j * profile)[:, None, None] * np.eye(4)
        return gauge_transform(_factory("dirac-scalar", periodic), Frame(field)), periodic
    drive = lambda t: profile * np.cos(3.0 * t)  # noqa: E731
    rate = lambda t: -3.0 * profile * np.sin(3.0 * t)  # noqa: E731
    potentials = Potentials(scalar=drive, vector=profile, scalar_rate=rate)
    return kg_canonical_hamiltonian(1.0, 1.0, potentials), periodic


@pytest.mark.parametrize("kind", ["reflecting", "field-frame", "kg-vector"])
def test_operators_that_are_not_c_plus_p_take_the_lu_route(kind, lus):
    factory, grid = _ineligible(kind)
    assert factory.op.symbol(grid) is None
    state = _state(factory, grid)
    marched = np.concatenate([states.reshape(len(states), -1)
                              for _, states in march(state, factory, 0.04, 11)])
    assert len(lus) >= 11
    assert np.array_equal(marched, _lu_states(factory, state, 0.04, 11))


def _strong_between(start, stop):
    """Driven Schrodinger whose cosine potential is 200 times stronger for t
    in [start, stop): rho = (dt / 2 hbar) max|V| goes from 0.006 to 1.2 at
    dt = 0.04."""
    grid = SpatialGrid1D(12, 20.0)
    profile = 0.3 * np.cos(2.0 * np.pi * grid.points / grid.length)
    factory = schrodinger_hamiltonian(1.0, lambda t: profile * (200.0 if start <= t < stop else 1.0))
    return factory, grid


def test_the_march_hands_over_to_the_lu_at_the_first_step_past_the_bound(monkeypatch):
    # The step from 0.2 (k = 5) is the first whose midpoint is past 0.2.
    factory, grid = _strong_between(0.2, np.inf)
    state = _state(factory, grid)
    dt, steps = 0.04, 11
    handed = []
    driven_blocks = evolution._driven_blocks

    def recorded(psi, factors, t0, dt, steps, first=0):
        handed.append((psi.copy(), t0, first))
        return driven_blocks(psi, factors, t0, dt, steps, first)

    monkeypatch.setattr(evolution, "_driven_blocks", recorded)
    marched = np.concatenate([states.reshape(len(states), -1)
                              for _, states in march(state, factory, dt, steps)])
    (psi, t0, first), = handed
    assert (t0, first) == (0.0, 5)
    assert np.array_equal(psi, marched[4])
    # From the state of step 5 on, bit for bit the LU march.
    factors = _StepFactors(factory, grid, "crank-nicolson")
    after = np.concatenate(list(driven_blocks(marched[4], factors, 0.0, dt, steps, 5)))
    assert np.array_equal(marched[5:], after)
    # Before it, the spectral steps agree with the LU march.
    monkeypatch.setattr(evolution, "_driven_blocks", driven_blocks)
    lu = _lu_states(factory, state, dt, steps)
    assert np.max(np.abs(marched - lu)) <= TOLERANCE * np.max(np.abs(lu))


def test_the_handover_is_one_way(lus):
    # Strong for the one step from 0.2 only: the five steps after it, where
    # the bound holds again, stay on the LU.
    factory, grid = _strong_between(0.2, 0.24)
    evolve(_state(factory, grid), factory, 0.04, 11)
    assert len(lus) == 6


def test_a_singular_symbol_takes_the_lu_from_the_first_step(lus):
    # With hbar = 1 and dt = 0.5, H = 4i I + (1 + cos(x) / 2) cos(t) makes
    # I + K^_C = 0 at every wavenumber, so it has no inverse to sweep with.
    grid, dt, steps = SpatialGrid1D(8, 2.0 * np.pi), 0.5, 6
    profile = 1.0 + 0.5 * np.cos(grid.points)
    op = MatrixOperator([[ScaleOp(4j) + ScaleOp(lambda t: profile * np.cos(t))]])
    factory = HamiltonianFactory(op, "singular-symbol")
    assert op.symbol(grid) is not None
    state = _state(factory, grid)
    marched = np.concatenate([states.reshape(len(states), -1)
                              for _, states in march(state, factory, dt, steps)])
    assert len(lus) == steps
    assert np.array_equal(marched, _lu_states(factory, state, dt, steps))


def test_sweeps_that_do_not_converge_are_an_evolution_error(monkeypatch):
    # With one sweep allowed, a step whose second sweep still changes psi'
    # beyond rounding cannot finish.
    monkeypatch.setattr(evolution, "_SWEEPS", 1)
    grid = SpatialGrid1D(12, 20.0)
    factory = _factory("dirac-scalar", grid)
    with pytest.raises(EvolutionError, match="did not converge in 1"):
        evolve(_state(factory, grid), factory, 0.04, 3)


def test_spectral_march_keeps_the_norm():
    # Crank-Nicolson with a Hermitian H is unitary; the sweeps stop within
    # a few ulp of the solve.
    grid = SpatialGrid1D(64, 20.0)
    factory = _factory("dirac-vector", grid)
    state = _state(factory, grid)
    drift = []
    evolve(state, factory, 0.01, 400,
           callback=lambda t, s: drift.append(abs(s.norm() / state.norm() - 1.0)))
    assert max(drift) < 1e-13


_MARCH = """\
import sys
sys.path.insert(0, {src!r})
import numpy as np
from bundlewave.evolution import evolve
from bundlewave.grid import GridFunction, SpatialGrid1D
from bundlewave.reduction import Potentials, dirac_hamiltonian
grid = SpatialGrid1D(128, 20.0)
profile = 0.3 * np.cos(2.0 * np.pi * grid.points / grid.length)
factory = dirac_hamiltonian(1.0, 1.0, Potentials(scalar=lambda t: profile * np.cos(3.0 * t)))
rng = np.random.default_rng(29)
state = GridFunction(grid, rng.normal(size=(4, 128)) + 1j * rng.normal(size=(4, 128)))
np.save({out!r}, evolve(state, factory, 0.01, 40).values)
"""


def test_spectral_march_holds_its_bits_at_one_and_two_blas_threads(tmp_path):
    # The pool size is read when numpy loads, so each count runs in a fresh
    # interpreter.  FFTs and per-wavenumber products do not use the pool.
    src = str(Path(__file__).resolve().parent.parent / "src")
    finals = []
    for threads in ("1", "2"):
        out = str(tmp_path / f"final-{threads}.npy")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        done = subprocess.run([sys.executable, "-c", _MARCH.format(src=src, out=out)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        finals.append(np.load(out))
    assert np.array_equal(*finals)
