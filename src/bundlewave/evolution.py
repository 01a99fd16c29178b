"""Time stepping for first-order systems i*hbar dpsi/dt = H(t) psi.

Two interchangeable one-step schemes, with H_mid evaluated at the interval
midpoint and K = i dt H_mid / 2 hbar:

* Crank-Nicolson: (I + K) psi' = (I - K) psi.  Unconditionally stable,
  second order, exactly norm-conserving for Hermitian H and exactly
  form-conserving for pseudo-Hermitian H.
* Midpoint exponential: psi' = expm(-i dt H_mid / hbar) psi, exact for
  time-independent H; useful as an independent route when cross-checking.

Crank-Nicolson is used in Cayley form, U = 2 (I + K)^-1 - I, from one
in-place LU of I + K per step.  That LU has three users: `step_matrix`
solves it against the identity, and `evolve` builds that matrix once per
static H; `evolve` for a time-dependent H applies it to the state with one
single-RHS solve, psi -> 2 (I + K)^-1 psi - psi; and
`bundle.evolution_transport` multiplies it into a running frame from the
right, B -> 2 B (I + K)^-1 - B, with one solve of mN right-hand sides and
no explicit step matrix.  Each costs one LU and one solve per (sub)step.

`EvolutionOperator` materialises the propagator between lattice times as a
dense matrix so that composition, inversion, and derivative probes can be
taken literally; it refuses off-lattice times and oversized systems.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .grid import FibreProduct, GridFunction, SpatialGrid1D, inner
from .algebra import MatrixOperator
from .reduction import HamiltonianFactory

DENSE_STATE_LIMIT = 1024
STEP_STATE_LIMIT = 4096
METHODS = ("crank-nicolson", "midpoint-exponential")


class EvolutionError(RuntimeError):
    """Unstable, oversized, or ill-posed evolution request."""


def hamiltonian_dense(factory: HamiltonianFactory, grid: SpatialGrid1D, t: float = 0.0) -> np.ndarray:
    """Dense (m N, m N) matrix of the Hamiltonian at time t."""
    return factory.at(t).dense(grid, t)


def _check_method(method: str) -> None:
    if method not in METHODS:
        raise EvolutionError(f"unknown evolution method {method!r}, expected one of {METHODS}")


def _cayley_lu(h_mid: np.ndarray, coeff: complex):
    """LU of (I + coeff H)^T, factored in place in H_mid's C-ordered storage."""
    h_mid *= coeff
    h_mid[np.diag_indices_from(h_mid)] += 1.0
    if not np.all(np.isfinite(h_mid)):
        raise EvolutionError("the Crank-Nicolson matrix left the finite range; reduce the time step")
    return scipy.linalg.lu_factor(h_mid.T, overwrite_a=True, check_finite=False)


def _cayley_right(
    block: np.ndarray | None,
    factory: HamiltonianFactory,
    grid: SpatialGrid1D,
    t: float,
    dt: float,
) -> np.ndarray:
    """block @ U for the Crank-Nicolson step U over [t, t + dt].

    block (I + K)^-1 is the transpose of a solve of (I + K)^T against
    block^T, so the product takes one LU and one solve with mN right-hand
    sides.  `block` is left untouched; None stands for the identity, whose
    product is U itself and whose right-hand side the solve may overwrite.
    """
    lu = _cayley_lu(hamiltonian_dense(factory, grid, t + dt / 2.0), 1j * dt / (2.0 * factory.hbar))
    if block is None:
        rhs = np.eye(lu[0].shape[0], dtype=complex, order="F")
    else:
        rhs = block.T
    # The transpose of the F-ordered solution is C-ordered.
    out = scipy.linalg.lu_solve(lu, rhs, overwrite_b=block is None, check_finite=False).T
    out *= 2.0
    if block is None:
        out[np.diag_indices_from(out)] -= 1.0
    else:
        out -= block
    return out


def step_matrix(
    factory: HamiltonianFactory,
    grid: SpatialGrid1D,
    t: float,
    dt: float,
    method: str = "crank-nicolson",
) -> np.ndarray:
    """Dense one-step propagator over [t, t + dt] (dt may be negative)."""
    _check_method(method)
    # Overflow surfaces as non-finite entries, refused below.
    with np.errstate(over="ignore", invalid="ignore"):
        if method == "midpoint-exponential":
            h_mid = hamiltonian_dense(factory, grid, t + dt / 2.0)
            h_mid *= -1j * dt / factory.hbar
            unit = scipy.linalg.expm(h_mid)
        else:
            unit = _cayley_right(None, factory, grid, t, dt)
    if not np.all(np.isfinite(unit)):
        raise EvolutionError("the step matrix left the finite range; reduce the time step")
    return unit


def evolve(
    initial: GridFunction,
    factory: HamiltonianFactory,
    dt: float,
    steps: int,
    t0: float = 0.0,
    method: str = "crank-nicolson",
    callback=None,
) -> GridFunction:
    """March `steps` steps of size dt from t0; returns the final state.

    `callback(t, state)`, if given, is invoked after every step.  A static H
    gets one step matrix, built once by `step_matrix` in O((mN)^3), then one
    O((mN)^2) matvec per step; a time-dependent H is realized and factored
    at every step midpoint, then applied with one single-RHS solve.
    """
    _check_method(method)
    if initial.components != factory.dimension:
        raise EvolutionError(
            f"state has {initial.components} components, factory wants {factory.dimension}"
        )
    size = factory.dimension * initial.grid.npoints
    if size > STEP_STATE_LIMIT:
        raise EvolutionError(f"stacked state size {size} exceeds limit {STEP_STATE_LIMIT}")

    grid = initial.grid
    psi = initial.flatten()
    if not np.all(np.isfinite(psi)):
        raise EvolutionError("initial state is outside the finite range")
    unit = None if factory.time_dependent or steps < 1 else step_matrix(factory, grid, t0, dt, method)

    for k in range(steps):
        # Overflow surfaces as a non-finite state, checked right after.
        with np.errstate(over="ignore", invalid="ignore"):
            if unit is not None:
                psi = unit @ psi
            elif method == "crank-nicolson":
                h_mid = hamiltonian_dense(factory, grid, t0 + (k + 0.5) * dt)
                lu = _cayley_lu(h_mid, 1j * dt / (2.0 * factory.hbar))
                psi = 2.0 * scipy.linalg.lu_solve(lu, psi, trans=1, check_finite=False) - psi
            else:
                psi = step_matrix(factory, grid, t0 + k * dt, dt, method) @ psi
        if not np.all(np.isfinite(psi)):
            raise EvolutionError(f"state left the finite range at step {k + 1}")
        if callback is not None:
            callback(t0 + (k + 1) * dt, GridFunction.from_flat(grid, psi, factory.dimension))

    return GridFunction.from_flat(grid, psi, factory.dimension)


class EvolutionOperator:
    """Dense propagators between the times t0 + k dt, k = 0..steps.

    Backward requests return the inverse of the forward product, so
    U(a <- b) U(b <- a) = 1 identically.
    """

    def __init__(
        self,
        factory: HamiltonianFactory,
        grid: SpatialGrid1D,
        dt: float,
        steps: int,
        t0: float = 0.0,
        method: str = "crank-nicolson",
    ):
        _check_method(method)
        size = factory.dimension * grid.npoints
        if size > DENSE_STATE_LIMIT:
            raise EvolutionError(
                f"dense evolution operator of size {size} exceeds limit {DENSE_STATE_LIMIT}"
            )
        if steps < 1 or dt == 0:
            raise EvolutionError("need at least one step of nonzero size")
        self.factory = factory
        self.grid = grid
        self.dt = float(dt)
        self.steps = int(steps)
        self.t0 = float(t0)
        self.method = method
        self.times = self.t0 + self.dt * np.arange(self.steps + 1)
        self._step_cache: dict[int, np.ndarray] = {}

    def time_index(self, t: float) -> int:
        """Index of a lattice time; off-lattice times are refused."""
        k = int(round((t - self.t0) / self.dt))
        if k < 0 or k > self.steps or abs(self.times[min(max(k, 0), self.steps)] - t) > 1e-9 * max(abs(self.dt), 1.0):
            raise EvolutionError(f"time {t} is not on the evolution lattice")
        return k

    def _step(self, k: int) -> np.ndarray:
        key = k if self.factory.time_dependent else 0
        if key not in self._step_cache:
            self._step_cache[key] = step_matrix(
                self.factory, self.grid, self.times[key], self.dt, self.method
            )
        return self._step_cache[key]

    def matrix(self, t_from: float, t_to: float) -> np.ndarray:
        """Dense U(t_to <- t_from) between two lattice times."""
        i, j = self.time_index(t_from), self.time_index(t_to)
        size = self.factory.dimension * self.grid.npoints
        out = np.eye(size, dtype=complex)
        if j >= i:
            for k in range(i, j):
                out = self._step(k) @ out
            return out
        for k in range(j, i):
            out = self._step(k) @ out
        return np.linalg.inv(out)

    def apply(self, state: GridFunction, t_from: float, t_to: float) -> GridFunction:
        flat = self.matrix(t_from, t_to) @ state.flatten()
        return GridFunction.from_flat(self.grid, flat, self.factory.dimension)


@dataclass
class Observable:
    """A named sesquilinear observable <psi, A psi> on stacked states."""

    label: str
    operator: MatrixOperator
    fibre_product: FibreProduct | None = None

    def value(self, state: GridFunction, t: float = 0.0) -> complex:
        return inner(state, self.operator.apply(state, t), self.fibre_product)


def expectation(
    operator: MatrixOperator,
    state: GridFunction,
    t: float = 0.0,
    fibre_product: FibreProduct | None = None,
) -> complex:
    """<psi, A psi> / <psi, psi>."""
    applied = operator.apply(state, t)
    return inner(state, applied, fibre_product) / inner(state, state, fibre_product)


def kg_charge(state: GridFunction) -> float:
    """Conserved charge i * integral(phi* dphi/dt - phi dphi/dt*) dx of the
    free scalar field, evaluated on a two-component canonical state."""
    if state.components != 2:
        raise EvolutionError("the scalar-field charge needs a canonical two-component state")
    phi, phidot = state.values[0], state.values[1]
    density = 1j * (np.conj(phi) * phidot - phi * np.conj(phidot))
    return float(np.real(state.grid.spacing * np.sum(density)))
