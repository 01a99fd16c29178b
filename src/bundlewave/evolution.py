"""Time stepping for first-order systems i*hbar dpsi/dt = H(t) psi.

Two interchangeable one-step schemes, with H_mid evaluated at the interval
midpoint and K = i dt H_mid / 2 hbar:

* Crank-Nicolson: (I + K) psi' = (I - K) psi.  Unconditionally stable,
  second order, exactly norm-conserving for Hermitian H and exactly
  form-conserving for pseudo-Hermitian H.
* Midpoint exponential: psi' = expm(-i dt H_mid / hbar) psi, exact for
  time-independent H; useful as an independent route when cross-checking.

H never couples two components that lie in different *component groups*,
the connected sets of the graph "H couples component i with component j"
(Dirac and Maxwell have two groups, {0, 3} and {1, 2}; the five-component
scalar form has three).  The stepper reads the graph from the structural
zeros of the operator matrix.  Realized arrays carry it as their nonzero
N x N component blocks, which `_coupling` reads: `green` takes the groups
of a dense H, and of the eigenbasis it yields, that way.  H, I + K and every
step are therefore block-diagonal over the groups, and each group S is
realized, factored and applied on its own: the full (mN)^2 H is never
built.  So is every transport frame, which starts at the identity, and
the transport holds one frame per group.  Per step the LU work is
sum |S|^3 N^3 instead of (mN)^3, and a static step matrix, or a transport
frame, holds sum |S|^2 N^2 entries instead of (mN)^2.  A fully
coupled H is the one-group case, addressed by a slice, with the arithmetic
of a single dense step.  In `green` the eigenbasis is one `eigh` per group,
and the Born iteration runs on each union of groups that the perturbation
couples.

One stepper, `_StepFactors`, serves `march` (and so `evolve`), `step_matrix`,
`bundle.evolution_transport` (one per march) and `EvolutionOperator` (one
per operator).  It refuses an unknown method when it is built and hands
each group's step over as one apply, x U_S or U_S x, U_S for x = None.
Crank-Nicolson is used in Cayley form, U_S = 2 (I + K_S)^-1 - I, from one
in-place LU of I + K_S per group and step, applied by `_cayley` with one
solve: against the identity for a step matrix, against the group's part
psi_S of a driven state, and against the group's transport frame with
|S| N right-hand sides, so no step matrix is formed there.

Every route names a step by its start time t and size dt; the stepper
alone evaluates H at the midpoint t + dt / 2.  Time enters only through
callable scale factors, so `MatrixOperator.split` writes H(t) as S + D(t),
S holding the terms that do not vary, such as the derivatives.  `march` and
`bundle.evolution_transport` split the factory's operator once per march
and realize S once, keeping each group's block; a step realizes D(t), adds
the S block, then takes one LU of I + K_S and one solve per group (for the
exponential, one expm and one product).

A static H makes the propagator over B steps U_S^B from every lattice time,
so `march` advances it in blocks of B steps, the dense form of a
matrix-powers kernel.  After a first block of matvecs, a group with at
least log2 B |S| N steps left has U_S replaced by U_S^B, at the cost of
log2 B squarings of O((|S| N)^3), and each later block costs one product of
U_S^B, applied from the left, with the (|S| N x B) window of the previous
block's states, which reads U_S^B once for B states instead of U_S once
per state.

`march` hands the states over a block at a time, (rows, m, N) per block,
so a caller can measure a whole block with one stacked reduction, as
`bundlewave run` does with `grid.stacked_inner` and `kg_charges`.  `evolve`
consumes `march` and hands each state to a per-step callback.

`EvolutionOperator` materialises the propagator between lattice times as a
dense matrix so that composition, inversion, and derivative probes can be
taken literally; it refuses off-lattice times and oversized systems.
"""

from __future__ import annotations

import numbers
from functools import partial

import numpy as np
import scipy.linalg

from .grid import FibreProduct, GridFunction, SpatialGrid1D, inner
from .algebra import MatrixOperator
from .reduction import HamiltonianFactory

DENSE_STATE_LIMIT = 1024
STEP_STATE_LIMIT = 4096
METHODS = ("crank-nicolson", "midpoint-exponential")
# A static march goes in blocks of B = 2^_SQUARINGS steps.  B = 16 timed
# level with B = 8, but its rule would need 2064 steps at |S| N = 512.
_SQUARINGS = 3
_BLOCK = 2**_SQUARINGS


class EvolutionError(RuntimeError):
    """Unstable, oversized, or ill-posed evolution request."""


def hamiltonian_dense(factory: HamiltonianFactory, grid: SpatialGrid1D, t: float = 0.0) -> np.ndarray:
    """Dense (m N, m N) matrix of the Hamiltonian at time t."""
    return factory.at().dense(grid, t)


def _check_step(dt: float) -> None:
    """Refuse a step dt that is zero or not finite."""
    if not (np.isfinite(dt) and dt != 0):
        raise EvolutionError(f"need a finite nonzero time step dt, got {dt}")


def _cayley_lu(h_mid: np.ndarray, coeff: complex):
    """LU of (I + coeff H)^T, factored in place in H_mid's C-ordered storage."""
    h_mid *= coeff
    h_mid[np.diag_indices_from(h_mid)] += 1.0
    if not np.all(np.isfinite(h_mid)):
        raise EvolutionError("the Crank-Nicolson matrix left the finite range; reduce the time step")
    return scipy.linalg.lu_factor(h_mid.T, overwrite_a=True, check_finite=False)


def _cayley(lu, x: np.ndarray | None = None, right: bool = True) -> np.ndarray:
    """x U if `right`, else U x, for the Crank-Nicolson step
    U = 2 (I + K)^-1 - I, given the LU of (I + K)^T.

    x (I + K)^-1 is the transpose of a solve of (I + K)^T against x^T, and
    (I + K)^-1 x a transposed solve against x, so either product takes one
    solve with as many right-hand sides as x has rows or columns.  `x` is
    left untouched; None stands for the identity, whose product is U itself
    and whose right-hand side the solve may overwrite.
    """
    if x is None:
        rhs = np.eye(lu[0].shape[0], dtype=complex, order="F")
    else:
        rhs = x.T if right else x
    out = scipy.linalg.lu_solve(
        lu, rhs, trans=0 if right else 1, overwrite_b=x is None, check_finite=False
    )
    if right:
        # The transpose of the F-ordered solution is C-ordered.
        out = out.T
    out *= 2.0
    if x is None:
        out[np.diag_indices_from(out)] -= 1.0
    else:
        out -= x
    return out


def _product(unit: np.ndarray, x: np.ndarray | None = None, right: bool = True) -> np.ndarray:
    """x U if `right`, else U x, for a step matrix U; U itself for x = None."""
    return unit if x is None else (x @ unit if right else unit @ x)


def _connected_sets(pattern: np.ndarray) -> list[list[int]]:
    """Connected sets of the graph with an edge i - j wherever the (m, m)
    boolean coupling pattern is true at (i, j) or (j, i).

    Each set is sorted, and the sets are ordered by their first member.
    """
    linked = np.asarray(pattern, dtype=bool)
    linked = linked | linked.T
    groups: list[list[int]] = []
    seen: set[int] = set()
    for start in range(linked.shape[0]):
        if start in seen:
            continue
        group, frontier = {start}, [start]
        while frontier:
            for j in np.flatnonzero(linked[frontier.pop()]).tolist():
                if j not in group:
                    group.add(j)
                    frontier.append(j)
        seen |= group
        groups.append(sorted(group))
    return groups


def _coupling(matrix: np.ndarray, dimension: int, npoints: int) -> np.ndarray:
    """(m, m) pattern of the N x N component blocks of a flat (mN, mN)
    matrix that hold a nonzero entry."""
    return np.any(matrix.reshape(dimension, npoints, dimension, npoints) != 0, axis=(1, 3))


def _component_groups(op: MatrixOperator) -> list[list[int]]:
    """Component groups of H: the connected sets of the graph "H couples
    component i with component j".

    The graph is read from the structural zeros of the operator matrix.  A
    zero entry realizes to an exactly zero block, so H, I + K and every step
    are block-diagonal over the groups.
    """
    dim = op.shape[0]
    return _connected_sets([[not op.entry(i, j).is_zero() for j in range(dim)] for i in range(dim)])


def _positions(components: list[int], npoints: int):
    """Flat state positions of a component set; a slice when it is contiguous."""
    first, last = components[0], components[-1]
    if last - first + 1 == len(components):
        return slice(first * npoints, (last + 1) * npoints)
    return np.concatenate([np.arange(c * npoints, (c + 1) * npoints) for c in components])


def _block(rows, cols):
    """Index of the (rows, cols) block of a flat matrix."""
    if isinstance(rows, slice) or isinstance(cols, slice):
        return rows, cols
    return np.ix_(rows, cols)


def _block_diagonal(size: int, blocks: list) -> np.ndarray:
    """The (..., size, size) matrices with each (..., n, n) block of
    `blocks` on the diagonal at its positions and exact zeros elsewhere.  A
    single block spans the whole state and is returned as it is."""
    if len(blocks) == 1:
        return blocks[0][1]
    out = np.zeros(blocks[0][1].shape[:-2] + (size, size), dtype=complex)
    for positions, block in blocks:
        out[(Ellipsis,) + _block(positions, positions)] = block
    return out


class _StepFactors:
    """The stepper of one march, or one `EvolutionOperator`, of `factory`
    on `grid` with `method`.

    A step is named by its start t and size dt; only here is H taken at the
    midpoint t + dt / 2.  The factory's operator is split into S + D(t) per
    component group once, when the stepper is made.  If D is not zero, S is
    realized whole then and each group keeps its block; a static operator
    keeps nothing.
    """

    def __init__(self, factory: HamiltonianFactory, grid: SpatialGrid1D, method: str):
        if method not in METHODS:
            raise EvolutionError(f"unknown evolution method {method!r}, expected one of {METHODS}")
        self.factory, self.grid, self.method = factory, grid, method
        op = factory.op
        static, driven = op.split()
        varies = not driven.is_zero()
        whole = static.dense(grid) if varies else None
        stepped = driven if varies else op
        self.parts = []
        for group in _component_groups(op):
            positions = _positions(group, grid.npoints)
            part = MatrixOperator([[stepped.entry(i, j) for j in group] for i in group])
            s_block = np.ascontiguousarray(whole[_block(positions, positions)]) if varies else None
            self.parts.append((group, positions, part, s_block))

    def __call__(self, t: float, dt: float):
        """Yield (components, positions, step) per component group of
        H(t + dt / 2) for the step of size dt from t, one group at a time.

        step(x=None, right=True) is x U_S if `right`, else U_S x, and U_S
        for x = None: a Cayley solve for Crank-Nicolson, a product with
        expm(-i dt H_S / hbar) for the exponential.  Only each group's block
        H_S is realized, and only after the caller has taken the previous
        group's step: a caller that lets go of each step holds one at a time.
        """
        mid = t + dt / 2.0
        grid = self.grid
        for group, positions, part, static in self.parts:
            h_s = part.dense(grid, mid)
            if static is not None:
                h_s += static
            if self.method == "midpoint-exponential":
                h_s *= -1j * dt / self.factory.hbar
                step = partial(_product, scipy.linalg.expm(h_s))
            else:
                step = partial(_cayley, _cayley_lu(h_s, 1j * dt / (2.0 * self.factory.hbar)))
            del h_s
            yield group, positions, step
            del step

    def matrix(self, t: float, dt: float) -> np.ndarray:
        """Dense step over [t, t + dt]; entries between different component
        groups are exactly zero."""
        size = self.factory.dimension * self.grid.npoints
        return _block_diagonal(size, [(at, unit) for _, at, unit in _group_steps(self, t, dt)])


def _group_steps(factors: _StepFactors, t: float, dt: float) -> list:
    """(components, positions, U_S) per component group: the step over
    [t, t + dt] restricted to the group.

    Each group's LU is solved into its step and let go before the next
    group is factored."""
    steps = []
    # Overflow surfaces as non-finite entries, refused below.
    with np.errstate(over="ignore", invalid="ignore"):
        for group, positions, step in factors(t, dt):
            steps.append((group, positions, step()))
            del step
    for _, _, unit in steps:
        if not np.all(np.isfinite(unit)):
            raise EvolutionError("the step matrix left the finite range; reduce the time step")
    return steps


def step_matrix(
    factory: HamiltonianFactory,
    grid: SpatialGrid1D,
    t: float,
    dt: float,
    method: str = "crank-nicolson",
) -> np.ndarray:
    """Dense one-step propagator over [t, t + dt] (dt may be negative).

    Entries between different component groups are exactly zero.  dt must
    be finite and nonzero.
    """
    _check_step(dt)
    return _StepFactors(factory, grid, method).matrix(t, dt)


def _power(unit: np.ndarray, spare: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(unit^B, the other buffer): log2 B squarings ping-ponged between the
    storage of `unit` and `spare`, so no third array is made."""
    # Overflow surfaces as non-finite entries, refused below.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_SQUARINGS):
            np.matmul(unit, unit, out=spare)
            unit, spare = spare, unit
    if not np.all(np.isfinite(unit)):
        raise EvolutionError("the step matrix left the finite range; reduce the time step")
    return unit, spare


def _static_blocks(psi: np.ndarray, units: list, steps: int, npoints: int):
    """Yield the states after steps 1..steps of a static H from psi, B at a
    time, as the rows of fresh arrays.

    Block m holds steps mB + 1 .. (m + 1) B.  Block 0 is marched by one
    matvec per group and step.  A group takes the power route when the
    matvecs of the later blocks cost at least as many multiply-adds as the
    squarings, (steps - B) (|S| N)^2 >= log2 B (|S| N)^3: U_S becomes U_S^B,
    and each later block is one product of it with the previous block's
    window, applied from the left, (U_S^B @ window[:, S].T).T, which timed
    faster than the right-hand window[:, S] @ (U_S^B).T.  Below that, the
    group keeps marching by matvec.
    """
    powered = [steps - _BLOCK >= _SQUARINGS * len(group) * npoints for group, _, _ in units]
    window, done = psi[np.newaxis], 0
    while done < steps:
        if done == _BLOCK:
            # Each U_S is overwritten by its power, and the buffer left over
            # serves the next group of the same size.
            spare = None
            for i, ((group, positions, unit), power) in enumerate(zip(units, powered)):
                if power:
                    if spare is None or spare.shape != unit.shape:
                        spare = np.empty_like(unit)
                    unit, spare = _power(unit, spare)
                    units[i] = (group, positions, unit)
            del spare
        rows = min(_BLOCK, steps - done)
        block = np.empty((rows, psi.size), dtype=complex)
        # Overflow surfaces as non-finite states, checked by the caller.
        with np.errstate(over="ignore", invalid="ignore"):
            for (_, positions, unit), power in zip(units, powered):
                if power and done:
                    block[:, positions] = (unit @ window[:rows, positions].T).T
                    continue
                part = window[-1, positions]
                for j in range(rows):
                    block[j, positions] = part = unit @ part
        yield block
        window, done = block, done + rows


def _driven_blocks(psi: np.ndarray, factors: _StepFactors, t0: float, dt: float, steps: int):
    """Yield the states after steps 1..steps of a time-dependent H from psi,
    one per step, as the single row of a fresh array.

    Each group block of the step from t0 + k dt is realized and factored
    at its midpoint and applied with one single-RHS solve (Cayley form) or one matvec.  The
    static part S is realized once, when the stepper is made.
    """
    for k in range(steps):
        block = np.empty((1, psi.size), dtype=complex)
        # Overflow surfaces as a non-finite state, checked by the caller.
        with np.errstate(over="ignore", invalid="ignore"):
            for _, positions, step in factors(t0 + k * dt, dt):
                block[0, positions] = step(psi[positions], right=False)
        yield block
        psi = block[0]


def march(
    initial: GridFunction,
    factory: HamiltonianFactory,
    dt: float,
    steps: int,
    t0: float = 0.0,
    method: str = "crank-nicolson",
):
    """March `steps` steps of size dt from t0, and yield (times, states)
    once per block of steps.

    `times` holds t0 + k dt for the block's steps k, in order, and `states`
    the states after them, shape (rows, m, N): a fresh array that later
    blocks never overwrite.  The blocks cover steps 1..steps.  Each
    component group S of H is stepped on its own entries of the state.  A
    static H gets one propagator U_S per group and is marched in blocks of
    B steps, by matvecs or by U_S^B as the module docstring describes.  A
    time-dependent H is factored at every step midpoint and applied with
    one single-RHS solve per group, one step per block.

    The arguments are checked when `march` is called.  States are checked
    for finiteness once per block: a block that holds a non-finite state
    first yields the states before it, then raises `EvolutionError`.  dt
    must be finite and nonzero; a negative dt marches backward.
    """
    _check_step(dt)
    grid = initial.grid
    if not isinstance(steps, numbers.Integral):
        raise EvolutionError(f"steps must be an integer, got {steps!r}")
    if steps < 0:
        raise EvolutionError(f"need a nonnegative number of steps, got {steps}")
    if initial.components != factory.dimension:
        raise EvolutionError(
            f"state has {initial.components} components, factory wants {factory.dimension}"
        )
    size = factory.dimension * grid.npoints
    if size > STEP_STATE_LIMIT:
        raise EvolutionError(f"stacked state size {size} exceeds limit {STEP_STATE_LIMIT}")
    psi = initial.flatten()
    if not np.all(np.isfinite(psi)):
        raise EvolutionError("initial state is outside the finite range")
    factors = _StepFactors(factory, grid, method)
    if steps == 0:
        return iter(())
    if factory.time_dependent:
        blocks = _driven_blocks(psi, factors, t0, dt, steps)
    else:
        blocks = _static_blocks(psi, _group_steps(factors, t0, dt), steps, grid.npoints)
    return _checked_blocks(blocks, t0, dt, initial.values.shape)


def _checked_blocks(blocks, t0: float, dt: float, shape: tuple):
    """(times, states) per block of flat states, states reshaped to (rows,)
    + shape; stops at the first non-finite state with `EvolutionError`,
    after yielding the finite ones before it."""
    done = 0
    for block in blocks:
        rows = block.shape[0]
        times = t0 + np.arange(done + 1, done + rows + 1) * dt
        states = block.reshape((rows,) + shape)
        finite = np.all(np.isfinite(block), axis=1)
        if not finite.all():
            bad = int(np.argmin(finite))
            if bad:
                yield times[:bad], states[:bad]
            raise EvolutionError(f"state left the finite range at step {done + bad + 1}")
        yield times, states
        done += rows


def evolve(
    initial: GridFunction,
    factory: HamiltonianFactory,
    dt: float,
    steps: int,
    t0: float = 0.0,
    method: str = "crank-nicolson",
    callback=None,
) -> GridFunction:
    """March `steps` steps of size dt from t0 by `march`; returns the final
    state.

    `callback(t, state)`, if given, is invoked for every step, in order,
    with a state that later steps never overwrite.
    """
    final = initial.values
    for times, states in march(initial, factory, dt, steps, t0, method):
        if callback is not None:
            for t, values in zip(times.tolist(), states):
                callback(t, GridFunction(initial.grid, values))
        final = states[-1]
    return GridFunction(initial.grid, final)


class EvolutionOperator:
    """Dense propagators between the times t0 + k dt, k = 0..steps, all
    taken from one stepper, so a driven H realizes its S once.

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
        _check_step(dt)
        size = factory.dimension * grid.npoints
        if size > DENSE_STATE_LIMIT:
            raise EvolutionError(
                f"dense evolution operator of size {size} exceeds limit {DENSE_STATE_LIMIT}"
            )
        if not isinstance(steps, numbers.Integral):
            raise EvolutionError(f"steps must be an integer, got {steps!r}")
        if steps < 1:
            raise EvolutionError(f"need at least one step, got {steps}")
        self._factors = _StepFactors(factory, grid, method)
        self.factory = factory
        self.grid = grid
        self.dt = float(dt)
        self.steps = int(steps)
        self.t0 = float(t0)
        self.method = method
        self.times = self.t0 + self.dt * np.arange(self.steps + 1)
        self._step_cache: dict[int, np.ndarray] = {}

    def time_index(self, t: float) -> int:
        """Index of a lattice time; off-lattice and non-finite times are refused."""
        k = np.rint((t - self.t0) / self.dt)
        if not 0 <= k <= self.steps or abs(self.times[int(k)] - t) > 1e-9 * max(abs(self.dt), 1.0):
            raise EvolutionError(f"time {t} is not on the evolution lattice")
        return int(k)

    def _step(self, k: int) -> np.ndarray:
        key = k if self.factory.time_dependent else 0
        if key not in self._step_cache:
            self._step_cache[key] = self._factors.matrix(self.times[key], self.dt)
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
    return float(kg_charges(state.grid, state.values))


def kg_charges(grid: SpatialGrid1D, values: np.ndarray) -> np.ndarray:
    """`kg_charge` of each canonical state stacked in `values`, shape
    (..., 2, N); an array of shape (...)."""
    if values.shape[-2] != 2:
        raise EvolutionError("the scalar-field charge needs a canonical two-component state")
    phi, phidot = values[..., 0, :], values[..., 1, :]
    density = 1j * (np.conj(phi) * phidot - phi * np.conj(phidot))
    return np.real(grid.spacing * np.sum(density, axis=-1))
