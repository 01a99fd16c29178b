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
of a dense H and of a Born perturbation that way.  H, I + K and every
step are therefore block-diagonal over the groups, and each group S is
realized, factored and applied on its own: the full (mN)^2 H is never
built.  So is every transport frame, which starts at the identity, and
the transport holds one frame per group.  Groups whose realized blocks
hold the same bits, *twins* such as Dirac's two, share one factorization,
step and transport frame: per step the LU work is sum |S|^3 N^3 over the
distinct group blocks instead of (mN)^3, and a static step matrix, or a
transport frame, holds at most sum |S|^2 N^2 entries instead of (mN)^2.
A fully coupled H is the one-group case, addressed by a slice, with the
arithmetic of a single dense step.  In `green` the eigenbasis is one
`eigh` per distinct group block, and the Born iteration runs once per
distinct union of groups that the perturbation couples.

One stepper, `_StepFactors`, serves `march` (and so `evolve`), `step_matrix`,
`bundle.evolution_transport` (one per march) and `EvolutionOperator` (one
per operator).  It refuses an unknown method when it is built and hands
each group's step over either as one apply, x U_S or U_S x, or as the
step matrix U_S itself.  Crank-Nicolson is used in Cayley form,
U_S = 2 (I + K_S)^-1 - I.  A step matrix, the one `step_matrix`,
`EvolutionOperator` and a static march hold, comes from `numpy.linalg.inv`
of (I + K_S)^T per distinct group block, which factors the same F-ordered
matrix as an LU would and solves it against the identity.  A transport,
and a driven march off the spectral route below, apply the step without
forming it: one in-place LAPACK `getrf` of (I + K_S)^T per distinct group
block and step.  A march solves against psi_S (`_cayley`).  A transport
substitutes over 64-column blocks of its frame by BLAS products with the
LU's blocks, its diagonal ones inverted (`blocked`), and calls no
`getrs`: two threads in scipy's `zgetrs` on one LU corrupted the heap.
Applies run one step ahead: step k + 1 is formed on the caller's thread
and factored on the worker thread of the march's or transport's own
`_StepFactors.ahead`, which then takes a sixth of a frame's rows of step k.

Overflow while a step is formed is ignored in `_StepFactors.__call__`
alone; the non-finite entries it leaves are refused before a Crank-Nicolson
matrix is factored, and in every step matrix.  Applies and powers ignore
overflow where they run; the states, frames and powers are checked.

Every route names a step by its start time t and size dt, and takes H at
the midpoint t + dt / 2 through `_midpoint` alone.  Time enters only
through callable scale factors, so `MatrixOperator.split` writes H(t) as
S + D(t), S holding the terms that do not vary, such as the derivatives,
realized once per stepper.  Each group keeps its S block and a *base*,
coeff S_S + shift I, formed again only when dt changes; a step copies it
once per distinct group and writes only the entries that D(t) reaches:
the N values of a pointwise entry on the diagonal of its block
(`LinearGridOperator.diagonal`), or the whole block of any other.  Only
those entries are checked finite, and two groups of a driven H are twins
when they hold one base object, write the same blocks, and those blocks
hold the same bits.

On a periodic grid a driven Crank-Nicolson march needs no LU when
`MatrixOperator.symbol` splits H(t) as C + P(t), C translation invariant
with an m x m symbol per wavenumber and P pointwise (`_spectral_blocks`).
Each step solves the same (I + K) psi' = (I - K) psi by sweeps
psi' <- F^-1 (I + K^_C)^-1 F [(I - K) psi - K_P psi'] of two FFTs each,
while their contraction bound rho stays at most 1/2; from the first step
past it the march goes on by LU.  No worker is started and no scipy is
loaded.  An x-dependent or driven factor around a derivative, as in a
field frame or (p - qA)^2, and a reflecting grid take the LU route.

numpy and scipy each bring their own OpenBLAS with its own thread pool,
and a pool's workers keep spinning for a while after a threaded call.  So
a Crank-Nicolson step matrix runs in numpy's pool alone, and an LU
apply in scipy's, which is loaded only where a route calls it: `expm`
and LU applies bind it once on the caller's thread (`algebra._bind_scipy`),
with an idle spin of 2^SCIPY_SPIN_EXPONENT cycles instead of 2^28: after
an `expm` its worker sleeps within about 17 ms, yet stays awake between
the steps of a driven transport.  numpy's pool keeps its default spin.

A static H makes the propagator over B steps U_S^B from every lattice time,
so `march` advances it in blocks of B steps, the dense form of a
matrix-powers kernel.  After a first block of matvecs, a group with at
least log2 B |S| N steps left has U_S replaced by U_S^B, at the cost of
log2 B squarings of O((|S| N)^3), and each later block costs one product of
U_S^B, applied from the left, with the (|S| N x B) window of the previous
block's states, which reads U_S^B once for B states instead of U_S once
per state.  Twin groups share U_S^B and stack their windows of a full
block into that one product.

`march` hands the states over a block at a time, (rows, m, N) per block,
so a caller can measure a whole block with one stacked reduction, as
`bundlewave run` does with `grid.stacked_inner` and `kg_charges`.

`EvolutionOperator` materialises the propagator between lattice times as a
dense matrix so that composition, inversion, and derivative probes can be
taken literally; it refuses off-lattice times and oversized systems.
"""

from __future__ import annotations

import numbers
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import closing
from functools import partial
from operator import is_

import numpy as np

from .grid import GridFunction, SpatialGrid1D, inner
from .algebra import MatrixOperator, _bind_scipy
from .reduction import HamiltonianFactory

DENSE_STATE_LIMIT = 1024
STEP_STATE_LIMIT = 4096
METHODS = ("crank-nicolson", "midpoint-exponential")
# A static march goes in blocks of B = 2^_SQUARINGS steps.  B = 16 timed
# level with B = 8, but its rule would need 2064 steps at |S| N = 512.
_SQUARINGS = 3
_BLOCK = 2**_SQUARINGS
_EPS = np.finfo(float).eps


class EvolutionError(RuntimeError):
    """Unstable, oversized, or ill-posed evolution request."""


def _check_step(dt: float) -> None:
    """Refuse a step dt that is zero or not finite."""
    if not (np.isfinite(dt) and dt != 0):
        raise EvolutionError(f"need a finite nonzero time step dt, got {dt}")


def _check_dense(factory: HamiltonianFactory, grid: SpatialGrid1D, what: str) -> None:
    """Refuse a dense (m N)^2 `what` with m N above `DENSE_STATE_LIMIT`."""
    size = factory.dimension * grid.npoints
    if size > DENSE_STATE_LIMIT:
        raise EvolutionError(f"{what} of size {size} exceeds limit {DENSE_STATE_LIMIT}")


def _midpoint(t: float, dt: float) -> float:
    """The time at which the step of size dt from t takes H, on every route."""
    return t + dt / 2.0


def _formed(h: np.ndarray, coeff: complex, shift: float) -> np.ndarray:
    """coeff H + shift I, formed in place in H's storage; a 1-D H holds
    the diagonal of a block."""
    h *= coeff
    if shift:
        h[np.diag_indices_from(h) if h.ndim == 2 else ...] += shift
    return h


_SINGULAR = "the Crank-Nicolson matrix is singular; change the time step"

def _check_cayley(written) -> None:
    """Refuse a Crank-Nicolson matrix with a non-finite entry among the
    arrays `written`, which hold its entries not yet checked."""
    if not all(np.all(np.isfinite(values)) for values in written):
        raise EvolutionError("the Crank-Nicolson matrix left the finite range; reduce the time step")


def _getrf(a: np.ndarray):
    """(lu, piv, info) of LAPACK's `getrf` of (I + K)^T, factored in place in
    the C-ordered storage of the formed I + K: all that a step worker runs,
    after `_bind_scipy`."""
    return _bind_scipy().lapack.zgetrf(a.T, overwrite_a=True)


def _cayley_unit(a: np.ndarray) -> np.ndarray:
    """The Crank-Nicolson step U = 2 (I + K)^-1 - I, formed in the
    C-ordered storage of the formed I + K.

    `numpy.linalg.inv` of the F-ordered (I + K)^T factors the matrix that
    `_getrf` factors and solves it against the identity, in numpy's BLAS
    pool.  Its C-ordered result is the transpose of (I + K)^-1, so U is
    written back transposed, in C order: the order picks the BLAS variant
    of every later product with U, and so its bits.
    """
    inverse = np.linalg.inv(a.T)
    a[...] = inverse.T
    a *= 2.0
    a[np.diag_indices_from(a)] -= 1.0
    return a


def _cayley(lu: Future, x: np.ndarray) -> np.ndarray:
    """U x for a march's state x and the Crank-Nicolson step
    U = 2 (I + K)^-1 - I, given the future of `_getrf` of (I + K)^T, in a
    fresh array.

    The call waits for the LU; a singular I + K, which `getrf` reports in
    its `info`, is refused then.  (I + K)^-1 x is one transposed solve
    against x, on the caller's thread; `x` is left untouched.
    """
    lu, piv, info = lu.result()
    if info > 0:
        raise EvolutionError(_SINGULAR)
    out = x.copy()
    _bind_scipy().lu_solve((lu, piv), out, trans=1, overwrite_b=True, check_finite=False)
    out *= 2.0
    out -= x
    return out


def _blocked_lu(a: np.ndarray) -> tuple:
    """(info, factors): `_getrf` of (I + K)^T, in the storage of the formed
    I + K, made ready by `blocked.prepare`, or None for a singular I + K.
    All that a transport's step worker runs besides its slabs."""
    from . import blocked

    lu, piv, info = _getrf(a)
    return info, None if info > 0 else blocked.prepare(lu, piv)


def _split_cayley(worker: ThreadPoolExecutor, factored: Future, x: np.ndarray,
                  out: np.ndarray) -> np.ndarray:
    """x U into `out`, C-ordered and apart from x, for a transport frame x
    and the Crank-Nicolson step U = 2 (I + K)^-1 - I, given the future of
    `_blocked_lu` of (I + K)^T.

    The call waits for the factors; a singular I + K is refused then.  The
    first `blocked.worker_rows` rows go to the worker, queued behind the LU
    of the next step, while the caller applies the rest, so each row holds
    the bits of one `blocked.apply_rows` over the whole frame.  The call
    returns once both slabs are written.
    """
    from . import blocked

    info, factors = factored.result()
    if info > 0:
        raise EvolutionError(_SINGULAR)
    rows = blocked.worker_rows(x.shape[0])
    slab = worker.submit(blocked.apply_rows, factors, x[:rows], out[:rows]) if rows else None
    try:
        blocked.apply_rows(factors, x[rows:], out[rows:])
    finally:
        if slab is not None:
            slab.result()
    return out


def _product(unit: np.ndarray, x: np.ndarray, right: bool = True,
             out: np.ndarray | None = None) -> np.ndarray:
    """x U if `right`, else U x, for a step matrix U, written into `out`
    if given."""
    return np.matmul(x, unit, out=out) if right else np.matmul(unit, x, out=out)


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


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two arrays hold the same bits (-0.0 is not 0.0, a NaN is
    itself), compared as unsigned integers of at most 8 bytes: in place
    where the last axis is contiguous, else as C-ordered copies."""
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    a, b = (x if x.ndim and x.strides[-1] == x.itemsize else np.ascontiguousarray(x)
            for x in (a, b))
    bits = f"u{min(a.itemsize, 8)}"
    return np.array_equal(a.view(bits), b.view(bits))


def _map_distinct(function, items, same=_same_bits) -> list:
    """[function(item) for item in items], calling `function` once per
    distinct item: an item `same` as an earlier one gets its result object.
    All items are compared first, and only the first of equal ones held."""
    distinct, index = [], []
    for item in items:
        k = next((k for k, first in enumerate(distinct) if same(first, item)), len(distinct))
        if k == len(distinct):
            distinct.append(item)
        index.append(k)
    for k, item in enumerate(distinct):
        distinct[k] = function(item)
    return [distinct[k] for k in index]


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


def _driven_entries(part: MatrixOperator, static: np.ndarray, npoints: int) -> list:
    """(block, index, entry, S values) per nonzero entry of a group's driven
    part, block (a, b) in the group's component order.

    A pointwise entry writes the diagonal of its N x N block, and any other
    entry the whole block; `index` addresses those entries of the group's
    matrix, and the S values are the group's S block `static` there."""
    entries = []
    size = part.shape[0]
    for a in range(size):
        for b in range(size):
            entry = part.entry(a, b)
            if entry.is_zero():
                continue
            rows, cols = (slice(k * npoints, (k + 1) * npoints) for k in (a, b))
            if entry.pointwise():
                rows, cols = (np.arange(k.start, k.stop) for k in (rows, cols))
            entries.append(((a, b), (rows, cols), entry, static[rows, cols]))
    return entries


class _StepFactors:
    """The stepper of one march, or one `EvolutionOperator`, of `factory`
    on `grid` with `method`.

    A step is named by its start t and size dt; only here is H taken at the
    midpoint t + dt / 2.  Each step forms per component group the matrix
    coeff H_S + shift I that it factors: I + K_S for Crank-Nicolson, and
    the exponential's argument -i dt H_S / hbar.  A static operator keeps
    nothing and realizes each group's block at every step.  A driven one is
    split into S + D(t) once, when the stepper is made: S is realized whole
    then, and each group keeps its S block and the *base* coeff S_S +
    shift I, formed again only when dt changes.  Groups whose S blocks hold
    the same bits share one S block and one base object; they are twins at
    a step when they also write the same blocks with the same bits.

    Besides the base, the stepper keeps nothing between calls.  `__call__`
    is the one place that ignores overflow while a step is formed, and
    `_unit` the one place that checks a step matrix finite.  Applies are
    taken one step ahead through `ahead`, which owns its worker thread.
    scipy is bound once, on the caller's thread: when the stepper is made
    for the exponential, and when `ahead` starts.
    """

    def __init__(self, factory: HamiltonianFactory, grid: SpatialGrid1D, method: str):
        if method not in METHODS:
            raise EvolutionError(f"unknown evolution method {method!r}, expected one of {METHODS}")
        self.factory, self.grid, self.method = factory, grid, method
        op = factory.op
        static, driven = op.split()
        self.driven = not driven.is_zero()
        stepped = driven if self.driven else op
        self.parts = []
        for group in _component_groups(op):
            part = MatrixOperator([[stepped.entry(i, j) for j in group] for i in group])
            self.parts.append((group, _positions(group, grid.npoints), part))
        if self.driven:
            whole = static.dense(grid)
            self._static = _map_distinct(np.ascontiguousarray,
                                         [whole[_block(at, at)] for _, at, _ in self.parts])
            self._entries = [_driven_entries(part, block, grid.npoints)
                             for (_, _, part), block in zip(self.parts, self._static)]
            self._dt = self._bases = None
        if method == "midpoint-exponential":
            _bind_scipy()

    def __call__(self, t: float, dt: float, finish=None) -> list:
        """(components, positions, step) per component group of
        H(t + dt / 2) for the step of size dt from t.

        Each distinct formed matrix a goes to finish(a, written), whose
        result is the step; `written` holds the entries of a not yet checked
        finite.  The default, `_unit`, returns the finite step matrix U_S;
        `ahead` passes one that hands the LU to its own worker.  Every
        group's matrix is formed, or for a driven H its written entries
        computed, before any is finished.  Twins, groups whose matrices
        hold the same bits (`_driven_steps` for a driven H), share one step
        object, so each distinct matrix takes one LU, inverse or expm.
        Overflow is ignored here alone while the steps are formed and
        finished.
        """
        finish = finish or self._unit
        mid = _midpoint(t, dt)
        if self.method == "midpoint-exponential":
            coeff, shift = -1j * dt / self.factory.hbar, 0.0
        else:
            coeff, shift = 1j * dt / (2.0 * self.factory.hbar), 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            if self.driven:
                steps = self._driven_steps(mid, dt, coeff, shift, finish)
            else:
                # A generator, so that a twin's matrix is dropped once compared.
                steps = _map_distinct(lambda a: finish(a, [a]),
                                      (_formed(part.dense(self.grid, mid), coeff, shift)
                                       for _, _, part in self.parts))
        return [(group, at, step) for (group, at, _), step in zip(self.parts, steps)]

    def _unit(self, a: np.ndarray, written) -> np.ndarray:
        """The step matrix U_S from the formed matrix `a`, in a's storage,
        refused unless finite, or for Crank-Nicolson singular."""
        if self.method == "midpoint-exponential":
            unit = _bind_scipy().expm(a)
        else:
            _check_cayley(written)
            try:
                unit = _cayley_unit(a)
            except np.linalg.LinAlgError:
                raise EvolutionError(_SINGULAR) from None
        if not np.all(np.isfinite(unit)):
            raise EvolutionError("the step matrix left the finite range; reduce the time step")
        return unit

    def ahead(self, starts, right: bool):
        """Yield the steps of size dt from t for each (t, dt) of `starts`,
        one step ahead: each applies its U_S from the right, x U_S, to a
        transport's frames if `right`, else from the left, U_S x, to a
        march's state.

        The generator owns a worker thread, which it joins, after any work
        it runs, when it ends, fails or is closed.  The steps from the next
        start are formed, and their Crank-Nicolson LUs handed to the worker
        (`_getrf` for a march, `_blocked_lu` for a transport), before the
        current ones are yielded.  A right apply also hands the worker a
        slab of the frame's rows, queued behind the next LU
        (`_split_cayley`).  A refusal met while forming the next steps is
        raised when they are due, after the current ones; overflow in the
        applies is the caller's to handle.
        """
        # The LUs and solves of the applies; bound before the worker starts.
        _bind_scipy()
        with ThreadPoolExecutor(max_workers=1) as worker:
            def finish(a: np.ndarray, written):
                if self.method == "midpoint-exponential":
                    return partial(_product, _bind_scipy().expm(a), right=right)
                _check_cayley(written)
                if right:
                    return partial(_split_cayley, worker, worker.submit(_blocked_lu, a))
                return partial(_cayley, worker.submit(_getrf, a))

            pending = []
            for t, dt in starts:
                try:
                    following = self(t, dt, finish)
                except EvolutionError:
                    yield from pending
                    raise
                yield from pending
                pending = [following]
            yield from pending

    def _driven_steps(self, mid: float, dt: float, coeff: complex, shift: float, finish) -> list:
        """The step per group of a driven H: a copy of the group's base per
        distinct group, with the entries that D reaches written as
        (S + D(mid)) coeff, plus shift on the diagonal, then finished.  Only
        those entries are checked finite and compared: two groups are twins
        when they hold one base object, write the same blocks, and those
        blocks hold the same bits."""
        if dt != self._dt:
            def base(static):
                # + 0.0 stands for the exact zeros of D that a step adds to S.
                formed = _formed(static + 0.0, coeff, shift)
                if self.method == "crank-nicolson":
                    _check_cayley([formed])
                return formed

            # One base per held S block.
            self._bases = _map_distinct(base, self._static, is_)
            self._dt = dt
        realized = {}

        def written(entries):
            values = {}
            for (a, b), index, entry, static in entries:
                if id(entry) not in realized:
                    realized[id(entry)] = (entry.diagonal(self.grid, mid) if static.ndim == 1
                                           else entry.dense(self.grid, mid))
                summed = realized[id(entry)] + static
                values[a, b] = index, _formed(summed, coeff, shift if a == b else 0.0)
            return values

        writes = [written(entries) for entries in self._entries]

        def twins(g: int, h: int) -> bool:
            return (self._bases[g] is self._bases[h] and writes[g].keys() == writes[h].keys()
                    and all(_same_bits(writes[g][block][1], writes[h][block][1])
                            for block in writes[g]))

        def finished(g: int):
            a = self._bases[g].copy()
            for index, values in writes[g].values():
                a[index] = values
            return finish(a, [values for _, values in writes[g].values()])

        return _map_distinct(finished, range(len(self.parts)), twins)

    def matrix(self, t: float, dt: float) -> np.ndarray:
        """Dense step over [t, t + dt]; entries between different component
        groups are exactly zero."""
        size = self.factory.dimension * self.grid.npoints
        return _block_diagonal(size, [(at, unit) for _, at, unit in self(t, dt)])


def step_matrix(
    factory: HamiltonianFactory,
    grid: SpatialGrid1D,
    t: float,
    dt: float,
    method: str = "crank-nicolson",
) -> np.ndarray:
    """Dense one-step propagator over [t, t + dt] (dt may be negative).

    Entries between different component groups are exactly zero.  dt must
    be finite and nonzero, and m N at most `DENSE_STATE_LIMIT`.
    """
    _check_step(dt)
    _check_dense(factory, grid, "dense step matrix")
    return _StepFactors(factory, grid, method).matrix(t, dt)


def _power(unit: np.ndarray, spare: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(unit^B, the other buffer): log2 B squarings ping-ponged between the
    storage of `unit` and `spare`.  Overflow in the squarings is ignored,
    and a power that is not finite is an `EvolutionError`."""
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_SQUARINGS):
            np.matmul(unit, unit, out=spare)
            unit, spare = spare, unit
    if not np.all(np.isfinite(unit)):
        raise EvolutionError("the step matrix left the finite range; reduce the time step")
    return unit, spare


def _static_blocks(psi: np.ndarray, units: list, steps: int):
    """Yield the states after steps 1..steps of a static H from psi, B at a
    time, as the rows of fresh arrays.

    Block m holds steps mB + 1 .. (m + 1) B.  Block 0 is marched by one
    matvec per group and step.  A group takes the power route when the
    matvecs of the later blocks cost at least as many multiply-adds as the
    squarings, (steps - B) (|S| N)^2 >= log2 B (|S| N)^3: U_S becomes U_S^B,
    and each later block is one product of it with the previous block's
    window, applied from the left, (U_S^B @ window[:, S].T).T, which timed
    faster than the right-hand window[:, S] @ (U_S^B).T.  Below that, the
    group keeps marching by matvec.  Twin groups, which hold one U_S, share
    its power, and in a full block their windows are stacked as rows into
    one product.  That product holds the bits of the per-group products
    only where each group brings a multiple of four rows (OpenBLAS 0.3.31,
    1 and 2 threads), so a partial last block keeps one product per group.
    Each powered U_S is squared into a fresh partner buffer (`_power`).
    Overflow in the products is ignored; the caller checks the states.
    """
    # One (U_S, positions of the groups that hold it) per distinct U_S.
    shared = {}
    for _, at, unit in units:
        shared.setdefault(id(unit), (unit, []))[1].append(at)
    shared = list(shared.values())
    # Held by `shared` alone, so each U_S is freed once its power replaces it.
    del units
    powered = [steps - _BLOCK >= _SQUARINGS * unit.shape[0] for unit, _ in shared]
    window, done = psi[np.newaxis], 0
    while done < steps:
        if done == _BLOCK:
            for k, (unit, ats) in enumerate(shared):
                if powered[k]:
                    shared[k] = (_power(unit, np.empty_like(unit))[0], ats)
        rows = min(_BLOCK, steps - done)
        block = np.empty((rows, psi.size), dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            for (unit, ats), power in zip(shared, powered):
                if power and done:
                    for stacked in [ats] if rows == _BLOCK else [[at] for at in ats]:
                        out = unit @ np.concatenate([window[:rows, at] for at in stacked]).T
                        for g, at in enumerate(stacked):
                            block[:, at] = out[:, g * rows:(g + 1) * rows].T
                    continue
                for at in ats:
                    part = window[-1, at]
                    for j in range(rows):
                        block[j, at] = part = unit @ part
        yield block
        window, done = block, done + rows


def _driven_blocks(psi: np.ndarray, factors: _StepFactors, t0: float, dt: float, steps: int,
                   first: int = 0):
    """Yield the states after steps first + 1..steps of a time-dependent H
    from psi, the state after step `first`, one per step, as the single row
    of a fresh array.

    The step from t0 + k dt writes the entries that D reaches at its
    midpoint into a copy of each distinct group's base, factors it once,
    and applies each group with one single-RHS solve (Cayley form) or one
    matvec.  The steps come one step ahead (`_StepFactors.ahead`), so the
    LU of step k + 1 runs while step k is applied.  The static part S is
    realized once, when the stepper is made.
    """
    starts = ((t0 + k * dt, dt) for k in range(first, steps))
    with closing(factors.ahead(starts, right=False)) as ahead:
        for parts in ahead:
            block = np.empty((1, psi.size), dtype=complex)
            # Overflow surfaces as a non-finite state, checked by the caller.
            with np.errstate(over="ignore", invalid="ignore"):
                for _, positions, step in parts:
                    block[0, positions] = step(psi[positions])
            yield block
            psi = block[0]


# A spectral step runs while its sweeps contract by at most this factor; it
# then converges to rounding within _SWEEPS sweeps.
_CONTRACTION = 0.5
_SWEEPS = 60


def _at_points(matrices: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The (m, N) products of (m, m, N) matrices, one per point or
    wavenumber, with the (m, N) x."""
    return (matrices * x).sum(axis=1)


def _norm_bound(matrices: np.ndarray) -> np.ndarray:
    """An upper bound on the 2-norm of each of the (..., m, m) matrices that
    needs no LAPACK: min(|A|_F, sqrt(|A|_1 |A|_inf))."""
    size = np.abs(matrices)
    columns, rows = (np.max(size.sum(axis=axis), axis=-1) for axis in (-2, -1))
    return np.minimum(np.sqrt(np.sum(size**2, axis=(-2, -1))), np.sqrt(columns * rows))


def _sweeps(state: np.ndarray, cayley: np.ndarray, inverse: np.ndarray, kp: np.ndarray,
            rho: float) -> np.ndarray:
    """psi' of a spectral Crank-Nicolson step from the (m, N) `state`: the
    sweeps psi' <- F^-1 [M F psi - A F K_P (psi + psi')], with `cayley` M
    and `inverse` A per wavenumber and K_P = `kp` per point, each changing
    psi' by at most `rho` times the change before it."""
    # The part of each sweep that psi' does not enter.
    fixed = np.fft.ifft(_at_points(cayley, np.fft.fft(state))
                        - _at_points(inverse, np.fft.fft(_at_points(kp, state))))
    following, last = fixed, np.inf
    for _ in range(_SWEEPS):
        swept = fixed - np.fft.ifft(_at_points(inverse, np.fft.fft(_at_points(kp, following))))
        # The 2-norm of the change relative to max|psi'|, which neither
        # overflows nor underflows.
        change = (swept - following) / np.max(np.abs(swept))
        following = swept
        size = np.sqrt(np.vdot(change, change).real)
        if not (np.isfinite(size) and size < last and rho * size > 4 * _EPS):
            return following
        last = size
    raise EvolutionError(f"the spectral Crank-Nicolson sweeps did not converge in {_SWEEPS}; "
                         "reduce the time step")


def _spectral_blocks(psi: np.ndarray, symbol: np.ndarray, pointwise: MatrixOperator,
                     factory: HamiltonianFactory, grid: SpatialGrid1D, t0: float, dt: float,
                     steps: int):
    """Yield the states after steps 1..steps of a driven H = C + P(t) on a
    periodic grid by Crank-Nicolson, one per step, as the single row of a
    fresh array.

    C has the (N, m, m) `symbol` C^(k), and P is `pointwise`.  The step from
    t solves (I + K) psi' = (I - K) psi, K = i dt H(t + dt / 2) / 2 hbar, by
    sweeps psi' <- F^-1 A F [(I - K) psi - K_P psi'], A(k) = (I + K^_C(k))^-1
    (`_sweeps`): each takes two FFTs, a product per wavenumber and one per
    point.  A sweep changes psi' by at most
    rho = max_k |A(k)|_2 max_x |K_P(x)|_F times the change before it, in
    2-norm; rho takes `_norm_bound` of A(k), which is no smaller.  The
    sweeps stop when that bound is within 4 ulp of max|psi'|, or when the
    change stops falling.  From the first step with rho above
    _CONTRACTION, or not finite, the march goes on by `_driven_blocks` from
    that step's state.
    """
    m, n = factory.dimension, grid.npoints
    coeff = 1j * dt / (2.0 * factory.hbar)
    eye = np.eye(m)
    static, driven = pointwise.split()
    static_values = static.fields(grid)
    state = psi.reshape(m, n)
    # Overflow surfaces as a non-finite bound, or a non-finite state checked
    # by the caller.
    ignored = partial(np.errstate, over="ignore", invalid="ignore", divide="ignore")
    with ignored():
        try:
            inverse = np.linalg.inv(eye + coeff * symbol)
            bound = abs(coeff) * np.max(_norm_bound(inverse))
        except np.linalg.LinAlgError:
            bound = np.inf
        if np.isfinite(bound):
            # (m, m, N): the Cayley step of C alone, A(k) (I - K^_C(k)), and A.
            cayley, inverse = (np.ascontiguousarray(a.transpose(1, 2, 0))
                               for a in (inverse @ (eye - coeff * symbol), inverse))
    for k in range(steps):
        values = static_values + driven.fields(grid, _midpoint(t0 + k * dt, dt))
        with ignored():
            rho = bound * np.sqrt(np.max(np.sum(values.real**2 + values.imag**2, axis=(1, 2))))
            if rho <= _CONTRACTION:
                state = _sweeps(state, cayley, inverse, coeff * values.transpose(1, 2, 0), rho)
        if not rho <= _CONTRACTION:
            factors = _StepFactors(factory, grid, "crank-nicolson")
            yield from _driven_blocks(state.reshape(-1), factors, t0, dt, steps, k)
            return
        yield state.reshape(1, -1)


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
    time-dependent H comes one step per block: by Crank-Nicolson on a
    periodic grid, where H is C + P(t), by FFT sweeps; otherwise factored at
    every step midpoint, one step ahead on a worker thread, and applied
    with one single-RHS solve per group.

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
    # A driven Crank-Nicolson march on C + P(t) goes by the spectral route.
    split = (factory.op.symbol(grid) if factory.time_dependent and method == "crank-nicolson"
             else None)
    factors = None if split is not None else _StepFactors(factory, grid, method)
    if steps == 0:
        return iter(())
    if split is not None:
        blocks = _spectral_blocks(psi, *split, factory, grid, t0, dt, steps)
    elif factory.time_dependent:
        blocks = _driven_blocks(psi, factors, t0, dt, steps)
    else:
        blocks = _static_blocks(psi, factors(t0, dt), steps)
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
        _check_dense(factory, grid, "dense evolution operator")
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
        for k in range(min(i, j), max(i, j)):
            out = self._step(k) @ out
        if j >= i:
            return out
        try:
            return np.linalg.inv(out)
        except np.linalg.LinAlgError:
            raise EvolutionError(f"the propagator from {t_to} to {t_from} is singular") from None

    def apply(self, state: GridFunction, t_from: float, t_to: float) -> GridFunction:
        flat = self.matrix(t_from, t_to) @ state.flatten()
        return GridFunction.from_flat(self.grid, flat, self.factory.dimension)


def expectation(operator: MatrixOperator, state: GridFunction, t: float = 0.0) -> complex:
    """<psi, A psi> / <psi, psi>."""
    return inner(state, operator.apply(state, t)) / inner(state, state)


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
