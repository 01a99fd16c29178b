"""Retarded kernels dual to the time steppers.

For a time-independent Hermitian H with weighted-orthonormal eigenpairs
(E_a, v_a), the retarded kernel

    G(t, s) = theta(t - s) * (1 / i hbar) * sum_a v_a v_a^dag exp(-i E_a (t-s)/hbar)

recovers the evolved state through psi(t) = i hbar h G(t, s) psi(s), h the
grid spacing.  theta(0) = 0: the kernel vanishes on and before the source
time, and propagation requests with t <= s are refused rather than silently
evaluated.

The four-component kernel carries an extra right factor of the time Clifford
generator.  The generator squares to the identity, so on a source weighted
by it the four-component kernel propagates as the plain one does, and one
propagation serves both conventions.  The second-order scalar field
gets a sine kernel over the spatial frequency operator plus a two-slot form
whose first slot is the kernel's source-time derivative, taken analytically
over the same modes.  A Born iteration builds kernels of a perturbed
operator from the free ones by trapezoidal time quadrature, with the
coincidence limit Id/(i hbar h) at the interval ends.  It runs in the
eigenbasis of the free Hamiltonian, where the free kernel is diagonal and,
on the uniform quadrature grid, a function of the lag between nodes only:
the perturbation enters as one coupling matrix and every free kernel as a
vector of phases.  The quadrature sum is causal, so every Born level
advances in one sweep over the nodes and holds a few matrices, not one per
node.

The eigenbasis is built, its kernels formed and the Born iteration run one
component group of H at a time, as the `evolution` module docstring
describes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Frame, kron_component_matrix, dirac_gammas
from .grid import GridFunction, SpatialGrid1D, derivative_matrix
from .reduction import HamiltonianFactory
from .evolution import (
    DENSE_STATE_LIMIT,
    _block,
    _block_diagonal,
    _connected_sets,
    _coupling,
    _map_distinct,
    _positions,
    _same_bits,
)

MAX_BORN_ORDER = 3
# Largest max|H - H^dag| / max(1, max|H|) accepted as Hermitian.
HERMITICITY_TOL = 1e-10


class GreenError(RuntimeError):
    """Retardation violations, mismatched shapes, or unusable spectra."""


# ---------------------------------------------------------------------------
# Eigenbasis kernels for first-order Hermitian systems


@dataclass
class EigenBasis:
    """Weighted-orthonormal eigenpairs of a dense Hermitian Hamiltonian.

    Modes are columns normalised so that h * v_a^dag v_b = delta_ab, hence
    h * sum_a v_a v_a^dag = Id.

    Each component group of H (see `evolution`) is diagonalised on its
    own: `blocks` holds one (positions, modes) pair per group, the modes
    being the columns at the group's flat state positions, and `energies`
    sit at their group's positions, ascending within each group rather
    than over the whole spectrum.  The modes are exactly zero off the
    group blocks, so no dense matrix of them is held.
    """

    energies: np.ndarray
    blocks: list
    grid: SpatialGrid1D
    dimension: int
    hbar: float

    @classmethod
    def from_dense(
        cls,
        h_dense: np.ndarray,
        grid: SpatialGrid1D,
        dimension: int,
        hbar: float = 1.0,
        label: str = "dense",
    ) -> "EigenBasis":
        """One `eigh` per distinct component-group block of the (mN, mN)
        matrix, costing at most sum (|S| N)^3 instead of (mN)^3; twin
        groups, whose blocks hold the same bits, share theirs and hold one
        mode array."""
        size = dimension * grid.npoints
        if h_dense.shape != (size, size):
            raise GreenError(
                f"dense Hamiltonian of shape {h_dense.shape} does not fit "
                f"{dimension} components on {grid.npoints} points"
            )
        if size > DENSE_STATE_LIMIT:
            raise GreenError(f"eigenbasis of size {size} exceeds limit {DENSE_STATE_LIMIT}")
        scale = max(1.0, float(np.max(np.abs(h_dense))))
        defect = float(np.max(np.abs(h_dense - h_dense.conj().T)))
        if defect > HERMITICITY_TOL * scale:
            raise GreenError(
                f"Hamiltonian {label!r} is not Hermitian (defect {defect:.3e}); "
                f"eigenbasis kernels need a Hermitian operator"
            )
        hermitian = 0.5 * (h_dense + h_dense.conj().T)
        groups = [_positions(group, grid.npoints)
                  for group in _connected_sets(_coupling(h_dense, dimension, grid.npoints))]

        def weighted(block):
            values, vectors = np.linalg.eigh(block)
            return values, vectors / np.sqrt(grid.spacing)

        pairs = _map_distinct(weighted, [hermitian[_block(at, at)] for at in groups])
        energies = np.empty(size)
        blocks = []
        for at, (values, modes) in zip(groups, pairs):
            energies[at] = values
            blocks.append((at, modes))
        return cls(energies, blocks, grid, dimension, hbar)

    @classmethod
    def from_factory(cls, factory: HamiltonianFactory, grid: SpatialGrid1D) -> "EigenBasis":
        return cls.from_dense(
            factory.at().dense(grid), grid, factory.dimension, factory.hbar, factory.label
        )

    def completeness_defect(self) -> float:
        """max |h U U^dag - Id|, taken over the group blocks; the blocks
        between groups are exactly zero on both sides."""
        return max(
            float(np.max(np.abs(self.grid.spacing * (modes @ modes.conj().T) - np.eye(modes.shape[0]))))
            for _, modes in self.blocks
        )

    def _phases(self, t: float, s: float) -> np.ndarray:
        return np.exp(-1j * self.energies * (t - s) / self.hbar)

    def propagator(self, t: float, s: float) -> np.ndarray:
        """Unitary U(t <- s) = sum_a v_a exp(-i E_a (t-s)/hbar) v_a^dag * h,
        one product per group block."""
        phases = self._phases(t, s)
        return _block_diagonal(self.energies.size, [
            (at, self.grid.spacing * ((modes * phases[at]) @ modes.conj().T))
            for at, modes in self.blocks
        ])


def retarded_kernel(basis: EigenBasis, t: float, s: float) -> np.ndarray:
    """The one-component-convention retarded kernel; zero for t <= s."""
    size = basis.energies.size
    if t <= s:
        return np.zeros((size, size), dtype=complex)
    return basis.propagator(t, s) / (1j * basis.hbar * basis.grid.spacing)


def retarded_kernel_dirac(basis: EigenBasis, t: float, s: float) -> np.ndarray:
    """Four-component kernel: the plain kernel times the 4 x 4 time Clifford
    generator, which mixes the kernel's column components."""
    if basis.dimension != 4:
        raise GreenError("the four-component kernel needs a four-component basis")
    gamma0 = dirac_gammas().matrix(0)
    kernel = retarded_kernel(basis, t, s)
    size, npoints = kernel.shape[0], basis.grid.npoints
    columns = kernel.reshape(size, 4, npoints)
    return np.einsum("rcx,cd->rdx", columns, gamma0).reshape(size, size)


def propagate_retarded(basis: EigenBasis, state: GridFunction, t: float, s: float) -> GridFunction:
    """psi(t) = i hbar h G(t,s) psi(s).  In the four-component convention
    the kernel's right factor of the time generator cancels the generator
    that weights the source, so the same call serves it.

    The kernel is applied without being formed: each group S contributes
    h U_S (p_S * (U_S^dag psi_S)), O((|S| N)^2) work."""
    if t <= s:
        raise GreenError(f"retarded propagation needs t > s, got t={t}, s={s}")
    if state.components != basis.dimension:
        raise GreenError(
            f"state has {state.components} components, the basis has {basis.dimension}"
        )
    source = state.flatten()
    phases = basis._phases(t, s)
    flat = np.empty(source.size, dtype=complex)
    for at, modes in basis.blocks:
        flat[at] = basis.grid.spacing * (modes @ (phases[at] * (modes.conj().T @ source[at])))
    return GridFunction.from_flat(basis.grid, flat, basis.dimension)


def chain_kernels(
    later: np.ndarray, earlier: np.ndarray, hbar: float, spacing: float
) -> np.ndarray:
    """G(t, s) = i hbar h G(t, u) G(u, s) for t > u > s."""
    return (1j * hbar * spacing) * (later @ earlier)


# ---------------------------------------------------------------------------
# Second-order scalar field


@dataclass
class ScalarFieldKernel:
    """Sine kernel of d^2 phi/dt^2 = -(Omega^2) phi (+ constant-potential
    phase), Omega^2 = -c^2 d^2/dx^2 + (m c^2/hbar)^2 + constant shifts.

    `frequencies` and `modes` diagonalise the dense spatial operator with the
    same weighted normalisation as `EigenBasis`.
    """

    frequencies: np.ndarray
    modes: np.ndarray
    grid: SpatialGrid1D
    hbar: float
    charge: float = 0.0
    scalar_potential: float = 0.0

    @classmethod
    def build(
        cls,
        grid: SpatialGrid1D,
        mass: float,
        hbar: float = 1.0,
        c: float = 1.0,
        charge: float = 0.0,
        scalar_potential: float = 0.0,
    ) -> "ScalarFieldKernel":
        """Diagonalise Omega^2 on the grid; the scalar potential must be a
        constant here (a uniform phase is the only closed form kept exact)."""
        if grid.npoints > DENSE_STATE_LIMIT:
            raise GreenError(f"kernel of size {grid.npoints} exceeds limit {DENSE_STATE_LIMIT}")
        # Composed first derivatives, matching the momentum-squared of the
        # canonical two-component operator.
        d1 = derivative_matrix(grid, order=1)
        omega_sq = -(c * c) * (d1 @ d1) + ((mass * c * c / hbar) ** 2) * np.eye(grid.npoints)
        omega_sq = 0.5 * (omega_sq + omega_sq.T)
        evals, vectors = np.linalg.eigh(omega_sq)
        if np.min(evals) < -1e-9:
            raise GreenError(f"spatial frequency operator has negative modes ({np.min(evals):.3e})")
        freqs = np.sqrt(np.clip(evals, 0.0, None))
        return cls(freqs, vectors / np.sqrt(grid.spacing), grid, hbar, charge, scalar_potential)

    def _phase(self, delta: float) -> complex:
        return np.exp(-1j * self.charge * self.scalar_potential * delta / self.hbar)

    def scalar(self, t: float, s: float) -> np.ndarray:
        """g(t, s); zero for t <= s."""
        n = self.grid.npoints
        if t <= s:
            return np.zeros((n, n), dtype=complex)
        delta = t - s
        sine = delta * np.sinc(self.frequencies * delta / np.pi)  # sin(w delta)/w
        return self._phase(delta) * ((self.modes * sine) @ self.modes.conj().T)

    def scalar_rate(self, t: float, s: float) -> np.ndarray:
        """Analytic -d g / d(source time); zero for t <= s."""
        n = self.grid.npoints
        if t <= s:
            return np.zeros((n, n), dtype=complex)
        return self._rate(t, s, self.scalar(t, s))

    def _rate(self, t: float, s: float, g: np.ndarray) -> np.ndarray:
        """`scalar_rate` for t > s, given g(t, s)."""
        delta = t - s
        inner = (self.modes * np.cos(self.frequencies * delta)) @ self.modes.conj().T
        return (self._phase(delta) * inner
                - (1j * self.charge * self.scalar_potential / self.hbar) * g)

    def vector(self, t: float, s: float) -> tuple[np.ndarray, np.ndarray]:
        """Two-slot kernel (-d_s g - (2e / i hbar) V g, g), acting on
        (phi, dphi/dt)."""
        if t <= s:
            raise GreenError(f"the two-slot kernel needs t > s, got t={t}, s={s}")
        g = self.scalar(t, s)
        coupling = 2.0 * self.charge * self.scalar_potential / (1j * self.hbar)
        return self._rate(t, s, g) - coupling * g, g

    def propagate(self, state: GridFunction, t: float, s: float) -> np.ndarray:
        """phi(t) = h * (first_slot phi(s) + g dphi/dt(s)) on a canonical state."""
        if state.components != 2:
            raise GreenError("scalar-field propagation needs a canonical two-component state")
        first, second = self.vector(t, s)
        return self.grid.spacing * (first @ state.values[0] + second @ state.values[1])


# ---------------------------------------------------------------------------
# Born iteration


def born_kernel(
    basis: EigenBasis,
    perturbation: np.ndarray,
    t: float,
    s: float,
    order: int = 1,
    quad_points: int = 65,
) -> np.ndarray:
    """Order-k kernel of H0 + W from the free kernel of H0 by iterating

        G_k(t, s) = G_0(t, s) + h * integral_s^t G_0(t, s') W G_{k-1}(s', s) ds'

    with trapezoidal quadrature on `quad_points` uniform nodes t_j and the
    coincidence limit Id/(i hbar h) at the interval ends.

    The iteration runs in the eigenbasis U of H0, whose group blocks are
    `basis.blocks`; no dense U is formed.  There the
    free kernel is G_0(tau) = U diag(p(tau)) U^dag / (i hbar) with phases
    p(tau) = exp(-i E tau / hbar), and the coincidence limit is the lag-zero
    case p(0) = 1.  Each iterate is held as coefficients X_j with
    G(t_j, s) = U X_j U^dag / (i hbar), starting from X_j = diag(p(t_j - s)),
    and the perturbation enters once, as M = U^dag W U / (i hbar):

        X_j <- diag(p_j) + h * sum_i w_ij * p(t_j - t_i)[:, None] * (M X_i).

    The phases factor as p(t_j - t_i) = p_j * conj(p_i), so the trapezoid sums
    over i <= j are running sums of conj(p_i)[:, None] * (M X_i).

    G_0 is block-diagonal over the component groups of the basis, read from
    the positions of its blocks, and W over the connected sets of its own
    nonzero component blocks, so every iterate is block-diagonal over the
    groups that W leaves apart: a W that couples two basis groups merges
    them, with their mode blocks on the merged group's diagonal, and a fully
    coupled W makes one group.
    The iteration runs on each merged group S alone, as one sweep over the
    nodes: X_j of level k needs level k - 1 only at nodes i <= j, so each
    level keeps its running sum, its node-0 term and its current iterate.
    Level 0 is diagonal, as is X_0 at every level, so M X is a column
    scaling there.  The cost is (order - 1) * (Q - 1) matrix products of
    size |S| N per group, O((order - 1) * Q * sum (|S| N)^3) in all, plus
    O(order * Q * sum (|S| N)^2) elementwise work, holding O(order)
    matrices per group; the last level forms X only at the endpoint, which
    two products map back to the grid."""
    if not t > s:
        raise GreenError(f"the Born iteration needs t > s, got t={t}, s={s}")
    if order < 0 or order > MAX_BORN_ORDER:
        raise GreenError(f"Born order must lie in 0..{MAX_BORN_ORDER}, got {order}")
    if quad_points < 3:
        raise GreenError("need at least three quadrature points")
    size = basis.energies.size
    if perturbation.shape != (size, size):
        raise GreenError(
            f"perturbation shape {perturbation.shape} does not match state size {size}"
        )
    if order == 0:
        return retarded_kernel(basis, t, s)
    npoints = basis.grid.npoints
    # The components of each basis block, joined with W's own coupling.
    members = [np.unique(np.arange(size)[at] // npoints) for at, _ in basis.blocks]
    coupled = _coupling(perturbation, basis.dimension, npoints)
    for components in members:
        coupled[np.ix_(components, components)] = True
    dt = (t - s) / (quad_points - 1)
    groups, inputs = [], []
    for group in _connected_sets(coupled):
        at = _positions(group, npoints)
        # The group's modes: its basis blocks on the diagonal at their
        # positions within the group.
        modes = _block_diagonal(len(group) * npoints, [
            (_positions([group.index(c) for c in components], npoints), block)
            for components, (_, block) in zip(members, basis.blocks) if components[0] in group
        ])
        groups.append(at)
        inputs.append((modes, basis.energies[at], perturbation[_block(at, at)]))
    iterates = _map_distinct(
        lambda args: _born_iterate(*args, basis.hbar, basis.grid.spacing, dt, order, quad_points),
        inputs, lambda a, b: all(map(_same_bits, a, b)),
    )
    return _block_diagonal(size, list(zip(groups, iterates)))


def _born_iterate(
    modes: np.ndarray,
    energies: np.ndarray,
    perturbation: np.ndarray,
    hbar: float,
    spacing: float,
    dt: float,
    order: int,
    quad_points: int,
) -> np.ndarray:
    """The lag-phase Born iteration of `born_kernel` on one group's modes,
    energies and perturbation block, at quadrature step dt, swept once
    over the nodes with every level advanced at each node."""
    size = modes.shape[0]
    # phases[j] = p(t_j - s) = p(j dt), the free kernel at lag j.
    phases = np.exp(-1j * np.outer(dt * np.arange(quad_points), energies) / hbar)
    coupling = modes.conj().T @ perturbation @ modes / (1j * hbar)
    step = spacing * dt
    running = [np.zeros((size, size), dtype=complex) for _ in range(order)]
    first = [None] * order
    for j, p in enumerate(phases):
        # Level 0 is diag(p_j), and X_0 is diag(p_0) at every level, so
        # M X is a column scaling there.
        product = coupling * p
        for level in range(order):
            term = p.conj()[:, None] * product
            running[level] += term
            if j == 0:
                first[level] = term
            elif level < order - 1 or j == quad_points - 1:
                trapezoid = running[level] - 0.5 * (first[level] + term)
                iterate = np.diag(p) + step * (p[:, None] * trapezoid)
                if level < order - 1:
                    product = coupling @ iterate
    return (modes @ iterate) @ modes.conj().T / (1j * hbar)


def green_morphism(kernel: np.ndarray, frame: Frame, t: float, s: float, npoints: int) -> np.ndarray:
    """Kernel seen through a frame f constant in x: f(t)^{-1} G(t, s) f(s),
    the kernel of the framed state f^{-1} psi; a field frame, or a singular
    f(t), is refused."""
    if frame.at(t).ndim == 3 or frame.at(s).ndim == 3:
        raise GreenError("the kernel morphism needs a frame constant in x, not a field frame "
                         "(N, m, m)")
    left = kron_component_matrix(frame.inverse(t), npoints)
    return left @ kernel @ kron_component_matrix(frame.at(s), npoints)
