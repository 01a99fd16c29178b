"""Order reduction of wave equations to first-order Hamiltonian systems.

A linear equation of order n in time,

    d^n phi / dt^n = sum_i f_i d^i phi / dt^i,

becomes i*hbar d psi/dt = H psi for the stacked state
psi = (phi, dphi/dt, ..., d^{n-1}phi/dt^{n-1}) with H = i*hbar times the
block companion matrix: identities on the superdiagonal, the f_i along the
bottom row.  The factories below produce the four-component spin-1/2
Hamiltonian, three equivalent stackings of the second-order scalar-field
equation (two-component canonical, two-component nonrelativistic split,
five-component derivative stacking), the source-free field-pair curl system,
and plain Schrodinger operators.  Each is one `MatrixOperator` for all t,
in which time enters only through callable scale factors.

Gauge freedom: for an invertible time-dependent frame A(t) mixing the
stacked components, psi~ = A psi solves the transformed equation with
H~ = A H A^{-1} + i*hbar*(dA/dt) A^{-1}.  The transformed and the
block-diagonally stacked Hamiltonians are built once as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    DerivativeOp,
    IdentityOp,
    LinearGridOperator,
    MatrixOperator,
    ScaleOp,
    ZeroOp,
    kg_gammas,
    alpha_matrices,
    beta_matrix,
    op_compose,
    op_scale,
    op_sum,
    promote,
    singular_index,
)
from .grid import GridFunction, derivative_values


class ReductionError(ValueError):
    """Unusable equation parameters or stacking mismatches."""


# ---------------------------------------------------------------------------
# Electromagnetic potentials


@dataclass
class Potentials:
    """Scalar potential and the single vector-potential component of a 1D run.

    Each entry is a constant, a grid-sampled (N,) array, or a callable
    t -> constant/array.
    """

    scalar: object = 0.0
    vector: object = 0.0

    def is_zero(self) -> bool:
        return (
            not (callable(self.scalar) or callable(self.vector))
            and np.all(np.asarray(self.scalar) == 0)
            and np.all(np.asarray(self.vector) == 0)
        )

    def scalar_rate(self):
        """Entry for d(scalar)/dt in the same constant/array/callable format."""
        if callable(self.scalar):
            src = self.scalar
            dt = 1e-6

            def rate(t):
                return (np.asarray(src(t + dt), dtype=float)
                        - np.asarray(src(t - dt), dtype=float)) / (2 * dt)

            return rate
        return 0.0


def pointwise(entry, func):
    """Apply `func` pointwise to a constant/array/callable field entry."""
    if callable(entry):
        return lambda t: func(np.asarray(entry(t), dtype=complex))
    return func(np.asarray(entry, dtype=complex))


# ---------------------------------------------------------------------------
# Factories and companion reduction


@dataclass
class HamiltonianFactory:
    """The Hamiltonian of a model: one square `MatrixOperator` for every t.

    Time enters the operator only through callable `ScaleOp` factors, so
    its dimension and whether it varies are read from it; the flag is read
    once, when the factory is made.  Gauged and stacked Hamiltonians are one
    such operator too.  A march splits the operator into its static part S
    and driven part D(t) once and realizes S once.  Callers must treat the
    operator as read-only.
    """

    op: MatrixOperator
    label: str = ""
    hbar: float = 1.0

    def __post_init__(self):
        rows, cols = self.op.shape
        if rows != cols:
            raise ReductionError(
                f"factory {self.label!r} needs a square operator, got shape {self.op.shape}"
            )
        self.time_dependent = not self.op.split()[1].is_zero()

    @property
    def dimension(self) -> int:
        return self.op.shape[0]

    def at(self) -> MatrixOperator:
        """The operator; t enters it through its callable factors."""
        return self.op


@dataclass
class LinearTimeSystem:
    """Spatial coefficients f_0..f_{n-1} of a linear order-n equation.

    Coefficients are `MatrixOperator`s over the base components of phi (1x1
    for a one-component field); time enters them only through callable
    `ScaleOp` factors.
    """

    order: int
    coefficients: list
    base_components: int = 1

    def __post_init__(self):
        if self.order < 1:
            raise ReductionError(f"time order must be >= 1, got {self.order}")
        if len(self.coefficients) != self.order:
            raise ReductionError(
                f"order-{self.order} system needs {self.order} coefficients, "
                f"got {len(self.coefficients)}"
            )
        if any(callable(coeff) for coeff in self.coefficients):
            raise ReductionError("coefficients are operators; let t enter through a ScaleOp")

    def coefficient(self, i: int) -> MatrixOperator:
        op = self.coefficients[i]
        if isinstance(op, LinearGridOperator):
            op = MatrixOperator([[op]])
        if not isinstance(op, MatrixOperator):
            op = promote(op)
        m = self.base_components
        if op.shape != (m, m):
            raise ReductionError(
                f"coefficient f_{i} has shape {op.shape}, expected {(m, m)}"
            )
        return op


def companion_hamiltonian(
    system: LinearTimeSystem, hbar: float = 1.0, label: str | None = None
) -> HamiltonianFactory:
    """i*hbar times the block companion matrix of the stacked system."""
    n, m = system.order, system.base_components
    out = MatrixOperator.zeros(n * m, n * m)
    for k in range((n - 1) * m):
        out.entries[k][k + m] = op_scale(1j * hbar, IdentityOp())
    for i in range(n):
        fi = system.coefficient(i)
        for r, col in np.ndindex(m, m):
            out.entries[(n - 1) * m + r][i * m + col] = op_scale(1j * hbar, fi.entry(r, col))
    return HamiltonianFactory(out, label or f"companion-order-{n}", hbar)


# ---------------------------------------------------------------------------
# Spin-1/2


def kinetic_momentum_operator(
    charge: float, potentials: Potentials, hbar: float, c: float
) -> LinearGridOperator:
    """p - (e/c) A as a one-component operator, p = -i*hbar d/dx."""
    terms = [op_scale(-1j * hbar, DerivativeOp(1))]
    if charge != 0.0:
        terms.append(ScaleOp(pointwise(potentials.vector, lambda a: -(charge / c) * a)))
    return op_sum(*terms)


def dirac_hamiltonian(
    mass: float,
    charge: float = 0.0,
    potentials: Potentials | None = None,
    hbar: float = 1.0,
    c: float = 1.0,
) -> HamiltonianFactory:
    """e*phi*Id + c*alpha_1*(p_1 - (e/c) A_1) + m c^2 beta on four components.

    One spatial dimension: only the first velocity matrix enters and the
    transverse vector-potential components vanish.
    """
    potentials = potentials or Potentials()
    alpha1 = alpha_matrices()[0]
    beta = beta_matrix()
    momentum = kinetic_momentum_operator(charge, potentials, hbar, c)
    out = MatrixOperator.zeros(4, 4)
    for i in range(4):
        for j in range(4):
            terms = []
            if alpha1[i, j] != 0:
                terms.append(op_scale(c * alpha1[i, j], momentum))
            if beta[i, j] != 0:
                terms.append(op_scale(mass * c * c * beta[i, j], IdentityOp()))
            if i == j and charge != 0.0:
                terms.append(ScaleOp(pointwise(potentials.scalar, lambda v: charge * v)))
            out.entries[i][j] = op_sum(*terms)
    return HamiltonianFactory(out, "dirac", hbar)


# ---------------------------------------------------------------------------
# Second-order scalar field, three stackings


def _scalar_field_f0(
    mass: float, charge: float, potentials: Potentials, hbar: float, c: float
) -> LinearGridOperator:
    """Coefficient of phi when the second time derivative is isolated:

    f_0 = -(c^2/hbar^2)(p - (e/c)A)^2 - m^2 c^4/hbar^2
          + (e^2/hbar^2) phi^2 + (2e/(i hbar)) dphi/dt.
    """
    momentum = kinetic_momentum_operator(charge, potentials, hbar, c)
    terms = [
        op_scale(-(c / hbar) ** 2, op_compose(momentum, momentum)),
        op_scale(-((mass * c * c / hbar) ** 2), IdentityOp()),
    ]
    if charge != 0.0:
        terms.append(ScaleOp(pointwise(potentials.scalar, lambda v: (charge / hbar) ** 2 * v * v)))
        if callable(potentials.scalar):
            rate = potentials.scalar_rate()
            terms.append(ScaleOp(pointwise(rate, lambda v: (2 * charge / (1j * hbar)) * v)))
    return op_sum(*terms)


def _scalar_field_f1(charge: float, potentials: Potentials, hbar: float) -> LinearGridOperator:
    """Coefficient of dphi/dt: (2e/(i hbar)) phi."""
    if charge == 0.0:
        return op_sum()
    return ScaleOp(pointwise(potentials.scalar, lambda v: (2 * charge / (1j * hbar)) * v))


def kg_canonical_hamiltonian(
    mass: float,
    charge: float = 0.0,
    potentials: Potentials | None = None,
    hbar: float = 1.0,
    c: float = 1.0,
) -> HamiltonianFactory:
    """Two-component stacking (phi, dphi/dt): the order-2 companion form."""
    potentials = potentials or Potentials()
    system = LinearTimeSystem(
        order=2,
        coefficients=[
            MatrixOperator([[_scalar_field_f0(mass, charge, potentials, hbar, c)]]),
            MatrixOperator([[_scalar_field_f1(charge, potentials, hbar)]]),
        ],
    )
    return companion_hamiltonian(system, hbar=hbar, label="kg-canonical")


def kg_nonrel_hamiltonian(
    mass: float,
    charge: float = 0.0,
    potentials: Potentials | None = None,
    hbar: float = 1.0,
    c: float = 1.0,
) -> HamiltonianFactory:
    """Two-component split into slow/fast combinations
    (phi + (i hbar/mc^2) dphi/dt, phi - (i hbar/mc^2) dphi/dt) / the
    nonrelativistic-limit-friendly frame.  Requires mass > 0.
    """
    if not mass > 0:
        raise ReductionError("the nonrelativistic split needs a positive mass")
    potentials = potentials or Potentials()
    mc2 = mass * c * c
    f0 = _scalar_field_f0(mass, charge, potentials, hbar, c)
    half_f0 = op_scale(-(hbar * hbar) / (2 * mc2), f0)  # -(hbar^2/2mc^2) f_0
    if charge != 0.0:
        e_phi = ScaleOp(pointwise(potentials.scalar, lambda v: charge * v))
    else:
        e_phi = op_sum()
    mass_term = op_scale(0.5 * mc2, IdentityOp())
    out = MatrixOperator.zeros(2, 2)
    out.entries[0][0] = op_sum(mass_term, e_phi, half_f0)
    out.entries[0][1] = op_sum(op_scale(-1, mass_term), op_scale(-1, e_phi), half_f0)
    out.entries[1][0] = op_sum(mass_term, op_scale(-1, e_phi), op_scale(-1, half_f0))
    out.entries[1][1] = op_sum(op_scale(-1, mass_term), e_phi, op_scale(-1, half_f0))
    return HamiltonianFactory(out, "kg-nonrel", hbar)


def kg_nonrel_frame(mass: float, hbar: float = 1.0, c: float = 1.0) -> "GaugeFrame":
    """Constant frame mapping (phi, dphi/dt) to the nonrelativistic split."""
    if not mass > 0:
        raise ReductionError("the nonrelativistic split needs a positive mass")
    b = 1j * hbar / (mass * c * c)
    return GaugeFrame(np.array([[1.0, b], [1.0, -b]], dtype=complex))


def kg_5d_hamiltonian(mass: float, hbar: float = 1.0, c: float = 1.0) -> HamiltonianFactory:
    """Five-component stacking (m c^2 phi, dphi/dt, grad phi) of the free
    scalar-field equation; transverse gradient components ride along as
    zeros in a one-dimensional run.  Free field only; requires mass > 0.
    """
    if not mass > 0:
        raise ReductionError("the five-component stacking needs a positive mass")
    mc2 = mass * c * c
    out = MatrixOperator.zeros(5, 5)
    out.entries[0][1] = op_scale(1j * hbar * mc2, IdentityOp())
    out.entries[1][0] = op_scale(-1j * mc2 / hbar, IdentityOp())
    out.entries[1][2] = op_scale(1j * hbar * c * c, DerivativeOp(1))
    out.entries[2][1] = op_scale(1j * hbar, DerivativeOp(1))
    return HamiltonianFactory(out, "kg-5d", hbar)


def covariant_scalar_residual(
    before: GridFunction,
    at: GridFunction,
    after: GridFunction,
    dt: float,
    mass: float,
    hbar: float = 1.0,
    c: float = 1.0,
) -> GridFunction:
    """Residual of the first-order covariant form on a five-component solution.

    From three consecutive snapshots of the five-component state the scaled
    state (i hbar d_0 phi, i hbar d_1 phi, i hbar d_2 phi, i hbar d_3 phi,
    m c phi) is formed and i*hbar*(Gamma^mu d_mu) - m*c is applied, with the
    time derivative taken by central difference and the spatial derivative
    by the grid scheme.  The result converges to zero at the scheme orders
    when the snapshots solve the free scalar-field equation.
    """
    for state in (before, at, after):
        if state.components != 5:
            raise ReductionError("the covariant residual needs five-component states")
    gammas = kg_gammas()
    grid = at.grid

    def scaled(state: GridFunction) -> np.ndarray:
        psi = state.values
        phi_vec = np.zeros_like(psi)
        phi_vec[0] = (1j * hbar / c) * psi[1]          # i hbar d_0 phi
        phi_vec[1] = 1j * hbar * psi[2]                # i hbar d_1 phi
        phi_vec[2] = 1j * hbar * psi[3]
        phi_vec[3] = 1j * hbar * psi[4]
        phi_vec[4] = psi[0] / c                        # m c phi = psi_0 / c
        return phi_vec

    v_before, v_at, v_after = scaled(before), scaled(at), scaled(after)
    d0 = (v_after - v_before) / (2.0 * dt * c)         # d/dx^0 = (1/c) d/dt
    d1 = derivative_values(grid, v_at, order=1)
    slashed = (
        np.einsum("ij,jx->ix", gammas.matrix(0), d0)
        + np.einsum("ij,jx->ix", gammas.matrix(1), d1)
    )
    residual = 1j * hbar * slashed - mass * c * v_at
    return GridFunction(grid, residual)


# ---------------------------------------------------------------------------
# Field-pair curl system and Schrodinger operators


def maxwell_hamiltonian(hbar: float = 1.0, c: float = 1.0) -> HamiltonianFactory:
    """Source-free curl system on the transverse field pairs.

    State (E_y, E_z, H_y, H_z) with x-variation only:
    dE_y/dt = -c dH_z/dx, dE_z/dt = c dH_y/dx,
    dH_y/dt = c dE_z/dx, dH_z/dt = -c dE_y/dx.
    """
    out = MatrixOperator.zeros(4, 4)
    out.entries[0][3] = op_scale(-1j * hbar * c, DerivativeOp(1))
    out.entries[1][2] = op_scale(1j * hbar * c, DerivativeOp(1))
    out.entries[2][1] = op_scale(1j * hbar * c, DerivativeOp(1))
    out.entries[3][0] = op_scale(-1j * hbar * c, DerivativeOp(1))
    return HamiltonianFactory(out, "maxwell", hbar)


def schrodinger_hamiltonian(
    mass: float,
    potential: object = 0.0,
    hbar: float = 1.0,
) -> HamiltonianFactory:
    """One-component -(hbar^2/2m) d^2/dx^2 + V(x)."""
    if not mass > 0:
        raise ReductionError("the Schrodinger operator needs a positive mass")
    zero_potential = not callable(potential) and np.all(np.asarray(potential) == 0)
    terms = [op_scale(-(hbar * hbar) / (2 * mass), DerivativeOp(2))]
    if not zero_potential:
        terms.append(ScaleOp(potential))
    out = MatrixOperator([[op_sum(*terms)]])
    return HamiltonianFactory(out, "schrodinger-free" if zero_potential else "schrodinger", hbar)


def block_diag_hamiltonian(factories: list, label: str = "block-diag") -> HamiltonianFactory:
    """Stack independent systems into one block-diagonal Hamiltonian."""
    if not factories:
        raise ReductionError("need at least one factory to stack")
    hbar = factories[0].hbar
    for f in factories:
        if f.hbar != hbar:
            raise ReductionError("stacked factories disagree on hbar")
    dim = sum(f.dimension for f in factories)
    out = MatrixOperator.zeros(dim, dim)
    offset = 0
    for f in factories:
        for i, j in np.ndindex(f.dimension, f.dimension):
            out.entries[offset + i][offset + j] = f.op.entry(i, j)
        offset += f.dimension
    return HamiltonianFactory(out, label, hbar)


# ---------------------------------------------------------------------------
# Gauge frames


@dataclass
class GaugeFrame:
    """Invertible frame A(t) on the stacked components.

    `matrix` is a constant matrix or a callable t -> matrix; `derivative`
    may be supplied analytically and is finite-differenced otherwise.
    """

    matrix: object
    derivative: object = None

    @property
    def time_dependent(self) -> bool:
        return callable(self.matrix) or callable(self.derivative)

    def at(self, t: float = 0.0) -> np.ndarray:
        m = self.matrix(t) if callable(self.matrix) else self.matrix
        m = np.asarray(m, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ReductionError(f"gauge frame must be square, got shape {m.shape}")
        return m

    def rate(self, t: float = 0.0) -> np.ndarray:
        if self.derivative is not None:
            d = self.derivative(t) if callable(self.derivative) else self.derivative
            return np.asarray(d, dtype=complex)
        if not callable(self.matrix):
            return np.zeros_like(self.at(t))
        eps = 1e-6
        return (self.at(t + eps) - self.at(t - eps)) / (2 * eps)

    def inverse_at(self, t: float = 0.0) -> np.ndarray:
        m = self.at(t)
        if singular_index(m) is not None:
            raise ReductionError("gauge frame is singular")
        return np.linalg.inv(m)

    def condition_number(self, t: float = 0.0) -> float:
        return float(np.linalg.cond(self.at(t)))

    def is_unitary(self, t: float = 0.0, tol: float = 1e-12) -> bool:
        m = self.at(t)
        return bool(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) <= tol)


def gauge_transform(factory: HamiltonianFactory, frame: GaugeFrame) -> HamiltonianFactory:
    """H~ = A H A^{-1} + i*hbar*(dA/dt) A^{-1} for the transformed state A psi,
    built once; a frame singular at t = 0 is refused here.

    A constant frame enters as constant matrices.  A driven frame enters as
    one callable scale factor per entry of A(t), A(t)^-1 and the rate term,
    all reading one evaluation of the frame per t.  They are placed on the
    union of the three supports at t = 0; a later t that puts a nonzero
    outside it is refused, never dropped.
    """
    dim, hbar = factory.dimension, factory.hbar
    shape = frame.at(0.0).shape
    if shape != (dim, dim):
        raise ReductionError(f"gauge frame of shape {shape} does not fit dimension {dim}")

    def terms(t: float) -> np.ndarray:
        a_inv = frame.inverse_at(t)
        return np.stack([frame.at(t), a_inv, 1j * hbar * (frame.rate(t) @ a_inv)])

    latest = {0.0: terms(0.0)}
    if frame.time_dependent:
        support = np.any(latest[0.0] != 0, axis=0)

        def shared(t: float) -> np.ndarray:
            if t not in latest:
                values = terms(t)
                if np.any(values[:, ~support] != 0):
                    raise ReductionError(f"gauge frame at t = {t} leaves its support at t = 0")
                latest.clear()
                latest[t] = values
            return latest[t]

        a, a_inv, rate = (MatrixOperator([
            [ScaleOp(lambda t, k=k, i=i, j=j: shared(t)[k, i, j]) if support[i, j] else ZeroOp()
             for j in range(dim)]
            for i in range(dim)
        ]) for k in range(3))
    else:
        a, a_inv, rate = map(promote, latest[0.0])
    op = a.odot(factory.op).odot(a_inv) + rate
    return HamiltonianFactory(op, f"{factory.label}-gauged", hbar)
