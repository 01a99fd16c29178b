"""Parallel transport of fibre data along sampled paths.

A transport along a sampled path assigns to every ordered sample pair (i, j)
an invertible map K(i <- j) between the fibres over the samples, subject to
K(i <- i) = Id and K(i <- j) K(j <- k) = K(i <- k).  Everything here is built
from *frames*: per-sample invertible matrices F_i mapping the fibre over
sample i to a fixed reference fibre, with

    K(i <- j) = F_i^{-1} F_j,

which satisfies both laws to rounding error by construction.

Two frame sources are provided.  A flat transport takes the frames directly
from a frame field (transport then depends only on the endpoint frames, so
it is path independent).  An evolution transport over the time axis uses
F_i = U(t_0 <- t_i) g_i, the backward propagator times an optional
per-sample gauge: transports become the gauge-twisted propagators
g_i^{-1} U(t_i <- t_j) g_j.

Connection coefficients are read off the transport by differencing: the
arrival coefficient d/dt K(t <- s)|_{t=s} equals -(i/hbar) H(s) for an
evolution transport; the departure coefficient d/ds K(t <- s)|_{s=t} is its
negative.  A lifting transported from a seed is covariantly constant: its
derivation along the path vanishes.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .algebra import kron_component_matrix, singular_index
from .grid import FibreProduct, SpatialGrid1D
from .reduction import HamiltonianFactory
from .evolution import DENSE_STATE_LIMIT, EvolutionError, _block_diagonal, _StepFactors

COEFFICIENT_MODES = ("arrival", "departure")
DERIVATION_MODES = ("limit", "coefficients")


class BundleError(RuntimeError):
    """Degenerate frames, off-path samples, or boundary-sample requests."""


@dataclass(frozen=True)
class PathSampling:
    """Strictly increasing parameter values along a path."""

    parameters: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "parameters", np.asarray(self.parameters, dtype=float))
        if self.parameters.ndim != 1 or self.parameters.size < 2:
            raise BundleError("a path sampling needs at least two parameter values")
        if not np.all(np.isfinite(self.parameters)):
            raise BundleError("path parameters must be finite")
        if np.any(np.diff(self.parameters) <= 0):
            raise BundleError("path parameters must be strictly increasing")

    @classmethod
    def uniform(cls, start: float, stop: float, nsamples: int) -> "PathSampling":
        return cls(np.linspace(start, stop, nsamples))

    @property
    def nsamples(self) -> int:
        return self.parameters.size

    def spacing(self, i: int) -> float:
        return float(self.parameters[i + 1] - self.parameters[i])


@dataclass
class Trivialization:
    """Per-sample invertible gauge frames g_i on an m-dimensional fibre."""

    frames: np.ndarray

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=complex)
        if self.frames.ndim != 3 or self.frames.shape[1] != self.frames.shape[2]:
            raise BundleError(
                f"trivialization frames must be (nsamples, m, m), got {self.frames.shape}"
            )
        bad = singular_index(self.frames)
        if bad is not None:
            raise BundleError(f"trivialization frame {bad} is singular")

    @classmethod
    def identity(cls, nsamples: int, dim: int) -> "Trivialization":
        return cls(np.broadcast_to(np.eye(dim), (nsamples, dim, dim)).copy())

    @classmethod
    def constant(cls, matrix: np.ndarray, nsamples: int) -> "Trivialization":
        matrix = np.asarray(matrix, dtype=complex)
        return cls(np.broadcast_to(matrix, (nsamples,) + matrix.shape).copy())

    @classmethod
    def phase(cls, angles: np.ndarray, dim: int = 1) -> "Trivialization":
        angles = np.asarray(angles, dtype=float)
        return cls(np.exp(1j * angles)[:, None, None] * np.eye(dim))

    @property
    def nsamples(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]

    def is_unitary(self, tol: float = 1e-12) -> bool:
        eye = np.eye(self.dim)
        defect = np.max(np.abs(np.einsum("kij,kil->kjl", self.frames.conj(), self.frames) - eye))
        return bool(defect <= tol)


def induced_fibre_product(frame_field: np.ndarray) -> FibreProduct:
    """Weight l(x)^dag l(x) making a frame field isometric pointwise."""
    frame_field = np.asarray(frame_field, dtype=complex)
    if frame_field.ndim != 3:
        raise BundleError(f"frame field must be (N, m, m), got shape {frame_field.shape}")
    weights = np.einsum("xji,xjk->xik", frame_field.conj(), frame_field)
    return FibreProduct(weights)


class TransportAlongMap:
    """Transports K(i <- j) = F_i^{-1} F_j from per-sample frames, held as
    a direct sum of (positions, (nsamples, n, n) stack) blocks with exact
    zeros between them: one block for frames handed to the constructor, one
    per component group of H for an evolution transport."""

    def __init__(self, sampling: PathSampling, frames: np.ndarray):
        frames = np.asarray(frames, dtype=complex)
        if frames.ndim != 3 or frames.shape[1] != frames.shape[2]:
            raise BundleError(f"frames must be (nsamples, D, D), got shape {frames.shape}")
        if frames.shape[0] != sampling.nsamples:
            raise BundleError(
                f"{frames.shape[0]} frames for {sampling.nsamples} samples"
            )
        bad = singular_index(frames)
        if bad is not None:
            raise BundleError(f"frame {bad} is singular")
        self.sampling = sampling
        self._blocks = [(slice(0, frames.shape[1]), frames)]

    @classmethod
    def _from_steps(cls, sampling: PathSampling, blocks: list) -> "TransportAlongMap":
        """Blocks built from unitary or Cayley steps and checked finite:
        invertible by construction, so the conditioning guard is skipped."""
        transport = cls.__new__(cls)
        transport.sampling = sampling
        transport._blocks = blocks
        return transport

    @property
    def frames(self) -> np.ndarray:
        """Dense (nsamples, D, D) frames; the held stack for one block."""
        return _block_diagonal(self.fibre_dim, self._blocks)

    @property
    def nsamples(self) -> int:
        return self.sampling.nsamples

    @property
    def fibre_dim(self) -> int:
        return sum(stack.shape[1] for _, stack in self._blocks)

    def _index(self, i: int) -> int:
        n = self.nsamples
        if not -n <= i < n:
            raise BundleError(f"sample index {i} outside 0..{n - 1}")
        return i % n

    def transport(self, i_to: int, i_from: int) -> np.ndarray:
        """Dense K(i_to <- i_from), one solve per block."""
        i, j = self._index(i_to), self._index(i_from)
        return _block_diagonal(self.fibre_dim, [
            (positions, np.linalg.solve(stack[i], stack[j])) for positions, stack in self._blocks
        ])

    def with_gauge(self, gauge: Trivialization) -> "TransportAlongMap":
        """Transport in a changed gauge: K'(i <- j) = g_i^{-1} K(i <- j) g_j."""
        if gauge.nsamples != self.nsamples:
            raise BundleError(
                f"gauge has {gauge.nsamples} samples, transport has {self.nsamples}"
            )
        if gauge.dim == self.fibre_dim:
            expanded = gauge.frames
        elif self.fibre_dim % gauge.dim == 0:
            npoints = self.fibre_dim // gauge.dim
            expanded = np.stack(
                [kron_component_matrix(g, npoints) for g in gauge.frames]
            )
        else:
            raise BundleError(
                f"gauge dimension {gauge.dim} does not divide fibre dimension {self.fibre_dim}"
            )
        return TransportAlongMap(self.sampling, np.einsum("kij,kjl->kil", self.frames, expanded))


def flat_transport(sampling: PathSampling, frames: np.ndarray) -> TransportAlongMap:
    """Transport of a flat connection: frames are the frame field samples
    themselves, so transports depend only on the endpoint frames."""
    return TransportAlongMap(sampling, frames)


def evolution_transport(
    factory: HamiltonianFactory,
    grid: SpatialGrid1D,
    sampling: PathSampling,
    method: str = "midpoint-exponential",
    substeps: int = 1,
    gauge: Trivialization | None = None,
) -> TransportAlongMap:
    """Transport over the time axis with frames F_i = U(t_0 <- t_i) g_i.

    The backward propagators are accumulated interval by interval with
    `substeps` sub-intervals each; transports come out as the gauge-twisted
    propagators g_i^{-1} U(t_i <- t_j) g_j.

    F_0 is the identity and every substep's U is block-diagonal over the
    component groups of H, so the frames are held as one stack F_S per
    group S, and a substep multiplies F_S by U_S.  A Crank-Nicolson substep
    does so in Cayley form, F_S U_S = 2 F_S (I + K_S)^-1 - F_S: one LU of
    size |S| N and one solve with |S| N right-hand sides per group, and no
    step matrix.  Only the driven part D(t) of H is realized per substep.
    Substep U(tau_k <- tau_{k+1}) is the stepper's step of size -delta from
    tau_{k+1}.  Overflow ends in EvolutionError, as in `step_matrix`.  The
    frames are invertible by construction, so only a gauge, which makes
    them dense, passes the conditioning guard.
    """
    size = factory.dimension * grid.npoints
    if size > DENSE_STATE_LIMIT:
        raise BundleError(f"dense transport of size {size} exceeds limit {DENSE_STATE_LIMIT}")
    if not isinstance(substeps, numbers.Integral):
        raise BundleError(f"substeps must be an integer, got {substeps!r}")
    if substeps < 1:
        raise BundleError(f"need at least one substep, got {substeps}")
    times = sampling.parameters
    # The split of H with its realized S, and its groups, for the whole call.
    factors = _StepFactors(factory, grid, method)
    blocks = []
    for group, positions, _, _ in factors.parts:
        n = len(group) * grid.npoints
        stack = np.empty((sampling.nsamples, n, n), dtype=complex)
        stack[0] = np.eye(n, dtype=complex)
        blocks.append((positions, stack))
    # Overflow surfaces as non-finite entries, refused after each interval.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(sampling.nsamples - 1):
            delta = (times[i + 1] - times[i]) / substeps
            for k in range(substeps):
                steps = factors(times[i] + (k + 1) * delta, -delta)
                for (_, stack), (_, _, step) in zip(blocks, steps):
                    stack[i + 1] = step(stack[i + 1] if k else stack[i])
                    del step
            if not all(np.all(np.isfinite(stack[i + 1])) for _, stack in blocks):
                raise EvolutionError(
                    f"transport frame {i + 1} left the finite range; reduce the sampling step"
                )
    transport = TransportAlongMap._from_steps(sampling, blocks)
    if gauge is not None:
        transport = transport.with_gauge(gauge)
    return transport


# ---------------------------------------------------------------------------
# Connection coefficients, liftings, derivations


def transport_coefficients(
    transport: TransportAlongMap, index: int, mode: str = "arrival"
) -> np.ndarray:
    """Difference the transport around an interior sample.

    arrival:   d/dt K(t <- s_i)|_{t=s_i} ~ [K(i+1 <- i) - K(i-1 <- i)] / (s_{i+1} - s_{i-1})
    departure: d/ds K(s_i <- s)|_{s=s_i} ~ [K(i <- i+1) - K(i <- i-1)] / (s_{i+1} - s_{i-1})
    """
    if mode not in COEFFICIENT_MODES:
        raise BundleError(f"unknown coefficient mode {mode!r}, expected one of {COEFFICIENT_MODES}")
    i = transport._index(index)
    if i == 0 or i == transport.nsamples - 1:
        raise BundleError("transport coefficients need an interior sample")
    span = transport.sampling.parameters[i + 1] - transport.sampling.parameters[i - 1]
    if mode == "arrival":
        return (transport.transport(i + 1, i) - transport.transport(i - 1, i)) / span
    return (transport.transport(i, i + 1) - transport.transport(i, i - 1)) / span


def generator_from_transport(
    transport: TransportAlongMap, index: int, hbar: float = 1.0
) -> np.ndarray:
    """Hamiltonian read back from an evolution transport:
    H(s_i) = i hbar * (arrival coefficient)."""
    return 1j * hbar * transport_coefficients(transport, index, mode="arrival")


@dataclass
class Lifting:
    """Per-sample fibre vectors along the path."""

    sampling: PathSampling
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.ndim != 2:
            raise BundleError(f"lifting values must be (nsamples, D), got {self.values.shape}")
        if self.values.shape[0] != self.sampling.nsamples:
            raise BundleError(
                f"{self.values.shape[0]} lifting values for {self.sampling.nsamples} samples"
            )


def transported_lifting(
    transport: TransportAlongMap, seed: np.ndarray, origin: int = 0
) -> Lifting:
    """The covariantly constant lifting lambda_i = K(i <- origin) seed.

    With the path running along the time axis this is the sampled solution
    through the seed: the section transported from its initial value.
    """
    seed = np.asarray(seed, dtype=complex)
    if seed.shape != (transport.fibre_dim,):
        raise BundleError(
            f"seed of shape {seed.shape} does not fit fibre dimension {transport.fibre_dim}"
        )
    o = transport._index(origin)
    values = np.empty((transport.nsamples, seed.size), dtype=complex)
    for positions, stack in transport._blocks:
        reference = stack[o] @ seed[positions]
        values[:, positions] = np.stack([np.linalg.solve(frame, reference) for frame in stack])
    return Lifting(transport.sampling, values)


def derivation_along_path(
    transport: TransportAlongMap, lifting: Lifting, index: int, mode: str = "limit"
) -> np.ndarray:
    """Covariant derivative of a lifting at a sample.

    limit:        [K(i <- i+1) lambda_{i+1} - lambda_i] / (s_{i+1} - s_i),
                  the defining pullback difference quotient;
    coefficients: centred coordinate derivative plus the departure
                  coefficient, (lambda_{i+1} - lambda_{i-1}) / (s_{i+1} - s_{i-1})
                  + Gamma_dep(s_i) lambda_i.

    Both vanish on transported liftings as the sampling refines.
    """
    if mode not in DERIVATION_MODES:
        raise BundleError(f"unknown derivation mode {mode!r}, expected one of {DERIVATION_MODES}")
    if lifting.sampling is not transport.sampling and not np.array_equal(
        lifting.sampling.parameters, transport.sampling.parameters
    ):
        raise BundleError("lifting and transport are sampled on different paths")
    i = transport._index(index)
    if mode == "limit":
        if i == transport.nsamples - 1:
            raise BundleError("the pullback difference needs a sample with a successor")
        pulled = transport.transport(i, i + 1) @ lifting.values[i + 1]
        return (pulled - lifting.values[i]) / transport.sampling.spacing(i)
    if i == 0 or i == transport.nsamples - 1:
        raise BundleError("the coefficient form needs an interior sample")
    span = transport.sampling.parameters[i + 1] - transport.sampling.parameters[i - 1]
    coordinate = (lifting.values[i + 1] - lifting.values[i - 1]) / span
    gamma = transport_coefficients(transport, i, mode="departure")
    return coordinate + gamma @ lifting.values[i]
