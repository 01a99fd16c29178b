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
F_i = U(t_0 <- t_i), the backward propagator; `with_gauge` twists it by a
frame g_i realized at each sample into F_i g_i, whose transports are the
propagators of the framed state g^{-1} psi, g_i^{-1} U(t_i <- t_j) g_j.

Connection coefficients are read off the transport by differencing: the
arrival coefficient d/dt K(t <- s)|_{t=s} equals -(i/hbar) H(s) for an
evolution transport; the departure coefficient d/ds K(t <- s)|_{s=t} is its
negative.  A lifting transported from a seed is covariantly constant: its
derivation along the path vanishes.
"""

from __future__ import annotations

import numbers
from contextlib import closing
from dataclasses import dataclass
from operator import is_

import numpy as np

from .algebra import kron_component_matrix, singular_index
from .grid import FibreProduct, SpatialGrid1D
from .reduction import HamiltonianFactory
from .evolution import (
    DENSE_STATE_LIMIT, EvolutionError, _block_diagonal, _map_distinct, _StepFactors,
)

COEFFICIENT_MODES = ("arrival", "departure")
DERIVATION_MODES = ("limit", "coefficients")


class BundleError(RuntimeError):
    """Degenerate frames, off-path samples, or boundary-sample requests."""


def _solve(frames: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """`numpy.linalg.solve` against transport frames; a singular frame is refused."""
    try:
        return np.linalg.solve(frames, rhs)
    except np.linalg.LinAlgError:
        raise BundleError("a transport frame is singular; change the sampling step") from None


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
    per component group of H for an evolution transport.  Twin groups hold
    one stack object, solved once per transport."""

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
        """Blocks built from steps and checked finite, without the conditioning
        guard: a frame that a Cayley step made singular is refused when solved against."""
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
        """Dense K(i_to <- i_from), one solve per distinct stack."""
        i, j = self._index(i_to), self._index(i_from)
        positions, stacks = zip(*self._blocks)
        solved = _map_distinct(lambda stack: _solve(stack[i], stack[j]), stacks, is_)
        return _block_diagonal(self.fibre_dim, list(zip(positions, solved)))

    def with_gauge(self, gauge: np.ndarray) -> "TransportAlongMap":
        """Transport in a changed frame, g_i at sample i:
        K'(i <- j) = g_i^{-1} K(i <- j) g_j, as `algebra.Frame` moves states.

        `gauge` is (nsamples, D, D) on the fibre, or (nsamples, m, m) on the
        components, m dividing D, acting as g_i (x) Id; a singular g_i is
        refused.
        """
        gauge = np.asarray(gauge, dtype=complex)
        dim = gauge.shape[-1] if gauge.ndim == 3 else -1
        if gauge.shape != (self.nsamples, dim, dim) or dim < 1 or self.fibre_dim % dim:
            raise BundleError(f"gauge of shape {gauge.shape} does not fit {self.nsamples} "
                              f"samples of a {self.fibre_dim}-dimensional fibre")
        bad = singular_index(gauge)
        if bad is not None:
            raise BundleError(f"gauge frame {bad} is singular")
        if dim != self.fibre_dim:
            gauge = np.stack([kron_component_matrix(g, self.fibre_dim // dim) for g in gauge])
        return TransportAlongMap(self.sampling, np.einsum("kij,kjl->kil", self.frames, gauge))


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
) -> TransportAlongMap:
    """Transport over the time axis with frames F_i = U(t_0 <- t_i).

    The backward propagators are accumulated interval by interval with
    `substeps` sub-intervals each; transports come out as the propagators
    U(t_i <- t_j), and `with_gauge` twists them by a per-sample frame.

    F_0 is the identity and every substep's U is block-diagonal over the
    component groups of H, so the frames are held as one stack F_S per
    group S, and a substep multiplies F_S by U_S.  A Crank-Nicolson substep
    does so in Cayley form, F_S U_S = 2 F_S (I + K_S)^-1 - F_S: one LU of
    size |S| N and one blocked substitution over the rows of F_S per group
    (`blocked.apply_rows`), and no step matrix.  A substep writes only
    the entries of its matrix that the driven part D(t) of H reaches, into
    a copy of each distinct group's base (see `evolution`), and is applied
    into a frame: the substeps of an interval alternate between the frame
    slot and one spare frame per stack, so that the last lands in the slot.
    Groups of one size start on one stack, kept while the stepper hands
    them one step object (twins):
    one LU and one apply serve them all.  A group moves to a copy of the
    stack, and of its spare, on the first substep where they part.
    Substep U(tau_k <- tau_{k+1}) is the stepper's step of size -delta from
    tau_{k+1}.  The substeps come one ahead (`_StepFactors.ahead`): the LU
    of the next one is taken on a worker thread while this one is applied
    to the frames, the worker taking a sixth of their rows once that LU is
    done, and a refusal met while forming the next one is raised when it
    is due.  Overflow ends in EvolutionError, as in `step_matrix`.
    The frames skip the conditioning guard, which `with_gauge` applies to
    the dense gauged frames; a singular one is refused when solved against.
    """
    size = factory.dimension * grid.npoints
    if size > DENSE_STATE_LIMIT:
        raise BundleError(f"dense transport of size {size} exceeds limit {DENSE_STATE_LIMIT}")
    if not isinstance(substeps, numbers.Integral):
        raise BundleError(f"substeps must be an integer, got {substeps!r}")
    if substeps < 1:
        raise BundleError(f"need at least one substep, got {substeps}")
    times = sampling.parameters

    def starts():
        for i in range(sampling.nsamples - 1):
            delta = (times[i + 1] - times[i]) / substeps
            for k in range(substeps):
                yield times[i] + (k + 1) * delta, -delta

    # The split of H with its realized S, and its groups, for the whole call.
    factors = _StepFactors(factory, grid, method)
    # owner[g] is the group whose stack g holds: the first of its size.
    sizes = [len(group) * grid.npoints for group, _, _ in factors.parts]
    owner = [sizes.index(n) for n in sizes]
    stacks = {n: np.empty((sampling.nsamples, n, n), dtype=complex) for n in set(sizes)}
    for n, stack in stacks.items():
        stack[0] = np.eye(n, dtype=complex)
    stacks = [stacks[n] for n in sizes]
    # Substep k of an interval writes into frame slot i + 1 or a spare frame,
    # alternately, so that the last one lands in the slot.
    spares = {}
    # Overflow surfaces as non-finite entries, refused after each interval.
    with (closing(factors.ahead(starts(), right=True)) as ahead,
          np.errstate(over="ignore", invalid="ignore")):
        for i in range(sampling.nsamples - 1):
            for k in range(substeps):
                steps = [step for _, _, step in next(ahead)]
                for g, o in enumerate(owner):
                    if steps[g] is not steps[o]:
                        # The twins part: g takes a copy of the frames so far.
                        stacks[g], owner[g] = stacks[o].copy(), g
                        if o in spares:
                            spares[g] = spares[o].copy()
                for g, o in enumerate(owner):
                    if g == o:
                        if substeps > 1 and g not in spares:
                            spares[g] = np.empty_like(stacks[g][0])
                        slots = (stacks[g][i + 1], spares.get(g))
                        source = slots[(substeps - k) % 2] if k else stacks[g][i]
                        steps[g](source, out=slots[(substeps - 1 - k) % 2])
                del steps
            if not all(np.all(np.isfinite(stack[i + 1])) for stack in stacks):
                raise EvolutionError(
                    f"transport frame {i + 1} left the finite range; reduce the sampling step"
                )
    blocks = [(at, stack) for (_, at, _), stack in zip(factors.parts, stacks)]
    return TransportAlongMap._from_steps(sampling, blocks)


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
        # One batched solve of every frame against the group's reference.
        values[:, positions] = _solve(stack, reference[:, None])[..., 0]
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
