"""Matrices of linear grid operators and the Clifford matrix sets.

A `MatrixOperator` is an n x p array whose entries are linear operators on
single-component grid functions (multiply by a function, differentiate,
compose, ...).  Matrix-matrix multiplication with entrywise operator
composition is written `odot`; plain complex matrices embed as matrices of
multiplication operators, so constants multiply states and operator matrices
alike through the same product.

The module also provides the 4x4 Dirac matrices, the 5x5 first-order matrix
set used by the five-component scalar-field form, and helpers to contract a
matrix set with covector components and to re-express an operator matrix in
an x-dependent frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np
import scipy.linalg

from .grid import GridFunction, SpatialGrid1D, derivative_values


class AlgebraError(ValueError):
    """Ill-formed operator matrices or incompatible shapes."""


# ---------------------------------------------------------------------------
# Linear operators on single-component grid functions


class LinearGridOperator:
    """Base class; subclasses apply to (N,) arrays."""

    def apply(self, values: np.ndarray, grid: SpatialGrid1D, t: float = 0.0) -> np.ndarray:
        raise NotImplementedError

    def dense(self, grid: SpatialGrid1D, t: float = 0.0) -> np.ndarray:
        """Dense N x N matrix of the operator on the given grid: `apply` on
        the rows of the identity gives the columns."""
        return self.apply(np.eye(grid.npoints, dtype=complex), grid, t).T

    def is_zero(self) -> bool:
        return False

    def split(self) -> tuple["LinearGridOperator", "LinearGridOperator"]:
        """(static, driven) with self = static + driven, where t enters only
        `driven`, through callable `ScaleOp` factors.  An operator that does
        not vary is its own static part, so shared entries keep their
        identity."""
        return self, ZeroOp()

    # Operator algebra: +, -, scalar *, and @ for composition.
    def __add__(self, other: "LinearGridOperator") -> "LinearGridOperator":
        return op_sum(self, other)

    def __sub__(self, other: "LinearGridOperator") -> "LinearGridOperator":
        return op_sum(self, op_scale(-1.0, other))

    def __neg__(self) -> "LinearGridOperator":
        return op_scale(-1.0, self)

    def __mul__(self, scalar: complex) -> "LinearGridOperator":
        return op_scale(scalar, self)

    __rmul__ = __mul__

    def __matmul__(self, other: "LinearGridOperator") -> "LinearGridOperator":
        return op_compose(self, other)


class ZeroOp(LinearGridOperator):
    def apply(self, values, grid, t=0.0):
        return np.zeros_like(np.asarray(values, dtype=complex))

    def is_zero(self):
        return True

    def __repr__(self):
        return "0"


class IdentityOp(LinearGridOperator):
    def apply(self, values, grid, t=0.0):
        return np.asarray(values, dtype=complex).copy()

    def __repr__(self):
        return "id"


class ScaleOp(LinearGridOperator):
    """Multiply pointwise by a constant, a sampled field, or f(t) -> field."""

    def __init__(self, factor):
        self.factor = factor

    def factor_values(self, grid: SpatialGrid1D, t: float = 0.0) -> np.ndarray:
        f = self.factor
        if callable(f):
            f = f(t)
        arr = np.asarray(f, dtype=complex)
        if arr.ndim == 0:
            return np.full(grid.npoints, complex(arr))
        if arr.shape != (grid.npoints,):
            raise AlgebraError(
                f"scale factor sampled at {arr.shape} does not fit grid with {grid.npoints} points"
            )
        return arr

    def apply(self, values, grid, t=0.0):
        return self.factor_values(grid, t) * np.asarray(values, dtype=complex)

    def is_zero(self):
        f = self.factor
        return np.isscalar(f) and complex(f) == 0

    def split(self):
        return (ZeroOp(), self) if callable(self.factor) else (self, ZeroOp())

    def __repr__(self):
        if np.isscalar(self.factor):
            return f"scale({complex(self.factor):g})"
        return "scale(field)"


class DerivativeOp(LinearGridOperator):
    """d^k/dx^k with the discretization supplied by the grid."""

    def __init__(self, order: int = 1):
        if order < 1:
            raise AlgebraError(f"derivative order must be >= 1, got {order}")
        self.order = order

    def apply(self, values, grid, t=0.0):
        return derivative_values(grid, values, order=self.order)

    def __repr__(self):
        return f"d^{self.order}/dx^{self.order}" if self.order > 1 else "d/dx"


class ComposeOp(LinearGridOperator):
    """Composition; factors apply right to left."""

    def __init__(self, factors: Sequence[LinearGridOperator]):
        self.factors = list(factors)
        if not self.factors:
            raise AlgebraError("composition needs at least one factor")

    def apply(self, values, grid, t=0.0):
        out = np.asarray(values, dtype=complex)
        for op in reversed(self.factors):
            out = op.apply(out, grid, t)
        return out

    def is_zero(self):
        return any(op.is_zero() for op in self.factors)

    def split(self):
        """With exactly one varying factor, that factor's split, composed
        with the others; with more than one, the whole is driven."""
        parts = [op.split() for op in self.factors]
        varying = [i for i, (_, driven) in enumerate(parts) if not driven.is_zero()]
        if len(varying) != 1:
            return (ZeroOp(), self) if varying else (self, ZeroOp())
        i = varying[0]
        before, after = self.factors[:i], self.factors[i + 1:]
        return tuple(reduce(op_compose, before + [part] + after) for part in parts[i])

    def __repr__(self):
        return " . ".join(repr(op) for op in self.factors)


class SumOp(LinearGridOperator):
    def __init__(self, terms: Sequence[LinearGridOperator]):
        self.terms = [op for op in terms if not op.is_zero()]

    def apply(self, values, grid, t=0.0):
        out = np.zeros_like(np.asarray(values, dtype=complex))
        for op in self.terms:
            out = out + op.apply(values, grid, t)
        return out

    def is_zero(self):
        return not self.terms

    def split(self):
        parts = [op.split() for op in self.terms]
        if all(driven.is_zero() for _, driven in parts):
            return self, ZeroOp()
        return op_sum(*(static for static, _ in parts)), op_sum(*(driven for _, driven in parts))

    def __repr__(self):
        return " + ".join(repr(op) for op in self.terms) if self.terms else "0"


def op_scale(scalar: complex, op: LinearGridOperator) -> LinearGridOperator:
    if op.is_zero() or scalar == 0:
        return ZeroOp()
    if scalar == 1:
        return op
    return ComposeOp([ScaleOp(scalar), op])


def op_compose(a: LinearGridOperator, b: LinearGridOperator) -> LinearGridOperator:
    if a.is_zero() or b.is_zero():
        return ZeroOp()
    if isinstance(a, IdentityOp):
        return b
    if isinstance(b, IdentityOp):
        return a
    factors = a.factors if isinstance(a, ComposeOp) else [a]
    factors = factors + (b.factors if isinstance(b, ComposeOp) else [b])
    return ComposeOp(factors)


def op_sum(*ops: LinearGridOperator) -> LinearGridOperator:
    terms = []
    for op in ops:
        if op.is_zero():
            continue
        if isinstance(op, SumOp):
            terms.extend(op.terms)
        else:
            terms.append(op)
    if not terms:
        return ZeroOp()
    if len(terms) == 1:
        return terms[0]
    return SumOp(terms)


# ---------------------------------------------------------------------------
# Matrices of operators


@dataclass
class MatrixOperator:
    """n x p matrix whose entries are linear grid operators."""

    entries: list

    def __post_init__(self):
        if not self.entries or not self.entries[0]:
            raise AlgebraError("matrix operator needs at least one entry")
        width = len(self.entries[0])
        for row in self.entries:
            if len(row) != width:
                raise AlgebraError("matrix operator rows have unequal lengths")
            for entry in row:
                if not isinstance(entry, LinearGridOperator):
                    raise AlgebraError(f"entry {entry!r} is not a linear grid operator")

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.entries), len(self.entries[0]))

    def entry(self, i: int, j: int) -> LinearGridOperator:
        return self.entries[i][j]

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "MatrixOperator":
        return cls([[ZeroOp() for _ in range(cols)] for _ in range(rows)])

    @classmethod
    def identity(cls, dim: int) -> "MatrixOperator":
        return cls([[IdentityOp() if i == j else ZeroOp() for j in range(dim)] for i in range(dim)])

    @classmethod
    def from_constant(cls, matrix: np.ndarray) -> "MatrixOperator":
        """Embed a complex matrix as a matrix of multiplication operators."""
        matrix = np.atleast_2d(np.asarray(matrix, dtype=complex))
        return cls([[ScaleOp(value) if value != 0 else ZeroOp() for value in row]
                    for row in matrix])

    @classmethod
    def from_fields(cls, fields: np.ndarray) -> "MatrixOperator":
        """Embed per-point matrices, shape (N, n, p), as multiplication operators."""
        fields = np.asarray(fields, dtype=complex)
        if fields.ndim != 3:
            raise AlgebraError(f"expected (N, n, p) per-point matrices, got shape {fields.shape}")
        return cls([[ScaleOp(field.copy()) if np.any(field != 0) else ZeroOp() for field in row]
                    for row in fields.transpose(1, 2, 0)])

    def apply(self, state: GridFunction, t: float = 0.0) -> GridFunction:
        rows, cols = self.shape
        if state.components != cols:
            raise AlgebraError(
                f"operator matrix is {rows}x{cols}, state has {state.components} components"
            )
        out = np.zeros((rows, state.grid.npoints), dtype=complex)
        for i in range(rows):
            for j in range(cols):
                entry = self.entries[i][j]
                if not entry.is_zero():
                    out[i] += entry.apply(state.values[j], state.grid, t)
        return GridFunction(state.grid, out)

    def odot(self, other) -> "MatrixOperator":
        """Matrix product with entrywise operator composition.

        Plain complex matrices (and per-point matrix fields) are promoted to
        matrices of multiplication operators first, so `A.odot(C)` and
        `C_promoted.odot(A)` both make sense.
        """
        other = promote(other)
        if self.shape[1] != other.shape[0]:
            raise AlgebraError(
                f"cannot multiply {self.shape} by {other.shape}: inner dimensions differ"
            )
        columns = list(zip(*other.entries))
        return MatrixOperator([[op_sum(*map(op_compose, row, column)) for column in columns]
                               for row in self.entries])

    def __add__(self, other) -> "MatrixOperator":
        other = promote(other)
        if self.shape != other.shape:
            raise AlgebraError(f"cannot add shapes {self.shape} and {other.shape}")
        return MatrixOperator([[op_sum(a, b) for a, b in zip(*rows)]
                               for rows in zip(self.entries, other.entries)])

    def __mul__(self, scalar: complex) -> "MatrixOperator":
        return MatrixOperator([[op_scale(scalar, entry) for entry in row] for row in self.entries])

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(entry.is_zero() for row in self.entries for entry in row)

    def split(self) -> tuple["MatrixOperator", "MatrixOperator"]:
        """(static, driven) entry by entry, as `LinearGridOperator.split`."""
        parts = [[entry.split() for entry in row] for row in self.entries]
        return tuple(MatrixOperator([[entry[k] for entry in row] for row in parts]) for k in (0, 1))

    def dense(
        self,
        grid: SpatialGrid1D,
        t: float = 0.0,
        base: np.ndarray | None = None,
        blocks: dict | None = None,
    ) -> np.ndarray:
        """Dense matrix on component-major flattened states, (n*N) x (p*N).

        With `base`, a realized array of that shape, the entries are added
        into a copy of it.  A `blocks` dict, held by the caller while it
        realizes operators on this grid at one t, keeps the block of each
        entry object it meets, so an entry shared between them is realized
        once.
        """
        rows, cols = self.shape
        n = grid.npoints
        out = np.zeros((rows * n, cols * n), dtype=complex) if base is None else base.copy()
        for i in range(rows):
            for j in range(cols):
                entry = self.entries[i][j]
                if entry.is_zero():
                    continue
                block = None if blocks is None else blocks.get(entry)
                if block is None:
                    block = entry.dense(grid, t)
                    if blocks is not None:
                        blocks[entry] = block
                at = (slice(i * n, (i + 1) * n), slice(j * n, (j + 1) * n))
                if base is None:
                    out[at] = block
                else:
                    out[at] += block
        return out

    def describe(self) -> list:
        """(row, col, text) triples for the non-trivial entries."""
        rows, cols = self.shape
        return [(i, j, repr(self.entries[i][j])) for i in range(rows) for j in range(cols)]


def promote(obj) -> MatrixOperator:
    """Promote complex matrices / per-point matrix fields to MatrixOperators."""
    if isinstance(obj, MatrixOperator):
        return obj
    arr = np.asarray(obj, dtype=complex)
    if arr.ndim == 2:
        return MatrixOperator.from_constant(arr)
    if arr.ndim == 3:
        return MatrixOperator.from_fields(arr)
    raise AlgebraError(f"cannot promote object of shape {arr.shape} to a matrix operator")


def kron_component_matrix(matrix: np.ndarray, npoints: int) -> np.ndarray:
    """Expand an (m, m) component matrix to the flattened state: kron(M, Id_N)."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise AlgebraError(f"component matrix must be square, got shape {matrix.shape}")
    return np.kron(matrix, np.eye(npoints, dtype=complex))


SINGULAR_RCOND = 1e-12


def singular_index(matrices: np.ndarray) -> int | None:
    """Index of the first singular matrix in a stack (..., n, n), or None.

    A matrix counts as singular when the LAPACK estimate (getrf, then gecon)
    of its infinity-norm reciprocal condition number is below
    SINGULAR_RCOND = 1e-12, i.e. solving with it could lose more than 12 of
    16 digits; a matrix that is not finite counts as singular too.  The test
    is scale-free: c A passes exactly when A does, whatever the fibre size.
    It costs one LU per matrix and no SVD.
    """
    stack = np.asarray(matrices, dtype=complex)
    stack = stack.reshape((-1,) + stack.shape[-2:])
    lange, getrf, gecon = scipy.linalg.get_lapack_funcs(("lange", "getrf", "gecon"), (stack,))
    for i, matrix in enumerate(stack):
        # LAPACK reads the C-ordered matrix as its transpose, without a copy;
        # the 1-norm condition of the transpose is the infinity-norm one.
        norm = lange("1", matrix.T)
        if not np.isfinite(norm):
            return i
        lu, _, info = getrf(matrix.T)
        if info > 0 or gecon(lu, norm)[0] < SINGULAR_RCOND:
            return i
    return None


def matrix_in_frame(op: MatrixOperator, frame: np.ndarray, grid: SpatialGrid1D) -> MatrixOperator:
    """Re-express an operator matrix in an x-dependent frame.

    `frame` holds the frame matrix f(x) per point, shape (N, n, n) (or a
    constant (n, n)).  The returned matrix is f^{-1} (.) op (.) f with the
    frame factors acting as multiplication-operator matrices; derivative
    entries therefore pick up the f^{-1} (df/dx) term through the product
    rule of the discrete derivative.
    """
    dim = op.shape[0]
    if op.shape[0] != op.shape[1]:
        raise AlgebraError("frame change needs a square operator matrix")
    frame = np.asarray(frame, dtype=complex)
    if frame.ndim == 2:
        frame = np.broadcast_to(frame, (grid.npoints,) + frame.shape).copy()
    if frame.shape != (grid.npoints, dim, dim):
        raise AlgebraError(
            f"frame of shape {frame.shape} does not fit a {dim}-dimensional fibre "
            f"on {grid.npoints} points"
        )
    bad = singular_index(frame)
    if bad is not None:
        raise AlgebraError(f"frame is singular at point index {bad}")
    inverse = np.linalg.inv(frame)
    return promote(inverse).odot(op).odot(promote(frame))


def frame_connection(frame: np.ndarray, grid: SpatialGrid1D) -> np.ndarray:
    """Per-point f^{-1} df/dx for an x-dependent frame, shape (N, n, n)."""
    frame = np.asarray(frame, dtype=complex)
    dframe = np.stack(
        [derivative_values(grid, frame[:, i, j])
         for i in range(frame.shape[1]) for j in range(frame.shape[2])],
        axis=-1,
    ).reshape(grid.npoints, frame.shape[1], frame.shape[2])
    return np.einsum("xij,xjk->xik", np.linalg.inv(frame), dframe)


# ---------------------------------------------------------------------------
# Matrix sets with a metric

METRIC_SIGNATURE = (1.0, -1.0, -1.0, -1.0)


@dataclass(frozen=True, eq=False)
class GammaSet:
    """Four matrices with a (+,-,-,-) metric attached."""

    matrices: tuple
    label: str = ""
    signature: tuple = METRIC_SIGNATURE

    def __post_init__(self):
        if len(self.matrices) != 4:
            raise AlgebraError(f"expected 4 matrices, got {len(self.matrices)}")
        dim = self.matrices[0].shape[0]
        for m in self.matrices:
            if m.shape != (dim, dim):
                raise AlgebraError("matrix set members must be square and equally sized")

    @property
    def dim(self) -> int:
        return self.matrices[0].shape[0]

    def matrix(self, mu: int) -> np.ndarray:
        return self.matrices[mu]


def dirac_gammas() -> GammaSet:
    """The standard 4x4 representation: time-like matrix diagonal."""
    sigma = pauli_matrices()
    g0 = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
    gs = [g0]
    for s in sigma:
        g = np.zeros((4, 4), dtype=complex)
        g[:2, 2:] = s
        g[2:, :2] = -s
        gs.append(g)
    return GammaSet(tuple(gs), label="dirac")


def kg_gammas() -> GammaSet:
    """5x5 first-order matrix set for the scalar field: row mu has a 1 in
    column 4, row 4 has the metric entry in column mu."""
    gs = []
    for mu in range(4):
        g = np.zeros((5, 5), dtype=complex)
        g[mu, 4] = 1.0
        g[4, mu] = METRIC_SIGNATURE[mu]
        gs.append(g)
    return GammaSet(tuple(gs), label="kg")


def pauli_matrices() -> tuple:
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
    sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    return sx, sy, sz


def alpha_matrices(gammas: GammaSet | None = None) -> tuple:
    """alpha_i = g0 g_i for the 4x4 set (velocity matrices)."""
    gammas = gammas or dirac_gammas()
    g0 = gammas.matrix(0)
    return tuple(g0 @ gammas.matrix(i) for i in (1, 2, 3))


def beta_matrix(gammas: GammaSet | None = None) -> np.ndarray:
    gammas = gammas or dirac_gammas()
    return gammas.matrix(0)


def anticommutator_defect(gammas: GammaSet) -> float:
    """Largest entrywise deviation from {g_mu, g_nu} = 2 eta_mu_nu Id."""
    eye = np.eye(gammas.dim, dtype=complex)
    worst = 0.0
    for mu in range(4):
        for nu in range(4):
            a, b = gammas.matrix(mu), gammas.matrix(nu)
            target = 2.0 * (gammas.signature[mu] if mu == nu else 0.0) * eye
            worst = max(worst, float(np.max(np.abs(a @ b + b @ a - target))))
    return worst


def slashed_contract(gammas: GammaSet, covector: Sequence) -> MatrixOperator | np.ndarray:
    """Sum_mu g^mu A_mu for covariant components A_mu.

    Scalar components give a dense matrix; grid-sampled components give a
    MatrixOperator of multiplication operators.
    """
    if len(covector) != 4:
        raise AlgebraError(f"need 4 covector components, got {len(covector)}")
    if all(np.isscalar(a) or np.asarray(a).ndim == 0 for a in covector):
        out = np.zeros((gammas.dim, gammas.dim), dtype=complex)
        for mu in range(4):
            out += gammas.matrix(mu) * complex(covector[mu])
        return out
    arrays = [np.asarray(a, dtype=complex) for a in covector]
    npoints = max(a.size for a in arrays if a.ndim > 0)
    fields = np.zeros((npoints, gammas.dim, gammas.dim), dtype=complex)
    for mu, a in enumerate(arrays):
        samples = np.full(npoints, complex(a)) if a.ndim == 0 else a
        if samples.shape != (npoints,):
            raise AlgebraError("covector components have inconsistent sampling")
        fields += samples[:, None, None] * gammas.matrix(mu)[None, :, :]
    return MatrixOperator.from_fields(fields)
