"""Matrices of linear grid operators and the Clifford matrix sets.

A `MatrixOperator` is an n x p array whose entries are linear operators on
single-component grid functions (multiply by a function, differentiate,
compose, ...).  Matrix-matrix multiplication with entrywise operator
composition is written `odot`; plain complex matrices embed as matrices of
multiplication operators, so constants multiply states and operator matrices
alike through the same product.

The module also provides the 4x4 Dirac matrices, the 5x5 first-order matrix
set used by the five-component scalar-field form, a helper to contract a
matrix set with covector components, and the `Frame` of the stacked
components, with `matrix_in_frame` re-expressing an operator matrix in a
frame constant in t.
"""

from __future__ import annotations

import ctypes
import os
from dataclasses import dataclass
from functools import cached_property, reduce
from types import SimpleNamespace
from typing import Sequence

import numpy as np

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

    def pointwise(self) -> bool:
        """Whether the operator acts pointwise in x, so that `dense` is
        diagonal."""
        return False

    def diagonal(self, grid: SpatialGrid1D, t: float = 0.0) -> np.ndarray:
        """The (N,) values of a pointwise operator: `apply` on ones, which
        acts on each point as `dense` acts on its column of the identity, so
        they equal the diagonal of `dense` bit for bit."""
        if not self.pointwise():
            raise AlgebraError(f"{self!r} does not act pointwise")
        return self.apply(np.ones(grid.npoints, dtype=complex), grid, t)

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

    def __mul__(self, scalar: complex) -> "LinearGridOperator":
        return op_scale(scalar, self)

    __rmul__ = __mul__

    def __matmul__(self, other: "LinearGridOperator") -> "LinearGridOperator":
        return op_compose(self, other)


class ZeroOp(LinearGridOperator):
    def apply(self, values, grid, t=0.0):
        return np.zeros_like(np.asarray(values, dtype=complex))

    def pointwise(self):
        return True

    def is_zero(self):
        return True

    def __repr__(self):
        return "0"


class IdentityOp(LinearGridOperator):
    def apply(self, values, grid, t=0.0):
        return np.asarray(values, dtype=complex).copy()

    def pointwise(self):
        return True

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

    def pointwise(self):
        return True

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

    def pointwise(self):
        return all(op.pointwise() for op in self.factors)

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

    def pointwise(self):
        return all(op.pointwise() for op in self.terms)

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


def _split_term(op: LinearGridOperator, walk):
    """(symbol, pointwise part) of one operator other than a derivative for
    `MatrixOperator.symbol`, taking its parts through `walk`; None if it
    has a term that is neither."""
    if op.is_zero():
        return 0j, ZeroOp()
    if isinstance(op, IdentityOp):
        return 1 + 0j, ZeroOp()
    if isinstance(op, ScaleOp) and not callable(op.factor) and np.ndim(op.factor) == 0:
        return complex(op.factor), ZeroOp()
    if isinstance(op, (SumOp, ComposeOp)):
        parts = [walk(term) for term in (op.terms if isinstance(op, SumOp) else op.factors)]
        if any(part is None for part in parts):
            return None
        if isinstance(op, SumOp):
            return sum(symbol for symbol, _ in parts), op_sum(*(rest for _, rest in parts))
        symbol, rest = parts[0]
        for factor, factor_rest in parts[1:]:
            # (s + P)(s' + P') = s s' + s P' + s' P + P P', where a pointwise
            # P may meet a number s' only.
            if (not rest.is_zero() and np.ndim(factor)) or (not factor_rest.is_zero() and np.ndim(symbol)):
                return None
            rest = op_sum(op_compose(rest, factor_rest), op_scale(symbol, factor_rest),
                          op_scale(factor, rest))
            symbol = symbol * factor
        return symbol, rest
    return (0j, op) if op.pointwise() else None


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

    def is_zero(self) -> bool:
        return all(entry.is_zero() for row in self.entries for entry in row)

    def split(self) -> tuple["MatrixOperator", "MatrixOperator"]:
        """(static, driven) entry by entry, as `LinearGridOperator.split`."""
        parts = [[entry.split() for entry in row] for row in self.entries]
        return tuple(MatrixOperator([[entry[k] for entry in row] for row in parts]) for k in (0, 1))

    def dense(self, grid: SpatialGrid1D, t: float = 0.0) -> np.ndarray:
        """Dense matrix on component-major flattened states, (n*N) x (p*N).

        An entry object that appears more than once is realized once.
        """
        rows, cols = self.shape
        n = grid.npoints
        out = np.zeros((rows * n, cols * n), dtype=complex)
        blocks: dict = {}
        for i in range(rows):
            for j in range(cols):
                entry = self.entries[i][j]
                if entry.is_zero():
                    continue
                if id(entry) not in blocks:
                    blocks[id(entry)] = entry.dense(grid, t)
                out[i * n:(i + 1) * n, j * n:(j + 1) * n] = blocks[id(entry)]
        return out

    def fields(self, grid: SpatialGrid1D, t: float = 0.0) -> np.ndarray:
        """The (N, n, p) per-point matrices of a matrix of pointwise
        operators, from each entry's `diagonal`: the inverse of
        `from_fields`.  An entry object that appears more than once is
        realized once."""
        rows, cols = self.shape
        out = np.zeros((grid.npoints, rows, cols), dtype=complex)
        values: dict = {}
        for i in range(rows):
            for j in range(cols):
                entry = self.entries[i][j]
                if not entry.is_zero():
                    if id(entry) not in values:
                        values[id(entry)] = entry.diagonal(grid, t)
                    out[:, i, j] = values[id(entry)]
        return out

    def symbol(self, grid: SpatialGrid1D) -> tuple[np.ndarray, "MatrixOperator"] | None:
        """(C^, P) with the operator C + P on a periodic grid, C translation
        invariant and static, P pointwise; None if an entry has a term that
        is neither, such as a field or driven factor around a derivative,
        and on a reflecting grid.

        C^ is the (N, n, p) symbol of C: C^(k) its matrix at each wavenumber
        k, in FFT order.  P is a matrix of pointwise operators.  One walk
        of each entry: identities and scale factors constant in x and t
        are numbers, a derivative is the FFT of its `apply` to the unit
        impulse at x = 0, its first column, so the Nyquist rule of
        `derivative_values` holds; sums add and compositions multiply
        symbols, and a pointwise term is composed with numbers only.  Each
        derivative object is realized once, and no N x N matrix is formed.
        """
        if grid.boundary != "periodic":
            return None
        impulse = np.zeros(grid.npoints, dtype=complex)
        impulse[0] = 1.0
        # A first walk reads only which symbols are numbers, so an operator
        # that is refused realizes no derivative.
        stand_in = np.ones(grid.npoints, dtype=complex)
        for realize in (False, True):
            walked: dict = {}

            def walk(op):
                """(symbol, pointwise part) of `op`: the symbol a number or
                an (N,) array; None if `op` has a term that is neither."""
                if id(op) not in walked:
                    if isinstance(op, DerivativeOp):
                        symbol = np.fft.fft(op.apply(impulse, grid)) if realize else stand_in
                        walked[id(op)] = symbol, ZeroOp()
                    else:
                        walked[id(op)] = _split_term(op, walk)
                return walked[id(op)]

            splits = [[walk(entry) for entry in row] for row in self.entries]
            if any(split is None for row in splits for split in row):
                return None
        rows, cols = self.shape
        symbol = np.zeros((grid.npoints, rows, cols), dtype=complex)
        for i, j in np.ndindex(rows, cols):
            symbol[:, i, j] = splits[i][j][0]
        return symbol, MatrixOperator([[rest for _, rest in row] for row in splits])

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


# The idle spin of scipy's OpenBLAS pool, which serves `expm` alone, as a
# power of two of CPU cycles: 2^25 (about 17 ms at 2 GHz) against
# OpenBLAS's default of 2^28, which kept its workers busy beside numpy's
# pool after `green`'s `expm`.  The spin changes no work split and no bits.
SCIPY_SPIN_EXPONENT = 25

# scipy.linalg once `_bind_scipy` has imported it, else None.
_linalg = None


def _bind_scipy():
    """scipy.linalg, imported on the calling thread unless it is bound
    already: the one place where bundlewave loads scipy.

    OpenBLAS reads `OPENBLAS_THREAD_TIMEOUT` once, when its library loads,
    so the import runs with it set to SCIPY_SPIN_EXPONENT, unless it is set
    already, and the environment is restored afterwards.  Callers look
    their function up on the returned module, so a wrapper placed on
    `scipy.linalg` sees them.
    """
    global _linalg
    if _linalg is None:
        preset = "OPENBLAS_THREAD_TIMEOUT" in os.environ
        if not preset:
            os.environ["OPENBLAS_THREAD_TIMEOUT"] = str(SCIPY_SPIN_EXPONENT)
        try:
            import scipy.linalg
        finally:
            if not preset:
                del os.environ["OPENBLAS_THREAD_TIMEOUT"]
        _linalg = scipy.linalg
    return _linalg


# The routines of numpy's bundled OpenBLAS that bundlewave calls, by their
# number of pointer arguments.  zgecon and zlange, built from Fortran, take
# a size_t length of their character argument after those.
_ROUTINES = {"zgetrf": 6, "zgetrs": 9, "zgemm": 13, "ztrmm": 11, "ztrtri": 6, "zgecon": 9,
             "zlange": 6}

# The bound `_ROUTINES` once `_bind_lapack` has bound them, else None.
_lapack = None


def _bind_lapack():
    """The `_ROUTINES` of numpy's bundled OpenBLAS, as attributes of their
    names, bound on the first call: the one place where bundlewave binds
    BLAS and LAPACK.  They run in numpy's own thread pool, without the
    interpreter lock, and take ILP64 integers (`ctypes.c_int64`).  numpy 2
    wheels export them as scipy_<name>_64_, numpy 1 wheels as <name>_64_;
    a routine exported as neither is an `AlgebraError`.
    """
    global _lapack
    if _lapack is None:
        library, bound = ctypes.CDLL(np.linalg._umath_linalg.__file__), SimpleNamespace()
        for name, pointers in _ROUTINES.items():
            spellings = [f"scipy_{name}_64_", f"{name}_64_"]
            found = [getattr(library, symbol) for symbol in spellings if hasattr(library, symbol)]
            if not found:
                raise AlgebraError(f"numpy's OpenBLAS exports neither {' nor '.join(spellings)}; "
                                   "bundlewave needs a numpy that bundles ILP64 LAPACK")
            lengths = [ctypes.c_size_t] if name in ("zgecon", "zlange") else []
            found[0].argtypes = [ctypes.c_void_p] * pointers + lengths
            setattr(bound, name, found[0])
        bound.zlange.restype = ctypes.c_double
        _lapack = bound
    return _lapack


def _getrf(a: np.ndarray) -> tuple:
    """(lu, piv, info) of LAPACK's `getrf` of a^T, for a square complex
    C-ordered a, factored in place: lu is a^T, F-ordered, piv holds the
    0-based pivots, and info > 0 marks a singular a."""
    if a.dtype != complex or a.ndim != 2 or a.shape[0] != a.shape[1] or not a.flags.c_contiguous:
        raise ValueError("getrf factors a square complex C-ordered matrix in place")
    size, info = ctypes.c_int64(a.shape[0]), ctypes.c_int64()
    piv = np.empty(a.shape[0], dtype=np.int64)
    _bind_lapack().zgetrf(ctypes.byref(size), ctypes.byref(size), a.ctypes.data,
                          ctypes.byref(size), piv.ctypes.data, ctypes.byref(info))
    piv -= 1
    return a.T, piv, info.value


SINGULAR_RCOND = 1e-12


def singular_index(matrices: np.ndarray) -> int | None:
    """Index of the first singular matrix in a stack (..., n, n), or None.

    A matrix counts as singular when the LAPACK estimate (getrf, then gecon)
    of its infinity-norm reciprocal condition number is below
    SINGULAR_RCOND = 1e-12, i.e. solving with it could lose more than 12 of
    16 digits; a matrix that is not finite counts as singular too.  The test
    is scale-free: c A passes exactly when A does, whatever the fibre size.
    It costs one LU per matrix and no SVD or inverse, which suits the large
    frame stacks and gauges of `bundle.TransportAlongMap`; LAPACK is bound
    on the first call (`_bind_lapack`).
    """
    stack = np.asarray(matrices, dtype=complex)
    stack = stack.reshape((-1,) + stack.shape[-2:])
    lapack, size = _bind_lapack(), ctypes.byref(ctypes.c_int64(stack.shape[-1]))
    norm, rcond, info = ctypes.c_double(), ctypes.c_double(), ctypes.c_int64()
    work, rwork = np.empty(2 * stack.shape[-1], dtype=complex), np.empty(2 * stack.shape[-1])
    for i, matrix in enumerate(stack):
        # LAPACK reads a C-ordered copy of the matrix as its transpose; the
        # 1-norm condition of the transpose is the infinity-norm one.
        lu = np.array(matrix, order="C")
        norm.value = lapack.zlange(b"1", size, size, lu.ctypes.data, size, rwork.ctypes.data, 1)
        if not np.isfinite(norm.value) or _getrf(lu)[2] > 0:
            return i
        lapack.zgecon(b"1", size, lu.ctypes.data, size, ctypes.byref(norm), ctypes.byref(rcond),
                      work.ctypes.data, rwork.ctypes.data, ctypes.byref(info), 1)
        if rcond.value < SINGULAR_RCOND:
            return i
    return None


def _frame_inverse(frame: np.ndarray) -> np.ndarray:
    """Inverse of a frame matrix (m, m), or per point of a field (N, m, m),
    refused if singular: the one guarded frame inverse.

    The guard is `singular_index`'s test taken exactly: a point is refused
    when the reciprocal of numpy's batched infinity-norm condition number
    |f| |f^-1| is below SINGULAR_RCOND or is not a number, as for a frame
    that is not finite.  The exact value is at most LAPACK's estimate, so
    whatever `singular_index` refuses is refused here too, up to rounding.
    For fibres of m <= 5 it costs one more small inverse per point, and it
    loads no scipy.
    """
    rcond = 1.0 / np.linalg.cond(frame, np.inf)
    bad = np.flatnonzero(~(rcond >= SINGULAR_RCOND))
    if bad.size:
        raise AlgebraError(f"frame is singular at point index {bad[0]}")
    return np.linalg.inv(frame)


@dataclass(frozen=True, eq=False)
class Frame:
    """A frame f(t, x) of the stacked components: a trivialization of their
    bundle over space-time.

    `matrix` is a constant (m, m), a field (N, m, m) of one matrix per grid
    point, or a callable t -> either; a callable needs its `derivative`, a
    callable t -> df/dt, and a constant takes none.  One convention serves
    every caller: the state in the frame is f^{-1} psi, an operator H becomes
    f^{-1} H f - i*hbar f^{-1} df/dt, and a kernel f(t)^{-1} G(t, s) f(s).
    A constant frame is inverted once, on first use, and every later
    `inverse` hands out that read-only result.
    """

    matrix: object
    derivative: object = None

    def __post_init__(self):
        if callable(self.matrix) and not callable(self.derivative):
            raise AlgebraError("a driven frame needs its derivative, a callable of t")
        if not callable(self.matrix) and self.derivative is not None:
            raise AlgebraError("a frame constant in t takes no derivative")

    @property
    def time_dependent(self) -> bool:
        return callable(self.matrix)

    def at(self, t: float = 0.0) -> np.ndarray:
        m = np.asarray(self.matrix(t) if callable(self.matrix) else self.matrix, dtype=complex)
        if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
            raise AlgebraError(f"a frame is (m, m) or (N, m, m), got shape {m.shape}")
        return m

    def inverse(self, t: float = 0.0) -> np.ndarray:
        return _frame_inverse(self.at(t)) if self.time_dependent else self._constant_inverse

    @cached_property
    def _constant_inverse(self) -> np.ndarray:
        inverse = _frame_inverse(self.at())
        inverse.flags.writeable = False
        return inverse


def matrix_in_frame(op: MatrixOperator, frame: np.ndarray) -> MatrixOperator:
    """f^{-1} (.) op (.) f for a frame matrix f constant in t.

    `frame` is a constant (n, n) or a field (N, n, n), whose factors act as
    multiplication-operator matrices; derivative entries therefore pick up
    the f^{-1} (df/dx) term through the product rule of the discrete
    derivative.  A field that does not fit the grid is refused when the
    result is realized.
    """
    dim = op.shape[0]
    if op.shape[0] != op.shape[1]:
        raise AlgebraError("frame change needs a square operator matrix")
    frame = np.asarray(frame, dtype=complex)
    if frame.ndim not in (2, 3) or frame.shape[-2:] != (dim, dim):
        raise AlgebraError(
            f"frame of shape {frame.shape} does not fit a {dim}-dimensional fibre"
        )
    return promote(_frame_inverse(frame)).odot(op).odot(promote(frame))


def frame_connection(frame: np.ndarray, grid: SpatialGrid1D) -> np.ndarray:
    """Per-point f^{-1} df/dx for an x-dependent frame, shape (N, n, n);
    a frame singular at some point is refused with `AlgebraError`."""
    frame = np.asarray(frame, dtype=complex)
    dframe = np.stack(
        [derivative_values(grid, frame[:, i, j])
         for i in range(frame.shape[1]) for j in range(frame.shape[2])],
        axis=-1,
    ).reshape(grid.npoints, frame.shape[1], frame.shape[2])
    return np.einsum("xij,xjk->xik", _frame_inverse(frame), dframe)


# ---------------------------------------------------------------------------
# Matrix sets with a metric

METRIC_SIGNATURE = (1.0, -1.0, -1.0, -1.0)


@dataclass(frozen=True, eq=False)
class GammaSet:
    """Four equally sized square matrices under the (+,-,-,-) `METRIC_SIGNATURE`."""

    matrices: tuple

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
    return GammaSet(tuple(gs))


def kg_gammas() -> GammaSet:
    """5x5 first-order matrix set for the scalar field: row mu has a 1 in
    column 4, row 4 has the metric entry in column mu."""
    gs = []
    for mu in range(4):
        g = np.zeros((5, 5), dtype=complex)
        g[mu, 4] = 1.0
        g[4, mu] = METRIC_SIGNATURE[mu]
        gs.append(g)
    return GammaSet(tuple(gs))


def pauli_matrices() -> tuple:
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
    sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    return sx, sy, sz


def alpha_matrices() -> tuple:
    """alpha_i = g0 g_i for the 4x4 set (velocity matrices)."""
    gammas = dirac_gammas()
    g0 = gammas.matrix(0)
    return tuple(g0 @ gammas.matrix(i) for i in (1, 2, 3))


def beta_matrix() -> np.ndarray:
    return dirac_gammas().matrix(0)


def anticommutator_defect(gammas: GammaSet) -> float:
    """Largest entrywise deviation from {g_mu, g_nu} = 2 eta_mu_nu Id."""
    eye = np.eye(gammas.dim, dtype=complex)
    worst = 0.0
    for mu in range(4):
        for nu in range(4):
            a, b = gammas.matrix(mu), gammas.matrix(nu)
            target = 2.0 * (METRIC_SIGNATURE[mu] if mu == nu else 0.0) * eye
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
