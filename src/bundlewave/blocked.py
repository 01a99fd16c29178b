"""Blocked Crank-Nicolson applies to the rows of transport frames.

A transport substep multiplies a frame x by the Cayley step
U = 2 (I + K)^-1 - I.  Given LAPACK's `getrf` of (I + K)^T = P L U,
x (I + K)^-1 = x P L^-T U^-T: a triangular solve with as many right-hand
sides as x has rows.  `prepare` inverts the diagonal blocks of L and U in
place, and `apply_rows` substitutes over blocks of PANEL columns of x with
BLAS products that read the blocks of the LU where they are, so no L, U
or inverse is formed whole.  The rows of x are independent, and a
product's rows keep their bits when the rows it is given start at a
multiple of 8: a frame applied in slabs of rows from such starts, on two
threads, holds the bits of one apply over all its rows.

The BLAS and LAPACK calls go through the pointers that
`scipy.linalg.cython_blas` and `cython_lapack` export.  Unlike scipy's
f2py wrappers they take leading dimensions, so blocks are passed in
place, and ctypes releases the interpreter lock while they run.  They run
in scipy's OpenBLAS, beside the `getrf`: numpy's products there took a
driven transport five times as long at two BLAS threads, two pools
taking turns on two cores.  No `getrs` is called.

`evolution` loads this module when a transport first applies a
Crank-Nicolson step, so other routes never compile it.
"""

from __future__ import annotations

import ctypes
from functools import cache

import numpy as np

from .algebra import _bind_scipy

PANEL = 64
# The scalars -1 and 1 of the BLAS calls, at fixed addresses.
_UNITS = np.array([-1.0, 1.0], dtype=complex)
_MINUS, _PLUS = (_UNITS.ctypes.data + k * _UNITS.itemsize for k in range(2))


@cache
def _native(module: str, name: str, arguments: int):
    """scipy's BLAS or LAPACK function `name`, called through the pointer
    that `scipy.linalg.<module>` exports for Cython, as a ctypes function
    of `arguments` pointers."""
    capsule = getattr(_bind_scipy(), module).__pyx_capi__[name]
    capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    prototype = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * arguments)
    return prototype(pointer(capsule, capsule_name(capsule)))


def _lead(x: np.ndarray) -> ctypes.c_int:
    """The leading dimension with which BLAS reads a complex 2-D array laid
    out by rows, each row contiguous, as its column-major transpose."""
    rows, columns = x.shape
    lead = x.strides[0] // x.itemsize if rows > 1 else max(columns, 1)
    if x.dtype != complex or (columns > 1 and x.strides[1] != x.itemsize) or lead < columns:
        raise ValueError("BLAS takes complex arrays whose rows are contiguous")
    return ctypes.c_int(lead)


def _subtract(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> None:
    """c -= a b, in c's storage, for arrays that `_lead` takes: `zgemm` of
    the column-major transposes, c^T = c^T - b^T a^T.  c shares no storage
    with a or b."""
    (m, k), n = a.shape, b.shape[1]
    if b.shape[0] != k or c.shape != (m, n):
        raise ValueError(f"cannot multiply {a.shape} by {b.shape} into {c.shape}")
    leads = [_lead(x) for x in (a, b, c)]
    if m and n and k:
        sizes = [ctypes.c_int(size) for size in (n, m, k)]
        _native("cython_blas", "zgemm", 13)(
            b"N", b"N", *map(ctypes.byref, sizes), _MINUS, b.ctypes.data, ctypes.byref(leads[1]),
            a.ctypes.data, ctypes.byref(leads[0]), _PLUS, c.ctypes.data, ctypes.byref(leads[2]))


def _triangle(lower: bool, a: np.ndarray) -> tuple:
    """(uplo, diag) with which LAPACK reads the unit lower triangle, L, of
    a square diagonal block a of the packed LU if `lower`, else its upper
    one, U."""
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"a diagonal block is square, not {a.shape}")
    return (b"L", b"U") if lower else (b"U", b"N")


def _invert(lower: bool, a: np.ndarray) -> None:
    """Invert in place the L or U (`_triangle`) of a diagonal block a of T
    (`prepare`) by `trtri`, which leaves the other triangle as it was."""
    uplo, diag = _triangle(lower, a)
    size, info = ctypes.c_int(a.shape[0]), ctypes.c_int()
    _native("cython_lapack", "ztrtri", 6)(uplo, diag, ctypes.byref(size), a.ctypes.data,
                                           ctypes.byref(_lead(a)), ctypes.byref(info))


def _multiply(lower: bool, a: np.ndarray, b: np.ndarray) -> None:
    """b = b A in b's storage by `trmm`, for A the transpose of the L or U
    (`_triangle`) of a diagonal block a of T, which alone `trmm` reads."""
    if b.shape[1] != a.shape[0]:
        raise ValueError(f"cannot multiply {b.shape} by {a.shape}")
    if b.shape[0]:
        uplo, diag = _triangle(lower, a)
        size, rows = ctypes.c_int(a.shape[0]), ctypes.c_int(b.shape[0])
        _native("cython_blas", "ztrmm", 11)(
            b"L", uplo, b"N", diag, ctypes.byref(size), ctypes.byref(rows), _PLUS,
            a.ctypes.data, ctypes.byref(_lead(a)), b.ctypes.data, ctypes.byref(_lead(b)))


def prepare(lu: np.ndarray, piv: np.ndarray) -> tuple:
    """(T, order) for `apply_rows` from `getrf`'s F-ordered packed factors
    `lu` of (I + K)^T = P L U and its pivots: T = lu^T, C-ordered, whose
    diagonal blocks of PANEL are inverted in place (`_invert`), and
    `order`, the column order of x P."""
    order = np.arange(lu.shape[0])
    for i in np.flatnonzero(piv != order).tolist():
        order[[i, piv[i]]] = order[[piv[i], i]]
    t = lu.T
    for j in range(0, t.shape[0], PANEL):
        for lower in (True, False):
            _invert(lower, t[j:j + PANEL, j:j + PANEL])
    return t, order


def apply_rows(factors: tuple, x: np.ndarray, out: np.ndarray) -> None:
    """out = x U for the rows of x, C-ordered, apart from out, given
    `prepare` of the LU of (I + K)^T; U = 2 (I + K)^-1 - I.

    The columns of x are put in order into out, whose column blocks J of
    PANEL are then solved in place, forward, with L^T the strict upper
    triangle of T and the unit, W_J = (W_J - W_<J L^T_<J,J) (L^T_JJ)^-1,
    and backward, with U^T its lower one,
    Z_J = (Z_J - Z_>J U^T_>J,J) (U^T_JJ)^-1.
    """
    t, order = factors
    panels = range(0, t.shape[0], PANEL)
    # Overflow surfaces as non-finite frames, refused by the transport; a
    # worker thread starts in numpy's default error state.
    with np.errstate(over="ignore", invalid="ignore"):
        np.take(x, order, axis=1, out=out, mode="clip")
        for j in panels:
            at = slice(j, j + PANEL)
            _subtract(out[:, :j], t[:j, at], out[:, at])
            _multiply(True, t[at, at], out[:, at])
        for j in reversed(panels):
            at, end = slice(j, j + PANEL), j + PANEL
            _subtract(out[:, end:], t[end:, at], out[:, at])
            _multiply(False, t[at, at], out[:, at])
        out *= 2.0
        out -= x


def worker_rows(n: int) -> int:
    """Rows of an n x n frame that a transport's step worker applies, the
    first ones: a multiple of 8 near n / 6, so that the caller's slab also
    starts at a multiple of 8.  The worker's LU and block inverses take
    about 3/5 of a whole apply, and a slab runs slower beside the caller
    than alone.  On a two-core Xeon at one BLAS thread and n = 256 they took
    2.2 against 3.7 ms, and a driven Dirac transport 209, 190, 183, 193 and
    212 ms with 0, 32, 40, 48 and 56 worker rows (medians of 12)."""
    return 8 * (n // 48)
