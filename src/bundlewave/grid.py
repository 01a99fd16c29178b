"""1D spatial grids, multi-component grid functions and fibre inner products.

Two boundary treatments are supported:

* ``periodic`` -- N points on a ring of circumference L, spacing h = L/N,
  derivatives by Fourier (spectral) differentiation;
* ``reflecting`` -- N points spanning [0, L] endpoints included, spacing
  h = L/(N-1), derivatives by second-order central differences with the
  field treated as zero just outside the wall.

States are arrays of shape (components, N).  The discrete inner product is
h * sum_x  psi(x)^dagger . w(x) . chi(x) with a per-point Hermitian weight
w(x): the identity, or the (N, m, m) weights of a fibre product, which
holds one matrix per grid point.  It is conjugate-linear in the first
argument.  `stacked_inner` takes it for states stacked along
leading axes, (..., m, N), and `inner` is its one-state case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BOUNDARIES = ("periodic", "reflecting")


class GridError(ValueError):
    """Invalid grid construction or use of mismatched grids."""


@dataclass(frozen=True)
class SpatialGrid1D:
    """Uniform 1D grid with a boundary treatment."""

    npoints: int
    length: float
    boundary: str = "periodic"

    def __post_init__(self):
        if self.npoints < 2:
            raise GridError(f"need at least 2 grid points, got {self.npoints}")
        if not 0 < self.length < np.inf:
            raise GridError(f"grid length must be positive and finite, got {self.length}")
        if self.boundary not in BOUNDARIES:
            raise GridError(
                f"unknown boundary {self.boundary!r}, expected one of {BOUNDARIES}"
            )

    @property
    def spacing(self) -> float:
        if self.boundary == "periodic":
            return self.length / self.npoints
        return self.length / (self.npoints - 1)

    @property
    def points(self) -> np.ndarray:
        return self.spacing * np.arange(self.npoints)

    @property
    def wavenumbers(self) -> np.ndarray:
        """Fourier wavenumbers in FFT ordering (periodic grids only)."""
        if self.boundary != "periodic":
            raise GridError("wavenumbers are defined for periodic grids only")
        return 2.0 * np.pi * np.fft.fftfreq(self.npoints, d=self.spacing)

    def nearest_index(self, x: float) -> int:
        if self.boundary == "periodic":
            return int(np.rint(x / self.spacing)) % self.npoints
        idx = int(np.rint(x / self.spacing))
        return min(max(idx, 0), self.npoints - 1)


def derivative_values(grid: SpatialGrid1D, values: np.ndarray, order: int = 1) -> np.ndarray:
    """Differentiate sampled values along the last axis, `order` times.

    Spectral differentiation on periodic grids; second-order central
    differences (zero just outside the walls) on reflecting grids.
    """
    if order < 0:
        raise GridError(f"derivative order must be non-negative, got {order}")
    values = np.asarray(values, dtype=complex)
    if values.shape[-1] != grid.npoints:
        raise GridError(
            f"value array has {values.shape[-1]} points, grid has {grid.npoints}"
        )
    if order == 0:
        return values.copy()
    if grid.boundary == "periodic":
        ik = (1j * grid.wavenumbers) ** order
        if order % 2 == 1 and grid.npoints % 2 == 0:
            # Odd derivatives of the unpaired Nyquist mode have no consistent
            # real representation; the standard choice drops it.
            ik[grid.npoints // 2] = 0.0
        return np.fft.ifft(ik * np.fft.fft(values, axis=-1), axis=-1)
    out = values
    for _ in range(order):
        out = _central_difference(grid, out)
    return out


def _central_difference(grid: SpatialGrid1D, values: np.ndarray) -> np.ndarray:
    h = grid.spacing
    padded = np.concatenate(
        [np.zeros(values.shape[:-1] + (1,)), values, np.zeros(values.shape[:-1] + (1,))],
        axis=-1,
    )
    return (padded[..., 2:] - padded[..., :-2]) / (2.0 * h)


def derivative_matrix(grid: SpatialGrid1D, order: int = 1) -> np.ndarray:
    """Dense N x N matrix of `derivative_values` acting on point values."""
    eye = np.eye(grid.npoints, dtype=complex)
    return derivative_values(grid, eye, order=order).T


@dataclass
class GridFunction:
    """A multi-component complex field sampled on a grid, shape (m, N)."""

    grid: SpatialGrid1D
    values: np.ndarray

    def __post_init__(self):
        self.values = np.atleast_2d(np.asarray(self.values, dtype=complex))
        if self.values.ndim != 2:
            raise GridError(f"values must be (components, npoints), got shape {self.values.shape}")
        if self.values.shape[1] != self.grid.npoints:
            raise GridError(
                f"values have {self.values.shape[1]} points, grid has {self.grid.npoints}"
            )

    @property
    def components(self) -> int:
        return self.values.shape[0]

    def flatten(self) -> np.ndarray:
        """Component-major flattening: index = component * N + point."""
        return self.values.reshape(-1)

    @classmethod
    def from_flat(cls, grid: SpatialGrid1D, flat: np.ndarray, components: int) -> "GridFunction":
        flat = np.asarray(flat, dtype=complex)
        if flat.size != components * grid.npoints:
            raise GridError(
                f"flat vector of size {flat.size} does not match "
                f"{components} components on {grid.npoints} points"
            )
        return cls(grid, flat.reshape(components, grid.npoints))

    def norm(self, fibre_product: "FibreProduct | None" = None) -> float:
        return float(np.sqrt(max(inner(self, self, fibre_product).real, 0.0)))

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        _require_same_grid(self, other)
        return GridFunction(self.grid, self.values - other.values)

    def __mul__(self, scalar: complex) -> "GridFunction":
        return GridFunction(self.grid, self.values * scalar)

    __rmul__ = __mul__


def _require_same_grid(a: GridFunction, b: GridFunction):
    if a.grid != b.grid:
        raise GridError("grid functions live on different grids")
    if a.components != b.components:
        raise GridError(
            f"component mismatch: {a.components} vs {b.components}"
        )


@dataclass
class FibreProduct:
    """Per-point Hermitian positive-definite weights w(x) for the fibre
    product, an (N, m, m) array."""

    weights: np.ndarray

    def __post_init__(self):
        self.weights = w = np.asarray(self.weights, dtype=complex)
        if w.ndim != 3:
            raise GridError(f"fibre product weights must be (N, m, m), got shape {w.shape}")
        if w.shape[-1] != w.shape[-2]:
            raise GridError("fibre product weight matrices must be square")
        if not np.all(np.isfinite(w)):
            raise GridError("fibre product weights must be finite")
        herm_defect = np.max(np.abs(w - np.conj(np.swapaxes(w, -1, -2))))
        if herm_defect > 1e-12 * max(1.0, np.max(np.abs(w))):
            raise GridError(f"fibre product weight is not Hermitian (defect {herm_defect:.3e})")
        eigs = np.linalg.eigvalsh(w)
        if np.min(eigs) <= 0:
            bad = int(np.argmin(np.min(eigs, axis=-1)))
            raise GridError(
                f"fibre product weight is not positive definite at point index {bad} "
                f"(min eigenvalue {np.min(eigs):.3e})"
            )
        # Validated once and taken as fixed, so laid out for `by_point` once.
        self._by_point = np.ascontiguousarray(np.moveaxis(w, 0, -1))
        # Weights with exactly zero off-diagonal entries, such as a phase
        # frame's, as their (m, N) diagonal; otherwise None.
        off = ~np.eye(w.shape[-1], dtype=bool)
        self._diagonal = None if np.any(w[:, off]) else np.diagonal(self._by_point).T.copy()

    @property
    def components(self) -> int:
        return self.weights.shape[-1]

    def by_point(self, npoints: int) -> np.ndarray:
        """Weights as an (m, m, N) array with the point index last."""
        if self.weights.shape[0] != npoints:
            raise GridError(
                f"fibre product sampled at {self.weights.shape[0]} points, grid has {npoints}"
            )
        return self._by_point


def inner(a: GridFunction, b: GridFunction, fibre_product: FibreProduct | None = None) -> complex:
    """h * sum_x a(x)^dagger . w(x) . b(x), conjugate-linear in `a`."""
    _require_same_grid(a, b)
    return complex(stacked_inner(a.grid, a.values, b.values, fibre_product))


def stacked_inner(
    grid: SpatialGrid1D,
    a: np.ndarray,
    b: np.ndarray,
    fibre_product: FibreProduct | None = None,
) -> np.ndarray:
    """`inner` of each pair of states stacked in the value arrays a and b of
    shape (..., m, N); an array of shape (...).

    Each state's sum over components and points runs in the memory order of
    its entries, as it does for a single state, so every entry equals
    `inner` of its pair exactly.
    """
    if a.ndim < 2 or a.shape != b.shape or a.shape[-1] != grid.npoints:
        raise GridError(f"value arrays of shapes {a.shape} and {b.shape} on {grid.npoints} points")
    if fibre_product is not None:
        if fibre_product.components != a.shape[-2]:
            raise GridError(
                f"fibre product is {fibre_product.components}-dimensional, "
                f"state has {a.shape[-2]} components"
            )
        # Written in b's layout, which the sum below then follows.  Diagonal
        # weights take one broadcast multiply, whose products are the only
        # nonzero terms of the einsum's sums.
        weights = fibre_product.by_point(grid.npoints)  # checks the point count
        out = np.empty_like(b, dtype=complex)
        if fibre_product._diagonal is not None:
            b = np.multiply(fibre_product._diagonal, b, out=out)
        else:
            b = np.einsum("ijx,...jx->...ix", weights, b, out=out)
    return grid.spacing * np.sum(np.conj(a) * b, axis=(-2, -1))


def discrete_delta(grid: SpatialGrid1D, x0: float) -> GridFunction:
    """Unit-mass discrete delta: 1/h at the grid point nearest x0."""
    values = np.zeros((1, grid.npoints), dtype=complex)
    values[0, grid.nearest_index(x0)] = 1.0 / grid.spacing
    return GridFunction(grid, values)
