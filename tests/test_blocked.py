"""The blocked Crank-Nicolson apply of transport frames (`bundlewave.blocked`)
against scipy's LU solves of the same steps, on sizes that leave a partial
column block or none at all."""

import numpy as np
import pytest
import scipy.linalg

from bundlewave import blocked, evolution


@pytest.mark.parametrize("n", [1, 7, 64, 65, 150])
def test_apply_rows_matches_the_scipy_solves(n):
    rng = np.random.default_rng(n)
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    matrix = np.eye(n) + 0.3j * (h + h.conj().T)
    x = rng.normal(size=(n + 3, n)) + 1j * rng.normal(size=(n + 3, n))
    info, factors = evolution._blocked_lu(matrix.copy())
    assert info == 0
    out = np.empty_like(x)
    blocked.apply_rows(factors, x, out)
    solved = scipy.linalg.lu_solve(scipy.linalg.lu_factor(matrix.T), x.T).T
    expected = 2.0 * solved - x
    assert np.max(np.abs(out - expected)) <= 1e-13 * np.max(np.abs(expected))
    # Slabs of rows that start at a multiple of 8 hold the bits of the whole.
    slabs = np.empty_like(x)
    for rows in (slice(0, 8), slice(8, None)):
        blocked.apply_rows(factors, x[rows], slabs[rows])
    assert np.array_equal(slabs, out)


def test_blas_calls_refuse_arrays_they_cannot_read_in_place():
    rng = np.random.default_rng(3)
    a, b, c = (rng.normal(size=shape) + 0j for shape in ((4, 4), (2, 3), (4, 3)))
    with pytest.raises(ValueError, match="rows are contiguous"):
        blocked._subtract(a[:, ::2], b, c)
    with pytest.raises(ValueError, match="rows are contiguous"):
        blocked._subtract(a[:, :2].real.copy(), b, c)
    with pytest.raises(ValueError, match="cannot multiply"):
        blocked._subtract(a, b, c)
    with pytest.raises(ValueError, match="square"):
        blocked._multiply(True, a[:3, :2], c[:, :3])
    with pytest.raises(ValueError, match="cannot multiply"):
        blocked._multiply(True, a, c)
