"""Shared fixtures."""

import pytest


@pytest.fixture
def derivative_calls(monkeypatch):
    """A list that gains one entry per derivative realization.

    `DerivativeOp` realizes through algebra's reference to
    `grid.derivative_values`, so that reference is counted."""
    import bundlewave.algebra as algebra_module

    calls = []
    derivative = algebra_module.derivative_values

    def counted(*args, **kwargs):
        calls.append(1)
        return derivative(*args, **kwargs)

    monkeypatch.setattr(algebra_module, "derivative_values", counted)
    return calls
