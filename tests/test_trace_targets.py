"""The benchmark's tracer patches bundlewave names; each must still exist.

`perfbench/tracing.py` is read, never changed: its `LAYER_TARGETS` name a
module attribute, or "Class.method", which it patches through the class's
own `__dict__`.  A refactor that removes or moves a traced name fails here.
"""

import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _layer_targets():
    namespace = {"__name__": "tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), namespace)
    return namespace["LAYER_TARGETS"]


@pytest.mark.parametrize("span, module_name, attr", _layer_targets())
def test_every_traced_name_resolves(span, module_name, attr):
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, method = attr.split(".")
        assert method in vars(getattr(module, cls_name)), (span, attr)
    else:
        assert callable(getattr(module, attr)), (span, attr)


def test_evolution_transport_still_exposes_dense_frames():
    # The tracer's `bundle.frames_bytes` reads `frames.nbytes` of every
    # `evolution_transport` result, so `frames` must stay a dense stack.
    import numpy as np

    from bundlewave.bundle import PathSampling, evolution_transport
    from bundlewave.grid import SpatialGrid1D
    from bundlewave.reduction import dirac_hamiltonian

    grid = SpatialGrid1D(8, 6.0)
    transport = evolution_transport(dirac_hamiltonian(1.0), grid, PathSampling.uniform(0.0, 0.2, 3))
    assert isinstance(transport.frames, np.ndarray)
    assert transport.frames.shape == (3, 32, 32)
