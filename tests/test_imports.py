"""Where scipy is loaded: only on the routes that call it.

Each case runs in a fresh interpreter, since the test process has scipy
loaded already.  A `sys.meta_path` finder placed first records the thread
that first looks for `scipy.linalg`; a driven march must import it on the
calling thread, never on its LU worker.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

_PROBE = """\
import json, sys, threading
sys.path.insert(0, {src!r})


class FirstImport:
    thread = None

    def find_spec(self, name, path=None, target=None):
        if name == "scipy.linalg" and FirstImport.thread is None:
            FirstImport.thread = threading.current_thread().name
        return None


sys.meta_path.insert(0, FirstImport())
{code}
print(json.dumps({{"loaded": "scipy.linalg" in sys.modules, "thread": FirstImport.thread}}))
"""

_STATIC_CONFIG = """\
[model]
kind = dirac
charge = 1
[grid]
points = 16
length = 20
[potential]
scalar-profile = cosine
scalar-amplitude = 0.3
[evolution]
time-step = 0.01
steps = 20
method = crank-nicolson
[initial]
profile = random
[frame]
profile = phase
amplitude = 0.7
[output]
observables = position
"""

_DIRAC = """\
import numpy as np
from bundlewave.evolution import evolve
from bundlewave.grid import GridFunction, SpatialGrid1D
from bundlewave.reduction import Potentials, dirac_hamiltonian
grid = SpatialGrid1D(16, 20.0)
profile = 0.3 * np.cos(2.0 * np.pi * grid.points / grid.length)
state = GridFunction(grid, np.exp(-grid.points**2) * np.ones((4, 1)))
"""

# (code, whether it loads scipy.linalg); {config} and {out} name a static
# Crank-Nicolson configuration with a phase frame and an output directory.
ROUTES = {
    "import": ("import bundlewave, bundlewave.cli", False),
    "run": ("from bundlewave import cli\n"
            "assert cli.main(['run', '--config', {config!r}, '--out', {out!r}]) == 0", False),
    "reduce": ("from bundlewave import cli\n"
               "assert cli.main(['reduce', '--config', {config!r}, '--out', {out!r}]) == 0",
               False),
    "static march": (_DIRAC + "evolve(state, dirac_hamiltonian(1.0, 1.0), 0.01, 20)", False),
    "driven march": (_DIRAC + "factory = dirac_hamiltonian(1.0, 1.0, Potentials(\n"
                              "    scalar=lambda t: profile * np.cos(3.0 * t)))\n"
                              "evolve(state, factory, 0.01, 5)", True),
    "exponential march": (_DIRAC + "evolve(state, dirac_hamiltonian(1.0, 1.0), 0.01, 5,\n"
                                   "       method='midpoint-exponential')", True),
    "transport": ("import numpy as np\n"
                  "from bundlewave.bundle import PathSampling, TransportAlongMap\n"
                  "TransportAlongMap(PathSampling.uniform(0.0, 1.0, 3), np.stack([np.eye(2)] * 3))",
                  True),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_scipy_is_loaded_only_by_the_routes_that_call_it(route, tmp_path):
    code, loads = ROUTES[route]
    config = tmp_path / "static.cfg"
    config.write_text(_STATIC_CONFIG, encoding="utf-8")
    code = code.format(config=str(config), out=str(tmp_path / "out"))
    script = _PROBE.format(src=str(SRC), code=textwrap.dedent(code))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen["loaded"] is loads
    # The first import, where there is one, runs on the calling thread.
    assert seen["thread"] == ("MainThread" if loads else None)
