"""Where scipy is loaded: only on the routes that call it, and with a
bounded idle spin; and where numpy's own LAPACK is bound.

Each case runs in a fresh interpreter, since the test process has scipy
loaded already.  A `sys.meta_path` finder placed first records the thread
that first looks for `scipy.linalg`, which must be the calling thread.
Every Crank-Nicolson LU runs in numpy's bundled OpenBLAS
(`algebra._bind_lapack`), so only the midpoint exponential loads scipy.
The OpenBLAS libraries that a route maps (read from /proc/self/maps)
report the idle spin they loaded with through their
`openblas_thread_timeout()`.
"""

import _ctypes
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from bundlewave import algebra, cli
from bundlewave.algebra import SCIPY_SPIN_EXPONENT
from bundlewave.bundle import PathSampling, evolution_transport
from bundlewave.evolution import EvolutionError, evolve
from bundlewave.grid import GridFunction, SpatialGrid1D
from bundlewave.reduction import Potentials, dirac_hamiltonian

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

_PROBE = """\
import ctypes, json, os, sys, threading
sys.path.insert(0, {src!r})


class FirstImport:
    thread = None

    def find_spec(self, name, path=None, target=None):
        if name == "scipy.linalg" and FirstImport.thread is None:
            FirstImport.thread = threading.current_thread().name
        return None


def openblas():
    \"\"\"The OpenBLAS libraries mapped into this process.\"\"\"
    with open("/proc/self/maps") as maps:
        return {{line.split()[-1] for line in maps if "openblas" in line.rsplit("/", 1)[-1]}}


def spins(paths):
    return [ctypes.CDLL(path).openblas_thread_timeout() for path in sorted(paths)]


sys.meta_path.insert(0, FirstImport())
import numpy
before = openblas()
{code}
getenv = ctypes.CDLL(None).getenv
getenv.restype = ctypes.c_char_p
variable = getenv(b"OPENBLAS_THREAD_TIMEOUT")
algebra = sys.modules.get("bundlewave.algebra")
print(json.dumps({{"loaded": "scipy.linalg" in sys.modules, "thread": FirstImport.thread,
                  "lapack": algebra is not None and algebra._lapack is not None,
                  "numpy_spin": spins(before), "scipy_spin": spins(openblas() - before),
                  "environ": os.environ.get("OPENBLAS_THREAD_TIMEOUT"),
                  "getenv": variable and variable.decode()}}))
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
    # A driven Crank-Nicolson march takes FFTs on a periodic grid, and an LU
    # per step in numpy's OpenBLAS on a reflecting one.
    "driven march": (_DIRAC + "factory = dirac_hamiltonian(1.0, 1.0, Potentials(\n"
                              "    scalar=lambda t: profile * np.cos(3.0 * t)))\n"
                              "evolve(state, factory, 0.01, 5)", False),
    "reflecting driven march": (
        _DIRAC + "walled = SpatialGrid1D(16, 20.0, 'reflecting')\n"
                 "factory = dirac_hamiltonian(1.0, 1.0, Potentials(\n"
                 "    scalar=lambda t: profile * np.cos(3.0 * t)))\n"
                 "evolve(GridFunction(walled, state.values), factory, 0.01, 5)", False),
    "exponential march": (_DIRAC + "evolve(state, dirac_hamiltonian(1.0, 1.0), 0.01, 5,\n"
                                   "       method='midpoint-exponential')", True),
    "transport": ("import numpy as np\n"
                  "from bundlewave.bundle import PathSampling, TransportAlongMap\n"
                  "TransportAlongMap(PathSampling.uniform(0.0, 1.0, 3), np.stack([np.eye(2)] * 3))",
                  False),
    "crank-nicolson transport": (
        _DIRAC + "from bundlewave.bundle import PathSampling, evolution_transport\n"
                 "factory = dirac_hamiltonian(1.0, 1.0, Potentials(\n"
                 "    scalar=lambda t: profile * np.cos(3.0 * t)))\n"
                 "evolution_transport(factory, grid, PathSampling.uniform(0.0, 0.1, 3),\n"
                 "                    'crank-nicolson', 2)", False),
    "singular index": ("import numpy as np\n"
                       "from bundlewave.algebra import singular_index\n"
                       "assert singular_index(np.stack([np.eye(2)] * 3)) is None", False),
}
# The routes that bind numpy's LAPACK: the Crank-Nicolson LUs and the
# conditioning guard.  A static march, and the FFT march, bind nothing.
BINDS = {"reflecting driven march", "crank-nicolson transport", "transport", "singular index"}


def _probe(route, tmp_path, env=None) -> dict:
    """What the probe saw after running `route` in a fresh interpreter."""
    code, _ = ROUTES[route]
    config = tmp_path / "static.cfg"
    config.write_text(_STATIC_CONFIG, encoding="utf-8")
    code = code.format(config=str(config), out=str(tmp_path / "out"))
    script = _PROBE.format(src=str(SRC), code=textwrap.dedent(code))
    if env is None:
        env = {name: value for name, value in os.environ.items()
               if name != "OPENBLAS_THREAD_TIMEOUT"}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_scipy_is_loaded_only_by_the_routes_that_call_it(route, tmp_path):
    loads = ROUTES[route][1]
    seen = _probe(route, tmp_path)
    assert seen["loaded"] is loads
    # The first import, where there is one, runs on the calling thread.
    assert seen["thread"] == ("MainThread" if loads else None)
    # scipy's OpenBLAS, mapped only where scipy is loaded, spins for
    # 2^SCIPY_SPIN_EXPONENT cycles; numpy's keeps OpenBLAS's default (0
    # reads as 2^28), and the environment is left as it was.
    assert seen["scipy_spin"] == ([SCIPY_SPIN_EXPONENT] if loads else [])
    assert seen["numpy_spin"] == [0]
    assert seen["environ"] is None and seen["getenv"] is None
    assert seen["lapack"] is (route in BINDS)


@pytest.mark.parametrize("route", ["exponential march"])
def test_a_spin_set_by_the_user_is_kept(route, tmp_path):
    seen = _probe(route, tmp_path, env={**os.environ, "OPENBLAS_THREAD_TIMEOUT": "26"})
    assert seen["scipy_spin"] == [26] and seen["numpy_spin"] == [26]
    assert seen["environ"] == "26" and seen["getenv"] == "26"


def test_a_numpy_without_ilp64_lapack_is_refused_at_the_first_lu(monkeypatch, capsys):
    # numpy's linalg extension taken to be ctypes' own, which exports
    # neither spelling of any LAPACK routine.
    monkeypatch.setattr(algebra, "_lapack", None)
    monkeypatch.setattr(np.linalg._umath_linalg, "__file__", _ctypes.__file__)
    message = ("numpy's OpenBLAS exports neither scipy_zgetrf_64_ nor zgetrf_64_; "
               "bundlewave needs a numpy that bundles ILP64 LAPACK")
    grid = SpatialGrid1D(16, 20.0, "reflecting")
    profile = 0.3 * np.cos(2.0 * np.pi * grid.points / grid.length)
    factory = dirac_hamiltonian(1.0, 1.0, Potentials(scalar=lambda t: profile * np.cos(3.0 * t)))
    state = GridFunction(grid, np.exp(-grid.points**2) * np.ones((4, 1)))
    seen = []
    with pytest.raises(EvolutionError, match=f"^{re.escape(message)}$"):
        evolve(state, factory, 0.01, 5, callback=lambda t, s: seen.append(t))
    assert seen == []
    with pytest.raises(EvolutionError, match=f"^{re.escape(message)}$"):
        evolution_transport(factory, grid, PathSampling.uniform(0.0, 0.1, 3), "crank-nicolson")
    # A static march needs no LU; the CLI's conditioning guard, in the
    # bundle checks' gauge change, ends in exit 3 with one line.
    static = dirac_hamiltonian(1.0, 1.0, Potentials(scalar=profile))
    assert np.all(np.isfinite(evolve(state, static, 0.01, 5).values))
    assert cli.main(["check", "bundle"]) == cli.EXIT_NUMERICAL == 3
    assert capsys.readouterr().err == f"numerical failure: {message}\n"
    assert algebra._lapack is None


_BITS = """\
import sys
sys.path.insert(0, {src!r})
import numpy as np
from bundlewave import cli
from bundlewave.bundle import PathSampling, evolution_transport
from bundlewave.evolution import evolve
from bundlewave.grid import GridFunction, SpatialGrid1D
from bundlewave.reduction import Potentials, dirac_hamiltonian

out = {out!r}
assert cli.main(["green", "--config", {config!r}, "--out", out]) == 0
grid = SpatialGrid1D(64, 20.0)
profile = 0.3 * np.cos(2.0 * np.pi * grid.points / grid.length)
factory = dirac_hamiltonian(1.0, 1.0, Potentials(scalar=lambda t: profile * np.cos(3.0 * t)))
state = GridFunction(grid, np.exp(-grid.points**2) * np.ones((4, 1)))
marched = evolve(state, factory, 0.01, 20)
transport = evolution_transport(factory, grid, PathSampling.uniform(0.0, 0.2, 5),
                                "crank-nicolson", 2)
np.savez(out + "/routes.npz", state=marched.values, frames=transport.frames)
"""


def test_the_bounded_spin_keeps_the_bits_at_two_blas_threads(tmp_path):
    # OpenBLAS's default spin, 2^28 cycles, set by hand against the bounded
    # one: the spin decides only when an idle worker sleeps.
    config = ROOT / "perfbench" / "configs" / "green-dirac-born.cfg"
    base = {name: value for name, value in os.environ.items()
            if name != "OPENBLAS_THREAD_TIMEOUT"}
    base.update(OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
    outs = []
    for name, env in (("default", {**base, "OPENBLAS_THREAD_TIMEOUT": "28"}),
                      ("bounded", base)):
        out = tmp_path / name
        script = _BITS.format(src=str(SRC), out=str(out), config=str(config))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=300)
        assert done.returncode == 0, done.stderr
        outs.append(out)
    default, bounded = outs
    assert (default / "green.csv").read_bytes() == (bounded / "green.csv").read_bytes()
    with np.load(default / "routes.npz") as before, np.load(bounded / "routes.npz") as after:
        assert np.array_equal(before["state"], after["state"])
        assert np.array_equal(before["frames"], after["frames"])
