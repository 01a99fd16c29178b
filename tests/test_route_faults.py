"""Faults injected into the library's stepper must be seen by the route
suite (`test_routes.py`).

Each fault is put in by monkeypatching and run over derandomized examples
of the suite's strategy; some column must then exceed its tolerance.  A
refactor that renames a patched internal moves the patch with it.
"""

from hypothesis import given, settings

from bundlewave import evolution
from test_routes import TOLERANCE, examples, route_differences

EXAMPLES = 50


def _exceeded(columns) -> list:
    """(column, difference) beyond tolerance, among `columns`, over the
    suite's first EXAMPLES derandomized examples."""
    seen = []

    @settings(max_examples=EXAMPLES, derandomize=True, database=None, deadline=None)
    @given(examples())
    def run(example):
        differences = route_differences(**example)
        seen.extend((name, differences[name]) for name in columns
                    if differences[name] > TOLERANCE[name])

    run()
    return seen


def test_crank_nicolson_at_half_the_step_is_caught_by_the_spectral_march(monkeypatch):
    # `_StepFactors` serves `EvolutionOperator` and `evolution_transport`,
    # and `evolve` wherever the spectral route does not.  Only a driven
    # Crank-Nicolson `evolve` on a periodic grid sets them against code
    # that is not theirs.  The faulty step keeps its midpoint,
    # t + dt / 4 + (dt / 2) / 2, so only its size is wrong.
    call = evolution._StepFactors.__call__

    def halved(self, t, dt, units=False):
        if self.method != "crank-nicolson":
            return call(self, t, dt, units)
        return call(self, t + dt / 4.0, dt / 2.0, units)

    monkeypatch.setattr(evolution._StepFactors, "__call__", halved)
    assert _exceeded(("operator", "transport"))
