"""Faults injected into the library's stepper must be seen by the route
suite (`test_routes.py`).

Each fault is put in by monkeypatching and run over derandomized examples
of the suite's strategy, stopping at the first example where some column
exceeds its tolerance, without shrinking; one must within EXAMPLES.  A
refactor that renames a patched internal moves the patch with it.
"""

import numpy as np
import scipy.linalg
from hypothesis import Phase, given, settings

from bundlewave import evolution
from test_routes import TOLERANCE, examples, route_differences

EXAMPLES = 50


def _exceeded(columns) -> list:
    """(column, difference) beyond tolerance, among `columns`, at the first
    of the suite's first EXAMPLES derandomized examples that has any."""
    seen = []

    @settings(max_examples=EXAMPLES, derandomize=True, database=None, deadline=None,
              phases=[Phase.generate])
    @given(examples())
    def run(example):
        if seen:
            return
        differences = route_differences(**example)
        seen.extend((name, differences[name]) for name in columns
                    if name in differences and differences[name] > TOLERANCE[name])

    run()
    return seen


def test_crank_nicolson_at_half_the_step_is_caught_by_the_spectral_march(monkeypatch):
    # `_StepFactors` serves `EvolutionOperator` and `evolution_transport`,
    # and `evolve` wherever the spectral route does not.  Only a driven
    # Crank-Nicolson `evolve` on a periodic grid sets them against code
    # that is not theirs.  The faulty step keeps its midpoint,
    # t + dt / 4 + (dt / 2) / 2, so only its size is wrong.
    call = evolution._StepFactors.__call__

    def halved(self, t, dt, finish=None):
        if self.method != "crank-nicolson":
            return call(self, t, dt, finish)
        return call(self, t + dt / 4.0, dt / 2.0, finish)

    monkeypatch.setattr(evolution._StepFactors, "__call__", halved)
    assert _exceeded(("operator", "transport"))


def test_component_groups_split_into_singletons_are_caught(monkeypatch):
    # Each component is stepped alone, so the blocks that couple two
    # components are dropped from every library route.
    monkeypatch.setattr(evolution, "_component_groups",
                        lambda op: [[i] for i in range(op.shape[0])])
    assert _exceeded(TOLERANCE)


def test_every_same_size_block_taken_as_a_twin_is_caught(monkeypatch):
    # In `evolution` alone: `green` keeps its own binding of `_map_distinct`,
    # whose default `same` was bound when the module loaded, so both the
    # default and the name the driven twin rule calls are patched here.
    def same_size(a, b):
        return np.shape(a) == np.shape(b)

    distinct = evolution._map_distinct
    monkeypatch.setattr(evolution, "_map_distinct",
                        lambda function, items, same=same_size: distinct(function, items, same))
    monkeypatch.setattr(evolution, "_same_bits", same_size)
    assert _exceeded(TOLERANCE)


def test_h_taken_at_the_step_start_is_caught_by_the_textbook_stepper(monkeypatch):
    # Every library route takes H through `_midpoint`, so they all move
    # together: only the in-test textbook stepper keeps the midpoint.
    monkeypatch.setattr(evolution, "_midpoint", lambda t, dt: t)
    assert _exceeded(("steps",))


def test_exponent_sign_flipped_is_caught(monkeypatch):
    # Every exponential the stepper takes runs backward in time.
    class Flipped:
        def __getattr__(self, name):
            return getattr(scipy.linalg, name)

        @staticmethod
        def expm(a):
            return scipy.linalg.expm(-a)

    monkeypatch.setattr(evolution, "_bind_scipy", Flipped)
    assert _exceeded(TOLERANCE)
