"""Run N examples of the route suite and print each column's worst difference.

Draws N derandomized examples of the `examples()` strategy in
tests/test_routes.py, in the order a derandomized run of the suite draws
them, with no shrinking, runs each through `route_differences`, and prints
one line per column:

    column,worst,tolerance,factory
    operator,3.102547e-15,1e-13,dirac-gauged crank-nicolson

`worst` is the largest relative difference of the column to its reference
over the examples that have that column (`-` if none did), and `factory`
the label and method of the example that gave it.  A difference that is
not a number counts as the worst.  Exits 1 if any column exceeds its
`TOLERANCE`, else 0.  Example, the 2000-example gate run from the root of
a checkout:

    PYTHONPATH=src python3 scripts/route_sweep.py 2000
"""

import argparse
import sys
from pathlib import Path

from hypothesis import Phase, given, settings

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from test_routes import TOLERANCE, examples, route_differences  # noqa: E402


def sweep(count: int) -> dict:
    """{column: (worst difference, factory label and method)} over `count`
    derandomized examples; a column no example had is left out."""
    worst = {}

    @settings(max_examples=count, derandomize=True, database=None, deadline=None,
              phases=[Phase.generate])
    @given(examples())
    def run(example):
        kind = f"{example['factory'].label} {example['method']}"
        for name, difference in route_differences(**example).items():
            if name not in worst or not difference <= worst[name][0]:
                worst[name] = (difference, kind)

    run()
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("count", type=int, help="number of examples to draw")
    args = parser.parse_args(argv)
    worst = sweep(args.count)
    print("column,worst,tolerance,factory")
    exceeded = False
    for name, tolerance in TOLERANCE.items():
        if name not in worst:
            print(f"{name},-,{tolerance:.0e},-")
            continue
        difference, kind = worst[name]
        exceeded |= not difference <= tolerance
        print(f"{name},{difference:.6e},{tolerance:.0e},{kind}")
    return 1 if exceeded else 0


if __name__ == "__main__":
    sys.exit(main())
