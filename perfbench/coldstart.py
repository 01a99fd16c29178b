"""One cold start of a workload: import bundlewave, parse the config and
build grid, factory, frame and initial state, then exit.

``run.py`` times this script in a fresh interpreter for ``setup_s``:

    python3 perfbench/coldstart.py <workload> <seed> <work directory>
"""

import sys
from pathlib import Path

import workloads


def main(argv: list[str]) -> int:
    name, seed, workdir = argv[0], int(argv[1]), Path(argv[2])
    workloads.use_checkout_source(Path(__file__).resolve().parent.parent)
    workloads.WORKLOADS[name](workdir, seed).cold_start()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
