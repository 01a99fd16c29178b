"""Write the command line's byte-identity tables into one directory.

Every table is written in-process through `bundlewave.cli.main`:

* `run` and `green` on the kg-canonical configuration of the c13
  acceptance criterion and on the `ini` block of the README;
* `run` and `reduce` on the c13 configuration in a constant frame
  (`angle = 0.4`) and in a phase frame (`amplitude = 0.7`);
* `run` and `reduce` on the `run-dirac-static` benchmark configuration,
  `green` on `green-dirac-born`, and on that configuration at Born orders
  0, 1 and 3 and with `kind = schrodinger`, a basis of one component group;

each at every seed, and `check` with all suites at seed 7.  Table NAME at
seed S lands in OUT/NAME-seedS/.  Two checkouts that print the same
numbers give directories that `diff -r` finds equal.  Prints one
`table,exit_code` line per table and fails unless every command exits 0.

The last digits of some tables depend on the size of the BLAS thread pool,
which numpy reads when it loads.  Unless numpy is loaded already, `main`
pins the pool to `--threads` threads (default 1) first, as
`perfbench/run.py` does; called in a process that has loaded numpy, it
pins nothing.  Either way OUT/blas.txt records the pool variables it ran
under, so two outputs taken at different settings differ in that file.

Example, at one and at two BLAS threads:

    PYTHONPATH=src python3 scripts/table_gate.py /tmp/tables-before
    PYTHONPATH=src python3 scripts/table_gate.py /tmp/tables-after
    diff -r /tmp/tables-before /tmp/tables-after
    PYTHONPATH=src python3 scripts/table_gate.py --threads 2 /tmp/tables-2
"""

import argparse
import os
import re
import sys
import tempfile
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_CONFIGS = ROOT / "perfbench" / "configs"
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The configuration of `test_c13_cli_determinism`, and its framed variants.
C13_CONFIG = textwrap.dedent(
    """
    [model]
    kind = kg-canonical
    [grid]
    points = 16
    [evolution]
    time-step = 0.01
    steps = 5
    [initial]
    profile = random
    """
)
C13_FRAMES = {
    "c13-frame-constant": "[frame]\nprofile = constant\nangle = 0.4\n",
    "c13-frame-phase": "[frame]\nprofile = phase\namplitude = 0.7\n",
}


def _readme_config() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```ini\n(.*?)^```", readme, re.MULTILINE | re.DOTALL)
    if len(blocks) != 1:
        raise SystemExit(f"README.md holds {len(blocks)} ini blocks, expected one")
    return blocks[0]


def _variant(text: str, key: str, value: str) -> str:
    """`text` with its one `key = ...` line set to `value`."""
    changed, count = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.MULTILINE)
    if count != 1:
        raise SystemExit(f"expected one {key!r} line in the configuration, found {count}")
    return changed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="directory that receives the tables")
    parser.add_argument("--seeds", type=int, nargs="+", default=[5, 7, 1001])
    parser.add_argument("--threads", type=int, default=1,
                        help="BLAS threads, pinned unless numpy is loaded already")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if "numpy" not in sys.modules:
        for variable in BLAS_VARIABLES:
            os.environ[variable] = str(args.threads)
    from bundlewave.cli import EXIT_OK, main as cli_main

    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "blas.txt").write_text(
        "".join(f"{name}={os.environ.get(name, '')}\n" for name in BLAS_VARIABLES),
        encoding="utf-8",
    )
    born = (BENCH_CONFIGS / "green-dirac-born.cfg").read_text(encoding="utf-8")
    failed = False
    with tempfile.TemporaryDirectory() as scratch:
        variants = {f"dirac-born-order{order}": _variant(born, "born-order", str(order))
                    for order in (0, 1, 3)}
        variants["schrodinger-born"] = _variant(born, "kind", "schrodinger")
        written = {}
        framed = {name: C13_CONFIG + section for name, section in C13_FRAMES.items()}
        configs = [("c13", C13_CONFIG), ("readme", _readme_config()), *framed.items(),
                   *variants.items()]
        for name, text in configs:
            written[name] = Path(scratch) / f"{name}.cfg"
            written[name].write_text(text, encoding="utf-8")
        tables = [
            (f"{command}-{name}", [command, "--config", str(written[name])])
            for name in ("c13", "readme")
            for command in ("run", "green")
        ]
        tables += [
            (f"{command}-{name}", [command, "--config", str(written[name])])
            for name in framed
            for command in ("run", "reduce")
        ]
        static = str(BENCH_CONFIGS / "run-dirac-static.cfg")
        tables += [
            ("run-dirac-static", ["run", "--config", static]),
            ("reduce-dirac-static", ["reduce", "--config", static]),
            ("green-dirac-born", ["green", "--config", str(BENCH_CONFIGS / "green-dirac-born.cfg")]),
        ]
        tables += [(f"green-{name}", ["green", "--config", str(written[name])]) for name in variants]
        runs = [(f"{name}-seed{seed}", words + ["--seed", str(seed)])
                for seed in args.seeds for name, words in tables]
        runs.append(("check-seed7", ["check", "--seed", "7"]))
        sys.stdout.write("table,exit_code\n")
        for name, words in runs:
            code = cli_main(words + ["--out", str(args.out / name)])
            sys.stdout.write(f"{name},{code}\n")
            failed = failed or code != EXIT_OK
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
