"""Run the benchmark on two checkouts in alternating pairs and fold the
runs into one BENCH record.

    python3 scripts/bench_pairs.py PARENT CHANGE --out BENCH.json \
        [--workload W ...] [--pairs 10] [--seconds 10] [--seed 2701] \
        [--claim WORKLOAD:METRIC] [--summary TEXT]

PARENT and CHANGE are two checkouts of the repository.  For each workload,
one unrecorded warm-up run per side comes first (seed - 1).  Then pair p
runs `perfbench/run.py --trace 0` once from each checkout, one at a time,
with seed + p; the parent runs first on even pairs and the change on odd
ones.  `os.getloadavg()` is read before and after every run.

The record holds, per workload and side, the median, q1, q3 and n of every
end-to-end metric (quartiles by linear interpolation, as
`numpy.percentile`), and per metric the number of pairs in which the change
read better or worse; equal readings count for neither.  A claim is met
when the change read better in at least nine tenths of the pairs and the
medians differ by more than the parent's interquartile range.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run from `checkout`: its host record, its result and
    the load averages before and after it."""
    before = os.getloadavg()
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=True)
    after = os.getloadavg()
    lines = done.stdout.splitlines()
    host = next(json.loads(line[len("host "):]) for line in lines if line.startswith("host "))
    return {"host": host, "result": json.loads(lines[-1]),
            "load": {"before": list(before), "after": list(after)}}


def _quartiles(values: list, unit: str) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "n": len(values), "unit": unit}


def fold(pairs: list, better: dict) -> dict:
    """The record of one workload from its pairs.

    Each pair is {"pair", "seed", "first", "parent": run, "change": run},
    a run as `run_once` returns it; `better` maps each metric to "lower" or
    "higher"."""
    record = {"seeds": [pair["seed"] for pair in pairs],
              "blas_threads": pairs[0]["parent"]["host"].get("blas_threads")}
    for side in SIDES:
        results = [pair[side]["result"] for pair in pairs]
        summary = {"runs": len(results),
                   "attempted": sum(result["attempted"] for result in results),
                   "failed": sum(result["failed"] for result in results)}
        for metric in better:
            readings = [result["metrics"][metric] for result in results]
            summary[metric] = _quartiles([r["value"] for r in readings], readings[0]["unit"])
        record[side] = summary
    record["pairs"] = {}
    for metric, direction in better.items():
        sign = 1.0 if direction == "lower" else -1.0
        gains = [sign * (pair["parent"]["result"]["metrics"][metric]["value"]
                         - pair["change"]["result"]["metrics"][metric]["value"]) for pair in pairs]
        record["pairs"][metric] = {"change_better": sum(gain > 0 for gain in gains),
                                   "change_worse": sum(gain < 0 for gain in gains),
                                   "pairs": len(gains)}
    record["load"] = [{"pair": pair["pair"], "seed": pair["seed"], "first": pair["first"],
                       **{side: pair[side]["load"] for side in SIDES}} for pair in pairs]
    return record


def claim(record: dict, workload: str, metric: str, direction: str) -> dict:
    """Whether the change met a claimed gain on one workload's record."""
    parent, change = record["parent"][metric], record["change"][metric]
    counts = record["pairs"][metric]
    gap = parent["median"] - change["median"]
    if direction == "higher":
        gap = -gap
    spread = parent["q3"] - parent["q1"]
    met = counts["change_better"] >= 0.9 * counts["pairs"] and gap > spread
    reading = (f"median {parent['median']:.4g} -> {change['median']:.4g} {parent['unit']} "
               f"({100.0 * (change['median'] - parent['median']) / parent['median']:+.1f} %); "
               f"the change read better in {counts['change_better']} of {counts['pairs']} pairs "
               f"and worse in {counts['change_worse']}; the gap ({gap:.4g}) "
               f"{'exceeds' if gap > spread else 'does not exceed'} the parent's "
               f"interquartile range ({spread:.4g}).")
    return {"workload": workload, "metric": metric, "better": direction, "met": bool(met),
            "reading": reading}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=2701)
    parser.add_argument("--claim", help="WORKLOAD:METRIC of a claimed gain")
    parser.add_argument("--summary", default="", help="what the change does")
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    workloads = args.workload or [workload["name"] for workload in spec["workloads"]]
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    folded, host = {}, None
    for workload in workloads:
        for side in SIDES:
            run_once(checkouts[side], workload, args.seed - 1, args.seconds)
        pairs = []
        for p in range(args.pairs):
            order = SIDES if p % 2 == 0 else SIDES[::-1]
            pair = {"pair": p, "seed": args.seed + p, "first": order[0]}
            for side in order:
                pair[side] = run_once(checkouts[side], workload, args.seed + p, args.seconds)
                print(f"{workload} pair {p} {side}: "
                      f"{json.dumps(pair[side]['result']['metrics'])}", flush=True)
            pairs.append(pair)
        # The seed and the thread count belong to each run and workload.
        host = host or {key: value for key, value in pairs[0]["parent"]["host"].items()
                        if key not in ("seed", "blas_threads")}
        folded[workload] = fold(pairs, better)
    record = {
        "change": args.summary,
        "method": (f"scripts/bench_pairs.py: python3 perfbench/run.py --workload <w> --seed "
                   f"<{args.seed}+pair> --seconds {args.seconds} --trace 0, parent and change each "
                   f"from its own checkout; one unrecorded warm-up run per side and workload (seed "
                   f"{args.seed - 1}), then {args.pairs} pairs per workload, the side that runs "
                   "first alternating (parent first on even pairs), one run at a time; "
                   "os.getloadavg() read before and after every run (under 'load'); quartiles by "
                   "linear interpolation (numpy.percentile). 'pairs' counts the pairs in which the "
                   "change read better or worse."),
        "claim": None,
        "host": host,
        "workloads": folded,
        "notes": [],
    }
    if args.claim:
        workload, metric = args.claim.split(":")
        record["claim"] = claim(folded[workload], workload, metric, better[metric])
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
