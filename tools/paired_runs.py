"""Alternating paired runs of the benchmark on two checkouts.

    python3 tools/paired_runs.py PARENT CHANGE --workloads audit-exhaustive \
        --seeds 1,7 --pairs 10 --seconds 30

PARENT and CHANGE are the roots of two advicemech checkouts.  For each
workload and seed, it runs `perfbench/run.py --trace 0` in each checkout
once per pair, the change first on odd pairs and the parent first on even
ones, so that a drift of the machine falls on both sides alike.  A run
that is not `correct` or has failed operations stops the tool.

For every end-to-end metric of the change's BENCHMARK.json it then prints
one markdown table row per (workload, seed), each cell reading

    parent median [Q1, Q3] -> change median, relative change, pairs won

where a pair is won when the change's value is better than the parent's
in the direction the metric names.  Two flags may follow: `unresolved`
when the medians differ by no more than the parent's interquartile range,
and `over bound` when the change's median is worse than the parent's by
more than the metric's relative `bound` in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py` run in `tree`: its end-to-end metric values."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"paired_runs: {tree} {workload} seed {seed}: correct={result['correct']}, "
                 f"failed={result['failed']}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def number(value: float) -> str:
    if value >= 1e6:
        return f"{value / 1e6:.2f}M"
    if value >= 1000:
        return f"{value:,.0f}"
    if value >= 10:
        return f"{value:.2f}"
    return f"{value:.4f}"


def cell(parent: list, change: list, metric: dict) -> str:
    """median [Q1, Q3] of the parent -> the change's median, the relative
    change of the medians, the pairs the change won, and the flags
    `unresolved` and `over bound`, for `metric`, an `end_to_end` entry of
    BENCHMARK.json."""
    q1, mid, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    new = statistics.median(change)
    sign = 1 if metric["better"] == "higher" else -1
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    flags = [flag for flag, on in (("unresolved", abs(new - mid) <= q3 - q1),
                                   ("over bound", sign * (mid - new) > metric["bound"] * mid)) if on]
    return ", ".join([f"{number(mid)} [{number(q1)}, {number(q3)}] → {number(new)}",
                      f"{(new - mid) / mid:+.1%}", f"{won}/{len(parent)}", *flags])


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", default="1", help="comma-separated seeds")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args(argv)
    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    rows = []
    for workload in args.workloads.split(","):
        for seed in map(int, args.seeds.split(",")):
            runs = {args.parent: [], args.change: []}
            for pair in range(1, args.pairs + 1):
                order = (args.change, args.parent) if pair % 2 else (args.parent, args.change)
                for tree in order:
                    runs[tree].append(run(tree, workload, seed, args.seconds))
                print(f"{workload} seed {seed} pair {pair}: "
                      + ", ".join(f"{m['name']} {runs[args.parent][-1][m['name']]:.6g} → "
                                  f"{runs[args.change][-1][m['name']]:.6g}" for m in metrics),
                      file=sys.stderr, flush=True)
            cells = [
                cell([r[m["name"]] for r in runs[args.parent]],
                     [r[m["name"]] for r in runs[args.change]], m)
                for m in metrics
            ]
            rows.append(f"| {workload}, {seed} | " + " | ".join(cells) + " |")
    print("| workload, seed | " + " | ".join(f"`{m['name']}`" for m in metrics) + " |")
    print("| --- |" + " --- |" * len(metrics))
    print("\n".join(rows))


if __name__ == "__main__":
    main()
