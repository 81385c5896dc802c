"""Median latency of each operation of one workload's round, in process,
on two checkouts.

    python3 tools/op_times.py PARENT CHANGE --workload frontier-sweep \
        --seed 1 --rounds 15 --processes 2

PARENT and CHANGE are the roots of two advicemech checkouts.  Each process
imports the library from its checkout's `src/` and `perfbench/workloads.py`,
builds the seed's corpus once and runs `--rounds` rounds of the workload in
process (cli-corpus commands through `workloads.InProcessCli`), keeping
every operation's latency.  The trees take turns, the change first in odd
processes and the parent first in even ones, `--processes` times each.

It prints one markdown table row per operation, in round order, and one
for the whole round: the median latency in ms over every round of every
process of each tree, and the relative change.  An operation is named by
its verdict function and, where the raw result leads with one, the family
or the command; operations of one name in a round are summed and the row
says how many there are ("interpolation ×10").  A round's latency is the
sum of its operations, the time `perfbench/run.py` measures less one clock
read per operation.  Nothing under `perfbench/` is written.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def name(describe, result) -> str:
    """An operation's name: its verdict function's, and the family or the
    command its raw result leads with, if any."""
    kind = describe.__name__.strip("_").removesuffix("_verdict")
    head = result[0] if isinstance(result, tuple) and result else None
    if isinstance(head, str):
        return f"{kind} {head}"
    if isinstance(head, list) and head and isinstance(head[0], str):  # a command's argv
        return " ".join([kind, *head[:2]])
    return kind


def child(workload: str, seed: int, rounds: int) -> None:
    """In a checkout's root: print the (name, seconds) of every operation
    of `rounds` rounds, one JSON list per round."""
    sys.path[:0] = ["src", "perfbench"]
    import workloads

    build, run_round, _, _ = workloads.WORKLOADS[workload]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        corpus = build(seed, work, workloads.SubprocessCli(Path("src").resolve(), work))
        cli = workloads.InProcessCli(work)
        out = []
        for _ in range(rounds):
            ops = []
            run_round(corpus, ops, cli)
            out.append([(name(describe, result), s) for describe, result, s in ops if s is not None])
    print(json.dumps(out))


def rounds_of(tree: Path, workload: str, seed: int, rounds: int) -> list:
    """The latencies of `rounds` rounds in one process in `tree`."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", workload, str(seed), str(rounds)],
        cwd=tree, capture_output=True, text=True,
    )
    if done.returncode:
        sys.exit(f"op_times: {tree}: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(rounds: list) -> list:
    """(name, median seconds) per operation name, in the order the names
    first appear, with the count per round after the name when it is more
    than one, and last ("round", the median round total), from `rounds`,
    each a list of (name, seconds)."""
    totals = []
    for ops in rounds:
        per = {}
        for op, seconds in ops:
            count, total = per.get(op, (0, 0.0))
            per[op] = count + 1, total + seconds
        totals.append(per)
    rows = []
    for op in dict.fromkeys(op for per in totals for op in per):
        count = max(per[op][0] for per in totals if op in per)
        label = op if count == 1 else f"{op} ×{count}"
        rows.append((label, statistics.median(per[op][1] for per in totals if op in per)))
    rows.append(("round", statistics.median(sum(s for _, s in ops) for ops in rounds)))
    return rows


def main(argv=None) -> None:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        return child(argv[1], int(argv[2]), int(argv[3]))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=15, help="rounds per process")
    parser.add_argument("--processes", type=int, default=2, help="processes per tree")
    args = parser.parse_args(argv)
    runs = {args.parent: [], args.change: []}
    for k in range(1, args.processes + 1):
        for tree in (args.change, args.parent) if k % 2 else (args.parent, args.change):
            runs[tree] += rounds_of(tree, args.workload, args.seed, args.rounds)
            print(f"{tree} process {k} done", file=sys.stderr, flush=True)
    parent, change = summarize(runs[args.parent]), dict(summarize(runs[args.change]))
    print(f"| operation ({args.workload}, seed {args.seed}) | parent ms | change ms | change |")
    print("| --- | --- | --- | --- |")
    for label, before in parent:
        after = change.get(label)
        if after is None:
            print(f"| {label} | {1000 * before:.2f} | – | – |")
        else:
            print(f"| {label} | {1000 * before:.2f} | {1000 * after:.2f} | {(after - before) / before:+.1%} |")


if __name__ == "__main__":
    main()
