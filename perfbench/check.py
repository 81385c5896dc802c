"""Checks the benchmark against itself, and records reference digests.

    python3 perfbench/check.py                # seeds 1 and 2
    python3 perfbench/check.py --seeds 7,8
    python3 perfbench/check.py --record 0-31  # rewrite expected.json

The check runs, for every workload, the traced run twice on the first
seed, the untraced run once on it, and the traced run on the second seed.
It passes when
  - the two traced runs give identical per-layer counts and digests,
  - the untraced run gives the same digest as the traced ones,
  - the second seed gives another digest (the inputs changed) but the
    same verdict classes (every known fact holds, the same exit codes),
  - every run reports correct: true,
and it prints each workload's tracing overhead.

--record runs one untraced round per workload and seed in this process
and writes the digests to expected.json, which run.py compares against.
Record only from a tree whose verdicts are known good.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys

import run

WORKLOADS = ("audit-exhaustive", "frontier-sweep", "cli-corpus")


def bench(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True, cwd=run.ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2].removeprefix("detail "))
    return result, detail


def counts(result):
    return {k: v["value"] for k, v in result["metrics"].items() if not k.endswith("_s")}


def check(seeds):
    first, second = seeds
    problems = []
    for workload in WORKLOADS:
        a, a_detail = bench(workload, first, 1)
        b, b_detail = bench(workload, first, 1)
        u, u_detail = bench(workload, first, 0)
        c, c_detail = bench(workload, second, 1)
        verdicts = {
            "same-seed counts repeat": counts(a) == counts(b),
            "same-seed digests repeat": a_detail["digest"] == b_detail["digest"],
            "traced digest equals untraced": a_detail["digest"] == u_detail["digest"],
            "second seed changes the inputs": c_detail["digest"] != a_detail["digest"],
            "second seed keeps the verdict classes": c_detail["classes"] == a_detail["classes"],
            "every run correct": all(r["correct"] for r in (a, b, u, c)),
        }
        for name, ok in verdicts.items():
            print(f"{workload:<17} {'PASS' if ok else 'FAIL'}  {name}")
            if not ok:
                problems.append(f"{workload}: {name}")
        overhead = a["metrics"]["trace.overhead_s"]["value"]
        print(
            f"{workload:<17} tracing overhead {overhead:+.3f} s on an untraced "
            f"set-up and round of {a_detail['untraced_wall_s']:.3f} s; "
            f"digest {a_detail['digest'][:16]} ({u_detail['digest_check']})"
        )
    return problems


def record(seeds):
    run.import_library()
    import workloads

    table = json.loads((run.HERE / "expected.json").read_text())
    workroot = run.OUT / "record"
    for name in WORKLOADS:
        build, run_round, settle, _ = workloads.WORKLOADS[name]
        for seed in seeds:
            workdir = workroot / f"{name}-{seed}"
            workdir.mkdir(parents=True, exist_ok=True)
            cli = workloads.SubprocessCli(run.SRC, workdir)
            corpus, ops = build(seed, workdir, cli), []
            run_round(corpus, ops, cli)
            records, _ = settle(corpus, ops)
            if not all(r.ok for r in records):
                sys.exit(f"{name} seed {seed}: a known fact fails; not recording")
            table.setdefault(name, {})[str(seed)] = run.digest(records)
            print(name, seed, table[name][str(seed)], flush=True)
    shutil.rmtree(workroot)
    for name in table:
        table[name] = dict(sorted(table[name].items(), key=lambda kv: int(kv[0])))
    (run.HERE / "expected.json").write_text(json.dumps(table, indent=1) + "\n")


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2", help="two seeds, comma-separated")
    parser.add_argument("--record", help="seeds to record, as 0-31 or 3,5,8")
    args = parser.parse_args()
    if args.record:
        record(seed_list(args.record))
        return 0
    problems = check(seed_list(args.seeds))
    if problems:
        print("FAILED: " + "; ".join(problems))
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
