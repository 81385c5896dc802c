"""advicemech benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload audit-exhaustive --seed 1 --seconds 20 --trace 0

Run it from the root of an advicemech checkout; it imports the library
from ./src and writes only under ./.perfbench.  The workloads, their
inputs and rounds are in workloads.py, the span tracer in tracing.py.

With --trace 0 it repeats rounds of the workload until --seconds have
passed (at least MIN_ROUNDS), timing set-up processes between them, and
prints the end-to-end metrics named in BENCHMARK.json.  With --trace 1
it runs the set-up and one round untraced, then again with every traced
function wrapped, as often as --seconds allow, and prints the per-layer
metrics.  Either way the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the line before it,
starting "detail ", carries the verdict digest and what else a reader
needs to interpret the numbers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# Set-up processes before each round; setup_s is the median of all of them.
SETUP_PER_ROUND = {"audit-exhaustive": 3, "frontier-sweep": 3, "cli-corpus": 1}
STARTUP_REPEATS = 5  # `import advicemech.cli` processes for cli.startup_s
MIN_ROUNDS = 3
TIME_CAP = 140  # seconds after which no new round starts
# Highest percentile with at least ten operations beyond it in MIN_ROUNDS
# rounds; fixed per workload so that every run reports the same percentile.
TAIL_PERCENTILE = {"audit-exhaustive": 99.9, "frontier-sweep": 75, "cli-corpus": 75}


def import_library():
    """Import advicemech from this checkout's src/, and nowhere else."""
    package = SRC / "advicemech"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: {package} not found; run from the root of an advicemech checkout")
    sys.path.insert(0, str(SRC))
    import advicemech

    if Path(advicemech.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported advicemech from {advicemech.__file__}, not {package}")


def digest(records) -> str:
    h = hashlib.sha256()
    for record in records:
        h.update(record.verdict.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def verdict_classes(records) -> dict:
    """What must hold on every seed: every known fact, and each CLI
    command's exit code."""
    classes = {"known facts failing": sum(not record.ok for record in records)}
    exits = [
        record.verdict.partition(" -> ")[2].split("\n", 1)[0]
        for record in records
        if record.verdict.startswith("$ ")
    ]
    if exits:
        classes["cli exit codes"] = ", ".join(exits)
    return classes


# Timed child processes get no timeout: with one, subprocess polls for the
# child's exit with sleeps of up to 50 ms, and the measured time with them.


def time_setup(args, workdir):
    """Wall time of one set-up process: interpreter start, import, corpus."""
    start = perf_counter()
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", args.workload,
         "--seed", str(args.seed), "--workdir", str(workdir)],
        check=True,
    )
    return perf_counter() - start


def cli_startup():
    start = perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import advicemech.cli"],
        env={**os.environ, "PYTHONPATH": str(SRC)}, check=True,
    )
    return perf_counter() - start


class Tally:
    """Keeps the first round's records and, for every round, its failures
    and operation latencies.  A record fails when a known fact fails or its
    verdict differs from the first round's."""

    def __init__(self):
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.latencies = []

    def add(self, records):
        if self.first is None:
            self.first = records
        self.attempted += len(records)
        self.failed += abs(len(records) - len(self.first))
        for record, reference in zip(records, self.first):
            self.failed += (not record.ok) or record.verdict != reference.verdict
        self.latencies += [r.seconds for r in records if r.seconds is not None]

    def check_digest(self, workload, seed):
        """The first round's digest against the committed one; a mismatch
        fails every record of the run."""
        found = digest(self.first)
        table = json.loads((HERE / "expected.json").read_text())
        expected = table.get(workload, {}).get(str(seed))
        if expected is None:
            return found, "no committed digest for this seed"
        if expected == found:
            return found, "matches the committed digest"
        self.failed = self.attempted
        return found, "DIFFERS from the committed digest " + expected


def timed_run(args, workdir, workload, tally):
    build, run_round, settle, unit = workload
    corpus_dir = workdir / "corpus"
    corpus_dir.mkdir(parents=True)
    cli = workloads.SubprocessCli(SRC, corpus_dir)
    corpus = build(args.seed, corpus_dir, cli)
    setup, walls, units, settles = [], [], [], []
    began = perf_counter()
    while True:
        # Set-up processes are spread over the run, between rounds, so that
        # their median does not rest on one stretch of machine time.
        for _ in range(SETUP_PER_ROUND[args.workload]):
            shutil.rmtree(workdir / "setup", ignore_errors=True)
            setup.append(time_setup(args, workdir / "setup"))
        ops = []
        start = perf_counter()
        run_round(corpus, ops, cli)
        walls.append(perf_counter() - start)
        start = perf_counter()
        records, work = settle(corpus, ops)
        tally.add(records)
        settles.append(perf_counter() - start)
        units.append(work[unit])
        elapsed = perf_counter() - began
        if elapsed >= args.seconds and len(walls) >= MIN_ROUNDS:
            break
        if elapsed + walls[-1] > TIME_CAP:
            break
    ops = sorted(tally.latencies)
    pct = TAIL_PERCENTILE[args.workload]
    rank = max(1, math.ceil(len(ops) * pct / 100))
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "work_per_s": statistics.median(u / w for u, w in zip(units, walls)),
        "peak_rss_mb": rss_kb / 1024,
    }
    # Operation latencies are printed but not gated in BENCHMARK.json:
    # across ten seeds their spread reached 0.24 (p50) and 0.29 to 0.49
    # (tail), over the largest bound a metric may have.
    detail = {
        "rounds": len(walls),
        "round_walls_s": walls,
        "setup_runs_s": setup,
        "settle_s": settles,
        f"{unit}_per_s": metrics["work_per_s"],
        f"{unit}_per_round": units[0],
        "op_tail_percentile": pct,
        "op_p50_ms": 1000 * statistics.median(ops),
        "op_tail_ms": 1000 * ops[rank - 1],
        "op_samples": len(ops),
        "op_samples_beyond_tail": len(ops) - rank,
    }
    return metrics, detail


def traced_run(args, workdir, workload, tally):
    build, run_round, settle, _ = workload
    corpus_dir = workdir / "corpus"
    corpus_dir.mkdir(parents=True)
    cli = workloads.InProcessCli(corpus_dir)

    def setup_and_round():
        ops = []
        start = perf_counter()
        corpus = build(args.seed, corpus_dir, cli)
        run_round(corpus, ops, cli)
        wall = perf_counter() - start
        return wall, corpus, ops

    untraced_wall, corpus, ops = setup_and_round()
    tally.add(settle(corpus, ops)[0])
    walls, layers, first = [], [], None
    began = perf_counter()
    while not walls or (perf_counter() - began < args.seconds
                        and perf_counter() - began + walls[-1] < TIME_CAP):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            wall, corpus, ops = setup_and_round()
        finally:
            tracer.uninstall()
        walls.append(wall)
        tally.add(settle(corpus, ops)[0])
        layers.append(tracer.metrics())
        if first is None:
            first = tracer
        elif tracer.counts_only() != first.counts_only():
            sys.stderr.write("perfbench: per-layer counts differ between traced rounds\n")
            tally.failed += 1
    metrics = {
        key: statistics.median(layer[key] for layer in layers) if key.endswith("_s") else value
        for key, value in layers[0].items()
    }
    metrics["cli.startup_s"] = statistics.median(cli_startup() for _ in range(STARTUP_REPEATS))
    metrics["trace.wall_s"] = statistics.median(walls)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced_wall
    base = OUT / f"spans-{args.workload}-seed{args.seed}"
    first.write(base)
    detail = {
        "traced_rounds": len(walls),
        "untraced_wall_s": untraced_wall,
        "traced_walls_s": walls,
        "spans": len(first.span_name),
        "spans_file": str(base.relative_to(ROOT)) + ".json",
    }
    return metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("audit-exhaustive", "frontier-sweep", "cli-corpus"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_library()
    global workloads, tracing
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        workdir = Path(args.workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        workload[0](args.seed, workdir, workloads.SubprocessCli(SRC, workdir))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workdir = OUT / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    tally = Tally()
    try:
        run = traced_run if args.trace else timed_run
        metrics, detail = run(args, workdir, workload, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(metrics) != {m["name"] for m in wanted}:
        missing = {m["name"] for m in wanted} ^ set(metrics)
        sys.exit(f"perfbench: metrics and BENCHMARK.json disagree on {sorted(missing)}")
    found, note = tally.check_digest(args.workload, args.seed)
    detail.update(
        workload=args.workload, seed=args.seed, trace=args.trace, digest=found,
        digest_check=note, classes=verdict_classes(tally.first),
    )
    for m in wanted:
        print(f"{m['name']:<48} {metrics[m['name']]} {m['unit']}")
    if "op_p50_ms" in detail:
        print(f"{'op_p50_ms':<48} {detail['op_p50_ms']} ms")
        print(f"{'op_tail_ms':<48} {detail['op_tail_ms']} ms at p{detail['op_tail_percentile']:g}, "
              f"{detail['op_samples_beyond_tail']} of {detail['op_samples']} operations beyond it")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
