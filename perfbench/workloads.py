"""Seeded inputs and one measured round per workload.

Every workload has a set-up step, `build(seed, workdir, cli)`, that makes
its whole input from the seed; a round, `run_round(corpus, ops, cli)`,
that does a fixed amount of work on that input and appends one raw
`(describe, result, seconds)` entry per operation; and `settle(corpus,
ops)`, which runs after the round's timer has stopped and turns the raw
entries into `Record`s (exact verdict text and known-fact checks) and
counts the round's work units.  So the measured round holds the library
calls and one clock read per operation, and none of the verdict
formatting.  Mechanisms are built at the start of each round and shared
by every instance in it, so each round starts with cold outcome caches,
fills them as it goes, and repeats the same work.  Inputs come from the
public library API only.

Instance shapes (agent counts and sizes) are fixed per workload; the seed
picks the labels.  That keeps the amount of work close to constant across
seeds while the inputs, and so the verdicts, change with the seed.
"""

from __future__ import annotations

import io
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction as F
from itertools import combinations_with_replacement
from math import comb
from pathlib import Path
from time import perf_counter

import advicemech
from advicemech import audit, cli, formats, hardness

LEVELS5 = (0, 1, 2, 3, 4)
PFA_GAMMAS = (F(1, 4), F(1, 2), F(1), F(3, 2), F(2))
AUDIT_PFA_GAMMAS = (F(1, 2), F(1), F(2))
SRDA_GAMMAS = (F(1, 4), F(1, 2), F(1))
TOL = F(1, 10**9)  # the acceptance suite's stated tolerance, carried exactly


@dataclass
class Record:
    """One settled operation (timed) or checked fact (`seconds is None`).

    `verdict` is the exact outcome as text, rationals written p/q; the
    run's digest hashes these in order.  `ok` is False when a known fact
    fails: a violation of a strategyproof mechanism, a frontier row over
    its bound, a CLI exit code other than the expected one, a traceback.
    """

    verdict: str
    seconds: float | None
    ok: bool = True


def q(x) -> str:
    if x == math.inf:
        return "inf"
    x = F(x)
    return f"{x.numerator}/{x.denominator}"


def report_verdict(report) -> str:
    violations = ";".join(
        "{}|{}|{}|{}|{}".format(
            ",".join(str(i) for i in v.agents),
            "/".join(",".join(q(y) for y in labels) for labels in v.misreports),
            ",".join(q(r) for r in v.risks_before),
            ",".join(q(r) for r in v.risks_after),
            q(v.gain),
        )
        for v in report.violations
    )
    return (
        f"violations=[{violations}] max_gain={q(report.max_gain)} "
        f"checked={report.candidates_checked}"
    )


# ---------------------------------------------------------------------------
# audit-exhaustive: the criterion-3 and criterion-7 shapes, sampled
# ---------------------------------------------------------------------------

UNILATERAL_INSTANCES = 200
COALITION_INSTANCES = 60
SRDA_PER_SHAPE = 3  # instances per (shared points m, agents n), m, n <= 4


def _stratified_grid_sample(rng, total, sizes):
    """`total` instances of up to 3 agents with datasets of the given sizes
    over the 5-level grid, allocated to size profiles in proportion to how
    many instances of the exhaustive corpus have that profile."""
    datasets = {s: list(combinations_with_replacement(LEVELS5, s)) for s in sizes}
    shapes = [
        shape for n in (1, 2, 3) for shape in combinations_with_replacement(sizes, n)
    ]

    def population(shape):
        out = 1
        for s in set(shape):
            out *= comb(len(datasets[s]) + shape.count(s) - 1, shape.count(s))
        return out

    everything = sum(population(shape) for shape in shapes)
    out = []
    for shape in shapes:
        for _ in range(max(1, round(total * population(shape) / everything))):
            agents = sorted(rng.choice(datasets[s]) for s in shape)
            out.append(advicemech.constant_instance(agents))
    return out


def build_audit(seed, workdir=None, cli=None):
    rng = random.Random(f"audit-exhaustive:{seed}")
    unilateral = _stratified_grid_sample(rng, UNILATERAL_INSTANCES, (1, 2, 3))
    coalition = _stratified_grid_sample(rng, COALITION_INSTANCES, (1, 3))
    coalition = [inst for inst in coalition if inst.n > 1]
    binary = []
    for m in (1, 2, 3, 4):
        for n in (1, 2, 3, 4):
            for _ in range(SRDA_PER_SHAPE):
                vectors = sorted(
                    tuple(rng.randint(0, 1) for _ in range(m)) for _ in range(n)
                )
                binary.append((m, advicemech.shared_binary_instance(vectors)))
    return {"unilateral": unilateral, "coalition": coalition, "binary": binary}


def _must_pass(report):
    return report_verdict(report), report.ok


def _may_fail(report):
    return report_verdict(report), True


def _mean_caught(reports):
    caught = sum(not report.ok for report in reports)
    return f"mean baseline caught on {caught} instances", caught > 0


def _timed(ops, describe, call, *args, **kwargs):
    """One operation: the call is timed, and its raw result is kept for
    `describe` to turn into a verdict after the round."""
    start = perf_counter()
    result = call(*args, **kwargs)
    ops.append((describe, result, perf_counter() - start))
    return result


def round_audit(corpus, ops, cli=None):
    space = advicemech.GridLabels(LEVELS5)
    pfas = [advicemech.pfa_mechanism(g) for g in AUDIT_PFA_GAMMAS]
    for inst in corpus["unilateral"]:
        for mech in pfas:
            for advice in LEVELS5:
                _timed(ops, _must_pass, audit.check_strategyproof, mech, inst, advice, space)
    for inst in corpus["coalition"]:
        for mech in pfas:
            for advice in (0, 2, 4):
                _timed(
                    ops, _must_pass, audit.check_group_strategyproof,
                    mech, inst, advice, space, 2,
                )
    mean = advicemech.mean_mechanism()
    caught = [
        _timed(ops, _may_fail, audit.check_strategyproof, mean, inst, 2, space)
        for inst in corpus["unilateral"]
    ]
    ops.append((_mean_caught, caught, None))
    srdas = [advicemech.srda_mechanism(g) for g in SRDA_GAMMAS]
    for m, inst in corpus["binary"]:
        binary = advicemech.AllBinaryVectors(m)
        for mech in srdas:
            for advice in (0, 1):
                _timed(ops, _must_pass, audit.check_strategyproof, mech, inst, advice, binary)
                if m % 2 == 1 and inst.n > 1:
                    _timed(
                        ops, _must_pass, audit.check_group_strategyproof,
                        mech, inst, advice, binary, 2,
                    )


def settle_audit(corpus, ops):
    """Records, and the misreport candidates certified in the round."""
    candidates = sum(
        report.candidates_checked for _, report, seconds in ops if seconds is not None
    )
    return _records(ops), {"candidates": candidates}


def _records(ops):
    out = []
    for describe, result, seconds in ops:
        verdict, ok = describe(result)
        out.append(Record(verdict, seconds, ok))
    return out


# ---------------------------------------------------------------------------
# frontier-sweep: the ratio loop on the exact path
# ---------------------------------------------------------------------------

RANDOM_CONSTANT = 4  # seeded instances from the criterion-1 distribution
LINEAR_SWEEP = 2  # seeded instances from the criterion-5 distribution
LINEAR_INTERPOLATION = 2  # of those, the ones checked row by row
TWO_LABELING = 20
COMPOSITION_TRIALS = 3

# Shapes are drawn once from a fixed generator so that every seed does
# about the same work; the run's seed draws the labels.
_SHAPES = random.Random("frontier-sweep shapes")
CONSTANT_SHAPES = [
    [_SHAPES.randint(1, 7) for _ in range(_SHAPES.randint(1, 8))]
    for _ in range(RANDOM_CONSTANT)
]
LINEAR_SHAPES = [
    [_SHAPES.randint(1, 5) for _ in range(_SHAPES.randint(1, 5))]
    for _ in range(LINEAR_SWEEP)
]


def adversarial_constant_corpus():
    """Every constant-class hard family at several parameter points, up to
    the 24-agent, 3,480-point frontier instance gen_S_final(24, 8, 72, 100)."""
    out = [
        hardness.gen_S(n, k, t, z)
        for n, k, t, z in [
            (2, 1, 2, 5), (4, 2, 3, 7), (5, 0, 2, 3),
            (5, 5, 2, 3), (6, 3, 6, F(5, 2)), (3, 1, 4, -4),
        ]
    ]
    out += [hardness.gen_S_chain(6, 2, 3, 2, 9, j) for j in range(4)]
    out += [hardness.gen_S_final(n, k, t, d) for n, k, t, d in [(4, 1, 2, 10), (6, 2, 6, 50)]]
    out.append(hardness.gen_S_final(*hardness.lb_parameters(1, scale=4), 100))
    for gamma in (F(1, 2), F(2)):
        out.append(hardness.gen_S_final(*hardness.lb_parameters(gamma, scale=1), 60))
    return out


def build_frontier(seed, workdir=None, cli=None):
    rng = random.Random(f"frontier-sweep:{seed}")
    constant = [
        advicemech.constant_instance(
            [[F(rng.randint(-40, 40), 4) for _ in range(size)] for size in shape]
        )
        for shape in CONSTANT_SHAPES
    ] + adversarial_constant_corpus()
    nonzero = [v for v in range(-20, 21) if v != 0]
    linear = [
        advicemech.linear_instance(
            [
                [(F(rng.choice(nonzero), 4), F(rng.randint(-40, 40), 4)) for _ in range(size)]
                for size in shape
            ]
        )
        for shape in LINEAR_SHAPES
    ]
    two = []
    while len(two) < TWO_LABELING:
        m = rng.randint(2, 8)
        first = tuple(rng.randint(0, 1) for _ in range(m))
        second = tuple(rng.randint(0, 1) for _ in range(m))
        if first != second:
            vectors = [
                tuple(rng.randint(0, 1) for _ in range(m))
                for _ in range(rng.randint(1, 5))
            ]
            two.append(advicemech.shared_binary_instance(vectors, (first, second)))
    agents = []
    for _ in range(4):
        xs = rng.sample(range(10), rng.randint(2, 4))
        weights = [rng.randint(1, 5) for _ in xs]
        support = tuple((x, F(w, sum(weights))) for x, w in zip(xs, weights))
        labeler = tuple((x, F(rng.randint(0, 16), 4)) for x in xs)
        agents.append(advicemech.AgentModel(support, labeler))
    trial_seed = rng.randrange(10**6)
    return {
        "constant": constant, "linear": linear, "two": two,
        "agents": agents, "trial_seed": trial_seed,
    }


def _sweep_verdict(result):
    family, rows = result
    return "\n".join(
        f"row {family} gamma={q(row.gamma)} consistency={q(row.consistency)} "
        f"robustness={q(row.robustness)} ok={row.ok}"
        for row in rows
    ), all(row.ok for row in rows)


def _interpolation_verdict(rows):
    return "\n".join(
        f"interpolation eta={q(row.advice_error)} ratio={q(row.ratio)} ok={row.ok}"
        for row in rows
    ), all(row.ok for row in rows)


def _composition_verdict(result):
    trials, m = result
    return "\n".join(
        f"composition m={m} gaps_ok={trial.gaps_ok} achieved={q(trial.achieved)} "
        f"bound={q(trial.bound)} ok={trial.ok}"
        for trial in trials
    ), all(trial.ok or not trial.gaps_ok for trial in trials)


def _sweeps(corpus):
    return [
        (advicemech.pfa_family(), PFA_GAMMAS, corpus["constant"]),
        (advicemech.lpfa_family(), PFA_GAMMAS, corpus["linear"]),
        (advicemech.pfa_two_labeling_family(), PFA_GAMMAS, corpus["two"]),
        (advicemech.srda_two_labeling_family(), SRDA_GAMMAS, corpus["two"]),
    ]


def _sweep(family, gammas, instances):
    return family.name, advicemech.consistency_robustness_sweep(family, gammas, instances)


def round_frontier(corpus, ops, cli=None):
    """One timed operation each, called as the acceptance suite calls
    them: a sweep over the family's whole corpus, an interpolation check
    over the whole 21-point grid of one (instance, gamma), and the
    composition experiment with all its trials."""
    for family, gammas, instances in _sweeps(corpus):
        _timed(ops, _sweep_verdict, _sweep, family, gammas, instances)
    for inst in corpus["linear"][:LINEAR_INTERPOLATION]:
        grid = advicemech.advice_grid(inst, 21)
        for gamma in PFA_GAMMAS:
            _timed(
                ops, _interpolation_verdict, audit.error_interpolation_check,
                gamma, inst, grid, tolerance=TOL, linear=True,
                mechanism=advicemech.lpfa_mechanism(gamma),
            )
    _timed(
        ops, _composition_verdict, advicemech.composition_experiment,
        corpus["agents"], gamma=F(1), epsilon=F(1, 2), delta=F(1, 10),
        trials=COMPOSITION_TRIALS, seed=corpus["trial_seed"],
    )


def _sweep_ratios(corpus):
    """Ratio queries the sweeps make: per gamma and instance, one for each
    optimal function (consistency) and one for each grid point
    (robustness), as `MechanismFamily.frontier_row` does."""
    return sum(
        len(gammas) * sum(
            len(advicemech.optimal_functions(inst)) + len(advicemech.advice_grid(inst, 21))
            for inst in instances
        )
        for _, gammas, instances in _sweeps(corpus)
    )


def settle_frontier(corpus, ops):
    """Records, and the (instance, gamma, advice) ratios computed in the
    round: the sweeps' ratio queries plus the interpolation rows."""
    if "sweep_ratios" not in corpus:
        corpus["sweep_ratios"] = _sweep_ratios(corpus)
    rows = sum(len(result) for describe, result, _ in ops if describe is _interpolation_verdict)
    return _records(ops), {"ratios": corpus["sweep_ratios"] + rows}


# ---------------------------------------------------------------------------
# cli-corpus: gen -> audit -> sweep through the advicemech command
# ---------------------------------------------------------------------------

CLI_BOOT = "from advicemech.cli import main; raise SystemExit(main())"


class SubprocessCli:
    """Runs each command as a child process, one at a time, so every
    command pays process start and import and starts with cold caches.
    No timeout: with one, subprocess polls for the exit in sleeps of up to
    50 ms, which would be added to each command's latency."""

    def __init__(self, src: Path, cwd: Path):
        self.env = {**os.environ, "PYTHONPATH": str(src)}
        self.cwd = cwd

    def __call__(self, argv):
        proc = subprocess.run(
            [sys.executable, "-c", CLI_BOOT, *argv],
            cwd=self.cwd, env=self.env, capture_output=True, text=True,
        )
        return proc.returncode, proc.stdout, proc.stderr


class InProcessCli:
    """Calls `advicemech.cli.main` in this process, from the corpus root;
    the traced run uses it so its spans cover every command."""

    def __init__(self, cwd: Path):
        self.cwd = cwd

    def __call__(self, argv):
        out, err = io.StringIO(), io.StringIO()
        here = os.getcwd()
        os.chdir(self.cwd)
        try:
            code = cli.main(list(argv), out=out, err=err)
        finally:
            os.chdir(here)
        return code, out.getvalue(), err.getvalue()


def _cli_plan(seed):
    """The corpus files and the commands of one round, all from the seed.

    Sizes are fixed; the seed picks z and d values and binary vectors.
    Coalition audits run on the small files only: on the 24-agent file
    a coalition audit alone takes most of a minute.
    """
    rng = random.Random(f"cli-corpus:{seed}")

    def value():
        return str(F(rng.randint(1, 24), rng.choice((1, 2))))

    gens = [
        ["gen", "s", "--n", "5", "--k", "2", "--t", "3", "--z", value(), "--out", "constant/s-a.json"],
        ["gen", "s", "--n", "6", "--k", "3", "--t", "6", "--z", value(), "--out", "constant/s-b.json"],
        ["gen", "s-final", "--n", "24", "--k", "8", "--t", "72", "--d", "100", "--out", "constant/s-final-24.json"],
        ["gen", "s-final", "--n", "6", "--k", "2", "--t", "6", "--d", value(), "--out", "constant/s-final-6.json"],
        ["gen", "s-linear", "--n", "5", "--k", "2", "--t", "3", "--z", value(), "--out", "linear/s-linear-a.json"],
        ["gen", "s-linear", "--n", "6", "--k", "3", "--t", "4", "--z", value(), "--out", "linear/s-linear-b.json"],
        ["gen", "s", "--n", "3", "--k", "1", "--t", "1", "--z", value(), "--out", "small/s-1.json"],
        ["gen", "s", "--n", "4", "--k", "2", "--t", "2", "--z", value(), "--out", "small/s-2.json"],
        ["gen", "s", "--n", "3", "--k", "0", "--t", "2", "--z", value(), "--out", "small/s-3.json"],
        ["gen", "s-final", "--n", "3", "--k", "1", "--t", "1", "--d", value(), "--out", "small/s-final-3.json"],
    ]

    def vectors(m, n):
        return [tuple(rng.randint(0, 1) for _ in range(m)) for _ in range(n)]

    # criterion 7 certifies srda coalitions for odd m <= 3 and n <= 4
    binary = {f"binary/b-{m}-{n}.json": vectors(m, n) for m, n in [(2, 3), (3, 5), (4, 4), (5, 3)]}
    odd = {f"binary-odd/b-{m}-{n}.json": vectors(m, n) for m, n in [(1, 4), (3, 3), (3, 4)]}
    advice = f"0,{value()}"
    pfa = ["--mechanism", "pfa", "--gamma", "1/2,1,2", "--advice", advice]
    srda = ["--mechanism", "srda", "--gamma", "1/4,1/2,1", "--advice", "0,1"]
    commands = [  # (argv, expected exit code)
        (["audit", "constant", *pfa], 0),
        (["audit", "linear", "--mechanism", "lpfa", "--gamma", "1/2,1,2", "--advice", advice], 0),
        (["audit", "binary", *srda], 0),
        (["audit", "constant", "--mechanism", "mean", "--advice", advice], 1),
    ]
    small = [argv[-1] for argv in gens if argv[-1].startswith("small/")]
    commands += [(["audit", name, *pfa, "--max-coalition", "2"], 0) for name in small]
    commands += [(["audit", name, *srda, "--max-coalition", "2"], 0) for name in odd]
    commands += [
        (["sweep", "constant", "--mechanism", "pfa", "--grid-points", "5"], 0),
        (["sweep", "linear", "--mechanism", "lpfa"], 0),
        (["sweep", "binary", "--mechanism", "srda", "--gamma", "1/4,1/2,1"], 0),
    ]
    return gens, {**binary, **odd}, commands


def build_cli(seed, workdir, cli):
    """Writes the corpus: hard families through `advicemech gen`, seeded
    shared-binary instances through `serialize_instance`."""
    gens, binary, commands = _cli_plan(seed)
    for sub in ("constant", "linear", "small", "binary", "binary-odd"):
        (workdir / sub).mkdir(parents=True, exist_ok=True)
    for argv in gens:
        code, _, err = cli(argv)
        if code != 0:
            raise RuntimeError(f"advicemech {' '.join(argv)} exited {code}: {err.strip()}")
    for name, vectors in binary.items():
        text = formats.serialize_instance(advicemech.shared_binary_instance(vectors))
        (workdir / name).write_text(text, encoding="utf-8")
    return {"commands": commands}


def _cli_verdict(result):
    argv, expected, code, out, err = result
    ok = code == expected and "Traceback" not in err
    if argv[0] == "sweep":
        ok = ok and out.count("\tfalse") == 0
    return f"$ {' '.join(argv)} -> exit {code}\n{out}", ok


def round_cli(corpus, ops, cli):
    for argv, expected in corpus["commands"]:
        start = perf_counter()
        code, out, err = cli(argv)
        ops.append((_cli_verdict, (argv, expected, code, out, err), perf_counter() - start))


def settle_cli(corpus, ops):
    """Records, and the commands run in the round."""
    return _records(ops), {"commands": len(ops)}


# name: (build, run_round, settle, work unit)
WORKLOADS = {
    "audit-exhaustive": (build_audit, round_audit, settle_audit, "candidates"),
    "frontier-sweep": (build_frontier, round_frontier, settle_frontier, "ratios"),
    "cli-corpus": (build_cli, round_cli, settle_cli, "commands"),
}
