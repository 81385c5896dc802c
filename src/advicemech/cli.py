"""Command-line front end: run mechanisms on instance files, audit them,
generate hard-instance corpora, and sweep consistency/robustness frontiers.

`--mechanism` names an entry of `audit.MECHANISMS`, which also gives the
function class the mechanism accepts and its gamma range; the sweep's
bounds come from the same entry.

stdout carries data (tab-separated key/value lines or TSV tables); stderr
carries diagnostics.  Each command computes its whole stdout text and
returns it with its exit code, and `main` alone writes it, once the command
has finished, so a code of 2 or more always comes with an empty stdout.
`main` writes to the streams it is given, and returns the exit code of a
usage error and of `--help` too, whose text is stdout data.
Exit codes: 0 success (audit: no violations found), 1 audit violations, 2
parse error (a malformed or unreadable file, an option value outside its
documented range, a usage error, an `--out` file that cannot be written,
or a result with more digits than the interpreter will print), 3
class/advice mismatch (a mechanism, advice or misreport space that does
not fit the instance's class), 4 degenerate instance, 5 evaluation budget
exceeded (an audit space too large to enumerate).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from . import audit as audit_mod
from .classification import sample_outcome
from .formats import (
    InstanceParseError,
    format_number,
    load_instance,
    parse_number,
    read_text,
    serialize_instance,
)
from .model import (
    ClassMismatchError,
    ConstantChoice,
    DegenerateLinearInstance,
    InvalidInstanceError,
    LabelingChoice,
    LabelingLottery,
    LabelingsClass,
    LinearChoice,
    check_nondegenerate,
    global_risk,
)

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_PARSE = 2
EXIT_MISMATCH = 3
EXIT_DEGENERATE = 4
EXIT_BUDGET = 5

DEFAULT_SEED = 20250809  # fixed so runs without --seed are reproducible
# sweep's gammas without --gamma, cut to the mechanism's range
SWEEP_GAMMAS = (Fraction(1, 2), Fraction(1), Fraction(2))
AUDIT_COLUMNS = "agents misreports risk_before risk_after gain instance gamma advice".split()
SWEEP_COLUMNS = "gamma consistency robustness bound_consistency bound_robustness pass".split()


def _parse_fraction(tok, what, allowed="[0, inf)", ok=lambda v: v >= 0):
    """One exact number (`parse_number`) for which `ok` holds; anything
    else is a parse error naming `what`."""
    value = parse_number(tok, what)
    if not ok(value):
        raise InstanceParseError(f"{what} {str(tok).strip()} lies outside {allowed}")
    return value


def _parse_gamma(tok, family):
    """One gamma in the family's range (0, gamma_max]."""
    allowed = f"(0, {format_number(family.gamma_max)}] for {family.name}"
    return _parse_fraction(tok, "gamma", allowed, lambda g: 0 < g <= family.gamma_max)


def _parse_gamma_list(raw, family):
    gammas = [_parse_gamma(tok, family) for tok in str(raw).split(",") if tok.strip()]
    if not gammas:
        raise InstanceParseError(f"gamma list {raw!r} is empty")
    return gammas


def _parse_advice(raw, instance):
    cls = instance.function_class
    if isinstance(cls, LabelingsClass):
        try:
            index = int(str(raw).strip().removeprefix("c"))
        except ValueError:
            raise InstanceParseError(f"--advice {raw!r} is not a labeling index") from None
        if not 0 <= index < len(cls.labelings):
            raise ClassMismatchError(f"labeling index {index} out of range")
        return index
    return _parse_fraction(raw, "--advice", ok=lambda v: True)


def _describe(outcome) -> str:
    if isinstance(outcome, ConstantChoice):
        return f"constant {format_number(outcome.value)}"
    if isinstance(outcome, LinearChoice):
        return f"slope {format_number(outcome.slope)}"
    if isinstance(outcome, LabelingChoice):
        return f"labeling {outcome.index}"
    parts = " ".join(f"{i}:{format_number(p)}" for i, p in outcome.branches)
    return f"lottery {parts}"


def _tsv(rows) -> str:
    """stdout text: one tab-separated line per row, key/value pairs and
    table rows alike."""
    return "".join("\t".join(map(str, row)) + "\n" for row in rows)


def _write(path, text) -> str:
    """Writes `text` to the --out file `path`, when one is given, and
    returns `text`; a failed write is a parse error naming --out."""
    if path:
        try:
            Path(path).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise InstanceParseError(f"--out {path}: cannot write: {exc.strerror or exc}") from exc
    return text


def cmd_run(args, err):
    instance = load_instance(args.instance)
    family = audit_mod.MECHANISMS[args.mechanism]
    gamma = _parse_gamma(str(args.gamma), family)
    advice = _parse_advice(args.advice, instance)
    mech = family.mechanism(gamma, instance.function_class)
    check_nondegenerate(instance)
    outcome = mech(instance, advice)
    achieved = global_risk(outcome, instance)
    best = audit_mod.brute_force_optimal_risk(instance)
    ratio = audit_mod.risk_ratio(achieved, best)
    table = [
        ("mechanism", args.mechanism),
        ("gamma", format_number(gamma)),
        ("advice", args.advice),
        ("choice", _describe(outcome)),
        ("mechanism_risk", format_number(achieved)),
        ("optimal_risk", format_number(best)),
        ("ratio", "inf" if ratio == float("inf") else format_number(ratio)),
    ]
    if isinstance(outcome, LabelingLottery):
        seed = args.seed if args.seed is not None else DEFAULT_SEED
        table.append(("sampled", f"labeling {sample_outcome(outcome, seed)}"))
    return EXIT_OK, _tsv(table)


def _corpus(path) -> list:
    p = Path(path)
    if p.is_dir():
        manifest = p / "manifest.txt"
        if manifest.exists():
            names = [line.strip() for line in read_text(manifest).splitlines() if line.strip()]
        else:
            names = sorted(f.name for f in p.glob("*.json"))
        if not names:
            raise InstanceParseError(f"{manifest if manifest.exists() else p} lists no instance")
        return [(name, load_instance(p / name)) for name in names]
    return [(p.name, load_instance(p))]


def _space(raw, instance, advice):
    """The misreport space `raw` names, by default the class's own.  Other
    spaces than binary report labels outside {0, 1} or ignore which point
    carries which label, so a labeling instance takes binary only."""
    cls = instance.function_class
    labelings = isinstance(cls, LabelingsClass)
    raw = raw if raw is not None else "binary" if labelings else "projected"
    if raw == "binary":
        if not labelings:
            raise ClassMismatchError("--space binary needs a labeling instance")
        return audit_mod.AllBinaryVectors(cls.num_points)
    if labelings:
        raise ClassMismatchError(f"--space {raw} does not fit a labeling instance; use binary")
    if raw == "projected":
        return audit_mod.ProjectedConstant.for_instance(instance, advice)
    if raw.startswith("grid:"):
        what = f"--space {raw!r}: level"
        levels = [_parse_fraction(tok, what, ok=lambda v: True) for tok in raw[5:].split(",")]
        if len(set(levels)) < len(levels):  # a repeated level would count its reports twice
            raise InstanceParseError(f"--space {raw!r} repeats a level")
        return audit_mod.GridLabels(tuple(levels))
    raise ClassMismatchError(f"unknown misreport space {raw!r}")


def cmd_audit(args, err):
    _parse_fraction(args.max_coalition, "--max-coalition", "[1, inf)", lambda v: v >= 1)
    family = audit_mod.MECHANISMS[args.mechanism]
    corpus = _corpus(args.instance)
    gammas = _parse_gamma_list(args.gamma, family)
    epsilon = _parse_fraction(args.epsilon, "--epsilon")
    violations = []
    checked = 0
    # per class, its mechanism at every gamma, alive together so that they
    # share a context; each advice's space, and so its plan, serves them all
    mechanisms = {}
    for name, instance in corpus:
        advices = [_parse_advice(tok, instance) for tok in str(args.advice).split(",")]
        cls = instance.function_class
        if cls not in mechanisms:
            mechanisms[cls] = [family.mechanism(gamma, cls) for gamma in gammas]
        check_nondegenerate(instance)
        found = [[] for _ in gammas]  # stdout lists violations by gamma, then advice
        for advice in advices:
            space = _space(args.space, instance, advice)
            for gamma, mech, rows in zip(gammas, mechanisms[cls], found):
                report = audit_mod.check_group_strategyproof(
                    mech, instance, advice, space, args.max_coalition, epsilon
                )
                checked += report.candidates_checked
                rows += [(name, gamma, advice, v) for v in report.violations]
        violations += [row for rows in found for row in rows]
    table = [
        ("mechanism", args.mechanism),
        ("gamma", ",".join(map(format_number, gammas))),
        ("advice", args.advice),
        ("epsilon", args.epsilon),
        ("max_coalition", args.max_coalition),
        ("instances", len(corpus)),
        ("candidates", checked),
        ("violations", len(violations)),
        AUDIT_COLUMNS,
    ]
    for name, gamma, advice, v in violations:
        table.append((
            ",".join(map(str, v.agents)),
            ";".join(str(list(m)) for m in v.misreports),
            ",".join(map(format_number, v.risks_before)),
            ",".join(map(format_number, v.risks_after)),
            format_number(v.gain),
            name,
            format_number(gamma),
            advice,
        ))
    return EXIT_OK if not violations else EXIT_VIOLATIONS, _write(args.out, _tsv(table))


def _voting_table(hardness, args):
    try:
        prefs = [tuple(map(int, block.split(">"))) for block in args.preferences.split(",")]
    except ValueError:
        raise InstanceParseError(f"--preferences {args.preferences!r} is not like 2>1>3") from None
    return hardness.voting_instance(prefs)


# `gen`'s families, in the order its usage lists them:
# name -> (the `hardness` module, args) -> instance
GENERATORS = {
    "s": lambda h, a: h.gen_S(a.n, a.k, a.t, parse_number(a.z, "--z")),
    "s-chain": lambda h, a: h.gen_S_chain(
        a.n, a.k, a.t, parse_number(a.z_from, "--z-from"), parse_number(a.z_to, "--z-to"), a.j
    ),
    "s-final": lambda h, a: h.gen_S_final(a.n, a.k, a.t, parse_number(a.d, "--d")),
    "s-linear": lambda h, a: h.gen_S_linear(a.n, a.k, a.t, parse_number(a.z, "--z")),
    "voting-table": _voting_table,
    "randomized-lb": lambda h, a: h.gen_randomized_lb(a.k, a.variant, n=a.n),
}


def cmd_gen(args, err):
    from . import hardness  # imported here: no other command needs it

    if args.k is None:  # randomized-lb's block structure needs k >= 2
        args.k = 2 if args.family == "randomized-lb" else 1
    instance = GENERATORS[args.family](hardness, args)
    text = serialize_instance(instance)
    if not args.out:
        return EXIT_OK, text
    _write(args.out, text)
    err.write(f"wrote {args.out}\n")
    return EXIT_OK, ""


def cmd_sweep(args, err):
    _parse_fraction(args.grid_points, "--grid-points", "[2, inf)", lambda v: v >= 2)
    corpus = [inst for _, inst in _corpus(args.corpus)]
    family = audit_mod.MECHANISMS[args.mechanism]
    if args.gamma is None:
        gammas = [g for g in SWEEP_GAMMAS if g <= family.gamma_max]
    else:
        gammas = _parse_gamma_list(args.gamma, family)
    rows = audit_mod.consistency_robustness_sweep(
        family, gammas, corpus,
        grid_points=args.grid_points,
        tolerance=_parse_fraction(args.tolerance, "--tolerance"),
    )
    table = [SWEEP_COLUMNS]
    for r in rows:
        ratios = (r.consistency, r.robustness, r.bound_consistency, r.bound_robustness)
        cells = [f"{float(x):.12g}" for x in ratios]
        table.append((format_number(r.gamma), *cells, "true" if r.ok else "false"))
    return EXIT_OK, _write(args.out, _tsv(table))


class _Help(Exception):
    """`--help` was asked for: the help text, stdout data for `main` to
    write with exit 0."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that writes nothing and never exits: `--help`
    raises `_Help`, and a usage error raises InstanceParseError, so it is
    one stderr line and exit 2 like every other parse error."""

    def print_help(self, file=None):
        raise _Help(self.format_help())

    def error(self, message):
        raise InstanceParseError(f"{self.prog}: {' '.join(message.splitlines())}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="advicemech",
        description="strategyproof fitting mechanisms with advice: run, audit, generate, sweep",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one mechanism on one instance file")
    run.add_argument("instance")
    run.add_argument("--mechanism", required=True, choices=sorted(audit_mod.MECHANISMS))
    run.add_argument("--gamma", default="1")
    run.add_argument("--advice", required=True)
    run.add_argument("--seed", type=int, default=None)
    run.set_defaults(fn=cmd_run)

    aud = sub.add_parser("audit", help="misreport audit over an instance or corpus dir")
    aud.add_argument("instance")
    aud.add_argument("--mechanism", required=True, choices=sorted(audit_mod.MECHANISMS))
    aud.add_argument("--gamma", default="1")
    aud.add_argument("--advice", required=True)
    aud.add_argument("--space", default=None)
    aud.add_argument("--epsilon", default="0")
    aud.add_argument("--max-coalition", type=int, default=1)
    aud.add_argument("--out", default=None)
    aud.set_defaults(fn=cmd_audit)

    gen = sub.add_parser("gen", help="emit a hard-instance file")
    gen.add_argument("family", choices=list(GENERATORS))
    gen.add_argument("--n", type=int, default=4)
    gen.add_argument("--k", type=int, default=None, help="default: 2 for randomized-lb, else 1")
    gen.add_argument("--t", type=int, default=1)
    gen.add_argument("--z", default="1")
    gen.add_argument("--z-from", dest="z_from", default="1")
    gen.add_argument("--z-to", dest="z_to", default="2")
    gen.add_argument("--j", type=int, default=0)
    gen.add_argument("--d", default="2")
    gen.add_argument("--variant", choices=["consistency", "duple"], default="duple")
    gen.add_argument(
        "--preferences", default="1>2>3", help="comma-separated orders like 2>1>3"
    )
    gen.add_argument("--out", default=None)
    gen.set_defaults(fn=cmd_gen)

    sweep = sub.add_parser("sweep", help="consistency/robustness frontier over a corpus")
    sweep.add_argument("corpus")
    sweep.add_argument("--mechanism", required=True, choices=sorted(audit_mod.MECHANISMS))
    sweep.add_argument("--gamma", default=None, help="default: 0.5,1,2 within the mechanism's range")
    sweep.add_argument("--grid-points", type=int, default=21)
    sweep.add_argument("--tolerance", default="0")
    sweep.add_argument("--out", default=None)
    sweep.set_defaults(fn=cmd_sweep)
    return parser


# (exception types, exit code, stderr prefix); the first that matches wins,
# and the last catches ClassMismatchError, a ValueError
FAILURES = (
    ((InstanceParseError, FileNotFoundError), EXIT_PARSE, "parse error"),
    (audit_mod.SpaceTooLargeError, EXIT_BUDGET, "evaluation budget exceeded"),
    (DegenerateLinearInstance, EXIT_DEGENERATE, "degenerate instance"),
    (InvalidInstanceError, EXIT_PARSE, "parse error: invalid instance"),
    ((ValueError, ZeroDivisionError), EXIT_MISMATCH, "class/advice mismatch"),
)


def main(argv=None, out=None, err=None) -> int:
    """Runs the command `argv` names and writes its stdout text to `out`,
    only once it has finished, or one stderr line for its failure."""
    err = err if err is not None else sys.stderr
    try:
        args = build_parser().parse_args(argv)
        code, text = args.fn(args, err)
    except _Help as asked:
        code, text = EXIT_OK, asked.args[0]
    except Exception as exc:
        for types, code, what in FAILURES:
            if isinstance(exc, types):
                err.write(f"{what}: {exc}\n")
                return code
        raise
    (out if out is not None else sys.stdout).write(text)
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
