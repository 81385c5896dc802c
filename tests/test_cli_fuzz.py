"""The CLI's exit-code contract under fuzzing: argv drawn from a grammar of
valid, boundary and malformed tokens, instance files from mutated `gen`
output.  Whatever the input, the exit code is one of 0-5, and a code of 2
or more comes with an empty stdout, exactly one stderr line and no
traceback; a code of 0 or 1 comes with each command's documented stdout
format.  Every defect this finds gets its own row in the table-driven
tests of tests/test_cli.py."""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from advicemech import MECHANISMS, parse_instance
from advicemech.cli import GENERATORS, main

FUZZ = settings(
    max_examples=400, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

BOUNDARY = ["0", "-1", "1", "2", "2.0001", "1/3", "1e400"]
LONG_LABELS = {"class": "constant", "agents": [["9" * 4000], ["1/" + "9" * 4000]]}
MALFORMED = ["", "nan", "inf", "1/0", "abc", "1e99999999"]


def run(argv):
    """(exit code, stdout, stderr) of one in-process CLI call, which must
    write nothing to the process's own streams."""
    out, err, stray = io.StringIO(), io.StringIO(), io.StringIO()
    with redirect_stdout(stray), redirect_stderr(stray):
        code = main(argv, out=out, err=err)
    assert stray.getvalue() == "", argv
    return code, out.getvalue(), err.getvalue()


def gen_doc(*argv):
    code, out, _ = run(["gen", *argv])
    assert code == 0
    return json.loads(out)


VOTING = gen_doc("voting-table", "--preferences", "1>2>3,2>3>1")
# (document, the mechanisms meant for it, valid advice).  No mechanism fits
# three labelings; the last two documents keep the voting table's agents
# under two of its labelings, and under the all-0s/all-1s pair srda needs.
BASES = [
    (gen_doc("s", "--n", "2", "--k", "1", "--t", "1", "--z", "3"), ["pfa", "mean"], ["0", "3"]),
    (gen_doc("s-linear", "--n", "2", "--k", "1", "--t", "1"), ["lpfa"], ["0", "1/2"]),
    (VOTING, ["srda"], ["0", "c2"]),
    (gen_doc("randomized-lb", "--k", "2", "--n", "2"), ["srda-two-labeling"], ["1"]),
    (
        {**VOTING, "labelings": VOTING["labelings"][:2]},
        ["pfa-two-labeling", "srda-two-labeling"],
        ["0", "c1"],
    ),
    (
        {**VOTING, "labelings": ["0" * 9, "1" * 9]},
        ["srda", "pfa-two-labeling", "srda-two-labeling"],
        ["0", "c1"],
    ),
]


def tokens(*valid, odd=(*BOUNDARY, *MALFORMED)):
    """A valid token nine times in ten, else an odd one (by default a
    boundary or malformed token), so that most calls get past parsing."""
    # Hypothesis favours the ends of a range, so the odd draw is a middle one
    return st.integers(0, 9).flatmap(lambda r: st.sampled_from(valid if r != 4 else odd))


OUT = st.sampled_from(["{tmp}/report.txt", "{tmp}/missing/report.txt", "{tmp}"])
# --mechanism and --advice are drawn from the instance's base
OPTIONS = {
    "run": {
        "--gamma": tokens("1", "1/2"),
        "--seed": tokens("7", "-1"),
    },
    "audit": {
        "--gamma": tokens("1", "1/2,1"),
        "--space": tokens("projected", "binary", "grid:0,1", "grid:0,3", "grid:", "grid:a"),
        "--epsilon": tokens("1/10"),
        "--max-coalition": tokens("1", "2"),
        "--out": OUT,
    },
    "sweep": {
        "--gamma": tokens("1", "1/2,2"),
        "--grid-points": tokens("2", "3"),
        "--tolerance": tokens("1/100"),
        "--out": OUT,
    },
    "gen": {
        "--n": tokens("2", "3"),
        "--k": tokens("0", "1", "2"),
        "--t": tokens("1", "2"),
        "--z": tokens("5/2", "-1"),
        "--z-from": tokens("1"),
        "--z-to": tokens("3"),
        "--j": tokens("0", "1"),
        "--d": tokens("10"),
        "--variant": st.sampled_from(["consistency", "duple", "bogus"]),
        "--preferences": st.sampled_from(["1>2>3", "2>1>3,3>2>1", "1>1>1", "a>b", "1>2>3,", ""]),
        "--out": OUT,
    },
}
FAMILIES = [*GENERATORS, "bogus"]

RUN_KEYS = ["mechanism", "gamma", "advice", "choice", "mechanism_risk", "optimal_risk", "ratio"]
AUDIT_KEYS = [
    "mechanism", "gamma", "advice", "epsilon", "max_coalition", "instances", "candidates",
    "violations",
]
AUDIT_HEADER = "agents\tmisreports\trisk_before\trisk_after\tgain\tinstance\tgamma\tadvice"
SWEEP_HEADER = "gamma\tconsistency\trobustness\tbound_consistency\tbound_robustness\tpass"


def mutate(doc, kind, draw):
    """One mutation of a `gen` document; 'bytes' and 'directory' are made
    by the caller, on the file itself."""
    doc = json.loads(json.dumps(doc))
    agents = doc["agents"]
    if kind == "drop-key":
        doc.pop(draw(st.sampled_from(sorted(doc))))
    elif kind == "wrong-class":
        tags = ["constant", "homogeneous_linear", "labelings", "bogus"]
        doc["class"] = draw(st.sampled_from(tags))
    elif kind == "empty-agent":
        agents[0] = "" if isinstance(agents[0], str) else []
    elif kind in ("float-label", "nan-label"):
        bad = 0.5 if kind == "float-label" else draw(st.sampled_from([float("nan"), "NaN"]))
        if doc["class"] == "labelings":
            agents[0] = [bad] + list(agents[0][1:])
        elif doc["class"] == "homogeneous_linear":
            agents[0][0][1] = bad
        else:
            agents[0][0] = bad
    elif kind == "zero-x" and doc["class"] == "homogeneous_linear":
        for pairs in agents:
            for pair in pairs:
                pair[0] = "0"
    elif kind == "ragged":
        if doc["class"] == "labelings":
            doc["labelings"][0] = doc["labelings"][0][:-1]
        else:
            agents[-1] = agents[-1][:-1]
    return doc


MUTATIONS = [
    "none", "drop-key", "wrong-class", "empty-agent", "float-label", "nan-label",
    "zero-x", "ragged", "bytes", "directory",
]


@st.composite
def invocations(draw):
    """(argv with {tmp} and {instance} placeholders, the instance file's
    text, bytes or None for a directory)."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    if command == "gen":
        argv = ["gen", draw(st.sampled_from(FAMILIES))]
        instance = ""
    else:
        argv = [command, "{instance}"]
        doc, mechanisms, advice = draw(st.sampled_from(BASES))
        kind = draw(st.sampled_from(MUTATIONS)) if draw(st.integers(0, 2)) == 1 else "none"
        text = json.dumps(mutate(doc, kind, draw))
        if kind == "directory":
            instance = None
        else:
            instance = b"\xff" + text.encode() if kind == "bytes" else text
        # the required options are left out one time in twenty
        mechanism = draw(tokens(*mechanisms, odd=(*sorted(MECHANISMS), *BOUNDARY, *MALFORMED)))
        if draw(st.integers(0, 19)) != 9:
            argv += ["--mechanism", mechanism]
        if command != "sweep" and draw(st.integers(0, 19)) != 9:
            argv += ["--advice", draw(tokens(*advice))]
    for flag, values in OPTIONS[command].items():
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    return argv, instance


@FUZZ
@given(invocations())
# the draws give no audit with violations; mean gains on this `gen s` file
@example((["audit", "{instance}", "--mechanism", "mean", "--advice", "0"], json.dumps(BASES[0][0])))
# a 4,000-digit label and its reciprocal: risks too long to print, after
# `run` has computed every line it would print
@example((["run", "{instance}", "--mechanism", "pfa", "--advice", "0"], json.dumps(LONG_LABELS)))
def test_cli_exit_code_contract(invocation):
    argv, instance = invocation
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.json"
        if instance is None:
            path.mkdir()
        elif isinstance(instance, bytes):
            path.write_bytes(instance)
        else:
            path.write_text(instance, encoding="utf-8")
        argv = [a.replace("{tmp}", tmp).replace("{instance}", str(path)) for a in argv]
        code, out, err = run(argv)
        if argv[0] == "gen" and code == 0 and "--out" in argv:
            out = Path(argv[argv.index("--out") + 1]).read_text(encoding="utf-8")
    assert code in range(6), (argv, code, err)
    if code >= 2:
        assert out == "", (argv, code, out)
        assert len(err.splitlines()) == 1, (argv, code, err)
        assert "Traceback" not in err, (argv, code, err)
    else:
        assert_documented_format(argv[0], code, out)


def assert_documented_format(command, code, out):
    """stdout of a call that exited 0 or 1 (for `gen --out`, the file
    written), in the format README documents for `command`."""
    if command == "gen":
        assert code == 0
        parse_instance(out)
        return
    rows = [line.split("\t") for line in out.splitlines()]
    if command == "run":
        assert code == 0
        assert all(len(r) == 2 for r in rows), out
        lottery = dict(rows)["choice"].startswith("lottery ")
        assert [k for k, _ in rows] == RUN_KEYS + ["sampled"] * lottery, out
    elif command == "audit":
        assert [r[0] for r in rows[:8]] == AUDIT_KEYS, out
        assert all(len(r) == 2 for r in rows[:8]), out
        violations = int(rows[7][1])
        assert code == (1 if violations else 0), out
        assert out.splitlines()[8] == AUDIT_HEADER, out
        assert len(rows) == 9 + violations and all(len(r) == 8 for r in rows[9:]), out
    else:
        assert command == "sweep" and code == 0
        assert out.splitlines()[0] == SWEEP_HEADER, out
        assert len(rows) > 1, out
        assert all(len(r) == 6 and r[5] in ("true", "false") for r in rows[1:]), out
