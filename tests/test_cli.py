"""File format round-trips and the command-line surface: output shape,
exit codes, corpus handling."""

import io
import json
import os
import subprocess
import sys
import weakref
from fractions import Fraction as F
from pathlib import Path

import pytest

from advicemech import (
    MECHANISMS,
    constant_instance,
    gen_randomized_lb,
    gen_S,
    linear_instance,
    parse_instance,
    serialize_instance,
    shared_binary_instance,
    voting_instance,
)
from advicemech import audit
from advicemech.cli import main
from advicemech.formats import EXPONENT_MAX, InstanceParseError, format_number, parse_number
from advicemech.model import ValueDomain


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def kv(stdout):
    pairs = {}
    for line in stdout.splitlines():
        if "\t" in line:
            k, v = line.split("\t", 1)
            pairs.setdefault(k, v)
    return pairs


# ---------------------------------------------------------------------------
# format
# ---------------------------------------------------------------------------


def test_number_round_trip():
    for raw in ("3", "-7", "0.25", "-2/7", "10/4"):
        x = parse_number(raw)
        assert parse_number(format_number(x)) == x


def test_constant_round_trip_exact():
    inst = constant_instance(
        [[F(1, 3), F(-2, 7)], [F(5)]], ValueDomain.finite([F(-1, 3), F(1, 3), F(5)])
    )
    assert parse_instance(serialize_instance(inst)) == inst


def test_linear_round_trip_exact():
    inst = linear_instance([[(F(1, 2), F(3, 4)), (F(-2), F(5))], [(F(3), F(0))]])
    assert parse_instance(serialize_instance(inst)) == inst


def test_labelings_round_trip_exact():
    inst = shared_binary_instance([(1, 0, 1), (0, 0, 1)], ((0, 0, 0), (1, 1, 1)))
    assert parse_instance(serialize_instance(inst)) == inst
    inst2 = voting_instance([(1, 2, 3), (3, 2, 1)])
    assert parse_instance(serialize_instance(inst2)) == inst2


def test_parse_error_carries_line_number():
    with pytest.raises(InstanceParseError) as exc:
        parse_instance('{\n "class": "constant",\n BROKEN\n}')
    assert exc.value.line == 3


def test_rejects_unknown_class():
    with pytest.raises(InstanceParseError):
        parse_instance(json.dumps({"class": "quadratic", "agents": [["1"]]}))


def test_exponent_bound():
    assert parse_number("1e1000") == 10**EXPONENT_MAX
    assert parse_number("-2.5E-1000") == F(-25, 10**1001)
    for token in ("1e1001", "1e-1001", "1e99999999", "1e9999999999", "3/1e99999999"):
        with pytest.raises(InstanceParseError, match="exponent|not a number"):
            parse_number(token)


def test_rejects_float_json_numbers():
    with pytest.raises(InstanceParseError):
        parse_instance(json.dumps({"class": "constant", "agents": [[0.25]]}))


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def write(tmp_path, name, instance):
    path = tmp_path / name
    path.write_text(serialize_instance(instance), encoding="utf-8")
    return str(path)


def test_run_pfa_example(tmp_path):
    path = write(tmp_path, "inst.json", constant_instance([[0], [0], [1]]))
    code, out, err = run_cli("run", path, "--mechanism", "pfa", "--gamma", "2", "--advice", "1")
    assert code == 0
    pairs = kv(out)
    assert pairs["choice"] == "constant 0"
    assert pairs["ratio"] == "1"


def test_run_srda_unanimous(tmp_path):
    path = write(tmp_path, "inst.json", shared_binary_instance([(1, 1, 1)] * 3))
    code, out, err = run_cli("run", path, "--mechanism", "srda", "--gamma", "1", "--advice", "c1")
    assert code == 0
    pairs = kv(out)
    assert pairs["choice"] == "lottery 1:1 0:0"
    assert pairs["mechanism_risk"] == "0"


def test_run_malformed_file_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\n not json\n", encoding="utf-8")
    code, out, err = run_cli("run", str(path), "--mechanism", "pfa", "--gamma", "1", "--advice", "0")
    assert code == 2
    assert "line" in err


def test_run_missing_file_exits_2(tmp_path):
    code, out, err = run_cli("run", str(tmp_path / "nope.json"), "--mechanism", "pfa", "--gamma", "1", "--advice", "0")
    assert code == 2


def test_run_class_mismatch_exits_3(tmp_path):
    path = write(tmp_path, "inst.json", constant_instance([[0], [1]]))
    code, out, err = run_cli("run", path, "--mechanism", "lpfa", "--gamma", "1", "--advice", "0")
    assert code == 3


def test_run_advice_mismatch_exits_3(tmp_path):
    inst = constant_instance([[0], [1]], ValueDomain.finite([0, 1]))
    path = write(tmp_path, "inst.json", inst)
    code, out, err = run_cli("run", path, "--mechanism", "pfa", "--gamma", "1", "--advice", "1/2")
    assert code == 3


def test_run_degenerate_linear_exits_4(tmp_path):
    inst = linear_instance([[(0, 1)], [(0, 5)]])
    path = write(tmp_path, "inst.json", inst)
    code, out, err = run_cli("run", path, "--mechanism", "lpfa", "--gamma", "1", "--advice", "0")
    assert code == 4
    assert "zero" in err


def test_audit_and_sweep_refuse_a_degenerate_linear_instance_like_run(tmp_path):
    path = write(tmp_path, "inst.json", linear_instance([[(0, 1), (0, 2)], [(0, 3)]]))
    _, _, run_err = run_cli("run", path, "--mechanism", "lpfa", "--advice", "0")
    for argv in (("audit", path, "--mechanism", "lpfa", "--advice", "0"),
                 ("sweep", path, "--mechanism", "lpfa")):
        code, out, err = run_cli(*argv)
        assert (code, out, err) == (4, "", run_err), argv
    assert run_err == "degenerate instance: all x values are zero; every slope is optimal\n"


GAMMA_ROWS = [
    ("run", "0", "pfa"),
    ("run", "abc", "pfa"),
    ("run", "3", "pfa"),
    ("run", "1/0", "pfa"),
    ("sweep", "0", "pfa"),
    ("sweep", "abc", "pfa"),
    ("sweep", "1,-1/2", "pfa"),
    ("sweep", ",", "pfa"),
    ("audit", "0", "pfa"),
    ("audit", "1/2,5/2", "pfa"),
    # srda and srda-two-labeling take gamma in (0, 1] only
    ("run", "2", "srda"),
    ("audit", "2", "srda"),
    ("sweep", "2", "srda"),
    ("run", "2", "srda-two-labeling"),
    ("audit", "2", "srda-two-labeling"),
    ("sweep", "1/2,2", "srda-two-labeling"),
]


@pytest.mark.parametrize(
    "command, gamma, mechanism",
    GAMMA_ROWS,
    ids=[f"{c}-{g}" if m == "pfa" else f"{c}-{g}-{m}" for c, g, m in GAMMA_ROWS],
)
def test_bad_gamma_is_a_parse_error(tmp_path, command, gamma, mechanism):
    instance = constant_instance([[0], [1]]) if mechanism == "pfa" else shared_binary_instance([(1,), (0,)])
    path = write(tmp_path, "inst.json", instance)
    extra = {
        "run": ["--advice", "0"],
        "sweep": [],
        "audit": ["--advice", "0"] + (["--space", "grid:0,1"] if mechanism == "pfa" else []),
    }[command]
    code, out, err = run_cli(command, path, "--mechanism", mechanism, "--gamma", gamma, *extra)
    assert code == 2
    assert len(err.splitlines()) == 1
    assert "gamma" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, option",
    [
        ("audit", "--epsilon=abc"),
        ("audit", "--epsilon=-1/2"),
        ("audit", "--epsilon=1/0"),
        ("audit", "--epsilon=-0.1"),
        ("sweep", "--tolerance=x"),
        ("sweep", "--tolerance=-1"),
        ("sweep", "--tolerance=nan"),
        ("audit", "--max-coalition=0"),
        ("audit", "--max-coalition=-1"),
        # fewer than 2 grid points measured robustness at one advice only
        ("sweep", "--grid-points=-3"),
        ("sweep", "--grid-points=0"),
        ("sweep", "--grid-points=1"),
        ("run", "--advice=nan"),
        ("run", "--advice=inf"),
        ("run", "--advice=1/0"),
        ("run", "--advice=abc"),
        ("audit", "--advice=nan"),
        ("audit", "--advice=inf"),
        ("audit", "--advice=1/0"),
        ("audit", "--advice=abc"),
    ],
)
def test_bad_epsilon_or_tolerance_is_a_parse_error(tmp_path, command, option):
    path = write(tmp_path, "inst.json", constant_instance([[0], [1]]))
    extra = ["--space", "grid:0,1"] if command == "audit" else []
    if command != "sweep" and not option.startswith("--advice="):
        extra = ["--advice", "0", *extra]
    code, out, err = run_cli(command, path, "--mechanism", "pfa", option, *extra)
    assert code == 2
    assert len(err.splitlines()) == 1
    assert option.split("=")[0] in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, code, keyword",
    [
        (["run", "--mechanism", "srda", "--advice", "abc"], 2, "advice"),
        (["run", "--mechanism", "srda", "--advice", "0.5"], 2, "advice"),
        (["audit", "--mechanism", "srda", "--advice", "c1.5"], 2, "advice"),
        (["audit", "--mechanism", "srda", "--advice", "0", "--space", "grid:0,1,5"], 3, "--space"),
        (["audit", "--mechanism", "srda", "--advice", "0", "--space", "projected"], 3, "--space"),
        (["audit", "--mechanism", "pfa-two-labeling", "--advice", "1", "--space", "grid:0,1"], 3, "--space"),
        (["run", "--mechanism", "srda", "--advice", "c2"], 3, "labeling index"),
    ],
)
def test_labeling_input_that_does_not_fit_is_refused(tmp_path, argv, code, keyword):
    path = write(tmp_path, "inst.json", shared_binary_instance([(1, 0, 1), (0, 0, 0)]))
    got, out, err = run_cli(argv[0], path, *argv[1:])
    assert got == code
    assert len(err.splitlines()) == 1
    assert keyword in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, keyword",
    [
        (["sweep", "{empty}", "--mechanism", "pfa"], "lists no instance"),
        (["audit", "{empty}", "--mechanism", "pfa", "--advice", "0"], "lists no instance"),
        (["sweep", "{manifest}", "--mechanism", "pfa"], "manifest.txt"),
        (["audit", "{manifest}", "--mechanism", "pfa", "--advice", "0"], "manifest.txt"),
        (["gen", "voting-table", "--preferences", "a>b"], "--preferences"),
        (["gen", "voting-table", "--preferences", "1>2>3,"], "--preferences"),
        (["gen", "s-linear", "--t", "0"], "t must be at least 1"),
        (["gen", "s", "--t", "0"], "t must be at least 1"),
        # generator parameters outside their range
        (["gen", "s", "--n", "3", "--k", "5"], "0 <= k <= n"),
        (["gen", "s-chain", "--j", "5"], "0 <= j <= n-k-1"),
        (["gen", "s-final", "--n", "3", "--k", "3"], "0 <= k <= n-1"),
        (["gen", "s-linear", "--n", "2", "--k", "3"], "0 <= k <= n"),
        (["gen", "randomized-lb", "--k", "1"], "k >= 2"),
        (["gen", "randomized-lb", "--k", "2", "--n", "1"], "two agents"),
        (["gen", "randomized-lb", "--n", "1"], "two agents"),
        # a labelings document whose vector is neither a string nor a list
        (["run", "{bad_labeling}", "--mechanism", "srda", "--advice", "0"], "0/1 string or list"),
        (["run", "{bad_agent}", "--mechanism", "srda", "--advice", "0"], "0/1 string or list"),
        # paths that cannot be read or written
        (["run", "{dir}", "--mechanism", "pfa", "--advice", "0"], "cannot read"),
        (["sweep", "{names_dir}", "--mechanism", "pfa"], "cannot read"),
        (["audit", "{names_dir}", "--mechanism", "pfa", "--advice", "0"], "cannot read"),
        (["run", "{latin1}", "--mechanism", "pfa", "--advice", "0"], "not UTF-8"),
        (["audit", "{inst}", "--mechanism", "pfa", "--advice", "0", "--out", "{missing}"], "--out"),
        (["sweep", "{inst}", "--mechanism", "pfa", "--out", "{missing}"], "--out"),
        (["gen", "s", "--out", "{dir}"], "--out"),
        # argparse's own usage errors, one line
        (["run", "{inst}", "--mechanism", "pfa", "--advice", "0", "--seed", "x"], "--seed"),
        (["gen", "s", "--variant", "bogus"], "--variant"),
        (["sweep", "{inst}"], "--mechanism"),
        # a file nested past the recursion limit, and exponents beyond the bound
        (["run", "{deep}", "--mechanism", "pfa", "--advice", "0"], "nested too deeply"),
        (["run", "{big_exponent}", "--mechanism", "pfa", "--advice", "0"], "1e9999999999"),
        (["run", "{inst}", "--mechanism", "pfa", "--advice", "1e99999999"], "1e99999999"),
        (["run", "{inst}", "--mechanism", "pfa", "--advice", "0", "--gamma", "1e-99999999"], "1e-99999999"),
        (["gen", "s", "--z", "1e99999999"], "1e99999999"),
        # a risk whose numerator has more digits than the interpreter prints
        (["run", "{long_number}", "--mechanism", "pfa", "--advice", "0"], "too long to print"),
        # grid levels that do not parse or repeat
        (["audit", "{inst}", "--mechanism", "pfa", "--advice", "0", "--space", "grid:0,1,1,3"], "--space"),
        (["audit", "{inst}", "--mechanism", "pfa", "--advice", "0", "--space", "grid:"], "--space"),
        (["audit", "{inst}", "--mechanism", "pfa", "--advice", "0", "--space", "grid:0,,1"], "--space"),
    ],
    ids=[
        "sweep-empty-dir", "audit-empty-dir", "sweep-empty-manifest", "audit-empty-manifest",
        "gen-preferences-letters", "gen-preferences-trailing-comma", "gen-s-linear-t0", "gen-s-t0",
        "gen-s-k-above-n", "gen-s-chain-j-too-large", "gen-s-final-k-equals-n", "gen-s-linear-k-above-n",
        "gen-randomized-lb-k1", "gen-randomized-lb-n1", "gen-randomized-lb-default-k-n1",
        "run-labeling-not-a-vector",
        "run-agent-not-a-vector",
        "run-directory", "sweep-manifest-names-directory", "audit-manifest-names-directory",
        "run-not-utf8", "audit-out-missing-dir", "sweep-out-missing-dir", "gen-out-directory",
        "run-seed-not-int", "gen-variant-not-a-choice", "sweep-mechanism-missing",
        "run-deeply-nested-file", "run-label-exponent-beyond-bound", "run-advice-exponent-beyond-bound",
        "run-gamma-exponent-beyond-bound", "gen-z-exponent-beyond-bound", "run-number-too-long-to-print",
        "audit-grid-repeated-level", "audit-grid-empty", "audit-grid-empty-level",
    ],
)
def test_input_that_certifies_nothing_is_a_parse_error(tmp_path, argv, keyword):
    empty = tmp_path / "empty"
    empty.mkdir()
    (empty / "notes.txt").write_text("no instance here", encoding="utf-8")
    listed = tmp_path / "listed"
    listed.mkdir()
    write(listed, "a.json", constant_instance([[0], [1]]))
    (listed / "manifest.txt").write_text("\n\n", encoding="utf-8")
    names_dir = tmp_path / "names_dir"
    (names_dir / "sub").mkdir(parents=True)
    (names_dir / "manifest.txt").write_text("sub\n", encoding="utf-8")
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"class": "constant", "agents": [["0"]], "note": "é"}'.encode("latin-1"))
    bad_labeling = tmp_path / "bad_labeling.json"
    bad_labeling.write_text('{"class": "labelings", "labelings": [0, "1"], "agents": ["1"]}', encoding="utf-8")
    bad_agent = tmp_path / "bad_agent.json"
    bad_agent.write_text('{"class": "labelings", "labelings": ["0", "1"], "agents": [1]}', encoding="utf-8")
    deep = tmp_path / "deep.json"
    deep.write_text('{"class": "constant", "agents": ' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
    big_exponent = tmp_path / "big_exponent.json"
    big_exponent.write_text('{"class": "constant", "agents": [["1e9999999999"]]}', encoding="utf-8")
    nines = "9" * 4000  # a label the parser reads, whose square the printer refuses
    long_number = tmp_path / "long_number.json"
    long_number.write_text(json.dumps({"class": "constant", "agents": [[nines], [f"1/{nines}"]]}), encoding="utf-8")
    paths = {
        "{deep}": str(deep), "{big_exponent}": str(big_exponent), "{long_number}": str(long_number),
        "{empty}": str(empty), "{manifest}": str(listed), "{dir}": str(listed),
        "{names_dir}": str(names_dir), "{latin1}": str(latin1),
        "{bad_labeling}": str(bad_labeling), "{bad_agent}": str(bad_agent),
        "{inst}": write(tmp_path, "inst.json", constant_instance([[0], [1]])),
        "{missing}": str(tmp_path / "missing" / "out.tsv"),
    }
    code, out, err = run_cli(*[paths.get(arg, arg) for arg in argv])
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert keyword in err and "Traceback" not in err


FITTING_INSTANCES = {
    "pfa": constant_instance([[0], [1, 2], [2]]),
    "lpfa": linear_instance([[(1, 1)], [(2, 1), (-1, 2)]]),
    "srda": shared_binary_instance([(1, 0, 1), (0, 0, 0)]),
    "pfa-two-labeling": shared_binary_instance([(1, 0, 1), (0, 1, 0)], ((0, 0, 1), (1, 1, 0))),
    "srda-two-labeling": shared_binary_instance([(1, 0, 1), (0, 1, 0)], ((0, 0, 1), (1, 1, 0))),
}


@pytest.mark.parametrize("command", ["run", "audit", "sweep"])
@pytest.mark.parametrize("name", sorted(FITTING_INSTANCES))
def test_registry_gamma_range_holds_on_every_command(tmp_path, command, name):
    family = MECHANISMS[name]
    path = write(tmp_path, "inst.json", FITTING_INSTANCES[name])
    extra = [] if command == "sweep" else ["--advice", "0"]
    top = format_number(family.gamma_max)
    code, out, err = run_cli(command, path, "--mechanism", name, "--gamma", top, *extra)
    assert (code, err) == (0, "")
    if command == "sweep":
        assert out.strip().splitlines()[1].endswith("true")
    above = format_number(family.gamma_max + F(1, 100))
    code, out, err = run_cli(command, path, "--mechanism", name, "--gamma", above, *extra)
    assert code == 2
    assert len(err.splitlines()) == 1
    assert "gamma" in err and "Traceback" not in err


def test_mechanism_choices_are_the_registry():
    assert set(MECHANISMS) == {*FITTING_INSTANCES, "mean"}
    for command in ("run", "audit", "sweep"):
        code, out, err = run_cli(command, "x", "--mechanism", "nope", "--advice", "0")
        assert (code, out, err.count("\n")) == (2, "", 1) and err.startswith("parse error: ")
        assert all(f"'{name}'" in err for name in MECHANISMS)


@pytest.mark.parametrize(
    "argv",
    [[], ["run", "x.json"], ["audit"], ["sweep", "c", "--mechanism", "pfa", "--nope"], ["frobnicate"]],
)
def test_a_usage_error_is_one_line_on_mains_err(argv, capsys):
    # nothing reaches the process's own streams, and nothing raises SystemExit
    code, out, err = run_cli(*argv)
    assert (code, out, err.count("\n")) == (2, "", 1) and err.startswith("parse error: advicemech")
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["audit", "--help"], ["gen", "-h"]])
def test_help_is_stdout_data_with_exit_0(argv, capsys):
    code, out, err = run_cli(*argv)
    assert (code, err) == (0, "") and out.startswith("usage: advicemech")
    assert capsys.readouterr() == ("", "")


def test_cli_import_leaves_learning_unloaded():
    """`import advicemech.cli` loads neither `learning`, nor `hardness`,
    nor `dataclasses`; the package's names load their module on first use."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = (
        "import sys, advicemech.cli\n"
        "print(*(m in sys.modules for m in ('advicemech.learning', 'advicemech.hardness', 'dataclasses')))\n"
        "from advicemech import composition_experiment, AgentModel\n"
        "print('advicemech.learning' in sys.modules, composition_experiment.__module__)\n"
        "from advicemech import gen_S, ZBlock\n"
        "print('advicemech.hardness' in sys.modules, gen_S.__module__)\n"
        "try:\n    import advicemech; advicemech.no_such_name\n"
        "except AttributeError:\n    print('AttributeError')\n"
    )
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.split("\n")[:4] == [
        "False False False",
        "True advicemech.learning",
        "True advicemech.hardness",
        "AttributeError",
    ]


def test_python_m_advicemech_cli_runs_the_command(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}

    def cli(*argv):
        return subprocess.run(
            [sys.executable, "-m", "advicemech.cli", *argv], capture_output=True, text=True, env=env
        )

    gen = cli("gen", "s", "--n", "3", "--k", "1", "--t", "2", "--z", "5")
    assert gen.returncode == 0, gen.stderr
    assert parse_instance(gen.stdout) == gen_S(3, 1, 2, 5)
    missing = cli("run", str(tmp_path / "nope.json"), "--mechanism", "pfa", "--advice", "0")
    assert (missing.returncode, missing.stdout) == (2, "")
    assert len(missing.stderr.splitlines()) == 1 and missing.stderr.startswith("parse error:")


def test_readme_guarantee_table_matches_the_registry():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = {}
    for line in readme.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 5 and cells[0].startswith("`"):
            rows[cells[0].split("`")[1]] = cells
    assert set(rows) == set(MECHANISMS)
    for name, family in MECHANISMS.items():
        if family.robust is not None:
            _, _, gamma_range, consistency, robustness = rows[name]
            assert gamma_range == f"`(0, {family.gamma_max}]`"
            assert (consistency, robustness) == ("`1+g`", f"`1+{family.robust}/g`")


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def test_gen_round_trips_bit_exactly(tmp_path):
    cases = [
        ("s", ["--n", "3", "--k", "1", "--t", "2", "--z", "5"], gen_S(3, 1, 2, 5)),
        ("voting-table", ["--preferences", "1>2>3,2>3>1"], voting_instance([(1, 2, 3), (2, 3, 1)])),
    ]
    for family, extra, expected in cases:
        out_path = tmp_path / f"{family}.json"
        code, out, err = run_cli("gen", family, *extra, "--out", str(out_path))
        assert code == 0
        assert parse_instance(out_path.read_text()) == expected


def test_gen_to_stdout_parses(tmp_path):
    code, out, err = run_cli("gen", "randomized-lb", "--k", "3", "--variant", "duple", "--n", "2")
    assert code == 0
    inst = parse_instance(out)
    assert inst.n == 2


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["randomized-lb"], gen_randomized_lb(2, "duple")),
        (["s"], gen_S(4, 1, 1, 1)),
        (["s", "--k", "0"], gen_S(4, 0, 1, 1)),
    ],
    ids=["randomized-lb-k2", "s-k1", "s-k0-kept"],
)
def test_gen_defaults_k_per_family(argv, expected):
    code, out, err = run_cli("gen", *argv)
    assert code == 0, err
    assert parse_instance(out) == expected


def test_gen_s_final_and_linear(tmp_path):
    code, out, _ = run_cli("gen", "s-final", "--n", "4", "--k", "1", "--t", "2", "--d", "10")
    assert code == 0
    assert parse_instance(out).total_points == 4 * 5
    code, out, _ = run_cli("gen", "s-linear", "--n", "2", "--k", "1", "--t", "2", "--z", "5")
    assert code == 0
    assert parse_instance(out).total_points == 4


def test_gen_s_chain_round_trip():
    from advicemech import gen_S_chain

    code, out, _ = run_cli(
        "gen", "s-chain", "--n", "5", "--k", "1", "--t", "2",
        "--z-from", "3", "--z-to", "7", "--j", "2",
    )
    assert code == 0
    assert parse_instance(out) == gen_S_chain(5, 1, 2, 3, 7, 2)


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


def test_audit_clean_mechanism_exits_0(tmp_path):
    path = write(tmp_path, "inst.json", constant_instance([[0], [2], [1, 1]]))
    code, out, err = run_cli(
        "audit", path, "--mechanism", "pfa", "--gamma", "0.5,1",
        "--advice", "0,2", "--space", "grid:0,1,2",
    )
    assert code == 0
    pairs = kv(out)
    assert pairs["violations"] == "0"


def test_audit_mean_baseline_finds_violation(tmp_path):
    path = write(tmp_path, "inst.json", constant_instance([[0], [10]]))
    report_path = tmp_path / "report.txt"
    code, out, err = run_cli(
        "audit", path, "--mechanism", "mean", "--gamma", "1",
        "--advice", "0", "--space", "grid:-10,0,10", "--out", str(report_path),
    )
    assert code == 1
    pairs = kv(out)
    assert int(pairs["violations"]) >= 1
    text = report_path.read_text()
    assert "risk_before" in text and "gain" in text


def test_audit_corpus_directory(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write(corpus, "a.json", constant_instance([[0], [1]]))
    write(corpus, "b.json", constant_instance([[2], [2]]))
    code, out, err = run_cli(
        "audit", str(corpus), "--mechanism", "pfa", "--gamma", "1",
        "--advice", "1", "--space", "grid:0,1,2", "--max-coalition", "2",
    )
    assert code == 0
    assert kv(out)["instances"] == "2"


def test_audit_binary_space_on_constant_instance_exits_3(tmp_path):
    path = write(tmp_path, "inst.json", constant_instance([[0], [1]]))
    code, out, err = run_cli(
        "audit", path, "--mechanism", "pfa", "--advice", "0", "--space", "binary"
    )
    assert code == 3
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_audit_over_the_evaluation_budget_exits_5(tmp_path):
    # comb(29, 10) = 20,030,010 reports per agent; refused before enumeration
    path = write(tmp_path, "inst.json", constant_instance([list(range(10))] * 6))
    grid = "grid:" + ",".join(str(v) for v in range(20))
    code, out, err = run_cli(
        "audit", path, "--mechanism", "mean", "--advice", "0", "--space", grid
    )
    assert code == 5
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "budget" in err and "120180060" in err
    assert "Traceback" not in err


def test_corpus_manifest_restricts_and_orders(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write(corpus, "a.json", constant_instance([[0], [1]]))
    write(corpus, "b.json", constant_instance([[2], [2]]))
    (corpus / "manifest.txt").write_text("b.json\n", encoding="utf-8")
    code, out, err = run_cli(
        "audit", str(corpus), "--mechanism", "pfa", "--gamma", "1",
        "--advice", "1", "--space", "grid:0,1,2",
    )
    assert code == 0
    assert kv(out)["instances"] == "1"


def test_audit_builds_one_plan_per_advice_for_all_gammas(tmp_path, monkeypatch):
    # the default projected space depends on the advice, so the gammas are
    # audited together at each advice and share its plan
    path = str(tmp_path / "s.json")
    assert run_cli("gen", "s", "--n", "5", "--k", "2", "--t", "3", "--z", "7", "--out", path)[0] == 0
    monkeypatch.setattr(audit, "_CONTEXTS", weakref.WeakValueDictionary())  # no live sibling
    plans = []
    init = audit._Plan.__init__

    def counted(plan, *args):
        plans.append(plan)
        init(plan, *args)

    monkeypatch.setattr(audit._Plan, "__init__", counted)
    code, out, err = run_cli(
        "audit", path, "--mechanism", "pfa", "--gamma", "1/2,1,2", "--advice", "0,3"
    )
    assert (code, err) == (0, "")
    assert len(plans) == 2


def test_audit_rows_keep_gamma_then_advice_order(tmp_path):
    path = str(tmp_path / "s.json")
    assert run_cli("gen", "s", "--n", "5", "--k", "2", "--t", "3", "--z", "7", "--out", path)[0] == 0

    def rows(gammas):
        code, out, err = run_cli(
            "audit", path, "--mechanism", "mean", "--gamma", gammas, "--advice", "0,3,7"
        )
        assert (code, err) == (1, "")
        return out.partition("\tgamma\tadvice\n")[2].splitlines()  # the rows under the header

    together = rows("1/2,1,2")
    assert len(together) == 27
    assert together == rows("1/2") + rows("1") + rows("2")


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_header_and_pass_column(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write(corpus, "a.json", gen_S(3, 1, 3, 4))
    write(corpus, "b.json", constant_instance([[0], [0], [1]]))
    code, out, err = run_cli(
        "sweep", str(corpus), "--mechanism", "pfa", "--gamma", "0.5,1,2"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "gamma\tconsistency\trobustness\tbound_consistency\tbound_robustness\tpass"
    assert len(lines) == 4
    assert all(line.endswith("true") for line in lines[1:])
    # header is stable across runs
    code2, out2, _ = run_cli(
        "sweep", str(corpus), "--mechanism", "pfa", "--gamma", "0.5,1,2"
    )
    assert out2 == out


def test_sweep_default_gammas_stay_in_the_mechanism_range(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write(corpus, "a.json", shared_binary_instance([(1, 0, 1), (0, 0, 0), (1, 1, 1)]))
    code, out, err = run_cli("sweep", str(corpus), "--mechanism", "srda")
    assert (code, err) == (0, "")
    rows = [line.split("\t") for line in out.strip().splitlines()[1:]]
    assert [r[0] for r in rows] == ["1/2", "1"]
    assert all(r[-1] == "true" for r in rows)


def test_sweep_pfa_on_a_finite_domain_corpus(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    domain = ValueDomain.finite([0, 1, 2])
    write(corpus, "a.json", constant_instance([[0], [1], [2, 2]], domain))
    write(corpus, "b.json", constant_instance([[0, 1], [2]], ValueDomain.finite([0, 2])))
    write(corpus, "c.json", constant_instance([[0], [5]]))
    code, out, err = run_cli("sweep", str(corpus), "--mechanism", "pfa")
    assert (code, err) == (0, "")
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 3 and all(row.endswith("true") for row in rows)


def test_sweep_srda_bound_columns(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write(corpus, "a.json", shared_binary_instance([(1, 0, 1), (0, 0, 0)]))
    code, out, err = run_cli("sweep", str(corpus), "--mechanism", "srda", "--gamma", "0.5,1")
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()[1:]]
    assert [r[4] for r in rows] == ["3", "2"]  # 1 + 1/gamma


# ---------------------------------------------------------------------------
# golden output: each command's exact stdout, stderr and exit code
# ---------------------------------------------------------------------------

GEN_S = """{
  "class": "constant",
  "domain": "reals",
  "agents": [
    [
      "0",
      "0",
      "0"
    ],
    [
      "0",
      "3",
      "3"
    ]
  ]
}
"""


def test_every_command_prints_its_pinned_output(tmp_path):
    constant = write(tmp_path, "c.json", constant_instance([[0], [0, 2], [5]]))
    linear = write(tmp_path, "l.json", linear_instance([[(1, 1)], [(2, 1), (-1, 2)]]))
    binary = write(tmp_path, "b.json", shared_binary_instance([(1, 0, 1), (0, 0, 0), (1, 1, 0)]))
    gen_s = ["gen", "s", "--n", "2", "--k", "1", "--t", "1", "--z", "3"]
    s_path = tmp_path / "s.json"
    assert run_cli(*gen_s, "--out", str(s_path)) == (0, "", f"wrote {s_path}\n")
    assert s_path.read_text(encoding="utf-8") == GEN_S
    cases = [
        (
            ["run", constant, "--mechanism", "pfa", "--gamma", "1/2", "--advice", "3"], 0,
            "mechanism\tpfa\ngamma\t1/2\nadvice\t3\nchoice\tconstant 3\n"
            "mechanism_risk\t9/4\noptimal_risk\t7/4\nratio\t9/7\n",
        ),
        (
            ["run", linear, "--mechanism", "lpfa", "--advice", "1/3"], 0,
            "mechanism\tlpfa\ngamma\t1\nadvice\t1/3\nchoice\tslope 1/2\n"
            "mechanism_risk\t1\noptimal_risk\t1\nratio\t1\n",
        ),
        (
            ["run", binary, "--mechanism", "srda", "--gamma", "1/2", "--advice", "c1", "--seed", "7"], 0,
            "mechanism\tsrda\ngamma\t1/2\nadvice\tc1\nchoice\tlottery 1:16/17 0:1/17\n"
            "mechanism_risk\t28/51\noptimal_risk\t4/9\nratio\t21/17\nsampled\tlabeling 1\n",
        ),
        (gen_s, 0, GEN_S),
        (
            # misreports print as Python reprs of the labels read from the file
            ["audit", str(s_path), "--mechanism", "mean", "--advice", "0"], 1,
            "mechanism\tmean\ngamma\t1\nadvice\t0\nepsilon\t0\nmax_coalition\t1\n"
            "instances\t1\ncandidates\t4\nviolations\t1\n"
            "agents\tmisreports\trisk_before\trisk_after\tgain\tinstance\tgamma\tadvice\n"
            "1\t[Fraction(3, 1), Fraction(3, 1), Fraction(3, 1)]\t5/3\t3/2\t1/6\ts.json\t1\t0\n",
        ),
        (
            ["sweep", constant, "--mechanism", "pfa", "--gamma", "1/3,1", "--grid-points", "4"], 0,
            "gamma\tconsistency\trobustness\tbound_consistency\tbound_robustness\tpass\n"
            "1/3\t1\t1.85714285714\t1.33333333333\t13\ttrue\n"
            "1\t1\t1\t2\t5\ttrue\n",
        ),
    ]
    for argv, code, stdout in cases:
        assert run_cli(*argv) == (code, stdout, ""), argv
        if argv[0] in ("audit", "sweep"):  # the --out file holds what stdout shows
            report = tmp_path / f"{argv[0]}.tsv"
            assert run_cli(*argv, "--out", str(report)) == (code, stdout, ""), argv
            assert report.read_text(encoding="utf-8") == stdout, argv
