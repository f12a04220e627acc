"""CLI: subcommand behaviour, exit codes, determinism, schema validation."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from hessenpave import cli, fforacle, liealg, paving, rootcore
from hessenpave.cli import main


@pytest.fixture(scope="module")
def schema():
    path = resources.files("hessenpave").joinpath(
        "schemas/cli-output.schema.json")
    return json.loads(path.read_text(encoding="utf-8"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def validate(schema, name, document):
    jsonschema.validate(
        document,
        {"$ref": f"#/$defs/{name}", "$defs": schema["$defs"]},
    )


def test_paving_json_example(capsys, schema):
    code, out, _ = run_cli(capsys, "paving", "--type", "A", "--rank", "2",
                           "--hess-fn", "2,3,3", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["betti"] == [1, 2, 1]
    validate(schema, "paving", record)


def test_paving_type_d_schema(capsys, schema):
    code, out, _ = run_cli(capsys, "paving", "--type", "D", "--rank", "4",
                           "--hess-neg", "0,0,-1,0;0,0,0,-1")
    assert code == 0
    record = json.loads(out)
    validate(schema, "paving", record)
    profiles = [c["row_profile"] for c in record["cells"] if c["nonempty"]]
    assert all(len(p) == 4 for p in profiles)


def test_betti_full_flag_variety(capsys, schema):
    code, out, _ = run_cli(capsys, "betti", "--type", "A", "--rank", "2",
                           "--hess", "full")
    assert code == 0
    record = json.loads(out)
    assert record["betti"] == [1, 2, 2, 1]
    validate(schema, "betti", record)


def test_count_points_example(capsys, schema):
    code, out, _ = run_cli(capsys, "count-points", "--n", "3", "--q", "2",
                           "--hess-fn", "2,3,3")
    assert code == 0
    record = json.loads(out)
    assert record["total"] == 9
    validate(schema, "countPoints", record)


def test_enumerate_hess(capsys, schema):
    code, out, _ = run_cli(capsys, "enumerate-hess", "--type", "B",
                           "--rank", "2")
    assert code == 0
    record = json.loads(out)
    assert record["count"] == 6
    validate(schema, "enumerateHess", record)


def test_witness_json(capsys, schema):
    code, out, _ = run_cli(capsys, "witness", "--type", "C", "--rank", "2",
                           "--hess", "full", "--word", "1 2 1 2")
    assert code == 0
    record = json.loads(out)
    assert record["verified"] is True
    assert record["stage_kernel_dims"] == [3, 1]
    validate(schema, "witness", record)


def test_verify_lemmata_json(capsys, schema):
    code, out, _ = run_cli(capsys, "verify-lemmata", "--type", "A",
                           "--rank", "2", "--trials", "5", "--seed", "9")
    assert code == 0
    record = json.loads(out)
    assert all(c["status"] == "pass" for c in record["checks"])
    assert record["seed"] == 9 and record["trials"] == 5
    validate(schema, "verifyLemmata", record)


def test_sweep_json(capsys, schema):
    code, out, _ = run_cli(capsys, "sweep", "--type", "A", "--rank", "2")
    assert code == 0
    record = json.loads(out)
    assert record["hessenberg_count"] == 5
    validate(schema, "sweep", record)
    assert [p["betti"] for p in record["pavings"]] == [
        [1], [1, 1], [1, 1], [1, 2, 1], [1, 2, 2, 1]]


def test_env_seed_overrides_flag(capsys, monkeypatch):
    monkeypatch.setenv("HESSENPAVE_SEED", "321")
    code, out, _ = run_cli(capsys, "verify-lemmata", "--type", "A",
                           "--rank", "2", "--trials", "3", "--seed", "1")
    assert code == 0
    assert json.loads(out)["seed"] == 321
    monkeypatch.setenv("HESSENPAVE_SEED", "oops")
    code, _, err = run_cli(capsys, "verify-lemmata", "--type", "A",
                           "--rank", "2")
    assert code == 1 and "HESSENPAVE_SEED" in err


def test_env_seed_ignored_by_commands_without_seed(capsys, monkeypatch):
    """Only ``verify-lemmata`` has ``--seed``: a bad HESSENPAVE_SEED
    changes nothing in the other commands."""
    argv = ["betti", "--type", "B", "--rank", "2", "--hess", "full"]
    code, expected, _ = run_cli(capsys, *argv)
    assert code == 0
    monkeypatch.setenv("HESSENPAVE_SEED", "oops")
    assert run_cli(capsys, *argv) == (0, expected, "")


def test_determinism_byte_identical(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        assert main(["sweep", "--type", "B", "--rank", "2",
                     "--output", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_csv_and_table_formats(capsys):
    code, out, _ = run_cli(capsys, "paving", "--type", "A", "--rank", "2",
                           "--hess-fn", "2,2,3", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "type,rank,hessenberg,word,length,nonempty,dim,row_profile"
    assert len(lines) == 7
    import csv
    import io
    parsed = list(csv.reader(io.StringIO(out)))
    assert parsed[1][2] == "neg=-1,0"

    code, out, _ = run_cli(capsys, "betti", "--type", "B", "--rank", "2",
                           "--hess", "borel", "--format", "table")
    assert code == 0
    assert "betti" in out.splitlines()[0]


def test_usage_and_validation_errors(capsys):
    code, _, err = run_cli(capsys, "paving", "--type", "A", "--rank", "2",
                           "--hess-fn", "2,3,3", "--bogus")
    assert code == 1
    code, _, err = run_cli(capsys, "paving", "--type", "E", "--rank", "2",
                           "--hess", "full")
    assert code == 1
    code, _, err = run_cli(capsys, "paving", "--type", "B", "--rank", "1",
                           "--hess", "full")
    assert code == 1 and "rank" in err
    code, _, err = run_cli(capsys, "paving", "--type", "A", "--rank", "2",
                           "--hess-fn", "3,2,3")
    assert code == 1
    code, _, err = run_cli(capsys, "witness", "--type", "A", "--rank", "2",
                           "--hess", "borel", "--word", "1")
    assert code == 1 and "empty" in err
    code, _, err = run_cli(capsys, "paving", "--type", "A", "--rank", "2",
                           "--hess-neg=-1;-2")
    assert code == 1 and "is not a root of A2" in err


def test_verify_lemmata_rejects_trials_below_one(capsys):
    for trials in ("0", "-1"):
        code, out, err = run_cli(capsys, "verify-lemmata", "--type", "A",
                                 "--rank", "2", "--trials", trials)
        assert code == 1 and out == "" and "at least 1" in err


def test_verify_lemmata_refuses_trials_over_budget_before_work(capsys,
                                                               monkeypatch):
    """Over 10,000 trials is refused with one line and exit 1, before the
    root system or the realization is built or any check runs."""
    def forbidden(*_, **__):
        raise AssertionError("verify-lemmata started work")

    monkeypatch.setattr(cli, "RootSystem", forbidden)
    monkeypatch.setattr(liealg, "build_chevalley", forbidden)
    monkeypatch.setattr(liealg, "verify_lemmata", forbidden)
    for trials in ("10001", "99999999999"):
        code, out, err = run_cli(capsys, "verify-lemmata", "--type", "B",
                                 "--rank", "6", "--trials", trials)
        assert code == 1 and out == ""
        assert err == (f"hessenpave: trial count {trials} is over the "
                       "budget of 10000\n")


def test_unwritable_output_path(capsys, tmp_path):
    target = tmp_path / "missing" / "out.json"
    code, _, err = run_cli(capsys, "betti", "--type", "A", "--rank", "2",
                           "--hess", "full", "--output", str(target))
    assert code == 1 and "cannot write" in err
    assert len(err.splitlines()) == 1


def test_weyl_group_over_budget_exits_promptly():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "hessenpave.cli", "betti", "--type", "A",
         "--rank", "9", "--hess", "full"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 1 and proc.stdout == ""
    assert "3628800 elements, over the budget of 50000" in proc.stderr


_HUGE_WEYL = "elements, over the budget of 50000"
_HUGE_SPACES = "Hessenberg spaces, over the budget of 60000"


@pytest.mark.parametrize("argv, message", [
    (["betti", "--type", "A", "--rank", "2000", "--hess", "full"],
     f"the Weyl group of A2000 has more than 10^18 {_HUGE_WEYL}"),
    (["sweep", "--type", "B", "--rank", "1500"],
     f"the Weyl group of B1500 has more than 10^18 {_HUGE_WEYL}"),
    (["verify-lemmata", "--type", "C", "--rank", "5000", "--trials", "1"],
     f"the Weyl group of C5000 has more than 10^18 {_HUGE_WEYL}"),
    (["enumerate-hess", "--type", "A", "--rank", "10000"],
     f"A10000 has more than 10^18 {_HUGE_SPACES}"),
    (["betti", "--type", "D", "--rank", "100000000", "--hess", "borel"],
     f"the Weyl group of D100000000 has more than 10^18 {_HUGE_WEYL}"),
    (["sweep", "--type", "A", "--rank", "100000000"],
     f"the Weyl group of A100000000 has more than 10^18 {_HUGE_WEYL}"),
    (["verify-lemmata", "--type", "B", "--rank", "100000000"],
     f"the Weyl group of B100000000 has more than 10^18 {_HUGE_WEYL}"),
    (["enumerate-hess", "--type", "C", "--rank", "100000000"],
     f"C100000000 has more than 10^18 {_HUGE_SPACES}"),
    (["witness", "--type", "A", "--rank", "100000000", "--hess", "full",
      "--word", ""],
     "A100000000 has 10000000100000000 roots, over the budget of 400"),
])
def test_budget_refusals_at_huge_ranks_are_prompt(argv, message):
    """From rank ~1,700 an exact Weyl order or space count has more digits
    than Python prints, and at rank 10^8 it takes minutes to compute; the
    checks stop counting past 10^18 and refuse in well under 2 s."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import time\nfrom hessenpave.cli import main\n"
            f"t0 = time.perf_counter()\nrc = main({argv!r})\n"
            "print(rc, time.perf_counter() - t0)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)})
    rc, elapsed = proc.stdout.split()
    assert rc == "1" and float(elapsed) < 2
    assert proc.stderr == f"hessenpave: {message}\n"


@pytest.mark.parametrize("argv", [
    ["paving", "--type", "D", "--rank", "20", "--hess", "full"],
    ["betti", "--type", "A", "--rank", "60", "--hess", "borel"],
    ["sweep", "--type", "B", "--rank", "9"],
    ["verify-lemmata", "--type", "D", "--rank", "20"],
])
def test_weyl_budget_refused_before_any_build(capsys, monkeypatch, argv):
    """Commands that enumerate W compare its order with the budget before
    they build a root system or a realization."""
    def forbidden(*_, **__):
        raise AssertionError("built before the budget check")

    monkeypatch.setattr(cli, "RootSystem", forbidden)
    monkeypatch.setattr(liealg, "build_chevalley", forbidden)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"hessenpave: the Weyl group of {argv[2]}{argv[4]} "
                          "has ")
    assert err.endswith(" elements, over the budget of 50000\n")


_HUGE_SYSTEM = {"--type": "A", "--rank": "100000000", "--hess": "full",
                "--word": ""}


@pytest.mark.parametrize("command", [
    name for name, (_, options) in cli._COMMANDS.items()
    if {"--type", "--rank"} <= {row[0] for row in options}])
def test_every_system_command_checks_a_budget_first(capsys, monkeypatch,
                                                    command):
    """Every command that reads --type/--rank, whatever the option table
    holds, refuses a system of rank 10^8 by a budget before it builds a
    root system or a realization.  Its argv holds the table's required
    options, and --hess from its one-of group."""
    def forbidden(*_, **__):
        raise AssertionError("built before the budget check")

    monkeypatch.setattr(cli, "RootSystem", forbidden)
    monkeypatch.setattr(liealg, "build_chevalley", forbidden)
    argv = [command]
    for flag, _, _, _, _, rule, _ in cli._COMMANDS[command][1]:
        if rule == "required" or flag == "--hess":
            argv += [flag, _HUGE_SYSTEM[flag]]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert "over the budget of" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv, message", [
    (["enumerate-hess", "--type", "A", "--rank", "11"],
     "A11 has 208012 Hessenberg spaces, over the budget of 60000"),
    (["enumerate-hess", "--type", "A", "--rank", "14"],
     "A14 has 9694845 Hessenberg spaces, over the budget of 60000"),
    (["enumerate-hess", "--type", "B", "--rank", "10"],
     "B10 has 184756 Hessenberg spaces, over the budget of 60000"),
    (["enumerate-hess", "--type", "C", "--rank", "10"],
     "C10 has 184756 Hessenberg spaces, over the budget of 60000"),
    (["enumerate-hess", "--type", "D", "--rank", "10"],
     "D10 has 136136 Hessenberg spaces, over the budget of 60000"),
    (["sweep", "--type", "A", "--rank", "7"],
     "a sweep of A7 has 57657600 cells, over the budget of 2500000"),
    (["sweep", "--type", "B", "--rank", "6"],
     "a sweep of B6 has 42577920 cells, over the budget of 2500000"),
    (["sweep", "--type", "C", "--rank", "6"],
     "a sweep of C6 has 42577920 cells, over the budget of 2500000"),
    (["sweep", "--type", "D", "--rank", "6"],
     "a sweep of D6 has 15482880 cells, over the budget of 2500000"),
    (["witness", "--type", "A", "--rank", "20", "--hess", "full", "--word", ""],
     "A20 has 420 roots, over the budget of 400"),
    (["witness", "--type", "D", "--rank", "15", "--hess", "full", "--word", ""],
     "D15 has 420 roots, over the budget of 400"),
    (["witness", "--type", "A", "--rank", "40", "--hess", "full", "--word", ""],
     "A40 has 1640 roots, over the budget of 400"),
])
def test_space_and_cell_budgets_refused_before_any_build(capsys, monkeypatch,
                                                         argv, message):
    def forbidden(*_, **__):
        raise AssertionError("built before the budget check")

    monkeypatch.setattr(cli, "RootSystem", forbidden)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"hessenpave: {message}\n"


@pytest.mark.parametrize("argv", [
    ["enumerate-hess", "--type", "A", "--rank", "10"],
    ["enumerate-hess", "--type", "B", "--rank", "9"],
    ["enumerate-hess", "--type", "D", "--rank", "9"],
    ["sweep", "--type", "A", "--rank", "6"],
    ["sweep", "--type", "B", "--rank", "5"],
    ["sweep", "--type", "C", "--rank", "5"],
    ["sweep", "--type", "D", "--rank", "5"],
    ["witness", "--type", "A", "--rank", "19", "--hess", "full", "--word", ""],
    ["witness", "--type", "B", "--rank", "14", "--hess", "full", "--word", ""],
    ["witness", "--type", "C", "--rank", "14", "--hess", "full", "--word", ""],
    ["witness", "--type", "D", "--rank", "14", "--hess", "full", "--word", ""],
])
def test_space_and_cell_budgets_admit(monkeypatch, argv):
    """Largest systems within each budget go on to build the root system."""
    class Reached(Exception):
        pass

    def reached(*_, **__):
        raise Reached

    monkeypatch.setattr(cli, "RootSystem", reached)
    with pytest.raises(Reached):
        main(argv)


def test_count_mismatch_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(fforacle, "hessenberg_check", lambda *_: False)
    code, out, err = run_cli(capsys, "count-points", "--n", "3", "--q", "2",
                             "--hess-fn", "2,3,3")
    assert code == 2 and out == ""
    assert err.startswith("hessenpave: consistency failure: ")


def test_count_points_over_flag_budget(capsys):
    code, out, err = run_cli(capsys, "count-points", "--n", "5", "--q", "5",
                             "--hess-fn", "2,3,4,5,5")
    assert code == 1 and out == ""
    assert err == ("hessenpave: the flag variety for n=5, q=5 has 22661496 "
                   "points, over the budget of 300000\n")


_SYSTEM_A2 = ["--type", "A", "--rank", "2"]


@pytest.mark.parametrize("argv, message", [
    (["count-points", "--n", "-3", "--q", "2", "--hess-fn", "2"],
     "n must be between 2 and 5, got -3"),
    (["count-points", "--n", "6", "--q", "2", "--hess-fn", "2,3,4,5,6,6"],
     "n must be between 2 and 5, got 6"),
    (["count-points", "--n", "3", "--q", "2", "--hess-fn", "a,b"],
     "--hess-fn must be comma-separated integers, got 'a,b'"),
    (["count-points", "--n", "3", "--q", "2", "--hess-fn", "2,,3"],
     "--hess-fn must be comma-separated integers, got '2,,3'"),
    # the other subcommands that take --hess-fn parse it the same way
    (["paving", *_SYSTEM_A2, "--hess-fn", "a,b"],
     "--hess-fn must be comma-separated integers, got 'a,b'"),
    (["paving", *_SYSTEM_A2, "--hess-fn", "2,,3,3"],
     "--hess-fn must be comma-separated integers, got '2,,3,3'"),
    (["betti", *_SYSTEM_A2, "--hess-fn", "a,b"],
     "--hess-fn must be comma-separated integers, got 'a,b'"),
    (["betti", *_SYSTEM_A2, "--hess-fn", "2,,3,3"],
     "--hess-fn must be comma-separated integers, got '2,,3,3'"),
    (["witness", *_SYSTEM_A2, "--word", "", "--hess-fn", "a,b"],
     "--hess-fn must be comma-separated integers, got 'a,b'"),
    (["witness", *_SYSTEM_A2, "--word", "", "--hess-fn", "2,,3,3"],
     "--hess-fn must be comma-separated integers, got '2,,3,3'"),
])
def test_count_points_refuses_bad_input(capsys, argv, message):
    """count-points refuses a bad n, and every subcommand that takes
    --hess-fn refuses a list that is not all integers, with one line."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"hessenpave: {message}\n"


def test_paving_refuses_profile_that_misses_dimension(capsys, monkeypatch):
    """A row profile that does not sum to its cell's dimension stops the
    paving with exit 2, one stderr line and no output."""
    profile = cli.paving.row_dimension_profile
    monkeypatch.setattr(cli.paving, "row_dimension_profile",
                        lambda w, s: (profile(w, s)[0] + 1,)
                        + profile(w, s)[1:])
    code, out, err = run_cli(capsys, "paving", *_SYSTEM_A2,
                             "--hess-fn", "2,3,3")
    assert code == 2 and out == ""
    assert err == ("hessenpave: consistency failure: row profile [1, 0] "
                   "sums to 1, not the cell dimension 0 (A2, neg=0,-1;-1,0, "
                   "word '')\n")


def test_hess_flags_mutually_exclusive(capsys):
    code, _, _ = run_cli(capsys, "paving", "--type", "A", "--rank", "2",
                         "--hess-fn", "2,3,3", "--hess", "full")
    assert code == 1


# ---------------------------------------------------------------------------
# the grammar: cli._parse against the argparse parser it replaced
# ---------------------------------------------------------------------------


class RefUsageError(Exception):
    pass


class _RefParser(argparse.ArgumentParser):
    def error(self, message):
        raise RefUsageError(message)


def ref_build_parser() -> _RefParser:
    """The argparse parser the CLI used before ``cli._COMMANDS``: the
    reference that ``cli._parse`` must agree with."""
    p = _RefParser(prog="hessenpave")
    sub = p.add_subparsers(dest="command", required=True)

    def add_system(sp):
        sp.add_argument("--type", required=True, dest="lie_type",
                        choices=("A", "B", "C", "D"))
        sp.add_argument("--rank", required=True, type=int)

    def add_hess(sp):
        g = sp.add_mutually_exclusive_group(required=True)
        g.add_argument("--hess-fn", help="type-A Hessenberg function, e.g. 2,3,3")
        g.add_argument("--hess-neg",
                       help="negative roots, e.g. --hess-neg=-1,0;0,-1 (the "
                            "'=' is needed since the value starts with '-')")
        g.add_argument("--hess", choices=("full", "borel"))

    def add_common(sp):
        sp.add_argument("--format", default="json",
                        choices=("json", "csv", "table"))
        sp.add_argument("--output", default=None, help="output path (default stdout)")

    for name in ("paving", "betti"):
        sp = sub.add_parser(name)
        add_system(sp)
        add_hess(sp)
        add_common(sp)

    sp = sub.add_parser("enumerate-hess")
    add_system(sp)
    add_common(sp)

    sp = sub.add_parser("witness")
    add_system(sp)
    add_hess(sp)
    sp.add_argument("--word", required=True,
                    help="space-separated reflection indices ('' = identity)")
    add_common(sp)

    sp = sub.add_parser("verify-lemmata")
    add_system(sp)
    sp.add_argument("--trials", type=int, default=200)
    sp.add_argument("--seed", type=int, default=liealg.DEFAULT_SEED)
    add_common(sp)

    sp = sub.add_parser("count-points")
    sp.add_argument("--n", required=True, type=int)
    sp.add_argument("--q", required=True, type=int)
    sp.add_argument("--hess-fn", required=True)
    add_common(sp)

    sp = sub.add_parser("sweep")
    add_system(sp)
    add_common(sp)
    return p


REF_PARSER = ref_build_parser()


def ref_outcome(argv):
    """What the reference parser makes of ``argv``: its attributes, its
    error message, or the command whose help it printed (None for the top
    level)."""
    printed = io.StringIO()
    try:
        with contextlib.redirect_stdout(printed):
            return "args", vars(REF_PARSER.parse_args(argv))
    except RefUsageError as exc:
        return "error", str(exc)
    except SystemExit:
        prog = printed.getvalue().split()[2]
        return "help", None if prog.startswith("[") else prog


def new_outcome(argv):
    try:
        return "args", vars(cli._parse(argv))
    except cli._UsageError as exc:
        return "error", str(exc)
    except cli._Help as request:
        return "help", request.command


_B3 = ["--type", "B", "--rank", "3"]
PARSE_CORPUS = [
    # the README examples
    ["paving", "--type", "A", "--rank", "2", "--hess-fn", "2,3,3",
     "--format", "json"],
    ["betti", "--type", "D", "--rank", "4", "--hess", "full"],
    ["enumerate-hess", "--type", "C", "--rank", "3"],
    ["witness", "--type", "C", "--rank", "2", "--hess", "full",
     "--word", "1 2 1 2"],
    ["verify-lemmata", "--type", "D", "--rank", "4", "--trials", "200",
     "--seed", "2026"],
    ["count-points", "--n", "4", "--q", "3", "--hess-fn", "2,3,4,4"],
    ["sweep", "--type", "B", "--rank", "3", "--output", "b3.json"],
    # one command line of each kind the benchmark runs
    ["sweep", "--type", "D", "--rank", "5", "--format", "json"],
    ["verify-lemmata", "--type", "C", "--rank", "4", "--trials", "50",
     "--seed", "2030"],
    ["count-points", "--n", "5", "--q", "2", "--hess-fn", "2,3,4,5,5"],
    ["betti", "--type", "A", "--rank", "3", "--hess-neg=-1,0,0;0,-1,0",
     "--format", "csv"],
    ["paving", "--type", "C", "--rank", "4",
     "--hess-neg=-1,0,0,0;0,-1,0,0", "--format", "table"],
    ["witness", "--type", "D", "--rank", "4", "--hess-neg=-1,0,0,0",
     "--word", "1 2 3"],
    ["enumerate-hess", "--type", "B", "--rank", "4", "--format", "table"],
    # usage errors and argparse's reading rules
    [],
    ["bogus"],
    ["betti", "--type", "B", "--ra", "2", "--hess", "full"],
    ["betti", *_B3, "--hess-n=-1,0"],
    ["betti", *_B3, "--hess-", "full"],
    ["betti", "--type", "B", "--rank", "-3", "--hess", "full"],
    ["betti", "--type", "B", "--rank", "-0.5", "--hess", "full"],
    ["betti", *_B3, "--hess-neg", "-1,0"],
    ["betti", *_B3, "--hess-neg="],
    ["betti", *_B3, "--hess", "full", "--format="],
    ["witness", *_B3, "--hess", "full", "--word", "-1 2"],
    ["betti", *_B3, "--hess", "full", "--output", "-"],
    ["betti", *_B3, "--hess", "full", "--output"],
    ["betti", *_B3, "--hess", "full", "-x"],
    ["betti", *_B3, "--hess", "full", "extra"],
    ["betti", *_B3, "--hess", "full", "--hess", "borel"],
    ["betti", *_B3, "--hess-fn", "2,3,3", "--hess", "full"],
    ["betti", *_B3, "--hess-neg=-1,0", "--hess-fn", "2,3,3"],
    ["betti", *_B3],
    ["betti"],
    ["verify-lemmata", *_B3, "--t", "5"],
]


def _mutated_corpus(count, seed=0):
    """Command lines one to three token edits away from a valid one, drawn
    from flags, prefixes, values and stray tokens."""
    tokens = ["--type", "--rank", "--hess-fn", "--hess-neg", "--hess",
              "--format", "--output", "--word", "--trials", "--seed", "--n",
              "--q", "--ty", "--h", "--he", "--hess-", "--t", "--o", "-h",
              "--help", "-hh", "-hx", "-h=", "--help=x", "--type=A",
              "--type=", "--rank=-1", "--hess=full", "--hess-n=-1,0",
              "--format=csv", "--t=B", "--=x", "--x=1", "-x", "-", "--",
              "", "A", "E", "2", "-3", "-0.5", "-.5", "-1,0", "-1 2",
              "full", "table", "-1\n", " 3", "--type A", "bogus"]
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        command = rng.choice(PARSE_CORPUS[:7])
        argv = list(command)
        for _ in range(rng.randint(1, 3)):
            k = rng.randrange(len(argv) + 1)
            edit = rng.random()
            if edit < 0.4 or len(argv) < 2:
                argv.insert(k, rng.choice(tokens))
            elif edit < 0.7:
                del argv[min(k, len(argv) - 1)]
            else:
                argv[min(k, len(argv) - 1)] = rng.choice(tokens)
        out.append(argv)
    return out


def test_parse_matches_reference_parser():
    """On every command line of the corpus, and of 3000 edits of valid
    ones, ``cli._parse`` gives the reference parser's attributes, its exact
    error message, or the help of the same command."""
    outcomes = set()
    for argv in PARSE_CORPUS + _mutated_corpus(3000):
        expected = ref_outcome(argv)
        assert new_outcome(argv) == expected, argv
        outcomes.add(expected[0])
    assert outcomes == {"args", "error", "help"}


def test_explicit_double_dash_is_a_value():
    """``--flag=--`` reads ``--`` as the value, where argparse stored an
    empty list that failed later with a traceback."""
    argv = ["betti", "--type", "A", "--rank=--", "--hess", "full"]
    assert ref_outcome(argv)[1]["rank"] == []
    assert new_outcome(argv) == (
        "error", "argument --rank: invalid int value: '--'")


# One small case per subcommand, and the sha256 of its stdout in each format,
# recorded before the output path was shared by all subcommands.
PINNED_ARGV = {
    "paving": ["--type", "A", "--rank", "2", "--hess-fn", "2,3,3"],
    "betti": ["--type", "B", "--rank", "2", "--hess", "full"],
    "enumerate-hess": ["--type", "A", "--rank", "2"],
    "witness": ["--type", "D", "--rank", "3", "--hess", "full",
                "--word", "1 2 3 1"],
    "verify-lemmata": ["--type", "D", "--rank", "3", "--trials", "2",
                       "--seed", "9"],
    "count-points": ["--n", "3", "--q", "2", "--hess-fn", "2,3,3"],
    "sweep": ["--type", "B", "--rank", "2"],
}
PINNED_SHA256 = {
    ("paving", "json"):
        "b6a744bc44110cbb52482665f89c1e45b23430166bfadd48ef5292822d64e639",
    ("paving", "csv"):
        "021db0ba9f8fbfb2a5bfa98e11cc73d668e1c2bc3f86f05aa93879095b302ac2",
    ("paving", "table"):
        "4115fd972b8423965d8be04d3a3800e1e487717c6eb57a621f56d8004049a6ff",
    ("betti", "json"):
        "aefa5a203b995ad14098125a08760e2b6c2d9dc57e592cc53310d1e2e630d6c1",
    ("betti", "csv"):
        "5026bab33103c65cd2881002f048d378663057fa3dce1440cbd1ff9fa879f091",
    ("betti", "table"):
        "440f0d5aae2beb8d6649f35794c572976aa16ba25a47bfbfba1dbc62160cfc83",
    ("enumerate-hess", "json"):
        "4e89f67b9c7d28588750860cbf491323c81da7ef6b38d371579563a3d58d44b8",
    ("enumerate-hess", "csv"):
        "acf1266f7938db60d7c4aa3f177dd2d73167ab03f4ea1f12e6b2b915a163b97c",
    ("enumerate-hess", "table"):
        "333d7ceeb02ce679334cb33027497f302638d364b5b178801ec65a9e9bdc0978",
    ("witness", "json"):
        "b9e0a79f09bb9b20febec475b25ad5b6a3a311f6d7e62c734ebbc7b73953f713",
    ("witness", "csv"):
        "ba7dcc7832ddc69ba81809589972932d2fe6179128b7ab5ac0a17098e66bd457",
    ("witness", "table"):
        "f311fcf6846e605c8151fcefb67ebfbfebfacc95252d31fdc2f7082048cd8478",
    ("verify-lemmata", "json"):
        "98af9423f55932947018a224da348bf508fd01d14135b679b95f3660957ada4e",
    ("verify-lemmata", "csv"):
        "e1e00068d784d02ae330bcef467e0380ed3d5ce3919a2cdeeaf965c785ba3462",
    ("verify-lemmata", "table"):
        "0b693d4a853b8a5ef43260aad62875bc034664bca3fc5a407564a5ea96a040eb",
    ("count-points", "json"):
        "58f58ba38ed47935ca4b7067869132b4435c45dd827afdc54eb073ea79c26233",
    ("count-points", "csv"):
        "fc31dfe0dbc9079f586d907ef1473b48ec6141796a5e9b900063fb21ba516382",
    ("count-points", "table"):
        "7eec6eab524f4d56504b92ac17eb1b51fe81e0a24369a1a98cc42032bfb2edc7",
    ("sweep", "json"):
        "75e3461ac649c778d71b13a92babff29580bcd368a725826d204a1a3840394a6",
    ("sweep", "csv"):
        "2c34c3243ee879c7f31c1cb1cf1ad68ef1a95c9f0bef411e23ed43d257f89396",
    ("sweep", "table"):
        "219dc9f98de9759f3316b08d055e2dbf7299a7c1748aa9c82a02f3cee5883135",
}
FORMATS = ("json", "csv", "table")


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("command", list(PINNED_ARGV))
def test_output_bytes_pinned(capsys, tmp_path, command, fmt):
    """Every subcommand writes the same bytes in every format, to stdout
    and to an --output file."""
    argv = [command, *PINNED_ARGV[command], "--format", fmt]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        PINNED_SHA256[command, fmt]
    target = tmp_path / "out.txt"
    code, out, _ = run_cli(capsys, *argv, "--output", str(target))
    assert code == 0 and out == ""
    assert hashlib.sha256(target.read_bytes()).hexdigest() == \
        PINNED_SHA256[command, fmt]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("command", list(PINNED_ARGV))
def test_one_render_and_one_emit_per_run(capsys, monkeypatch, command, fmt):
    """A run calls exactly one renderer and then _emit, each once, through
    the cli module's attributes: perfbench/traced.py times the render and
    emit layers by replacing those attributes."""
    calls = []
    for name in ("_json_text", "_csv_text", "_table_text", "_emit"):
        def counted(*args, _name=name, _original=getattr(cli, name)):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(cli, name, counted)
    code, out, _ = run_cli(capsys, command, *PINNED_ARGV[command],
                           "--format", fmt)
    assert code == 0 and out
    assert calls == [f"_{fmt}_text", "_emit"]


def test_failed_lemma_writes_report_then_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(liealg, "_check_factorization_count",
                        lambda real: {"forced": True})
    code, out, _ = run_cli(capsys, "verify-lemmata", "--type", "A",
                           "--rank", "2", "--trials", "2", "--format", "csv")
    assert code == 2
    assert "factorization_count,fail\n" in out
    assert "row_structure,pass\n" in out


@pytest.mark.parametrize("fault", ["repeated", "dropped"])
def test_stage_table_off_partition_fails_factorization_count(
        capsys, monkeypatch, fault):
    """The witness stages and row profiles read ``stage_table``: a row that
    repeats or drops a positive-root index fails ``factorization_count``,
    and the report is written before exit 2."""
    original = rootcore.stage_table

    def corrupted(rs):
        table = original(rs)
        first = table.rows[0]
        row = first + first[:1] if fault == "repeated" else first[:-1]
        return rootcore.StageTable((row,) + table.rows[1:], table.stages,
                                   table.long_roots, table.masks)

    for module in (rootcore, liealg, paving):
        monkeypatch.setattr(module, "stage_table", corrupted)
    code, out, _ = run_cli(capsys, "verify-lemmata", "--type", "B",
                           "--rank", "3", "--trials", "2")
    assert code == 2
    check = next(c for c in json.loads(out)["checks"]
                 if c["name"] == "factorization_count")
    assert check["status"] == "fail"
    rs = rootcore.RootSystem("B", 3)
    first = [rootcore.format_root(rs.positive_roots[k])
             for k in original(rs).rows[0]]
    if fault == "repeated":
        expected = {"sum_of_rows": 10, "missing": [], "repeated": first[:1]}
    else:
        expected = {"sum_of_rows": 8, "missing": first[-1:], "repeated": []}
    assert check["counterexample"] == {**expected, "positive_roots": 9}


def test_stage_off_partition_fails_factorization_count(capsys, monkeypatch):
    """The witness and the row profiles read the stages: a D4 stage table
    with one root dropped from one stage's variables fails
    ``factorization_count``, which names the side and the missing root."""
    original = rootcore.stage_table

    def corrupted(rs):
        table = original(rs)
        (vars_, cons), *rest = table.stages
        return rootcore.StageTable(table.rows, ((vars_[1:], cons), *rest),
                                   table.long_roots, table.masks)

    for module in (rootcore, liealg, paving):
        monkeypatch.setattr(module, "stage_table", corrupted)
    code, out, _ = run_cli(capsys, "verify-lemmata", "--type", "D",
                           "--rank", "4", "--trials", "2")
    assert code == 2
    check = next(c for c in json.loads(out)["checks"]
                 if c["name"] == "factorization_count")
    rs = rootcore.RootSystem("D", 4)
    dropped = original(rs).stages[0][0][0]
    assert check == {"name": "factorization_count", "status": "fail",
                     "counterexample": {"stage_side": "variables",
                                        "missing": [rs._texts[dropped]],
                                        "repeated": []}}


# ---------------------------------------------------------------------------
# the exit path: cli.run, as both launchers call it
# ---------------------------------------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src"
# Block-buffered stdout, as in a plain shell: a run that skipped the final
# flush would lose the tail of its output.
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
CHILD_ENV["PYTHONPATH"] = str(SRC)


def cli_child(argv, code=None, stdout=subprocess.PIPE, env=CHILD_ENV,
              flags=()):
    """Run ``python -m hessenpave.cli ARGV`` in a child, or ``python -c
    CODE`` with ``sys.argv[1:]`` set to ARGV."""
    cmd = [sys.executable, *flags]
    cmd += ["-m", "hessenpave.cli"] if code is None else ["-c", code]
    return subprocess.run(cmd + list(argv), stdout=stdout,
                          stderr=subprocess.PIPE, env=env, timeout=120)


@pytest.mark.parametrize("argv", [
    ["sweep", "--type", "C", "--rank", "4", "--format", "json"],
    ["paving", "--type", "D", "--rank", "4", "--hess", "full",
     "--format", "csv"],
    ["enumerate-hess", "--type", "B", "--rank", "4", "--format", "table"],
])
def test_output_complete_through_exit_path(capsys, tmp_path, argv):
    """A real child writes the same bytes as ``main`` in process, through
    a pipe and to an --output file (the C4 sweep is 4.7 MB)."""
    assert main(argv) == 0
    expected = capsys.readouterr().out.encode()
    proc = cli_child(argv)
    assert proc.returncode == 0 and proc.stderr == b""
    assert proc.stdout == expected
    target = tmp_path / "out.txt"
    proc = cli_child([*argv, "--output", str(target)])
    assert proc.returncode == 0 and proc.stdout == proc.stderr == b""
    assert target.read_bytes() == expected


def _closed_pipe():
    read_end, write_end = os.pipe()
    os.close(read_end)
    return write_end


_SINKS = ["closed-pipe"] + (["dev-full"] if os.path.exists("/dev/full")
                            else [])


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("sink", _SINKS)
@pytest.mark.parametrize("argv", [
    ["betti", "--type", "A", "--rank", "2", "--hess", "full"],
    ["sweep", "--type", "B", "--rank", "3"],
])
def test_failed_stdout_write_is_one_line_exit_1(argv, sink, unbuffered):
    """A write to stdout that fails, in ``_emit`` (large or unbuffered
    output) or in the final flush of ``run`` (small buffered output),
    exits 1 with one line and no traceback."""
    env = dict(CHILD_ENV, PYTHONUNBUFFERED=unbuffered)
    if sink == "closed-pipe":
        fd, reason = _closed_pipe(), "Broken pipe"
    else:
        fd, reason = os.open("/dev/full", os.O_WRONLY), \
            "No space left on device"
    try:
        proc = cli_child(argv, stdout=fd, env=env)
    finally:
        os.close(fd)
    assert proc.returncode == 1
    assert proc.stderr.decode() == f"hessenpave: cannot write stdout: {reason}\n"


def test_failed_final_flush_keeps_nonzero_code():
    """When the command already failed, a failed flush adds no line and
    keeps the code."""
    forced_failure = ("from hessenpave import cli, liealg\n"
                      "liealg._check_factorization_count = "
                      "lambda real: {'forced': True}\n"
                      "cli.run()\n")
    fd = _closed_pipe()
    try:
        proc = cli_child(["verify-lemmata", "--type", "A", "--rank", "2",
                          "--trials", "2", "--format", "csv"],
                         code=forced_failure, stdout=fd)
    finally:
        os.close(fd)
    assert proc.returncode == 2 and proc.stderr == b""


_FORCE_BETTI_MISMATCH = (
    "from hessenpave import cli, paving\n"
    "product = paving.betti_product\n"
    "paving.betti_product = lambda space: paving.BettiTable("
    "product(space).coefficients + (1,))\n"
    "cli.run()\n")


@pytest.mark.parametrize("argv, code, rc, message", [
    (["paving", "--type", "A", "--rank", "2", "--hess-fn", "2,3,3",
      "--bogus"], None, 1, "hessenpave: unrecognized arguments: --bogus"),
    (["betti", "--type", "A", "--rank", "9", "--hess", "full"], None, 1,
     "hessenpave: the Weyl group of A9 has 3628800 elements, over the "
     "budget of 50000"),
    (["verify-lemmata", "--type", "B", "--rank", "3", "--trials", "10001"],
     None, 1, "hessenpave: trial count 10001 is over the budget of 10000"),
    (["betti", "--type", "B", "--rank", "3", "--hess", "full"],
     _FORCE_BETTI_MISMATCH, 2,
     "hessenpave: consistency failure: cell Betti numbers "),
])
def test_exit_codes_through_run(argv, code, rc, message):
    """Usage errors and budget refusals exit 1, a consistency failure
    exits 2, each with one stderr line and no stdout."""
    proc = cli_child(argv, code=code)
    err = proc.stderr.decode()
    assert proc.returncode == rc and proc.stdout == b""
    assert err.startswith(message) and err.count("\n") == 1, err


def test_run_calls_atexit_handlers_then_flushes():
    """A handler registered before ``cli.run()`` runs, after the command's
    output, and what it prints reaches stdout."""
    code = ("import atexit\n"
            "atexit.register(print, 'handler ran')\n"
            "from hessenpave import cli\n"
            "cli.run()\n")
    argv = ["betti", "--type", "A", "--rank", "2", "--hess", "full",
            "--format", "table"]
    proc = cli_child(argv, code=code)
    assert proc.returncode == 0 and proc.stderr == b""
    assert proc.stdout.decode() == ("type  rank  hessenberg           betti\n"
                                    "A     2     neg=0,-1;-1,0;-1,-1  1|2|2|1\n"
                                    "handler ran\n")


def test_help_exits_0():
    """``--help``, at the top level and after a command, prints the help
    to stdout and exits 0 through ``run``."""
    proc = cli_child(["--help"])
    assert proc.returncode == 0 and proc.stderr == b""
    assert proc.stdout.startswith(b"usage: hessenpave")
    assert b"One exit path" not in proc.stdout
    for command in cli._COMMANDS:
        assert f"\n  {command}  ".encode() in proc.stdout
    proc = cli_child(["betti", "--help"])
    assert proc.returncode == 0 and proc.stderr == b""
    out = proc.stdout.decode()
    assert out.startswith("usage: hessenpave betti [-h] --type {A,B,C,D}")
    assert "--hess-neg HESS_NEG" in out
    assert "--hess-neg=-1,0;0,-1" in out and "'=' is needed" in out
    assert "--format {json,csv,table}" in out


def test_commands_and_help_run_without_docstrings():
    """Under ``python -OO``, which strips docstrings, commands and
    ``--help`` still exit 0."""
    for argv in (["betti", "--type", "A", "--rank", "2", "--hess", "full"],
                 ["--help"], ["betti", "--help"]):
        proc = cli_child(argv, flags=["-OO"])
        assert proc.returncode == 0 and proc.stderr == b"", argv


def test_empty_output_is_refused():
    """``--output ""`` (say, an unset shell variable) is one line and exit
    1, not the whole output on stdout."""
    proc = cli_child(["sweep", "--type", "B", "--rank", "3", "--output", ""])
    assert proc.returncode == 1 and proc.stdout == b""
    assert proc.stderr == b"hessenpave: --output must name a file\n"


def test_commands_start_no_thread_and_register_no_exit_handler():
    """What ``run`` skips is safe to skip only while the package starts no
    thread and registers no ``atexit`` handler; ``-S`` keeps site hooks
    from registering their own."""
    code = ("import atexit, io, sys, threading\n"
            "from hessenpave import cli\n"
            "before = atexit._ncallbacks()\n"
            f"for argv in {[[c, *a] for c, a in PINNED_ARGV.items()]!r}:\n"
            "    sys.stdout = io.StringIO()\n"
            "    assert cli.main(argv) == 0, argv\n"
            "    sys.stdout = sys.__stdout__\n"
            "print(threading.active_count(), before, atexit._ncallbacks())\n")
    proc = cli_child([], code=code, flags=["-S"])
    assert proc.returncode == 0, proc.stderr
    threads, before, after = proc.stdout.split()
    assert threads == b"1" and before == after
