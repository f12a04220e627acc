"""CLI: subcommand behaviour, exit codes, determinism, schema validation."""

import hashlib
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from hessenpave import cli, fforacle, liealg
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


def test_hess_flags_mutually_exclusive(capsys):
    code, _, _ = run_cli(capsys, "paving", "--type", "A", "--rank", "2",
                         "--hess-fn", "2,3,3", "--hess", "full")
    assert code == 1


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
