"""CLI: subcommand behaviour, exit codes, determinism, schema validation."""

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
