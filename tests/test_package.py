"""What importing the package costs and what it exports."""

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import hessenpave
from hessenpave import rootcore

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_import_leaves_out_dataclasses_and_inspect():
    """A fresh ``import hessenpave.cli`` (every CLI call pays it) loads
    neither ``dataclasses`` nor ``inspect``, and does load the modules that
    perfbench/traced.py looks up in ``sys.modules`` right after that import.
    ``-S`` keeps site hooks from loading modules on the package's behalf."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import sys, hessenpave.cli; print(' '.join(sys.modules))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    loaded = set(proc.stdout.split())
    assert "dataclasses" not in loaded
    assert "inspect" not in loaded
    for name in ("hessenpave.liealg", "hessenpave.linalg",
                 "hessenpave.fforacle"):
        assert name in loaded, name


def test_no_source_file_imports_dataclasses():
    files = sorted((SRC / "hessenpave").rglob("*.py"))
    assert files
    for path in files:
        text = path.read_text(encoding="utf-8")
        assert "from dataclasses" not in text, path.name
        assert "import dataclasses" not in text, path.name


def test_all_lists_public_non_module_names():
    names = hessenpave.__all__
    assert len(names) == len(set(names)) == 54
    for name in names:
        assert not name.startswith("_"), name
        assert not isinstance(getattr(hessenpave, name), types.ModuleType), name
    exported = [getattr(hessenpave, name) for name in names]
    assert rootcore._Record not in exported
    star: dict = {}
    exec("from hessenpave import *", star)
    assert set(star) - {"__builtins__"} == set(names)


def _type_d_comparisons(tree) -> list[int]:
    """Lines of the comparisons of a ``lie_type`` with ``"D"`` in a tree."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        if (any(isinstance(o, ast.Attribute) and o.attr == "lie_type"
                or isinstance(o, ast.Name) and o.id == "lie_type"
                for o in operands)
                and any(isinstance(c, ast.Constant) and c.value == "D"
                        for o in operands for c in ast.walk(o))):
            out.append(node.lineno)
    return out


def test_type_d_stage_split_stays_in_rootcore():
    """The row profile and the witness solver read the type-D stage split
    from ``rootcore.stage_table``; neither tests for type D itself."""
    def parse(name):
        return ast.parse((SRC / "hessenpave" / name).read_text(encoding="utf-8"))

    assert _type_d_comparisons(parse("paving.py")) == []
    liealg = parse("liealg.py")
    functions = {node.name: node for node in liealg.body
                 if isinstance(node, ast.FunctionDef)}
    for name in ("find_witness", "_verify_witness_matrix"):
        assert _type_d_comparisons(functions[name]) == [], name
    # the detector sees the comparisons that belong elsewhere
    assert _type_d_comparisons(functions["normalize_type_D"])


def test_realization_constants_are_read_in_integers():
    """The structure constants and the Cartan eigenvalues are integers: the
    methods that read them off the matrices never name ``Fraction``."""
    tree = ast.parse(
        (SRC / "hessenpave" / "liealg.py").read_text(encoding="utf-8"))
    realization = next(node for node in tree.body
                       if isinstance(node, ast.ClassDef)
                       and node.name == "ChevalleyRealization")
    methods = {node.name: node for node in realization.body
               if isinstance(node, ast.FunctionDef)}
    for name in ("_extract_constants", "_validate_weights"):
        named = {node.id for node in ast.walk(methods[name])
                 if isinstance(node, ast.Name)}
        assert "Fraction" not in named, name
    # the detector sees the name where it is used
    assert any(isinstance(node, ast.Name) and node.id == "Fraction"
               for node in ast.walk(methods["expand"]))
