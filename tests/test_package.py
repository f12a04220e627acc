"""What importing the package costs and what it exports."""

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

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


# Standard-library modules that only some commands need: ``decimal`` and
# ``numbers`` come in with ``fractions``.
_DEFERRED = {"json", "csv", "fractions", "decimal", "numbers", "random"}
# Modules no command needs: the command line is read without ``argparse``,
# which brings in ``gettext`` and, at its first message, ``locale``.
_NEVER = {"argparse", "gettext", "locale"}


@pytest.mark.parametrize("argv, loaded", [
    (None, set()),
    (["betti", "--type", "B", "--rank", "3", "--hess", "full",
      "--format", "table"], set()),
    (["enumerate-hess", "--type", "D", "--rank", "4", "--format", "table"],
     set()),
    (["betti", "--type", "B", "--rank", "3", "--hess", "full",
      "--format", "json"], {"json"}),
    (["paving", "--type", "A", "--rank", "2", "--hess", "borel",
      "--format", "csv"], {"csv"}),
    (["witness", "--type", "C", "--rank", "3", "--hess", "full",
      "--word", "1 2", "--format", "table"],
     {"fractions", "decimal", "numbers"}),
    # the lemma checks run in integers
    (["verify-lemmata", "--type", "C", "--rank", "3", "--trials", "3"],
     {"json", "random"}),
])
def test_cli_loads_stdlib_modules_only_where_used(argv, loaded):
    """``json``, ``csv``, ``fractions`` and ``random`` cost 7-8 ms of a
    15 ms import together: ``import hessenpave.cli`` loads none of them,
    and a command loads only those its output format and its arithmetic
    need.  None of them loads ``argparse``, ``gettext`` or ``locale``
    (about 4 ms).  ``-S`` keeps site hooks from loading them on its
    behalf."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import io, sys\nimport hessenpave.cli\n"
    if argv is not None:
        code += ("sys.stdout = io.StringIO()\n"
                 f"assert hessenpave.cli.main({argv!r}) == 0\n"
                 "sys.stdout = sys.__stdout__\n")
    code += "print(' '.join(sys.modules))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    modules = set(proc.stdout.split())
    assert modules & _DEFERRED == loaded
    assert modules & _NEVER == set()


_MODULE_LEVEL_BANNED = {"json", "csv", "fractions", "random", "decimal",
                        "typing", "argparse"}


def _module_level_imports(tree) -> set[str]:
    """Top-level names of the modules a tree imports outside function
    bodies, i.e. when the module itself is imported."""
    out = set()
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
        todo.extend(ast.iter_child_nodes(node))
    return out


def test_no_source_file_imports_deferred_modules_at_module_level():
    """Every CLI call imports every package module, so a module-level
    import of these would bring their cost back into each call (``typing``
    costs about 3 ms); they are imported inside the functions that use
    them."""
    files = sorted((SRC / "hessenpave").glob("*.py"))
    assert files
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not _module_level_imports(tree) & _MODULE_LEVEL_BANNED, \
            path.name
    # the detector sees module-level imports, also inside classes and
    # conditionals, and skips function bodies
    probe = ast.parse("import json.decoder\n"
                      "class K:\n    from csv import writer\n"
                      "if True:\n    import typing\n"
                      "def f():\n    import random\n")
    assert _module_level_imports(probe) == {"json", "csv", "typing"}


def test_no_source_file_imports_dataclasses():
    files = sorted((SRC / "hessenpave").rglob("*.py"))
    assert files
    for path in files:
        text = path.read_text(encoding="utf-8")
        assert "from dataclasses" not in text, path.name
        assert "import dataclasses" not in text, path.name


def test_all_lists_public_non_module_names():
    names = hessenpave.__all__
    assert len(names) == len(set(names)) == 38
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


def _names(tree) -> tuple[set[str], set[str]]:
    """The names a tree imports, and the names and attributes it reads."""
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return imported, read


# The root-set representation of the rows that ``rootcore.stage_table``
# replaced; ``rows`` alone is also the table's field and a common local name.
_ROW_SET_NAMES = {"RowDecomposition", "type_d_stage_sets", "_closed_form_rows",
                  "_dominance_rows", "_rows_cache", "type_C_long_roots",
                  "type_D_parts"}


def _row_set_names(tree) -> set[str]:
    """The names of the root-set rows that a tree defines, imports or
    reads, and ``rows`` where it is imported or defined as a function."""
    imported, read = _names(tree)
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    return (((imported | read | defined) & _ROW_SET_NAMES)
            | ({"rows"} & (imported | defined)))


def test_type_d_stage_split_stays_in_rootcore():
    """The row profile and the witness solver read the type-D stage split
    from ``rootcore.stage_table``; neither tests for type D itself.  The
    table is the one representation of the rows: no module keeps the
    root-set one, and the ``witness`` command solves in the realization
    as built, whatever the type."""
    def parse(name):
        return ast.parse((SRC / "hessenpave" / name).read_text(encoding="utf-8"))

    def functions(tree):
        return {node.name: node for node in tree.body
                if isinstance(node, ast.FunctionDef)}

    assert _type_d_comparisons(parse("paving.py")) == []
    liealg = parse("liealg.py")
    for name in ("find_witness", "_verify_witness_matrix"):
        assert _type_d_comparisons(functions(liealg)[name]) == [], name
    for path in sorted((SRC / "hessenpave").glob("*.py")):
        assert _row_set_names(parse(path.name)) == set(), path.name
    assert _type_d_comparisons(functions(parse("cli.py"))["_run_witness"]) == []
    # the detectors see the comparisons, imports and names that belong
    # elsewhere
    assert _type_d_comparisons(ast.parse(
        "if real.rs.lie_type == 'D':\n    pass\n"
        "flip = lie_type != 'D' or rank < 4\n")) == [1, 3]
    probe = ast.parse("from .rootcore import rows\n"
                      "class RowDecomposition: pass\n"
                      "def type_d_stage_sets(rs): pass\n"
                      "rs._rows_cache = dec.type_D_parts[0]\n")
    assert _row_set_names(probe) == {"rows", "RowDecomposition",
                                     "type_d_stage_sets", "_rows_cache",
                                     "type_D_parts"}
    assert _row_set_names(ast.parse("rows = stage_table(rs).rows")) == set()


# The finite-field flag types the oracle dropped for its normal-form
# columns, the commutator wrapper ``sp_commutator`` replaced, and the type-D
# sign normalization that the signs of ``liealg._root_vectors`` replaced.
_REMOVED_NAMES = {"BruhatFlag", "PrimeFieldMatrix", "jordan_nilpotent",
                  "enumerate_cell_flags", "bracket", "normalize_type_D",
                  "_d_normalization_pairs", "gf2_solve"}


def _removed_names(tree) -> set[str]:
    """The removed names that a tree defines or imports."""
    imported, _ = _names(tree)
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    return (imported | defined) & _REMOVED_NAMES


def test_removed_flag_types_stay_out_of_the_library():
    """A flag is its normal-form columns and N is a shift: no module defines
    or imports the old flag, matrix and Jordan-block types, the cell
    enumerator, or the ``bracket`` wrapper.  Type D is built in its
    normalized signs: no module defines or imports the sign normalizer or
    its GF(2) solver."""
    for path in sorted((SRC / "hessenpave").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert _removed_names(tree) == set(), path.name
    # the detector sees definitions and imports of those names, and not
    # other uses of the words
    probe = ast.parse("from .fforacle import BruhatFlag, jordan_nilpotent\n"
                      "class PrimeFieldMatrix: pass\n"
                      "def enumerate_cell_flags(n, q, perm): pass\n"
                      "def bracket(real, a, b): pass\n"
                      "from .linalg import gf2_solve\n"
                      "def normalize_type_D(real): pass\n"
                      "def _d_normalization_pairs(rs): pass\n")
    assert _removed_names(probe) == _REMOVED_NAMES
    assert _removed_names(ast.parse("bracket = sp_commutator(a, b)")) == set()


def _names_outside_annotations(tree) -> set[str]:
    """The names a tree uses, leaving out those in type annotations: a
    kernel that takes rational input may say so without building one."""
    skip = set()
    for node in ast.walk(tree):
        for note in (getattr(node, "annotation", None),
                     getattr(node, "returns", None)):
            if note is not None:
                skip.update(map(id, ast.walk(note)))
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and id(node) not in skip}


def test_realization_constants_are_read_in_integers():
    """The structure constants and the Cartan eigenvalues are integers: the
    methods that read them off the matrices never name ``Fraction``, and
    neither do the seven lemma checks, the bracket and the scaled series
    they run on."""
    tree = ast.parse(
        (SRC / "hessenpave" / "liealg.py").read_text(encoding="utf-8"))
    realization = next(node for node in tree.body
                       if isinstance(node, ast.ClassDef)
                       and node.name == "ChevalleyRealization")
    methods = {node.name: node for node in realization.body
               if isinstance(node, ast.FunctionDef)}
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    checks = [name for name in functions if name.startswith("_check_")]
    assert len(checks) == 7, checks
    for name, node in ([(name, methods[name]) for name in
                        ("_extract_constants", "_validate_weights")]
                       + [(name, functions[name]) for name in
                          checks + ["_ibracket", "_iad_series"]]):
        assert "Fraction" not in _names_outside_annotations(node), name
    # the detector sees the name where it is used, and not in annotations
    assert "Fraction" in _names_outside_annotations(methods["expand"])
    probe = ast.parse("def f(x: Fraction) -> Fraction:\n"
                      "    y: Fraction = x\n    return y\n")
    assert "Fraction" not in _names_outside_annotations(probe)


# What turns a root into an index or builds one: outside the text of
# counterexamples and errors, ``liealg`` works on root indices only.
_ROOT_CALLS = {"root_index", "root_add", "Root"}


def _root_calls(tree) -> set[str]:
    """The ``root_index``, ``root_add`` and ``Root`` calls in a tree, by
    name, whether called as a method or a plain name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", None)
            if name in _ROOT_CALLS:
                out.add(name)
    return out


def test_roots_stay_at_the_edge_of_liealg():
    """The lemma checks, the coefficient calculus and the witness solver
    key every coefficient map by root index: none of them, nor the
    ``rootcore`` span lookup the type-D checks call, converts a root to an
    index or builds a root, and the module defines no converter between
    the two key types."""
    tree = ast.parse(
        (SRC / "hessenpave" / "liealg.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    checks = [name for name in functions if name.startswith("_check_")]
    assert len(checks) == 7, checks
    for name in checks + ["_ibracket", "_iad_series", "_ad_block",
                          "find_witness", "_verify_witness_matrix"]:
        assert _root_calls(functions[name]) == set(), name
    # the span lookup the type-D checks name their roots with
    rootcore = ast.parse(
        (SRC / "hessenpave" / "rootcore.py").read_text(encoding="utf-8"))
    lookup = next(node for node in rootcore.body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "_span_root")
    assert _root_calls(lookup) == set()
    assert not {"_to_index_coeffs", "_from_index_coeffs"} & {
        node.name for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    # the detector sees each call, and not the bare names
    probe = ast.parse("k = rs.root_index(a)\ns = rs.root_add(a, b)\n"
                      "r = Root((1, 0))\nf = rs.root_index\n")
    assert _root_calls(probe) == _ROOT_CALLS
    assert _root_calls(ast.parse("f = rs.root_index\nRoot\n")) == set()


def test_hessenberg_adds_and_builds_no_root():
    """Closure and enumeration in ``hessenberg`` read the lower-cover
    table: the module adds no roots and builds none; it only looks a root
    up by index (``root_index``) where a caller hands one in."""
    tree = ast.parse(
        (SRC / "hessenpave" / "hessenberg.py").read_text(encoding="utf-8"))
    assert _root_calls(tree) == {"root_index"}


# The per-module copies of the root-poset tables, and their cache slots,
# that the tables ``RootSystem`` builds on construction replaced.
_POSET_COPIES = {"_lower_covers", "_down_set_masks", "_height_masks",
                 "_positive_simple_drops", "_chain_root", "_down_sets_cache",
                 "_heights_cache", "_sum_pairs_cache"}


def _poset_copies(tree) -> set[str]:
    """The replaced names a tree defines, imports or reads, and
    ``_sum_pairs`` where it is defined as a function."""
    imported, read = _names(tree)
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    return (((imported | read | defined) & _POSET_COPIES)
            | ({"_sum_pairs"} & defined))


def test_root_poset_tables_are_built_only_in_rootcore():
    """Lower covers, down-sets, height masks and sum pairs are built once,
    by ``RootSystem``: no module keeps a helper or a cache slot for them,
    and every caller reads the system's own table."""
    for path in sorted((SRC / "hessenpave").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert _poset_copies(tree) == set(), path.name
    # the detector sees the definitions, imports and slots that are gone
    probe = ast.parse("from .hessenberg import _down_set_masks\n"
                      "def _sum_pairs(rs): pass\n"
                      "if rs._heights_cache is None: pass\n"
                      "pairs = rs._sum_pairs\n")
    assert _poset_copies(probe) == {"_down_set_masks", "_sum_pairs",
                                    "_heights_cache"}


def _main_block_calls(tree) -> list[str]:
    """The source of each statement in the ``if __name__ == "__main__":``
    blocks of a module."""
    out = []
    for node in tree.body:
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
                and isinstance(node.test.left, ast.Name)
                and node.test.left.id == "__name__"):
            out += [ast.unparse(stmt) for stmt in node.body]
    return out


def test_cli_main_block_only_calls_run():
    """``python -m hessenpave.cli`` ends through ``cli.run``, the one exit
    path."""
    tree = ast.parse((SRC / "hessenpave" / "cli.py").read_text(encoding="utf-8"))
    assert _main_block_calls(tree) == ["run()"]
    # the detector sees a block that bypasses run
    probe = ast.parse("if __name__ == '__main__':\n    sys.exit(main())\n")
    assert _main_block_calls(probe) == ["sys.exit(main())"]


def test_console_script_is_run():
    """The installed ``hessenpave`` script ends through ``cli.run`` too."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = SRC.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"hessenpave": "hessenpave.cli:run"}
