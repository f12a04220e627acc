"""What importing the package costs and what it exports."""

import ast
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import hessenpave
from hessenpave import fforacle, liealg, rootcore

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
     {"json"}),
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
    assert len(names) == len(set(names)) == 33
    for name in names:
        assert not name.startswith("_"), name
        assert not isinstance(getattr(hessenpave, name), types.ModuleType), name
    exported = [getattr(hessenpave, name) for name in names]
    assert rootcore._Record not in exported
    star: dict = {}
    exec("from hessenpave import *", star)
    assert set(star) - {"__builtins__"} == set(names)


# Junk for each kind of positional slot: an object slot takes a root
# system, element, space, realization, root, text or sequence; an int slot
# refuses what is not exactly an int; a slot whose default is None takes
# the rest of the object junk.
_JUNK = {"o": (5, None, "x"), "i": (None, "x", 2.0, True), "d": (5, "x")}
_RECORD = "a value record, built unchecked in the library's loops"

# Per public name: the kinds of its positional slots and valid arguments
# for them, built from the namespace ``v`` of the fixture below, or the
# reason it takes no guard.
_JUNK_ROWS = {
    "BettiTable": _RECORD,
    "ConsistencyError": "an exception: it takes any message",
    "HessenbergSpace": _RECORD,
    "PavingCell": _RECORD,
    "Root": _RECORD,
    "WitnessResult": _RECORD,
    "ChevalleyRealization": ("oo", lambda v: (v.rs, v.vectors)),
    "RootSystem": ("oi", lambda v: ("A", 2)),
    "WeylElement": ("oo", lambda v: (v.rs, tuple(range(6)))),
    "apply": ("oo", lambda v: (v.w, v.root)),
    "build_chevalley": ("o", lambda v: (v.rs,)),
    "cell_dimension": ("oo", lambda v: (v.w, v.space)),
    "cell_dimension_lie": ("oo", lambda v: (v.w, v.space)),
    "cell_nonempty": ("oo", lambda v: (v.w, v.space)),
    "compute_paving": ("o", lambda v: (v.space,)),
    "count_points": ("iio", lambda v: (3, 2, (2, 3, 3))),
    "dominance_leq": ("ooo", lambda v: (v.rs, v.root, v.root)),
    "enumerate_hessenberg": ("o", lambda v: (v.rs,)),
    "enumerate_weyl": ("o", lambda v: (v.rs,)),
    "find_witness": ("oood", lambda v: (v.real, v.w, v.space, None)),
    "format_root": ("o", lambda v: (v.root,)),
    "format_word": ("o", lambda v: (v.w,)),
    "from_function": ("io", lambda v: (3, (2, 3, 3))),
    "from_negative_roots": ("oo", lambda v: (v.rs, ())),
    "hessenberg_check": ("iooo", lambda v: (2, (1, 2, 3), v.columns,
                                            (3, 3, 3))),
    "inversion_set": ("o", lambda v: (v.w,)),
    "parse_root": ("oo", lambda v: (v.rs, "1,0")),
    "parse_word": ("oo", lambda v: (v.rs, "1")),
    "poincare_polynomial": ("o", lambda v: (v.space,)),
    "row_dimension_profile": ("oo", lambda v: (v.w, v.space)),
    "simple_reflection": ("oi", lambda v: (v.rs, 1)),
    "to_function": ("o", lambda v: (v.space,)),
    "verify_lemmata": ("o", lambda v: (v.real,)),
}


def test_every_public_name_has_a_junk_row():
    assert set(_JUNK_ROWS) == set(hessenpave.__all__)


@pytest.fixture(scope="module")
def valid():
    rs = hessenpave.RootSystem("A", 2)
    return types.SimpleNamespace(
        rs=rs, vectors=liealg._root_vectors(rs),
        real=hessenpave.build_chevalley(rs),
        w=hessenpave.parse_word(rs, "1"), root=rs.positive_roots[0],
        space=hessenpave.from_function(3, (3, 3, 3)),
        columns=[[1, 0, 0], [0, 1, 0], [0, 0, 1]])


@pytest.mark.parametrize("name", sorted(
    name for name, row in _JUNK_ROWS.items() if type(row) is tuple))
def test_public_callables_refuse_junk_by_name(valid, name):
    """Junk in any one positional slot of a public callable, with valid
    values in the others, is refused with a ValueError that shows the
    junk; never a bare TypeError or AttributeError from inside, nor a
    ConsistencyError, which reports a fault of the library."""
    kinds, make = _JUNK_ROWS[name]
    function = getattr(hessenpave, name)
    args = make(valid)
    assert len(args) == len(kinds)
    for slot, kind in enumerate(kinds):
        for junk in _JUNK[kind]:
            call = args[:slot] + (junk,) + args[slot + 1:]
            with pytest.raises(ValueError) as info:
                function(*call)
            assert repr(junk) in str(info.value), (slot, junk, info.value)


_B2 = hessenpave.RootSystem("B", 2)


def _first_entry_moved(rs, text, pos):
    """The root vectors of ``rs`` with the first entry of E_text moved to
    ``pos``, a position no root vector holds."""
    vectors = list(liealg._root_vectors(rs))
    assert all(pos not in mat for mat in vectors)
    k = rs._texts.index(text)
    (_, value), *rest = vectors[k].items()
    vectors[k] = {pos: value, **dict(rest)}
    return tuple(vectors)


# Refusals of well-typed but wrong values, each built from the namespace
# ``v`` of the ``valid`` fixture, with the exception and exact message.
_VALUE_REFUSALS = {
    "empty root vector": (
        lambda v: hessenpave.ChevalleyRealization(
            v.rs, ({},) + v.vectors[1:]),
        hessenpave.ConsistencyError, "A2: zero root vector at 0,1"),
    "diagonal entry": (
        lambda v: hessenpave.ChevalleyRealization(
            v.rs, ({(0, 0): 1},) + v.vectors[1:]),
        hessenpave.ConsistencyError, "A2: root vector with diagonal entry"),
    "short function": (
        lambda v: hessenpave.from_function(3, (2, 3)),
        ValueError, "expected 3 values, got 2"),
    "rank 0": (
        lambda v: hessenpave.from_function(1, (1,)),
        ValueError, "need n >= 2 for a rank >= 1 ambient system"),
    "function of a B2 space": (
        lambda v: hessenpave.to_function(
            hessenpave.enumerate_hessenberg(_B2)[0]),
        ValueError, "Hessenberg functions only encode type-A spaces"),
    "permutation of a B2 element": (
        lambda v: fforacle.weyl_to_permutation(
            hessenpave.parse_word(_B2, "1")),
        ValueError, "permutations encode type-A Weyl elements only"),
    "index of a non-root": (
        lambda v: v.rs.root_index(hessenpave.Root((2, 2))),
        ValueError, "2,2 is not a root of A2"),
    "reflection out of range": (
        lambda v: hessenpave.parse_word(v.rs, "3"),
        ValueError, "reflection index 3 out of range 1..2"),
    "positive root vector below the diagonal": (
        lambda v: hessenpave.ChevalleyRealization(
            _B2, _first_entry_moved(_B2, "0,1", (3, 1))),
        hessenpave.ConsistencyError,
        "B2: positive root vector 0,1 is not strictly upper triangular"),
    "flag pivots not a permutation": (
        lambda v: fforacle.hessenberg_check(
            2, (3, 1), [[1, 0], [0, 1]], (2, 2)),
        ValueError, "perm (3, 1) is not a permutation of 1..2"),
    "flag pivot a bool": (
        lambda v: fforacle.hessenberg_check(
            2, (True, 2), [[1, 0], [0, 1]], (2, 2)),
        ValueError, "perm (True, 2) is not a permutation of 1..2"),
    "flag pivot a float": (
        lambda v: fforacle.hessenberg_check(
            2, (1.0, 2), [[1, 0], [0, 1]], (2, 2)),
        ValueError, "perm (1.0, 2) is not a permutation of 1..2"),
    "flag with a column missing": (
        lambda v: fforacle.hessenberg_check(2, (1, 2), [[1, 0]], (2, 2)),
        ValueError, "cols must be 2 columns of 2 entries"),
    "flag with a short column": (
        lambda v: fforacle.hessenberg_check(
            2, (1, 2), [[1], [0, 1]], (2, 2)),
        ValueError, "cols must be 2 columns of 2 entries"),
    "flag with a short function": (
        lambda v: fforacle.hessenberg_check(
            2, (1, 2), [[1, 0], [0, 1]], (2,)),
        ValueError, "h must have 2 values, got 1"),
    "flag over q 0": (
        lambda v: fforacle.hessenberg_check(
            0, (2, 1), [[0, 1], [1, 0]], (1, 2)),
        ValueError, "q must be one of (2, 3, 5), got 0"),
    "flag over q 1": (
        lambda v: fforacle.hessenberg_check(
            1, (2, 1), [[0, 1], [1, 0]], (1, 2)),
        ValueError, "q must be one of (2, 3, 5), got 1"),
    "flag over a negative q": (
        lambda v: fforacle.hessenberg_check(
            -3, (2, 1), [[0, 1], [1, 0]], (1, 2)),
        ValueError, "q must be one of (2, 3, 5), got -3"),
    "flag over q 4": (
        lambda v: fforacle.hessenberg_check(
            4, (2, 1), [[2, 1], [1, 0]], (1, 2)),
        ValueError, "q must be one of (2, 3, 5), got 4"),
    "flag over q 6": (
        lambda v: fforacle.hessenberg_check(
            6, (1, 2), [[1, 0], [0, 1]], (1, 2)),
        ValueError, "q must be one of (2, 3, 5), got 6"),
    "flag over q 7": (
        lambda v: fforacle.hessenberg_check(
            7, (2, 1), [[0, 1], [1, 0]], (1, 2)),
        ValueError, "q must be one of (2, 3, 5), got 7"),
    "flag column off its normal form": (
        lambda v: fforacle.hessenberg_check(
            2, (1, 2), [[1, 0], [1, 1]], (2, 2)),
        ValueError, "column 2 is not in the normal form of perm (1, 2)"),
    "flag column not a sequence": (
        lambda v: fforacle.hessenberg_check(2, (1, 2), [5, 5], (2, 2)),
        ValueError, "5 is not a tuple or list"),
    "flag function of strings": (
        lambda v: fforacle.hessenberg_check(
            3, (1, 2, 3), v.columns, ("x", "y", "z")),
        ValueError, "h(1) = 'x' is not an integer in 1..3"),
    "flag function with a float": (
        lambda v: fforacle.hessenberg_check(
            3, (1, 2, 3), v.columns, (2.0, 3, 3)),
        ValueError, "h(1) = 2.0 is not an integer in 1..3"),
    "flag function with a bool": (
        lambda v: fforacle.hessenberg_check(
            3, (1, 2, 3), v.columns, (True, 3, 3)),
        ValueError, "h(1) = True is not an integer in 1..3"),
    "flag function over n": (
        lambda v: fforacle.hessenberg_check(
            3, (1, 2, 3), v.columns, (3, 3, 9)),
        ValueError, "h(3) = 9 is not an integer in 1..3"),
    "flag function at 0": (
        lambda v: fforacle.hessenberg_check(
            3, (1, 2, 3), v.columns, (0, 0, 0)),
        ValueError, "h(1) = 0 is not an integer in 1..3"),
    "flag free entry a string": (
        lambda v: fforacle.hessenberg_check(
            2, (2, 1), [["a", 1], [1, 0]], (2, 2)),
        ValueError, "column 1 entry 'a' is not an integer in 0..1"),
    "flag free entry outside the field": (
        lambda v: fforacle.hessenberg_check(
            3, (2, 1), [[3, 1], [1, 0]], (2, 2)),
        ValueError, "column 1 entry 3 is not an integer in 0..2"),
    "flag free entry negative": (
        lambda v: fforacle.hessenberg_check(
            3, (2, 1), [[-1, 1], [1, 0]], (2, 2)),
        ValueError, "column 1 entry -1 is not an integer in 0..2"),
}


@pytest.mark.parametrize("case", sorted(_VALUE_REFUSALS))
def test_wrong_values_are_refused_by_name(valid, case):
    """Each well-typed but wrong value is refused with its own message."""
    call, error, message = _VALUE_REFUSALS[case]
    with pytest.raises(error) as info:
        call(valid)
    assert type(info.value) is error
    assert str(info.value) == message


_TYPE_WORDING = re.compile(r"must be an integer, got|is not a [A-Z]")


def _type_refusals(tree) -> list[int]:
    """Lines of the ``raise ValueError(...)`` whose message text, with each
    formatted value read as ``{}``, has a wrong-type wording."""
    out = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and isinstance(node.exc.func, ast.Name)
                and node.exc.func.id == "ValueError"):
            continue
        text = "".join(
            "{}" if isinstance(part, ast.FormattedValue) else part.value
            for arg in node.exc.args for part in ast.walk(arg)
            if isinstance(part, ast.FormattedValue)
            or isinstance(part, ast.Constant) and type(part.value) is str)
        if _TYPE_WORDING.search(text):
            out.append(node.lineno)
    return out


def test_wrong_type_refusals_live_in_errors():
    """Only ``errors.expect`` words a wrong-type refusal; every other
    module calls it rather than raising its own."""
    files = sorted((SRC / "hessenpave").glob("*.py"))
    assert files
    for path in files:
        if path.name != "errors.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            assert _type_refusals(tree) == [], path.name
    # the detector reads f-strings, split strings and ``from`` clauses, and
    # passes a lowercase noun
    probe = ast.parse(
        "raise ValueError(f'{w!r} is not a WeylElement')\n"
        "raise ValueError('n must be an integer, '\n"
        "                 f'got {n!r}') from None\n"
        "raise ValueError(f'{r} is not a root of A2')\n")
    assert _type_refusals(probe) == [1, 2]


_FIRST_ENTRY_REASONS = {"zero row for an excluded root",
                        "first entry not at a simple difference"}


def _first_entry_reason_owners(tree) -> list[str | None]:
    """The innermost function around each first-entry reason string of a
    tree, None at module level."""
    owners = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Constant)
                    and child.value in _FIRST_ENTRY_REASONS):
                owners.append(owner)
            visit(child, owner)

    visit(tree, None)
    return owners


def test_first_entry_rule_lives_in_one_function():
    """Only ``liealg._first_entry_faults`` words the first-entry reasons;
    a containment counterexample reads them from its fault map."""
    found = [(path.stem, owner)
             for path in sorted((SRC / "hessenpave").glob("*.py"))
             for owner in _first_entry_reason_owners(
                 ast.parse(path.read_text(encoding="utf-8")))]
    assert found == [("liealg", "_first_entry_faults")] * 2


def _own_nodes(node):
    """The nodes under a function, but not under a function nested in it."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child
            yield from _own_nodes(child)


def _is_hm(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "hm"
            or isinstance(node, ast.Attribute) and node.attr == "hm")


def _outside_root_readers(tree) -> list[str]:
    """The functions of a tree that read ``hm`` and either shift it by a
    subscript (``hm >> inv[p]``, one root at a time) or read
    ``inverse_root_permutation``: each works out which roots w⁻¹ sends
    out of Φ_H."""
    owners = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = list(_own_nodes(func))
        per_root = any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.RShift)
                       and _is_hm(n.left) and isinstance(n.right, ast.Subscript)
                       for n in body)
        inverse = any(isinstance(n, ast.Attribute)
                      and n.attr == "inverse_root_permutation" for n in body)
        if any(map(_is_hm, body)) and (per_root or inverse):
            owners.append(func.name)
    return owners


def test_outside_roots_have_one_definition():
    """Only ``paving._outside_mask`` computes the positive roots outside
    wΦ_H; row profiles, witnesses and the containment check read it."""
    found = [(path.stem, owner)
             for path in sorted((SRC / "hessenpave").glob("*.py"))
             for owner in _outside_root_readers(
                 ast.parse(path.read_text(encoding="utf-8")))]
    assert found == [("paving", "_outside_mask")]
    # the detector finds the per-root loop that the helper replaced
    probe = ast.parse(
        "def profile(w, hm, inv):\n"
        "    return [p for p in range(9) if not hm >> inv[p] & 1]\n"
        "def landing(w, space):\n"
        "    inv = w.inverse_root_permutation()\n"
        "    return space.hm >> inv[0] & 1\n"
        "def dimension(w, space):\n"
        "    return (w.im & space.hm).bit_count()\n")
    assert _outside_root_readers(probe) == ["profile", "landing"]


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
# columns, the commutator wrapper ``sp_commutator`` replaced, the type-D
# sign normalization that the signs of ``liealg._root_vectors`` replaced,
# and the sparse-matrix predicates that ``==`` and one inline test replaced
# (sparse results hold no zero entries).
_REMOVED_NAMES = {"BruhatFlag", "PrimeFieldMatrix", "jordan_nilpotent",
                  "enumerate_cell_flags", "bracket", "normalize_type_D",
                  "_d_normalization_pairs", "gf2_solve", "sp_equal",
                  "sp_is_strictly_upper"}


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
    its GF(2) solver.  Sparse matrices compare with ``==``: ``sp_equal``
    and ``sp_is_strictly_upper`` are gone."""
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
                      "def _d_normalization_pairs(rs): pass\n"
                      "def sp_equal(a, b): pass\n"
                      "from .linalg import sp_is_strictly_upper\n")
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
    neither do the seven lemma checks, the bracket and the first-entry
    rule."""
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
                          checks + ["_ibracket", "_first_entry_faults"]]):
        assert "Fraction" not in _names_outside_annotations(node), name
    # the detector sees the name where it is used, and not in annotations
    assert "Fraction" in _names_outside_annotations(functions["_iad_exp"])
    probe = ast.parse("def f(x: Fraction) -> Fraction:\n"
                      "    y: Fraction = x\n    return y\n")
    assert "Fraction" not in _names_outside_annotations(probe)


def _uses(tree, name) -> bool:
    """Whether a tree names ``name`` outside the top-level definition of
    ``name`` itself, type annotations and docstrings."""
    rest = [node for node in tree.body
            if not (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name == name)]
    return name in _names_outside_annotations(
        ast.Module(body=rest, type_ignores=[]))


def test_every_public_name_has_a_caller():
    """Each name in ``__all__`` is used by a library module other than
    ``__init__``, or by a demo, so a helper that loses its last caller
    fails here instead of staying in the public API."""
    paths = [path for path in sorted((SRC / "hessenpave").glob("*.py"))
             if path.name != "__init__.py"]
    paths += sorted((SRC.parent / "demos").glob("*.py"))
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in paths]
    assert [name for name in hessenpave.__all__
            if not any(_uses(tree, name) for tree in trees)] == []
    # the detector skips a name's own definition, annotations, docstrings
    # and imports, and sees any other use
    probe = ast.parse("from .rootcore import apply\n"
                      "def inverse(w):\n    return inverse(w)\n"
                      "def f(x: Root) -> Root:\n"
                      "    \"\"\"Root, apply.\"\"\"\n    return compose(x)\n")
    assert [name for name in ("inverse", "Root", "apply", "compose")
            if _uses(probe, name)] == ["compose"]


def _private_definitions(tree) -> list:
    """The module-level functions and classes of a tree whose names start
    with ``_``, then the methods of its classes that do, dunders aside."""
    classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
    return ([node for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))
             and node.name.startswith("_")]
            + [node for cls in classes for node in cls.body
               if isinstance(node, ast.FunctionDef)
               and node.name.startswith("_")
               and not node.name.endswith("__")])


def _reads(tree) -> dict[str, list[frozenset[int]]]:
    """Each name and attribute a tree reads outside type annotations, with,
    for each read, the ids of the function and class definitions around
    it."""
    skip = set()
    for node in ast.walk(tree):
        for note in (getattr(node, "annotation", None),
                     getattr(node, "returns", None)):
            if note is not None:
                skip.update(map(id, ast.walk(note)))
    out: dict[str, list[frozenset[int]]] = {}

    def visit(node, around):
        if id(node) in skip:
            return
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            around = around | {id(node)}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.setdefault(node.id, []).append(around)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            out.setdefault(node.attr, []).append(around)
        for child in ast.iter_child_nodes(node):
            visit(child, around)

    visit(tree, frozenset())
    return out


def _unread_definitions(trees) -> list[str]:
    """The private definitions of the trees (see ``_private_definitions``)
    that no tree reads outside the definition itself."""
    reads: dict[str, list[frozenset[int]]] = {}
    for tree in trees:
        for name, arounds in _reads(tree).items():
            reads.setdefault(name, []).extend(arounds)
    return [node.name for tree in trees for node in _private_definitions(tree)
            if all(id(node) in around for around in reads.get(node.name, []))]


def _init_attributes(tree, class_name: str) -> list[str]:
    """The attributes the ``__init__`` of a class of the tree assigns on
    ``self``, sorted."""
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == class_name)
    init = next(node for node in cls.body
                if isinstance(node, ast.FunctionDef)
                and node.name == "__init__")
    return sorted({node.attr for node in ast.walk(init)
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.ctx, ast.Store)
                   and isinstance(node.value, ast.Name)
                   and node.value.id == "self"})


def test_every_private_name_is_read():
    """Each private function, class and method of the library, and each
    attribute that ``RootSystem`` or ``ChevalleyRealization`` sets on
    construction, is read somewhere in the library outside its own
    definition, so a helper or a table that loses its last reader fails
    here instead of staying in the code."""
    def parse(name):
        return ast.parse((SRC / "hessenpave" / name).read_text(encoding="utf-8"))

    trees = [parse(path.name)
             for path in sorted((SRC / "hessenpave").glob("*.py"))]
    assert _unread_definitions(trees) == []
    attributes = (_init_attributes(parse("rootcore.py"), "RootSystem")
                  + _init_attributes(parse("liealg.py"),
                                     "ChevalleyRealization"))
    assert {"_pos_diff", "_sum_pairs", "constants"} <= set(attributes)
    read = set().union(*(_reads(tree) for tree in trees))
    assert [name for name in attributes if name not in read] == []
    # the detector skips a definition's reads of itself, reads in type
    # annotations and dunder methods, and sees every other read
    probe = ast.parse("def _dead(x):\n    return _dead(x)\n"
                      "def _live(x: _Unused) -> _Unused:\n    return x\n"
                      "class _Unused:\n"
                      "    def _helper(self):\n        return self._other()\n"
                      "    def _other(self):\n        pass\n"
                      "    def __eq__(self, other):\n        pass\n"
                      "_live(1)\n")
    assert _unread_definitions([probe]) == ["_dead", "_Unused", "_helper"]
    probe = ast.parse("class K:\n    def __init__(self):\n"
                      "        self.a, self.b = 1, 2\n"
                      "        self.c: int = self.a\n        x.d = 3\n")
    assert _init_attributes(probe, "K") == ["a", "b", "c"]


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
    for name in checks + ["_ibracket", "_iad_exp", "_ad_block",
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
# that the tables ``RootSystem`` builds on construction replaced; the
# type-A column masks are the stage-table rows.
_POSET_COPIES = {"_lower_covers", "_down_set_masks", "_height_masks",
                 "_positive_simple_drops", "_chain_root", "_down_sets_cache",
                 "_heights_cache", "_sum_pairs_cache", "_column_masks",
                 "_columns_cache"}


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
    by ``RootSystem``, and the type-A columns are the stage-table rows: no
    module keeps a helper or a cache slot for them, and every caller reads
    the system's own table."""
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
    """``python -m hessenpave.cli`` and ``python -m hessenpave`` end
    through ``cli.run``, the one exit path."""
    trees = {name: ast.parse((SRC / "hessenpave" / name).read_text(
        encoding="utf-8")) for name in ("cli.py", "__main__.py")}
    for name, tree in trees.items():
        assert _main_block_calls(tree) == ["run()"], name
    assert [ast.unparse(node) for node in trees["__main__.py"].body
            if isinstance(node, ast.ImportFrom)] == ["from .cli import run"]
    # the detector sees a block that bypasses run
    probe = ast.parse("if __name__ == '__main__':\n    sys.exit(main())\n")
    assert _main_block_calls(probe) == ["sys.exit(main())"]


def _undocumented_checks(tree) -> list[str]:
    """The ``_check_*`` functions of a module that have no docstring."""
    return [node.name for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and node.name.startswith("_check_") and not ast.get_docstring(node)]


def test_every_lemma_check_states_what_it_tests():
    """Each of the seven lemma checks of ``liealg`` carries a docstring
    stating what it tests."""
    tree = ast.parse(
        (SRC / "hessenpave" / "liealg.py").read_text(encoding="utf-8"))
    checks = [node.name for node in tree.body
              if isinstance(node, ast.FunctionDef)
              and node.name.startswith("_check_")]
    assert len(checks) == 7, checks
    assert _undocumented_checks(tree) == []
    # the detector sees a check without a docstring, and only that one
    probe = ast.parse('def _check_bare(real):\n    return None\n'
                      'def _check_told(real):\n    """Tests x."""\n'
                      'def _helper(real):\n    return None\n')
    assert _undocumented_checks(probe) == ["_check_bare"]


_SAMPLER_PARAMETERS = {"trial_count", "trials", "seed"}


def _sampling_faults(tree) -> list[str]:
    """The functions of a module that take a ``trial_count``, ``trials``
    or ``seed`` parameter, and an ``import random`` for each import of it
    anywhere in the module."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and _SAMPLER_PARAMETERS & {
                a.arg for a in (*node.args.posonlyargs, *node.args.args,
                                *node.args.kwonlyargs)}:
            out.append(node.name)
        elif isinstance(node, ast.Import) and any(
                alias.name.split(".")[0] == "random" for alias in node.names):
            out.append("import random")
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module.split(".")[0] == "random"):
            out.append("import random")
    return out


def test_lemma_checks_take_trials_exactly_when_they_draw():
    """No lemma check draws: each decides its claim for every N at once.
    So no function of the package takes a trial count or a seed (the CLI
    reads ``--trials`` and ``--seed`` off its parsed arguments, only to
    echo them), and no module imports ``random``, at module level or in a
    function."""
    files = sorted((SRC / "hessenpave").glob("*.py"))
    assert files
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert _sampling_faults(tree) == [], path.name
    # the detector sees each parameter in any function and every form of
    # the import
    probe = ast.parse("def _check_idle(real, trials):\n    return None\n"
                      "def _check_seeded(real, seed):\n    return None\n"
                      "def _check_fine(real):\n    return None\n"
                      "def verify(real, trial_count=200, *, seed=1):\n"
                      "    return None\n"
                      "def _helper(real, rows):\n    return None\n"
                      "def f():\n    import random\n"
                      "from random import Random\n")
    assert sorted(_sampling_faults(probe)) == [
        "_check_idle", "_check_seeded", "import random", "import random",
        "verify"]


# What reads the realization's structure constants or the row operators
# they make: a lemma check that names one of these tests the realization.
_REALIZATION_READERS = {"constants", "_ibracket", "_iad_exp", "_ad_block",
                        "_first_entry_faults"}


def _realization_checks(tree) -> list[str]:
    """The ``_check_*`` functions of a module that name one of
    ``_REALIZATION_READERS``, as a name or an attribute, sorted."""
    return sorted(
        node.name for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_check_")
        and any(getattr(n, "id", getattr(n, "attr", None))
                in _REALIZATION_READERS for n in ast.walk(node)))


def test_only_three_lemma_checks_read_the_realization():
    """Of the lemma checks of ``liealg``, exactly the row structure, the
    containment and the type-D block read the structure constants; the
    other four decide their claims on the stage table and the root
    tables."""
    tree = ast.parse(
        (SRC / "hessenpave" / "liealg.py").read_text(encoding="utf-8"))
    assert _realization_checks(tree) == [
        "_check_containment", "_check_row_structure", "_check_type_d_block"]
    # the detector sees an attribute, a called name and a bare name
    probe = ast.parse("def _check_a(real):\n    return real.constants\n"
                      "def _check_b(real):\n    return _ibracket(real, {}, {})\n"
                      "def _check_c(real):\n    f = _ad_block\n"
                      "def _check_d(real):\n    return real.rs._sum_pairs\n"
                      "def _helper(real):\n    return real.constants\n")
    assert _realization_checks(probe) == ["_check_a", "_check_b", "_check_c"]


def test_console_script_is_run():
    """The installed ``hessenpave`` script ends through ``cli.run`` too."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = SRC.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"hessenpave": "hessenpave.cli:run"}
