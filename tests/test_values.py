"""Value semantics of the package's record classes.

Each record is built positionally or by keyword, compares equal by value
and only to its own class, hashes as the tuple of its field values (so
sets and dicts of roots iterate in a fixed order), refuses assignment,
and prints as ``Name(field=value, ...)``.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from hessenpave.fforacle import CellCount, CountReport
from hessenpave.liealg import (
    CheckResult,
    LemmataReport,
    WitnessResult,
)
from hessenpave.paving import BettiTable, PavingCell
from hessenpave.rootcore import (
    Root,
    RootSystem,
    StageTable,
    enumerate_weyl,
)
from test_liealg import ref_RowMatrix

_RS = RootSystem("A", 2)
_A1, _A12 = Root((1, 0)), Root((1, 1))
_W = enumerate_weyl(_RS)[1]
_CHECK = CheckResult("row_structure", None)
_CELL = CellCount((2, 1), 3, 3)

# (class, field names in order, one value per field)
RECORDS = [
    (Root, ("coeffs",), ((1, 0, -1),)),
    (StageTable, ("rows", "stages", "long_roots", "masks"),
     (((2, 0), (1,)), (((2, 0), (2, 0)), ((1,), (1,))), (None, None),
      ((5, 5), (2, 2)))),
    (PavingCell, ("w", "nonempty", "dim"), (_W, True, 1)),
    (BettiTable, ("coefficients",), ((1, 2, 1),)),
    (ref_RowMatrix, ("roots", "entries"),
     ((_A12, _A1), ((0, Fraction(1, 2)), (0, 0)))),
    (CheckResult, ("name", "counterexample"),
     ("containment_first_entry", {"w": "1 2"})),
    (LemmataReport, ("checks",), ((_CHECK,),)),
    (WitnessResult, ("stage_solutions", "stage_kernel_dims", "verified"),
     (({0: 1}, {}), (1, 0), True)),
    (CellCount, ("perm", "count", "predicted"), ((2, 1), 3, 3)),
    (CountReport, ("n", "q", "h", "cells", "total", "betti_eval"),
     (2, 3, (2, 2), (_CELL,), 4, 4)),
]

# the row-operator record lives on as a reference in test_liealg
IDS = [cls.__name__.removeprefix("ref_") for cls, _, _ in RECORDS]


def _tuple_hash(values):
    """hash(values), or the exception type it raises."""
    try:
        return hash(values)
    except TypeError as exc:
        return type(exc)


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_positional_and_keyword_construction(cls, names, values):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    for name, value in zip(names, values):
        assert getattr(by_position, name) is value
        assert getattr(by_keyword, name) is value
    assert by_position == by_keyword


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_copy_and_pickle_keep_the_value(cls, names, values):
    x = cls(*values)
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is cls
        assert y == x


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_construction_rejects_wrong_fields(cls, names, values):
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, unknown_field=None)
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_equality_is_by_value_and_class(cls, names, values):
    x = cls(*values)
    assert x == cls(*values)
    assert not x != cls(*values)
    assert x != cls("changed", *values[1:])
    assert x.__eq__(object()) is NotImplemented
    assert x != object()


def test_equality_against_another_record_class():
    """Records of different classes with the same field values differ."""
    root, betti = Root((1, 2, 1)), BettiTable((1, 2, 1))
    assert root.__eq__(betti) is NotImplemented
    assert betti.__eq__(root) is NotImplemented
    assert root != betti
    assert len({root, betti}) == 2


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_hash_is_the_hash_of_the_field_tuple(cls, names, values):
    expected = _tuple_hash(tuple(values))
    if expected is TypeError:
        with pytest.raises(TypeError):
            hash(cls(*values))
    else:
        assert hash(cls(*values)) == expected


def test_root_sets_iterate_in_field_tuple_hash_order():
    roots = [Root(c) for c in ((1, 0, 0), (0, 1, 1), (1, 1, 0), (0, 0, 1))]
    assert ([r.coeffs for r in set(roots)]
            == [t[0] for t in set((r.coeffs,) for r in roots)])


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_assignment_is_refused(cls, names, values):
    x = cls(*values)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(x, name, values[0])
        with pytest.raises(AttributeError):
            delattr(x, name)
        assert getattr(x, name) is values[names.index(name)]
    with pytest.raises(AttributeError):
        x.extra = 1


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_repr_names_every_field(cls, names, values):
    fields = ", ".join(f"{n}={v!r}" for n, v in zip(names, values))
    assert repr(cls(*values)) == f"{cls.__name__}({fields})"


def test_repr_text():
    assert repr(Root((1, 0, -1))) == "Root(coeffs=(1, 0, -1))"
    assert repr(PavingCell(_W, False, None)) == (
        "PavingCell(w=WeylElement(A2, word=(1,)), nonempty=False, dim=None)")
    assert repr(CellCount((2, 1), 3, 3)) == (
        "CellCount(perm=(2, 1), count=3, predicted=3)")
