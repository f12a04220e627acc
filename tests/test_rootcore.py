"""Root systems, Weyl groups, rows: frozen examples and invariants."""

import itertools
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessenpave import cli, rootcore
from hessenpave.errors import ConsistencyError
from hessenpave.rootcore import (
    Root,
    RootSystem,
    WeylElement,
    _Record,
    _row_key,
    apply,
    check_budget,
    dominance_leq,
    dominates,
    enumerate_weyl,
    format_root,
    format_word,
    inversion_set,
    parse_root,
    parse_word,
    simple_reflection,
    stage_table,
)

ALL_SMALL = [("A", 1), ("A", 2), ("A", 3), ("A", 4),
             ("B", 2), ("B", 3), ("B", 4),
             ("C", 2), ("C", 3), ("C", 4),
             ("D", 3), ("D", 4)]

RANK_12 = [(t, r) for t, low in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
           for r in range(low, 13)]


def roots_by_text(rs, *texts):
    return {parse_root(rs, t) for t in texts}


def ref_inversion_indices(w):
    """The inversion set of w as a frozenset of positive-root indices, read
    off the bits of ``w.inversion_mask()``."""
    mask = w.inversion_mask()
    return frozenset(p for p in range(w.rs.num_positive) if mask >> p & 1)


def ref_root_permutation(w):
    """The permutation w induces on ``rs.all_roots`` indices, inverted from
    ``w.inverse_root_permutation()``."""
    inv = w.inverse_root_permutation()
    perm = [0] * len(inv)
    for dst, src in enumerate(inv):
        perm[src] = dst
    return tuple(perm)


def ref_root_add(rs, a, b):
    """a + b as a Root when it is a root of rs, else None, by adding the
    coefficient vectors."""
    s = tuple(x + y for x, y in zip(a.coeffs, b.coeffs))
    return Root(s) if s in rs._index else None


def ref_pos_sum(rs, a, b):
    """The positive-root index of ``pos[a] + pos[b]`` when that is a root,
    else None, by adding the coefficient vectors."""
    pos = rs.positive_roots
    return rs._index.get(tuple(x + y for x, y in zip(pos[a].coeffs,
                                                     pos[b].coeffs)))


def ref_compose(w1, w2):
    """The product w1·w2 (w2 acts first on roots), from the two root
    permutations."""
    p1 = ref_root_permutation(w1)
    return WeylElement(w1.rs, (p1[k] for k in ref_root_permutation(w2)))


def ref_inverse(w):
    return WeylElement(w.rs, w.inverse_root_permutation())


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_positive_root_counts_closed_forms():
    assert len(RootSystem("A", 2).positive_roots) == 3
    assert len(RootSystem("B", 2).positive_roots) == 4
    assert len(RootSystem("D", 4).positive_roots) == 12


@pytest.mark.parametrize("lie_type,rank", ALL_SMALL + [("A", 5), ("B", 5), ("D", 5)])
def test_reflection_closure_oracle(lie_type, rank):
    """Close the simple roots under all simple reflections, through the
    public ``simple_reflection`` and ``apply``; the orbit must be exactly
    the stored root set.  This mirrors how the library generates the
    roots (``_root_orbit``); the independent check on them is the
    closed-form rows that ``stage_table`` builds."""
    rs = RootSystem(lie_type, rank)
    refl = [simple_reflection(rs, i) for i in range(1, rank + 1)]
    seen = set(rs.simple_roots)
    frontier = list(seen)
    while frontier:
        nxt = []
        for r in frontier:
            for s in refl:
                img = apply(s, r)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    assert seen == set(rs.all_roots)


@pytest.mark.parametrize("lie_type,rank", ALL_SMALL)
def test_sign_dichotomy_and_cartan(lie_type, rank):
    rs = RootSystem(lie_type, rank)
    for r in rs.positive_roots:
        assert r.is_positive and not (-r).is_positive
        assert all(c <= 0 for c in (-r).coeffs)
    cart = rs.cartan_matrix
    for j in range(rank):
        assert cart[j][j] == 2
        for i in range(rank):
            if i != j:
                assert cart[j][i] <= 0


def test_rank_bounds_rejected():
    with pytest.raises(ValueError):
        RootSystem("B", 1)
    with pytest.raises(ValueError):
        RootSystem("D", 2)
    with pytest.raises(ValueError):
        RootSystem("E", 6)
    RootSystem("D", 3)   # accepted low edge


@pytest.mark.parametrize("rank", [2.0, True, "2", None])
def test_non_integer_rank_is_refused(rank):
    """RootSystem refuses a rank that is not an int by name (True is not
    A1), and every budget check refuses it first with the same message."""
    message = "^" + re.escape(f"rank must be an integer, got {rank!r}") + "$"
    with pytest.raises(ValueError, match=message):
        RootSystem("A", rank)
    for kind in ("weyl", "roots", "spaces", "cells"):
        with pytest.raises(ValueError, match=message):
            check_budget(kind, "A", rank)


@pytest.mark.parametrize("coeffs,bad", [((1.9, 0), 1.9), (("1", True), "1"),
                                        ((1, True), True), ((1.0, 0), 1.0)])
def test_root_refuses_non_integer_coefficients(coeffs, bad):
    """A coefficient that is not an int is refused by name, not converted
    (1.9 would read as 1 and True as 1)."""
    message = "^" + re.escape(f"root coefficient {bad!r} is not an "
                              "integer") + "$"
    with pytest.raises(ValueError, match=message):
        RootSystem("A", 2).root(coeffs)


@pytest.mark.parametrize("coeffs", [5, None, 1.5])
def test_root_refuses_non_iterable_coefficients(coeffs):
    """Coefficients that are not a sequence at all are refused by name,
    not with a bare TypeError from ``tuple``."""
    message = "^" + re.escape(f"root coefficients {coeffs!r} are not a "
                              "sequence of integers") + "$"
    with pytest.raises(ValueError, match=message):
        RootSystem("A", 2).root(coeffs)


AFFINE_A1 = ((2, -2), (-2, 2))
WRONG_CARTAN = [
    ("A2", AFFINE_A1, "the reflection orbit of the simple roots has more "
                      "than 6 vectors"),
    ("B2", AFFINE_A1, "the reflection orbit of the simple roots has more "
                      "than 8 vectors"),
    ("C2", AFFINE_A1, "the reflection orbit of the simple roots has more "
                      "than 8 vectors"),
    ("A2", ((2, 0), (0, 2)), "the reflection orbit has 4 roots, 2 of them "
                             "positive; expected 3 positive roots and "
                             "their negatives"),
]


@pytest.mark.parametrize("system,cartan,message", WRONG_CARTAN,
                         ids=["affine-A2", "affine-B2", "affine-C2",
                              "A1xA1-A2"])
def test_wrong_cartan_matrix_fails_promptly(monkeypatch, system, cartan,
                                            message):
    """A wrong Cartan matrix stops construction within a second, with an
    error naming the system: the affine A1 matrix has infinitely many real
    roots, so its orbit outgrows twice the positive-root count, and A1×A1
    gives too few roots."""
    monkeypatch.setattr(RootSystem, "_build_cartan", lambda self: cartan)
    start = time.perf_counter()
    with pytest.raises(ConsistencyError,
                       match="^" + re.escape(f"{system}: {message}") + "$"):
        RootSystem(system[0], 2)
    assert time.perf_counter() - start < 1


def _orbit_with_swapped_root(real, k):
    """The orbit function ``real`` with the k-th positive vector by height
    (the highest root, last, excluded), and that vector's negative,
    replaced by the non-root θ + α_1 (θ the highest root) and its
    negative; the count and the images are kept."""
    def swapped(cartan, limit):
        orbit, images = real(cartan, limit)
        positive = sorted((u for u in orbit if min(u) >= 0), key=sum)
        v, top = positive[k], positive[-1]
        fake = (top[0] + 1,) + top[1:]
        neg = {v: fake, tuple(-c for c in v): tuple(-c for c in fake)}
        return [neg.get(u, u) for u in orbit], images

    return swapped


@pytest.mark.parametrize("system", ["A2", "A3", "B3", "C3", "D4"])
def test_root_orbit_with_a_non_root_is_caught(monkeypatch, system):
    """Swap each positive root but the highest in turn, with its negative,
    for a non-root: either construction or the first stage table (whose
    closed-form rows no longer find the swapped root) raises
    ConsistencyError naming the system, never KeyError; some swaps get
    past construction, so the rows are reached."""
    lie_type, rank = system[0], int(system[1:])
    real = rootcore._root_orbit
    caught_by_rows = 0
    for k in range(len(RootSystem(lie_type, rank).positive_roots) - 1):
        monkeypatch.setattr(rootcore, "_root_orbit",
                            _orbit_with_swapped_root(real, k))
        try:
            rs = RootSystem(lie_type, rank)
        except ConsistencyError as exc:
            assert str(exc).startswith(f"{system}: ")
            continue
        with pytest.raises(ConsistencyError,
                           match=rf"^{system}: closed-form root [-0-9,]+ "
                                 r"was not generated$"):
            stage_table(rs)
        caught_by_rows += 1
    assert caught_by_rows


def test_root_text_round_trip():
    rs = RootSystem("C", 2)
    gamma = parse_root(rs, "2,1")
    assert format_root(gamma) == "2,1"
    with pytest.raises(ValueError):
        parse_root(rs, "1,1,1")
    with pytest.raises(ValueError):
        parse_root(rs, "banana")
    for bad in (5, None, (2, 1)):
        message = "^" + re.escape(f"malformed root text {bad!r}") + "$"
        with pytest.raises(ValueError, match=message):
            parse_root(rs, bad)


# ---------------------------------------------------------------------------
# dominance
# ---------------------------------------------------------------------------


def test_dominance_examples():
    a2 = RootSystem("A", 2)
    a1, a2r = a2.simple_roots
    theta = parse_root(a2, "1,1")
    assert dominance_leq(a2, a1, theta)
    assert not dominance_leq(a2, a1, a2r)
    c2 = RootSystem("C", 2)
    assert dominance_leq(c2, parse_root(c2, "1,1"), parse_root(c2, "2,1"))


@pytest.mark.parametrize("bad", ["x", "1,0", (1, 0), 1, None])
def test_root_lookups_refuse_non_roots(bad):
    """``root_index``, ``HessenbergSpace.contains`` and ``dominance_leq``
    refuse an argument that is not a Root by name, not with a bare
    AttributeError on ``.coeffs``."""
    from hessenpave.hessenberg import full_space

    a2 = RootSystem("A", 2)
    theta = parse_root(a2, "1,1")
    message = "^" + re.escape(f"{bad!r} is not a Root") + "$"
    for call in (lambda: a2.root_index(bad),
                 lambda: full_space(a2).contains(bad),
                 lambda: dominance_leq(a2, bad, theta),
                 lambda: dominance_leq(a2, theta, bad)):
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize("lie_type,rank", [("A", 4), ("B", 4), ("C", 4), ("D", 4)])
def test_dominance_is_partial_order(lie_type, rank):
    rs = RootSystem(lie_type, rank)
    pos = rs.positive_roots
    for a in pos:
        assert dominance_leq(rs, a, a)
    for a, b in itertools.permutations(pos, 2):
        if dominance_leq(rs, a, b) and dominance_leq(rs, b, a):
            assert a == b
    for a, b, c in itertools.product(pos, repeat=3):
        if dominance_leq(rs, a, b) and dominance_leq(rs, b, c):
            assert dominance_leq(rs, a, c)


# ---------------------------------------------------------------------------
# rows
# ---------------------------------------------------------------------------


class RefRowDecomposition(_Record):
    """The partition of the positive roots into rows.

    ``rows[i-1]`` is row ``i``.  For type C, ``type_C_long_roots[i-1]`` is
    the long root ``2ε_i`` spanning the derived algebra of the Heisenberg
    row (None for row n and for other types).  For type D,
    ``type_D_parts[i-1]`` splits row ``i`` into the three parts counting how
    many of the fork roots ``{α_{n-1}, α_n}`` appear as summands.
    """

    __slots__ = ("rows", "type_C_long_roots", "type_D_parts")

    def __init__(self, rows: tuple[frozenset[Root], ...],
                 type_C_long_roots: tuple[Root | None, ...] | None = None,
                 type_D_parts: tuple[tuple[frozenset[Root], frozenset[Root],
                                           frozenset[Root]], ...] | None = None):
        super().__init__(rows, type_C_long_roots, type_D_parts)


def ref_closed_form_rows(rs) -> list[set[Root]]:
    n = rs.rank
    t = rs.lie_type

    def span(lo: int, hi: int) -> list[int]:
        return [1 if lo <= k <= hi else 0 for k in range(1, n + 1)]

    def mk(v: list[int]) -> Root:
        return rs.root(v)

    out: list[set[Root]] = []
    for i in range(1, n + 1):
        row: set[Root] = set()
        if t == "A":
            for k in range(i, n + 1):
                row.add(mk(span(i, k)))
        elif t == "B":
            for k in range(i, n + 1):
                row.add(mk(span(i, k)))
            for k in range(i + 1, n + 1):
                v = span(i, n)
                for j in range(k, n + 1):
                    v[j - 1] += 1
                row.add(mk(v))
        elif t == "C":
            for k in range(i, n + 1):
                row.add(mk(span(i, k)))
            for k in range(i, n):
                v = span(i, n)
                for j in range(k, n):
                    v[j - 1] += 1
                row.add(mk(v))
        elif t == "D":
            for k in range(i, n):
                row.add(mk(span(i, k)))
            for k in range(i + 1, n + 1):
                v = span(i, n - 2)
                v[n - 1] += 1
                for j in range(k, n):
                    v[j - 1] += 1
                row.add(mk(v))
        out.append(row)
    return out


def ref_dominance_rows(rs) -> list[set[Root]]:
    """Rows from the dominance order: root α lands in the first row i with
    α ≥ α_i.  In type D the two fork rows are merged into row n−1."""
    n = rs.rank
    out: list[set[Root]] = [set() for _ in range(n)]
    for alpha in rs.positive_roots:
        i = next(k for k in range(1, n + 1)
                 if dominates(alpha, rs.simple_roots[k - 1]))
        out[i - 1].add(alpha)
    if rs.lie_type == "D":
        out[n - 2] |= out[n - 1]
        out[n - 1] = set()
    return out


def ref_rows(rs) -> RefRowDecomposition:
    """The row decomposition as sets of roots, computed two ways and
    cross-checked: the library's definition before the stage table took
    its place."""
    n = rs.rank
    closed = ref_closed_form_rows(rs)
    definitional = ref_dominance_rows(rs)
    if closed != definitional:
        raise ConsistencyError(
            f"row decompositions disagree for {rs.lie_type}{rs.rank}")
    if set().union(*closed) != set(rs.positive_roots):
        raise ConsistencyError("rows do not cover the positive roots")
    if sum(len(r) for r in closed) != rs.num_positive:
        raise ConsistencyError("rows overlap")

    long_roots = None
    d_parts = None
    if rs.lie_type == "C":
        lst: list[Root | None] = []
        for i in range(1, n + 1):
            if i < n:
                v = [0] * n
                for k in range(i, n):
                    v[k - 1] = 2
                v[n - 1] = 1
                gamma = rs.root(v)
                if gamma not in closed[i - 1]:
                    raise ConsistencyError(f"long root of row {i} not in the row")
                lst.append(gamma)
            else:
                lst.append(None)
        long_roots = tuple(lst)
    if rs.lie_type == "D":
        parts = []
        for i in range(1, n + 1):
            p0, p1, p2 = set(), set(), set()
            for alpha in closed[i - 1]:
                fork = (alpha.coeffs[n - 2] >= 1) + (alpha.coeffs[n - 1] >= 1)
                (p0, p1, p2)[fork].add(alpha)
            if len(p1) not in (0, 2):
                raise ConsistencyError("middle part of a D row must have 0 or 2 roots")
            parts.append((frozenset(p0), frozenset(p1), frozenset(p2)))
        d_parts = tuple(parts)

    return RefRowDecomposition(
        rows=tuple(frozenset(r) for r in closed),
        type_C_long_roots=long_roots,
        type_D_parts=d_parts,
    )


def ref_type_d_stage_sets(rs) -> tuple[tuple[frozenset[Root], frozenset[Root]], ...]:
    """Per-stage (variable roots, constraint roots) for the paired type-D
    solve.  Stage i (0-based, i = 0..n−1) solves for coordinates on
    ``Φ_i^0 ∪ Φ_{i+1}^1 ∪ Φ_{i+1}^2`` against constraints on
    ``Φ_i^0 ∪ Φ_i^1 ∪ Φ_{i+1}^2``; out-of-range rows contribute nothing.
    The stages partition the positive roots on both sides, which is what
    makes the per-stage dimensions sum to the cell dimension."""
    if rs.lie_type != "D":
        raise ValueError("stage sets are a type-D notion")
    dec = ref_rows(rs)
    n = rs.rank
    empty = frozenset()

    def part(i: int, k: int) -> frozenset[Root]:
        if 1 <= i <= n:
            return dec.type_D_parts[i - 1][k]
        return empty

    out = []
    for i in range(0, n):
        dom = part(i, 0) | part(i + 1, 1) | part(i + 1, 2)
        cod = part(i, 0) | part(i, 1) | part(i + 1, 2)
        out.append((frozenset(dom), frozenset(cod)))
    return tuple(out)


def table_roots(rs, indices):
    """The positive roots at the given indices, as a set."""
    return frozenset(rs.positive_roots[k] for k in indices)


def test_rows_a2_b2_frozen():
    a2 = RootSystem("A", 2)
    table = stage_table(a2)
    assert table_roots(a2, table.rows[0]) == roots_by_text(a2, "1,0", "1,1")
    assert table_roots(a2, table.rows[1]) == roots_by_text(a2, "0,1")

    b2 = RootSystem("B", 2)
    tableb = stage_table(b2)
    assert table_roots(b2, tableb.rows[0]) == roots_by_text(
        b2, "1,0", "1,1", "1,2")
    assert table_roots(b2, tableb.rows[1]) == roots_by_text(b2, "0,1")


def test_rows_d4_frozen():
    d4 = RootSystem("D", 4)
    table = stage_table(d4)
    assert table_roots(d4, table.rows[0]) == roots_by_text(
        d4, "1,0,0,0", "1,1,0,0", "1,1,1,0", "1,1,0,1", "1,1,1,1", "1,2,1,1")
    p0, p1, p2 = ref_rows(d4).type_D_parts[0]
    assert p0 == roots_by_text(d4, "1,0,0,0", "1,1,0,0")
    assert p1 == roots_by_text(d4, "1,1,1,0", "1,1,0,1")
    assert p2 == roots_by_text(d4, "1,1,1,1", "1,2,1,1")
    # stage 0 solves for the fork-bearing parts of row 1 against its part
    # 2; stage 1 pairs part 0 of row 1 (and part 1 as constraints) with
    # the fork-bearing parts of row 2
    vars0, cons0 = table.stages[0]
    assert table_roots(d4, vars0) == p1 | p2
    assert table_roots(d4, cons0) == p2
    vars1, cons1 = table.stages[1]
    assert table_roots(d4, vars1) == p0 | roots_by_text(
        d4, "0,1,0,1", "0,1,1,0", "0,1,1,1")
    assert table_roots(d4, cons1) == p0 | p1 | roots_by_text(d4, "0,1,1,1")
    # fork row carries both fork simple roots; row n is empty
    assert table_roots(d4, table.rows[2]) == roots_by_text(
        d4, "0,0,1,0", "0,0,0,1")
    assert table.rows[3] == ()


@pytest.mark.parametrize("lie_type,rank", RANK_12)
def test_rows_partition_and_table_agreement(lie_type, rank):
    """Building the table cross-checks the closed forms against the
    generated roots and the dominance computation and would raise on
    disagreement, on every system of rank ≤ 12; here we re-verify the
    partition property."""
    rs = RootSystem(lie_type, rank)
    members = [k for row in stage_table(rs).rows for k in row]
    assert sorted(members) == list(range(rs.num_positive))


@pytest.mark.parametrize("lie_type,rank",
                         [("A", 4), ("B", 4), ("C", 4)])
def test_rows_totally_ordered_by_height(lie_type, rank):
    """In A/B/C each row is a height chain with simple-root steps."""
    rs = RootSystem(lie_type, rank)
    for i in range(1, rank + 1):
        order = [rs.positive_roots[k] for k in stage_table(rs).rows[i - 1]]
        heights = [r.height for r in order]
        assert heights == sorted(set(heights), reverse=True)
        for above, below in zip(order, order[1:]):
            diff = tuple(a - b for a, b in zip(above.coeffs, below.coeffs))
            assert sum(diff) == 1 and diff in rs._index


def test_type_c_long_roots():
    c3 = RootSystem("C", 3)
    long_roots = stage_table(c3).long_roots
    assert format_root(c3.positive_roots[long_roots[0]]) == "2,2,1"
    assert format_root(c3.positive_roots[long_roots[1]]) == "0,2,1"
    assert long_roots[2] is None


def test_type_d_stage_sets_partition_both_sides():
    for rank in (3, 4, 5):
        rs = RootSystem("D", rank)
        stages = stage_table(rs).stages
        assert len(stages) == rank
        for side in (0, 1):
            members = [k for stage in stages for k in stage[side]]
            assert sorted(members) == list(range(rs.num_positive))


def ref_stage_table(rs):
    """Rows, stages and long roots as positive-root indices, built from
    the root-set reference: a ``_row_key`` sort of each row and of each
    type-D stage set, and the index of each root of
    ``ref_rows(rs).type_C_long_roots``."""
    dec = ref_rows(rs)

    def ordered(roots):
        return tuple(rs.root_index(r) for r in sorted(roots, key=_row_key))

    row_orders = tuple(ordered(row) for row in dec.rows)
    long_roots = tuple(None if g is None else rs.root_index(g)
                       for g in dec.type_C_long_roots or [None] * rs.rank)
    if rs.lie_type != "D":
        return row_orders, tuple((r, r) for r in row_orders), long_roots
    stages = tuple((ordered(dom), ordered(cod))
                   for dom, cod in ref_type_d_stage_sets(rs))
    return row_orders, stages, long_roots


RANK_8 = ([("A", r) for r in range(1, 9)] + [("B", r) for r in range(2, 9)]
          + [("C", r) for r in range(2, 9)] + [("D", r) for r in range(3, 9)])


@pytest.mark.parametrize("lie_type,rank", RANK_8)
def test_stage_table_equals_reference(lie_type, rank):
    """Every system of rank ≤ 8: the index table equals the root-set
    reference in its rows, stages and long roots."""
    rs = RootSystem(lie_type, rank)
    table = stage_table(rs)
    assert (table.rows, table.stages, table.long_roots) == ref_stage_table(rs)
    for row, order in zip(ref_rows(rs).rows, table.rows):
        assert (tuple(rs.positive_roots[k] for k in order)
                == tuple(sorted(row, key=_row_key)))
    assert stage_table(rs) is table


def _move_root(rs):
    rows, long_roots = BUILD_ROWS(rs)
    rows[1].append(rows[0].pop())
    return rows, long_roots


def _drop_root(rs):
    rows, long_roots = BUILD_ROWS(rs)
    rows[0].pop()
    return rows, long_roots


def _repeat_root(rs):
    rows, long_roots = BUILD_ROWS(rs)
    rows[1].append(rows[0][0])
    return rows, long_roots


def _misplace_long_root(rs):
    rows, long_roots = BUILD_ROWS(rs)
    long_roots[0] = rows[1][0]
    return rows, long_roots


def _split_middle_part(rs, row):
    p0, p1, p2 = FORK_PARTS(rs, row)
    return p0 + p1[:1], p1[1:], p2


BUILD_ROWS = rootcore._closed_form_index_rows
FORK_PARTS = rootcore._fork_parts

# (system, builder patched, patch, the check it must trip)
BROKEN_TABLES = [
    ("A3", "_closed_form_index_rows", _move_root, "row decompositions disagree"),
    ("B3", "_closed_form_index_rows", _drop_root,
     "rows do not cover the positive roots"),
    ("D4", "_closed_form_index_rows", _repeat_root, "rows overlap"),
    ("C3", "_closed_form_index_rows", _misplace_long_root,
     "long root of row 1 not in the row"),
    ("D4", "_fork_parts", _split_middle_part,
     "middle part of a D row must have 0 or 2 roots"),
]


@pytest.mark.parametrize("system,builder,patch,message", BROKEN_TABLES,
                         ids=[p[2].__name__.strip("_") for p in BROKEN_TABLES])
def test_stage_table_build_checks_can_fail(monkeypatch, system, builder,
                                           patch, message):
    """Each build-time check of the stage table trips when one index
    builder is broken, and the error names the system."""
    monkeypatch.setattr(rootcore, builder, patch)
    rs = RootSystem(system[0], int(system[1:]))
    with pytest.raises(ConsistencyError, match=rf"^{system}: {message}$"):
        stage_table(rs)


def test_broken_stage_table_exits_2(monkeypatch, capsys):
    """A command that reads the rows reports a broken table as a
    consistency failure: exit 2 and one line on stderr naming the
    system."""
    monkeypatch.setattr(rootcore, "_fork_parts", _split_middle_part)
    code = cli.main(["paving", "--type", "D", "--rank", "4", "--hess", "full"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == ("hessenpave: consistency failure: D4: middle part of a D "
                   "row must have 0 or 2 roots\n")


# ---------------------------------------------------------------------------
# Weyl group
# ---------------------------------------------------------------------------


def test_simple_reflection_examples():
    a2 = RootSystem("A", 2)
    s1 = simple_reflection(a2, 1)
    assert apply(s1, a2.simple_roots[0]).coeffs == (-1, 0)
    assert apply(s1, a2.simple_roots[1]).coeffs == (1, 1)
    b2 = RootSystem("B", 2)
    assert apply(simple_reflection(b2, 2), b2.simple_roots[0]).coeffs == (1, 2)
    assert ref_compose(s1, s1) == parse_word(a2, "")
    with pytest.raises(ValueError):
        simple_reflection(a2, 3)


@pytest.mark.parametrize("i", [True, False, 1.0, "1", None])
def test_simple_reflection_refuses_non_integer_index(i):
    """An index that is not an int is refused by name, as ranks are: True
    once returned s_1, and 1.0 ended in a bare TypeError."""
    message = "^" + re.escape(
        f"reflection index must be an integer, got {i!r}") + "$"
    with pytest.raises(ValueError, match=message):
        simple_reflection(RootSystem("A", 2), i)


def test_enumerate_weyl_counts_and_order():
    a2 = RootSystem("A", 2)
    elems = enumerate_weyl(a2)
    assert [w.length for w in elems] == [0, 1, 1, 2, 2, 3]
    b2 = RootSystem("B", 2)
    elemsb = enumerate_weyl(b2)
    assert len(elemsb) == 8 and elemsb[-1].length == 4
    assert len(enumerate_weyl(RootSystem("D", 4))) == 192
    words = [w.word for w in elems]
    assert words == sorted(words, key=lambda t: (len(t), t))


def test_inversion_sets():
    a2 = RootSystem("A", 2)
    elems = enumerate_weyl(a2)
    assert inversion_set(elems[0]) == frozenset()
    s1 = parse_word(a2, "1")
    assert inversion_set(s1) == roots_by_text(a2, "1,0")
    w0 = elems[-1]
    assert inversion_set(w0) == set(a2.positive_roots)
    for w in elems:
        assert len(inversion_set(w)) == w.length


@pytest.mark.parametrize("lie_type,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4)])
def test_inversion_set_exchange_consistency(lie_type, rank):
    """Φ_w from the matrix equals the set accumulated along the word:
    {α_{i1}, s_{i1}α_{i2}, s_{i1}s_{i2}α_{i3}, ...}."""
    rs = RootSystem(lie_type, rank)
    for w in enumerate_weyl(rs):
        acc = set()
        prefix = parse_word(rs, "")
        for letter in w.word:
            acc.add(apply(prefix, rs.simple_roots[letter - 1]))
            prefix = ref_compose(prefix, simple_reflection(rs, letter))
        assert prefix == w
        assert acc == inversion_set(w)


def test_apply_example_spec():
    a2 = RootSystem("A", 2)
    w = parse_word(a2, "1 2")
    assert apply(w, a2.simple_roots[1]).coeffs == (-1, -1)
    assert apply(ref_inverse(w), a2.simple_roots[0]).coeffs == (-1, -1)
    for r in a2.all_roots:
        assert apply(parse_word(a2, ""), r) == r


def test_word_round_trip_and_canonicalization():
    b3 = RootSystem("B", 3)
    w = parse_word(b3, "1 2 1 3")
    again = parse_word(b3, format_word(w))
    assert again == w
    # non-reduced input canonicalizes
    assert parse_word(b3, "1 1") == parse_word(b3, "")
    assert parse_word(b3, "").length == 0
    for bad in (5, None, [1, 2]):
        message = "^" + re.escape(f"malformed Weyl word {bad!r}") + "$"
        with pytest.raises(ValueError, match=message):
            parse_word(b3, bad)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=3), max_size=10),
       st.lists(st.integers(min_value=1, max_value=3), max_size=10))
def test_group_laws_random_words(word1, word2):
    rs = RootSystem("B", 3)
    w1 = parse_word(rs, " ".join(map(str, word1)))
    w2 = parse_word(rs, " ".join(map(str, word2)))
    prod = ref_compose(w1, w2)
    assert ref_compose(prod, ref_inverse(w2)) == w1
    assert ref_compose(ref_inverse(w1), w1) == parse_word(rs, "")
    for r in rs.simple_roots:
        assert apply(prod, r) == apply(w1, apply(w2, r))
    assert len(inversion_set(prod)) == prod.length


def test_weyl_element_rejects_non_root_permutation():
    rs = RootSystem("A", 2)
    # all_roots of A2: 0,1 / 1,0 / 1,1 and their negatives
    assert WeylElement(rs, range(6)) == parse_word(rs, "")
    with pytest.raises(ValueError, match="not a permutation"):
        WeylElement(rs, (0, 1, 2, 3, 4))
    with pytest.raises(ValueError, match="not a permutation"):
        WeylElement(rs, (0, 0, 2, 3, 4, 5))
    # swaps α_1 and α_2 but not their negatives
    with pytest.raises(ValueError, match="not linear"):
        WeylElement(rs, (1, 0, 2, 3, 4, 5))
    # sends α_1 + α_2 elsewhere than the sum of the images
    with pytest.raises(ValueError, match="not linear"):
        WeylElement(rs, (0, 2, 1, 3, 5, 4))
    # the diagram flip α_1 ↔ α_2 is linear but lies outside W
    with pytest.raises(ValueError, match="not induced by a Weyl"):
        WeylElement(rs, (1, 0, 2, 4, 3, 5))


# ---------------------------------------------------------------------------
# reference: Weyl elements as products of reflection matrices
# ---------------------------------------------------------------------------


def _reflection_matrix(rs, i):
    """s_i on simple-root coordinates: s_i(α_j) = α_j − c_{ji} α_i."""
    n = rs.rank
    cart = rs.cartan_matrix
    return tuple(tuple(int(k == j) - (cart[j][i] if k == i else 0)
                       for j in range(n)) for k in range(n))


def _mat_mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col))
                       for col in zip(*b)) for row in a)


def _mat_vec(m, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def _reference_weyl(rs):
    """(word, matrix) for every element, by length and then word.

    Breadth first over products of reflection matrices, so each new layer
    is one longer than the last.  Each element carries its inverse (the
    reversed product) and is named by greedy descent: strip the smallest
    s_i whose w⁻¹α_i, column i of the inverse, is negative.
    """
    n = rs.rank
    gens = [_reflection_matrix(rs, i) for i in range(n)]
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))

    def greedy_word(m, minv):
        word = []
        while m != ident:
            i = next(i for i in range(n) if all(row[i] <= 0 for row in minv))
            word.append(i + 1)
            m, minv = _mat_mul(gens[i], m), _mat_mul(minv, gens[i])
        return tuple(word)

    seen = {ident}
    layer = [(ident, ident)]
    out = [((), ident)]
    while layer:
        nxt = []
        for m, minv in layer:
            for g in gens:
                p = _mat_mul(m, g)
                if p not in seen:
                    seen.add(p)
                    nxt.append((p, _mat_mul(g, minv)))
        out.extend(sorted((greedy_word(m, minv), m) for m, minv in nxt))
        layer = nxt
    return out


@pytest.mark.parametrize("lie_type,rank", ALL_SMALL + [("A", 5)])
def test_enumerate_weyl_matches_matrix_reference(lie_type, rank):
    rs = RootSystem(lie_type, rank)
    elems = enumerate_weyl(rs)
    ref = _reference_weyl(rs)
    assert [w.word for w in elems] == [word for word, _ in ref]
    for w, (_, m) in zip(elems, ref):
        for r in rs.all_roots:
            assert apply(w, r).coeffs == _mat_vec(m, r.coeffs)


@pytest.mark.parametrize("lie_type,rank",
                         ALL_SMALL + [("A", 5), ("B", 5), ("C", 5), ("D", 5)])
def test_enumerate_weyl_fast_path_matches_checked_constructor(lie_type, rank):
    """Every enumerated element, whose fields are derived from its parent
    without checks, equals the element the public constructor builds and
    checks from the same permutation; its cell masks equal the images under
    w⁻¹ of the simple roots and of the inversion set; and the order is
    strictly increasing in (length, word)."""
    rs = RootSystem(lie_type, rank)
    elems = enumerate_weyl(rs)
    for w in elems:
        ref = WeylElement(rs, ref_root_permutation(w))
        assert w.word == ref.word
        assert w.inverse_root_permutation() == ref.inverse_root_permutation()
        assert ref_inversion_indices(w) == ref_inversion_indices(ref)
        assert (w.sm, w.im, format_word(w)) == (ref.sm, ref.im,
                                                format_word(ref))
        inv = ref.inverse_root_permutation()
        assert w.sm == sum(1 << inv[a] for a in rs._simple_index)
        assert w.im == sum(1 << inv[p] for p in ref_inversion_indices(ref))
    keys = [(w.length, w.word) for w in elems]
    assert all(a < b for a, b in zip(keys, keys[1:]))


def _held(w):
    """The slots an element holds values in."""
    return {name for name in type(w).__slots__ if hasattr(w, name)}


def test_enumerate_weyl_builds_four_fields_per_element():
    """Work count: an enumerated element holds its word, inverse
    permutation and cell masks, and no slot holds its permutation or its
    inversion set: the inversion set is rebuilt on each call, and the
    permutation has no field or method at all (w acts through its word)."""
    from hessenpave.rootcore import WeylElement
    assert WeylElement.__slots__ == ("rs", "word", "_inv_root_perm", "sm",
                                     "im", "_word_text")
    fields = {"rs", "word", "_inv_root_perm", "sm", "im"}
    rs = RootSystem("D", 4)
    elems = enumerate_weyl(rs)
    assert all(_held(w) == fields for w in elems)
    # the longest element of D4 is an involution; take one that is not
    w = next(v for v in reversed(elems)
             if ref_root_permutation(v) != v.inverse_root_permutation())
    perm = ref_root_permutation(w)
    assert not hasattr(w, "root_permutation")
    assert len(ref_inversion_indices(w)) == w.length
    assert _held(w) == fields
    assert all(getattr(w, name) != perm for name in fields)
    assert all(_held(v) == fields for v in elems)


def test_enumerate_weyl_validates_the_simple_reflections():
    rs = RootSystem("A", 3)
    a1, a2 = rs._simple_index[:2]
    # swaps α_1 and α_2 but not their negatives
    bad = list(range(len(rs.all_roots)))
    bad[a1], bad[a2] = a2, a1
    rs._reflections = (tuple(bad),) + rs._reflections[1:]
    with pytest.raises(ValueError, match="not linear"):
        enumerate_weyl(rs)
    # the diagram flip α_1 ↔ α_3 is linear but not a reflection: the
    # enumeration stops once it has too many elements and says so
    rs = RootSystem("A", 3)
    flip = tuple(rs._index[r.coeffs[::-1]] for r in rs.all_roots)
    rs._reflections = (flip,) + rs._reflections[1:]
    with pytest.raises(ConsistencyError, match="^A3: Weyl enumeration found "
                       "46 elements, expected 24$"):
        enumerate_weyl(rs)


def test_enumerate_weyl_checks_generators_not_products(monkeypatch):
    """The permutation check runs once per simple reflection, and no
    enumerated element goes through the checking constructor except at
    most the identity."""
    from hessenpave import rootcore
    calls = {"check": 0, "init": 0}
    check = rootcore._check_root_permutation
    init = rootcore.WeylElement.__init__

    def counted_check(*args):
        calls["check"] += 1
        return check(*args)

    def counted_init(self, *args):
        calls["init"] += 1
        init(self, *args)

    monkeypatch.setattr(rootcore, "_check_root_permutation", counted_check)
    monkeypatch.setattr(rootcore.WeylElement, "__init__", counted_init)
    rs = RootSystem("D", 5)
    assert len(enumerate_weyl(rs)) == 1920
    assert calls["check"] == rs.rank
    assert calls["init"] <= 1


def test_enumerate_weyl_refuses_groups_over_budget():
    with pytest.raises(ValueError, match="362880 elements, over the budget"):
        enumerate_weyl(RootSystem("A", 8))


@pytest.mark.parametrize("lie_type,rank", [("A", 3), ("B", 3), ("C", 4),
                                           ("D", 4)])
def test_budget_counts_match_the_root_system(lie_type, rank):
    """The "weyl" and "roots" rows count what the root system has, and a
    sweep's cells are their Weyl order times their spaces."""
    rs = RootSystem(lie_type, rank)
    order = check_budget("weyl", lie_type, rank)
    assert order == len(enumerate_weyl(rs))
    assert check_budget("roots", lie_type, rank) == len(rs.all_roots)
    assert check_budget("cells", lie_type, rank) == \
        order * check_budget("spaces", lie_type, rank)


def test_bounded_count_doubles_the_rank():
    """A count that stays within 10^18 up to a rank of 7·10^8 is not
    walked rank by rank: the ranks tried double."""
    tried = []

    def roots(n):
        tried.append(n)
        return 2 * n * n

    assert rootcore._bounded_count(roots, 1, 10 ** 8) == 2 * 10 ** 16
    assert len(tried) == 28 and tried[-1] == 10 ** 8
    assert rootcore._bounded_count(roots, 1, 10 ** 9) is None
    with pytest.raises(ValueError, match="^A10000000000 has more than 10\\^18 "
                                         "roots, over the budget of 400$"):
        check_budget("roots", "A", 10 ** 10)


# ---------------------------------------------------------------------------
# positive-root sum/difference table
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("lie_type,rank",
                         [("A", r) for r in range(1, 8)]
                         + [(t, r) for t in "BC" for r in range(2, 7)]
                         + [("D", r) for r in range(3, 7)])
def test_positive_root_tables_match_coefficient_arithmetic(lie_type, rank):
    """Every positive pair: ``_pos_diff`` agrees with subtracting
    coefficient vectors, ``_sum_pairs[a]`` lists exactly the ``(b, c)``
    with ``pos[a] + pos[b] = pos[c]``, by ascending b, and the lower covers
    behind ``_splits`` are differences with simple roots."""
    rs = RootSystem(lie_type, rank)
    pos = rs.positive_roots
    index = {r.coeffs: k for k, r in enumerate(pos)}
    for a, ra in enumerate(pos):
        sums = []
        for b, rb in enumerate(pos):
            d = tuple(x - y for x, y in zip(ra.coeffs, rb.coeffs))
            s = tuple(x + y for x, y in zip(ra.coeffs, rb.coeffs))
            assert rs._pos_diff[a][b] == index.get(d)
            if s in index:
                sums.append((b, index[s]))
        assert rs._sum_pairs[a] == tuple(sums)
    assert len(rs._splits) == rs.num_positive - rank
    for b, g, a in rs._splits:
        assert pos[b].coeffs == tuple(
            x + y for x, y in zip(pos[g].coeffs, rs.all_roots[a].coeffs))
        assert rs.all_roots[a] in rs.simple_roots


# ---------------------------------------------------------------------------
# root-poset tables
# ---------------------------------------------------------------------------

POSET_SYSTEMS = ([("A", r) for r in range(1, 9)]
                 + [(t, r) for t in "BC" for r in range(2, 9)]
                 + [("D", r) for r in range(3, 9)] + [("A", 12), ("D", 12)])


def ref_poset_tables(rs):
    """The lower covers, down-sets, height masks and sum pairs of the
    positive roots, in Root arithmetic: ``ref_root_add``, ``dominates``
    and ``Root.height``."""
    pos = rs.positive_roots
    index = {r: k for k, r in enumerate(pos)}
    covers = []
    for r in pos:
        drops = (ref_root_add(rs, r, -s) for s in rs.simple_roots)
        covers.append(sum(1 << index[d] for d in drops if d in index))
    below = [sum(1 << k for k, r in enumerate(pos) if dominates(alpha, r))
             for alpha in pos]
    heights = [sum(1 << k for k, r in enumerate(pos) if r.height == h)
               for h in range(1, max(r.height for r in pos) + 1)]
    sum_pairs = [tuple((j, index[s]) for j, rb in enumerate(pos)
                       if (s := ref_root_add(rs, ra, rb)) in index)
                 for ra in pos]
    return covers, below, heights, sum_pairs


@pytest.mark.parametrize("lie_type,rank", POSET_SYSTEMS)
def test_root_poset_tables_match_root_arithmetic(lie_type, rank):
    """``_covers``, ``_below``, ``_heights`` and ``_sum_pairs`` equal the
    Root-arithmetic reference, entry for entry and in order."""
    rs = RootSystem(lie_type, rank)
    covers, below, heights, sum_pairs = ref_poset_tables(rs)
    assert list(rs._covers) == covers
    assert list(rs._below) == below
    assert list(rs._heights) == heights
    assert list(rs._sum_pairs) == sum_pairs
    # every root is in exactly one height mask
    assert sum(heights) == (1 << rs.num_positive) - 1


@pytest.mark.parametrize("lie_type,rank", POSET_SYSTEMS)
def test_span_root_matches_root_arithmetic(lie_type, rank):
    """``_span_root`` finds α_lo + … + α_hi, plus α_n when a second span
    (n, n) is given, exactly when ``ref_root_add`` reaches a root one
    simple root at a time, and None on an empty span."""
    rs = RootSystem(lie_type, rank)
    n = rs.rank
    alpha = rs.simple_roots
    for lo in range(1, n + 1):
        assert rootcore._span_root(rs, (lo, lo - 1)) is None
        chain = alpha[lo - 1]
        for hi in range(lo, n + 1):
            if hi > lo:
                chain = chain and ref_root_add(rs, chain, alpha[hi - 1])
            want = None if chain is None else rs.root_index(chain)
            assert rootcore._span_root(rs, (lo, hi)) == want, (lo, hi)
            forked = chain and ref_root_add(rs, chain, alpha[n - 1])
            want = None if forked is None else rs.root_index(forked)
            assert rootcore._span_root(rs, (lo, hi), (n, n)) == want, (lo, hi)
