"""Root systems, Weyl groups, rows: frozen examples and invariants."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessenpave.errors import ConsistencyError
from hessenpave.rootcore import (
    _row_key,
    apply,
    build_root_system,
    compose,
    dominance_leq,
    enumerate_weyl,
    format_root,
    format_word,
    identity_element,
    inverse,
    inversion_set,
    parse_root,
    parse_word,
    row_order,
    rows,
    simple_reflection,
    stage_table,
    type_d_stage_sets,
)

ALL_SMALL = [("A", 1), ("A", 2), ("A", 3), ("A", 4),
             ("B", 2), ("B", 3), ("B", 4),
             ("C", 2), ("C", 3), ("C", 4),
             ("D", 3), ("D", 4)]


def roots_by_text(rs, *texts):
    return {parse_root(rs, t) for t in texts}


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_positive_root_counts_closed_forms():
    assert len(build_root_system("A", 2).positive_roots) == 3
    assert len(build_root_system("B", 2).positive_roots) == 4
    assert len(build_root_system("D", 4).positive_roots) == 12


@pytest.mark.parametrize("lie_type,rank", ALL_SMALL + [("A", 5), ("B", 5), ("D", 5)])
def test_reflection_closure_oracle(lie_type, rank):
    """Independent oracle: close the simple roots under all simple
    reflections; the orbit must be exactly the stored root set."""
    rs = build_root_system(lie_type, rank)
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
    rs = build_root_system(lie_type, rank)
    for r in rs.positive_roots:
        assert r.is_positive and not r.is_negative
        assert (-r).is_negative
    cart = rs.cartan_matrix
    for j in range(rank):
        assert cart[j][j] == 2
        for i in range(rank):
            if i != j:
                assert cart[j][i] <= 0


def test_rank_bounds_rejected():
    with pytest.raises(ValueError):
        build_root_system("B", 1)
    with pytest.raises(ValueError):
        build_root_system("D", 2)
    with pytest.raises(ValueError):
        build_root_system("E", 6)
    build_root_system("D", 3)   # accepted low edge


def test_root_text_round_trip():
    rs = build_root_system("C", 2)
    gamma = parse_root(rs, "2,1")
    assert format_root(gamma) == "2,1"
    with pytest.raises(ValueError):
        parse_root(rs, "1,1,1")
    with pytest.raises(ValueError):
        parse_root(rs, "banana")


# ---------------------------------------------------------------------------
# dominance
# ---------------------------------------------------------------------------


def test_dominance_examples():
    a2 = build_root_system("A", 2)
    a1, a2r = a2.simple_roots
    theta = parse_root(a2, "1,1")
    assert dominance_leq(a2, a1, theta)
    assert not dominance_leq(a2, a1, a2r)
    c2 = build_root_system("C", 2)
    assert dominance_leq(c2, parse_root(c2, "1,1"), parse_root(c2, "2,1"))


@pytest.mark.parametrize("lie_type,rank", [("A", 4), ("B", 4), ("C", 4), ("D", 4)])
def test_dominance_is_partial_order(lie_type, rank):
    rs = build_root_system(lie_type, rank)
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


def test_rows_a2_b2_frozen():
    a2 = build_root_system("A", 2)
    dec = rows(a2)
    assert dec.rows[0] == roots_by_text(a2, "1,0", "1,1")
    assert dec.rows[1] == roots_by_text(a2, "0,1")

    b2 = build_root_system("B", 2)
    decb = rows(b2)
    assert decb.rows[0] == roots_by_text(b2, "1,0", "1,1", "1,2")
    assert decb.rows[1] == roots_by_text(b2, "0,1")


def test_rows_d4_frozen():
    d4 = build_root_system("D", 4)
    dec = rows(d4)
    assert dec.rows[0] == roots_by_text(
        d4, "1,0,0,0", "1,1,0,0", "1,1,1,0", "1,1,0,1", "1,1,1,1", "1,2,1,1")
    p0, p1, p2 = dec.type_D_parts[0]
    assert p0 == roots_by_text(d4, "1,0,0,0", "1,1,0,0")
    assert p1 == roots_by_text(d4, "1,1,1,0", "1,1,0,1")
    assert p2 == roots_by_text(d4, "1,1,1,1", "1,2,1,1")
    # fork row carries both fork simple roots; row n is empty
    assert dec.rows[2] == roots_by_text(d4, "0,0,1,0", "0,0,0,1")
    assert dec.rows[3] == frozenset()


@pytest.mark.parametrize("lie_type,rank",
                         ALL_SMALL + [("A", 5), ("A", 6), ("B", 5), ("B", 6),
                                      ("C", 5), ("C", 6), ("D", 5), ("D", 6)])
def test_rows_partition_and_table_agreement(lie_type, rank):
    """rows() itself cross-checks the closed forms against the dominance
    computation and would raise on disagreement; here we re-verify the
    partition property."""
    rs = build_root_system(lie_type, rank)
    dec = rows(rs)
    union = set()
    total = 0
    for row in dec.rows:
        union |= row
        total += len(row)
    assert union == set(rs.positive_roots)
    assert total == rs.num_positive


@pytest.mark.parametrize("lie_type,rank",
                         [("A", 4), ("B", 4), ("C", 4)])
def test_rows_totally_ordered_by_height(lie_type, rank):
    """In A/B/C each row is a height chain with simple-root steps."""
    rs = build_root_system(lie_type, rank)
    for i in range(1, rank + 1):
        order = row_order(rs, i)
        heights = [r.height for r in order]
        assert heights == sorted(set(heights), reverse=True)
        for above, below in zip(order, order[1:]):
            diff = tuple(a - b for a, b in zip(above.coeffs, below.coeffs))
            assert sum(diff) == 1 and rs.is_root(diff)


def test_type_c_long_roots():
    c3 = build_root_system("C", 3)
    dec = rows(c3)
    assert format_root(dec.type_C_long_roots[0]) == "2,2,1"
    assert format_root(dec.type_C_long_roots[1]) == "0,2,1"
    assert dec.type_C_long_roots[2] is None


def test_type_d_stage_sets_partition_both_sides():
    for rank in (3, 4, 5):
        rs = build_root_system("D", rank)
        stages = type_d_stage_sets(rs)
        assert len(stages) == rank
        doms = [r for dom, _ in stages for r in dom]
        cods = [r for _, cod in stages for r in cod]
        assert sorted(doms, key=str) == sorted(rs.positive_roots, key=str)
        assert sorted(cods, key=str) == sorted(rs.positive_roots, key=str)


def ref_stage_table(rs):
    """Rows, stages and long roots as positive-root indices, built the way
    the row profile and the witness solver built them before the stage
    table: a ``_row_key`` sort of each row and of each type-D stage set,
    and the index of each root of ``rows(rs).type_C_long_roots``."""
    dec = rows(rs)

    def ordered(roots):
        return tuple(rs.root_index(r) for r in sorted(roots, key=_row_key))

    row_orders = tuple(ordered(row) for row in dec.rows)
    long_roots = tuple(None if g is None else rs.root_index(g)
                       for g in dec.type_C_long_roots or [None] * rs.rank)
    if rs.lie_type != "D":
        return row_orders, tuple((r, r) for r in row_orders), long_roots
    stages = tuple((ordered(dom), ordered(cod))
                   for dom, cod in type_d_stage_sets(rs))
    return row_orders, stages, long_roots


@pytest.mark.parametrize("lie_type,rank",
                         ALL_SMALL + [("A", 5), ("D", 5)])
def test_stage_table_equals_reference(lie_type, rank):
    rs = build_root_system(lie_type, rank)
    table = stage_table(rs)
    assert (table.rows, table.stages, table.long_roots) == ref_stage_table(rs)
    for i, row in enumerate(rows(rs).rows, start=1):
        assert row_order(rs, i) == tuple(sorted(row, key=_row_key))
    assert stage_table(rs) is table


# ---------------------------------------------------------------------------
# Weyl group
# ---------------------------------------------------------------------------


def test_simple_reflection_examples():
    a2 = build_root_system("A", 2)
    s1 = simple_reflection(a2, 1)
    assert apply(s1, a2.simple_roots[0]).coeffs == (-1, 0)
    assert apply(s1, a2.simple_roots[1]).coeffs == (1, 1)
    b2 = build_root_system("B", 2)
    assert apply(simple_reflection(b2, 2), b2.simple_roots[0]).coeffs == (1, 2)
    assert compose(s1, s1) == identity_element(a2)
    with pytest.raises(ValueError):
        simple_reflection(a2, 3)


def test_enumerate_weyl_counts_and_order():
    a2 = build_root_system("A", 2)
    elems = enumerate_weyl(a2)
    assert [w.length for w in elems] == [0, 1, 1, 2, 2, 3]
    b2 = build_root_system("B", 2)
    elemsb = enumerate_weyl(b2)
    assert len(elemsb) == 8 and elemsb[-1].length == 4
    assert len(enumerate_weyl(build_root_system("D", 4))) == 192
    words = [w.word for w in elems]
    assert words == sorted(words, key=lambda t: (len(t), t))


def test_inversion_sets():
    a2 = build_root_system("A", 2)
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
    rs = build_root_system(lie_type, rank)
    for w in enumerate_weyl(rs):
        acc = set()
        prefix = identity_element(rs)
        for letter in w.word:
            acc.add(apply(prefix, rs.simple_roots[letter - 1]))
            prefix = compose(prefix, simple_reflection(rs, letter))
        assert prefix == w
        assert acc == inversion_set(w)


def test_apply_example_spec():
    a2 = build_root_system("A", 2)
    w = parse_word(a2, "1 2")
    assert apply(w, a2.simple_roots[1]).coeffs == (-1, -1)
    assert apply(inverse(w), a2.simple_roots[0]).coeffs == (-1, -1)
    for r in a2.all_roots:
        assert apply(identity_element(a2), r) == r


def test_compose_rejects_mixed_systems():
    a2 = build_root_system("A", 2)
    b2 = build_root_system("B", 2)
    with pytest.raises(ValueError):
        compose(simple_reflection(a2, 1), simple_reflection(b2, 1))


def test_word_round_trip_and_canonicalization():
    b3 = build_root_system("B", 3)
    w = parse_word(b3, "1 2 1 3")
    again = parse_word(b3, format_word(w))
    assert again == w
    # non-reduced input canonicalizes
    assert parse_word(b3, "1 1") == identity_element(b3)
    assert parse_word(b3, "").length == 0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=3), max_size=10),
       st.lists(st.integers(min_value=1, max_value=3), max_size=10))
def test_group_laws_random_words(word1, word2):
    rs = build_root_system("B", 3)
    w1 = parse_word(rs, " ".join(map(str, word1)))
    w2 = parse_word(rs, " ".join(map(str, word2)))
    prod = compose(w1, w2)
    assert compose(prod, inverse(w2)) == w1
    assert compose(inverse(w1), w1) == identity_element(rs)
    for r in rs.simple_roots:
        assert apply(prod, r) == apply(w1, apply(w2, r))
    assert len(inversion_set(prod)) == prod.length


def test_weyl_element_rejects_non_root_permutation():
    from hessenpave.rootcore import WeylElement
    rs = build_root_system("A", 2)
    # all_roots of A2: 0,1 / 1,0 / 1,1 and their negatives
    assert WeylElement(rs, range(6)) == identity_element(rs)
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
    rs = build_root_system(lie_type, rank)
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
    checks from the same permutation, and the order is strictly increasing
    in (length, word)."""
    from hessenpave.rootcore import WeylElement
    rs = build_root_system(lie_type, rank)
    elems = enumerate_weyl(rs)
    for w in elems:
        ref = WeylElement(rs, w.root_permutation())
        assert w.word == ref.word
        assert w.inverse_root_permutation() == ref.inverse_root_permutation()
        assert w.inversion_indices() == ref.inversion_indices()
        assert (w.sm, w.im, w.word_text) == (ref.sm, ref.im, ref.word_text)
    keys = [(w.length, w.word) for w in elems]
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_enumerate_weyl_validates_the_simple_reflections():
    rs = build_root_system("A", 3)
    a1, a2 = rs._simple_index[:2]
    # swaps α_1 and α_2 but not their negatives
    bad = list(range(len(rs.all_roots)))
    bad[a1], bad[a2] = a2, a1
    rs._reflections = (tuple(bad),) + rs._reflections[1:]
    with pytest.raises(ValueError, match="not linear"):
        enumerate_weyl(rs)
    # the diagram flip α_1 ↔ α_3 is linear but not a reflection: the
    # enumeration stops once it has too many elements and says so
    rs = build_root_system("A", 3)
    flip = tuple(rs._index[r.coeffs[::-1]] for r in rs.all_roots)
    rs._reflections = (flip,) + rs._reflections[1:]
    with pytest.raises(ConsistencyError, match="expected 24"):
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
    rs = build_root_system("D", 5)
    assert len(enumerate_weyl(rs)) == 1920
    assert calls["check"] == rs.rank
    assert calls["init"] <= 1


def test_enumerate_weyl_refuses_groups_over_budget():
    with pytest.raises(ValueError, match="362880 elements, over the budget"):
        enumerate_weyl(build_root_system("A", 8))


# ---------------------------------------------------------------------------
# positive-root sum/difference table
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("lie_type,rank",
                         [("A", r) for r in range(1, 8)]
                         + [(t, r) for t in "BC" for r in range(2, 7)]
                         + [("D", r) for r in range(3, 7)])
def test_positive_root_tables_match_coefficient_arithmetic(lie_type, rank):
    """Every positive pair: ``_pos_diff`` and ``_pos_sum`` agree with
    subtracting and adding coefficient vectors, and the lower covers
    behind ``_splits`` are differences with simple roots."""
    rs = build_root_system(lie_type, rank)
    pos = rs.positive_roots
    index = {r.coeffs: k for k, r in enumerate(pos)}
    for a, ra in enumerate(pos):
        for b, rb in enumerate(pos):
            d = tuple(x - y for x, y in zip(ra.coeffs, rb.coeffs))
            s = tuple(x + y for x, y in zip(ra.coeffs, rb.coeffs))
            assert rs._pos_diff[a][b] == index.get(d)
            assert rs._pos_sum[a][b] == index.get(s)
    assert len(rs._splits) == rs.num_positive - rank
    for b, g, a in rs._splits:
        assert pos[b].coeffs == tuple(
            x + y for x, y in zip(pos[g].coeffs, rs.all_roots[a].coeffs))
        assert rs.all_roots[a] in rs.simple_roots
