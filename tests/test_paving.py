"""Paving cells: nonemptiness, both dimension formulas, profiles, Betti."""

import pytest

from hessenpave import paving
from hessenpave.cli import main
from hessenpave.hessenberg import (
    borel_space,
    enumerate_hessenberg,
    full_space,
    parse_hessenberg,
)
from hessenpave.paving import (
    BettiTable,
    betti_product,
    cell_dimension,
    cell_dimension_lie,
    cell_nonempty,
    compute_paving,
    paving_record,
    poincare_polynomial,
    row_dimension_profile,
)
from hessenpave.rootcore import (
    build_root_system,
    enumerate_weyl,
    format_word,
    identity_element,
    parse_word,
    stage_table,
)
from test_rootcore import ref_inversion_indices

SMALL = [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3),
         ("D", 3), ("D", 4)]
SWEEP = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
         ("B", 4), ("C", 2), ("C", 3), ("C", 4), ("D", 3), ("D", 4),
         ("A", 5)]


# ---------------------------------------------------------------------------
# set-based references for the bitmask kernel
# ---------------------------------------------------------------------------


def ref_members(space):
    """Indices of Φ_H, read from the negative part."""
    rs = space.rs
    return (frozenset(range(rs.num_positive))
            | {rs.root_index(b) for b in space.negative_part})


def ref_cell_nonempty(w, members):
    rs = w.rs
    inv_perm = w.inverse_root_permutation()
    return all(inv_perm[rs.root_index(a)] in members for a in rs.simple_roots)


def ref_cell_dimension(w, members):
    inv_perm = w.inverse_root_permutation()
    return sum(1 for p in ref_inversion_indices(w) if inv_perm[p] in members)


def ref_row_dimension_profile(w, members):
    rs = w.rs
    inv_indices = ref_inversion_indices(w)
    perm = w.root_permutation()
    wh = frozenset(perm[m] for m in members)
    table = stage_table(rs)
    if rs.lie_type != "D":
        return tuple(sum(1 for k in row if k in inv_indices and k in wh)
                     for row in table.rows)
    return tuple(sum(1 for k in vars_ if k in inv_indices)
                 - sum(1 for k in cons if k not in wh)
                 for vars_, cons in table.stages)


@pytest.mark.parametrize("lie_type,rank", SWEEP)
def test_mask_kernel_equals_set_definitions(lie_type, rank):
    """Every cell of the sweep: the bitmask kernel agrees with the set-based
    definitions on nonemptiness, both dimensions and the row profile, and
    refuses an empty cell."""
    rs = build_root_system(lie_type, rank)
    elems = enumerate_weyl(rs)
    for space in enumerate_hessenberg(rs):
        members = ref_members(space)
        assert space.hm == sum(1 << k for k in members)
        for w in elems:
            nonempty = ref_cell_nonempty(w, members)
            assert cell_nonempty(w, space) == nonempty, (space, w)
            if nonempty:
                dim = ref_cell_dimension(w, members)
                assert cell_dimension(w, space) == dim, (space, w)
                assert cell_dimension_lie(w, space) == dim, (space, w)
                assert (row_dimension_profile(w, space)
                        == ref_row_dimension_profile(w, members)), (space, w)
            else:
                for kernel in (cell_dimension, cell_dimension_lie,
                               row_dimension_profile):
                    assert refuses_empty(kernel, w, space), (kernel, space, w)


def refuses_empty(kernel, w, space):
    try:
        kernel(w, space)
    except ValueError as exc:
        return "empty" in str(exc)
    return False


@pytest.fixture(scope="module")
def a2():
    return build_root_system("A", 2)


@pytest.fixture(scope="module")
def peterson(a2):
    return parse_hessenberg(a2, "h=2,3,3")


def test_nonempty_examples(a2, peterson):
    e = identity_element(a2)
    assert cell_nonempty(e, borel_space(a2))
    assert not cell_nonempty(parse_word(a2, "1"), borel_space(a2))
    assert not cell_nonempty(parse_word(a2, "1 2"), peterson)


def test_dimension_examples(a2, peterson):
    e = identity_element(a2)
    assert cell_dimension(e, peterson) == 0
    w0 = parse_word(a2, "1 2 1")
    assert cell_dimension(w0, peterson) == 2
    assert cell_dimension_lie(w0, peterson) == 2
    assert cell_dimension_lie(parse_word(a2, "1"), peterson) == 1
    full = full_space(a2)
    for w in enumerate_weyl(a2):
        assert cell_dimension(w, full) == w.length
    with pytest.raises(ValueError):
        cell_dimension(parse_word(a2, "1"), borel_space(a2))


def test_row_profile_examples(a2, peterson):
    w0 = parse_word(a2, "1 2 1")
    assert row_dimension_profile(identity_element(a2), peterson) == (0, 0)
    assert row_dimension_profile(w0, full_space(a2)) == (2, 1)
    assert row_dimension_profile(w0, peterson) == (1, 1)


def test_compute_paving_examples(a2, peterson):
    cells = compute_paving(a2, borel_space(a2))
    live = [c for c in cells if c.nonempty]
    assert len(live) == 1 and live[0].w.length == 0 and live[0].dim == 0

    live = {format_word(c.w): c.dim
            for c in compute_paving(a2, peterson) if c.nonempty}
    assert live == {"": 0, "1": 1, "2": 1, "1 2 1": 2}

    h223 = parse_hessenberg(a2, "h=2,2,3")
    live = {format_word(c.w): c.dim
            for c in compute_paving(a2, h223) if c.nonempty}
    assert live == {"": 0, "1": 1}


def test_poincare_examples(a2, peterson):
    assert poincare_polynomial(a2, full_space(a2)).coefficients == (1, 2, 2, 1)
    assert poincare_polynomial(a2, peterson).coefficients == (1, 2, 1)
    h223 = parse_hessenberg(a2, "h=2,2,3")
    assert poincare_polynomial(a2, h223).coefficients == (1, 1)
    assert poincare_polynomial(a2, borel_space(a2)).coefficients == (1,)


@pytest.mark.parametrize("lie_type,rank", SMALL)
def test_dimension_formulas_agree(lie_type, rank):
    rs = build_root_system(lie_type, rank)
    for space in enumerate_hessenberg(rs):
        for w in enumerate_weyl(rs):
            if cell_nonempty(w, space):
                assert cell_dimension(w, space) == cell_dimension_lie(w, space)


@pytest.mark.parametrize("lie_type,rank", SMALL)
def test_row_profiles_sum_and_nonnegative(lie_type, rank):
    rs = build_root_system(lie_type, rank)
    for space in enumerate_hessenberg(rs):
        for w in enumerate_weyl(rs):
            if cell_nonempty(w, space):
                profile = row_dimension_profile(w, space)
                assert len(profile) == rank
                assert all(p >= 0 for p in profile)
                assert sum(profile) == cell_dimension(w, space)


@pytest.mark.parametrize("lie_type,rank",
                         [("A", 3), ("B", 3), ("C", 3), ("D", 4)])
def test_monotonicity_and_bounds(lie_type, rank):
    rs = build_root_system(lie_type, rank)
    spaces = enumerate_hessenberg(rs)
    elems = enumerate_weyl(rs)
    data = {
        s.negative_part: {
            w: (cell_dimension(w, s) if cell_nonempty(w, s) else None)
            for w in elems
        }
        for s in spaces
    }
    for s in spaces:
        dims = [d for d in data[s.negative_part].values() if d is not None]
        bound = len(s.negative_part)
        assert max(dims) <= bound
        if data[s.negative_part][elems[-1]] is not None:
            assert max(dims) == bound
        for w in elems:
            d = data[s.negative_part][w]
            if d is not None:
                assert d <= w.length
    for s1 in spaces:
        for s2 in spaces:
            if s1.negative_part <= s2.negative_part:
                for w in elems:
                    d1 = data[s1.negative_part][w]
                    d2 = data[s2.negative_part][w]
                    if d1 is not None:
                        assert d2 is not None and d2 >= d1


@pytest.mark.parametrize("lie_type,rank", SMALL)
def test_identity_cell_always_single_point(lie_type, rank):
    rs = build_root_system(lie_type, rank)
    for space in enumerate_hessenberg(rs):
        betti = poincare_polynomial(rs, space)
        assert betti.coefficients[0] == 1
        assert betti.total == sum(
            1 for w in enumerate_weyl(rs) if cell_nonempty(w, space))


def test_full_space_betti_is_length_generating_function():
    """Independent oracle: the length generating function of the Weyl group
    is the product of q-integers over the degrees of the type."""
    degrees = {
        ("A", 3): [2, 3, 4],
        ("B", 3): [2, 4, 6],
        ("C", 3): [2, 4, 6],
        ("D", 4): [2, 4, 6, 4],
    }
    for (lie_type, rank), degs in degrees.items():
        rs = build_root_system(lie_type, rank)
        poly = [1]
        for d in degs:
            factor = [1] * d
            out = [0] * (len(poly) + d - 1)
            for i, a in enumerate(poly):
                for j, b in enumerate(factor):
                    out[i + j] += a * b
            poly = out
        betti = poincare_polynomial(rs, full_space(rs))
        assert list(betti.coefficients) == poly


def test_d3_matches_a3_under_diagram_isomorphism():
    """The exceptional isomorphism D3 ≅ A3 (center of the A3 diagram maps
    to the fork node) must carry pavings to pavings cell by cell.  This
    pits the type-D stage machinery against the type-A path, which is
    independently backed by the finite-field oracle."""
    d3 = build_root_system("D", 3)
    a3 = build_root_system("A", 3)

    def to_a3(root):
        c = root.coeffs
        return a3.root((c[1], c[0], c[2]))

    assert {to_a3(r) for r in d3.positive_roots} == set(a3.positive_roots)
    relabel = {1: 2, 2: 1, 3: 3}
    from hessenpave.hessenberg import from_negative_roots
    from hessenpave.rootcore import parse_word
    for s_d in enumerate_hessenberg(d3):
        s_a = from_negative_roots(a3, [to_a3(r) for r in s_d.negative_part])
        for w_d in enumerate_weyl(d3):
            word = " ".join(str(relabel[i]) for i in w_d.word)
            w_a = parse_word(a3, word)
            assert cell_nonempty(w_d, s_d) == cell_nonempty(w_a, s_a)
            if cell_nonempty(w_d, s_d):
                assert cell_dimension(w_d, s_d) == cell_dimension(w_a, s_a)


@pytest.mark.parametrize("lie_type,rank",
                         [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("B", 4)])
def test_peterson_betti_numbers_are_binomial(lie_type, rank):
    """The Peterson space (all negative simple roots) has binomial Betti
    numbers in every classical type: one nonempty cell per subset of the
    simple roots, of dimension the subset size."""
    from math import comb
    from hessenpave.hessenberg import from_negative_roots
    rs = build_root_system(lie_type, rank)
    peterson = from_negative_roots(rs, [-a for a in rs.simple_roots])
    betti = poincare_polynomial(rs, peterson).coefficients
    assert betti == tuple(comb(rank, k) for k in range(rank + 1))


@pytest.mark.parametrize("lie_type,rank", SWEEP)
def test_betti_product_equals_cell_count(lie_type, rank):
    """The closed-form product equals the nonempty cells counted by
    dimension, for every space of the sweep."""
    rs = build_root_system(lie_type, rank)
    for space in enumerate_hessenberg(rs):
        dims = [c.dim for c in compute_paving(rs, space) if c.nonempty]
        tally = [0] * (max(dims) + 1)
        for d in dims:
            tally[d] += 1
        assert betti_product(space) == BettiTable(tuple(tally)), space


def test_betti_product_off_by_one_exits_2(monkeypatch, capsys):
    """An off-by-one in the exponents e_i makes every Betti route refuse:
    ``betti``, ``paving`` and ``sweep`` exit 2 with one line naming the
    system and the space."""
    exponents = paving._exponents
    monkeypatch.setattr(paving, "_exponents",
                        lambda space: tuple(e + 1 for e in exponents(space)))
    for argv in (["betti", "--type", "B", "--rank", "3", "--hess", "full"],
                 ["paving", "--type", "A", "--rank", "2", "--hess", "borel"],
                 ["sweep", "--type", "C", "--rank", "2"]):
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.count("\n") == 1, out.err
        assert out.err.startswith("hessenpave: consistency failure: cell "
                                  "Betti numbers ")
        assert f"({argv[2]}{argv[4]}, neg=" in out.err


def test_paving_record_shape(a2, peterson):
    record = paving_record(a2, peterson)
    assert record["betti"] == [1, 2, 1]
    assert record["hessenberg"]["neg"] == ["0,-1", "-1,0"]
    assert len(record["cells"]) == 6
    empty = [c for c in record["cells"] if not c["nonempty"]]
    assert all(c["dim"] is None and c["row_profile"] is None for c in empty)
    lengths = [c["length"] for c in record["cells"]]
    assert lengths == sorted(lengths)


def test_mixed_system_rejected(a2):
    b2 = build_root_system("B", 2)
    with pytest.raises(ValueError):
        cell_nonempty(identity_element(b2), borel_space(a2))


def test_per_system_masks_live_on_their_instance():
    """The root-poset tables are built with the root system and kept on
    it: two equal systems each hold their own tables, and the tables are
    equal."""
    first, second = build_root_system("D", 4), build_root_system("D", 4)
    assert first == second and first is not second
    for field in ("_covers", "_below", "_heights", "_sum_pairs"):
        mine, theirs = getattr(first, field), getattr(second, field)
        assert mine == theirs and mine is not theirs, field
