"""Paving cells: nonemptiness, both dimension formulas, profiles, Betti."""

import itertools
import math
from operator import mul

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
    RootSystem,
    _trusted_element,
    enumerate_weyl,
    format_word,
    parse_word,
    stage_table,
)
from test_rootcore import ref_inversion_indices, ref_root_permutation

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
    perm = ref_root_permutation(w)
    wh = frozenset(perm[m] for m in members)
    table = stage_table(rs)
    if rs.lie_type != "D":
        return tuple(sum(1 for k in row if k in inv_indices and k in wh)
                     for row in table.rows)
    return tuple(sum(1 for k in vars_ if k in inv_indices)
                 - sum(1 for k in cons if k not in wh)
                 for vars_, cons in table.stages)


def ref_outside_mask(w, hm):
    """The positive roots outside wΦ_H as ``row_dimension_profile`` read
    them before ``paving._outside_mask``: one test of ``hm`` per positive
    root, at its w⁻¹-image."""
    inv = w.inverse_root_permutation()
    outside = 0
    for p in range(w.rs.num_positive):
        if not hm >> inv[p] & 1:
            outside |= 1 << p
    return outside


@pytest.mark.parametrize("lie_type,rank", SWEEP)
def test_outside_mask_equals_the_per_root_loop(lie_type, rank):
    """On every nonempty cell of every space, the roots read off the bits
    of ``w.im & ~hm`` are those of the per-root loop, all inversions."""
    rs = RootSystem(lie_type, rank)
    cells = 0
    for space in enumerate_hessenberg(rs):
        for w in enumerate_weyl(rs):
            if cell_nonempty(w, space):
                got = paving._outside_mask(w, space.hm)
                assert got == ref_outside_mask(w, space.hm), (space, w)
                assert got & ~w.inversion_mask() == 0
                cells += 1
    assert cells


@pytest.mark.parametrize("lie_type,rank", SWEEP)
def test_mask_kernel_equals_set_definitions(lie_type, rank):
    """Every cell of the sweep: the bitmask kernel agrees with the set-based
    definitions on nonemptiness, both dimensions and the row profile, and
    refuses an empty cell."""
    rs = RootSystem(lie_type, rank)
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
    return RootSystem("A", 2)


@pytest.fixture(scope="module")
def peterson(a2):
    return parse_hessenberg(a2, "h=2,3,3")


def test_nonempty_examples(a2, peterson):
    e = parse_word(a2, "")
    assert cell_nonempty(e, borel_space(a2))
    assert not cell_nonempty(parse_word(a2, "1"), borel_space(a2))
    assert not cell_nonempty(parse_word(a2, "1 2"), peterson)


def test_dimension_examples(a2, peterson):
    e = parse_word(a2, "")
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
    assert row_dimension_profile(parse_word(a2, ""), peterson) == (0, 0)
    assert row_dimension_profile(w0, full_space(a2)) == (2, 1)
    assert row_dimension_profile(w0, peterson) == (1, 1)


def test_compute_paving_examples(a2, peterson):
    cells = compute_paving(borel_space(a2))
    live = [c for c in cells if c.nonempty]
    assert len(live) == 1 and live[0].w.length == 0 and live[0].dim == 0

    live = {format_word(c.w): c.dim
            for c in compute_paving(peterson) if c.nonempty}
    assert live == {"": 0, "1": 1, "2": 1, "1 2 1": 2}

    h223 = parse_hessenberg(a2, "h=2,2,3")
    live = {format_word(c.w): c.dim
            for c in compute_paving(h223) if c.nonempty}
    assert live == {"": 0, "1": 1}


def test_poincare_examples(a2, peterson):
    assert poincare_polynomial(full_space(a2)).coefficients == (1, 2, 2, 1)
    assert poincare_polynomial(peterson).coefficients == (1, 2, 1)
    h223 = parse_hessenberg(a2, "h=2,2,3")
    assert poincare_polynomial(h223).coefficients == (1, 1)
    assert poincare_polynomial(borel_space(a2)).coefficients == (1,)


@pytest.mark.parametrize("lie_type,rank", SMALL)
def test_dimension_formulas_agree(lie_type, rank):
    rs = RootSystem(lie_type, rank)
    for space in enumerate_hessenberg(rs):
        for w in enumerate_weyl(rs):
            if cell_nonempty(w, space):
                assert cell_dimension(w, space) == cell_dimension_lie(w, space)


def test_dimension_formulas_read_independent_data():
    """The two formulas read different fields of an element: given the
    word of one B3 element u and the inverse permutation and masks of the
    longest element, the mask formula counts the longest element's 9
    inversions on the full space and the Lie-algebra formula counts u's,
    so the two disagree whenever u is shorter."""
    rs = RootSystem("B", 3)
    elems = enumerate_weyl(rs)
    space = full_space(rs)
    longest = elems[-1]
    for u in elems[:-1]:
        w = _trusted_element(rs, u.word, longest.inverse_root_permutation(),
                             longest.sm, longest.im)
        assert cell_dimension(w, space) == longest.length == 9
        assert cell_dimension_lie(w, space) == u.length < 9, u.word


@pytest.mark.parametrize("lie_type,rank", SMALL)
def test_row_profiles_sum_and_nonnegative(lie_type, rank):
    rs = RootSystem(lie_type, rank)
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
    rs = RootSystem(lie_type, rank)
    spaces = enumerate_hessenberg(rs)
    elems = enumerate_weyl(rs)
    # each negative part is decoded once: a decode builds a frozenset
    negs = [s.negative_part for s in spaces]
    data = [[(cell_dimension(w, s) if cell_nonempty(w, s) else None)
             for w in elems]
            for s in spaces]
    for neg, dims_by_w in zip(negs, data):
        dims = [d for d in dims_by_w if d is not None]
        bound = len(neg)
        assert max(dims) <= bound
        if dims_by_w[-1] is not None:
            assert max(dims) == bound
        for w, d in zip(elems, dims_by_w):
            if d is not None:
                assert d <= w.length
    for neg1, data1 in zip(negs, data):
        for neg2, data2 in zip(negs, data):
            if neg1 <= neg2:
                for d1, d2 in zip(data1, data2):
                    if d1 is not None:
                        assert d2 is not None and d2 >= d1


@pytest.mark.parametrize("lie_type,rank", SMALL)
def test_identity_cell_always_single_point(lie_type, rank):
    rs = RootSystem(lie_type, rank)
    for space in enumerate_hessenberg(rs):
        betti = poincare_polynomial(space)
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
        rs = RootSystem(lie_type, rank)
        poly = [1]
        for d in degs:
            factor = [1] * d
            out = [0] * (len(poly) + d - 1)
            for i, a in enumerate(poly):
                for j, b in enumerate(factor):
                    out[i + j] += a * b
            poly = out
        betti = poincare_polynomial(full_space(rs))
        assert list(betti.coefficients) == poly


def test_d3_matches_a3_under_diagram_isomorphism():
    """The exceptional isomorphism D3 ≅ A3 (center of the A3 diagram maps
    to the fork node) must carry pavings to pavings cell by cell.  This
    pits the type-D stage machinery against the type-A path, which is
    independently backed by the finite-field oracle."""
    d3 = RootSystem("D", 3)
    a3 = RootSystem("A", 3)

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
    rs = RootSystem(lie_type, rank)
    peterson = from_negative_roots(rs, [-a for a in rs.simple_roots])
    betti = poincare_polynomial(peterson).coefficients
    assert betti == tuple(comb(rank, k) for k in range(rank + 1))


@pytest.mark.parametrize("lie_type,rank", SWEEP)
def test_betti_product_equals_cell_count(lie_type, rank):
    """The closed-form product equals the nonempty cells counted by
    dimension, for every space of the sweep."""
    rs = RootSystem(lie_type, rank)
    for space in enumerate_hessenberg(rs):
        dims = [c.dim for c in compute_paving(space) if c.nonempty]
        tally = [0] * (max(dims) + 1)
        for d in dims:
            tally[d] += 1
        assert betti_product(space) == BettiTable(tuple(tally)), space


def ref_arrangement_count(space, p):
    """The points x of F_p^rank off every hyperplane Σ c_i x_i = 0, one for
    each root α = Σ c_i α_i of the ideal I = {α > 0 : −α ∈ Φ_H}, counted
    point by point over the first rank − 1 coordinates: a form with
    c_rank = 0 is tested there, and each other form rules out the one
    value x_rank = −(Σ_{i<rank} c_i x_i)/c_rank."""
    ideal = [(-beta).coeffs for beta in space.negative_part]
    flat = [c[:-1] for c in ideal if not c[-1]]
    tilted = [(c[:-1], pow(c[-1], -1, p)) for c in ideal if c[-1]]
    count = 0
    for x in itertools.product(range(p), repeat=space.rs.rank - 1):
        if all(sum(map(mul, c, x)) % p for c in flat):
            count += p - len({-sum(map(mul, c, x)) * inv % p
                              for c, inv in tilted})
    return count


def _two_primes_above(n):
    primes = [q for q in range(n + 1, 4 * n + 4)
              if all(q % d for d in range(2, q))]
    return primes[:2]


@pytest.mark.parametrize("lie_type,rank", [
    ("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3),
    ("D", 3), ("A", 4), ("D", 4),
    *(pytest.param(t, r, marks=pytest.mark.full_arrangement)
      for t, r in [("B", 4), ("C", 4), ("A", 5)])])
def test_betti_exponents_count_the_ideal_arrangement(lie_type, rank):
    """The exponents e_i of ``betti_product`` are those of the ideal
    arrangement of I (Abe–Barakat–Cuntz–Hoge–Terao, arXiv:1304.8034): by
    the finite-field method (Athanasiadis), its complement over F_p has
    ∏ (p − e_i) points for p a large prime, here the two smallest above
    twice the highest root's height.  B4, C4 and A5, about 25 s together,
    are deselected by default; run them with ``-m full_arrangement``."""
    rs = RootSystem(lie_type, rank)
    primes = _two_primes_above(2 * rs.positive_roots[-1].height)
    for space in enumerate_hessenberg(rs):
        exponents = paving._exponents(space)
        for p in primes:
            assert (ref_arrangement_count(space, p)
                    == math.prod(p - e for e in exponents)), (space, p)


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


def test_exponents_off_the_column_lengths_exit_2(monkeypatch, capsys):
    """A ``to_function`` that reads 3,3,4,4 for the space of 2,3,4,4 leaves
    the tally equal to the product, but its column lengths [1, 1, 2] are
    not the exponents [1, 1, 1]: ``betti`` exits 2 with one line naming
    the system and the space."""
    monkeypatch.setattr(paving, "to_function", lambda space: (3, 3, 4, 4))
    assert main(["betti", "--type", "A", "--rank", "3",
                 "--hess-fn", "2,3,4,4"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("hessenpave: consistency failure: exponents "
                       "[1, 1, 1] differ from the column lengths [1, 1, 2] "
                       "of h = 3,3,4,4 (A3, neg=0,0,-1;0,-1,0;-1,0,0)\n")


def test_paving_record_shape(a2, peterson):
    record = paving_record(peterson)
    assert record["betti"] == [1, 2, 1]
    assert record["hessenberg"]["neg"] == ["0,-1", "-1,0"]
    assert len(record["cells"]) == 6
    empty = [c for c in record["cells"] if not c["nonempty"]]
    assert all(c["dim"] is None and c["row_profile"] is None for c in empty)
    lengths = [c["length"] for c in record["cells"]]
    assert lengths == sorted(lengths)


def test_mixed_system_rejected(a2):
    b2 = RootSystem("B", 2)
    with pytest.raises(ValueError):
        cell_nonempty(parse_word(b2, ""), borel_space(a2))


_PAIR_FUNCTIONS = [cell_nonempty, cell_dimension, cell_dimension_lie,
                   row_dimension_profile]
_SPACE_FUNCTIONS = [compute_paving, poincare_polynomial, paving_record,
                    betti_product]


@pytest.mark.parametrize("call, args, kind", [
    *[(f, (5, "space"), "WeylElement") for f in _PAIR_FUNCTIONS],
    *[(f, ("w", 5), "HessenbergSpace") for f in _PAIR_FUNCTIONS],
    *[(f, (5,), "HessenbergSpace") for f in _SPACE_FUNCTIONS],
], ids=lambda x: getattr(x, "__name__", None))
def test_wrong_typed_argument_is_refused_by_name(a2, call, args, kind):
    """The int 5 in each Weyl-element or space slot is a ValueError naming
    it, never a bare AttributeError."""
    given = {"w": parse_word(a2, "1"), "space": full_space(a2), 5: 5}
    with pytest.raises(ValueError, match=f"^5 is not a {kind}$"):
        call(*[given[x] for x in args])


def test_per_system_masks_live_on_their_instance():
    """The root-poset tables are built with the root system and kept on
    it: two equal systems each hold their own tables, and the tables are
    equal."""
    first, second = RootSystem("D", 4), RootSystem("D", 4)
    assert first == second and first is not second
    for field in ("_covers", "_below", "_heights", "_sum_pairs"):
        mine, theirs = getattr(first, field), getattr(second, field)
        assert mine == theirs and mine is not theirs, field
