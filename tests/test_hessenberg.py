"""Hessenberg spaces: construction, closure, enumeration, encodings."""

import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessenpave import hessenberg
from hessenpave.errors import ConsistencyError
from hessenpave.hessenberg import (
    borel_space,
    check_space_budget,
    complement_ideal,
    enumerate_hessenberg,
    format_negative_part,
    from_function,
    from_negative_roots,
    full_space,
    parse_hessenberg,
    smallest_containing,
    space_fields,
    to_function,
)
from hessenpave.rootcore import (
    Root,
    build_root_system,
    enumerate_weyl,
    format_root,
    parse_root,
)


def test_from_negative_roots_examples():
    a2 = build_root_system("A", 2)
    assert from_negative_roots(a2, []).negative_part == frozenset()
    peterson = from_negative_roots(
        a2, [parse_root(a2, "-1,0"), parse_root(a2, "0,-1")])
    assert len(peterson.negative_part) == 2
    with pytest.raises(ValueError, match="closure"):
        from_negative_roots(a2, [parse_root(a2, "-1,-1")])
    with pytest.raises(ValueError, match="negative"):
        from_negative_roots(a2, [parse_root(a2, "1,0")])


def test_from_function_examples():
    borel = from_function(3, (1, 2, 3))
    assert borel.negative_part == frozenset()
    everything = from_function(3, (3, 3, 3))
    assert len(everything.negative_part) == 3
    h233 = from_function(3, (2, 3, 3))
    a2 = h233.rs
    assert h233.negative_part == {parse_root(a2, "-1,0"), parse_root(a2, "0,-1")}
    with pytest.raises(ValueError):
        from_function(3, (2, 1, 3))       # not nondecreasing
    with pytest.raises(ValueError):
        from_function(3, (0, 2, 3))       # h(1) < 1
    with pytest.raises(ValueError):
        from_function(3, (2, 3, 4))       # above n
    with pytest.raises(ValueError, match=r"^h\(1\) = 2.7 is not an integer$"):
        from_function(3, (2.7, 3, 3))     # not truncated to 2


@pytest.mark.parametrize("n", [3.0, "3", True, None])
def test_from_function_refuses_non_integer_n(n):
    """An n that is not an int is refused by name first, not failing in
    ``range`` (3.0) or reported as a length mismatch ("3")."""
    message = "^" + re.escape(f"n must be an integer, got {n!r}") + "$"
    with pytest.raises(ValueError, match=message):
        from_function(n, [2, 3, 3])


@pytest.mark.parametrize("h", [5, None, 2.5])
def test_from_function_refuses_non_iterable_h(h):
    """An h that is not a sequence is refused by name, not with a bare
    TypeError from ``tuple``."""
    message = "^" + re.escape(
        f"h = {h!r} is not a sequence of integers") + "$"
    with pytest.raises(ValueError, match=message):
        from_function(3, h)


@pytest.mark.parametrize("beta", ["-1,0", (-1, 0), None, -1])
def test_from_negative_roots_refuses_non_roots(beta):
    """An element that is not a Root (root text, a coefficient tuple) is
    refused by name, not with a bare AttributeError on ``.coeffs``."""
    a2 = build_root_system("A", 2)
    message = "^" + re.escape(f"{beta!r} is not a Root") + "$"
    with pytest.raises(ValueError, match=message):
        from_negative_roots(a2, [parse_root(a2, "0,-1"), beta])


@pytest.mark.parametrize("negatives", [5, None, 2.5])
def test_from_negative_roots_refuses_non_iterable(negatives):
    """A negative part that is not iterable is refused by name, not with
    a bare TypeError from the loop over it."""
    message = "^" + re.escape(f"negative roots {negatives!r} are not a "
                              "sequence of Roots") + "$"
    with pytest.raises(ValueError, match=message):
        from_negative_roots(build_root_system("A", 2), negatives)


def test_spaces_belong_to_their_root_system():
    """The spaces are cached on the root system that enumerated them, not
    shared between equal instances."""
    for rs in (build_root_system("B", 3), build_root_system("B", 3)):
        spaces = enumerate_hessenberg(rs)
        assert len(spaces) == 20
        assert all(space.rs is rs for space in spaces)


def _all_hessenberg_functions(n):
    out = []
    for h in itertools.product(*[range(i, n + 1) for i in range(1, n + 1)]):
        if all(h[k] <= h[k + 1] for k in range(n - 1)):
            out.append(h)
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_enumeration_matches_function_count(n):
    """Independent oracle: direct enumeration of nondecreasing functions
    with h(i) >= i."""
    rs = build_root_system("A", n - 1)
    assert len(enumerate_hessenberg(rs)) == len(_all_hessenberg_functions(n))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_function_round_trip(n):
    for h in _all_hessenberg_functions(n):
        assert to_function(from_function(n, h)) == h


def ref_to_function(space):
    """A type-A space read back as a Hessenberg function one Root at a
    time: h(j) is the largest i with ε_i − ε_j in Φ_H (j if there is
    none)."""
    rs = space.rs
    n = rs.rank + 1
    out = []
    for j in range(1, n + 1):
        hj = j
        for i in range(j + 1, n + 1):
            coeffs = tuple(-1 if j <= k <= i - 1 else 0 for k in range(1, n))
            if space.contains(Root(coeffs)):
                hj = max(hj, i)
        out.append(hj)
    return tuple(out)


@pytest.mark.parametrize("rank", range(1, 8))
def test_to_function_equals_root_reference(rank):
    """Every space of A1..A7: the mask read of to_function equals the
    Root-by-Root reference, and from_function rebuilds the same mask."""
    rs = build_root_system("A", rank)
    for space in enumerate_hessenberg(rs):
        h = to_function(space)
        assert h == ref_to_function(space), space
        assert from_function(rank + 1, h).hm == space.hm


def ref_function_space(rs, h):
    """The space of h from one Root per allowed entry, as from_function
    built it before the mask helper."""
    n = rs.rank + 1
    neg = [rs.root(tuple(-1 if j <= k <= i - 1 else 0 for k in range(1, n)))
           for j in range(1, n) for i in range(j + 1, n + 1) if i <= h[j - 1]]
    return from_negative_roots(rs, neg)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_function_mask_equals_root_construction(n):
    """Every Hessenberg function with n <= 5 gives the same mask through
    from_function, through ``h=`` text on a given system, and one Root at
    a time."""
    rs = build_root_system("A", n - 1)
    for h in _all_hessenberg_functions(n):
        want = ref_function_space(rs, h).hm
        assert from_function(n, h).hm == want, h
        text = "h=" + ",".join(map(str, h))
        assert parse_hessenberg(rs, text).hm == want, h


def test_parse_function_builds_no_root_system(monkeypatch):
    """``h=`` text is read on the given system; only from_function, which
    has none, builds one."""
    built = []
    system = hessenberg.RootSystem

    def counted(*args):
        built.append(args)
        return system(*args)

    monkeypatch.setattr(hessenberg, "RootSystem", counted)
    rs = build_root_system("A", 3)
    space = parse_hessenberg(rs, "h=2,3,4,4")
    assert space.rs is rs and built == []
    assert from_function(4, (2, 3, 4, 4)) == space
    assert built == [("A", 3)]


def test_enumeration_counts_other_types():
    assert len(enumerate_hessenberg(build_root_system("B", 2))) == 6
    assert len(enumerate_hessenberg(build_root_system("B", 3))) == 20
    assert len(enumerate_hessenberg(build_root_system("C", 3))) == 20
    assert len(enumerate_hessenberg(build_root_system("D", 4))) == 50


# Ad-nilpotent ideal counts: Catalan numbers C_{n+1} in A_n, binom(2n, n) in
# B_n and C_n, binom(2n, n) - binom(2n-2, n-1) in D_n.
KNOWN_SPACE_COUNTS = {
    "A": {1: 2, 2: 5, 3: 14, 4: 42, 5: 132, 6: 429, 7: 1430},
    "B": {2: 6, 3: 20, 4: 70, 5: 252},
    "C": {2: 6, 3: 20, 4: 70, 5: 252},
    "D": {3: 14, 4: 50, 5: 182, 6: 672},
}


@pytest.mark.parametrize("lie_type", sorted(KNOWN_SPACE_COUNTS))
def test_enumeration_count_matches_closed_form(lie_type):
    for rank, count in KNOWN_SPACE_COUNTS[lie_type].items():
        assert check_space_budget(lie_type, rank) == count
        assert len(enumerate_hessenberg(build_root_system(lie_type, rank))) \
            == count


def test_enumeration_count_mismatch_raises(monkeypatch):
    build = hessenberg._build_hessenberg_spaces
    monkeypatch.setattr(hessenberg, "_build_hessenberg_spaces",
                        lambda rs: build(rs)[:-1])
    with pytest.raises(ConsistencyError,
                       match="enumeration of B3 found 19 spaces, expected 20"):
        enumerate_hessenberg(build_root_system("B", 3))


def test_space_budget():
    assert check_space_budget("A", 10) == 58786
    for lie_type, rank, count in [("A", 11, 208012), ("B", 10, 184756),
                                  ("C", 10, 184756), ("D", 10, 136136)]:
        with pytest.raises(ValueError, match=(
                f"^{lie_type}{rank} has {count} Hessenberg spaces, over the "
                "budget of 60000$")):
            check_space_budget(lie_type, rank)
    # left for RootSystem to refuse with its own message
    assert check_space_budget("B", 1) is None
    assert check_space_budget("E", 6) is None


@pytest.mark.parametrize("lie_type,rank",
                         [("A", 3), ("A", 4), ("B", 3), ("B", 4),
                          ("C", 3), ("C", 4), ("D", 3), ("D", 4)])
def test_enumerated_spaces_closed_under_all_positive_roots(lie_type, rank):
    """Closure holds for adding any positive root, not only simples."""
    rs = build_root_system(lie_type, rank)
    for space in enumerate_hessenberg(rs):
        for beta in space.negative_part:
            for alpha in rs.positive_roots:
                s = rs.root_add(beta, alpha)
                if s is not None:
                    assert space.contains(s)


@pytest.mark.parametrize("lie_type,rank",
                         [("A", 4), ("B", 4), ("C", 4), ("D", 4)])
def test_lattice_closure(lie_type, rank):
    rs = build_root_system(lie_type, rank)
    spaces = enumerate_hessenberg(rs)
    keys = {s.negative_part for s in spaces}
    for s1, s2 in itertools.combinations(spaces, 2):
        assert (s1.negative_part & s2.negative_part) in keys
        assert (s1.negative_part | s2.negative_part) in keys


def test_enumeration_order_and_extremes():
    rs = build_root_system("B", 2)
    spaces = enumerate_hessenberg(rs)
    assert spaces[0].negative_part == frozenset()
    assert spaces[-1].negative_part == frozenset(rs.negative_roots)
    sizes = [len(s.negative_part) for s in spaces]
    assert sizes == sorted(sizes)


def test_complement_ideal():
    a2 = build_root_system("A", 2)
    assert complement_ideal(full_space(a2)).roots == frozenset()
    assert complement_ideal(borel_space(a2)).roots == frozenset(a2.negative_roots)
    pet = parse_hessenberg(a2, "h=2,3,3")
    assert complement_ideal(pet).roots == {parse_root(a2, "-1,-1")}


@pytest.mark.parametrize("lie_type,rank",
                         [("A", 3), ("B", 3), ("C", 3), ("D", 4)])
def test_complement_downward_closed(lie_type, rank):
    rs = build_root_system(lie_type, rank)
    for space in enumerate_hessenberg(rs):
        ideal = complement_ideal(space).roots
        for beta in ideal:
            for alpha in rs.positive_roots:
                d = tuple(b - a for b, a in zip(beta.coeffs, alpha.coeffs))
                if rs.is_root(d):
                    from hessenpave.rootcore import Root
                    if Root(d).is_negative:
                        assert Root(d) in ideal


def test_parse_hessenberg_forms():
    b2 = build_root_system("B", 2)
    assert parse_hessenberg(b2, "borel") == borel_space(b2)
    assert parse_hessenberg(b2, "full") == full_space(b2)
    assert parse_hessenberg(b2, "neg=") == borel_space(b2)
    one = parse_hessenberg(b2, "neg=0,-1")
    assert format_negative_part(one) == "0,-1"
    a2 = build_root_system("A", 2)
    assert parse_hessenberg(a2, "h=2,3,3").negative_part == \
        {parse_root(a2, "-1,0"), parse_root(a2, "0,-1")}
    with pytest.raises(ValueError):
        parse_hessenberg(b2, "h=2,3,3")   # functions are type A only
    with pytest.raises(ValueError):
        parse_hessenberg(b2, "nonsense")
    for bad in ("h=2,,3", "h=a,b", "h="):
        with pytest.raises(ValueError, match="malformed Hessenberg text"):
            parse_hessenberg(a2, bad)
    for bad in (5, None, b"full"):
        message = "^" + re.escape(f"malformed Hessenberg text {bad!r}") + "$"
        with pytest.raises(ValueError, match=message):
            parse_hessenberg(a2, bad)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.data())
def test_round_trip_random_functions(n, data):
    values = []
    prev = 1
    for i in range(1, n + 1):
        v = data.draw(st.integers(min_value=max(i, prev), max_value=n))
        values.append(v)
        prev = v
    h = tuple(values)
    assert to_function(from_function(n, h)) == h


@pytest.mark.parametrize("lie_type,rank", [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4), ("D", 3), ("D", 4), ("A", 5), ("D", 5)])
def test_smallest_containing_is_the_meet_of_nonempty_cells(lie_type, rank):
    """For each w, the smallest space holding w⁻¹(simple roots) is the AND
    of hm over the spaces where the cell of w is nonempty, and it is one of
    the enumerated spaces."""
    rs = build_root_system(lie_type, rank)
    spaces = enumerate_hessenberg(rs)
    known = {s.hm for s in spaces}
    for w in enumerate_weyl(rs):
        meet = -1
        for s in spaces:
            if w.sm & s.hm == w.sm:
                meet &= s.hm
        least = smallest_containing(rs, w.sm)
        assert least == meet, w
        assert least in known, w


# Every system of rank <= 4, plus A5.
SWEEP = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
         ("B", 4), ("C", 2), ("C", 3), ("C", 4), ("D", 3), ("D", 4),
         ("A", 5)]


def ref_negative_parts(rs):
    """Reference enumeration: grow order ideals of positive-root indices as
    frozensets (an index joins once every lower cover, read from
    ``rs._pos_diff``, is in), sort by size and then by ascending members,
    and negate the roots."""
    npos = rs.num_positive
    pos = rs.positive_roots
    covers = [[d for a in rs._simple_index if (d := line[a]) is not None]
              for line in rs._pos_diff]
    seen = {frozenset()}
    frontier = [frozenset()]
    while frontier:
        nxt = []
        for ideal in frontier:
            for p in range(npos):
                if p not in ideal and all(c in ideal for c in covers[p]):
                    grown = ideal | {p}
                    if grown not in seen:
                        seen.add(grown)
                        nxt.append(grown)
        frontier = nxt
    ordered = sorted(seen, key=lambda s: (len(s), tuple(sorted(s))))
    return [frozenset(-pos[p] for p in ideal) for ideal in ordered]


@pytest.mark.parametrize("lie_type,rank", SWEEP + [
    ("A", 6), ("A", 7), ("B", 5), ("C", 5), ("D", 5), ("D", 6)])
def test_enumeration_equals_frozenset_reference(lie_type, rank):
    """The mask enumeration yields the reference's spaces in its order, with
    the mask and negative part the reference's roots give."""
    rs = build_root_system(lie_type, rank)
    spaces = enumerate_hessenberg(rs)
    ref = ref_negative_parts(rs)
    assert [s.negative_part for s in spaces] == ref
    borel = (1 << rs.num_positive) - 1
    assert [s.hm for s in spaces] == [
        borel | sum(1 << rs.root_index(b) for b in neg) for neg in ref]


def ref_is_closed(rs, neg):
    """Reference closure test in Root arithmetic: β + α_i stays in ``neg``
    whenever it is a negative root, for every β in ``neg``."""
    for beta in neg:
        for alpha in rs.simple_roots:
            s = rs.root_add(beta, alpha)
            if s is not None and s.is_negative and s not in neg:
                return False
    return True


_VIOLATION = re.compile(r"^closure violation: (\S+) is in the space but "
                        r"\1 \+ α_(\d+) = (\S+) is not$")


@pytest.mark.parametrize("lie_type,rank",
                         [("A", 3), ("B", 3), ("C", 3), ("D", 4)])
def test_closure_check_equals_root_reference_on_every_subset(lie_type,
                                                             rank):
    """Over every subset of the negative roots, ``from_negative_roots``
    accepts exactly the subsets the Root-arithmetic reference calls
    closed, builds the enumerated space with that negative part, and
    otherwise names a pair β, α_i with β + α_i a negative root outside the
    subset."""
    rs = build_root_system(lie_type, rank)
    by_part = {s.negative_part: s for s in enumerate_hessenberg(rs)}
    neg = rs.negative_roots
    accepted = 0
    for bits in range(1 << len(neg)):
        subset = frozenset(r for k, r in enumerate(neg) if bits >> k & 1)
        if ref_is_closed(rs, subset):
            assert from_negative_roots(rs, subset) == by_part[subset]
            accepted += 1
            continue
        with pytest.raises(ValueError) as exc:
            from_negative_roots(rs, subset)
        m = _VIOLATION.match(str(exc.value))
        assert m, str(exc.value)
        beta = parse_root(rs, m[1])
        s = rs.root_add(beta, rs.simple_roots[int(m[2]) - 1])
        assert beta in subset and s == parse_root(rs, m[3])
        assert s.is_negative and s not in subset
    assert accepted == len(by_part)


@pytest.mark.parametrize("lie_type,rank", SWEEP)
def test_space_is_its_mask(lie_type, rank):
    """A space stores rs and hm only, compares and hashes by hm, and
    rebuilds from its decoded negative part."""
    rs = build_root_system(lie_type, rank)
    spaces = enumerate_hessenberg(rs)
    assert hessenberg.HessenbergSpace.__slots__ == ("rs", "hm")
    assert len({s.hm for s in spaces}) == len(spaces)
    fresh = build_root_system(lie_type, rank)     # equal, not identical
    for s in spaces:
        again = hessenberg.HessenbergSpace(fresh, s.hm)
        assert again == s and hash(again) == hash(s)
        assert from_negative_roots(rs, s.negative_part) == s
    assert len(set(spaces)) == len(spaces)
    assert spaces[0] != spaces[-1]


@pytest.mark.parametrize("lie_type,rank", SWEEP)
def test_space_texts_equal_format_root(lie_type, rank):
    """The texts read from the root system's table equal ``format_root``
    of each negative root, in ``rs.all_roots`` index order, on every
    space of the sweep."""
    rs = build_root_system(lie_type, rank)
    for space in enumerate_hessenberg(rs):
        texts = [format_root(r)
                 for r in sorted(space.negative_part, key=rs.root_index)]
        assert space_fields(space) == ({"neg": texts},
                                       "neg=" + ";".join(texts))
        assert format_negative_part(space) == ";".join(texts)
