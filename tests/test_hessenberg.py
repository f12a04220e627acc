"""Hessenberg spaces: construction, closure, enumeration, encodings."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessenpave.hessenberg import (
    borel_space,
    complement_ideal,
    enumerate_hessenberg,
    format_negative_part,
    from_function,
    from_negative_roots,
    full_space,
    parse_hessenberg,
    smallest_containing,
    to_function,
)
from hessenpave.rootcore import build_root_system, enumerate_weyl, parse_root


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


def test_enumeration_counts_other_types():
    assert len(enumerate_hessenberg(build_root_system("B", 2))) == 6
    assert len(enumerate_hessenberg(build_root_system("B", 3))) == 20
    assert len(enumerate_hessenberg(build_root_system("C", 3))) == 20
    assert len(enumerate_hessenberg(build_root_system("D", 4))) == 50


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
