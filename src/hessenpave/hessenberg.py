"""Hessenberg spaces as root subsets.

A Hessenberg space is a subspace ``H`` of the Lie algebra containing the
Borel and closed under bracket with it.  Such a space is a direct sum of
root spaces together with the full Cartan, so it is determined by its root
set ``Φ_H``, which contains every positive root and is closed under adding
positive roots.  Only the negative part ``Φ_H ∩ Φ⁻`` carries information,
and that is the canonical encoding used here.

Closure under adding any positive root is equivalent to closure under
adding simple roots (positive roots are built up from simples inside Φ⁺),
so constructors check the simple-root condition; the full condition is
re-verified exhaustively in the test suite.

Negating everything, negative parts correspond to down-closed subsets
(order ideals) of the positive-root poset under dominance; their
complements in Φ⁻ are the ad-nilpotent ideals of the opposite Borel.
Enumeration therefore walks the lattice of order ideals.  Order ideals are
closed under intersection, so every set of roots lies in a smallest
Hessenberg space, built by :func:`smallest_containing` from per-root
down-sets.

In type A with rank n−1, Hessenberg spaces match nondecreasing functions
``h: {1..n} → {1..n}`` with ``h(i) ≥ i``: the matrix entries allowed below
the diagonal in column ``j`` reach down to row ``h(j)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Iterable

from .errors import ConsistencyError
from .rootcore import _MIN_RANK, Root, RootSystem, format_root, parse_root


class HessenbergSpace:
    """A Hessenberg space, encoded by its set of negative roots.

    ``hm`` is the whole root set Φ_H as a bitmask over ``rs.all_roots``
    indices (bit k set iff root k lies in Φ_H); the paving kernel tests
    cells against it.  Instances are immutable and hashable; two spaces
    are equal when they live in equal root systems and have the same
    negative part.  Use :func:`from_negative_roots`, :func:`from_function`,
    or :func:`enumerate_hessenberg` to construct validated instances.
    """

    __slots__ = ("rs", "negative_part", "hm")

    def __init__(self, rs: RootSystem, negative_part: frozenset[Root]):
        self.rs = rs
        self.negative_part = negative_part
        self.hm = (1 << rs.num_positive) - 1
        for beta in negative_part:
            self.hm |= 1 << rs.root_index(beta)

    def contains(self, root: Root) -> bool:
        """Membership of a root in Φ_H."""
        return bool(self.hm >> self.rs.root_index(root) & 1)

    def __eq__(self, other) -> bool:
        return (isinstance(other, HessenbergSpace) and self.rs == other.rs
                and self.negative_part == other.negative_part)

    def __hash__(self) -> int:
        return hash((self.rs.lie_type, self.rs.rank, self.negative_part))

    def __repr__(self) -> str:
        return (f"HessenbergSpace({self.rs.lie_type}{self.rs.rank}, "
                f"neg={format_negative_part(self)!r})")


@dataclass(frozen=True)
class ComplementIdeal:
    """The negative roots missing from a Hessenberg space.

    This set is downward closed (subtracting a positive root stays inside
    whenever the difference is a root) and corresponds to an ad-nilpotent
    ideal of the opposite Borel.
    """

    roots: frozenset[Root]


def from_negative_roots(rs: RootSystem, negatives: Iterable[Root]) -> HessenbergSpace:
    """Build the Hessenberg space with the given negative part.

    Raises ValueError if some element is not a negative root or if the
    closure condition fails; the error names the offending pair.
    """
    neg = frozenset(negatives)
    for beta in neg:
        rs.root_index(beta)
        if not beta.is_negative:
            raise ValueError(f"{format_root(beta)} is not a negative root")
    for beta in neg:
        for i, alpha in enumerate(rs.simple_roots, start=1):
            s = rs.root_add(beta, alpha)
            if s is not None and s.is_negative and s not in neg:
                raise ValueError(
                    f"closure violation: {format_root(beta)} is in the space "
                    f"but {format_root(beta)} + α_{i} = {format_root(s)} is not")
    return HessenbergSpace(rs, neg)


def borel_space(rs: RootSystem) -> HessenbergSpace:
    """The minimal Hessenberg space Φ_H = Φ⁺ (H is the Borel itself)."""
    return HessenbergSpace(rs, frozenset())


def full_space(rs: RootSystem) -> HessenbergSpace:
    """The maximal Hessenberg space Φ_H = Φ (H is the whole Lie algebra)."""
    return HessenbergSpace(rs, frozenset(rs.negative_roots))


# The number of ad-nilpotent ideals, so of Hessenberg spaces, by type.
_SPACE_COUNT = {"A": lambda n: comb(2 * n + 2, n + 1) // (n + 2),
                "B": lambda n: comb(2 * n, n),
                "C": lambda n: comb(2 * n, n),
                "D": lambda n: comb(2 * n, n) - comb(2 * n - 2, n - 1)}

# Most spaces enumerate_hessenberg builds: A10 (58,786 spaces) takes about
# 9 s on a 2-vCPU Xeon; the next counts up (D10 136,136, B10 and C10
# 184,756, A11 208,012) would take minutes and hold every space in memory.
_SPACE_BUDGET = 60_000


def check_space_budget(lie_type: str, rank: int) -> int | None:
    """Return the number of Hessenberg spaces of the given type and rank,
    and raise ValueError when it is over _SPACE_BUDGET.

    Like ``check_weyl_budget`` it needs no RootSystem, and a type or rank
    that RootSystem refuses passes here (returning None) so that RootSystem
    names the problem.
    """
    if lie_type not in _MIN_RANK or rank < _MIN_RANK[lie_type]:
        return None
    count = _SPACE_COUNT[lie_type](rank)
    if count > _SPACE_BUDGET:
        raise ValueError(f"{lie_type}{rank} has {count} Hessenberg spaces, "
                         f"over the budget of {_SPACE_BUDGET}")
    return count


def enumerate_hessenberg(rs: RootSystem) -> tuple[HessenbergSpace, ...]:
    """All Hessenberg spaces, ordered by size of the negative part and then
    lexicographically on the sorted index tuple of the negated roots.

    The enumeration walks down-closed subsets of the positive-root poset:
    a positive root may join an ideal once everything reachable from it by
    subtracting one simple root is already present.  The result always
    starts with the Borel and ends with the full Lie algebra; it is cached
    per type and rank.  Raises ValueError, before any work, when there are
    more than _SPACE_BUDGET spaces, and ConsistencyError when the count
    differs from the closed form for ad-nilpotent ideals.
    """
    key = (rs.lie_type, rs.rank)
    if key not in _SPACES:
        expected = check_space_budget(rs.lie_type, rs.rank)
        spaces = _build_hessenberg_spaces(rs)
        if len(spaces) != expected:
            raise ConsistencyError(
                f"Hessenberg enumeration of {rs.lie_type}{rs.rank} found "
                f"{len(spaces)} spaces, expected {expected}")
        _SPACES[key] = spaces
    return _SPACES[key]


_SPACES: dict[tuple[str, int], tuple[HessenbergSpace, ...]] = {}


def _lower_covers(rs: RootSystem) -> list[tuple[int, ...]]:
    """For each positive root, the indices reachable by subtracting one
    simple root; each has smaller height, so a smaller index."""
    return [tuple(d for a in rs._simple_index if (d := line[a]) is not None)
            for line in rs._pos_diff]


@lru_cache(maxsize=None)
def _down_set_masks(rs: RootSystem) -> tuple[int, ...]:
    """Entry p is the bitmask over ``rs.all_roots`` indices of −γ for every
    positive root γ at or below positive root p (the negative part of the
    smallest Hessenberg space holding −pos[p])."""
    npos = rs.num_positive
    down: list[int] = []
    for p, covers in enumerate(_lower_covers(rs)):
        m = 1 << (npos + p)
        for c in covers:
            m |= down[c]
        down.append(m)
    return tuple(down)


def smallest_containing(rs: RootSystem, mask: int) -> int:
    """``hm`` of the smallest Hessenberg space whose root set contains every
    root of ``mask`` (a bitmask over ``rs.all_roots`` indices).

    Negative parts are order ideals, and order ideals are closed under
    intersection, so this space exists: Φ⁺ together with the down-sets of
    the negated negative roots in ``mask``.
    """
    npos = rs.num_positive
    down = _down_set_masks(rs)
    hm = (1 << npos) - 1
    neg = mask >> npos
    while neg:
        low = neg & -neg
        hm |= down[low.bit_length() - 1]
        neg ^= low
    return hm


def _build_hessenberg_spaces(rs: RootSystem) -> tuple[HessenbergSpace, ...]:
    npos = rs.num_positive
    pos = rs.positive_roots
    covers = _lower_covers(rs)

    seen: set[frozenset[int]] = set()
    frontier = [frozenset()]
    seen.add(frontier[0])
    while frontier:
        nxt = []
        for ideal in frontier:
            for p in range(npos):
                if p in ideal:
                    continue
                if all(c in ideal for c in covers[p]):
                    grown = ideal | {p}
                    if grown not in seen:
                        seen.add(grown)
                        nxt.append(grown)
        frontier = nxt

    ordered = sorted(seen, key=lambda s: (len(s), tuple(sorted(s))))
    return tuple(
        HessenbergSpace(rs, frozenset(-pos[p] for p in ideal))
        for ideal in ordered
    )


def from_function(n: int, h: Iterable[int]) -> HessenbergSpace:
    """The Hessenberg space of a Hessenberg function, in ambient type A_{n−1}.

    The function must be nondecreasing with ``i ≤ h(i) ≤ n``.  The negative
    root ``ε_i − ε_j`` (for ``i > j``) belongs to the space iff ``i ≤ h(j)``.
    """
    hs = tuple(int(x) for x in h)
    if len(hs) != n:
        raise ValueError(f"expected {n} values, got {len(hs)}")
    for i, v in enumerate(hs, start=1):
        if v < i:
            raise ValueError(f"h({i}) = {v} < {i}")
        if v > n:
            raise ValueError(f"h({i}) = {v} > n = {n}")
    if any(hs[k] > hs[k + 1] for k in range(n - 1)):
        raise ValueError(f"h = {hs} is not nondecreasing")
    if n < 2:
        raise ValueError("need n >= 2 for a rank >= 1 ambient system")

    rs = RootSystem("A", n - 1)
    neg = set()
    for j in range(1, n):
        for i in range(j + 1, n + 1):
            if i <= hs[j - 1]:
                coeffs = tuple(-1 if j <= k <= i - 1 else 0
                               for k in range(1, n))
                neg.add(rs.root(coeffs))
    return from_negative_roots(rs, neg)


def to_function(space: HessenbergSpace) -> tuple[int, ...]:
    """Read a type-A Hessenberg space back as a Hessenberg function."""
    rs = space.rs
    if rs.lie_type != "A":
        raise ValueError("Hessenberg functions only encode type-A spaces")
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


def complement_ideal(space: HessenbergSpace) -> ComplementIdeal:
    """The negative roots outside the space (an ad-nilpotent ideal of b⁻)."""
    missing = frozenset(r for r in space.rs.negative_roots
                        if r not in space.negative_part)
    return ComplementIdeal(missing)


# ---------------------------------------------------------------------------
# text encodings
# ---------------------------------------------------------------------------


def format_negative_part(space: HessenbergSpace) -> str:
    """Semicolon-separated negative roots in root text format."""
    rs = space.rs
    ordered = sorted(space.negative_part, key=rs.root_index)
    return ";".join(format_root(r) for r in ordered)


def space_fields(space: HessenbergSpace) -> tuple[dict, str]:
    """The space as command output shows it: the JSON record
    ``{"neg": [root, ...]}`` and the CSV/table column ``neg=root;root``,
    which :func:`parse_hessenberg` reads back."""
    text = format_negative_part(space)
    return {"neg": text.split(";") if text else []}, "neg=" + text


def parse_hessenberg(rs: RootSystem, text: str) -> HessenbergSpace:
    """Parse the text form of a Hessenberg space.

    Accepted forms: ``full`` and ``borel`` for the two extremes,
    ``h=2,3,3`` for a type-A Hessenberg function, and
    ``neg=-1,0;0,-1`` for an explicit negative-root list (``neg=`` with
    nothing after it is the Borel).
    """
    text = text.strip()
    if text == "full":
        return full_space(rs)
    if text == "borel":
        return borel_space(rs)
    if text.startswith("h="):
        if rs.lie_type != "A":
            raise ValueError("h=... requires a type-A root system")
        values = [int(p) for p in text[2:].split(",") if p.strip()]
        space = from_function(rs.rank + 1, values)
        return HessenbergSpace(rs, space.negative_part)
    if text.startswith("neg="):
        body = text[4:].strip()
        if not body:
            return borel_space(rs)
        roots = [parse_root(rs, part) for part in body.split(";")]
        return from_negative_roots(rs, roots)
    raise ValueError(f"malformed Hessenberg text {text!r}")
