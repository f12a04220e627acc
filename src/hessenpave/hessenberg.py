"""Hessenberg spaces as integer bitmasks of their root sets.

A Hessenberg space is a subspace ``H`` of the Lie algebra containing the
Borel and closed under bracket with it.  Such a space is a direct sum of
root spaces together with the full Cartan, so it is determined by its root
set ``Φ_H``, which contains every positive root and is closed under adding
positive roots.  A space is stored as ``hm``, the bitmask of ``Φ_H`` over
``rs.all_roots`` indices, and nothing else: the positive bits are always
set, so only the negative bits (the negative part ``Φ_H ∩ Φ⁻``) carry
information.  This module alone turns those bits back into roots.

Negating everything, negative parts correspond to down-closed subsets
(order ideals) of the positive-root poset under dominance, each an integer
mask over the positive-root indices; their complements in Φ⁻ are the
ad-nilpotent ideals of the opposite Borel.  Closure under adding any
positive root is equivalent to closure under adding simple roots, so one
rule on those masks decides it: an ideal holding p holds its lower covers
``rs._covers[p]``, the roots p − α_a for each simple root α_a that leaves a
positive root.  :func:`from_negative_roots` checks it,
:func:`enumerate_hessenberg` grows ideals by it, and the test suite
re-verifies the full condition.  Order ideals are closed under
intersection, so every set of roots lies in a smallest Hessenberg space,
which :func:`smallest_containing` reads off the per-root down-sets
``rs._below``.

In type A with rank n−1, Hessenberg spaces match nondecreasing functions
``h: {1..n} → {1..n}`` with ``h(i) ≥ i``: the matrix entries allowed below
the diagonal in column ``j`` reach down to row ``h(j)``.
"""

from __future__ import annotations

from collections.abc import Iterable
from math import comb

from .errors import ConsistencyError
from .rootcore import (
    Root,
    RootSystem,
    _bounded_count,
    _count_text,
    _Record,
    _refused_by_root_system,
    parse_root,
)


class HessenbergSpace:
    """A Hessenberg space, stored as the bitmask of its root set.

    ``hm`` is Φ_H as a bitmask over ``rs.all_roots`` indices (bit k set iff
    root k lies in Φ_H); the paving kernel tests cells against it, and it is
    the space's identity: two spaces are equal when they live in equal root
    systems and have the same mask.  ``negative_part`` decodes the negative
    bits into roots on demand.  Use :func:`from_negative_roots`,
    :func:`from_function`, :func:`parse_hessenberg` or
    :func:`enumerate_hessenberg` to construct validated instances.
    """

    __slots__ = ("rs", "hm")

    def __init__(self, rs: RootSystem, hm: int):
        self.rs = rs
        self.hm = hm

    @property
    def negative_part(self) -> frozenset[Root]:
        """Φ_H ∩ Φ⁻, the roots of the negative bits of ``hm``."""
        rs = self.rs
        return frozenset(_negated(rs, self.hm >> rs.num_positive))

    def contains(self, root: Root) -> bool:
        """Membership of a root in Φ_H."""
        return bool(self.hm >> self.rs.root_index(root) & 1)

    def __eq__(self, other) -> bool:
        return (isinstance(other, HessenbergSpace) and self.rs == other.rs
                and self.hm == other.hm)

    def __hash__(self) -> int:
        return hash((self.rs.lie_type, self.rs.rank, self.hm))

    def __repr__(self) -> str:
        return (f"HessenbergSpace({self.rs.lie_type}{self.rs.rank}, "
                f"neg={format_negative_part(self)!r})")


def _negated(rs: RootSystem, ideal: int) -> list[Root]:
    """−pos[p] for each bit p of ``ideal``, a mask over positive-root
    indices, in ascending p (so in ``rs.all_roots`` index order)."""
    neg = rs.negative_roots
    return [neg[p] for p in range(rs.num_positive) if ideal >> p & 1]


class ComplementIdeal(_Record):
    """The negative roots missing from a Hessenberg space.

    This set is downward closed (subtracting a positive root stays inside
    whenever the difference is a root) and corresponds to an ad-nilpotent
    ideal of the opposite Borel.
    """

    __slots__ = ("roots",)
    roots: frozenset[Root]


def from_negative_roots(rs: RootSystem, negatives: Iterable[Root]) -> HessenbergSpace:
    """Build the Hessenberg space with the given negative part.

    Raises ValueError if ``negatives`` is not iterable, if some element
    is not a negative root of ``rs`` (or not a Root at all) or if the
    lower-cover rule fails; the error names the offending pair.
    """
    npos = rs.num_positive
    texts = rs._texts
    try:
        negatives = iter(negatives)
    except TypeError:
        raise ValueError(f"negative roots {negatives!r} are not a sequence "
                         "of Roots") from None
    ideal = 0
    for beta in negatives:
        k = rs.root_index(beta)
        if k < npos:
            raise ValueError(f"{texts[k]} is not a negative root")
        ideal |= 1 << (k - npos)
    for p in range(npos):
        if ideal >> p & 1 and rs._covers[p] & ~ideal:
            # name the first simple root whose cover is missing
            i, d = next((i, d) for i, a in enumerate(rs._simple_index, 1)
                        if (d := rs._pos_diff[p][a]) is not None
                        and not ideal >> d & 1)
            beta = texts[npos + p]
            raise ValueError(f"closure violation: {beta} is in the space but "
                             f"{beta} + α_{i} = {texts[npos + d]} is not")
    return HessenbergSpace(rs, (1 << npos) - 1 | ideal << npos)


def borel_space(rs: RootSystem) -> HessenbergSpace:
    """The minimal Hessenberg space Φ_H = Φ⁺ (H is the Borel itself)."""
    return HessenbergSpace(rs, (1 << rs.num_positive) - 1)


def full_space(rs: RootSystem) -> HessenbergSpace:
    """The maximal Hessenberg space Φ_H = Φ (H is the whole Lie algebra)."""
    return HessenbergSpace(rs, (1 << len(rs.all_roots)) - 1)


# The number of ad-nilpotent ideals, so of Hessenberg spaces, by type.
_SPACE_COUNT = {"A": lambda n: comb(2 * n + 2, n + 1) // (n + 2),
                "B": lambda n: comb(2 * n, n),
                "C": lambda n: comb(2 * n, n),
                "D": lambda n: comb(2 * n, n) - comb(2 * n - 2, n - 1)}

# Most spaces enumerate_hessenberg builds: ``enumerate-hess`` on A10 (58,786
# spaces) takes about 2.4 s and 290 MB peak as a fresh process on a 2-vCPU
# Xeon (0.2 s of it enumerating); the next counts up (D10 136,136, B10 and
# C10 184,756, A11 208,012) would hold every space and its output in memory.
_SPACE_BUDGET = 60_000


def check_space_budget(lie_type: str, rank: int) -> int | None:
    """Return the number of Hessenberg spaces of the given type and rank,
    and raise ValueError when it is over _SPACE_BUDGET.

    Like ``check_weyl_budget`` it needs no RootSystem, and a type or rank
    that RootSystem refuses passes here (returning None) so that RootSystem
    names the problem.  A count over 10^18 is named as such, not computed.
    """
    if _refused_by_root_system(lie_type, rank):
        return None
    count = _bounded_count(_SPACE_COUNT[lie_type], lie_type, rank)
    if count is None or count > _SPACE_BUDGET:
        raise ValueError(f"{lie_type}{rank} has {_count_text(count)} "
                         f"Hessenberg spaces, over the budget of "
                         f"{_SPACE_BUDGET}")
    return count


def enumerate_hessenberg(rs: RootSystem) -> tuple[HessenbergSpace, ...]:
    """All Hessenberg spaces, ordered by size of the negative part and then
    lexicographically on the sorted index tuple of the negated roots.

    Positive-root indices follow height, so an ideal's largest index p is
    a maximal member: each ideal of size k+1 is exactly one ideal of size
    k plus a p above every member whose lower covers it holds.  Growing
    the size-k ideals in order, each by ascending p, builds size k+1 once
    and in order, with no set of seen ideals and no sort.  The result always
    starts with the Borel and ends with the full Lie algebra; it is cached
    on the root system.  Raises ValueError, before any work, when there are
    more than _SPACE_BUDGET spaces, and ConsistencyError when the count
    differs from the closed form for ad-nilpotent ideals.
    """
    if rs._spaces_cache is None:
        expected = check_space_budget(rs.lie_type, rs.rank)
        spaces = _build_hessenberg_spaces(rs)
        if len(spaces) != expected:
            raise ConsistencyError(
                f"Hessenberg enumeration of {rs.lie_type}{rs.rank} found "
                f"{len(spaces)} spaces, expected {expected}")
        rs._spaces_cache = spaces
    return rs._spaces_cache


def smallest_containing(rs: RootSystem, mask: int) -> int:
    """``hm`` of the smallest Hessenberg space whose root set contains every
    root of ``mask`` (a bitmask over ``rs.all_roots`` indices).

    Negative parts are order ideals, and order ideals are closed under
    intersection, so this space exists: Φ⁺ together with the down-sets of
    the negated negative roots in ``mask``, read off ``rs._below``.
    """
    npos = rs.num_positive
    below = rs._below
    ideal = 0
    neg = mask >> npos
    while neg:
        low = neg & -neg
        ideal |= below[low.bit_length() - 1]
        neg ^= low
    return (1 << npos) - 1 | ideal << npos


def _build_hessenberg_spaces(rs: RootSystem) -> tuple[HessenbergSpace, ...]:
    npos = rs.num_positive
    covers = rs._covers
    ideals, level = [0], [0]
    while level:
        level = [ideal | 1 << p for ideal in level
                 for p in range(ideal.bit_length(), npos)
                 if covers[p] & ideal == covers[p]]
        ideals += level
    borel = (1 << npos) - 1
    return tuple(HessenbergSpace(rs, borel | ideal << npos)
                 for ideal in ideals)


def from_function(n: int, h: Iterable[int]) -> HessenbergSpace:
    """The Hessenberg space of a Hessenberg function, in ambient type A_{n−1}.

    The function must be nondecreasing with ``i ≤ h(i) ≤ n``.  The negative
    root ``ε_i − ε_j`` (for ``i > j``) belongs to the space iff ``i ≤ h(j)``.
    """
    hs = _checked_function(n, h)
    rs = RootSystem("A", n - 1)
    return HessenbergSpace(rs, _function_mask(rs, hs))


def _checked_function(n: int, h: Iterable[int]) -> tuple[int, ...]:
    """h as a tuple, or ValueError when n is not an int, when h is not a
    Hessenberg function on {1..n}, n ≥ 2, or holds a value that is not an
    int (a float, a string or a bool is refused, not converted)."""
    if type(n) is not int:
        raise ValueError(f"n must be an integer, got {n!r}")
    try:
        hs = tuple(h)
    except TypeError:
        raise ValueError(f"h = {h!r} is not a sequence of integers") from None
    if len(hs) != n:
        raise ValueError(f"expected {n} values, got {len(hs)}")
    for i, v in enumerate(hs, start=1):
        if type(v) is not int:
            raise ValueError(f"h({i}) = {v!r} is not an integer")
        if v < i:
            raise ValueError(f"h({i}) = {v} < {i}")
        if v > n:
            raise ValueError(f"h({i}) = {v} > n = {n}")
    if any(hs[k] > hs[k + 1] for k in range(n - 1)):
        raise ValueError(f"h = {hs} is not nondecreasing")
    if n < 2:
        raise ValueError("need n >= 2 for a rank >= 1 ambient system")
    return hs


def _column_masks(rs: RootSystem) -> tuple[tuple[int, ...], ...]:
    """Entry j−1 is column j of a type-A_{n−1} matrix: for t = 0..n−j, the
    mask over ``rs.all_roots`` indices of its top t entries below the
    diagonal, the roots ``ε_i − ε_j`` with ``j < i ≤ j + t``.  Cached on
    the root system."""
    if rs._columns_cache is None:
        npos = rs.num_positive
        columns = []
        for j in range(rs.rank + 1):
            masks, p = [0], None
            for a in rs._simple_index[j:]:
                # ε_j − ε_i = α_j + … + α_{i−1}, one simple root at a time
                p = a if p is None else rs._pos_sum[p][a]
                masks.append(masks[-1] | 1 << (npos + p))
            columns.append(tuple(masks))
        rs._columns_cache = tuple(columns)
    return rs._columns_cache


def _function_mask(rs: RootSystem, hs: tuple[int, ...]) -> int:
    """Φ_H of a Hessenberg function as a mask over the roots of ``rs``, of
    type A_{n−1}: every positive root, and ``ε_i − ε_j`` for
    ``j < i ≤ h(j)``.  A nondecreasing h with ``h(i) ≥ i`` makes that set
    closed, so the mask needs no further check."""
    hm = (1 << rs.num_positive) - 1
    for j, (column, h) in enumerate(zip(_column_masks(rs), hs), start=1):
        hm |= column[h - j]
    return hm


def to_function(space: HessenbergSpace) -> tuple[int, ...]:
    """Read a type-A Hessenberg space back as a Hessenberg function."""
    rs = space.rs
    if rs.lie_type != "A":
        raise ValueError("Hessenberg functions only encode type-A spaces")
    hm = space.hm
    # Φ_H is closed, so the entries it holds in column j are the top h(j) − j
    return tuple(j + (hm & column[-1]).bit_count()
                 for j, column in enumerate(_column_masks(rs), start=1))


def complement_ideal(space: HessenbergSpace) -> ComplementIdeal:
    """The negative roots outside the space (an ad-nilpotent ideal of b⁻)."""
    rs = space.rs
    npos = rs.num_positive
    missing = ~(space.hm >> npos) & ((1 << npos) - 1)
    return ComplementIdeal(frozenset(_negated(rs, missing)))


# ---------------------------------------------------------------------------
# text encodings
# ---------------------------------------------------------------------------


def _negative_texts(space: HessenbergSpace) -> list[str]:
    """The root texts of the negative part, in ``rs.all_roots`` index
    order, read from the root system's table of texts."""
    rs = space.rs
    npos = rs.num_positive
    ideal = space.hm >> npos
    texts = rs._texts
    return [texts[npos + p] for p in range(npos) if ideal >> p & 1]


def format_negative_part(space: HessenbergSpace) -> str:
    """Semicolon-separated negative roots in root text format, in
    ``rs.all_roots`` index order."""
    return ";".join(_negative_texts(space))


def space_fields(space: HessenbergSpace) -> tuple[dict, str]:
    """The space as command output shows it: the JSON record
    ``{"neg": [root, ...]}`` and the CSV/table column ``neg=root;root``,
    which :func:`parse_hessenberg` reads back."""
    texts = _negative_texts(space)
    return {"neg": texts}, "neg=" + ";".join(texts)


def parse_hessenberg(rs: RootSystem, text: str) -> HessenbergSpace:
    """Parse the text form of a Hessenberg space.

    Accepted forms: ``full`` and ``borel`` for the two extremes,
    ``h=2,3,3`` for a type-A Hessenberg function, and
    ``neg=-1,0;0,-1`` for an explicit negative-root list (``neg=`` with
    nothing after it is the Borel).
    """
    if not isinstance(text, str):
        raise ValueError(f"malformed Hessenberg text {text!r}")
    text = text.strip()
    if text == "full":
        return full_space(rs)
    if text == "borel":
        return borel_space(rs)
    if text.startswith("h="):
        if rs.lie_type != "A":
            raise ValueError("h=... requires a type-A root system")
        try:
            values = [int(p) for p in text[2:].split(",")]
        except ValueError:
            raise ValueError(f"malformed Hessenberg text {text!r}") from None
        hs = _checked_function(rs.rank + 1, values)
        return HessenbergSpace(rs, _function_mask(rs, hs))
    if text.startswith("neg="):
        body = text[4:].strip()
        if not body:
            return borel_space(rs)
        roots = [parse_root(rs, part) for part in body.split(";")]
        return from_negative_roots(rs, roots)
    raise ValueError(f"malformed Hessenberg text {text!r}")
