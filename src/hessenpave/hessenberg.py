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
the diagonal in column ``j`` reach down to row ``h(j)``.  Column j holds
the negated roots of row j of ``rootcore.stage_table``, so
:func:`to_function` counts the ideal's bits in each row's mask, and
:func:`from_function` builds the space by the same closure rule as any
other, as the smallest one holding each column's lowest allowed entry.
"""

from __future__ import annotations

from collections.abc import Iterable

from .errors import ConsistencyError, expect
from .rootcore import (
    Root,
    RootSystem,
    _span_root,
    check_budget,
    parse_root,
    stage_table,
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
        ideal = self.hm >> rs.num_positive
        return frozenset(r for p, r in enumerate(rs.negative_roots)
                         if ideal >> p & 1)

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


def from_negative_roots(rs: RootSystem, negatives: Iterable[Root]) -> HessenbergSpace:
    """Build the Hessenberg space with the given negative part.

    Raises ValueError if ``negatives`` is not iterable, if some element
    is not a negative root of ``rs`` (or not a Root at all) or if the
    lower-cover rule fails; the error names the offending pair.
    """
    expect(rs, RootSystem)
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


def enumerate_hessenberg(rs: RootSystem) -> tuple[HessenbergSpace, ...]:
    """All Hessenberg spaces, ordered by size of the negative part and then
    lexicographically on the sorted index tuple of the negated roots.

    Positive-root indices follow height, so an ideal's largest index p is
    a maximal member: each ideal of size k+1 is exactly one ideal of size
    k plus a p above every member whose lower covers it holds.  Growing
    the size-k ideals in order, each by ascending p, builds size k+1 once
    and in order, with no set of seen ideals and no sort.  The result always
    starts with the Borel and ends with the full Lie algebra; it is cached
    on the root system.  Raises ValueError, before any work, when the count
    is over the "spaces" budget of ``check_budget``, and ConsistencyError
    when the count found differs from the budget's closed form for
    ad-nilpotent ideals.
    """
    expect(rs, RootSystem)
    if rs._spaces_cache is None:
        expected = check_budget("spaces", rs.lie_type, rs.rank)
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
    expect(n, int, "n")
    try:
        hs = tuple(h)
    except TypeError:
        raise ValueError(f"h = {h!r} is not a sequence of integers") from None
    for i, v in enumerate(hs, start=1):
        if type(v) is not int:
            raise ValueError(f"h({i}) = {v!r} is not an integer")
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
    return hs


def _function_mask(rs: RootSystem, hs: tuple[int, ...]) -> int:
    """Φ_H of a Hessenberg function as a mask over the roots of ``rs``, of
    type A_{n−1}: every positive root, and ``ε_i − ε_j`` for
    ``j < i ≤ h(j)``.  That is the smallest space holding each column's
    lowest allowed entry ``−(ε_j − ε_{h(j)})``, the negated sum
    ``α_j + … + α_{h(j)−1}``.  The down-set of that sum is every
    ``α_k + … + α_l`` with ``j ≤ k ≤ l < h(j)``, the entries ``(l+1, k)``
    with ``l+1 ≤ h(j) ≤ h(k)``, all allowed because h is nondecreasing;
    and every allowed entry of column k lies below column k's own
    lowest one, so the down-sets hold nothing else."""
    npos = rs.num_positive
    return smallest_containing(rs, sum(
        1 << (npos + _span_root(rs, (j, h - 1)))
        for j, h in enumerate(hs, start=1) if h > j))


def to_function(space: HessenbergSpace) -> tuple[int, ...]:
    """Read a type-A Hessenberg space back as a Hessenberg function.

    Column j below the diagonal holds the roots ``−(ε_j − ε_i)``, i > j,
    the negated row j of ``stage_table`` (type-A stage j−1 is row j on
    both sides); Φ_H is closed, so the ones it holds are the top
    h(j) − j."""
    expect(space, HessenbergSpace)
    rs = space.rs
    if rs.lie_type != "A":
        raise ValueError("Hessenberg functions only encode type-A spaces")
    ideal = space.hm >> rs.num_positive
    return tuple(j + (ideal & row).bit_count()
                 for j, (row, _) in enumerate(stage_table(rs).masks, start=1)
                 ) + (rs.rank + 1,)


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
