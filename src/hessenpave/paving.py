"""The paving of a regular nilpotent Hessenberg variety by Bruhat cells.

Fix a Hessenberg space with root set ``Φ_H`` and take the nilpotent to be
the sum of simple root vectors (the cell data is the same for every
regular nilpotent in the Borel).  Intersecting the Hessenberg variety with
the Bruhat decomposition gives one cell per Weyl element ``w``:

* the cell is nonempty iff ``w⁻¹α_i ∈ Φ_H`` for every simple root;
* a nonempty cell is an affine space of dimension ``|Φ_w ∩ wΦ_H|``, where
  ``Φ_w`` is the inversion set of ``w``;
* the same dimension arises as the dimension of ``b ∩ Ad w(b⁻ ∩ H)``
  minus the rank, which at root level counts the negative roots of Φ_H
  sent positive by ``w`` — computed here independently as a cross-check;
* the dimension splits across the rows of the positive-root decomposition
  (stage pairs in type D), matching the kernel dimensions of the
  constructive solver in :mod:`hessenpave.liealg`.

Ordering the cells by length gives a paving by affines, so the Betti
numbers of the variety simply count nonempty cells by dimension and the
odd cohomology vanishes.

The kernel works on integer bitmasks over the indices of ``rs.all_roots``:
``space.hm`` is Φ_H (the only form in which a space is stored), ``w.sm``
holds ``w⁻¹(simple roots)`` and ``w.im`` holds ``w⁻¹(Φ_w)``, both stored
on the element.  A cell is nonempty iff ``sm & hm == sm`` and its
dimension is ``(im & hm).bit_count()``; the Lie-algebra formula counts the
negative bits of ``hm`` that ``w``, applied through its word's simple
reflections, sends to positive roots.  A row profile entry ANDs
``w.inversion_mask()``, and the positive roots outside ``wΦ_H``
(``_outside_mask``, read off ``w.im``), with the variable and constraint
masks of one stage of ``stage_table``: one formula for every type, since
the type-D pairing lives in the table.
No function here turns ``hm`` back into ``Root`` objects.  ``compute_paving`` tests
each cell once, and ``cell_dimension`` and ``row_dimension_profile`` refuse
an empty cell with the same one-AND test rather than a second call of
``cell_nonempty``.  ``paving_record`` requires each printed row profile to
sum to its cell's dimension.

Every Betti tally must also equal ``betti_product``, the closed form
∏_{i=1..rank} [e_i + 1]_q (Sommers–Tymoczko; Abe–Horiguchi–Masuda–Murai–
Sato): with λ_k the number of roots of I = −(Φ_H ∩ Φ⁻) at height k,
e_i = #{k : λ_k ≥ i}.  In type A the exponents must also be the column
lengths h(j) − j of the Hessenberg function, read off the stage-table
rows, so the tally is ∏_j [h(j) − j + 1]_q too.
"""

from __future__ import annotations

from .errors import ConsistencyError, expect
from .hessenberg import HessenbergSpace, space_fields, to_function
from .rootcore import (
    WeylElement,
    _Record,
    enumerate_weyl,
    format_word,
    stage_table,
)


class PavingCell(_Record):
    """One Bruhat cell of the paving: empty, or affine of dimension dim."""

    __slots__ = ("w", "nonempty", "dim")

    def __init__(self, w: WeylElement, nonempty: bool, dim: int | None):
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "nonempty", nonempty)
        object.__setattr__(self, "dim", dim)

    @property
    def length(self) -> int:
        return self.w.length


class BettiTable(_Record):
    """Nonempty-cell counts by dimension; entry k is the 2k-th Betti number."""

    __slots__ = ("coefficients",)
    coefficients: tuple[int, ...]

    def evaluate(self, q: int) -> int:
        """The Poincaré polynomial at q — the point count over F_q."""
        return sum(b * q ** k for k, b in enumerate(self.coefficients))

    @property
    def total(self) -> int:
        return sum(self.coefficients)


def _check_compatible(w: WeylElement, space: HessenbergSpace) -> None:
    """Refuse a w that is not a WeylElement, a space that is not a
    HessenbergSpace (before any attribute is read, in O(1)) and a pair from
    different root systems, with ValueError."""
    if type(w) is not WeylElement:            # inline: once per cell
        expect(w, WeylElement)
    if type(space) is not HessenbergSpace:
        expect(space, HessenbergSpace)
    if w.rs is not space.rs and w.rs != space.rs:
        raise ValueError("Weyl element and Hessenberg space live in "
                         "different root systems")


def cell_nonempty(w: WeylElement, space: HessenbergSpace) -> bool:
    """Whether the cell of w meets the Hessenberg variety: w⁻¹α_i ∈ Φ_H for
    every simple root α_i (equivalently, the translated sum of simple root
    vectors lies in H)."""
    _check_compatible(w, space)
    sm = w.sm
    return sm & space.hm == sm


def cell_dimension(w: WeylElement, space: HessenbergSpace) -> int:
    """Dimension of a nonempty cell: the number of inversions of w that w⁻¹
    keeps inside Φ_H."""
    _check_compatible(w, space)
    hm = space.hm
    if w.sm & hm != w.sm:
        raise ValueError("cell is empty; it has no dimension")
    return (w.im & hm).bit_count()


def cell_dimension_lie(w: WeylElement, space: HessenbergSpace) -> int:
    """The same dimension via the Lie-algebra intersection formula: count
    the negative roots of Φ_H sent positive by w (the Cartan contributes
    exactly the rank, which the formula subtracts).  w acts through its
    word, not the inverse permutation and masks ``cell_dimension`` reads."""
    _check_compatible(w, space)
    if w.sm & space.hm != w.sm:
        raise ValueError("cell is empty; it has no dimension")
    npos = w.rs.num_positive
    images = [k for k in range(npos, 2 * npos) if space.hm >> k & 1]
    for i in reversed(w.word):
        images = [w.rs._reflections[i - 1][k] for k in images]
    return sum(1 for k in images if k < npos)


def row_dimension_profile(w: WeylElement, space: HessenbergSpace) -> tuple[int, ...]:
    """Per-stage dimensions of a nonempty cell.

    Entry k is the variable count ``|Φ_w ∩ V_k|`` minus the constraint
    count ``|C_k ∖ wΦ_H|``, with ``V_k`` and ``C_k`` the variables and
    constraints of stage k in ``rootcore.stage_table``.  In types A, B, C
    both are row k+1, and the entry is ``|Φ_w ∩ Φ_{k+1} ∩ wΦ_H|``: Φ⁺ lies
    in Φ_H, so every positive root outside wΦ_H is an inversion.  In type
    D stage k pairs the plain part of row k with the fork-bearing parts of
    row k+1.  Entries always sum to the cell dimension.
    """
    _check_compatible(w, space)
    hm = space.hm
    if w.sm & hm != w.sm:
        raise ValueError("cell is empty; it has no profile")
    phi_w, outside = w.inversion_mask(), _outside_mask(w, hm)
    return tuple((phi_w & vm).bit_count() - (outside & cm).bit_count()
                 for vm, cm in stage_table(w.rs).masks)


def _outside_mask(w: WeylElement, hm: int) -> int:
    """The positive roots outside wΦ_H, the α with w⁻¹α ∉ Φ_H for ``hm``
    the mask of Φ_H, as a mask over positive-root indices.  This is the
    one place they are computed: row profiles, witnesses and the
    containment check read it.

    Φ⁺ ⊆ Φ_H, so w⁻¹α ∉ Φ_H makes w⁻¹α negative: every such α is an
    inversion of w, and w⁻¹α is a bit of ``w.im``.  So the roots are the
    bits of ``w.im & ~hm``, each mapped back to α through the inverse
    permutation, with no pass over the positive roots."""
    index = w.inverse_root_permutation().index
    out = 0
    bits = w.im & ~hm
    while bits:
        low = bits & -bits
        out |= 1 << index(low.bit_length() - 1)
        bits ^= low
    return out


def compute_paving(space: HessenbergSpace) -> tuple[PavingCell, ...]:
    """One cell per Weyl element of ``space.rs``, in paving order (length,
    then word)."""
    expect(space, HessenbergSpace)
    cells = []
    for w in enumerate_weyl(space.rs):
        if cell_nonempty(w, space):
            cells.append(PavingCell(w, True, cell_dimension(w, space)))
        else:
            cells.append(PavingCell(w, False, None))
    return tuple(cells)


def _betti_tally(space: HessenbergSpace, dims: list[int]) -> tuple[int, ...]:
    """Entry k counts the nonempty cells of dimension k; raises
    ConsistencyError, naming the system and space, when the tally differs
    from ``betti_product``.  In type A the exponents must also be the
    column lengths h(j) − j of ``to_function``, so that the tally is
    ∏_j [h(j) − j + 1]_q as well (Mbirika; Anderson–Tymoczko), read off
    the stage-table rows rather than the heights."""
    rs = space.rs
    coeffs = [0] * (max(dims) + 1)
    for d in dims:
        coeffs[d] += 1
    product = betti_product(space).coefficients
    fault = None
    if tuple(coeffs) != product:
        fault = (f"cell Betti numbers {coeffs} differ from the closed-form "
                 f"product {list(product)}")
    elif rs.lie_type == "A":
        hs = to_function(space)
        lengths = sorted(h - j for j, h in enumerate(hs[:-1], start=1))
        exponents = sorted(_exponents(space))
        if exponents != lengths:
            fault = (f"exponents {exponents} differ from the column lengths "
                     f"{lengths} of h = {','.join(map(str, hs))}")
    if fault:
        raise ConsistencyError(f"{fault} ({rs.lie_type}{rs.rank}, "
                               f"{space_fields(space)[1]})")
    return product


def _exponents(space: HessenbergSpace) -> tuple[int, ...]:
    """e_1..e_rank: e_i = #{k : λ_k ≥ i}, λ_k the roots of I at height k."""
    ideal = space.hm >> space.rs.num_positive   # bit k: −(root k) ∈ Φ_H
    lam = [(ideal & m).bit_count() for m in space.rs._heights]
    return tuple(sum(1 for x in lam if x >= i)
                 for i in range(1, space.rs.rank + 1))


def betti_product(space: HessenbergSpace) -> BettiTable:
    """The Betti numbers in closed form, ∏_{i=1..rank} [e_i + 1]_q."""
    expect(space, HessenbergSpace)
    coeffs = [1]
    for e in _exponents(space):
        # times 1 + q + ... + q^e
        coeffs = [sum(coeffs[max(0, d - e):d + 1])
                  for d in range(len(coeffs) + e)]
    return BettiTable(tuple(coeffs))


def poincare_polynomial(space: HessenbergSpace) -> BettiTable:
    """Betti numbers: entry k counts nonempty cells of dimension k.  Raises
    ConsistencyError when they differ from ``betti_product``."""
    return BettiTable(_betti_tally(
        space, [c.dim for c in compute_paving(space) if c.nonempty]))


def paving_record(space: HessenbergSpace) -> dict:
    """JSON-ready record of a full paving (deterministic key and cell order).

    Raises ConsistencyError when a nonempty cell's row profile does not sum
    to its dimension (the message names the system, space and word), or
    when the Betti numbers differ from ``betti_product``.
    """
    expect(space, HessenbergSpace)
    rs = space.rs
    cells = []
    dims = []
    for cell in compute_paving(space):
        profile = None
        if cell.nonempty:
            dims.append(cell.dim)
            profile = list(row_dimension_profile(cell.w, space))
            if sum(profile) != cell.dim:
                raise ConsistencyError(
                    f"row profile {profile} sums to {sum(profile)}, not the "
                    f"cell dimension {cell.dim} ({rs.lie_type}{rs.rank}, "
                    f"{space_fields(space)[1]}, word '{format_word(cell.w)}')")
        cells.append({
            "word": format_word(cell.w),
            "length": cell.length,
            "nonempty": cell.nonempty,
            "dim": cell.dim,
            "row_profile": profile,
        })
    return {
        "type": rs.lie_type,
        "rank": rs.rank,
        "hessenberg": space_fields(space)[0],
        "cells": cells,
        "betti": list(_betti_tally(space, dims)),
    }
