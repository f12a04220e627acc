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
``space.hm`` holds Φ_H, ``w.sm`` holds ``w⁻¹(simple roots)`` and ``w.im``
holds ``w⁻¹(Φ_w)``, the last two built on first use.  A cell is nonempty iff
``sm & hm == sm`` and its dimension is ``(im & hm).bit_count()``; row
profiles intersect per-row masks of the positive roots.  ``compute_paving``
tests each cell once, and ``cell_dimension`` and ``row_dimension_profile``
refuse an empty cell with the same one-AND test rather than a second call
of ``cell_nonempty``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .hessenberg import HessenbergSpace, space_fields
from .rootcore import (
    RootSystem,
    WeylElement,
    enumerate_weyl,
    format_word,
    rows,
    type_d_stage_sets,
)


@dataclass(frozen=True)
class PavingCell:
    """One Bruhat cell of the paving: empty, or affine of dimension dim."""

    w: WeylElement
    nonempty: bool
    dim: Optional[int]

    @property
    def length(self) -> int:
        return self.w.length


@dataclass(frozen=True)
class BettiTable:
    """Nonempty-cell counts by dimension; entry k is the 2k-th Betti number."""

    coefficients: tuple[int, ...]

    def evaluate(self, q: int) -> int:
        """The Poincaré polynomial at q — the point count over F_q."""
        return sum(b * q ** k for k, b in enumerate(self.coefficients))

    @property
    def total(self) -> int:
        return sum(self.coefficients)


def _check_compatible(w: WeylElement, space: HessenbergSpace) -> None:
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
    exactly the rank, which the formula subtracts)."""
    _check_compatible(w, space)
    if w.sm & space.hm != w.sm:
        raise ValueError("cell is empty; it has no dimension")
    rs = w.rs
    perm = w.root_permutation()
    npos = rs.num_positive
    return sum(
        1 for beta in space.negative_part if perm[rs.root_index(beta)] < npos
    )


@lru_cache(maxsize=None)
def _profile_masks(rs: RootSystem) -> tuple:
    """Positive-root bitmasks of each row (types A, B, C), or of each
    stage's (variable roots, constraint roots) pair (type D)."""
    def mask(roots) -> int:
        return sum(1 << rs.root_index(r) for r in roots)

    if rs.lie_type != "D":
        return tuple(mask(row) for row in rows(rs).rows)
    return tuple((mask(dom), mask(cod)) for dom, cod in type_d_stage_sets(rs))


def row_dimension_profile(w: WeylElement, space: HessenbergSpace) -> tuple[int, ...]:
    """Per-stage dimensions of a nonempty cell.

    In types A, B, C entry ``i−1`` is ``|Φ_w ∩ Φ_i ∩ wΦ_H|`` for row i.  In
    type D stage ``i`` (0-based) pairs the plain part of row i with the
    fork-bearing parts of row i+1, and its entry is the variable count
    ``|Φ_w ∩ (Φ_i^0 ∪ Φ_{i+1}^1 ∪ Φ_{i+1}^2)|`` minus the constraint count
    ``|(Φ_i^0 ∪ Φ_i^1 ∪ Φ_{i+1}^2) ∩ wΦ_H^c|``.  Entries always sum to the
    cell dimension.
    """
    _check_compatible(w, space)
    hm = space.hm
    if w.sm & hm != w.sm:
        raise ValueError("cell is empty; it has no profile")
    rs = w.rs
    inv = w.inverse_root_permutation()

    if rs.lie_type != "D":
        # Φ_w ∩ wΦ_H as a mask over positive-root indices
        kept = sum(1 << p for p in w.inversion_indices() if hm >> inv[p] & 1)
        return tuple((kept & row).bit_count() for row in _profile_masks(rs))

    inversions = sum(1 << p for p in w.inversion_indices())
    # positive roots outside wΦ_H
    outside = sum(1 << p for p in range(rs.num_positive)
                  if not hm >> inv[p] & 1)
    return tuple((inversions & dom).bit_count() - (outside & cod).bit_count()
                 for dom, cod in _profile_masks(rs))


def compute_paving(rs: RootSystem, space: HessenbergSpace) -> tuple[PavingCell, ...]:
    """One cell per Weyl element, in paving order (length, then word)."""
    if rs != space.rs:
        raise ValueError("Hessenberg space belongs to a different root system")
    cells = []
    for w in enumerate_weyl(rs):
        if cell_nonempty(w, space):
            cells.append(PavingCell(w, True, cell_dimension(w, space)))
        else:
            cells.append(PavingCell(w, False, None))
    return tuple(cells)


def _betti_tally(dims: list[int]) -> tuple[int, ...]:
    """Entry k counts the nonempty cells of dimension k."""
    coeffs = [0] * (max(dims) + 1)
    for d in dims:
        coeffs[d] += 1
    return tuple(coeffs)


def poincare_polynomial(rs: RootSystem, space: HessenbergSpace) -> BettiTable:
    """Betti numbers: entry k counts nonempty cells of dimension k."""
    return BettiTable(_betti_tally(
        [c.dim for c in compute_paving(rs, space) if c.nonempty]))


def paving_record(rs: RootSystem, space: HessenbergSpace) -> dict:
    """JSON-ready record of a full paving (deterministic key and cell order)."""
    cells = []
    dims = []
    for cell in compute_paving(rs, space):
        if cell.nonempty:
            dims.append(cell.dim)
        cells.append({
            "word": format_word(cell.w),
            "length": cell.length,
            "nonempty": cell.nonempty,
            "dim": cell.dim,
            "row_profile": (list(row_dimension_profile(cell.w, space))
                            if cell.nonempty else None),
        })
    return {
        "type": rs.lie_type,
        "rank": rs.rank,
        "hessenberg": space_fields(space)[0],
        "cells": cells,
        "betti": list(_betti_tally(dims)),
    }
