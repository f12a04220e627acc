"""The paving: which Bruhat cells survive, and their dimensions.

For a regular nilpotent in the Borel, the Bruhat decomposition meets the
Hessenberg variety in affine cells.  A cell survives exactly when the
inverse Weyl element keeps every simple root inside the Hessenberg root
set, and its dimension can be computed two independent ways (inversion-set
counting vs the algebra intersection); Betti numbers just tally nonempty
cells by dimension, with all odd cohomology vanishing.
"""

from hessenpave import (
    RootSystem,
    cell_dimension,
    cell_dimension_lie,
    cell_nonempty,
    compute_paving,
    enumerate_hessenberg,
    enumerate_weyl,
    format_word,
    poincare_polynomial,
    row_dimension_profile,
)
from hessenpave.hessenberg import borel_space, parse_hessenberg, to_function

a2 = RootSystem("A", 2)
peterson = parse_hessenberg(a2, "h=2,3,3")
print("Peterson variety of A2, cell by cell:")
for cell in compute_paving(peterson):
    word = format_word(cell.w) or "(identity)"
    if cell.nonempty:
        profile = row_dimension_profile(cell.w, peterson)
        both = (cell_dimension(cell.w, peterson),
                cell_dimension_lie(cell.w, peterson))
        print(f"  {word:10} nonempty, dim {cell.dim} "
              f"(both formulas: {both}), per-row {profile}")
    else:
        print(f"  {word:10} empty")
print("Betti numbers:", list(poincare_polynomial(peterson).coefficients))

print("\nAll Hessenberg spaces of C2 and their Betti tables:")
c2 = RootSystem("C", 2)
for space in enumerate_hessenberg(c2):
    betti = poincare_polynomial(space)
    neg = len(space.negative_part)
    print(f"  |negative part|={neg}: betti={list(betti.coefficients)}"
          f"  (cells={betti.total})")

print("\nSpringer fiber sanity in D4: the Borel space has a single cell")
d4 = RootSystem("D", 4)
print("  betti:", list(poincare_polynomial(borel_space(d4)).coefficients))
print("  nonempty cells:",
      sum(1 for w in enumerate_weyl(d4) if cell_nonempty(w, borel_space(d4))))

print("\nType-A Betti tables for all 14 staircases of GL_4:")
a3 = RootSystem("A", 3)
for space in enumerate_hessenberg(a3):
    betti = poincare_polynomial(space)
    print(f"  h={to_function(space)}: {list(betti.coefficients)}")
