"""Constructive witnesses: an explicit point in every nonempty cell.

Nonemptiness of a paving cell is a combinatorial criterion; this script
goes further and solves, row stage by row stage over the rationals, for a
unipotent group element conjugating the regular nilpotent into the
translated Hessenberg space.  Each stage is an affine solve (plus one
quadratic long-root coordinate in type C), the free parameters are pinned
to zero, and the result is re-verified by direct matrix conjugation.  The
per-stage solution-space dimensions reproduce the cell's row profile.
"""

from fractions import Fraction

from hessenpave import (
    RootSystem,
    build_chevalley,
    enumerate_hessenberg,
    enumerate_weyl,
    find_witness,
    format_word,
    cell_nonempty,
    row_dimension_profile,
)
from hessenpave.hessenberg import parse_hessenberg

c2 = RootSystem("C", 2)
real = build_chevalley(c2)
space = parse_hessenberg(c2, "neg=0,-1")
print("C2, Hessenberg space with negative part {-alpha2}:")
for w in enumerate_weyl(c2):
    if not cell_nonempty(w, space):
        print(f"  {format_word(w) or '(identity)':8} empty")
        continue
    wit = find_witness(real, w, space)
    pos = c2.positive_roots
    sol = [{str(pos[p]): str(v) for p, v in sorted(s.items())}
           for s in wit.stage_solutions]
    print(f"  {format_word(w) or '(identity)':8} dims {wit.stage_kernel_dims} "
          f"= profile {row_dimension_profile(w, space)}  stages {sol}")

print("\nA witness with a genuinely rational solution, off the default "
      "nilpotent (C2, full space, longest element):")
# N maps positive-root indices to coefficients: 3/2 on alpha1, -2 on alpha2
a1, a2 = (c2.root_index(a) for a in c2.simple_roots)
n = {a1: Fraction(3, 2), a2: -2}
w0 = enumerate_weyl(c2)[-1]
wit = find_witness(real, w0, parse_hessenberg(c2, "full"), n)
print("  stage dims:", wit.stage_kernel_dims, " verified:", wit.verified)

print("\nD4 spot check: every nonempty cell of one mid-sized space")
d4 = RootSystem("D", 4)
real_d = build_chevalley(d4)
space = enumerate_hessenberg(d4)[17]
count = 0
for w in enumerate_weyl(d4):
    if cell_nonempty(w, space):
        wit = find_witness(real_d, w, space)
        assert wit.verified
        count += 1
print(f"  verified witnesses: {count}")
