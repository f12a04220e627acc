"""Hessenberg spaces: root-set encodings and their enumeration.

A Hessenberg space contains the Borel and is closed under bracketing with
it; as a root set that means all positive roots plus a negative part that
is closed under adding simple roots.  In type A these match the classical
staircase functions h; in every type they form a lattice, enumerated here
as order ideals of the positive-root poset.
"""

from hessenpave import (
    RootSystem,
    enumerate_hessenberg,
    from_function,
    from_negative_roots,
    to_function,
)
from hessenpave.hessenberg import format_negative_part

print("Type A3 (GL_4): every space is a staircase function")
rs = RootSystem("A", 3)
for space in enumerate_hessenberg(rs):
    print(f"  h={to_function(space)}  negatives: "
          f"{format_negative_part(space) or '(none: the Borel)'}")

print("\nThe Peterson space of A2 from its function and from its roots:")
pet = from_function(3, (2, 3, 3))
same = from_negative_roots(pet.rs, pet.negative_part)
print("  equal encodings:", pet == same,
      "| complement ideal:",
      ", ".join(str(r) for r in pet.rs.negative_roots
                if r not in pet.negative_part))

print("\nClosure rejects a non-space: {-alpha1-alpha2} alone")
try:
    from_negative_roots(pet.rs, [pet.rs.root((-1, -1))])
except ValueError as exc:
    print("  rejected:", exc)

print("\nCounts across types (generalized Catalan numbers):")
for lie_type, rank in [("A", 4), ("B", 4), ("C", 4), ("D", 4)]:
    n = len(enumerate_hessenberg(RootSystem(lie_type, rank)))
    print(f"  {lie_type}{rank}: {n} Hessenberg spaces")
