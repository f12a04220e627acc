"""Tour of the combinatorial bedrock: roots, Weyl groups, rows.

Every computation in the package starts from a classical root system with
a fixed simple-root labelling (the doubled edge of B/C at the high index,
the D fork at the last two indices).  This script builds a few systems,
shows the dominance order and reflection action, and prints the row
decomposition whose abelian/Heisenberg structure drives everything else.
"""

from hessenpave import (
    RootSystem,
    apply,
    dominance_leq,
    enumerate_weyl,
    format_root,
    format_word,
    inversion_set,
    simple_reflection,
)
from hessenpave.rootcore import stage_table

for lie_type, rank in [("A", 2), ("B", 2), ("C", 2), ("D", 4)]:
    rs = RootSystem(lie_type, rank)
    print(f"== {lie_type}{rank}: {rs.num_positive} positive roots ==")
    print("  positives:", ", ".join(format_root(r) for r in rs.positive_roots))

    table = stage_table(rs)

    def texts(indices):
        return sorted(format_root(rs.positive_roots[k]) for k in indices)

    for i, (row, long_root) in enumerate(zip(table.rows, table.long_roots),
                                         start=1):
        members = ", ".join(texts(row)) or "(empty)"
        extra = ""
        if long_root is not None:
            extra = (f"   [Heisenberg, long root "
                     f"{rs.positive_roots[long_root]}]")
        print(f"  row {i}: {members}{extra}")
    if lie_type == "D":
        variables, constraints = table.stages[0]
        print("  stage 0 solves for", texts(variables), "against",
              texts(constraints))
    print()

a2 = RootSystem("A", 2)
s1 = simple_reflection(a2, 1)
print("s1 acts on A2 simples:",
      format_root(apply(s1, a2.simple_roots[0])), "and",
      format_root(apply(s1, a2.simple_roots[1])))
theta = a2.root((1, 1))
print("dominance: alpha1 <= alpha1+alpha2 ?",
      dominance_leq(a2, a2.simple_roots[0], theta))

print("\nWeyl group of B2, by length with inversion sets:")
for w in enumerate_weyl(RootSystem("B", 2)):
    inv = ", ".join(sorted(format_root(r) for r in inversion_set(w)))
    print(f"  word={format_word(w) or '(identity)':8}  length={w.length}  "
          f"inversions: {inv or '(none)'}")
