"""Counting flags over tiny finite fields as an independent referee.

An affine paving with cells of dimensions d_i has exactly sum(q^{d_i})
points over F_q.  In type A the Hessenberg condition is a concrete linear
algebra statement about flags, so we can enumerate every flag of F_q^n in
Bruhat normal form, test the condition directly, and compare per-cell
counts with q^(predicted dimension).  Any combinatorial mistake upstream
would show up here as a mismatch (count_points raises on one).
"""

from hessenpave import RootSystem, count_points, enumerate_hessenberg
from hessenpave.hessenberg import to_function

print("n = 3, q = 2: all five staircase functions")
for h in [(1, 2, 3), (2, 2, 3), (1, 3, 3), (2, 3, 3), (3, 3, 3)]:
    report = count_points(3, 2, h)
    per_cell = {"".join(map(str, c.perm)): c.count for c in report.cells}
    print(f"  h={h}: total {report.total:2}  per cell {per_cell}")

print("\nn = 4, q = 2 and q = 3: totals for every Hessenberg function")
rs = RootSystem("A", 3)
for space in enumerate_hessenberg(rs):
    h = to_function(space)
    t2 = count_points(4, 2, h).total
    t3 = count_points(4, 3, h).total
    print(f"  h={h}: {t2:4} points over F_2, {t3:5} over F_3")
print("\n(the full flag variety of GL_4 has [4]_q! points: 315 and 2080)")
