"""Executable verification of the structural facts behind the paving.

The dimension bookkeeping rests on a handful of Lie-algebra facts: rows
are abelian (Heisenberg in type C), the row-projected adjoint exponential
is affine except for one long-root coordinate, the row operator has its
first nonzero entries on simple-root differences, and the type-D paired
stages produce an invertible 3x3 block.  This script runs all of those as
exact checks, each decided for every N at once, and prints the reports.
"""

import json

from hessenpave import RootSystem, build_chevalley, verify_lemmata

for lie_type, rank in [("A", 3), ("B", 3), ("C", 3), ("D", 4)]:
    real = build_chevalley(RootSystem(lie_type, rank))
    report = verify_lemmata(real)
    print(f"{lie_type}{rank}: all checks pass = {report.passed}")
    for check in report.checks:
        print(f"   {check.name:26} {check.status}")

print("\nJSON form of the D4 report (as emitted by the CLI):")
real = build_chevalley(RootSystem("D", 4))
print(json.dumps(verify_lemmata(real).to_record(), indent=2)[:400], "...")
