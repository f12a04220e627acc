"""Exact-arithmetic pavings of regular nilpotent Hessenberg varieties in
classical Lie types.

The package computes, over the integers and rationals with no floating
point anywhere:

* classical root systems, Weyl groups, and the row decomposition of the
  positive roots (``rootcore``);
* Hessenberg spaces as root subsets closed under adding positive roots
  (``hessenberg``);
* the paving of a regular nilpotent Hessenberg variety by Bruhat cells —
  nonemptiness, dimensions by two independent formulas, per-row dimension
  profiles, and Betti numbers (``paving``);
* explicit matrix realizations of the classical Lie algebras,
  computational verification of the supporting structural lemmata, and
  constructive witness points for every nonempty cell (``liealg``);
* an independent type-A oracle that counts flags over small prime fields
  and compares point counts against the predicted cell dimensions
  (``fforacle``).

A command-line interface (``hessenpave``) exposes all of it with
machine-readable JSON/CSV output; see the README for usage.
"""

from .errors import ConsistencyError
from .rootcore import (
    Root,
    RootSystem,
    WeylElement,
    apply,
    dominance_leq,
    enumerate_weyl,
    format_root,
    format_word,
    inversion_set,
    parse_root,
    parse_word,
    simple_reflection,
)
from .hessenberg import (
    HessenbergSpace,
    enumerate_hessenberg,
    from_function,
    from_negative_roots,
    to_function,
)
from .paving import (
    BettiTable,
    PavingCell,
    cell_dimension,
    cell_dimension_lie,
    cell_nonempty,
    compute_paving,
    poincare_polynomial,
    row_dimension_profile,
)
from .liealg import (
    ChevalleyRealization,
    WitnessResult,
    build_chevalley,
    find_witness,
    verify_lemmata,
)
from .fforacle import (
    count_points,
    hessenberg_check,
)

__version__ = "0.1.0"

__all__ = [
    "BettiTable", "ChevalleyRealization", "ConsistencyError",
    "HessenbergSpace", "PavingCell", "Root", "RootSystem", "WeylElement",
    "WitnessResult", "apply", "build_chevalley", "cell_dimension",
    "cell_dimension_lie", "cell_nonempty", "compute_paving", "count_points",
    "dominance_leq", "enumerate_hessenberg", "enumerate_weyl",
    "find_witness", "format_root", "format_word", "from_function",
    "from_negative_roots", "hessenberg_check", "inversion_set", "parse_root",
    "parse_word", "poincare_polynomial", "row_dimension_profile",
    "simple_reflection", "to_function", "verify_lemmata",
]
