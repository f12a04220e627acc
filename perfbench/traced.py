"""Run one ``hessenpave`` command with every layer timed from outside.

Usage: ``python perfbench/traced.py TRACE_FILE ARG...`` runs
``hessenpave.cli.main([ARG...])`` exactly as ``python -m hessenpave.cli``
would, so stdout and the exit code are unchanged.  Before it does, it
replaces each function in ``TARGETS`` by a timing wrapper, in every
``hessenpave`` module namespace that binds it: the modules import each
other's functions by name (``from .paving import cell_nonempty``), so
patching only the defining module would miss those calls.
``verify_lemmata`` looks its ``_check_*`` functions up at call time, so
patching ``liealg`` reaches them.

Every wrapped call is charged to its metric name as a call count and a self
time (its duration minus that of the wrapped calls made inside it), so the
self times of one command add up to the ``cli.main`` span, less the time
the tracer spends tallying results.  No per-call
records are kept: the hot leaves run up to about 10^6 times.  At exit the
launcher writes one JSON object to TRACE_FILE:

``{"t_main": ..., "main_s": ..., "names": {name: [calls, self_s]},
"weyl_elements": ..., "spaces": ..., "cells": ..., "nonempty_cells": ...,
"flags_passing": ...}``

``t_main`` reads CLOCK_MONOTONIC, which all processes on the host share, so
the caller can subtract its own spawn time from it.
"""

import json
import sys
import time

import hessenpave.cli  # imports every library module

# (module, attribute, metric name).  Several helpers may share a name.
TARGETS = [
    ("rootcore", "enumerate_weyl", "rootcore.enumerate_weyl"),
    ("rootcore", "parse_word", "rootcore.parse_word"),
    ("hessenberg", "enumerate_hessenberg", "hessenberg.enumerate_hessenberg"),
    ("hessenberg", "parse_hessenberg", "hessenberg.parse_hessenberg"),
    ("paving", "compute_paving", "paving.compute_paving"),
    ("paving", "paving_record", "paving.paving_record"),
    ("paving", "poincare_polynomial", "paving.poincare_polynomial"),
    ("paving", "cell_nonempty", "paving.cell_nonempty"),
    ("paving", "cell_dimension", "paving.cell_dimension"),
    ("paving", "row_dimension_profile", "paving.row_dimension_profile"),
    ("liealg", "build_chevalley", "liealg.build_chevalley"),
    ("liealg", "verify_lemmata", "liealg.verify_lemmata"),
    ("liealg", "_check_row_structure", "liealg.check.row_structure"),
    ("liealg", "_check_factorization_count",
     "liealg.check.factorization_count"),
    ("liealg", "_check_near_linearity", "liealg.check.near_linearity"),
    ("liealg", "_check_psi_invariance", "liealg.check.psi_invariance"),
    ("liealg", "_check_type_d_coefficients",
     "liealg.check.type_d_coefficients"),
    ("liealg", "_check_containment", "liealg.check.containment_first_entry"),
    ("liealg", "_check_type_d_block", "liealg.check.type_d_block"),
    ("liealg", "find_witness", "liealg.find_witness"),
    ("linalg", "solve_affine", "linalg.solve_affine"),
    ("linalg", "sp_mul", "linalg.sp_mul"),
    ("fforacle", "count_points", "fforacle.count_points"),
    ("fforacle", "hessenberg_check", "fforacle.hessenberg_check"),
    ("cli", "main", "cli.main"),
    ("cli", "_json_text", "cli.render"),
    ("cli", "_csv_text", "cli.render"),
    ("cli", "_table_text", "cli.render"),
    ("cli", "_emit", "cli.emit"),
]

_names: dict[str, list] = {}
_stack = [0.0]           # child time accumulated by each open call
_seen_results: dict[int, object] = {}
_work = {"weyl_elements": 0, "spaces": 0, "cells": 0, "nonempty_cells": 0,
         "flags_passing": 0}


def _first_time(result) -> bool:
    """Whether a cached tuple is returned for the first time, i.e. built."""
    if id(result) in _seen_results:
        return False
    _seen_results[id(result)] = result     # pin it so the id stays unique
    return True


def _wrap(fn, name):
    acc = _names.setdefault(name, [0, 0.0])
    clock = time.perf_counter
    stack = _stack

    def wrapper(*args, **kwargs):
        stack.append(0.0)
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = clock() - t0
            acc[0] += 1
            acc[1] += elapsed - stack.pop()
            stack[-1] += elapsed

    return wrapper


def _count_results(wrapper, tally):
    """Wrap again to tally the result.  The tally's time is charged to no
    name, so it shows up as unaccounted time instead of inflating the
    caller's self time."""
    clock = time.perf_counter
    stack = _stack

    def counted(*args, **kwargs):
        result = wrapper(*args, **kwargs)
        t0 = clock()
        tally(result)
        stack[-1] += clock() - t0
        return result

    return counted


def _tally_weyl(result):
    if _first_time(result):
        _work["weyl_elements"] += len(result)


def _tally_spaces(result):
    if _first_time(result):
        _work["spaces"] += len(result)


def _tally_cells(result):
    _work["cells"] += len(result)
    _work["nonempty_cells"] += sum(1 for c in result if c.nonempty)


def _tally_flags(result):
    _work["flags_passing"] += bool(result)


_TALLIES = {
    "rootcore.enumerate_weyl": _tally_weyl,
    "hessenberg.enumerate_hessenberg": _tally_spaces,
    "paving.compute_paving": _tally_cells,
    "fforacle.hessenberg_check": _tally_flags,
}


def install() -> None:
    """Replace every binding of each target in all hessenpave modules."""
    modules = [m for k, m in sys.modules.items()
               if m is not None and (k == "hessenpave"
                                     or k.startswith("hessenpave."))]
    for mod_name, attr, name in TARGETS:
        original = getattr(sys.modules["hessenpave." + mod_name], attr)
        replacement = _wrap(original, name)
        if name in _TALLIES:
            replacement = _count_results(replacement, _TALLIES[name])
        bound = 0
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)
                    bound += 1
        if not bound:
            raise RuntimeError(f"hessenpave.{mod_name}.{attr} is bound nowhere")


def main(trace_path: str, argv: list[str]) -> int:
    install()
    t_main = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        rc = hessenpave.cli.main(argv)
    finally:
        main_s = time.clock_gettime(time.CLOCK_MONOTONIC) - t_main
        record = {"t_main": t_main, "main_s": main_s, "names": _names,
                  **_work}
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
