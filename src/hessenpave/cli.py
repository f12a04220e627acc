"""Command-line interface.

Subcommands: ``paving``, ``betti``, ``enumerate-hess``, ``witness``,
``verify-lemmata``, ``count-points``, ``sweep``.  All output is
deterministic: rerunning any command with the same configuration produces
byte-identical bytes.  Exit codes: 0 success, 1 validation or usage error,
2 internal consistency failure (a count mismatch or a failed lemma check).

The environment variable ``HESSENPAVE_SEED`` overrides ``--seed``.

One output path: each ``_run_*`` function computes its result and returns
``(exit code, JSON record, CSV/table header, rows)``, where rows is a lazy
iterable, so a JSON run never builds it.  ``main`` alone reads ``--format``,
renders once (``_json_text``, ``_csv_text`` or ``_table_text``) and writes
once (``_emit``), so a failed lemma check writes its report before exiting 2.
``main`` looks the renderers up as module attributes at call time, so they
can be replaced on the module, as the benchmark's tracer does to time them.

One exit path: both launchers, ``python -m hessenpave.cli`` and the
``hessenpave`` script, end through ``run``.  It calls ``main``, then does
what CPython's own shutdown does before teardown: it runs the ``atexit``
handlers and flushes stdout and stderr.  Then it ends the process with
``os._exit``, which skips only the freeing of every module and object and the
final garbage collection: about 13 ms of a roughly 75 ms call.  The package
starts no thread and registers no ``atexit`` handler, so nothing else is
skipped.  ``--help`` and an uncaught exception leave by Python's normal exit.
A failed write or final flush of stdout (a closed pipe, a full disk) is one
line on stderr and exit 1, unless the exit code is already nonzero.

Every call pays the import of this module, so standard-library modules that
only some commands need are imported where they are used: ``json`` in
``_json_text``, ``csv`` in ``_csv_text``, and ``fractions`` only by the
``linalg`` and ``liealg`` functions that build rationals (``witness`` and
``verify-lemmata``).  ``_format_rational`` reads ``numerator`` and
``denominator``, which ints and Fractions both have.
"""

from __future__ import annotations

import argparse
import atexit
import io
import os
import sys
from collections.abc import Iterable, Iterator

from . import fforacle, liealg, paving
from .errors import ConsistencyError
from .hessenberg import (
    check_space_budget,
    enumerate_hessenberg,
    parse_hessenberg,
    space_fields,
    to_function,
)
from .rootcore import (
    RootSystem,
    check_root_budget,
    check_weyl_budget,
    format_word,
    parse_word,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    # --help shows the user-facing paragraphs only
    p = _Parser(prog="hessenpave",
                description=__doc__.split("\n\nOne output path")[0])
    sub = p.add_subparsers(dest="command", required=True)

    def add_system(sp):
        sp.add_argument("--type", required=True, dest="lie_type",
                        choices=("A", "B", "C", "D"))
        sp.add_argument("--rank", required=True, type=int)

    def add_hess(sp):
        g = sp.add_mutually_exclusive_group(required=True)
        g.add_argument("--hess-fn", help="type-A Hessenberg function, e.g. 2,3,3")
        g.add_argument("--hess-neg",
                       help="negative roots, e.g. --hess-neg=-1,0;0,-1 (the "
                            "'=' is needed since the value starts with '-')")
        g.add_argument("--hess", choices=("full", "borel"))

    def add_common(sp):
        sp.add_argument("--format", default="json",
                        choices=("json", "csv", "table"))
        sp.add_argument("--output", default=None, help="output path (default stdout)")

    for name in ("paving", "betti"):
        sp = sub.add_parser(name)
        add_system(sp)
        add_hess(sp)
        add_common(sp)

    sp = sub.add_parser("enumerate-hess")
    add_system(sp)
    add_common(sp)

    sp = sub.add_parser("witness")
    add_system(sp)
    add_hess(sp)
    sp.add_argument("--word", required=True,
                    help="space-separated reflection indices ('' = identity)")
    add_common(sp)

    sp = sub.add_parser("verify-lemmata")
    add_system(sp)
    sp.add_argument("--trials", type=int, default=200)
    sp.add_argument("--seed", type=int, default=liealg.DEFAULT_SEED)
    add_common(sp)

    sp = sub.add_parser("count-points")
    sp.add_argument("--n", required=True, type=int)
    sp.add_argument("--q", required=True, type=int)
    sp.add_argument("--hess-fn", required=True)
    add_common(sp)

    sp = sub.add_parser("sweep")
    add_system(sp)
    add_common(sp)
    return p


def _hess_fn_values(text: str) -> tuple[int, ...]:
    """The values of a ``--hess-fn`` list, refusing any part that is not an
    integer (an empty part included)."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError("--hess-fn must be comma-separated integers, "
                         f"got {text!r}") from None


def _hess_spec(args) -> str:
    if args.hess_fn is not None:
        return "h=" + ",".join(str(v) for v in _hess_fn_values(args.hess_fn))
    if args.hess_neg is not None:
        return "neg=" + args.hess_neg
    return args.hess


def _emit(text: str, output) -> None:
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {output}: {exc.strerror}") from exc
    else:
        try:
            sys.stdout.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write stdout: {exc.strerror}") from exc


def _json_text(record) -> str:
    import json

    return json.dumps(record, indent=2) + "\n"


def _csv_text(header: list[str], rows: Iterable[list]) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _table_text(header: list[str], rows: Iterable[list]) -> str:
    cols = [header] + [[str(x) for x in row] for row in rows]
    widths = [max(len(r[k]) for r in cols) for k in range(len(header))]
    lines = []
    for r in cols:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"


_PAVING_COLUMNS = ["type", "rank", "hessenberg", "word", "length",
                   "nonempty", "dim", "row_profile"]


def _paving_rows(record: dict, hess: str) -> Iterator[list]:
    for cell in record["cells"]:
        profile = ("|".join(str(d) for d in cell["row_profile"])
                   if cell["row_profile"] is not None else "")
        yield [record["type"], record["rank"], hess, cell["word"],
               cell["length"], str(cell["nonempty"]).lower(),
               cell["dim"] if cell["dim"] is not None else "",
               profile]


def _run_paving(args) -> tuple:
    check_weyl_budget(args.lie_type, args.rank)
    rs = RootSystem(args.lie_type, args.rank)
    space = parse_hessenberg(rs, _hess_spec(args))
    record = paving.paving_record(rs, space)
    return (0, record, _PAVING_COLUMNS,
            _paving_rows(record, space_fields(space)[1]))


def _run_betti(args) -> tuple:
    check_weyl_budget(args.lie_type, args.rank)
    rs = RootSystem(args.lie_type, args.rank)
    space = parse_hessenberg(rs, _hess_spec(args))
    betti = paving.poincare_polynomial(rs, space)
    hess, column = space_fields(space)
    record = {
        "type": rs.lie_type,
        "rank": rs.rank,
        "hessenberg": hess,
        "betti": list(betti.coefficients),
    }
    rows = ([r["type"], r["rank"], column, "|".join(str(b) for b in r["betti"])]
            for r in (record,))
    return 0, record, ["type", "rank", "hessenberg", "betti"], rows


def _run_enumerate_hess(args) -> tuple:
    check_space_budget(args.lie_type, args.rank)
    rs = RootSystem(args.lie_type, args.rank)
    spaces = enumerate_hessenberg(rs)
    entries = []
    for space in spaces:
        entry = space_fields(space)[0]
        entry["h"] = list(to_function(space)) if rs.lie_type == "A" else None
        entries.append(entry)
    record = {"type": rs.lie_type, "rank": rs.rank,
              "count": len(spaces), "spaces": entries}
    rows = ([rs.lie_type, rs.rank, k, ";".join(e["neg"]),
             ",".join(str(v) for v in e["h"]) if e["h"] else ""]
            for k, e in enumerate(entries))
    return 0, record, ["type", "rank", "index", "neg", "h"], rows


def _format_rational(v) -> str:
    """An int or Fraction as ``p`` or ``p/q``; both types carry
    ``numerator`` and ``denominator``."""
    if v.denominator == 1:
        return str(v.numerator)
    return f"{v.numerator}/{v.denominator}"


def _run_witness(args) -> tuple:
    check_root_budget(args.lie_type, args.rank)
    rs = RootSystem(args.lie_type, args.rank)
    space = parse_hessenberg(rs, _hess_spec(args))
    w = parse_word(rs, args.word)
    result = liealg.find_witness(liealg.build_chevalley(rs), w, space)
    profile = paving.row_dimension_profile(w, space)
    stages = []
    for sol in result.stage_solutions:
        ordered = sorted(sol.items(), key=lambda kv: rs.root_index(kv[0]))
        stages.append({str(root): _format_rational(v) for root, v in ordered})
    record = {
        "type": rs.lie_type,
        "rank": rs.rank,
        "hessenberg": space_fields(space)[0],
        "word": format_word(w),
        "verified": result.verified,
        "stage_kernel_dims": list(result.stage_kernel_dims),
        "row_profile": list(profile),
        "stages": stages,
    }
    rows = ([k, d, " ".join(f"{r}={v}" for r, v in s.items())]
            for k, (d, s) in enumerate(zip(record["stage_kernel_dims"],
                                           stages)))
    return 0, record, ["stage", "kernel_dim", "solution"], rows


def _run_verify_lemmata(args) -> tuple:
    liealg.check_trial_count(args.trials)
    check_weyl_budget(args.lie_type, args.rank)
    rs = RootSystem(args.lie_type, args.rank)
    real = liealg.build_chevalley(rs)
    report = liealg.verify_lemmata(real, args.trials, args.seed)
    record = report.to_record()
    rows = ([c["name"], c["status"]] for c in record["checks"])
    return 0 if report.passed else 2, record, ["check", "status"], rows


def _run_count_points(args) -> tuple:
    h = _hess_fn_values(args.hess_fn)
    record = fforacle.count_points(args.n, args.q, h).to_record()
    rows = ([record["n"], record["q"], ",".join(str(v) for v in record["h"]),
             c["perm"], c["count"], c["predicted"]]
            for c in record["cells"])
    return 0, record, ["n", "q", "h", "perm", "count", "predicted"], rows


# Most cells (|W| times the number of spaces) that sweep computes: every
# rank <= 5 system and A6 (2,162,160 cells) fit; D6 (15.5 M cells), B6 and
# C6 (42.6 M) and A7 (57.7 M) pass the Weyl budget but would run for hours.
_CELL_BUDGET = 2_500_000


def _run_sweep(args) -> tuple:
    order = check_weyl_budget(args.lie_type, args.rank)
    count = check_space_budget(args.lie_type, args.rank)
    if order is not None and order * count > _CELL_BUDGET:
        raise ValueError(
            f"a sweep of {args.lie_type}{args.rank} has {order * count} "
            f"cells, over the budget of {_CELL_BUDGET}")
    rs = RootSystem(args.lie_type, args.rank)
    spaces = enumerate_hessenberg(rs)
    records = [paving.paving_record(rs, space) for space in spaces]
    record = {"type": rs.lie_type, "rank": rs.rank,
              "hessenberg_count": len(spaces), "pavings": records}
    rows = (row for space, rec in zip(spaces, records)
            for row in _paving_rows(rec, space_fields(space)[1]))
    return 0, record, _PAVING_COLUMNS, rows


_RUNNERS = {
    "paving": _run_paving,
    "betti": _run_betti,
    "enumerate-hess": _run_enumerate_hess,
    "witness": _run_witness,
    "verify-lemmata": _run_verify_lemmata,
    "count-points": _run_count_points,
    "sweep": _run_sweep,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"hessenpave: {exc}", file=sys.stderr)
        return 1
    if hasattr(args, "seed"):
        env_seed = os.environ.get("HESSENPAVE_SEED")
        if env_seed is not None:
            try:
                args.seed = int(env_seed)
            except ValueError:
                print(f"hessenpave: bad HESSENPAVE_SEED {env_seed!r}",
                      file=sys.stderr)
                return 1
    try:
        code, record, header, rows = _RUNNERS[args.command](args)
        if args.format == "json":
            text = _json_text(record)
        elif args.format == "csv":
            text = _csv_text(header, rows)
        else:
            text = _table_text(header, rows)
        _emit(text, args.output)
        return code
    except ValueError as exc:
        print(f"hessenpave: {exc}", file=sys.stderr)
        return 1
    except ConsistencyError as exc:
        print(f"hessenpave: consistency failure: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """Run ``main`` on ``sys.argv`` and end the process with its exit code
    (see "One exit path" above); never returns."""
    code = main()
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
    except OSError as exc:
        if code == 0:
            code = 1
            print(f"hessenpave: cannot write stdout: {exc.strerror}",
                  file=sys.stderr)
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
