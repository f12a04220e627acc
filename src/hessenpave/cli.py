"""Command-line interface.

Subcommands: ``paving``, ``betti``, ``enumerate-hess``, ``witness``,
``verify-lemmata``, ``count-points``, ``sweep``.  All output is
deterministic: rerunning any command with the same configuration produces
byte-identical bytes.  Exit codes: 0 success, 1 validation or usage error,
2 internal consistency failure (a count mismatch or a failed lemma check).

The environment variable ``HESSENPAVE_SEED`` overrides ``--seed``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

from . import fforacle, liealg, paving
from .errors import ConsistencyError
from .hessenberg import (
    HessenbergSpace,
    enumerate_hessenberg,
    format_negative_part,
    parse_hessenberg,
    to_function,
)
from .rootcore import RootSystem, check_weyl_budget, format_word, parse_word


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="hessenpave", description=__doc__)
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


def _hess_spec(args) -> str:
    if args.hess_fn is not None:
        return "h=" + args.hess_fn
    if args.hess_neg is not None:
        return "neg=" + args.hess_neg
    return args.hess


def _space_record(space: HessenbergSpace) -> dict:
    return {"neg": [r for r in format_negative_part(space).split(";") if r]}


def _emit(text: str, output) -> None:
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {output}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _json_text(record) -> str:
    return json.dumps(record, indent=2) + "\n"


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _table_text(header: list[str], rows: list[list]) -> str:
    cols = [header] + [[str(x) for x in row] for row in rows]
    widths = [max(len(r[k]) for r in cols) for k in range(len(header))]
    lines = []
    for r in cols:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"


_PAVING_COLUMNS = ["type", "rank", "hessenberg", "word", "length",
                   "nonempty", "dim", "row_profile"]


def _paving_rows(record: dict) -> list[list]:
    hess = "neg=" + ";".join(record["hessenberg"]["neg"])
    rows = []
    for cell in record["cells"]:
        profile = ("|".join(str(d) for d in cell["row_profile"])
                   if cell["row_profile"] is not None else "")
        rows.append([record["type"], record["rank"], hess, cell["word"],
                     cell["length"], str(cell["nonempty"]).lower(),
                     cell["dim"] if cell["dim"] is not None else "",
                     profile])
    return rows


def _run_paving(args) -> int:
    check_weyl_budget(args.lie_type, args.rank)
    rs = RootSystem(args.lie_type, args.rank)
    space = parse_hessenberg(rs, _hess_spec(args))
    record = paving.paving_record(rs, space)
    if args.format == "json":
        _emit(_json_text(record), args.output)
    else:
        render = _csv_text if args.format == "csv" else _table_text
        _emit(render(_PAVING_COLUMNS, _paving_rows(record)), args.output)
    return 0


def _run_betti(args) -> int:
    check_weyl_budget(args.lie_type, args.rank)
    rs = RootSystem(args.lie_type, args.rank)
    space = parse_hessenberg(rs, _hess_spec(args))
    betti = paving.poincare_polynomial(rs, space)
    record = {
        "type": rs.lie_type,
        "rank": rs.rank,
        "hessenberg": _space_record(space),
        "betti": list(betti.coefficients),
    }
    if args.format == "json":
        _emit(_json_text(record), args.output)
    else:
        header = ["type", "rank", "hessenberg", "betti"]
        row = [[record["type"], record["rank"],
                "neg=" + ";".join(record["hessenberg"]["neg"]),
                "|".join(str(b) for b in record["betti"])]]
        render = _csv_text if args.format == "csv" else _table_text
        _emit(render(header, row), args.output)
    return 0


def _run_enumerate_hess(args) -> int:
    rs = RootSystem(args.lie_type, args.rank)
    spaces = enumerate_hessenberg(rs)
    entries = []
    for space in spaces:
        entry = {"neg": _space_record(space)["neg"]}
        entry["h"] = list(to_function(space)) if rs.lie_type == "A" else None
        entries.append(entry)
    record = {"type": rs.lie_type, "rank": rs.rank,
              "count": len(spaces), "spaces": entries}
    if args.format == "json":
        _emit(_json_text(record), args.output)
    else:
        header = ["type", "rank", "index", "neg", "h"]
        rows = [[rs.lie_type, rs.rank, k, ";".join(e["neg"]),
                 ",".join(str(v) for v in e["h"]) if e["h"] else ""]
                for k, e in enumerate(entries)]
        render = _csv_text if args.format == "csv" else _table_text
        _emit(render(header, rows), args.output)
    return 0


def _format_rational(v) -> str:
    f = Fraction(v)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _run_witness(args) -> int:
    rs = RootSystem(args.lie_type, args.rank)
    space = parse_hessenberg(rs, _hess_spec(args))
    w = parse_word(rs, args.word)
    real = liealg.build_chevalley(rs)
    if rs.lie_type == "D":
        real = liealg.normalize_type_D(real)
    result = liealg.find_witness(real, w, space)
    profile = paving.row_dimension_profile(w, space)
    stages = []
    for sol in result.stage_solutions:
        ordered = sorted(sol.items(), key=lambda kv: rs.root_index(kv[0]))
        stages.append({str(root): _format_rational(v) for root, v in ordered})
    record = {
        "type": rs.lie_type,
        "rank": rs.rank,
        "hessenberg": _space_record(space),
        "word": format_word(w),
        "verified": result.verified,
        "stage_kernel_dims": list(result.stage_kernel_dims),
        "row_profile": list(profile),
        "stages": stages,
    }
    if args.format == "json":
        _emit(_json_text(record), args.output)
    else:
        header = ["stage", "kernel_dim", "solution"]
        rows = [[k, d, " ".join(f"{r}={v}" for r, v in s.items())]
                for k, (d, s) in enumerate(zip(record["stage_kernel_dims"],
                                               stages))]
        render = _csv_text if args.format == "csv" else _table_text
        _emit(render(header, rows), args.output)
    return 0


def _run_verify_lemmata(args) -> int:
    check_weyl_budget(args.lie_type, args.rank)
    rs = RootSystem(args.lie_type, args.rank)
    real = liealg.build_chevalley(rs)
    report = liealg.verify_lemmata(real, args.trials, args.seed)
    record = report.to_record()
    if args.format == "json":
        _emit(_json_text(record), args.output)
    else:
        header = ["check", "status"]
        rows = [[c["name"], c["status"]] for c in record["checks"]]
        render = _csv_text if args.format == "csv" else _table_text
        _emit(render(header, rows), args.output)
    return 0 if report.passed else 2


def _run_count_points(args) -> int:
    h = tuple(int(x) for x in args.hess_fn.split(","))
    report = fforacle.count_points(args.n, args.q, h)
    record = report.to_record()
    if args.format == "json":
        _emit(_json_text(record), args.output)
    else:
        header = ["n", "q", "h", "perm", "count", "predicted"]
        rows = [[record["n"], record["q"],
                 ",".join(str(v) for v in record["h"]),
                 c["perm"], c["count"], c["predicted"]]
                for c in record["cells"]]
        render = _csv_text if args.format == "csv" else _table_text
        _emit(render(header, rows), args.output)
    return 0


def _run_sweep(args) -> int:
    check_weyl_budget(args.lie_type, args.rank)
    rs = RootSystem(args.lie_type, args.rank)
    spaces = enumerate_hessenberg(rs)
    records = [paving.paving_record(rs, space) for space in spaces]
    if args.format == "json":
        record = {"type": rs.lie_type, "rank": rs.rank,
                  "hessenberg_count": len(spaces), "pavings": records}
        _emit(_json_text(record), args.output)
    else:
        rows = []
        for rec in records:
            rows.extend(_paving_rows(rec))
        render = _csv_text if args.format == "csv" else _table_text
        _emit(render(_PAVING_COLUMNS, rows), args.output)
    return 0


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
        return _RUNNERS[args.command](args)
    except ValueError as exc:
        print(f"hessenpave: {exc}", file=sys.stderr)
        return 1
    except ConsistencyError as exc:
        print(f"hessenpave: consistency failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
