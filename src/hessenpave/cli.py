"""Command-line interface.

Subcommands: ``paving``, ``betti``, ``enumerate-hess``, ``witness``,
``verify-lemmata``, ``count-points``, ``sweep``.  All output is
deterministic: rerunning any command with the same configuration produces
byte-identical bytes.  Exit codes: 0 success, 1 validation or usage error,
2 internal consistency failure (a count mismatch or a failed lemma check).

The environment variable ``HESSENPAVE_SEED`` overrides ``--seed``.

One grammar: ``_COMMANDS`` maps each command to its runner and its
options, and ``_parse`` reads the command line from that table alone.  It
follows the rules of the ``argparse`` parser it replaced, messages
included: ``--flag=value``, the last of a repeated flag wins, a unique
prefix names its flag (an exact match wins), and the token after a flag is
its value unless it looks like an option and not like a negative number.
Errors are reported in argparse's order: those met reading the tokens,
then missing required flags, then the ``--hess*`` group, then
unrecognized arguments.  ``--help`` is rendered from the same table.

One output path: each ``_run_*`` function computes its result and returns
``(exit code, JSON record, CSV/table header, rows)``, where rows is a lazy
iterable, so a JSON run never builds it.  ``main`` alone reads ``--format``,
renders once (``_json_text``, ``_csv_text`` or ``_table_text``) and writes
once (``_emit``), so a failed lemma check writes its report before exiting 2.
``main`` looks the renderers up as module attributes at call time, so they
can be replaced on the module, as the benchmark's tracer does to time them.

One exit path: every launcher, ``python -m hessenpave``, ``python -m
hessenpave.cli`` and the ``hessenpave`` script, ends through ``run``,
``--help`` included.  It calls
``main``, then does what CPython's own shutdown does before teardown: it
runs the ``atexit`` handlers and flushes stdout and stderr.  Then it ends
the process with ``os._exit``, which skips only the freeing of every module
and object and the final garbage collection: about 13 ms of a roughly 75 ms
call.  The package starts no thread and registers no ``atexit`` handler, so
nothing else is skipped.  Only an uncaught exception leaves by Python's
normal exit.  A failed write or final flush of stdout (a closed pipe, a
full disk) is one line on stderr and exit 1, unless the exit code is
already nonzero.

Every call pays the import of this module, so it loads no ``argparse``,
``gettext`` or ``locale``: importing them and building argparse's parsers
cost about a tenth of a small query.  Standard-library modules that only
some commands need are imported where they are used: ``json`` in
``_json_text``, ``csv`` in ``_csv_text``, and ``fractions`` only by the
``linalg`` and ``liealg`` functions that build rationals (``witness``;
``verify-lemmata`` runs in integers and samples nothing, so it loads
neither ``fractions`` nor ``random``).  ``_format_rational``
reads ``numerator`` and ``denominator``, which ints and Fractions both
have.
"""

from __future__ import annotations

import atexit
import io
import os
import sys
from collections.abc import Iterable, Iterator

from . import fforacle, liealg, paving
from .errors import ConsistencyError
from .hessenberg import (
    enumerate_hessenberg,
    parse_hessenberg,
    space_fields,
    to_function,
)
from .rootcore import (
    RootSystem,
    check_budget,
    format_word,
    parse_word,
)


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
    if output is not None:
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
    """The cells of one Hessenberg variety and their dimensions."""
    check_budget("weyl", args.lie_type, args.rank)
    rs = RootSystem(args.lie_type, args.rank)
    space = parse_hessenberg(rs, _hess_spec(args))
    record = paving.paving_record(space)
    return (0, record, _PAVING_COLUMNS,
            _paving_rows(record, space_fields(space)[1]))


def _run_betti(args) -> tuple:
    """The Betti numbers of one Hessenberg variety."""
    check_budget("weyl", args.lie_type, args.rank)
    rs = RootSystem(args.lie_type, args.rank)
    space = parse_hessenberg(rs, _hess_spec(args))
    betti = paving.poincare_polynomial(space)
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
    """Every Hessenberg space of one root system."""
    check_budget("spaces", args.lie_type, args.rank)
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
    """Solve for and check a point of one cell, stage by stage."""
    check_budget("roots", args.lie_type, args.rank)
    rs = RootSystem(args.lie_type, args.rank)
    space = parse_hessenberg(rs, _hess_spec(args))
    w = parse_word(rs, args.word)
    result = liealg.find_witness(liealg.build_chevalley(rs), w, space)
    stages = [{rs._texts[p]: _format_rational(v)
               for p, v in sorted(sol.items())}
              for sol in result.stage_solutions]
    record = {
        "type": rs.lie_type,
        "rank": rs.rank,
        "hessenberg": space_fields(space)[0],
        "word": format_word(w),
        "verified": result.verified,
        "stage_kernel_dims": list(result.stage_kernel_dims),
        "row_profile": list(result.stage_kernel_dims),
        "stages": stages,
    }
    rows = ([k, d, " ".join(f"{r}={v}" for r, v in s.items())]
            for k, (d, s) in enumerate(zip(record["stage_kernel_dims"],
                                           stages)))
    return 0, record, ["stage", "kernel_dim", "solution"], rows


# Most trials verify-lemmata accepts.  No lemma check samples, so
# --trials and --seed change no work: only this runner reads them, and it
# echoes both in its report.
_TRIAL_BUDGET = 10_000


def _run_verify_lemmata(args) -> tuple:
    """Check the lemmata the paving rests on."""
    seed, trials = args.seed, args.trials
    env_seed = os.environ.get("HESSENPAVE_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise _UsageError(f"bad HESSENPAVE_SEED {env_seed!r}") from None
    if trials < 1:
        raise ValueError(f"trial count must be at least 1, got {trials}")
    if trials > _TRIAL_BUDGET:
        raise ValueError(f"trial count {trials} is over the budget of "
                         f"{_TRIAL_BUDGET}")
    check_budget("weyl", args.lie_type, args.rank)
    rs = RootSystem(args.lie_type, args.rank)
    report = liealg.verify_lemmata(liealg.build_chevalley(rs))
    record = {**report.to_record(), "seed": seed, "trials": trials}
    rows = ([c["name"], c["status"]] for c in record["checks"])
    return 0 if report.passed else 2, record, ["check", "status"], rows


def _run_count_points(args) -> tuple:
    """Count the F_q points of each type-A cell."""
    h = _hess_fn_values(args.hess_fn)
    record = fforacle.count_points(args.n, args.q, h).to_record()
    rows = ([record["n"], record["q"], ",".join(str(v) for v in record["h"]),
             c["perm"], c["count"], c["predicted"]]
            for c in record["cells"])
    return 0, record, ["n", "q", "h", "perm", "count", "predicted"], rows


def _run_sweep(args) -> tuple:
    """The paving of every Hessenberg space of one root system."""
    for kind in ("weyl", "spaces", "cells"):
        check_budget(kind, args.lie_type, args.rank)
    rs = RootSystem(args.lie_type, args.rank)
    spaces = enumerate_hessenberg(rs)
    records = [paving.paving_record(space) for space in spaces]
    record = {"type": rs.lie_type, "rank": rs.rank,
              "hessenberg_count": len(spaces), "pavings": records}
    rows = (row for space, rec in zip(spaces, records)
            for row in _paving_rows(rec, space_fields(space)[1]))
    return 0, record, _PAVING_COLUMNS, rows


class _UsageError(ValueError):
    pass


class _Help(Exception):
    """``-h`` or ``--help`` was read: print the help of ``command`` (None
    for the top level) and exit 0."""

    def __init__(self, command):
        super().__init__(command)
        self.command = command


_REQUIRED, _OPTIONAL, _ONE_OF = "required", "optional", "one of"


def _option(flag, dest=None, type=str, choices=None, default=None,
            rule=_OPTIONAL, help=""):
    """One row of an option table: ``(flag, dest, type, choices, default,
    rule, help)``.  ``rule`` is ``_REQUIRED``, ``_OPTIONAL`` or ``_ONE_OF``:
    a command's ``_ONE_OF`` options form one group, of which exactly one
    must be given."""
    return (flag, dest or flag[2:].replace("-", "_"), type, choices, default,
            rule, help)


_SYSTEM = (
    _option("--type", "lie_type", choices=("A", "B", "C", "D"),
            rule=_REQUIRED, help="Lie type"),
    _option("--rank", type=int, rule=_REQUIRED,
            help="rank of the root system"),
)
_SPACE = (
    _option("--hess-fn", rule=_ONE_OF,
            help="type-A Hessenberg function, e.g. 2,3,3"),
    _option("--hess-neg", rule=_ONE_OF,
            help="negative roots, e.g. --hess-neg=-1,0;0,-1 (the\n"
                 "'=' is needed since the value starts with '-')"),
    _option("--hess", choices=("full", "borel"), rule=_ONE_OF,
            help="the flag variety or the Borel space"),
)
_OUTPUT = (
    _option("--format", choices=("json", "csv", "table"), default="json",
            help="output format (default json)"),
    _option("--output", help="output path (default stdout)"),
)

# Each command's runner and options, in the order --help lists them.
_COMMANDS = {
    "paving": (_run_paving, _SYSTEM + _SPACE + _OUTPUT),
    "betti": (_run_betti, _SYSTEM + _SPACE + _OUTPUT),
    "enumerate-hess": (_run_enumerate_hess, _SYSTEM + _OUTPUT),
    "witness": (_run_witness, _SYSTEM + _SPACE + (
        _option("--word", rule=_REQUIRED,
                help="space-separated reflection indices ('' = identity)"),
    ) + _OUTPUT),
    "verify-lemmata": (_run_verify_lemmata, _SYSTEM + (
        _option("--trials", type=int, default=200,
                help="echoed in the report; no check samples (default 200)"),
        _option("--seed", type=int, default=2026,
                help="echoed in the report; no check samples (default "
                     "2026; HESSENPAVE_SEED overrides it)"),
    ) + _OUTPUT),
    "count-points": (_run_count_points, (
        _option("--n", type=int, rule=_REQUIRED,
                help="flags of F_q^n (type A_{n-1})"),
        _option("--q", type=int, rule=_REQUIRED, help="field size, a prime"),
        _option("--hess-fn", rule=_REQUIRED,
                help="type-A Hessenberg function, e.g. 2,3,4,4"),
    ) + _OUTPUT),
    "sweep": (_run_sweep, _SYSTEM + _OUTPUT),
}

_HELP_FLAGS = {"-h": None, "--help": None}


def _looks_negative(token: str) -> bool:
    r"""argparse's negative-number test, ``^-\d+$|^-\d*\.\d+$``, whose ``$``
    also matches before a final newline."""
    body = token[1:-1] if token.endswith("\n") else token[1:]
    whole, dot, fraction = body.partition(".")
    if not dot:
        return whole.isdecimal()
    return (not whole or whole.isdecimal()) and fraction.isdecimal()


def _read_token(token: str, flags: dict):
    """What one token is, read as argparse reads it before any value is
    taken: None for a value, else ``(option, flag, explicit value or
    None)``, where ``option`` is the flag's table row, None for ``-h`` and
    ``--help``, and ``False`` for a flag the command does not have."""
    if not token or token[0] != "-":
        return None
    if token in flags:
        return flags[token], token, None
    if len(token) == 1:
        return None
    flag, eq, value = token.partition("=")
    if eq and flag in flags:
        return flags[flag], flag, value
    if token[1] == "-":
        found = [(f, value if eq else None) for f in flags
                 if f.startswith(flag)]
    else:                       # the table's only one-dash flag is -h
        found = [(f, token[2:]) for f in flags if f == token[:2]]
    if len(found) > 1:
        raise _UsageError(f"ambiguous option: {token} could match "
                          + ", ".join(f for f, _ in found))
    if found:
        flag, value = found[0]
        return flags[flag], flag, value
    if _looks_negative(token) or " " in token:
        return None
    return False, token, None


def _check_help(flag: str, explicit) -> None:
    """``-h`` takes no value: ``-hh`` is ``-h -h``, and any other text
    after the flag is refused."""
    if explicit is not None:
        rest = explicit if flag == "--help" else explicit.lstrip("h")
        if rest or not explicit:
            raise _UsageError("argument -h/--help: ignored explicit "
                              f"argument {rest!r}")


class _Args:
    """A parsed command line: ``command`` and one attribute per option
    ``dest`` of that command."""


def _parse_command(command: str, tokens: list) -> tuple:
    """The options of ``command`` read from ``tokens``, and the tokens
    left unread."""
    options = _COMMANDS[command][1]
    flags = dict(_HELP_FLAGS)
    flags.update((row[0], row) for row in options)
    # argparse reads every token before it takes any value; after "--"
    # (read as False) every token is a value
    read = []
    for k, token in enumerate(tokens):
        if token == "--":
            read += [False] + [None] * (len(tokens) - k - 1)
            break
        read.append(_read_token(token, flags))
    args = _Args()
    for row in options:
        setattr(args, row[1], row[4])
    seen, extras, chosen = set(), [], None
    k = 0
    while k < len(tokens):
        if not read[k] or read[k][0] is False:
            extras.append(tokens[k])
            k += 1
            continue
        option, flag, value = read[k]
        if option is None:
            _check_help(flag, value)
            raise _Help(command)
        flag, dest, kind, choices, _, rule, _ = option
        if value is None:
            if k + 1 == len(tokens) or read[k + 1] is not None:
                raise _UsageError(f"argument {flag}: expected one argument")
            value = tokens[k + 1]
            k += 1
        k += 1
        try:
            value = kind(value)
        except ValueError:
            raise _UsageError(f"argument {flag}: invalid {kind.__name__} "
                              f"value: {value!r}") from None
        if choices is not None and value not in choices:
            raise _UsageError(f"argument {flag}: invalid choice: {value!r} "
                              f"(choose from {', '.join(map(repr, choices))})")
        if rule is _ONE_OF:
            if chosen not in (None, flag):
                raise _UsageError(f"argument {flag}: not allowed with "
                                  f"argument {chosen}")
            chosen = flag
        setattr(args, dest, value)
        seen.add(flag)
    missing = [row[0] for row in options
               if row[5] is _REQUIRED and row[0] not in seen]
    if missing:
        raise _UsageError("the following arguments are required: "
                          + ", ".join(missing))
    group = [row[0] for row in options if row[5] is _ONE_OF]
    if group and chosen is None:
        raise _UsageError(f"one of the arguments {' '.join(group)} "
                          "is required")
    return args, extras


def _parse(argv) -> _Args:
    """Read a command line; raise ``_UsageError`` with the message argparse
    gave, or ``_Help`` for ``-h``/``--help``."""
    argv = list(argv)
    extras = []
    for k, token in enumerate(argv):
        # before the command, only -h and --help are flags
        entry = None if token == "--" else _read_token(token, _HELP_FLAGS)
        if entry is None:
            break
        option, flag, value = entry
        if option is False:
            extras.append(token)
            continue
        _check_help(flag, value)
        raise _Help(None)
    else:
        k = len(argv)
    # after "--" every token is positional, the first one the command
    command = argv[k] if k < len(argv) else None
    if command is None or command == "--" and k + 1 == len(argv):
        raise _UsageError("the following arguments are required: command")
    if command not in _COMMANDS:
        raise _UsageError(f"argument command: invalid choice: {command!r} "
                          f"(choose from {', '.join(map(repr, _COMMANDS))})")
    args, more = _parse_command(command, argv[k + 1:])
    args.command = command
    if extras or more:
        raise _UsageError("unrecognized arguments: " + " ".join(extras + more))
    return args


def _usage(command) -> str:
    """The usage lines of one command, or of the top level for None."""
    if command is None:
        return "usage: hessenpave [-h] COMMAND [OPTION ...]\n"
    head = f"usage: hessenpave {command}"
    options = _COMMANDS[command][1]
    group = [row[0] for row in options if row[5] is _ONE_OF]
    parts = ["[-h]"]
    for flag, dest, _, choices, _, rule, _ in options:
        text = f"{flag} {_metavar(dest, choices)}"
        if rule is _ONE_OF:
            text = (("(" if flag == group[0] else "| ") + text
                    + (")" if flag == group[-1] else ""))
        elif rule is _OPTIONAL:
            text = f"[{text}]"
        parts.append(text)
    lines = [head]
    for part in parts:
        if len(lines[-1]) + 1 + len(part) > 79:
            lines.append(" " * len(head))
        lines[-1] += " " + part
    return "\n".join(lines) + "\n"


def _metavar(dest: str, choices) -> str:
    return "{" + ",".join(choices) + "}" if choices else dest.upper()


def _help_text(command) -> str:
    """The ``--help`` text of one command, or of the top level for None."""
    if command is None:
        names = list(_COMMANDS)
        width = max(map(len, names))
        rows = [f"  {name:<{width}}  {_summary(name)}" for name in names]
        # python -OO strips the docstrings
        about = (__doc__ or "").split("\n\nOne grammar")[0]
        return (_usage(None) + "\n" + about + "\n\ncommands:\n"
                + "\n".join(rows) + "\n\nRun 'hessenpave COMMAND --help' "
                  "for the options of one command.\n")
    rows = [("-h, --help", "show this help and exit")]
    for flag, dest, _, choices, _, _, text in _COMMANDS[command][1]:
        rows.append((f"{flag} {_metavar(dest, choices)}", text))
    width = max(len(left) for left, _ in rows)
    lines = []
    for left, text in rows:
        first, *more = text.split("\n")
        lines.append(f"  {left:<{width}}  {first}".rstrip())
        lines += [" " * (width + 4) + line for line in more]
    return (_usage(command) + "\n" + _summary(command) + "\n\noptions:\n"
            + "\n".join(lines) + "\n")


def _summary(command: str) -> str:
    """The runner's docstring, on one line."""
    return " ".join((_COMMANDS[command][0].__doc__ or "").split())


def main(argv=None) -> int:
    try:
        try:
            args = _parse(sys.argv[1:] if argv is None else argv)
        except _Help as request:
            _emit(_help_text(request.command), None)
            return 0
        if args.output == "":
            raise _UsageError("--output must name a file")
        code, record, header, rows = _COMMANDS[args.command][0](args)
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
