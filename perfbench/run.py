"""End-to-end benchmark of the ``hessenpave`` command line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sweep|queries|certify \\
        --seed N --seconds S --trace 0|1

Every operation is one real invocation, ``python -m hessenpave.cli ARG...``,
in a fresh child process: a CLI user pays interpreter start, import and Weyl
enumeration on every call, so nothing may be cached across operations.  This
script starts one child at a time, a closed loop with one client.  Each
operation is timed from spawn to exit, its CPU time and peak RSS come from
``os.wait4``, and its stdout is checked byte for byte against a sha256
digest recorded once, when ``make_golden.py`` wrote ``golden.json.gz``.  A
mismatch, a nonzero exit or a timeout counts as a failed operation.

A run makes ``round(seconds / NOMINAL_PASS_S[workload])`` whole passes over
the workload's operations (at least one), so that every run of a workload
does the same work however fast the host is at the moment.  The seed
chooses the inputs of each pass and their order; the work of a pass does
not depend on it.

Workloads (``BENCHMARK.json`` lists ``queries`` and ``certify``.  ``sweep``
runs by hand only: its four long operations left a run-to-run spread of
about 25 % on a shared 2-vCPU host, measured before the host-speed scaling
below, and runs long enough to steady it do not fit the benchmark's time
budget):

* ``sweep``: ``sweep`` over every Hessenberg space of D5 (json), A5 (csv),
  C4 (table) and B4 (json), 498,240 cells.  The bulk job: one Weyl group is
  shared by 70-182 spaces, so the time goes to Weyl enumeration, the paving
  per-cell loop and output rendering.
* ``queries``: one ``betti``, ``paving``, ``witness`` and ``enumerate-hess``
  query for each of A2-A4, B2-B4, C2-C4, D3, D4 per pass (44 queries; at
  ``--seconds 50``, 6 passes and 264 queries), spaces, words and formats
  drawn by the seed.  The interactive use: each query pays process start,
  import and one Weyl enumeration.
* ``certify``: ``verify-lemmata`` on D5, C4, B4 and A5 with fixed trial
  counts (lemma seed drawn by the seed) and type-A ``count-points`` at
  (n, q) = (4, 5), (5, 2), (4, 3); 7 operations a pass, 3 passes at
  ``--seconds 50``.  The self-check users run before trusting a table;
  every lemma must report ``pass`` with the requested trial count.

On a shared host the speed of the same work drifts by tens of percent over
seconds and over minutes, and child CPU time drifts with it.  Two things
keep the figures steady:

* Timings are taken per kind of operation (subcommand and root system, or
  the whole ``count-points`` call): each kind's median over the passes,
  summed over one pass.  This smooths drift within a run.
* Every SETUP_EVERY_S seconds between operations the run times a reference
  start-up: a fresh interpreter that imports the standard-library modules
  hessenpave uses (REFERENCE_IMPORTS) and none of its code.  Reported times
  are multiplied by ``host_scale`` = REFERENCE_S / (median reference time
  of the run), so they read as on a host where that start-up takes
  REFERENCE_S.  This follows drift from run to run well for start-up-heavy
  work and only partly for long computation: on a 2-vCPU Xeon, the spread
  (IQR / median) of ten runs' ``wall_s`` was 0.22 unscaled and 0.06 scaled
  on ``queries`` while the host slowed by a quarter, but on ``certify`` 0.13
  and 0.05 in one set and 0.15 and 0.16 in another.  The
  unscaled ``raw_wall_s``, ``raw_cpu_s`` and ``raw_setup_s`` and
  ``host_scale`` are printed on the ``#`` line above the result.

End-to-end metrics (``--trace 0``, times scaled): ``setup_s`` (median time
for a fresh interpreter to import ``hessenpave.cli``, sampled with the
reference), ``wall_s`` and ``cpu_s`` (child wall and CPU time of a pass,
from the per-kind medians), ``cells_per_s`` (cell records a pass prints
through ``sweep``, ``paving`` and ``count-points``, per second of
``wall_s``), ``peak_rss_mb`` (largest child max-RSS) and ``ok_ratio``
(1 - failed / attempted).  The pooled per-invocation latency percentiles
``query_p50_ms`` and ``query_p90_ms`` (unscaled) and their sample count are
printed on the ``#`` line but not gated: on ``certify`` they come from 21
calls of 7 kinds, and on ``queries`` the 90th percentile falls on the step
between the four rank-4 ``betti``/``paving`` kinds and the rest, so neither
is steady from run to run.

Per-layer metrics (``--trace 1``) come from running every operation twice,
untraced and through ``traced.py``, which times each library layer from
outside.  ``self_s`` is a layer's time minus that of the traced calls inside
it; values are per pass.  ``proc.startup_s`` runs from spawn to the start of
``cli.main``; ``trace.unaccounted_s`` is traced wall time that no named
layer covers (interpreter exit and the tracer's own tallies).  Which
end-to-end metric each layer should move, and where:

=============================================  ==============================
per-layer metrics                              should move
=============================================  ==============================
rootcore.enumerate_weyl.self_s,                wall_s and query_p50_ms on
rootcore.weyl_elements, rootcore.parse_word    queries, then cells_per_s on
                                               sweep, wall_s on certify
hessenberg.*                                   nothing (regression guard)
paving.* (kernel, record, Betti, leaf          cells_per_s on sweep, wall_s
counters, cells and ratios)                    on certify; barely queries
liealg.build_chevalley, verify_lemmata,        wall_s on certify
liealg.check.*
liealg.find_witness.*                          wall_s, query_p50_ms on
                                               queries
linalg.solve_affine.*, linalg.sp_mul.*         queries (witness), certify
fforacle.*                                     wall_s on certify only
cli.main, cli.render, cli.emit,                cells_per_s, peak_rss_mb on
cli.output_bytes                               sweep
proc.startup_s                                 setup_s; wall_s and
                                               query_p50_ms on queries
=============================================  ==============================

Predicted not to move: liealg, linalg and fforacle on ``sweep``; paving on
``queries``.
"""

import argparse
import gzip
import hashlib
import json
import os
import random
import shlex
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN_PATH = os.path.join(HERE, "golden.json.gz")
OUT_DIR = os.path.join(ROOT, ".bench_out")
DIGEST_HEX = 16            # golden digests keep this many hex digits

# Untraced pass length when the golden digests were recorded, on a 2-vCPU
# Xeon host.
NOMINAL_PASS_S = {"sweep": 17.0, "queries": 8.0, "certify": 17.0}
RUN_LIMIT_S = 170.0        # every child is stopped by then
OP_TIMEOUT_S = 60.0
SETUP_FIRST = 3            # set-up samples before the timed loop ...
SETUP_EVERY_S = 2.0        # ... then one between operations this often,
                           # as the host's speed drifts over seconds
# Each set-up sample is paired with a reference start-up that imports the
# standard-library modules hessenpave uses and none of its code.  Times are
# scaled by REFERENCE_S / (median reference time of the run).
REFERENCE_IMPORTS = ("import argparse, csv, dataclasses, fractions, io, "
                     "itertools, json, random, typing")
REFERENCE_S = 0.05

SWEEP_SYSTEMS = [("D", 5, "json"), ("A", 5, "csv"), ("C", 4, "table"),
                 ("B", 4, "json")]
LEMMA_SYSTEMS = [("D", 5, 2), ("C", 4, 50), ("B", 4, 50), ("A", 5, 20)]
LEMMA_SEEDS = range(2026, 2034)
COUNT_CASES = [(4, 5, "2,3,4,4"), (5, 2, "2,3,4,5,5"), (4, 3, "2,3,4,4")]
QUERY_SYSTEMS = [("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
                 ("C", 2), ("C", 3), ("C", 4), ("D", 3), ("D", 4)]
FORMATS = ("json", "csv", "table")

# Traced names each workload must call at least once.
CLI_NAMES = ["cli.main", "cli.render", "cli.emit"]
EXPECTED_CALLS = {
    "sweep": ["rootcore.enumerate_weyl", "hessenberg.enumerate_hessenberg",
              "paving.compute_paving", "paving.paving_record",
              "paving.cell_nonempty", "paving.cell_dimension",
              "paving.row_dimension_profile"] + CLI_NAMES,
    "queries": ["rootcore.enumerate_weyl", "rootcore.parse_word",
                "hessenberg.enumerate_hessenberg",
                "hessenberg.parse_hessenberg", "paving.compute_paving",
                "paving.paving_record", "paving.poincare_polynomial",
                "paving.cell_nonempty", "paving.cell_dimension",
                "paving.row_dimension_profile", "liealg.build_chevalley",
                "liealg.find_witness", "linalg.solve_affine",
                "linalg.sp_mul"] + CLI_NAMES,
    "certify": ["rootcore.enumerate_weyl", "hessenberg.enumerate_hessenberg",
                "paving.compute_paving", "paving.poincare_polynomial",
                "paving.cell_nonempty", "paving.cell_dimension",
                "liealg.build_chevalley", "liealg.verify_lemmata",
                "liealg.check.row_structure",
                "liealg.check.factorization_count",
                "liealg.check.near_linearity", "liealg.check.psi_invariance",
                "liealg.check.type_d_coefficients",
                "liealg.check.containment_first_entry",
                "liealg.check.type_d_block", "linalg.sp_mul",
                "fforacle.count_points",
                "fforacle.hessenberg_check"] + CLI_NAMES,
}

# A scrubbed environment: no HESSENPAVE_SEED, fixed hashing, bytecode
# caches allowed, UTF-8 stdout whatever the host locale.
CHILD_ENV = {"PATH": os.environ.get("PATH", os.defpath), "PYTHONPATH": SRC,
             "PYTHONHASHSEED": "0", "PYTHONUTF8": "1"}


def now() -> float:
    """CLOCK_MONOTONIC, which the traced child reads too."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def sweep_argv(t, r, fmt):
    return ["sweep", "--type", t, "--rank", str(r), "--format", fmt]


def lemma_argv(t, r, trials, seed):
    return ["verify-lemmata", "--type", t, "--rank", str(r),
            "--trials", str(trials), "--seed", str(seed)]


def count_argv(n, q, h):
    return ["count-points", "--n", str(n), "--q", str(q), "--hess-fn", h]


def space_argv(cmd, t, r, neg, fmt):
    # --hess-neg=VALUE: a separate value starting with '-' fails in argparse.
    return [cmd, "--type", t, "--rank", str(r), f"--hess-neg={neg}",
            "--format", fmt]


def witness_argv(t, r, neg, word):
    return ["witness", "--type", t, "--rank", str(r), f"--hess-neg={neg}",
            "--word", word]


def enumerate_argv(t, r, fmt):
    return ["enumerate-hess", "--type", t, "--rank", str(r), "--format", fmt]


def golden_key(argv) -> str:
    return shlex.join(argv)


def op_kind(argv) -> str:
    """Operations of one kind cost about the same: the subcommand and root
    system, or the whole call for ``count-points``."""
    if argv[0] == "count-points":
        return golden_key(argv)
    return f"{argv[0]} {argv[2]}{argv[4]}"


def sweep_pass(rng, universe):
    ops = [sweep_argv(*s) for s in SWEEP_SYSTEMS]
    rng.shuffle(ops)
    return ops


def certify_pass(rng, universe):
    ops = [lemma_argv(t, r, trials, rng.choice(LEMMA_SEEDS))
           for t, r, trials in LEMMA_SYSTEMS]
    ops += [count_argv(*c) for c in COUNT_CASES]
    rng.shuffle(ops)
    return ops


def queries_pass(rng, universe):
    ops = []
    for t, r in QUERY_SYSTEMS:
        spaces = universe[f"{t}{r}"]
        for cmd in ("betti", "paving"):
            space = rng.choice(spaces)
            ops.append(space_argv(cmd, t, r, space["neg"], rng.choice(FORMATS)))
        space = rng.choice(spaces)
        ops.append(witness_argv(t, r, space["neg"], rng.choice(space["words"])))
        ops.append(enumerate_argv(t, r, rng.choice(FORMATS)))
    rng.shuffle(ops)
    return ops


WORKLOADS = {"sweep": sweep_pass, "queries": queries_pass,
             "certify": certify_pass}


# ---------------------------------------------------------------------------
# running one child
# ---------------------------------------------------------------------------


class Child:
    """Outcome of one child process."""

    def __init__(self, cmd, timeout, keep_stdout=False):
        self.timed_out = False
        err_path = os.path.join(OUT_DIR, "stderr.txt")
        with open(err_path, "wb") as err:
            self.t_spawn = now()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=CHILD_ENV,
                                    stdout=subprocess.PIPE, stderr=err)
        lock = threading.Lock()
        exited = []

        def kill():
            with lock:
                if not exited:        # a zombie may still be killed safely
                    self.timed_out = True
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(max(timeout, 0.0), kill)
        timer.start()
        digest = hashlib.sha256()
        self.nbytes = 0
        kept = []
        try:
            while chunk := proc.stdout.read(1 << 20):
                digest.update(chunk)
                self.nbytes += len(chunk)
                if keep_stdout:
                    kept.append(chunk)
            proc.stdout.close()
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            with lock:
                exited.append(True)
            _, status, usage = os.wait4(proc.pid, 0)
            self.wall = now() - self.t_spawn
        finally:
            timer.cancel()
        proc.returncode = self.rc = os.waitstatus_to_exitcode(status)
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.sha = digest.hexdigest()
        self.stdout = b"".join(kept)
        with open(err_path, "rb") as err:
            self.stderr = err.read().decode("utf-8", "replace")


def cli_cmd(argv):
    return [sys.executable, "-m", "hessenpave.cli"] + argv


def traced_cmd(argv, trace_path):
    return [sys.executable, os.path.join(HERE, "traced.py"), trace_path] + argv


def lemma_problem(argv, stdout: bytes):
    """Why a verify-lemmata report is not a full pass, or None."""
    record = json.loads(stdout)
    trials = int(argv[argv.index("--trials") + 1])
    if trials < 1 or record["trials"] != trials:
        return f"reported trials {record['trials']}, requested {trials}"
    bad = [c["name"] for c in record["checks"] if c["status"] != "pass"]
    return f"checks not passing: {bad}" if bad else None


class Runner:
    """Runs operations, checks them and keeps the failure tally."""

    def __init__(self, golden, hard_end):
        self.golden = golden
        self.hard_end = hard_end
        self.attempted = 0
        self.failed = 0

    def run(self, argv, trace_path=None):
        """Run one operation; returns (Child, cells, trace or None), or
        (None, 0, None) if it failed."""
        self.attempted += 1
        expected = self.golden.get(golden_key(argv))
        remaining = self.hard_end - now()
        if expected is None or remaining <= 0:
            why = "no golden digest" if expected is None else "out of time"
            return self._fail(argv, why)
        cmd = cli_cmd(argv) if trace_path is None else traced_cmd(argv,
                                                                  trace_path)
        # a lemma report is small and must be parsed, so keep its stdout
        child = Child(cmd, min(OP_TIMEOUT_S, remaining),
                      keep_stdout=argv[0] == "verify-lemmata")
        problem = None
        if child.timed_out:
            problem = "timed out"
        elif child.rc != 0:
            problem = f"exit code {child.rc}: {child.stderr.strip()[-300:]}"
        elif child.sha[:DIGEST_HEX] != expected[0]:
            problem = f"stdout digest {child.sha[:DIGEST_HEX]} != {expected[0]}"
        elif argv[0] == "verify-lemmata":
            problem = lemma_problem(argv, child.stdout)
        trace = None
        if trace_path is not None and problem is None:
            with open(trace_path, encoding="utf-8") as fh:
                trace = json.load(fh)
            os.remove(trace_path)
        if problem is not None:
            return self._fail(argv, problem)
        return child, expected[1], trace

    def _fail(self, argv, why):
        self.failed += 1
        print(f"FAILED {golden_key(argv)}: {why}", file=sys.stderr)
        return None, 0, None


# ---------------------------------------------------------------------------
# passes and metrics
# ---------------------------------------------------------------------------


def run_passes(workload, rng, universe, runner, seconds, traced,
               setup_times=None):
    """The passes that fit in ``seconds`` at the nominal pass length.

    Untraced, each pass is a list of (argv, Child, cells).  Traced, every
    operation runs untraced and traced, in alternating order, and each pass
    is a list of (untraced Child, traced Child, trace).  Given a list
    ``setup_times``, set-up samples are appended to it between operations.
    """
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, "trace.json")
    last_setup = now()
    nominal = NOMINAL_PASS_S[workload] * (2 if traced else 1)
    passes = []
    for _ in range(max(1, round(seconds / nominal))):
        ops = WORKLOADS[workload](rng, universe)
        done = []
        for k, argv in enumerate(ops):
            if setup_times is not None and now() - last_setup > SETUP_EVERY_S:
                setup_times.append(setup_sample())
                last_setup = now()
            if not traced:
                child, cells, _ = runner.run(argv)
                done.append((argv, child, cells))
                continue
            order = (None, trace_path) if k % 2 == 0 else (trace_path, None)
            got = {path: runner.run(argv, path) for path in order}
            done.append((got[None][0], got[trace_path][0], got[trace_path][2]))
        passes.append(done)
    return passes


def quantile(values, q):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes, setup_times, runner):
    """End-to-end metrics of one pass, from the per-kind medians and scaled
    to the reference speed, and the raw figures behind them."""
    setup = statistics.median(t for t, _ in setup_times)
    scale = REFERENCE_S / statistics.median(r for _, r in setup_times)
    kinds = {}
    for done in passes:
        for argv, child, cells in done:
            if child is not None:
                kinds.setdefault(op_kind(argv), []).append((child, cells))

    def per_pass(value):
        return sum(statistics.median(value(c, cells) for c, cells in ops)
                   for ops in kinds.values())

    wall = per_pass(lambda c, _: c.wall)
    cpu = per_pass(lambda c, _: c.cpu)
    children = [c for ops in kinds.values() for c, _ in ops]
    latencies = [c.wall * 1000.0 for c in children] or [0.0]
    values = {
        "setup_s": setup * scale,
        "wall_s": wall * scale,
        "cpu_s": cpu * scale,
        "cells_per_s": _ratio(per_pass(lambda _, cells: cells), wall * scale),
        "peak_rss_mb": max([c.rss_mb for c in children], default=0.0),
        "ok_ratio": 1.0 - runner.failed / runner.attempted,
    }
    raw = {"host_scale": scale, "raw_wall_s": wall, "raw_cpu_s": cpu,
           "raw_setup_s": setup,
           "query_p50_ms": statistics.median(latencies),
           "query_p90_ms": quantile(latencies, 90),
           "latency_samples": len(children),
           "setup_samples": len(setup_times)}
    return values, raw


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(workload, passes):
    """Per-pass layer totals (median over passes) and missing names."""
    rows = []
    called = set()
    for done in passes:
        names = {}
        work = {"weyl_elements": 0, "spaces": 0, "cells": 0,
                "nonempty_cells": 0, "flags_passing": 0}
        untraced = traced = startup = unaccounted = 0.0
        out_bytes = 0
        for plain, child, trace in done:
            if plain is None or child is None or trace is None:
                continue
            untraced += plain.wall
            traced += child.wall
            out_bytes += child.nbytes
            op_startup = trace["t_main"] - child.t_spawn
            startup += op_startup
            self_total = 0.0
            for name, (calls, self_s) in trace["names"].items():
                acc = names.setdefault(name, [0, 0.0])
                acc[0] += calls
                acc[1] += self_s
                self_total += self_s
                if calls:
                    called.add(name)
            unaccounted += child.wall - op_startup - self_total
            for key in work:
                work[key] += trace[key]
        row = {}
        for name, (calls, self_s) in names.items():
            row[f"{name}.calls"] = calls
            row[f"{name}.self_s"] = self_s
        cells = work["cells"]
        checks = names.get("fforacle.hessenberg_check", [0, 0.0])[0]
        tests = names.get("paving.cell_nonempty", [0, 0.0])[0]
        row.update({
            "rootcore.weyl_elements": work["weyl_elements"],
            "hessenberg.spaces": work["spaces"],
            "paving.cells": cells,
            "paving.nonempty_ratio": _ratio(work["nonempty_cells"], cells),
            "paving.nonempty_tests_per_cell": _ratio(tests, cells),
            "fforacle.flags_passing": work["flags_passing"],
            "fforacle.pass_ratio": _ratio(work["flags_passing"], checks),
            "cli.output_bytes": out_bytes,
            "proc.startup_s": startup,
            "trace.overhead_ratio": _ratio(traced, untraced),
            "trace.unaccounted_s": unaccounted,
        })
        rows.append(row)
    keys = set().union(*rows)
    merged = {k: statistics.median(r.get(k, 0) for r in rows) for k in keys}
    missing = [n for n in EXPECTED_CALLS[workload] if n not in called]
    return merged, missing


def setup_sample():
    """Times for a fresh interpreter to import hessenpave.cli, and to run
    REFERENCE_IMPORTS."""
    times = []
    for code in ("import hessenpave.cli", REFERENCE_IMPORTS):
        child = Child([sys.executable, "-c", code], OP_TIMEOUT_S)
        if child.rc != 0:
            raise RuntimeError(f"{code} failed: {child.stderr}")
        times.append(child.wall)
    return tuple(times)


def run_metadata():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": sys.version.split()[0], "nproc": os.cpu_count(),
            "cpu": cpu, "load1": os.getloadavg()[0]}


def load_golden():
    with gzip.open(GOLDEN_PATH, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    hard_end = now() + RUN_LIMIT_S
    if not os.path.isfile(os.path.join(SRC, "hessenpave", "cli.py")):
        print(f"perfbench: no hessenpave sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    golden = load_golden()
    runner = Runner(golden["digests"], hard_end)
    meta = run_metadata()

    # untimed warm-up, so the bytecode caches exist before timing
    os.makedirs(OUT_DIR, exist_ok=True)
    if runner.run(enumerate_argv("A", 2, "json"))[0] is None:
        return 2
    runner.attempted = runner.failed = 0

    rng = random.Random(f"perfbench:{args.workload}:{args.seed}")
    if args.trace:
        passes = run_passes(args.workload, rng, golden["universe"], runner,
                            args.seconds, traced=True)
        values, missing = per_layer(args.workload, passes)
        if missing:
            print(f"never called on {args.workload}: {missing}",
                  file=sys.stderr)
        wanted = spec["per_layer"]
    else:
        setup_times = [setup_sample() for _ in range(SETUP_FIRST)]
        passes = run_passes(args.workload, rng, golden["universe"], runner,
                            args.seconds, traced=False,
                            setup_times=setup_times)
        values, raw = end_to_end(passes, setup_times, runner)
        meta.update(raw)
        missing = []
        wanted = spec["end_to_end"]
    meta.update(workload=args.workload, seed=args.seed, passes=len(passes),
                attempted=runner.attempted, failed=runner.failed)
    print("# " + json.dumps(meta))
    result = {
        "correct": runner.failed == 0 and not missing,
        "attempted": runner.attempted,
        "failed": runner.failed,
        # a layer no operation reached reads 0
        "metrics": {m["name"]: {"value": values.get(m["name"], 0),
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
