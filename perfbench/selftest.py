"""Self-test of the benchmark's tracer.

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py

Asserts that

* for one operation of each subcommand, stdout under ``traced.py`` is
  byte-identical to stdout of ``python -m hessenpave.cli`` (and to the
  golden digest);
* on each workload, every traced layer that ``run.EXPECTED_CALLS`` names
  for it records at least one call, over one traced pass.

Exits 0 when both hold.  Takes about two minutes.
"""

import os
import random
import sys

import run


def one_of_each(universe):
    rng = random.Random(0)
    spaces = universe["C3"]
    space = spaces[len(spaces) // 2]
    return [
        run.space_argv("paving", "C", 3, space["neg"], "table"),
        run.space_argv("betti", "C", 3, space["neg"], "csv"),
        run.enumerate_argv("D", 4, "json"),
        run.witness_argv("C", 3, space["neg"], rng.choice(space["words"])),
        run.lemma_argv("C", 4, 50, run.LEMMA_SEEDS[0]),
        run.count_argv(*run.COUNT_CASES[-1]),
        run.sweep_argv("B", 4, "json"),
    ]


def main() -> int:
    golden = run.load_golden()
    os.makedirs(run.OUT_DIR, exist_ok=True)
    trace_path = os.path.join(run.OUT_DIR, "selftest-trace.json")
    problems = []

    for argv in one_of_each(golden["universe"]):
        plain = run.Child(run.cli_cmd(argv), run.OP_TIMEOUT_S)
        traced = run.Child(run.traced_cmd(argv, trace_path), run.OP_TIMEOUT_S)
        os.remove(trace_path)
        want = golden["digests"][run.golden_key(argv)][0]
        if (plain.rc, traced.rc) != (0, 0) or plain.sha != traced.sha \
                or plain.sha[:run.DIGEST_HEX] != want:
            problems.append(f"traced output differs: {run.golden_key(argv)}")
        else:
            print(f"identical ({plain.nbytes} bytes): {run.golden_key(argv)}")

    runner = run.Runner(golden["digests"], run.now() + 900)
    for workload in run.WORKLOADS:
        passes = run.run_passes(workload, random.Random(0),
                                golden["universe"], runner, 0, traced=True)
        _, missing = run.per_layer(workload, passes)
        if missing:
            problems.append(f"never called on {workload}: {missing}")
        else:
            print(f"every expected layer called on {workload}")
    if runner.failed:
        problems.append(f"{runner.failed} operations failed")

    for p in problems:
        print("SELFTEST FAILED:", p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
