"""Write ``golden.json.gz``: the query universe and the stdout digest of
every operation the benchmark can run.

Usage (from the root of a checkout)::

    PYTHONHASHSEED=0 PYTHONPATH=src python3 perfbench/make_golden.py

The digests pin the output of the commit this runs on; later commits are
checked against them byte for byte, so rerun it only on purpose.  The CLI is
called in this one process, with root systems and realizations reused across
calls (a fresh process per operation would take hours); a sample of
operations is then rerun as real child processes and must give the same
digests.
"""

import functools
import gzip
import hashlib
import io
import json
import os
import random
import sys
import time

import run
import hessenpave.cli as cli
from hessenpave import (cell_nonempty, enumerate_hessenberg, enumerate_weyl,
                        liealg)
from hessenpave.hessenberg import format_negative_part
from hessenpave.rootcore import RootSystem, format_word

VALIDATION_SAMPLE = 40


def capture(argv):
    """stdout bytes of ``hessenpave ARG...``; the exit code must be 0."""
    buf = io.StringIO()
    old, sys.stdout = sys.stdout, buf
    try:
        rc = cli.main(argv)
    finally:
        sys.stdout = old
    if rc != 0:
        raise SystemExit(f"exit code {rc} from {run.golden_key(argv)}")
    return buf.getvalue().encode("utf-8")


def main() -> int:
    system = functools.lru_cache(maxsize=None)(RootSystem)
    cli.RootSystem = system
    liealg.build_chevalley = functools.lru_cache(maxsize=None)(
        liealg.build_chevalley)

    universe = {}
    ops = []                                  # (argv, cells)
    for t, r in run.QUERY_SYSTEMS:
        rs = system(t, r)
        weyl = enumerate_weyl(rs)
        spaces = []
        for space in enumerate_hessenberg(rs):
            neg = format_negative_part(space)
            words = [format_word(w) for w in weyl if cell_nonempty(w, space)]
            spaces.append({"neg": neg, "words": words})
            for fmt in run.FORMATS:
                ops.append((run.space_argv("betti", t, r, neg, fmt), 0))
                ops.append((run.space_argv("paving", t, r, neg, fmt),
                            len(weyl)))
            ops += [(run.witness_argv(t, r, neg, w), 0) for w in words]
        universe[f"{t}{r}"] = spaces
        ops += [(run.enumerate_argv(t, r, fmt), 0) for fmt in run.FORMATS]
    for t, r, fmt in run.SWEEP_SYSTEMS:
        rs = system(t, r)
        cells = len(enumerate_weyl(rs)) * len(enumerate_hessenberg(rs))
        ops.append((run.sweep_argv(t, r, fmt), cells))
    for t, r, trials in run.LEMMA_SYSTEMS:
        ops += [(run.lemma_argv(t, r, trials, s), 0) for s in run.LEMMA_SEEDS]
    for n, q, h in run.COUNT_CASES:
        ops.append((run.count_argv(n, q, h),
                    len(enumerate_weyl(system("A", n - 1)))))

    digests = {}
    t0 = time.time()
    for k, (argv, cells) in enumerate(ops):
        out = capture(argv)
        if argv[0] == "verify-lemmata" and run.lemma_problem(argv, out):
            raise SystemExit(f"{run.golden_key(argv)}: "
                             f"{run.lemma_problem(argv, out)}")
        digests[run.golden_key(argv)] = [
            hashlib.sha256(out).hexdigest()[:run.DIGEST_HEX], cells]
        if k % 1000 == 0:
            print(f"{k}/{len(ops)} {time.time() - t0:.0f}s", file=sys.stderr)

    # rerun every sweep and count, one lemma run per system and a random
    # sample as real children
    os.makedirs(run.OUT_DIR, exist_ok=True)
    sample = [a for a, _ in ops if a[0] in ("sweep", "count-points")]
    sample += [run.lemma_argv(t, r, trials, run.LEMMA_SEEDS[0])
               for t, r, trials in run.LEMMA_SYSTEMS]
    sample += random.Random(0).sample([a for a, _ in ops], VALIDATION_SAMPLE)
    for argv in sample:
        child = run.Child(run.cli_cmd(argv), 600)
        want = digests[run.golden_key(argv)][0]
        if child.rc != 0 or child.sha[:run.DIGEST_HEX] != want:
            raise SystemExit(f"child disagrees on {run.golden_key(argv)}")

    with gzip.GzipFile(run.GOLDEN_PATH, "wb", mtime=0) as fh:
        fh.write(json.dumps({"universe": universe, "digests": digests},
                            sort_keys=True).encode("utf-8"))
    print(f"{len(digests)} digests, {len(sample)} checked in children",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
