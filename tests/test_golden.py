"""Byte identity against the benchmark's golden digests.

``perfbench/golden.json.gz`` maps each command line the benchmark can run
to the first 16 hex digits of the sha256 of its stdout.  This test replays
a fixed, seeded sample of those command lines through ``cli.main`` in this
process and compares the digests: every subcommand, and every root system
of the golden query universe for each per-system subcommand.  It only reads
the file.  ``test_every_output_matches_golden_digests`` replays all 14,101
entries; it carries the ``full_golden`` marker, which the default pytest
options deselect, and runs with ``pytest -m full_golden tests/test_golden.py``
(``perfbench/make_golden.py`` shows how the digests are made).
"""

import functools
import gzip
import hashlib
import json
import random
import shlex
from pathlib import Path

import pytest

from hessenpave import cli, liealg

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json.gz"
DIGEST_HEX = 16
SEED = 2026
# command lines drawn per (subcommand, system) of the query universe
PER_SYSTEM = 2
# sweeps over more cells than this (D5 json: 349,440 cells, about 5 s and
# 450 MB in-process) are left to the full replay
SWEEP_CELLS = 100_000


@pytest.fixture(scope="module")
def golden():
    with gzip.open(GOLDEN, "rt", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def sample(golden):
    return _sample(golden)


def _sample(golden) -> list[str]:
    """The replayed keys: ``PER_SYSTEM`` seeded draws for each subcommand
    and system of the universe, one seeded ``verify-lemmata`` seed per
    system, every ``count-points`` case and every sweep within
    ``SWEEP_CELLS``."""
    groups: dict[tuple, list[str]] = {}
    for key, (_, cells) in golden["digests"].items():
        argv = shlex.split(key)
        if argv[0] == "sweep" and cells > SWEEP_CELLS:
            continue
        whole = argv[0] in ("sweep", "count-points")
        system = "" if whole else argv[2] + argv[4]
        groups.setdefault((argv[0], system), []).append(key)
    rng = random.Random(SEED)
    out = []
    for (command, _), keys in sorted(groups.items()):
        keys.sort()
        if command in ("sweep", "count-points"):
            out += keys
        elif command == "verify-lemmata":
            out.append(rng.choice(keys))
        else:
            out += rng.sample(keys, min(PER_SYSTEM, len(keys)))
    return out


def test_sample_covers_every_subcommand_and_system(golden, sample):
    argvs = [shlex.split(key) for key in sample]
    commands = {key.split()[0] for key in golden["digests"]}
    assert {argv[0] for argv in argvs} == commands
    for command in commands - {"sweep", "count-points", "verify-lemmata"}:
        systems = {argv[2] + argv[4] for argv in argvs if argv[0] == command}
        assert systems == set(golden["universe"]), command


def test_sampled_outputs_match_golden_digests(golden, sample, capsys,
                                              monkeypatch):
    monkeypatch.delenv("HESSENPAVE_SEED", raising=False)
    differ = []
    for key in sample:
        code = cli.main(shlex.split(key))
        out = capsys.readouterr().out.encode("utf-8")
        digest = hashlib.sha256(out).hexdigest()[:DIGEST_HEX]
        if code != 0 or digest != golden["digests"][key][0]:
            differ.append(key)
    assert differ == []


@pytest.mark.full_golden
def test_every_output_matches_golden_digests(golden, capsys, monkeypatch):
    """Every command line of the golden file gives its digest, with exit
    code 0.  Root systems and realizations are reused across command
    lines, as ``perfbench/make_golden.py`` reuses them to make the digests:
    about 20 s and 500 MB peak on a 2-vCPU Xeon."""
    monkeypatch.delenv("HESSENPAVE_SEED", raising=False)
    monkeypatch.setattr(cli, "RootSystem",
                        functools.lru_cache(maxsize=None)(cli.RootSystem))
    monkeypatch.setattr(liealg, "build_chevalley", functools.lru_cache(
        maxsize=None)(liealg.build_chevalley))
    differ = []
    for key, (want, _) in sorted(golden["digests"].items()):
        code = cli.main(shlex.split(key))
        out = capsys.readouterr().out.encode("utf-8")
        if code != 0 or hashlib.sha256(out).hexdigest()[:DIGEST_HEX] != want:
            differ.append(key)
    assert differ == [], f"{len(differ)} differ, first {differ[:5]}"
