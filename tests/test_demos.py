"""Every demo script runs to completion and prints exactly its pinned text."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# sha256 of each demo's stdout; the output does not depend on PYTHONHASHSEED
DIGESTS = {
    "01_root_systems_and_weyl_groups.py":
        "38c3f06cdca497448f44e1d0f2bd9bd88e206303797c500ab0aa0f5ff6f18bf8",
    "02_hessenberg_spaces.py":
        "379491ec4d3607026cdd1125d18577d13e32021471baa79da290e13d034bd1fb",
    "03_paving_and_betti_numbers.py":
        "35563025039fc3cc49e9fb7e7e0bdcebd0a84f2c0e60ecec8a1136565be721be",
    "04_lemma_verification.py":
        "c463a0dfe0c9a50c24e39185649cd33b8b82b7e173d8342e140dc7e50b75ed2e",
    "05_finite_field_counts.py":
        "64cc014a3f902a046353f755a898f0cb329ca01a939dd3a5a90efeb776c0ceed",
    "06_witness_points.py":
        "253b3a238d9d521ca104338802f7f23148db11f55052d12d64624fdd4026bb03",
}


@pytest.mark.parametrize("script", sorted((ROOT / "demos").glob("*.py")),
                         ids=lambda p: p.name)
def test_demo_runs(script):
    proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                          timeout=300,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DIGESTS[script.name], \
        proc.stdout.decode()
