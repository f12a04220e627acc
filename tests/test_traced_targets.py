"""The benchmark's traced layer names still exist in the library, and a
pass of each gated workload still reaches them."""

import ast
import importlib
import importlib.util
import json
import random
import subprocess
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACED = PERFBENCH / "traced.py"
RUN = PERFBENCH / "run.py"


def _targets():
    tree = ast.parse(TRACED.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TARGETS"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS list in {TRACED}")


def test_every_traced_target_is_a_library_callable():
    """Each (module, attribute) that perfbench/traced.py wraps must still be
    a callable of hessenpave.<module>; a rename would otherwise surface only
    when the traced benchmark runs."""
    targets = _targets()
    assert targets
    for module, attr, _ in targets:
        mod = importlib.import_module(f"hessenpave.{module}")
        assert callable(getattr(mod, attr, None)), f"{module}.{attr}"


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


@pytest.mark.parametrize("workload", ["queries", "certify"])
def test_one_pass_reaches_every_expected_layer(workload, tmp_path):
    """One pass of a gated workload, each command run through
    perfbench/traced.py as the traced benchmark runs it, calls every name
    in ``EXPECTED_CALLS[workload]``.  The traced run reports its outputs
    as incorrect when a name is never called, so a library change that
    stops reaching a layer (say, ``linalg.sp_mul`` on ``certify``, which
    only ``build_chevalley`` calls there) would otherwise surface only
    when the benchmark runs."""
    run = _load_run()
    universe = run.load_golden()["universe"]
    ops = run.WORKLOADS[workload](random.Random(f"perfbench:{workload}:0"),
                                  universe)
    trace_path = tmp_path / "trace.json"
    called = set()
    for argv in ops:
        child = subprocess.run(run.traced_cmd(argv, str(trace_path)),
                               cwd=run.ROOT, env=run.CHILD_ENV,
                               stdout=subprocess.DEVNULL,
                               stderr=subprocess.PIPE, timeout=120)
        assert child.returncode == 0, (argv, child.stderr)
        names = json.loads(trace_path.read_text(encoding="utf-8"))["names"]
        called.update(name for name, (calls, _) in names.items() if calls)
    missing = [n for n in run.EXPECTED_CALLS[workload] if n not in called]
    assert not missing, f"never called on {workload}: {missing}"
