"""The benchmark's traced layer names still exist in the library."""

import ast
import importlib
from pathlib import Path

TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


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
