"""Every exported name resolves, so a deleted function cannot linger in
an `__all__`, and every call the benchmark traces still exists."""
import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

MODULES = ["cubewrap", "cubewrap.maps", "cubewrap.quotient", "cubewrap.sections", "cubewrap.topology"]

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


def test_every_traced_call_resolves():
    # spans.py is loaded from its file, not as a package, and only read.
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for name in MODULES + ["cubewrap.cli"]:
        importlib.import_module(name)
    targets = spans.Tracer("exports").targets()
    assert {entry for *_, entry in targets} == set(spans.TRACED)


SRC = Path(__file__).resolve().parents[1] / "src" / "cubewrap"


def _module_private_names(tree):
    """Private (single-underscore) names a module defines at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def test_every_private_name_is_used_in_src():
    """A module-level private name nothing in src/ reads, such as a
    helper left only for the tests, is dead code."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in sorted(_module_private_names(tree) - used)
    ]
    assert not unused, f"private names no code in src/ reads: {unused}"
