"""Every exported name resolves, so a deleted function cannot linger in
an `__all__`, every call the benchmark traces still exists, and every
name src/ defines has a reader outside the tests."""
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


def _spans():
    """perfbench/spans.py, loaded from its file, not as a package, and only read."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_call_resolves():
    spans = _spans()
    for name in MODULES + ["cubewrap.cli"]:
        importlib.import_module(name)
    targets = spans.Tracer("exports").targets()
    assert {entry for *_, entry in targets} == set(spans.TRACED)


SRC = Path(__file__).resolve().parents[1] / "src" / "cubewrap"
DEMOS = Path(__file__).resolve().parents[1] / "demos"


def _trees(folder):
    return {path.name: ast.parse(path.read_text()) for path in sorted(folder.glob("*.py"))}


def _read_names(trees):
    """Every name the modules read, as a Name (not stored to) or as an
    Attribute."""
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


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
    trees = _trees(SRC)
    used = _read_names(trees)
    unused = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in sorted(_module_private_names(tree) - used)
    ]
    assert not unused, f"private names no code in src/ reads: {unused}"


def _public_definitions(tree):
    """Public functions and classes a module defines at its top level, and
    the public methods of its classes, as (qualified name, name)."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            out += [
                (f"{node.name}.{item.name}", item.name)
                for item in node.body
                if isinstance(item, ast.FunctionDef)
            ]
    return [(q, n) for q, n in out if not n.startswith("_")]


def test_every_public_name_has_a_reader():
    """A public function, class or method is read in src/, named in a
    demo, or pinned by the benchmark's tracer; one only the tests read is
    a test-local reference.  `cmd_*` are exempt: `main` dispatches them
    by name."""
    trees = _trees(SRC)
    readers = _read_names(trees) | _read_names(_trees(DEMOS))
    readers |= {part for _, path, *_ in _spans().TRACED for part in path.split(".")}
    unread = [
        f"{module}:{qualified}"
        for module, tree in trees.items()
        for qualified, name in _public_definitions(tree)
        if name not in readers and not name.startswith("cmd_")
    ]
    assert not unread, f"public names nothing in src/, demos/ or TRACED reads: {unread}"
