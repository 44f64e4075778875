"""Every exported name resolves, so a deleted function cannot linger in
an `__all__`, and every call the benchmark traces still exists."""
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
