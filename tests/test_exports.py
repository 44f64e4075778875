"""Every exported name resolves, so a deleted function cannot linger in
an `__all__`."""
import importlib

import pytest

MODULES = ["cubewrap", "cubewrap.maps", "cubewrap.quotient", "cubewrap.sections", "cubewrap.topology"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"

