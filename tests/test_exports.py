import importlib

import pytest

MODULES = ("cumulants", "graphs", "kernels", "noise", "power_counting", "sim", "symbols")


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves_and_star_import_works(name):
    module = importlib.import_module(f"kpzlab.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []
    namespace: dict = {}
    exec(f"from kpzlab.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
