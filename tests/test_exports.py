"""Every name a package exports in __all__ can be imported from it, so a
stale export fails here and not at a user's import."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["evomlp", "evomlp.pbmh"])
def test_every_exported_name_imports(module):
    namespace = {}
    exec(f"from {module} import *", namespace)
    exported = importlib.import_module(module).__all__
    assert len(set(exported)) == len(exported)
    assert set(exported) <= set(namespace)
