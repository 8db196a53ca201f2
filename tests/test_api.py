import importlib

import pytest

MODULES = [
    "intervalagg",
    "intervalagg.audit",
    "intervalagg.cli",
    "intervalagg.core",
    "intervalagg.preferences",
    "intervalagg.rules",
    "intervalagg.transforms",
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [public for public in module.__all__ if not hasattr(module, public)]
    assert missing == [], f"{name}.__all__ lists names it does not define"
    exec(f"from {name} import *", {})
