import importlib
import pkgutil
import sys

import pytest

import intervalagg

# Read off the package's own table, so a renamed module leaves no stale entry.
MODULES = ["intervalagg", "intervalagg.cli"] + sorted(
    {f"intervalagg.{module}" for module in intervalagg._EXPORTS.values()}
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [public for public in module.__all__ if not hasattr(module, public)]
    assert missing == [], f"{name}.__all__ lists names it does not define"
    exec(f"from {name} import *", {})


def test_no_submodule_is_named_after_a_public_name():
    submodules = {info.name for info in pkgutil.iter_modules(intervalagg.__path__)}
    assert "axioms" in submodules
    assert not submodules & set(intervalagg.__all__)


@pytest.mark.parametrize("name", MODULES[1:])
def test_import_as_binds_the_module(name):
    namespace = {}
    exec(f"import {name} as m", namespace)
    assert namespace["m"] is sys.modules[name]
