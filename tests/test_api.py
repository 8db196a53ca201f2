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


def test_each_submodule_all_is_its_group_in_the_package_table():
    for home in set(intervalagg._EXPORTS.values()):
        module = importlib.import_module(f"intervalagg.{home}")
        group = [name for name, where in intervalagg._EXPORTS.items() if where == home]
        assert module.__all__ == group, home
    # Pruned from the package surface, still importable from their module.
    from intervalagg.axioms import TRANSFORM_TOL, AxiomTally  # noqa: F401


# Parameters that no caller set are gone: passing one is a TypeError.
@pytest.mark.parametrize("call", [
    lambda: intervalagg.MonotoneMap.through([(0, 0), (1, 1)], left_slope=1.0),
    lambda: intervalagg.MonotoneMap.through([(0, 0), (1, 1)], right_slope=1.0),
    lambda: intervalagg.phantom_rule_handle(
        intervalagg.endpoint_rule_phantoms(1, 1, 1), name="custom"
    ),
    lambda: importlib.import_module("intervalagg.cli").profile_to_document(
        intervalagg.Profile([intervalagg.Interval(0, 1)]), labels=["a"]
    ),
    lambda: intervalagg.MonotoneMap.affine_map(1.0, intercept=0.5),
    lambda: intervalagg.GridConfig(margin_deltas=(1.0,)),
    lambda: intervalagg.MonotoneMap(((0, 0), (1, 1)), 1.0, 1.0, increasing=True),
    lambda: intervalagg.AxiomCheck("X", passed=True),
    lambda: intervalagg.ManipulationResult(
        found=False, truthful_outcome=intervalagg.Interval(0, 1)
    ),
], ids=["left_slope", "right_slope", "name", "labels", "intercept", "margin_deltas",
        "increasing", "passed", "found"])
def test_removed_parameters_are_type_errors(call):
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        call()


# A result flag is read off its payload; a call that still passes the flag
# in its old place must fail, not bind it to the next field.
@pytest.mark.parametrize("call", [
    lambda: intervalagg.AxiomCheck("X", True),
    lambda: intervalagg.ManipulationResult(False, intervalagg.Interval(0, 1)),
    lambda: importlib.import_module("intervalagg.axioms").AuditReport(
        "rule", None, {}, True
    ),
], ids=["AxiomCheck", "ManipulationResult", "AuditReport"])
def test_old_positional_flags_are_type_errors(call):
    with pytest.raises(TypeError, match="positional argument"):
        call()


def test_result_flags_follow_their_payloads():
    interval = intervalagg.Interval(0, 1)
    assert intervalagg.AxiomCheck("X").passed
    assert not intervalagg.AxiomCheck("X", witness={"axiom": "X"}).passed
    assert not intervalagg.ManipulationResult(truthful_outcome=interval).found
    assert intervalagg.ManipulationResult(
        truthful_outcome=interval, misreport=interval
    ).found
    report = importlib.import_module("intervalagg.axioms").AuditReport
    assert not report("rule", None, {}).aborted
    assert report("rule", None, {}, abort_axiom="Anonymity").aborted


def test_no_submodule_is_named_after_a_public_name():
    submodules = {info.name for info in pkgutil.iter_modules(intervalagg.__path__)}
    assert "axioms" in submodules
    assert not submodules & set(intervalagg.__all__)


@pytest.mark.parametrize("name", MODULES[1:])
def test_import_as_binds_the_module(name):
    namespace = {}
    exec(f"import {name} as m", namespace)
    assert namespace["m"] is sys.modules[name]
