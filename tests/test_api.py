import importlib
import pickle
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


def _through_worker_pickler(value):
    """``value`` pickled as the sample worker's request pickles its args."""
    from intervalagg import _worker
    from intervalagg.axioms import _outcomes

    request = _worker._request(_outcomes, (value,), [(0, 1)])
    assert request is not None, f"the worker's pickler refused {value!r}"
    return pickle.loads(request)[0][0]


def _value_cases():
    from intervalagg.axioms import AxiomTally

    interval = intervalagg.Interval(0, 1)
    config = intervalagg.AuditConfig(3, 5, 1, ("Anonymity",))
    # (build, the repr its dataclass wrote, the constructor's fields, in
    # order, which are the compared ones, __match_args__, frozen)
    return {
        "AxiomCheck": (
            lambda: intervalagg.AxiomCheck("Unanimity"),
            "AxiomCheck(axiom='Unanimity', witness=None)",
            ("axiom", "witness"), ("axiom",), True,
        ),
        "AxiomTally": (
            lambda: AxiomTally(3, 1, 0, {"k": 2}),
            "AxiomTally(samples=3, failures=1, eval_errors=0, first_witness={'k': 2})",
            ("samples", "failures", "eval_errors", "first_witness"),
            ("samples", "failures", "eval_errors", "first_witness"), False,
        ),
        "AuditReport": (
            lambda: intervalagg.AuditReport(
                "median", config, {"Anonymity": AxiomTally(5)},
                abort_axiom="Anonymity", abort_reason="boom",
            ),
            "AuditReport(rule_name='median', config=AuditConfig(n_agents=3, samples=5, "
            "seed=1, axioms=('Anonymity',)), tallies={'Anonymity': AxiomTally(samples=5, "
            "failures=0, eval_errors=0, first_witness=None)}, abort_axiom='Anonymity', "
            "abort_reason='boom')",
            ("rule_name", "config", "tallies", "abort_axiom", "abort_reason"),
            ("rule_name", "config", "tallies"), False,
        ),
        "WeightedL1Preference": (
            lambda: intervalagg.WeightedL1Preference(interval, 2.0, 0.5),
            "WeightedL1Preference(peak=Interval(0.0, 1.0), lower_weight=2.0, "
            "upper_weight=0.5)",
            ("peak", "lower_weight", "upper_weight"),
            ("peak", "lower_weight", "upper_weight"), True,
        ),
        "PenaltyPreference": (
            lambda: intervalagg.PenaltyPreference(interval, intervalagg.Interval(-1, 3)),
            "PenaltyPreference(peak=Interval(0.0, 1.0), reference=Interval(-1.0, 3.0))",
            ("peak", "reference"), ("peak", "reference"), True,
        ),
        "GridConfig": (
            lambda: intervalagg.GridConfig(5, 7, [intervalagg.Interval(2, 3)]),
            "GridConfig(random_candidates=5, seed=7, "
            "extra_candidates=(Interval(2.0, 3.0),))",
            ("random_candidates", "seed", "extra_candidates"),
            ("random_candidates", "seed", "extra_candidates"), True,
        ),
        "ManipulationResult": (
            lambda: intervalagg.ManipulationResult(
                truthful_outcome=interval, misreport=intervalagg.Interval(-1, 2),
                manipulated_outcome=intervalagg.Interval(0, 2), cost_drop=0.25,
            ),
            "ManipulationResult(truthful_outcome=Interval(0.0, 1.0), "
            "misreport=Interval(-1.0, 2.0), manipulated_outcome=Interval(0.0, 2.0), "
            "cost_drop=0.25)",
            ("truthful_outcome", "misreport", "manipulated_outcome", "cost_drop"),
            (), True,
        ),
        "MonotoneMap": (
            lambda: intervalagg.MonotoneMap.through([(0, 0), (1, 2), (3, 2.5)]),
            "MonotoneMap(breakpoints=((0.0, 0.0), (1.0, 2.0), (3.0, 2.5)), "
            "left_slope=2.0, right_slope=0.25, affine=False, increasing=True)",
            ("breakpoints", "left_slope", "right_slope", "affine"),
            ("breakpoints", "left_slope", "right_slope", "affine"), True,
        ),
    }


# The eight value types that were dataclasses keep what their dataclass
# gave them.
@pytest.mark.parametrize("case", _value_cases().values(), ids=_value_cases())
def test_value_types_behave_as_their_dataclasses_did(case):
    build, text, fields, positional, frozen = case
    value = build()
    cls = type(value)
    values = tuple(getattr(value, name) for name in fields)
    assert repr(value) == text
    assert cls.__match_args__ == positional
    # Equality within the class only, by fields.
    assert value == build() and not value != build()
    assert value != values and value.__eq__(values) is NotImplemented
    split = len(positional)
    assert cls(*values[:split], **dict(zip(fields[split:], values[split:]))) == value
    if split < len(fields):  # the rest are keyword-only
        with pytest.raises(TypeError, match="positional argument"):
            cls(*values)
    if frozen:
        assert hash(value) == hash(values)
        for change in (lambda: setattr(value, fields[-1], None),
                       lambda: delattr(value, fields[-1])):
            with pytest.raises(AttributeError):
                change()
        assert repr(value) == text
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
        setattr(value, fields[-1], None)
        assert getattr(value, fields[-1]) is None
        value = build()
    copied = _through_worker_pickler(value)
    assert type(copied) is cls and copied == value and repr(copied) == text


def test_an_unpickled_map_is_checked_again():
    mapping = intervalagg.MonotoneMap.through([(0, 0), (1, 2), (3, 2.5)])
    object.__setattr__(mapping, "breakpoints", ((0.0, 0.0), (1.0, 2.0), (2.0, 1.0)))
    with pytest.raises(ValueError, match="strictly monotone"):
        _through_worker_pickler(mapping)
