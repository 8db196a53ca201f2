"""Aggregation of interval judgments into a single community standard.

The package implements order-statistic aggregation rules over interval
judgments, their phantom-interval generalized-median form, single-peaked
preferences with a misreport search, and a property-testing audit engine
that checks any rule against the axioms the rules are characterised by
(responsiveness, anonymity, neutrality, translation equivariance,
continuity surrogate, independent endpoints, out-between-ness and
friends), with deterministic seeded campaigns and replayable witnesses.

Submodules load on first use (PEP 562): ``from intervalagg import X``
works for every name in ``__all__``, but ``import intervalagg`` alone
loads none of them, so a CLI subcommand pays only for what it runs.
No submodule is named after a public name, so ``intervalagg.axioms``,
``intervalagg.rules`` and the rest are always the modules.
"""

import importlib
import os
import sys
import types
from operator import attrgetter

__version__ = "0.1.0"

# The one list of public names, each under the submodule that defines it.
# Each submodule reads its ``__all__`` off this table; the table cannot be
# read off the submodules, since ``dir()`` must know it before any loads.
_EXPORTS = {
    name: module
    for module, names in (
        ("core", (
            "NEG_INF",
            "POS_INF",
            "Interval",
            "ExtendedInterval",
            "Profile",
            "ext_precedes",
            "scalar_between",
            "between",
            "subset",
            "endpoint_distance",
            "sample_profile",
        )),
        ("rules", (
            "PhantomVector",
            "RuleEvaluationError",
            "RuleHandle",
            "endpoint_rule_phantoms",
            "validate_phantoms",
            "endpoint_rule_handle",
            "median_rule_handle",
            "maximal_rule_handle",
            "averaging_rule_handle",
            "phantom_rule_handle",
            "valid_quota_pairs",
            "identify_endpoint_rule",
            "staircase_profile",
        )),
        ("transforms", (
            "MonotoneMap",
            "apply_map_interval",
            "apply_map_profile",
            "random_increasing_map",
            "map_to_data",
            "map_from_data",
        )),
        ("preferences", (
            "WeightedL1Preference",
            "PenaltyPreference",
            "Preference",
            "STRICT_IMPROVEMENT_EPS",
            "GridConfig",
            "ManipulationResult",
            "candidate_misreports",
            "find_manipulation",
        )),
        ("axioms", (
            "AxiomCheck",
            "AuditConfig",
            "AuditReport",
            "DEFAULT_AUDIT_AXIOMS",
            "ALL_AXIOM_IDS",
            "audit",
            "replay_witness",
            "check_responsiveness",
            "check_anonymity",
            "check_weak_neutrality",
            "check_strong_neutrality",
            "check_translation_equivariance",
            "check_continuity_lipschitz",
            "check_independent_endpoints",
            "check_out_betweenness",
            "check_lower_property",
            "check_upper_property",
            "check_unanimity",
            "check_manipulation",
        )),
    )
    for name in names
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    """Import the submodule behind ``name`` and bind all its public names."""
    module = _EXPORTS.get(name, name)
    if module not in _EXPORTS.values():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    namespace = globals()
    submodule = namespace.get(module) or _import(module)
    for public, home in _EXPORTS.items():
        if home == module:
            namespace[public] = getattr(submodule, public)
    return namespace[name] if name in _EXPORTS else submodule


def __dir__() -> list:
    return sorted(set(globals()) | set(_EXPORTS))


def _import(module: str) -> types.ModuleType:
    """Import submodule ``module`` of this copy of the package.

    A reload that drops the package from ``sys.modules`` and imports it
    anew can leave this copy in use.  A submodule it loads late must then
    be built on this copy's own ``core`` and ``rules``, not the new copy's,
    or its values would fail this copy's type checks; so this copy and the
    submodules bound onto it stand in ``sys.modules`` while the import runs.
    """
    prefix = __name__ + "."
    if sys.modules.get(__name__) is _PACKAGE:
        return importlib.import_module(prefix + module)

    def take_out() -> dict:
        return {
            key: sys.modules.pop(key)
            for key in list(sys.modules)
            if key == __name__ or key.startswith(prefix)
        }

    theirs = take_out()
    sys.modules[__name__] = _PACKAGE
    sys.modules.update(
        (value.__name__, value)
        for value in globals().values()
        if isinstance(value, types.ModuleType) and value.__name__.startswith(prefix)
    )
    try:
        return importlib.import_module(prefix + module)
    finally:
        take_out()
        sys.modules.update(theirs)


# What a record keeps of a function and compares: its code and defaults.
_STATE = attrgetter("__code__", "__defaults__", "__kwdefaults__")


def _record(namespace: dict) -> tuple:
    """Keep and return what the module whose globals are ``namespace`` holds.

    Each submodule that decides samples calls this as the last statement
    of its import.  The record, ``namespace["__record__"]``, holds the
    ``(st_mtime_ns, st_size)`` of the module's file (None if it has none)
    and copies of what the module runs: its names but the ``__`` ones
    (a warning adds ``__warningregistry__``), its containers, the dicts
    of its classes but the ``__slotnames__`` pickling caches, and the
    code and defaults of its functions and methods.
    """
    name = namespace["__name__"]
    try:
        stat = os.stat(namespace["__file__"])
        identity = (stat.st_mtime_ns, stat.st_size)
    except (KeyError, TypeError, OSError):  # built in, or read from an archive
        identity = None
    names = _names(namespace)
    classes = [v for v in names.values() if isinstance(v, type) and v.__module__ == name]
    functions = [v for v in names.values() if getattr(v, "__module__", None) == name]
    for value in (item for cls in classes for item in vars(cls).values()):
        if isinstance(value, property):
            functions += (value.fget, value.fset, value.fdel)
        else:
            functions.append(getattr(value, "__func__", value))  # class and static methods
    functions = [f for f in functions if isinstance(f, types.FunctionType)]
    containers = [v for v in names.values() if isinstance(v, (dict, list, set))]
    # Each live part beside what it was; keyword defaults are a dict too.
    record = (
        identity,
        dict(namespace),
        containers,
        [v.copy() for v in containers],
        classes,
        list(map(_class_dict, classes)),
        functions,
        [(c, d, k if k is None else dict(k)) for c, d, k in map(_STATE, functions)],
    )
    # The copy of the globals holds the record too, as the globals do.
    namespace["__record__"] = record[1]["__record__"] = record
    return record


def _identity(name: str) -> tuple | None:
    """The ``(st_mtime_ns, st_size)`` module ``name``'s file had when the
    module was imported, while the module still holds what :func:`_record`
    kept of it; None once it does not, or has no file.  A module without
    a record, one from outside the package, is recorded now."""
    namespace = vars(importlib.import_module(name))
    record = namespace.get("__record__") or _record(namespace)
    identity, copy, containers, copies, classes, dicts, functions, states = record
    unchanged = (
        (namespace == copy or _names(namespace) == _names(copy))
        and containers == copies
        and list(map(_class_dict, classes)) == dicts
        and list(map(_STATE, functions)) == states
    )
    return identity if unchanged else None


def _names(namespace: dict) -> dict:
    return {key: value for key, value in namespace.items() if not key.startswith("__")}


def _class_dict(cls: type) -> dict:
    kept = vars(cls).copy()
    kept.pop("__slotnames__", None)
    return kept


_PACKAGE = sys.modules[__name__]
