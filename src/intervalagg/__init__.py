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
import sys
import types

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


_PACKAGE = sys.modules[__name__]
