"""Aggregation rules mapping a profile of interval judgments to one interval.

Two families live here.  Order-statistic rules pick the aggregate lower
endpoint as the ``lower_quota``-th smallest individual lower endpoint and
the aggregate upper endpoint as the ``upper_quota``-th largest individual
upper endpoint; the quota constraint ``lower_quota + upper_quota <= n + 1``
is exactly what keeps the output nonempty on every profile.  Generalized
median rules pool the ``n`` judgments with ``n + 1`` fixed phantom
intervals (extended bounds allowed) and take the coordinatewise median of
the ``2n + 1`` values.  Every order-statistic rule equals the generalized
median over a specific phantom vector, and the conversion is provided.

The averaging rule, included as a contrast case, takes the arithmetic mean
of lower and upper endpoints.  Its means are computed through exact
rational sums with a single correctly rounded division, so the output is
invariant under reordering the agents and reproduces unanimous input
endpoints bit-exactly, which the exact anonymity and unanimity checks
rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

from .core import (
    NEG_INF,
    POS_INF,
    ExtendedInterval,
    Interval,
    Profile,
)

__all__ = [
    "RuleEvaluationError",
    "EndpointRuleParams",
    "endpoint_rule",
    "median_rule",
    "maximal_rule",
    "averaging_rule",
    "PhantomVector",
    "validate_phantoms",
    "endpoint_rule_phantoms",
    "generalized_median",
    "RuleHandle",
    "endpoint_rule_handle",
    "median_rule_handle",
    "maximal_rule_handle",
    "averaging_rule_handle",
    "phantom_rule_handle",
    "valid_quota_pairs",
]


class RuleEvaluationError(Exception):
    """A rule failed to produce an interval for a profile.

    Raised by external-process adapters on spawn failures, timeouts,
    nonzero exits and malformed output; audits count these separately
    from axiom failures.
    """


def _check_quotas(lower_quota: int, upper_quota: int, n_agents: int) -> None:
    for name, value in (
        ("lower_quota", lower_quota),
        ("upper_quota", upper_quota),
        ("n_agents", n_agents),
    ):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{name} must be an int, got {value!r}")
    if lower_quota < 1 or upper_quota < 1:
        raise ValueError(
            f"quotas must be >= 1, got ({lower_quota}, {upper_quota})"
        )
    if n_agents < 1:
        raise ValueError(f"n_agents must be >= 1, got {n_agents}")
    if lower_quota + upper_quota > n_agents + 1:
        raise ValueError(
            f"quotas ({lower_quota}, {upper_quota}) violate "
            f"lower_quota + upper_quota <= n_agents + 1 with "
            f"n_agents = {n_agents}; the rule could output an empty interval"
        )


@dataclass(frozen=True)
class EndpointRuleParams:
    """Validated parameter triple for an order-statistic rule.

    ``lower_quota`` is the rank (1-based, from below) of the individual
    lower endpoint that becomes the aggregate lower endpoint;
    ``upper_quota`` is the rank from above on the upper side.  Requires
    ``1 <= lower_quota``, ``1 <= upper_quota`` and
    ``lower_quota + upper_quota <= n_agents + 1``.
    """

    lower_quota: int
    upper_quota: int
    n_agents: int

    def __post_init__(self) -> None:
        _check_quotas(self.lower_quota, self.upper_quota, self.n_agents)


def _kth_smallest(values: list[float], k: int) -> float:
    """The ``k``-th smallest (1-based) of ``values``.

    The one sort-and-pick kernel: every order-statistic rule, generalized
    medians included, selects its endpoints through it.
    """
    return sorted(values)[k - 1]


def _select(
    profile: Sequence[Interval],
    lo_rank: int,
    hi_rank: int,
    pool_lows: Sequence[float] = (),
    pool_highs: Sequence[float] = (),
) -> Interval:
    """Interval of the ``lo_rank``-th smallest lower and the ``hi_rank``-th
    smallest upper endpoint, over the judgments pooled with extra
    (phantom) bounds.  An upper quota ``q`` is the rank ``n + 1 - q``."""
    lows = [entry.lo for entry in profile]
    lows += pool_lows
    highs = [entry.hi for entry in profile]
    highs += pool_highs
    return Interval(_kth_smallest(lows, lo_rank), _kth_smallest(highs, hi_rank))


def _rank_bounds(values: list[float], k: int) -> tuple[float, float]:
    # The k-th smallest of values plus one more x is x clamped between the
    # (k-1)-th and the k-th smallest of values; a bound whose rank is 0 or
    # past the end does not constrain x.
    ordered = sorted(values)
    floor = ordered[k - 2] if k > 1 else NEG_INF
    ceiling = ordered[k - 1] if k <= len(ordered) else POS_INF
    return floor, ceiling


def _vary_select(
    profile: Profile,
    index: int,
    lo_rank: int,
    hi_rank: int,
    pool_lows: Sequence[float] = (),
    pool_highs: Sequence[float] = (),
) -> Callable[[Interval], Interval]:
    """``report -> _select(profile.replace_agent(index, report), ...)``,
    with the other agents' endpoints ranked once instead of per report."""
    others = profile[:index] + profile[index + 1 :]
    lo_floor, lo_ceiling = _rank_bounds(
        [entry.lo for entry in others] + list(pool_lows), lo_rank
    )
    hi_floor, hi_ceiling = _rank_bounds(
        [entry.hi for entry in others] + list(pool_highs), hi_rank
    )

    def outcome(report: Interval) -> Interval:
        return Interval(
            min(max(report.lo, lo_floor), lo_ceiling),
            min(max(report.hi, hi_floor), hi_ceiling),
        )

    return outcome


def _median_ranks(n_agents: int) -> tuple[int, int]:
    mid = (n_agents + 1) // 2
    return mid, n_agents + 1 - mid


def endpoint_rule(params: EndpointRuleParams, profile: Sequence[Interval]) -> Interval:
    """Order-statistic aggregate under ``params``.

    Lower endpoint: the ``lower_quota``-th smallest individual lower
    endpoint.  Upper endpoint: the ``upper_quota``-th largest individual
    upper endpoint.  The quota constraint guarantees a strictly positive
    width on every profile of the declared size.
    """
    if len(profile) != params.n_agents:
        raise ValueError(
            f"profile has {len(profile)} agents, params expect {params.n_agents}"
        )
    return _select(
        profile, params.lower_quota, params.n_agents + 1 - params.upper_quota
    )


def median_rule(profile: Sequence[Interval]) -> Interval:
    """Symmetric rule with both quotas at ``(n + 1) // 2``.

    For odd ``n`` both aggregate endpoints are the coordinatewise medians
    of the individual endpoints; for even ``n`` they are the lower of the
    two middle lower endpoints and the upper of the two middle uppers.
    """
    return _select(profile, *_median_ranks(len(profile)))


def maximal_rule(profile: Sequence[Interval]) -> Interval:
    """Quota pair (1, 1): the smallest interval containing every judgment."""
    return Interval(
        min(entry.lo for entry in profile),
        max(entry.hi for entry in profile),
    )


def _exact_mean(values: list[float]) -> float:
    # Exact rational sum, then one correctly rounded division.  Gives a
    # mean that is permutation invariant and exactly reproduces constant
    # inputs, which fsum(values)/n does not (e.g. three copies of 0.1).
    return float(sum(Fraction(value) for value in values) / len(values))


def averaging_rule(profile: Sequence[Interval]) -> Interval:
    """Endpointwise arithmetic mean; the non-strategyproof contrast case.

    Means are exactly rounded, so the rule is bit-exactly anonymous and
    unanimous even though it fails neutrality and out-between-ness.
    """
    if len(profile) == 0:
        raise ValueError("profile needs at least one agent")
    return Interval(
        _exact_mean([entry.lo for entry in profile]),
        _exact_mean([entry.hi for entry in profile]),
    )


def _mean_with(rest: Fraction, value: float, n_agents: int) -> float:
    # float((rest + Fraction(value)) / n_agents) without building Fractions.
    # Both divide integers with Python's correctly rounded true division, so
    # any representation of the same rational gives the same float.
    num, den = value.as_integer_ratio()
    return (rest.numerator * den + num * rest.denominator) / (
        rest.denominator * den * n_agents
    )


def _vary_averaging(profile: Profile, index: int) -> Callable[[Interval], Interval]:
    # The exact sums of the other agents' endpoints are kept, so each report
    # costs one rational addition and one correctly rounded division and
    # reproduces averaging_rule bit for bit.
    n = len(profile)
    others = profile[:index] + profile[index + 1 :]
    lo_rest = sum(Fraction(entry.lo) for entry in others)
    hi_rest = sum(Fraction(entry.hi) for entry in others)

    def outcome(report: Interval) -> Interval:
        return Interval(
            _mean_with(lo_rest, report.lo, n), _mean_with(hi_rest, report.hi, n)
        )

    return outcome


@dataclass(frozen=True)
class PhantomVector:
    """Fixed tuple of ``n + 1`` phantom intervals for a generalized median.

    Construction only checks shape (a nonempty tuple of
    :class:`ExtendedInterval`); whether the vector is *valid* for a given
    number of agents, i.e. guarantees a bounded nonempty aggregate on
    every profile, is the job of :func:`validate_phantoms`.
    """

    phantoms: tuple[ExtendedInterval, ...]

    def __post_init__(self) -> None:
        entries = tuple(self.phantoms)
        if not entries:
            raise ValueError("phantom vector must be nonempty")
        for pos, entry in enumerate(entries):
            if not isinstance(entry, ExtendedInterval):
                raise TypeError(
                    f"phantom {pos} is not an ExtendedInterval: {entry!r}"
                )
        object.__setattr__(self, "phantoms", entries)

    def __len__(self) -> int:
        return len(self.phantoms)

    def __iter__(self) -> Iterator[ExtendedInterval]:
        return iter(self.phantoms)


def validate_phantoms(vector: PhantomVector, n_agents: int) -> Optional[str]:
    """Check a phantom vector against a profile size.

    Returns ``None`` when valid, else a human-readable reason.  The
    conditions: exactly ``n_agents + 1`` phantoms, and each of the
    following counts at most ``n_agents``:

    * phantoms with lower bound ``-inf``,
    * phantoms with upper bound ``+inf``,
    * copies of ``(+inf, +inf)``,
    * copies of ``(-inf, -inf)``.

    These four bounds are exactly what rules out an unbounded or empty
    aggregate: if the pooled median came out invalid, more than
    ``n_agents`` of the ``2n + 1`` pooled intervals would have to push
    the same endpoint past the other side, and the ``n_agents`` real
    judgments are finite.
    """
    if n_agents < 1:
        raise ValueError(f"n_agents must be >= 1, got {n_agents}")
    size = len(vector)
    if size != n_agents + 1:
        return (
            f"phantom vector has {size} entries, "
            f"needs n_agents + 1 = {n_agents + 1}"
        )
    lo_neg_inf = sum(1 for ph in vector if ph.lo == NEG_INF)
    hi_pos_inf = sum(1 for ph in vector if ph.hi == POS_INF)
    all_pos_inf = sum(1 for ph in vector if ph.lo == POS_INF)
    all_neg_inf = sum(1 for ph in vector if ph.hi == NEG_INF)
    if lo_neg_inf > n_agents:
        return (
            f"{lo_neg_inf} phantoms have lower bound -inf, "
            f"at most {n_agents} allowed: the aggregate lower bound "
            "could be -inf"
        )
    if hi_pos_inf > n_agents:
        return (
            f"{hi_pos_inf} phantoms have upper bound +inf, "
            f"at most {n_agents} allowed: the aggregate upper bound "
            "could be +inf"
        )
    if all_pos_inf > n_agents:
        return (
            f"{all_pos_inf} phantoms equal (+inf, +inf), "
            f"at most {n_agents} allowed: the aggregate could be empty "
            "from above"
        )
    if all_neg_inf > n_agents:
        return (
            f"{all_neg_inf} phantoms equal (-inf, -inf), "
            f"at most {n_agents} allowed: the aggregate could be empty "
            "from below"
        )
    return None


def endpoint_rule_phantoms(
    lower_quota: int, upper_quota: int, n_agents: int
) -> PhantomVector:
    """Phantom vector whose generalized median equals the order-statistic rule.

    ``lower_quota`` copies of ``(+inf, +inf)``, then ``upper_quota``
    copies of ``(-inf, -inf)``, then ``n_agents + 1 - lower_quota -
    upper_quota`` copies of ``(-inf, +inf)``.  The high phantoms push the
    pooled lower median up to the ``lower_quota``-th smallest real lower
    endpoint; the low phantoms mirror this on the upper side; the
    whole-line phantoms are neutral.
    """
    _check_quotas(lower_quota, upper_quota, n_agents)
    top = ExtendedInterval(POS_INF, POS_INF)
    bottom = ExtendedInterval(NEG_INF, NEG_INF)
    whole = ExtendedInterval(NEG_INF, POS_INF)
    entries = (
        (top,) * lower_quota
        + (bottom,) * upper_quota
        + (whole,) * (n_agents + 1 - lower_quota - upper_quota)
    )
    return PhantomVector(entries)


def generalized_median(vector: PhantomVector, profile: Sequence[Interval]) -> Interval:
    """Coordinatewise median of the ``n`` judgments pooled with the phantoms.

    With ``2n + 1`` pooled intervals the aggregate lower endpoint is the
    ``(n + 1)``-th smallest pooled lower bound and the aggregate upper
    endpoint the ``(n + 1)``-th largest pooled upper bound.  Rejects
    phantom vectors that fail :func:`validate_phantoms` for this profile
    size, so the result is always a bounded nonempty interval.
    """
    n = len(profile)
    _require_valid_phantoms(vector, n)
    # 2n + 1 pooled values: the (n+1)-th smallest is also the (n+1)-th largest.
    return _select(profile, n + 1, n + 1, *_phantom_pools(vector))


def _require_valid_phantoms(vector: PhantomVector, n_agents: int) -> None:
    reason = validate_phantoms(vector, n_agents)
    if reason is not None:
        raise ValueError(f"invalid phantom vector: {reason}")


def _phantom_pools(vector: PhantomVector) -> tuple[tuple[float, ...], tuple[float, ...]]:
    return (
        tuple(ph.lo for ph in vector.phantoms),
        tuple(ph.hi for ph in vector.phantoms),
    )


@dataclass(frozen=True)
class RuleHandle:
    """Named callable wrapper giving every rule a uniform face.

    ``evaluate`` maps a :class:`Profile` to an :class:`Interval`; the
    handle itself is callable.  Audit reports and CLI output use ``name``.
    ``incremental``, when given, backs :meth:`vary_agent` with a faster
    path that must agree with ``evaluate`` bit for bit; handles built
    without it fall back to full evaluation.
    """

    name: str
    evaluate: Callable[[Profile], Interval]
    incremental: Optional[
        Callable[[Profile, int], Callable[[Interval], Interval]]
    ] = None

    def __call__(self, profile: Profile) -> Interval:
        return self.evaluate(profile)

    def vary_agent(
        self, profile: Profile, index: int
    ) -> Callable[[Interval], Interval]:
        """The rule's outcome as a function of agent ``index``'s report.

        ``handle.vary_agent(profile, i)(report)`` equals
        ``handle(profile.replace_agent(i, report))``.  Order-statistic and
        averaging handles precompute what the other agents contribute, so
        each report costs a clamp or one exact addition instead of a
        profile rebuild and a full evaluation.
        """
        if not 0 <= index < len(profile):
            raise IndexError(
                f"agent index {index} out of range for {len(profile)} agents"
            )
        if self.incremental is not None:
            return self.incremental(profile, index)
        return lambda report: self(profile.replace_agent(index, report))


def endpoint_rule_handle(lower_quota: int, upper_quota: int) -> RuleHandle:
    """Handle for the order-statistic rule with the given quotas.

    Profile size is checked per call against the quota constraint, so one
    handle serves any ``n`` with ``lower_quota + upper_quota <= n + 1``.
    """
    _check_quotas(lower_quota, upper_quota, lower_quota + upper_quota)

    def ranks(n: int) -> tuple[int, int]:
        if lower_quota + upper_quota > n + 1:
            raise ValueError(
                f"quotas ({lower_quota}, {upper_quota}) invalid for "
                f"{n} agents"
            )
        return lower_quota, n + 1 - upper_quota

    return _order_statistic_handle(
        f"endpoint:{lower_quota},{upper_quota}", ranks
    )


def _order_statistic_handle(
    name: str,
    ranks: Callable[[int], tuple[int, int]],
    pool_lows: Sequence[float] = (),
    pool_highs: Sequence[float] = (),
) -> RuleHandle:
    """Handle selecting the endpoint ranks ``ranks(n)`` from the judgments
    pooled with fixed extra bounds, with the one-agent fast path."""

    def evaluate(profile: Sequence[Interval]) -> Interval:
        return _select(profile, *ranks(len(profile)), pool_lows, pool_highs)

    def incremental(profile: Profile, index: int) -> Callable[[Interval], Interval]:
        return _vary_select(
            profile, index, *ranks(len(profile)), pool_lows, pool_highs
        )

    return RuleHandle(name, evaluate, incremental)


def median_rule_handle() -> RuleHandle:
    return _order_statistic_handle("median", _median_ranks)


def maximal_rule_handle() -> RuleHandle:
    # maximal_rule keeps its O(n) min/max; reports vary as rule (1, 1).
    return RuleHandle(
        "maximal",
        maximal_rule,
        lambda profile, index: _vary_select(profile, index, 1, len(profile)),
    )


def averaging_rule_handle() -> RuleHandle:
    return RuleHandle("averaging", averaging_rule, _vary_averaging)


def phantom_rule_handle(vector: PhantomVector, name: Optional[str] = None) -> RuleHandle:
    """Handle for the generalized median over a fixed phantom vector.

    The vector is validated once per profile size rather than per call.
    """
    if name is None:
        name = f"phantoms[{len(vector)}]"
    valid_sizes: set[int] = set()

    def ranks(n: int) -> tuple[int, int]:
        if n not in valid_sizes:
            _require_valid_phantoms(vector, n)
            valid_sizes.add(n)
        return n + 1, n + 1

    return _order_statistic_handle(name, ranks, *_phantom_pools(vector))


def valid_quota_pairs(n_agents: int) -> list[tuple[int, int]]:
    """All quota pairs admissible for ``n_agents``, lexicographically."""
    if n_agents < 1:
        raise ValueError(f"n_agents must be >= 1, got {n_agents}")
    return [
        (lower, upper)
        for lower in range(1, n_agents + 1)
        for upper in range(1, n_agents + 2 - lower)
    ]
