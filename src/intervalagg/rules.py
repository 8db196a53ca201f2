"""Aggregation rules mapping a profile of interval judgments to one interval.

Each rule has one face, a :class:`RuleHandle` built by a factory such as
:func:`endpoint_rule_handle`; audits, the misreport search and the CLI
all take handles.

Two families live here.  Order-statistic rules pick the aggregate lower
endpoint as the ``lower_quota``-th smallest individual lower endpoint and
the aggregate upper endpoint as the ``upper_quota``-th largest individual
upper endpoint; the quota constraint ``lower_quota + upper_quota <= n + 1``
is exactly what keeps the output nonempty on every profile.  Generalized
median rules pool the ``n`` judgments with ``n + 1`` fixed phantom
intervals (extended bounds allowed) and take the coordinatewise median of
the ``2n + 1`` values.  Every order-statistic rule equals the generalized
median over a specific phantom vector, and the conversion is provided.

Both families read one representation: the profile's lower and upper
endpoints, each sorted once per :class:`Profile` and shared by every
evaluation (any other sequence is sorted per call).  One kernel,
:func:`_kth_of_two`, takes the k-th smallest of a ranked list pooled with
a second sorted list: empty for quota rules, which makes it an index, and
the phantom bounds, sorted once per handle, for generalized medians, which
makes it a binary search.  The one-agent fast path ranks the other agents
by dropping the agent's own slot from the same lists.

The averaging rule, included as a contrast case, takes the arithmetic mean
of lower and upper endpoints.  Each mean is an exact integer sum in units
of ``2**-1074`` (every finite float is a multiple) with a single correctly
rounded division, so the output is invariant under reordering the agents
and reproduces unanimous input endpoints bit-exactly, which the exact
anonymity and unanimity checks rely on.

The identification probe, :func:`identify_endpoint_rule`, inverts
:func:`endpoint_rule_handle`.  An order-statistic rule's output on the
staircase profile ``((1,2), (3,4), ..., (2n-1, 2n))`` is
``(2p - 1, 2(n + 1 - q))``, so the quotas are read off it and then
confirmed against the reconstructed rule on seeded random profiles, in 16
sub-streams seeded from (seed, sub-stream), whatever the CPU count.  They
are the second range function of :mod:`intervalagg._worker`: a worker an
audit left live decides part of them, and none is started for them.
"""

from __future__ import annotations

import math
import random
import sys
from collections import namedtuple
from functools import partial
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import _EXPORTS, _record
from .core import (
    NEG_INF,
    POS_INF,
    ExtendedInterval,
    Interval,
    Profile,
    _check_agent,
    _check_int,
    _Frozen,
    _sample_profile,
)

__all__ = [name for name, home in _EXPORTS.items() if home == "rules"]


class RuleEvaluationError(Exception):
    """A rule failed to produce an interval for a profile.

    Raised by external-process adapters on spawn failures, timeouts,
    nonzero exits and malformed output; audits count these separately
    from axiom failures.
    """


def _kth_of_two(ranked: Sequence[float], pool: Sequence[float], k: int) -> float:
    """The ``k``-th smallest (1-based) of two sorted lists pooled.

    The one order-statistic kernel: every order-statistic rule,
    generalized medians included, selects its endpoints through it.  A
    binary search over how many of the first ``k`` pooled values come
    from ``ranked``, in O(log n); with an empty ``pool`` the search
    starts and ends at ``k``, so it is one index.
    """
    # The smallest split i with ranked[i] >= pool[k - i - 1]: then the first
    # k pooled values are ranked[:i] plus pool[:k - i].
    low = k - len(pool) if k > len(pool) else 0
    high = k if k < len(ranked) else len(ranked)
    while low < high:
        i = (low + high) // 2
        if ranked[i] < pool[k - i - 1]:
            low = i + 1
        else:
            high = i
    if low == 0:
        return pool[k - 1]
    if low == k:
        return ranked[k - 1]
    last_ranked, last_pooled = ranked[low - 1], pool[k - low - 1]
    return last_ranked if last_ranked > last_pooled else last_pooled


def _select(
    ranks: Callable[[int], tuple[int, int]],
    pool_lows: Sequence[float],
    pool_highs: Sequence[float],
    profile: Profile,
) -> Interval:
    """Interval of the ``lo_rank``-th smallest lower and the ``hi_rank``-th
    smallest upper endpoint, ``(lo_rank, hi_rank) = ranks(n)``, over the
    judgments pooled with extra (phantom) bounds.  An upper quota ``q`` is
    the rank ``n + 1 - q``.

    Reads the profile's ranked endpoints, so after a profile's first
    evaluation each call costs O(1) for quota rules and O(log n) for
    generalized medians.  The pools must be sorted ascending."""
    lo_rank, hi_rank = ranks(len(profile))
    lows, highs = profile._ranked()
    return Interval(
        _kth_of_two(lows, pool_lows, lo_rank),
        _kth_of_two(highs, pool_highs, hi_rank),
    )


def _rank_bounds(
    others: list[float], pool: Sequence[float], k: int
) -> tuple[float, float]:
    # The k-th smallest of others and pool plus one more x is x clamped
    # between the (k-1)-th and the k-th smallest of them; a bound whose rank
    # is 0 or past the end does not constrain x.
    floor = _kth_of_two(others, pool, k - 1) if k > 1 else NEG_INF
    ceiling = (
        _kth_of_two(others, pool, k) if k <= len(others) + len(pool) else POS_INF
    )
    return floor, ceiling


def _vary_select(
    ranks: Callable[[int], tuple[int, int]],
    pool_lows: Sequence[float],
    pool_highs: Sequence[float],
    profile: Profile,
    index: int,
) -> Callable[[Interval], Interval]:
    """``report -> _select(..., profile.replace_agent(index, report))``,
    with the other agents' endpoints ranked once instead of per report.

    The returned clamp carries ``bounds = (lo_floor, lo_ceiling,
    hi_floor, hi_ceiling)``: each outcome endpoint is its report endpoint
    clamped alone, so the lower one depends only on ``report.lo`` and the
    upper one only on ``report.hi``."""
    lo_rank, hi_rank = ranks(len(profile))
    lows, highs = profile._ranked_without(index)
    lo_floor, lo_ceiling = _rank_bounds(lows, pool_lows, lo_rank)
    hi_floor, hi_ceiling = _rank_bounds(highs, pool_highs, hi_rank)

    # Comparisons instead of min(max(...)): floor <= ceiling, so at most
    # one bound applies, and an unclamped endpoint is passed on as it is.
    # A report with neither endpoint clamped is its own outcome and, when
    # it is an exact Interval, is returned without building a new one.
    def outcome(report: Interval) -> Interval:
        lo = report.lo
        hi = report.hi
        if lo < lo_floor:
            lo = lo_floor
        elif lo > lo_ceiling:
            lo = lo_ceiling
        elif hi_floor <= hi <= hi_ceiling and type(report) is Interval:
            return report
        if hi < hi_floor:
            hi = hi_floor
        elif hi > hi_ceiling:
            hi = hi_ceiling
        return Interval(lo, hi)

    outcome.bounds = (lo_floor, lo_ceiling, hi_floor, hi_ceiling)
    return outcome


_UNIT_BITS = 1074  # 2**-1074, the smallest subnormal, divides every float


def _units(value: float) -> int:
    # value * 2**1074, exact: as_integer_ratio's denominator is 2**k, k <= 1074.
    num, den = value.as_integer_ratio()
    return num << (_UNIT_BITS + 1 - den.bit_length())


def _exact_mean(units: int, n_agents: int) -> float:
    # The exact sum in units of 2**-1074, then one correctly rounded integer
    # division: permutation invariant and exact on constant inputs, which
    # fsum(values)/n is not (e.g. three copies of 0.1).
    return units / (n_agents << _UNIT_BITS)


def _mean_interval(lo_units: int, hi_units: int, n_agents: int) -> Interval:
    lo = _exact_mean(lo_units, n_agents)
    hi = _exact_mean(hi_units, n_agents)
    if lo == hi:
        # The exact means differ by less than one rounding and rounded to
        # the same float; the next float up keeps the output nonempty.
        hi = math.nextafter(lo, POS_INF)
    return Interval(lo, hi)


def _averaging(profile: Profile) -> Interval:
    return _mean_interval(
        sum([_units(entry.lo) for entry in profile]),
        sum([_units(entry.hi) for entry in profile]),
        len(profile),
    )


def _vary_averaging(profile: Profile, index: int) -> Callable[[Interval], Interval]:
    # The exact sums of the other agents' endpoints are kept, so each report
    # costs one integer addition and one correctly rounded division and
    # reproduces _averaging bit for bit.
    n = len(profile)
    others = profile[:index] + profile[index + 1 :]
    lo_rest = sum([_units(entry.lo) for entry in others])
    hi_rest = sum([_units(entry.hi) for entry in others])

    def outcome(report: Interval) -> Interval:
        return _mean_interval(
            lo_rest + _units(report.lo), hi_rest + _units(report.hi), n
        )

    return outcome


class PhantomVector(_Frozen):
    """Fixed tuple of ``n + 1`` phantom intervals for a generalized median.

    Construction only checks shape (a nonempty tuple of
    :class:`ExtendedInterval`); whether the vector is *valid* for a given
    number of agents, i.e. guarantees a bounded nonempty aggregate on
    every profile, is the job of :func:`validate_phantoms`.  The vector is
    frozen and compares and hashes by ``phantoms``; unpickling and copying
    build it anew, so they check the shape again.
    """

    __slots__ = _fields = __match_args__ = ("phantoms",)

    def __init__(self, phantoms: Iterable[ExtendedInterval]) -> None:
        entries = tuple(phantoms)
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
    * phantoms with upper bound ``+inf``.

    These two bounds are exactly what rules out an unbounded or empty
    aggregate: if the pooled median came out invalid, more than
    ``n_agents`` of the ``2n + 1`` pooled intervals would have to push
    the same endpoint past the other side, and the ``n_agents`` real
    judgments are finite.  Copies of ``(+inf, +inf)`` need no count of
    their own: each also has upper bound ``+inf``, so too many of them
    already break the second bound; ``(-inf, -inf)`` mirrors this on
    the first.
    """
    _check_int("n_agents", n_agents, 1)
    size = len(vector)
    if size != n_agents + 1:
        return (
            f"phantom vector has {size} entries, "
            f"needs n_agents + 1 = {n_agents + 1}"
        )
    lo_neg_inf = sum(1 for ph in vector if ph.lo == NEG_INF)
    hi_pos_inf = sum(1 for ph in vector if ph.hi == POS_INF)
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
    _check_int("lower_quota", lower_quota, 1)
    _check_int("upper_quota", upper_quota, 1)
    _check_int("n_agents", n_agents, 1)
    _quota_ranks(lower_quota, upper_quota, n_agents)  # p + q <= n + 1
    top = ExtendedInterval(POS_INF, POS_INF)
    bottom = ExtendedInterval(NEG_INF, NEG_INF)
    whole = ExtendedInterval(NEG_INF, POS_INF)
    entries = (
        (top,) * lower_quota
        + (bottom,) * upper_quota
        + (whole,) * (n_agents + 1 - lower_quota - upper_quota)
    )
    return PhantomVector(entries)


class RuleHandle(
    namedtuple("RuleHandle", ["name", "evaluate", "incremental"], defaults=[None])
):
    """A rule's one face: a named callable from a profile to an interval.

    ``evaluate`` maps a :class:`Profile` to an :class:`Interval`; the
    handle itself is callable, on a profile or on any sequence of
    intervals, which it turns into a profile first.  Audit reports and CLI
    output use ``name``.
    ``incremental``, when given, backs :meth:`vary_agent` with a faster
    path that must agree with ``evaluate`` bit for bit; handles built
    without it fall back to full evaluation.

    Every built-in handle pickles: its ``evaluate`` and ``incremental``
    are module-level functions or ``functools.partial`` objects of them.
    So :func:`~intervalagg.axioms.audit` may audit a built-in handle in a
    second process (see :mod:`intervalagg._worker`), with a report that
    is byte-identical either way.  A handle around a closure, a lambda or
    a function of the caller's own, such as an ``extern:`` rule, is
    audited in-process.

    A handle is a named tuple, as :class:`Interval` is: frozen, equal to
    and hashed as the tuple of its fields.
    """

    __slots__ = ()

    def __call__(self, profile: Sequence[Interval]) -> Interval:
        if not isinstance(profile, Profile):
            profile = Profile(profile)
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

        An order-statistic handle's clamp also carries ``bounds = (lo_floor,
        lo_ceiling, hi_floor, hi_ceiling)``: its outcome is
        ``Interval(clamp(report.lo, lo_floor, lo_ceiling), clamp(report.hi,
        hi_floor, hi_ceiling))`` with ``clamp(x, floor, ceiling)`` equal to
        ``floor`` if ``x < floor``, else ``ceiling`` if ``x > ceiling``, else
        ``x``.  When neither endpoint is clamped and ``report`` is an exact
        :class:`~intervalagg.core.Interval`, the clamp returns ``report``
        itself; a subclass gets an equal ``Interval``.
        :func:`~intervalagg.preferences.find_manipulation` reads ``bounds``
        to search one misreport per outcome class.  The averaging clamp
        and the full-evaluation fallback have no ``bounds``.
        """
        _check_agent(profile, index)
        if self.incremental is not None:
            return self.incremental(profile, index)
        return lambda report: self(profile.replace_agent(index, report))


def endpoint_rule_handle(lower_quota: int, upper_quota: int) -> RuleHandle:
    """Handle for the order-statistic rule with the given quotas.

    Lower endpoint: the ``lower_quota``-th smallest individual lower
    endpoint; upper endpoint: the ``upper_quota``-th largest individual
    upper endpoint.  Profile size is checked per call against the quota
    constraint, so one handle serves any ``n`` with ``lower_quota +
    upper_quota <= n + 1``.
    """
    _check_int("lower_quota", lower_quota, 1)
    _check_int("upper_quota", upper_quota, 1)
    return _order_statistic_handle(
        f"endpoint:{lower_quota},{upper_quota}",
        partial(_quota_ranks, lower_quota, upper_quota),
    )


# Rank functions: n -> (lower rank, upper rank) among the pooled values.
# Module-level, with their parameters bound by partial, so handles pickle.


def _quota_ranks(lower_quota: int, upper_quota: int, n: int) -> tuple[int, int]:
    if lower_quota + upper_quota > n + 1:
        raise ValueError(
            f"quotas ({lower_quota}, {upper_quota}) invalid for {n} agents"
        )
    return lower_quota, n + 1 - upper_quota


def _median_ranks(n: int) -> tuple[int, int]:
    mid = (n + 1) // 2
    return mid, n + 1 - mid


def _phantom_ranks(
    vector: PhantomVector, valid_sizes: set[int], n: int
) -> tuple[int, int]:
    # valid_sizes belongs to one handle: each size is validated once.
    if n not in valid_sizes:
        reason = validate_phantoms(vector, n)
        if reason is not None:
            raise ValueError(f"invalid phantom vector: {reason}")
        valid_sizes.add(n)
    # 2n + 1 pooled values: the (n+1)-th smallest is the (n+1)-th largest.
    return n + 1, n + 1


def _order_statistic_handle(
    name: str,
    ranks: Callable[[int], tuple[int, int]],
    pool_lows: Sequence[float] = (),
    pool_highs: Sequence[float] = (),
) -> RuleHandle:
    """Handle selecting the endpoint ranks ``ranks(n)`` from the judgments
    pooled with fixed extra bounds, with the one-agent fast path."""
    return RuleHandle(
        name,
        partial(_select, ranks, pool_lows, pool_highs),
        partial(_vary_select, ranks, pool_lows, pool_highs),
    )


def median_rule_handle() -> RuleHandle:
    """Both quotas at ``(n + 1) // 2``: for odd ``n`` the coordinatewise
    medians, for even ``n`` the lower of the two middle lower endpoints and
    the upper of the two middle upper endpoints."""
    return _order_statistic_handle("median", _median_ranks)


def maximal_rule_handle() -> RuleHandle:
    """Quota pair (1, 1): the smallest interval containing every judgment."""
    return _order_statistic_handle("maximal", partial(_quota_ranks, 1, 1))


def averaging_rule_handle() -> RuleHandle:
    """Endpointwise exactly rounded mean; the non-strategyproof contrast
    case.  When both means round to the same float ``m`` the output is
    ``m`` and the next float above it."""
    return RuleHandle("averaging", _averaging, _vary_averaging)


def phantom_rule_handle(vector: PhantomVector) -> RuleHandle:
    """Handle, named ``phantoms[k]`` for ``k`` phantoms, for the
    generalized median over a fixed phantom vector.

    The coordinatewise median of the ``n`` judgments pooled with the
    phantoms.  A profile size the vector fails :func:`validate_phantoms`
    for is a ValueError, checked once per size rather than per call.
    """
    if not isinstance(vector, PhantomVector):
        raise TypeError(f"vector must be a PhantomVector, got {vector!r}")
    return _order_statistic_handle(
        f"phantoms[{len(vector)}]",
        partial(_phantom_ranks, vector, set()),
        tuple(sorted([ph.lo for ph in vector.phantoms])),
        tuple(sorted([ph.hi for ph in vector.phantoms])),
    )


def valid_quota_pairs(n_agents: int) -> list[tuple[int, int]]:
    """All quota pairs admissible for ``n_agents``, lexicographically."""
    _check_int("n_agents", n_agents, 1)
    return [
        (lower, upper)
        for lower in range(1, n_agents + 1)
        for upper in range(1, n_agents + 2 - lower)
    ]


def staircase_profile(n_agents: int) -> Profile:
    """The disjoint probe profile ((1,2), (3,4), ..., (2n-1, 2n)).

    Agent k occupies (2k-1, 2k), so all 2n endpoint values are distinct
    and every order statistic is attained by exactly one agent.  An
    order-statistic rule with quotas (p, q) therefore outputs exactly
    (2p - 1, 2(n + 1 - q)), which makes the quotas readable from a
    single evaluation.
    """
    _check_int("n_agents", n_agents, 1)
    return Profile(
        Interval(float(2 * k - 1), float(2 * k)) for k in range(1, n_agents + 1)
    )


def identify_endpoint_rule(
    rule: RuleHandle,
    n_agents: int,
    confirmations: int = 200,
    seed: int = 0,
) -> Optional[tuple[int, int]]:
    """Recover (lower_quota, upper_quota) if the rule is an order-statistic
    rule for this profile size; None otherwise.

    Phase one reads candidate quotas off the staircase profile; phase
    two confirms against the reconstructed rule on ``confirmations``
    seeded random profiles (exact comparison).  A read-off that is not
    integral or has a quota below 1 short-circuits to None.
    The probe can only certify behavioral equality on the sampled set;
    for genuine order-statistic rules the confirmation is exact by
    construction.  ``n_agents`` and ``confirmations`` must be ints (not
    bools) >= 1 and ``seed`` an int; they are checked before the rule is
    evaluated.  The result does not depend on the CPU count: each of the
    16 sub-streams has its own seed, and their verdicts, shared with the
    sample worker only if this process already has one live, are read in
    order as one stream up to the first mismatch or exception.
    """
    _check_int("confirmations", confirmations, 1)
    _check_int("seed", seed)
    probe = staircase_profile(n_agents)
    output = rule(probe)
    lower_guess = (output.lo + 1.0) / 2.0
    upper_guess = n_agents + 1.0 - output.hi / 2.0
    if not (lower_guess.is_integer() and upper_guess.is_integer()):
        return None
    lower_quota = int(lower_guess)
    upper_quota = int(upper_guess)
    # output.lo < output.hi, i.e. 2p - 1 < 2(n + 1 - q), already gives p + q <= n + 1.
    if lower_quota < 1 or upper_quota < 1:
        return None
    reference = endpoint_rule_handle(lower_quota, upper_quota)
    args = (rule, reference, n_agents, seed, confirmations)
    # Not imported: a process that never audited has no worker to share with.
    worker = sys.modules.get(__package__ + "._worker")
    stream = worker.parts(_confirmations, args, _STREAMS) if worker and worker._live() else None
    if not all(stream or _confirmations(*args, 0, _STREAMS)):
        return None
    return (lower_quota, upper_quota)


_STREAMS = 16  # identification's sub-streams, whatever the worker's chunks


def _confirmations(
    rule: RuleHandle, reference: RuleHandle, n_agents: int, seed: int, confirmations: int,
    start: int, stop: int,
) -> Iterator[bool]:
    """For each sub-stream ``k`` from ``start`` to ``stop - 1``, lazily,
    whether ``rule`` equals ``reference`` on its confirmations,
    ``confirmations * k // 16`` up to ``confirmations * (k + 1) // 16``,
    drawn after one seed (none when empty) up to the first mismatch.  An
    exception the rule raises propagates at its confirmation."""
    for k in range(start, stop):
        trials = range(confirmations * k // _STREAMS, confirmations * (k + 1) // _STREAMS)
        rng = random.Random(seed * 1_000_003 + k) if trials else None
        profiles = (_sample_profile(rng, n_agents) for _ in trials)
        yield all(rule(trial) == reference(trial) for trial in profiles)


_record(globals())
