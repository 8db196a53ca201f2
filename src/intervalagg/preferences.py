"""Single-peaked preferences over intervals and a manipulation search.

A preference here is a cost function over candidate intervals with a
unique minimum at its ``peak`` and the monotonicity property that moving
a candidate toward the peak (in the endpointwise betweenness order) never
increases cost.  Two kinds are provided:

* :class:`WeightedL1Preference`: cost is a positively weighted L1
  distance between endpoint pairs.
* :class:`PenaltyPreference`: cost is the unweighted endpoint distance to
  the peak, plus a fixed penalty (the distance from peak to a designated
  ``reference`` interval) whenever the candidate is *not* between the
  peak and the reference.  This kind turns a single betweenness failure
  into a strict incentive to misreport, which is what makes the
  out-between-ness check equivalent to strategyproofness.

:func:`find_manipulation` searches misreports for one agent against a
rule.  The candidate grid is complete for order-statistic rules (their
outputs only ever copy endpoint values, so profile endpoints plus
midpoints plus outward offsets cover every achievable outcome), and the
seeded random cloud keeps the search honest against rules with richer
output behaviour.  Any reported improvement is checked by direct cost
comparison, so a ``found`` result is always a genuine witness.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from collections.abc import Iterable
from typing import Optional, Union

from . import _EXPORTS, _record
from .core import (
    _FLOAT_MAX,
    _LEAST_POSITIVE,
    NEG_INF,
    POS_INF,
    Interval,
    Profile,
    _check_agent,
    _check_int,
    _check_number,
    _Frozen,
    _tuple_new,
    endpoint_distance,
)
from .rules import RuleHandle

__all__ = [name for name, home in _EXPORTS.items() if home == "preferences"]

# A misreport only counts as profitable when the cost drop clears this.
STRICT_IMPROVEMENT_EPS = 1e-12


class WeightedL1Preference(_Frozen):
    """Cost ``lower_weight * |lo - peak.lo| + upper_weight * |hi - peak.hi|``."""

    # The peak's endpoints are kept in private slots, which the repr,
    # equality, hashing and pickling skip, so cost reads no tuple field.
    _fields = __match_args__ = ("peak", "lower_weight", "upper_weight")
    __slots__ = (*_fields, "_peak_lo", "_peak_hi")

    def __init__(
        self, peak: Interval, lower_weight: float = 1.0, upper_weight: float = 1.0
    ) -> None:
        if not isinstance(peak, Interval):
            raise TypeError(f"peak must be an Interval, got {peak!r}")
        _check_number("lower_weight", lower_weight, _LEAST_POSITIVE)
        _check_number("upper_weight", upper_weight, _LEAST_POSITIVE)
        self._set(peak, lower_weight, upper_weight, peak.lo, peak.hi)

    def cost(self, candidate: Interval) -> float:
        return self.lower_weight * abs(candidate.lo - self._peak_lo) + (
            self.upper_weight * abs(candidate.hi - self._peak_hi)
        )


class PenaltyPreference(_Frozen):
    """Endpoint distance to the peak plus a betweenness penalty.

    ``cost(T) = d(peak, T)`` when ``T`` lies between ``peak`` and
    ``reference`` (endpointwise, weakly), else
    ``d(peak, T) + d(peak, reference)``, where ``d`` is
    :func:`~intervalagg.core.endpoint_distance`.  The peak is the unique
    minimum (cost 0 there, positive elsewhere), and the added penalty is
    constant, so peak-ward moves never raise cost.
    """

    # Private slots, as in WeightedL1Preference, plus the constant penalty.
    _fields = __match_args__ = ("peak", "reference")
    __slots__ = (*_fields, "_ends", "_penalty")

    def __init__(self, peak: Interval, reference: Interval) -> None:
        for name, value in (("peak", peak), ("reference", reference)):
            if not isinstance(value, Interval):
                raise TypeError(f"{name} must be an Interval, got {value!r}")
        ends = (peak.lo, peak.hi, reference.lo, reference.hi)
        self._set(peak, reference, ends, endpoint_distance(peak, reference))

    def cost(self, candidate: Interval) -> float:
        # endpoint_distance and between, inline, in the same float order.
        lo = candidate.lo
        hi = candidate.hi
        peak_lo, peak_hi, ref_lo, ref_hi = self._ends
        base = abs(peak_lo - lo) + abs(peak_hi - hi)
        if (peak_lo <= lo <= ref_lo or ref_lo <= lo <= peak_lo) and (
            peak_hi <= hi <= ref_hi or ref_hi <= hi <= peak_hi
        ):
            return base
        return base + self._penalty


Preference = Union[WeightedL1Preference, PenaltyPreference]


# Outward offsets added below the smallest and above the largest profile
# endpoint.  At most 100 cannot overflow: past float max, -max - 100
# rounds back to -max.
_MARGIN_DELTAS = (1.0, 10.0, 100.0)
# The bounds of a clamp that clamps nothing: every grid pair is its own
# outcome class.
_UNBOUNDED = (-math.inf, math.inf, -math.inf, math.inf)


class GridConfig(_Frozen):
    """Settings of the misreport candidate grid.

    ``random_candidates`` seeded extra intervals, drawn from ``seed``,
    widen the net beyond the deterministic grid; ``extra_candidates``
    lets callers force specific intervals in, and is stored as the tuple
    that was checked.
    """

    __slots__ = _fields = __match_args__ = (
        "random_candidates", "seed", "extra_candidates"
    )

    def __init__(
        self, random_candidates: int = 200, seed: int = 0,
        extra_candidates: Iterable[Interval] = (),
    ) -> None:
        _check_int("seed", seed)
        _check_int("random_candidates", random_candidates, 0)
        if not isinstance(extra_candidates, Iterable):
            raise TypeError(
                "extra_candidates must be a sequence of Intervals, got "
                f"{extra_candidates!r}"
            )
        extras = tuple(extra_candidates)
        for pos, entry in enumerate(extras):
            if not isinstance(entry, Interval):
                raise TypeError(
                    f"extra_candidates entry {pos} is not an Interval: {entry!r}"
                )
        self._set(random_candidates, seed, extras)


class ManipulationResult(_Frozen):
    """Outcome of a misreport search for one agent.

    ``found`` says whether there is a ``misreport``: the
    lexicographically smallest candidate achieving the largest cost drop.
    ``manipulated_outcome`` is then the rule's output under it, and
    ``cost_drop`` is the strict improvement over the truthful outcome's
    cost.
    """

    __slots__ = _fields = (
        "truthful_outcome", "misreport", "manipulated_outcome", "cost_drop"
    )
    __match_args__ = ()

    def __init__(
        self, *, truthful_outcome: Interval, misreport: Optional[Interval] = None,
        manipulated_outcome: Optional[Interval] = None, cost_drop: float = 0.0,
    ) -> None:
        self._set(truthful_outcome, misreport, manipulated_outcome, cost_drop)

    @property
    def found(self) -> bool:
        return self.misreport is not None


def candidate_misreports(profile: Profile, config: GridConfig) -> list[Interval]:
    """Deterministic misreport grid for a profile.

    Grid values: every profile endpoint, midpoints of adjacent distinct
    values, and outward margins of 1, 10 and 100.  Candidates are
    all increasing pairs of grid values, plus a seeded uniform cloud over
    a box reaching twice the profile span beyond each side of it, plus
    any ``extra_candidates``.  The returned list is sorted and
    duplicate-free, which fixes the search order and hence the tie-break.

    The grid pairs come out already sorted and distinct, so only the
    cloud and the extras are deduplicated (a pair of two grid values is
    already on the grid) and merged in with one sort of the two sorted
    runs.

    Near float max, midpoints are taken as half-sums and the random box
    is clipped to the finite floats, so every candidate stays finite.
    The cloud's draws are random.py's ``uniform``, written out, so a seed
    gives the same candidates on every supported Python.
    """
    return _candidates(profile, config, _UNBOUNDED)


def _candidates(
    profile: Profile, config: GridConfig, bounds: tuple[float, float, float, float]
) -> list[Interval]:
    """:func:`candidate_misreports`, with the grid pairs cut to one per
    outcome class of a clamp with ``bounds``."""
    points, grid, lowest, highest = _grid_values(profile)
    candidates = _class_representatives(points, bounds)
    candidates.extend(_off_grid(lowest, highest, grid, config))
    candidates.sort()
    return candidates


def _grid_values(profile: Profile) -> tuple[list[float], set[float], float, float]:
    """The grid values of :func:`candidate_misreports`, sorted, their set,
    and the profile's lowest and highest endpoints."""
    values = sorted({v for entry in profile for v in (entry.lo, entry.hi)})
    lowest, highest = values[0], values[-1]
    grid = set(values)
    for a, b in zip(values, values[1:]):
        mid = (a + b) / 2.0
        grid.add(mid if math.isfinite(mid) else a / 2.0 + b / 2.0)
    for delta in _MARGIN_DELTAS:
        grid.update((lowest - delta, highest + delta))
    return sorted(grid), grid, lowest, highest


def _off_grid(
    lowest: float, highest: float, grid: set[float], config: GridConfig
) -> list[Interval]:
    """The seeded cloud, in a box around ``lowest`` to ``highest``, and the
    extras that are not a pair of two grid values, deduplicated and
    sorted."""
    span = max(highest - lowest, 1.0)
    box_lo = max(lowest - 2.0 * span, -_FLOAT_MAX)
    box_hi = min(highest + 2.0 * span, _FLOAT_MAX)
    rng = random.Random(config.seed)
    # uniform(box_lo, box_hi) written out as random.py computes it, alike in
    # Python 3.10 to 3.13, so a seed draws the same cloud on each.
    draw = rng.random
    width = box_hi - box_lo
    others = []  # the cloud, then the extras
    made = 0
    while made < config.random_candidates:
        if width < POS_INF:
            a = box_lo + width * draw()
            b = box_lo + width * draw()
        else:
            a = _wide_uniform(rng, box_lo, box_hi)
            b = _wide_uniform(rng, box_lo, box_hi)
        if a == b:
            continue
        a, b = (a, b) if a < b else (b, a)
        # Finite draws are valid as they are; + 0.0 makes -0.0 +0.0.
        others.append(
            _tuple_new(Interval, (a + 0.0, b + 0.0))
            if NEG_INF < a < b < POS_INF else Interval(a, b)
        )
        made += 1
    others.extend(config.extra_candidates)
    return sorted({
        candidate for candidate in others
        if candidate.lo not in grid or candidate.hi not in grid
    })


def _class_representatives(
    points: list[float], bounds: tuple[float, float, float, float]
) -> list[Interval]:
    """The smallest pair of the sorted distinct ``points`` in each outcome
    class of a clamp with ``bounds``, in sorted order.

    Each side of the grid splits into runs of consecutive points with one
    clamped value (the clamp need not be monotone).  Every pair whose
    lower point lies in one lower run and whose upper point lies in one
    upper run has the same outcome; the smallest such pair takes the
    lower run's first point ``i`` and either ``i + 1`` or the start of an
    upper run above ``i + 1``.  Unbounded, every point starts a run of
    each side, and these are all pairs of ``points`` in order.
    """
    lo_floor, lo_ceiling, hi_floor, hi_ceiling = bounds
    lo_starts = _run_starts(points, lo_floor, lo_ceiling)
    hi_starts = _run_starts(points, hi_floor, hi_ceiling)
    pairs = []
    for i in lo_starts[: bisect_left(lo_starts, len(points) - 1)]:
        for j in (i + 1, *hi_starts[bisect_right(hi_starts, i + 1) : -1]):
            pairs.append(Interval(points[i], points[j]))
    return pairs


def _run_starts(points: list[float], floor: float, ceiling: float) -> list[int]:
    """Where the clamped value of ``points`` changes, from 0, then
    ``len(points)``: the bounds of the runs of equal outcome endpoints."""
    starts = []
    previous = None
    for index, x in enumerate(points):
        value = floor if x < floor else ceiling if x > ceiling else x
        if value != previous:
            starts.append(index)
            previous = value
    starts.append(len(points))
    return starts


def _wide_uniform(rng: random.Random, lo: float, hi: float) -> float:
    """``rng.uniform(lo, hi)`` for a box whose width overflows: drawn at
    half scale, doubled and clipped back into the box."""
    return min(max(2.0 * rng.uniform(lo / 2.0, hi / 2.0), lo), hi)


def find_manipulation(
    rule: RuleHandle,
    profile: Profile,
    agent_index: int,
    preference: Preference,
    config: GridConfig = GridConfig(),
) -> ManipulationResult:
    """Search misreports for ``agent_index`` that strictly cut their cost.

    The preference's peak must equal the agent's truthful judgment
    (anything else is not a manipulation question but a different
    profile).  Among candidates whose cost drop exceeds
    ``STRICT_IMPROVEMENT_EPS`` the largest drop wins, ties going to the
    lexicographically smallest misreport.  Complete for order-statistic
    rules; sound (never a false positive) for any rule.

    Outcomes come from ``rule.vary_agent``, so handles with a one-agent
    fast path skip the profile rebuild per candidate.

    When that clamp carries ``bounds`` (order-statistic and phantom
    handles; see :meth:`~intervalagg.rules.RuleHandle.vary_agent`), the
    grid pairs are cut to the smallest pair of each outcome class, and
    the off-grid cloud and extras are kept whole.  The result is the
    same: pairs in one class share their outcome and so their drop, the
    winner is the smallest candidate with the largest drop, so it is the
    smallest member of its class and is searched, and every searched
    candidate is one of :func:`candidate_misreports`.  A median search at
    n = 1001 then tries a few hundred candidates instead of about 8M.
    """
    _check_agent(profile, agent_index, "agent_index")
    if preference.peak != profile[agent_index]:
        raise ValueError(
            f"preference peak {preference.peak!r} differs from agent "
            f"{agent_index}'s truthful judgment {profile[agent_index]!r}"
        )
    truthful_outcome = rule(profile)
    truthful_cost = preference.cost(truthful_outcome)
    best_drop = 0.0
    best_misreport: Optional[Interval] = None
    best_outcome: Optional[Interval] = None
    outcome_of = rule.vary_agent(profile, agent_index)
    candidates = _candidates(profile, config, getattr(outcome_of, "bounds", _UNBOUNDED))
    for candidate in candidates:
        outcome = outcome_of(candidate)
        drop = truthful_cost - preference.cost(outcome)
        # Strictly-greater keeps the first (smallest) candidate on ties.
        if drop > STRICT_IMPROVEMENT_EPS and drop > best_drop:
            best_drop = drop
            best_misreport = candidate
            best_outcome = outcome
    return ManipulationResult(
        truthful_outcome=truthful_outcome,
        misreport=best_misreport,
        manipulated_outcome=best_outcome,
        cost_drop=best_drop,
    )


_record(globals())
