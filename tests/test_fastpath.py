"""Differential tests: ``RuleHandle.vary_agent`` against full re-evaluation.

Endpoints sit on a half-integer lattice so that ties between agents, and
between a report and the other agents, occur often.  Chains of
``replace_agent`` revisions, which carry a profile's ranked endpoints from
parent to child, are checked against freshly built profiles, and the
two-list selection kernel against a sort of the pooled values.  The
exact-mean tests at the end draw from the whole float range instead and
compare the averaging rule with a ``Fraction`` reference.
"""

import math
import random
from fractions import Fraction
from typing import Optional

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from intervalagg import (
    NEG_INF,
    POS_INF,
    ExtendedInterval,
    GridConfig,
    Interval,
    ManipulationResult,
    PenaltyPreference,
    PhantomVector,
    Profile,
    RuleHandle,
    STRICT_IMPROVEMENT_EPS,
    WeightedL1Preference,
    averaging_rule_handle,
    candidate_misreports,
    endpoint_rule_handle,
    endpoint_rule_phantoms,
    find_manipulation,
    maximal_rule_handle,
    median_rule_handle,
    phantom_rule_handle,
    valid_quota_pairs,
    validate_phantoms,
)
from intervalagg.preferences import _candidates
from intervalagg.rules import _kth_of_two

lattice = st.integers(-6, 6).map(lambda k: k / 2.0)


@st.composite
def lattice_intervals(draw):
    lo = draw(lattice)
    hi = draw(lattice.filter(lambda v: v != lo))
    return Interval(min(lo, hi), max(lo, hi))


@st.composite
def varied_profiles(draw, max_agents=9):
    """A profile, one agent index and a batch of replacement reports."""
    n = draw(st.integers(1, max_agents))
    profile = Profile(draw(lattice_intervals()) for _ in range(n))
    index = draw(st.integers(0, n - 1))
    reports = draw(st.lists(lattice_intervals(), min_size=1, max_size=8))
    return profile, index, reports


def assert_agrees(handle: RuleHandle, profile, index, reports):
    outcome_of = handle.vary_agent(profile, index)
    for report in reports:
        assert outcome_of(report) == handle(profile.replace_agent(index, report))


@given(varied_profiles(), st.data())
def test_endpoint_handles(case, data):
    profile, index, reports = case
    quotas = data.draw(st.sampled_from(valid_quota_pairs(len(profile))))
    assert_agrees(endpoint_rule_handle(*quotas), profile, index, reports)
    phantoms = endpoint_rule_phantoms(*quotas, len(profile))
    assert_agrees(phantom_rule_handle(phantoms), profile, index, reports)


@given(varied_profiles())
def test_extreme_quotas(case):
    # Lower quota 1 and n are the ranks where one clamp bound falls away.
    profile, index, reports = case
    n = len(profile)
    for quotas in {(1, 1), (1, n), (n, 1)}:
        assert_agrees(endpoint_rule_handle(*quotas), profile, index, reports)


@given(varied_profiles())
def test_median_maximal_averaging_handles(case):
    profile, index, reports = case
    for handle in (median_rule_handle(), maximal_rule_handle(), averaging_rule_handle()):
        assert_agrees(handle, profile, index, reports)


def extended_bounds():
    return st.one_of(lattice, st.sampled_from([NEG_INF, POS_INF]))


@st.composite
def phantom_vectors(draw, n):
    entries = []
    for _ in range(n + 1):
        lo, hi = draw(extended_bounds()), draw(extended_bounds())
        if lo == NEG_INF or hi == POS_INF or lo < hi:
            entries.append(ExtendedInterval(lo, hi))
        elif hi < lo:
            entries.append(ExtendedInterval(hi, lo))
        else:
            entries.append(ExtendedInterval(NEG_INF, POS_INF))
    return PhantomVector(tuple(entries))


@given(varied_profiles(), st.data())
def test_custom_phantom_vectors(case, data):
    profile, index, reports = case
    vector = data.draw(phantom_vectors(len(profile)))
    assume(validate_phantoms(vector, len(profile)) is None)
    assert_agrees(phantom_rule_handle(vector), profile, index, reports)


class Report(Interval):
    """An :class:`Interval` subclass, which a clamp never hands back."""

    __slots__ = ()


@given(varied_profiles(), st.data())
def test_clamp_outcomes_are_plain_intervals(case, data):
    # A report that no bound clamps comes back as it is, unless it is a
    # subclass; every outcome equals full evaluation and is an Interval.
    profile, index, reports = case
    n = len(profile)
    quotas = data.draw(st.sampled_from(valid_quota_pairs(n)))
    handles = [
        endpoint_rule_handle(*quotas),
        median_rule_handle(),
        maximal_rule_handle(),
        phantom_rule_handle(endpoint_rule_phantoms(*quotas, n)),
    ]
    vector = data.draw(phantom_vectors(n))
    if validate_phantoms(vector, n) is None:
        handles.append(phantom_rule_handle(vector))
    for handle in handles:
        outcome_of = handle.vary_agent(profile, index)
        lo_floor, lo_ceiling, hi_floor, hi_ceiling = outcome_of.bounds
        for report in reports:
            expected = handle(profile.replace_agent(index, report))
            outcome = outcome_of(report)
            assert outcome == expected and type(outcome) is Interval
            unclamped = (
                lo_floor <= report.lo <= lo_ceiling
                and hi_floor <= report.hi <= hi_ceiling
            )
            assert (outcome is report) is unclamped
            outcome = outcome_of(Report(*report))
            assert outcome == expected and type(outcome) is Interval


@given(varied_profiles())
def test_opaque_handle_falls_back(case):
    profile, index, reports = case
    seen = []

    def widest_pair(candidate_profile):
        seen.append(candidate_profile)
        return Interval(candidate_profile[0].lo, max(iv.hi for iv in candidate_profile))

    handle = RuleHandle("opaque", widest_pair)
    assert handle.incremental is None
    assert_agrees(handle, profile, index, reports)
    assert profile.replace_agent(index, reports[-1]) in seen


def test_rebuilt_handle_does_not_inherit_fast_path():
    # Wrappers rebuild a handle from its name and evaluate; the result must
    # reflect the wrapper, never the wrapped rule's fast path.
    median = median_rule_handle()
    shifted = type(median)(median.name, lambda profile: median(profile).shift(1.0))
    profile = Profile((Interval(0, 2), Interval(1, 3), Interval(2, 4)))
    report = Interval(-1, 5)
    assert shifted.vary_agent(profile, 0)(report) == median.vary_agent(profile, 0)(report).shift(1.0)


@pytest.mark.parametrize(
    "handle", [median_rule_handle(), RuleHandle("opaque", lambda profile: profile[0])]
)
@pytest.mark.parametrize("index", [-1, 3])
def test_agent_index_validated(handle, index):
    profile = Profile((Interval(0, 2), Interval(1, 3), Interval(2, 4)))
    with pytest.raises(IndexError):
        handle.vary_agent(profile, index)


@pytest.mark.parametrize(
    "handle", [median_rule_handle(), RuleHandle("opaque", lambda profile: profile[0])]
)
@pytest.mark.parametrize("index", [True, 1.0])
def test_agent_index_must_be_an_int(handle, index):
    profile = Profile((Interval(0, 2), Interval(1, 3), Interval(2, 4)))
    with pytest.raises(ValueError, match=f"index must be an int, got {index!r}"):
        handle.vary_agent(profile, index)


# Ties, duplicate endpoints and -0.0 (which Interval stores as +0.0).
chain_values = st.sampled_from([-3.0, -1.5, -0.5, -0.0, 0.0, 0.5, 1.0, 2.5, 4.0])


@st.composite
def chain_intervals(draw):
    lo = draw(chain_values)
    hi = draw(chain_values.filter(lambda v: v != lo))
    return Interval(min(lo, hi), max(lo, hi))


def bits(interval):
    return tuple(value.hex() for value in interval)


@st.composite
def revision_chains(draw):
    """A profile of 1..40 agents, the handles to compare, and revisions."""
    n = draw(st.integers(1, 40))
    profile = Profile(draw(st.lists(chain_intervals(), min_size=n, max_size=n)))
    lower = draw(st.integers(1, n))
    upper = draw(st.integers(1, n + 1 - lower))
    vector = draw(phantom_vectors(n))
    assume(validate_phantoms(vector, n) is None)
    handles = [
        endpoint_rule_handle(lower, upper),
        median_rule_handle(),
        maximal_rule_handle(),
        phantom_rule_handle(endpoint_rule_phantoms(upper, lower, n)),
        phantom_rule_handle(vector),
        averaging_rule_handle(),
    ]
    revisions = draw(st.lists(
        st.tuples(st.integers(0, n - 1), chain_intervals()), min_size=1, max_size=6
    ))
    return profile, handles, revisions


@given(revision_chains(), st.booleans(), st.data())
def test_revision_chain_matches_fresh_profiles(case, rank_first, data):
    profile, handles, revisions = case
    if rank_first:
        handles[0](profile)
    for index, interval in revisions:
        profile = profile.replace_agent(index, interval)
        fresh = Profile(tuple(profile))
        for handle in handles:
            assert bits(handle(profile)) == bits(handle(fresh))
        agent = data.draw(st.integers(0, len(profile) - 1))
        report = data.draw(chain_intervals())
        for handle in handles:
            expected = bits(handle(fresh.replace_agent(agent, report)))
            assert bits(handle.vary_agent(profile, agent)(report)) == expected
            assert bits(handle.vary_agent(fresh, agent)(report)) == expected


kernel_values = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 0.5, 3.0])
pool_values = st.one_of(kernel_values, st.sampled_from([NEG_INF, POS_INF]))


@given(st.lists(kernel_values, max_size=12), st.lists(pool_values, max_size=13), st.data())
def test_kth_of_two_matches_sorted_pool(ranked, pool, data):
    assume(ranked or pool)
    ranked.sort()
    pool.sort()
    k = data.draw(st.integers(1, len(ranked) + len(pool)))
    expected = sorted(ranked + pool)[k - 1]
    assert _kth_of_two(ranked, pool, k) == expected
    assert _kth_of_two(pool, ranked, k) == expected


def reference_search(rule, profile, agent_index, preference, config) -> ManipulationResult:
    """The search as a plain loop that rebuilds the profile per candidate."""
    truthful = rule(profile)
    truthful_cost = preference.cost(truthful)
    best_drop = 0.0
    best: Optional[tuple] = None
    for candidate in candidate_misreports(profile, config):
        outcome = rule(profile.replace_agent(agent_index, candidate))
        drop = truthful_cost - preference.cost(outcome)
        if drop > STRICT_IMPROVEMENT_EPS and drop > best_drop:
            best_drop = drop
            best = (candidate, outcome)
    if best is None:
        return ManipulationResult(truthful_outcome=truthful)
    return ManipulationResult(
        truthful_outcome=truthful, misreport=best[0], manipulated_outcome=best[1],
        cost_drop=best_drop,
    )


def test_find_manipulation_matches_reference_loop():
    rng = random.Random(20240611)
    found = 0
    for trial in range(60):
        n = rng.randint(1, 6)
        raw = []
        while len(raw) < n:
            a, b = rng.randint(-8, 8) / 2.0, rng.uniform(-4.0, 4.0)
            if a != b:
                raw.append(Interval(min(a, b), max(a, b)))
        profile = Profile(raw)
        agent = rng.randrange(n)
        quotas = rng.choice(valid_quota_pairs(n))
        rule = [
            endpoint_rule_handle(*quotas),
            phantom_rule_handle(endpoint_rule_phantoms(*quotas, n)),
            averaging_rule_handle(),
            median_rule_handle(),
            maximal_rule_handle(),
        ][trial % 5]
        if trial % 2:
            preference = WeightedL1Preference(profile[agent], rng.uniform(0.1, 10), rng.uniform(0.1, 10))
        else:
            preference = PenaltyPreference(profile[agent], Interval(-3.0, rng.uniform(-2.0, 5.0)))
        config = GridConfig(random_candidates=40, seed=trial)
        result = find_manipulation(rule, profile, agent, preference, config)
        assert result == reference_search(rule, profile, agent, preference, config)
        found += result.found
    # The averaging searches must exercise the found branch too.
    assert found > 0


# Clamp searches: a handle whose vary_agent clamp carries ``bounds`` is
# searched on one grid pair per outcome class, which must give the result
# of the full candidate list.  Values mix a lattice (ties), -0.0 and
# endpoints at +-1e300.
search_values = st.one_of(
    lattice, st.sampled_from([-0.0, 0.0, 1e300, -1e300, 5e299, -5e299])
)


@st.composite
def search_intervals(draw):
    lo = draw(search_values)
    hi = draw(search_values.filter(lambda v: v != lo))
    return Interval(min(lo, hi), max(lo, hi))


@st.composite
def grid_configs(draw):
    return GridConfig(
        random_candidates=draw(st.sampled_from([0, 5, 200])),
        seed=draw(st.integers(0, 2**31)),
        extra_candidates=tuple(draw(st.lists(search_intervals(), max_size=3))),
    )


@st.composite
def preferences_for(draw, peak):
    if draw(st.booleans()):
        weights = st.floats(0.1, 10.0)
        return WeightedL1Preference(peak, draw(weights), draw(weights))
    return PenaltyPreference(peak, draw(search_intervals()))


def clamp_handle(bounds, agent):
    """A rule that clamps agent ``agent``'s report with ``bounds`` and
    ignores everyone else; its clamp carries the bounds."""
    lo_floor, lo_ceiling, hi_floor, hi_ceiling = bounds

    def outcome(report):
        lo, hi = report
        lo = lo_floor if lo < lo_floor else lo_ceiling if lo > lo_ceiling else lo
        hi = hi_floor if hi < hi_floor else hi_ceiling if hi > hi_ceiling else hi
        return Interval(lo, hi)

    outcome.bounds = bounds
    return RuleHandle(
        f"clamp{bounds}", lambda profile: outcome(profile[agent]),
        lambda profile, index: outcome,
    )


def counted(handle):
    """``handle`` with a counter on its clamp calls; the clamp's
    ``bounds`` are copied, so the search still sees them."""
    calls = []

    def incremental(profile, index):
        inner = handle.vary_agent(profile, index)

        def outcome(report):
            calls.append(report)
            return inner(report)

        outcome.bounds = inner.bounds
        return outcome

    return RuleHandle(handle.name, handle.evaluate, incremental), calls


@settings(deadline=None)
@given(st.integers(1, 7), st.data())
def test_clamp_search_matches_reference_loop(n, data):
    profile = Profile(data.draw(st.lists(search_intervals(), min_size=n, max_size=n)))
    agent = data.draw(st.integers(0, n - 1))
    quotas = data.draw(st.sampled_from(valid_quota_pairs(n)))
    kind = data.draw(st.sampled_from(["endpoint", "phantoms", "custom phantoms"]))
    if kind == "endpoint":
        rule = endpoint_rule_handle(*quotas)
    elif kind == "phantoms":
        rule = phantom_rule_handle(endpoint_rule_phantoms(*quotas, n))
    else:
        vector = data.draw(phantom_vectors(n))
        assume(validate_phantoms(vector, n) is None)
        rule = phantom_rule_handle(vector)
    assert rule.vary_agent(profile, agent).bounds
    preference = data.draw(preferences_for(profile[agent]))
    config = data.draw(grid_configs())
    result = find_manipulation(rule, profile, agent, preference, config)
    assert result == reference_search(rule, profile, agent, preference, config)
    assert not result.found


# Lower bounds in [-10, 0] and upper bounds in [1, 10], in either order, so
# every outcome is a valid interval even when a floor is above its ceiling;
# only the lower floor and the upper ceiling may be unbounded.
lower_bounds = st.integers(-20, 0).map(lambda k: k / 2.0)
upper_bounds = st.integers(2, 20).map(lambda k: k / 2.0)


@settings(deadline=None)
@given(
    st.lists(lattice_intervals(), min_size=1, max_size=5),
    st.tuples(
        st.one_of(lower_bounds, st.just(NEG_INF)), lower_bounds,
        upper_bounds, st.one_of(upper_bounds, st.just(POS_INF)),
    ),
    st.data(),
)
def test_broken_clamps_match_reference_loop(agents, bounds, data):
    profile = Profile(agents)
    agent = data.draw(st.integers(0, len(profile) - 1))
    rule = clamp_handle(bounds, agent)
    preference = data.draw(preferences_for(profile[agent]))
    config = data.draw(grid_configs())
    result = find_manipulation(rule, profile, agent, preference, config)
    assert result == reference_search(rule, profile, agent, preference, config)


def outcome_class_minima(outcome_of, candidates):
    """The smallest candidate reaching each outcome."""
    minima = {}
    for candidate in candidates:
        minima.setdefault(outcome_of(candidate), candidate)
    return set(minima.values())


@pytest.mark.parametrize("seed", range(12))
def test_reduced_grid_holds_each_outcome_class(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 9)
    raw = []
    while len(raw) < n:
        a, b = rng.randint(-6, 6) / 2.0, rng.choice([rng.randint(-6, 6) / 2.0, rng.uniform(-4, 4)])
        if a != b:
            raw.append(Interval(min(a, b), max(a, b)))
    profile = Profile(raw)
    agent = rng.randrange(n)
    config = GridConfig(random_candidates=rng.choice([0, 5, 50]), seed=seed)
    full = candidate_misreports(profile, config)
    rules = [
        median_rule_handle(),
        endpoint_rule_handle(*rng.choice(valid_quota_pairs(n))),
        clamp_handle((1.0, -2.0, 3.0, 1.5), agent),  # both sides broken
    ]
    for rule in rules:
        outcome_of = rule.vary_agent(profile, agent)
        reduced = _candidates(profile, config, outcome_of.bounds)
        assert reduced == sorted(set(reduced))
        assert set(reduced) <= set(full)
        assert outcome_class_minima(outcome_of, full) <= set(reduced)
    # Two runs a side leave at most four grid pairs besides the cloud.
    assert len(reduced) <= 4 + config.random_candidates


def test_broken_clamp_is_manipulable_on_both_paths():
    # One agent at (1, 20).  The lower clamp sends reports below 5 to 5 and
    # the rest to 0; the upper one sends reports below 30 to 30 and the
    # rest to 25.  Truthful: (5, 30), cost 4 + 10; any report with lo >= 5
    # and hi >= 30 reaches (0, 25), cost 1 + 5.
    profile = Profile((Interval(1, 20),))
    rule, calls = counted(clamp_handle((5.0, 0.0, 30.0, 25.0), 0))
    preference = WeightedL1Preference(profile[0])
    for config in (GridConfig(random_candidates=0), GridConfig(seed=3)):
        calls.clear()
        result = find_manipulation(rule, profile, 0, preference, config)
        assert result.found
        assert result.manipulated_outcome == Interval(0, 25)
        assert result.cost_drop == 8.0
        assert result == reference_search(rule, profile, 0, preference, config)
        assert len(calls) < len(candidate_misreports(profile, config))
        if not config.random_candidates:
            # The first grid pair with lo >= 5 and hi >= 30.
            assert result.misreport == Interval(10.5, 30)


def test_median_search_at_1001_agents_evaluates_few_outcomes():
    rng = random.Random(1001)
    raw = []
    while len(raw) < 1001:
        a, b = rng.uniform(-1e6, 1e6), rng.uniform(-1e6, 1e6)
        if a != b:
            raw.append(Interval(min(a, b), max(a, b)))
    profile = Profile(raw)
    rule, calls = counted(median_rule_handle())
    result = find_manipulation(rule, profile, 0, WeightedL1Preference(profile[0]))
    assert not result.found
    assert result.truthful_outcome == median_rule_handle()(profile)
    # The full list would hold C(4005, 2) grid pairs, about 8M.
    assert 200 < len(calls) < 2000


# Exact means over the whole float range: subnormals, values next to the
# largest float, mixed exponents and -0.0.
MAX_FLOAT = 1.7976931348623157e308
edge_values = st.sampled_from([
    5e-324, -5e-324, 1e-323, 2.2250738585072014e-308, -2.225073858507201e-308,
    MAX_FLOAT, -MAX_FLOAT, 1.7976931348623155e308, -0.0, 0.0, 0.1, 1.0,
    2.0 ** 53, 1e300, -1e-300,
])
any_float = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    edge_values,
    st.integers(-(2**60), 2**60).map(float),
)


@st.composite
def wide_intervals(draw):
    a = draw(any_float)
    b = draw(any_float.filter(lambda v: v != a))
    return Interval(min(a, b), max(a, b))


def reference_mean(values) -> float:
    return float(sum(map(Fraction, values)) / len(values))


def assert_mean_matches(outcome_of, profile):
    """``outcome_of()`` against the ``Fraction`` means of ``profile``.

    Two means less than one rounding apart may round to the same float
    ``m``; the rule then returns ``m`` and the next float above it.
    """
    lo = reference_mean([entry.lo for entry in profile])
    hi = reference_mean([entry.hi for entry in profile])
    if lo == hi:
        hi = math.nextafter(lo, POS_INF)
    assert outcome_of() == Interval(lo, hi)


@given(st.lists(wide_intervals(), min_size=1, max_size=9), st.data())
def test_exact_mean_matches_fraction_reference(agents, data):
    profile = Profile(agents)
    assert_mean_matches(lambda: averaging_rule_handle()(profile), profile)
    index = data.draw(st.integers(0, len(profile) - 1))
    report = data.draw(wide_intervals())
    outcome_of = averaging_rule_handle().vary_agent(profile, index)
    assert_mean_matches(
        lambda: outcome_of(report), profile.replace_agent(index, report)
    )


@pytest.mark.parametrize("bounds", [
    (-MAX_FLOAT, MAX_FLOAT),
    (1.7976931348623155e308, MAX_FLOAT),
    (0.0, 5e-324),
    (-5e-324, 5e-324),
    (0.1, 0.3),
])
def test_exact_mean_reproduces_unanimous_extremes(bounds):
    judgment = Interval(*bounds)
    for n in range(1, 10):
        profile = Profile([judgment] * n)
        assert averaging_rule_handle()(profile) == judgment
        assert averaging_rule_handle().vary_agent(profile, n - 1)(judgment) == judgment


def test_exact_mean_rounds_subnormal_ties_to_even():
    # Means of 0.5 and 1.5 units of 2**-1074 are ties: 0 and 2 units are even.
    profile = Profile((Interval(0.0, 5e-324), Interval(5e-324, 1e-323)))
    assert averaging_rule_handle()(profile) == Interval(0.0, 1e-323)
    assert reference_mean([0.0, 5e-324]) == 0.0
    assert reference_mean([5e-324, 1e-323]) == 1e-323


def test_means_one_rounding_apart_give_the_next_float_up():
    close = Interval(11.0, math.nextafter(11.0, 20.0))
    profile = Profile([close] + [Interval(0.0, 5e-324)] * 8)
    mean = reference_mean([entry.lo for entry in profile])
    assert reference_mean([entry.hi for entry in profile]) == mean
    expected = Interval(mean, math.nextafter(mean, POS_INF))
    assert expected == Interval(1.2222222222222223, 1.2222222222222225)
    handle = averaging_rule_handle()
    assert handle(profile) == expected
    assert handle.vary_agent(profile, 0)(close) == expected
    assert handle.vary_agent(profile.replace_agent(0, Interval(0, 1)), 0)(close) == expected
