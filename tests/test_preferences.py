import math
import pickle
import random
import re
from itertools import combinations

import pytest
from hypothesis import given
import hypothesis.strategies as st

from intervalagg import (
    GridConfig,
    Interval,
    PenaltyPreference,
    Profile,
    STRICT_IMPROVEMENT_EPS,
    WeightedL1Preference,
    averaging_rule_handle,
    between,
    candidate_misreports,
    endpoint_distance,
    endpoint_rule_handle,
    find_manipulation,
    median_rule_handle,
)

from .conftest import BENCHMARK_PROFILE
from .strategies import finite_values, intervals, profiles


def reference_candidates(profile, config):
    """The candidate grid as first written, valid while its span and box
    stay finite."""
    values = sorted({v for entry in profile for v in (entry.lo, entry.hi)})
    lowest, highest = values[0], values[-1]
    grid = set(values)
    for a, b in zip(values, values[1:]):
        grid.add((a + b) / 2.0)
    for delta in (1.0, 10.0, 100.0):
        grid.add(lowest - delta)
        grid.add(highest + delta)
    candidates = {Interval(a, b) for a, b in combinations(sorted(grid), 2)}
    span = max(highest - lowest, 1.0)
    rng = random.Random(config.seed)
    made = 0
    while made < config.random_candidates:
        a = rng.uniform(lowest - 2.0 * span, highest + 2.0 * span)
        b = rng.uniform(lowest - 2.0 * span, highest + 2.0 * span)
        if a == b:
            continue
        candidates.add(Interval(min(a, b), max(a, b)))
        made += 1
    candidates.update(config.extra_candidates)
    return sorted(candidates)


@st.composite
def wide_intervals(draw):
    a = draw(st.floats(-1e307, 1e307))
    b = draw(st.floats(-1e307, 1e307).filter(lambda v: v != a))
    return Interval(min(a, b), max(a, b))


def sample_interval(rng):
    a = rng.uniform(-10.0, 10.0)
    b = rng.uniform(-10.0, 10.0)
    while a == b:
        b = rng.uniform(-10.0, 10.0)
    return Interval(min(a, b), max(a, b))


def sample_between(rng, peak, far):
    """Random interval endpointwise between ``peak`` and ``far``."""
    while True:
        t_lo = rng.random()
        t_hi = rng.random()
        lo = peak.lo + t_lo * (far.lo - peak.lo)
        hi = peak.hi + t_hi * (far.hi - peak.hi)
        if lo < hi:
            return Interval(lo, hi)


class TestCosts:
    def test_weighted_cost_examples(self):
        pref = WeightedL1Preference(Interval(0, 1))
        assert pref.cost(Interval(0, 1)) == 0.0
        assert pref.cost(Interval(1, 3)) == 3.0

    def test_weighted_cost_equals_distance_at_unit_weights(self):
        pref = WeightedL1Preference(Interval(0, 1))
        candidate = Interval(-4, 2.5)
        assert pref.cost(candidate) == endpoint_distance(
            Interval(0, 1), candidate
        )

    def test_weighted_cost_uses_weights(self):
        pref = WeightedL1Preference(Interval(0, 1), lower_weight=2.0, upper_weight=0.5)
        assert pref.cost(Interval(1, 3)) == 2.0 * 1 + 0.5 * 2

    def test_penalty_cost_example(self):
        pref = PenaltyPreference(peak=Interval(0, 1), reference=Interval(2, 3))
        assert pref.cost(Interval(5, 6)) == 14.0

    def test_penalty_cost_between_skips_penalty(self):
        pref = PenaltyPreference(peak=Interval(0, 1), reference=Interval(4, 5))
        candidate = Interval(2, 3)
        assert between(pref.peak, candidate, pref.reference)
        assert pref.cost(candidate) == endpoint_distance(
            pref.peak, candidate
        )

    def test_zero_exactly_at_peak(self):
        weighted = WeightedL1Preference(Interval(0, 1))
        penalty = PenaltyPreference(peak=Interval(0, 1), reference=Interval(9, 10))
        assert weighted.cost(Interval(0, 1)) == 0.0
        assert penalty.cost(Interval(0, 1)) == 0.0
        for other in (Interval(0, 1.25), Interval(-1, 1), Interval(3, 4)):
            assert weighted.cost(other) > 0.0
            assert penalty.cost(other) > 0.0

    def test_weight_validation(self):
        for bad in (0.0, -1.0, float("inf"), float("nan"), True):
            with pytest.raises(ValueError, match=f"lower_weight .*, got {bad!r}"):
                WeightedL1Preference(Interval(0, 1), lower_weight=bad)
            with pytest.raises(ValueError, match=f"upper_weight .*, got {bad!r}"):
                WeightedL1Preference(Interval(0, 1), upper_weight=bad)

    def test_peak_type_validation(self):
        with pytest.raises(TypeError):
            WeightedL1Preference((0, 1))
        with pytest.raises(TypeError):
            PenaltyPreference(peak=Interval(0, 1), reference=(2, 3))


def bits(value):
    return float.hex(value)


def old_weighted_cost(pref, candidate):
    """The weighted cost as first written, reading the peak's fields."""
    return pref.lower_weight * abs(candidate.lo - pref.peak.lo) + (
        pref.upper_weight * abs(candidate.hi - pref.peak.hi)
    )


def old_penalty_cost(pref, candidate):
    """The penalty cost as first written, through the core helpers."""
    base = endpoint_distance(pref.peak, candidate)
    if between(pref.peak, candidate, pref.reference):
        return base
    return base + endpoint_distance(pref.peak, pref.reference)


@st.composite
def peaks_and_candidates(draw):
    """A peak, a reference and candidates whose endpoints are often one of
    the peak's or the reference's, so betweenness ties are common."""
    peak = draw(intervals())
    reference = draw(intervals())
    shared = st.sampled_from([peak.lo, peak.hi, reference.lo, reference.hi])
    value = st.one_of(shared, finite_values)
    candidates = []
    for _ in range(draw(st.integers(1, 12))):
        a = draw(value)
        b = draw(value.filter(lambda v: v != a))
        candidates.append(Interval(min(a, b), max(a, b)))
    return peak, reference, candidates


weights = st.floats(min_value=1e-3, max_value=1e3)


class TestStoredEndpoints:
    """Both preferences keep their intervals' endpoints in private slots;
    costs and every public face stay what they were."""

    @given(peaks_and_candidates(), weights, weights)
    def test_weighted_cost_is_bit_identical(self, case, lower, upper):
        peak, reference, candidates = case
        for pref in (
            WeightedL1Preference(peak),
            WeightedL1Preference(peak, lower, upper),
        ):
            for candidate in (*candidates, peak, reference):
                assert bits(pref.cost(candidate)) == bits(
                    old_weighted_cost(pref, candidate)
                )

    @given(peaks_and_candidates())
    def test_penalty_cost_is_bit_identical(self, case):
        peak, reference, candidates = case
        for pref in (
            PenaltyPreference(peak, reference),
            PenaltyPreference(reference, peak),
            PenaltyPreference(peak, peak),
        ):
            for candidate in (*candidates, peak, reference):
                assert bits(pref.cost(candidate)) == bits(
                    old_penalty_cost(pref, candidate)
                )

    CASES = [
        (
            lambda: WeightedL1Preference(Interval(0, 1), 2.0, 0.5),
            "WeightedL1Preference(peak=Interval(0.0, 1.0), lower_weight=2.0, "
            "upper_weight=0.5)",
            ("peak", "lower_weight", "upper_weight"),
            (Interval(0, 1), 2.0, 0.5),
        ),
        (
            lambda: PenaltyPreference(Interval(0, 1), Interval(-1, 3)),
            "PenaltyPreference(peak=Interval(0.0, 1.0), "
            "reference=Interval(-1.0, 3.0))",
            ("peak", "reference"),
            (Interval(0, 1), Interval(-1, 3)),
        ),
    ]

    @pytest.mark.parametrize("build,text,fields,values", CASES)
    def test_public_face_is_unchanged(self, build, text, fields, values):
        pref = build()
        assert repr(pref) == text
        private = [name for name in type(pref).__slots__ if name[0] == "_"]
        assert private and not any(name in repr(pref) for name in private)
        assert pref._fields == pref.__match_args__ == fields
        assert tuple(getattr(pref, name) for name in fields) == values
        assert pref == build() and hash(pref) == hash(build()) == hash(values)
        assert pref != values
        assert pref.__reduce__() == (type(pref), values)

    @pytest.mark.parametrize("build,text,fields,values", CASES)
    def test_pickled_copy_costs_alike(self, build, text, fields, values):
        pref = build()
        copied = pickle.loads(pickle.dumps(pref))
        assert type(copied) is type(pref) and copied == pref
        assert repr(copied) == repr(pref)
        for candidate in (Interval(-2, 0.5), Interval(0, 1), Interval(2, 7)):
            assert bits(copied.cost(candidate)) == bits(pref.cost(candidate))

    def test_private_slots_are_frozen(self):
        pref = WeightedL1Preference(Interval(0, 1))
        with pytest.raises(AttributeError):
            pref._peak_lo = 5.0
        assert pref.cost(Interval(0, 1)) == 0.0


class TestPrefers:
    def test_peak_weakly_beats_everything(self):
        pref = WeightedL1Preference(Interval(0, 1))
        for other in (Interval(0, 1), Interval(5, 6), Interval(-3, -1)):
            assert pref.cost(Interval(0, 1)) <= pref.cost(other)

    def test_cost_comparison_example(self):
        pref = WeightedL1Preference(Interval(0, 1))
        assert pref.cost(Interval(1, 2)) <= pref.cost(Interval(3, 4))
        assert pref.cost(Interval(3, 4)) > pref.cost(Interval(1, 2))

    def test_single_peaked_membership_campaign(self):
        """Both preference kinds belong to the single-peaked class: an
        interval between the peak and a third interval is weakly
        preferred to that third interval, and the peak strictly beats
        every non-peak interval."""
        rng = random.Random(20260822)
        for trial in range(10_000):
            peak = sample_interval(rng)
            far = sample_interval(rng)
            middle = sample_between(rng, peak, far)
            weights = (10.0 ** rng.uniform(-1, 1), 10.0 ** rng.uniform(-1, 1))
            for pref in (
                WeightedL1Preference(peak, *weights),
                PenaltyPreference(peak=peak, reference=sample_interval(rng)),
            ):
                assert between(peak, middle, far)
                assert pref.cost(middle) <= pref.cost(far)
                if far != peak:
                    assert pref.cost(far) > 0.0

    @given(intervals(), intervals(), st.floats(0.0, 1.0))
    def test_between_implies_weak_preference(self, peak, far, t):
        lo = peak.lo + t * (far.lo - peak.lo)
        hi = peak.hi + t * (far.hi - peak.hi)
        if not lo < hi:
            return
        middle = Interval(lo, hi)
        if not between(peak, middle, far):
            return
        for pref in (
            WeightedL1Preference(peak),
            PenaltyPreference(peak=peak, reference=far),
        ):
            assert pref.cost(middle) <= pref.cost(far)


class TestCandidateGrid:
    def test_contains_endpoints_midpoints_margins(self):
        profile = Profile((Interval(0, 1), Interval(2, 3)))
        grid = candidate_misreports(profile, GridConfig(random_candidates=0))
        values = {v for iv in grid for v in (iv.lo, iv.hi)}
        for expected in (0.0, 1.0, 2.0, 3.0, 0.5, 1.5, 2.5,
                         -1.0, -10.0, -100.0, 4.0, 13.0, 103.0):
            assert expected in values
        assert all(iv.lo < iv.hi for iv in grid)

    def test_sorted_and_duplicate_free(self):
        profile = Profile((Interval(0, 1), Interval(2, 3)))
        grid = candidate_misreports(profile, GridConfig())
        assert grid == sorted(set(grid))

    def test_deterministic_given_seed(self):
        profile = Profile((Interval(0, 1), Interval(2, 3)))
        first = candidate_misreports(profile, GridConfig(seed=5))
        second = candidate_misreports(profile, GridConfig(seed=5))
        assert first == second
        different = candidate_misreports(profile, GridConfig(seed=6))
        assert first != different

    @given(
        st.one_of(
            profiles(),
            st.lists(wide_intervals(), min_size=1, max_size=4).map(Profile),
        ),
        st.integers(0, 2**31),
        st.sampled_from([0, 20]),
    )
    def test_finite_profiles_keep_the_grid(self, profile, seed, cloud_size):
        config = GridConfig(random_candidates=cloud_size, seed=seed)
        grid = reference_candidates(profile, GridConfig(random_candidates=0))
        with_cloud = reference_candidates(profile, config)
        cloud = sorted(set(with_cloud) - set(grid))
        lowest = grid[0].lo
        # One extra on the grid, one below every grid value (so on neither
        # the grid nor, but for a zero-probability draw, the cloud) and
        # one equal to a cloud point when there is a cloud.
        on_grid = grid[len(grid) // 2]
        on_neither = Interval(lowest - max(1.0, abs(lowest)), lowest)
        extras = (on_grid, on_neither, *cloud[:1])
        config = GridConfig(cloud_size, seed, extras)
        merged = candidate_misreports(profile, config)
        assert merged == reference_candidates(profile, config)
        assert on_neither not in with_cloud
        assert len(merged) == len(with_cloud) + 1

    def test_tied_cloud_draws_are_drawn_again(self, monkeypatch):
        rngs = []

        class TiedRandom(random.Random):
            """Its first two draws are equal, the others random's own."""

            draws = 0

            def uniform(self, a, b):
                self.draws += 1
                return (a + b) / 2.0 if self.draws <= 2 else super().uniform(a, b)

        def tied(seed):
            rngs.append(TiedRandom(seed))
            return rngs[-1]

        monkeypatch.setattr(random, "Random", tied)
        profile = Profile((Interval(0, 1), Interval(2, 3)))
        grid = candidate_misreports(profile, GridConfig(random_candidates=0))
        merged = candidate_misreports(profile, GridConfig(random_candidates=3))
        assert len(set(merged) - set(grid)) == 3
        assert rngs[-1].draws == 8

    @pytest.mark.parametrize("kwargs,error,message", [
        ({"extra_candidates": ((1.3, 2.7),)}, TypeError,
         "extra_candidates entry 0 is not an Interval: (1.3, 2.7)"),
        ({"extra_candidates": (Interval(0, 1), [2, 3])}, TypeError,
         "extra_candidates entry 1 is not an Interval"),
        ({"random_candidates": 2.5}, ValueError, "random_candidates must be an int"),
        ({"random_candidates": True}, ValueError, "random_candidates must be an int"),
        ({"random_candidates": -3}, ValueError, "random_candidates must be >= 0"),
        ({"extra_candidates": 5}, TypeError,
         "extra_candidates must be a sequence of Intervals, got 5"),
        ({"seed": 1.5}, ValueError, "seed must be an int, got 1.5"),
        ({"seed": False}, ValueError, "seed must be an int, got False"),
        ({"seed": "7"}, ValueError, "seed must be an int"),
    ])
    def test_config_validation(self, kwargs, error, message):
        with pytest.raises(error, match=re.escape(message)):
            GridConfig(**kwargs)

    # Margins at the largest float round back onto it: -max - 100 == -max.
    def test_near_float_max_profile_stays_finite(self):
        top = 1.7976931348623157e308
        profile = Profile((
            Interval(-1e308, 1e308), Interval(-1.5e308, 1.2e308), Interval(0, 1),
            Interval(-top, top),
        ))
        grid = candidate_misreports(profile, GridConfig())
        assert all(math.isfinite(v) for iv in grid for v in iv)
        assert Interval(-1.25e308, 0.0) in grid  # half-sum midpoint
        for index in range(len(profile)):
            preference = WeightedL1Preference(profile[index])
            find_manipulation(averaging_rule_handle(), profile, index, preference)

    # A one-shot iterable was used up by the check and a list made the
    # frozen config unhashable; the config keeps the tuple it checked.
    @pytest.mark.parametrize("make", [lambda values: (v for v in values), list],
                             ids=["generator", "list"])
    def test_sequences_are_stored_as_checked_tuples(self, make):
        profile = Profile((Interval(0, 1), Interval(2, 3)))
        extras = (Interval(-2, -1),)
        config = GridConfig(random_candidates=0, extra_candidates=make(extras))
        assert config.extra_candidates == extras
        assert hash(config) == hash(GridConfig(0, extra_candidates=extras))
        grid = candidate_misreports(profile, config)
        assert len(grid) == 79 and Interval(-2, -1) in grid

    def test_extra_candidates_included(self):
        profile = Profile((Interval(0, 1), Interval(2, 3)))
        wanted = Interval(-2, -1)
        grid = candidate_misreports(
            profile, GridConfig(extra_candidates=(wanted,))
        )
        assert wanted in grid


class TestFindManipulation:
    def test_averaging_example_with_injected_candidate(self):
        """Pinning the full worked example requires injecting (-2,-1)
        into the grid; the deterministic part does not contain it."""
        profile = Profile((Interval(0, 1), Interval(2, 3)))
        pref = WeightedL1Preference(Interval(0, 1))
        result = find_manipulation(
            averaging_rule_handle(), profile, 0, pref,
            GridConfig(extra_candidates=(Interval(-2, -1),)),
        )
        assert result.found
        assert result.truthful_outcome == Interval(1, 2)
        assert result.misreport == Interval(-2, -1)
        assert result.manipulated_outcome == Interval(0, 1)
        assert result.cost_drop == 2.0

    def test_averaging_manipulable_with_default_grid(self):
        profile = Profile((Interval(0, 1), Interval(2, 3)))
        pref = WeightedL1Preference(Interval(0, 1))
        result = find_manipulation(averaging_rule_handle(), profile, 0, pref)
        assert result.found
        assert result.cost_drop > STRICT_IMPROVEMENT_EPS
        outcome_cost = pref.cost(result.manipulated_outcome)
        truthful_cost = pref.cost(result.truthful_outcome)
        assert outcome_cost < truthful_cost

    def test_median_on_benchmark_profile_is_safe(self):
        for agent in range(3):
            for pref in (
                WeightedL1Preference(BENCHMARK_PROFILE[agent]),
                PenaltyPreference(
                    peak=BENCHMARK_PROFILE[agent], reference=Interval(0, 9),
                ),
            ):
                result = find_manipulation(
                    median_rule_handle(), BENCHMARK_PROFILE, agent, pref
                )
                assert not result.found
                assert result.misreport is None
                assert result.cost_drop == 0.0

    def test_widest_rule_agent_strictly_inside(self):
        """Under the smallest-lower/largest-upper rule an agent whose
        judgment sits strictly inside the output can only push the
        outcome further from their peak."""
        profile = Profile((Interval(0, 10), Interval(3, 4)))
        result = find_manipulation(
            endpoint_rule_handle(1, 1), profile, 1,
            WeightedL1Preference(Interval(3, 4)),
        )
        assert not result.found

    def test_endpoint_rules_safe_on_sampled_instances(self):
        rng = random.Random(99)
        for trial in range(40):
            n = rng.randint(1, 3)
            profile = Profile(sample_interval(rng) for _ in range(n))
            p = rng.randint(1, n)
            q = rng.randint(1, n + 1 - p)
            agent = rng.randrange(n)
            result = find_manipulation(
                endpoint_rule_handle(p, q), profile, agent,
                WeightedL1Preference(profile[agent]),
                GridConfig(random_candidates=40),
            )
            assert not result.found

    def test_agent_index_validated(self):
        pref = WeightedL1Preference(Interval(0, 1))
        profile = Profile((Interval(0, 1), Interval(2, 3)))
        with pytest.raises(IndexError):
            find_manipulation(median_rule_handle(), profile, 2, pref)
        with pytest.raises(IndexError):
            find_manipulation(median_rule_handle(), profile, -1, pref)

    @pytest.mark.parametrize("agent", [True, 1.0])
    def test_agent_index_must_be_an_int(self, agent):
        pref = WeightedL1Preference(Interval(2, 3))
        profile = Profile((Interval(0, 1), Interval(2, 3)))
        with pytest.raises(ValueError, match=f"agent_index must be an int, got {agent!r}"):
            find_manipulation(median_rule_handle(), profile, agent, pref)

    def test_peak_must_match_truthful_judgment(self):
        profile = Profile((Interval(0, 1), Interval(2, 3)))
        with pytest.raises(ValueError):
            find_manipulation(
                median_rule_handle(), profile, 1,
                WeightedL1Preference(Interval(0, 1)),
            )

    def test_search_is_deterministic(self):
        profile = Profile((Interval(0, 1), Interval(2, 3)))
        pref = WeightedL1Preference(Interval(0, 1))
        results = {
            (
                find_manipulation(averaging_rule_handle(), profile, 0, pref)
                .misreport
            )
            for _ in range(3)
        }
        assert len(results) == 1
