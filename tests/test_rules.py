import itertools
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from intervalagg import (
    NEG_INF,
    POS_INF,
    EndpointRuleParams,
    ExtendedInterval,
    Interval,
    PhantomVector,
    Profile,
    averaging_rule,
    averaging_rule_handle,
    endpoint_rule,
    endpoint_rule_handle,
    endpoint_rule_phantoms,
    ext_precedes,
    generalized_median,
    maximal_rule,
    maximal_rule_handle,
    median_rule,
    median_rule_handle,
    phantom_rule_handle,
    valid_quota_pairs,
    validate_phantoms,
)

from .conftest import BENCHMARK_PROFILE, INTERLEAVED_PROFILE
from .strategies import intervals, profiles, profiles_with_quotas

TOP = ExtendedInterval(POS_INF, POS_INF)
BOTTOM = ExtendedInterval(NEG_INF, NEG_INF)
WHOLE = ExtendedInterval(NEG_INF, POS_INF)


def count_oracle_probes(values):
    """Probe points surrounding a finite value set: the values themselves,
    midpoints of adjacent pairs, and outside margins."""
    ordered = sorted(set(values))
    probes = list(ordered)
    probes += [(a + b) / 2.0 for a, b in zip(ordered, ordered[1:])]
    probes += [ordered[0] - 1.0, ordered[-1] + 1.0]
    return probes


class TestEndpointRule:
    def test_benchmark_goldens(self):
        assert endpoint_rule(
            EndpointRuleParams(1, 1, 3), BENCHMARK_PROFILE
        ) == Interval(1, 6)
        assert endpoint_rule(
            EndpointRuleParams(1, 3, 3), BENCHMARK_PROFILE
        ) == Interval(1, 4)
        assert endpoint_rule(
            EndpointRuleParams(2, 2, 3), BENCHMARK_PROFILE
        ) == Interval(2, 5)

    def test_median_examples(self):
        assert median_rule(INTERLEAVED_PROFILE) == Interval(2, 5)
        assert median_rule(Profile((Interval(0, 1),))) == Interval(0, 1)
        assert median_rule(BENCHMARK_PROFILE) == Interval(2, 5)

    def test_maximal_examples(self):
        assert maximal_rule(BENCHMARK_PROFILE) == Interval(1, 6)
        assert maximal_rule(Profile((Interval(0, 1),))) == Interval(0, 1)
        assert maximal_rule(
            Profile((Interval(0, 1), Interval(0, 1)))
        ) == Interval(0, 1)

    @pytest.mark.parametrize("p,q,n", [
        (0, 1, 3),
        (1, 0, 3),
        (-1, 2, 3),
        (2, 3, 3),
        (3, 3, 3),
        (2, 2, 2),
        (1, 1, 0),
    ])
    def test_invalid_quotas_rejected(self, p, q, n):
        with pytest.raises(ValueError):
            EndpointRuleParams(p, q, n)

    def test_non_integer_quotas_rejected(self):
        with pytest.raises(ValueError):
            EndpointRuleParams(1.5, 1, 3)
        with pytest.raises(ValueError):
            EndpointRuleParams(True, 1, 3)

    def test_profile_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            endpoint_rule(EndpointRuleParams(1, 1, 2), BENCHMARK_PROFILE)

    @given(profiles_with_quotas())
    def test_output_copies_input_endpoints(self, case):
        profile, p, q = case
        out = endpoint_rule(EndpointRuleParams(p, q, len(profile)), profile)
        assert out.lo in {iv.lo for iv in profile}
        assert out.hi in {iv.hi for iv in profile}
        assert out.lo < out.hi

    @given(profiles_with_quotas())
    def test_counting_oracle(self, case):
        """Cross-check the order statistics against the ray-counting
        definition: x clears the aggregate lower endpoint exactly when at
        least p agents' intervals meet the lower ray at x, and dually."""
        profile, p, q = case
        out = endpoint_rule(EndpointRuleParams(p, q, len(profile)), profile)
        for x in count_oracle_probes(
            [iv.lo for iv in profile] + [iv.hi for iv in profile]
        ):
            lower_count = sum(ext_precedes(iv.lo, x) for iv in profile)
            upper_count = sum(ext_precedes(x, iv.hi) for iv in profile)
            assert (lower_count >= p) == (x > out.lo)
            assert (upper_count >= q) == (x < out.hi)

    @given(profiles())
    def test_median_is_symmetric_quota_rule(self, profile):
        n = len(profile)
        m = (n + 1) // 2
        assert median_rule(profile) == endpoint_rule(
            EndpointRuleParams(m, m, n), profile
        )

    @given(profiles())
    def test_maximal_is_one_one(self, profile):
        assert maximal_rule(profile) == endpoint_rule(
            EndpointRuleParams(1, 1, len(profile)), profile
        )

    @given(profiles_with_quotas(), st.data())
    def test_order_statistic_lipschitz_bound(self, case, data):
        profile, p, q = case
        params = EndpointRuleParams(p, q, len(profile))
        other = Profile(
            data.draw(intervals(), label=f"agent {i}")
            for i in range(len(profile))
        )
        bound_lo = max(
            abs(a.lo - b.lo) for a, b in zip(profile, other)
        )
        bound_hi = max(
            abs(a.hi - b.hi) for a, b in zip(profile, other)
        )
        first = endpoint_rule(params, profile)
        second = endpoint_rule(params, other)
        assert abs(first.lo - second.lo) <= bound_lo + 1e-12
        assert abs(first.hi - second.hi) <= bound_hi + 1e-12

    def test_valid_quota_pairs_shape(self):
        assert valid_quota_pairs(1) == [(1, 1)]
        assert valid_quota_pairs(3) == [
            (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1),
        ]
        for n in range(1, 7):
            assert len(valid_quota_pairs(n)) == n * (n + 1) // 2
        with pytest.raises(ValueError):
            valid_quota_pairs(0)


class TestAveraging:
    def test_examples(self):
        assert averaging_rule(
            Profile((Interval(0, 1), Interval(2, 3)))
        ) == Interval(1, 2)
        assert averaging_rule(Profile((Interval(0, 1),))) == Interval(0, 1)
        assert averaging_rule(BENCHMARK_PROFILE) == Interval(2, 5)

    def test_unanimous_profiles_reproduce_exactly(self):
        # 0.1 is not a dyadic float; a float-sum mean of three copies
        # drifts by one ulp, an exactly rounded mean must not.
        judgment = Interval(0.1, 1.1)
        profile = Profile((judgment,) * 3)
        assert averaging_rule(profile) == judgment

    @given(profiles())
    def test_permutation_invariant(self, profile):
        rng = random.Random(0)
        order = list(range(len(profile)))
        rng.shuffle(order)
        shuffled = Profile(profile[i] for i in order)
        assert averaging_rule(shuffled) == averaging_rule(profile)

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError):
            averaging_rule(())


class TestPhantoms:
    def test_validate_examples(self):
        assert validate_phantoms(PhantomVector((BOTTOM, BOTTOM)), 1) is not None
        assert validate_phantoms(
            PhantomVector((TOP, TOP, BOTTOM, BOTTOM)), 3
        ) is None
        assert validate_phantoms(
            PhantomVector((BOTTOM, ExtendedInterval(5, POS_INF))), 1
        ) is None

    def test_validate_length_mismatch(self):
        vector = PhantomVector((TOP, BOTTOM))
        assert "needs n_agents + 1" in validate_phantoms(vector, 3)

    def test_rejected_double_bottom_would_escape(self):
        # Direct justification for the rejection: pooling one finite
        # judgment with two bottom phantoms puts the pooled median lower
        # bound at -inf, outside the finite interval space.
        pooled_lows = sorted([0.0, NEG_INF, NEG_INF])
        assert pooled_lows[1] == NEG_INF

    @pytest.mark.parametrize("vector,n,fragment", [
        ((ExtendedInterval(NEG_INF, 0.0),) * 3, 2, "-inf"),
        ((ExtendedInterval(0.0, POS_INF),) * 3, 2, "inf"),
        ((TOP,) * 3, 2, "inf"),
        ((BOTTOM,) * 3, 2, "-inf"),
    ])
    def test_each_count_condition_rejects(self, vector, n, fragment):
        reason = validate_phantoms(PhantomVector(vector), n)
        assert reason is not None
        assert fragment in reason

    def test_phantom_vector_type_checks(self):
        with pytest.raises(ValueError):
            PhantomVector(())
        with pytest.raises(TypeError):
            PhantomVector((TOP, (1.0, 2.0)))

    def test_generalized_median_examples(self):
        vector = PhantomVector((TOP, TOP, BOTTOM, BOTTOM))
        assert generalized_median(vector, BENCHMARK_PROFILE) == Interval(2, 5)
        assert generalized_median(
            PhantomVector((BOTTOM, TOP)), Profile((Interval(0, 1),))
        ) == Interval(0, 1)
        assert generalized_median(
            PhantomVector((BOTTOM, ExtendedInterval(5, POS_INF))),
            Profile((Interval(10, 11),)),
        ) == Interval(5, 11)

    def test_generalized_median_rejects_invalid_vector(self):
        with pytest.raises(ValueError):
            generalized_median(
                PhantomVector((BOTTOM, BOTTOM)), Profile((Interval(0, 1),))
            )

    def test_endpoint_rule_phantom_vectors(self):
        assert tuple(endpoint_rule_phantoms(2, 2, 3)) == (
            TOP, TOP, BOTTOM, BOTTOM,
        )
        assert tuple(endpoint_rule_phantoms(1, 1, 1)) == (TOP, BOTTOM)
        assert tuple(endpoint_rule_phantoms(1, 1, 3)) == (
            TOP, BOTTOM, WHOLE, WHOLE,
        )
        with pytest.raises(ValueError):
            endpoint_rule_phantoms(2, 3, 3)

    @given(profiles_with_quotas(max_agents=4), st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_phantom_equivalence_sampled(self, case, seed):
        profile, p, q = case
        n = len(profile)
        vector = endpoint_rule_phantoms(p, q, n)
        assert generalized_median(vector, profile) == endpoint_rule(
            EndpointRuleParams(p, q, n), profile
        )

    @given(profiles(max_agents=4), st.data())
    @settings(max_examples=80)
    def test_accepted_vectors_stay_finite(self, profile, data):
        """Fuzz arbitrary phantom vectors; whenever validation accepts
        one, the pooled median must be a valid finite interval."""
        n = len(profile)
        choices = st.sampled_from(["finite", "low", "high", "bottom", "top", "whole"])
        entries = []
        for i in range(n + 1):
            kind = data.draw(choices, label=f"phantom {i}")
            if kind == "finite":
                iv = data.draw(intervals(), label=f"finite {i}")
                entries.append(ExtendedInterval(iv.lo, iv.hi))
            elif kind == "low":
                entries.append(
                    ExtendedInterval(
                        NEG_INF, data.draw(st.integers(-9, 9), label=f"b {i}")
                    )
                )
            elif kind == "high":
                entries.append(
                    ExtendedInterval(
                        data.draw(st.integers(-9, 9), label=f"a {i}"), POS_INF
                    )
                )
            else:
                entries.append(
                    {"bottom": BOTTOM, "top": TOP, "whole": WHOLE}[kind]
                )
        vector = PhantomVector(tuple(entries))
        if validate_phantoms(vector, n) is None:
            out = generalized_median(vector, profile)
            assert out.lo < out.hi
        else:
            with pytest.raises(ValueError):
                generalized_median(vector, profile)

    @given(profiles(max_agents=4), st.data())
    @settings(max_examples=60)
    def test_generalized_median_counting_oracle(self, data_profile, data):
        """The pooled median endpoint must match the ray-counting reading
        with threshold n+1 over the 2n+1 pooled intervals."""
        profile = data_profile
        n = len(profile)
        p = data.draw(st.integers(1, n), label="p")
        q = data.draw(st.integers(1, n + 1 - p), label="q")
        vector = endpoint_rule_phantoms(p, q, n)
        out = generalized_median(vector, profile)
        pooled = list(profile) + list(vector)
        finite = [iv.lo for iv in profile] + [iv.hi for iv in profile]
        for x in count_oracle_probes(finite):
            low_count = sum(ext_precedes(iv.lo, x) for iv in pooled)
            high_count = sum(ext_precedes(x, iv.hi) for iv in pooled)
            assert (low_count >= n + 1) == (x > out.lo)
            assert (high_count >= n + 1) == (x < out.hi)


class TestRuleHandles:
    def test_names(self):
        assert endpoint_rule_handle(2, 2).name == "endpoint:2,2"
        assert median_rule_handle().name == "median"
        assert maximal_rule_handle().name == "maximal"
        assert averaging_rule_handle().name == "averaging"
        vector = endpoint_rule_phantoms(1, 1, 3)
        assert phantom_rule_handle(vector).name == "phantoms[4]"
        assert phantom_rule_handle(vector, name="custom").name == "custom"

    def test_handles_are_callable(self):
        assert endpoint_rule_handle(2, 2)(BENCHMARK_PROFILE) == Interval(2, 5)
        assert median_rule_handle()(INTERLEAVED_PROFILE) == Interval(2, 5)

    def test_endpoint_handle_checks_profile_size(self):
        handle = endpoint_rule_handle(3, 3)
        with pytest.raises(ValueError):
            handle(BENCHMARK_PROFILE)

    def test_phantom_handle_checks_profile_size(self):
        handle = phantom_rule_handle(endpoint_rule_phantoms(1, 1, 2))
        with pytest.raises(ValueError):
            handle(BENCHMARK_PROFILE)

    def test_endpoint_handle_rejects_bad_quotas_eagerly(self):
        with pytest.raises(ValueError):
            endpoint_rule_handle(0, 1)

    def test_determinism(self):
        handle = endpoint_rule_handle(1, 2)
        outputs = {handle(BENCHMARK_PROFILE) for _ in range(5)}
        assert len(outputs) == 1


class TestExhaustiveSmallCases:
    def test_all_quota_pairs_on_permutations(self):
        """Order statistics are permutation invariant; check every quota
        pair against every permutation of the benchmark profile."""
        n = len(BENCHMARK_PROFILE)
        for p, q in valid_quota_pairs(n):
            params = EndpointRuleParams(p, q, n)
            reference = endpoint_rule(params, BENCHMARK_PROFILE)
            for order in itertools.permutations(range(n)):
                shuffled = Profile(BENCHMARK_PROFILE[i] for i in order)
                assert endpoint_rule(params, shuffled) == reference
