import copy
import itertools
import math
import pickle
import random
import re

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from intervalagg import (
    NEG_INF,
    POS_INF,
    AuditConfig,
    ExtendedInterval,
    Interval,
    PhantomVector,
    Profile,
    RuleHandle,
    averaging_rule_handle,
    endpoint_rule_handle,
    endpoint_rule_phantoms,
    ext_precedes,
    maximal_rule_handle,
    median_rule_handle,
    phantom_rule_handle,
    sample_profile,
    valid_quota_pairs,
    validate_phantoms,
)
from intervalagg import _worker
from intervalagg.axioms import _outcomes

from .conftest import BENCHMARK_PROFILE, INTERLEAVED_PROFILE
from .strategies import intervals, profiles, profiles_with_quotas

TOP = ExtendedInterval(POS_INF, POS_INF)
BOTTOM = ExtendedInterval(NEG_INF, NEG_INF)
WHOLE = ExtendedInterval(NEG_INF, POS_INF)
# Every shape of extended interval, with finite bounds at 0 and 1.
PHANTOM_ALPHABET = (
    BOTTOM,
    ExtendedInterval(NEG_INF, 0),
    ExtendedInterval(NEG_INF, 1),
    WHOLE,
    ExtendedInterval(0, POS_INF),
    ExtendedInterval(1, POS_INF),
    TOP,
)


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
        assert endpoint_rule_handle(1, 1)(BENCHMARK_PROFILE) == Interval(1, 6)
        assert endpoint_rule_handle(1, 3)(BENCHMARK_PROFILE) == Interval(1, 4)
        assert endpoint_rule_handle(2, 2)(BENCHMARK_PROFILE) == Interval(2, 5)

    def test_median_examples(self):
        median = median_rule_handle()
        assert median(INTERLEAVED_PROFILE) == Interval(2, 5)
        assert median(Profile((Interval(0, 1),))) == Interval(0, 1)
        assert median(BENCHMARK_PROFILE) == Interval(2, 5)

    def test_maximal_examples(self):
        maximal = maximal_rule_handle()
        assert maximal(BENCHMARK_PROFILE) == Interval(1, 6)
        assert maximal(Profile((Interval(0, 1),))) == Interval(0, 1)
        assert maximal(
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
            endpoint_rule_phantoms(p, q, n)
        if n >= 1:
            # A handle is not pinned to one n: bad quotas fail when it is
            # built, quotas too large for n when it meets an n-agent profile.
            with pytest.raises(ValueError):
                endpoint_rule_handle(p, q)(Profile((Interval(0, 1),) * n))

    def test_non_integer_quotas_rejected(self):
        for p, q in ((1.5, 1), (1, 1.5), (True, 1), (1, False)):
            with pytest.raises(ValueError, match="must be an int"):
                endpoint_rule_handle(p, q)
            with pytest.raises(ValueError, match="must be an int"):
                endpoint_rule_phantoms(p, q, 3)

    @pytest.mark.parametrize("bad", ["1", None, True])
    def test_quota_types_checked_before_the_sum(self, bad):
        # The handle's quota sum must not run ahead of the type check.
        with pytest.raises(ValueError, match=f"lower_quota must be an int, got {bad!r}"):
            endpoint_rule_handle(bad, 2)
        with pytest.raises(ValueError, match=f"upper_quota must be an int, got {bad!r}"):
            endpoint_rule_handle(2, bad)

    @given(profiles_with_quotas())
    def test_output_copies_input_endpoints(self, case):
        profile, p, q = case
        out = endpoint_rule_handle(p, q)(profile)
        assert out.lo in {iv.lo for iv in profile}
        assert out.hi in {iv.hi for iv in profile}
        assert out.lo < out.hi

    @given(profiles_with_quotas())
    def test_counting_oracle(self, case):
        """Cross-check the order statistics against the ray-counting
        definition: x clears the aggregate lower endpoint exactly when at
        least p agents' intervals meet the lower ray at x, and dually."""
        profile, p, q = case
        out = endpoint_rule_handle(p, q)(profile)
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
        assert median_rule_handle()(profile) == endpoint_rule_handle(m, m)(profile)

    @given(profiles())
    def test_maximal_is_one_one(self, profile):
        assert maximal_rule_handle()(profile) == endpoint_rule_handle(1, 1)(profile)

    @given(profiles_with_quotas(), st.data())
    def test_order_statistic_lipschitz_bound(self, case, data):
        profile, p, q = case
        rule = endpoint_rule_handle(p, q)
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
        first = rule(profile)
        second = rule(other)
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
        for size in (True, 2.5, "3"):
            with pytest.raises(ValueError, match="n_agents must be an int"):
                valid_quota_pairs(size)


class TestAveraging:
    def test_examples(self):
        averaging = averaging_rule_handle()
        assert averaging(
            Profile((Interval(0, 1), Interval(2, 3)))
        ) == Interval(1, 2)
        assert averaging(Profile((Interval(0, 1),))) == Interval(0, 1)
        assert averaging(BENCHMARK_PROFILE) == Interval(2, 5)

    def test_unanimous_profiles_reproduce_exactly(self):
        # 0.1 is not a dyadic float; a float-sum mean of three copies
        # drifts by one ulp, an exactly rounded mean must not.
        judgment = Interval(0.1, 1.1)
        profile = Profile((judgment,) * 3)
        assert averaging_rule_handle()(profile) == judgment

    @given(profiles())
    def test_permutation_invariant(self, profile):
        rng = random.Random(0)
        order = list(range(len(profile)))
        rng.shuffle(order)
        shuffled = Profile(profile[i] for i in order)
        averaging = averaging_rule_handle()
        assert averaging(shuffled) == averaging(profile)

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError):
            averaging_rule_handle()(())


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

    def test_validation_matches_pooled_median_on_every_small_vector(self):
        # The pooled median read straight off the sorted bounds, with no
        # validation, shows what an invalid vector would produce.
        def pooled_median(vector, profile):
            n = len(profile)
            lows = sorted([iv.lo for iv in profile] + [ph.lo for ph in vector])
            highs = sorted([iv.hi for iv in profile] + [ph.hi for ph in vector])
            return lows[n], highs[n]

        checked = 0
        for n in range(1, 5):
            probes = [
                Profile((Interval(0, 1),) * n),
                Profile(Interval(2 * k - 1, 2 * k) for k in range(1, n + 1)),
                Profile(Interval(-2 * k, 1 - 2 * k) for k in range(1, n + 1)),
            ]
            for entries in itertools.combinations_with_replacement(
                PHANTOM_ALPHABET, n + 1
            ):
                vector = PhantomVector(entries)
                outputs = [pooled_median(vector, probe) for probe in probes]
                sound = all(
                    math.isfinite(lo) and math.isfinite(hi) and lo < hi
                    for lo, hi in outputs
                )
                assert (validate_phantoms(vector, n) is None) == sound, entries
                checked += 1
        assert checked == 784

    def test_phantom_vector_type_checks(self):
        with pytest.raises(ValueError):
            PhantomVector(())
        with pytest.raises(TypeError):
            PhantomVector((TOP, (1.0, 2.0)))

    def test_generalized_median_examples(self):
        vector = PhantomVector((TOP, TOP, BOTTOM, BOTTOM))
        assert phantom_rule_handle(vector)(BENCHMARK_PROFILE) == Interval(2, 5)
        assert phantom_rule_handle(PhantomVector((BOTTOM, TOP)))(
            Profile((Interval(0, 1),))
        ) == Interval(0, 1)
        assert phantom_rule_handle(
            PhantomVector((BOTTOM, ExtendedInterval(5, POS_INF)))
        )(Profile((Interval(10, 11),))) == Interval(5, 11)

    def test_generalized_median_rejects_invalid_vector(self):
        with pytest.raises(ValueError):
            phantom_rule_handle(PhantomVector((BOTTOM, BOTTOM)))(
                Profile((Interval(0, 1),))
            )

    def test_endpoint_rule_phantom_vectors(self):
        assert tuple(endpoint_rule_phantoms(2, 2, 3)) == (
            TOP, TOP, BOTTOM, BOTTOM,
        )
        assert tuple(endpoint_rule_phantoms(1, 1, 1)) == (TOP, BOTTOM)
        assert tuple(endpoint_rule_phantoms(1, 1, 3)) == (
            TOP, BOTTOM, WHOLE, WHOLE,
        )
        with pytest.raises(ValueError, match=r"quotas \(2, 3\) invalid for 3 agents"):
            endpoint_rule_phantoms(2, 3, 3)
        for size in (True, 2.5):
            with pytest.raises(ValueError, match="n_agents must be an int"):
                endpoint_rule_phantoms(1, 1, size)
            with pytest.raises(ValueError, match="n_agents must be an int"):
                validate_phantoms(endpoint_rule_phantoms(1, 1, 1), size)

    @given(profiles_with_quotas(max_agents=4), st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_phantom_equivalence_sampled(self, case, seed):
        profile, p, q = case
        n = len(profile)
        vector = endpoint_rule_phantoms(p, q, n)
        assert phantom_rule_handle(vector)(profile) == endpoint_rule_handle(p, q)(
            profile
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
            out = phantom_rule_handle(vector)(profile)
            assert out.lo < out.hi
        else:
            with pytest.raises(ValueError):
                phantom_rule_handle(vector)(profile)

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
        out = phantom_rule_handle(vector)(profile)
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

    @pytest.mark.parametrize("handle", [
        endpoint_rule_handle(1, 1),
        median_rule_handle(),
        maximal_rule_handle(),
        averaging_rule_handle(),
        phantom_rule_handle(PhantomVector((TOP, BOTTOM))),
    ])
    def test_non_interval_entry_is_the_profile_error(self, handle):
        message = "profile entry 0 is not an Interval: (0, 1)"
        with pytest.raises(TypeError, match=re.escape(message)):
            handle([(0, 1)])

    def test_phantom_handle_rejects_a_bare_tuple(self):
        with pytest.raises(TypeError, match="vector must be a PhantomVector"):
            phantom_rule_handle((TOP, BOTTOM))

    def test_endpoint_handle_rejects_bad_quotas_eagerly(self):
        with pytest.raises(ValueError):
            endpoint_rule_handle(0, 1)

    def test_determinism(self):
        handle = endpoint_rule_handle(1, 2)
        outputs = {handle(BENCHMARK_PROFILE) for _ in range(5)}
        assert len(outputs) == 1

    # Built-in handles pickle, so their audits shard; a pickled copy must
    # evaluate, clamp and bound exactly as the original does.
    @pytest.mark.parametrize("handle,sizes", [
        (endpoint_rule_handle(2, 3), range(4, 8)),
        (median_rule_handle(), range(1, 8)),
        (maximal_rule_handle(), range(1, 8)),
        (averaging_rule_handle(), range(1, 8)),
        (phantom_rule_handle(endpoint_rule_phantoms(2, 1, 4)), (4,)),
        (phantom_rule_handle(PhantomVector((TOP, WHOLE, BOTTOM))), (2,)),
    ], ids=lambda value: getattr(value, "name", None))
    def test_handles_survive_pickle(self, handle, sizes):
        copy = pickle.loads(pickle.dumps(handle))
        assert copy.name == handle.name
        rng = random.Random(17)
        for _ in range(200):
            profile = sample_profile(rng, rng.choice(sizes))
            assert copy(profile) == handle(profile)
            index = rng.randrange(len(profile))
            clamp = handle.vary_agent(profile, index)
            copied = copy.vary_agent(profile, index)
            assert getattr(copied, "bounds", None) == getattr(clamp, "bounds", None)
            for report in sample_profile(rng, 3):
                assert copied(report) == clamp(report)

    def test_pickled_phantom_handle_rejects_the_same_sizes(self):
        handle = phantom_rule_handle(endpoint_rule_phantoms(1, 1, 3))
        handle(INTERLEAVED_PROFILE)  # size 3 now validated in the original
        copy = pickle.loads(pickle.dumps(handle))
        assert copy(INTERLEAVED_PROFILE) == handle(INTERLEAVED_PROFILE)
        four = Profile(INTERLEAVED_PROFILE + (Interval(0, 1),))
        messages = []
        for rule in (handle, copy):
            with pytest.raises(ValueError) as error:
                rule(four)
            messages.append(str(error.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("invalid phantom vector: phantom vector has 4")


# Copies a handle or a vector as pickling, the sample worker's request,
# copy.copy and copy.deepcopy make them.
ROUND_TRIPS = {
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
    "worker-request": lambda value: pickle.loads(
        _worker._request(_outcomes, (value, AuditConfig(n_agents=4)), [(0, 1)])
    )[0][0],
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


class TestValueContract:
    """Handles and phantom vectors are frozen values: fields fixed at
    construction, equality, hash and repr by fields, and copies rebuilt
    through the constructor."""

    @pytest.mark.parametrize("value,field", [
        (median_rule_handle(), "name"),
        (median_rule_handle(), "evaluate"),
        (median_rule_handle(), "incremental"),
        (median_rule_handle(), "other"),
        (PhantomVector((TOP, BOTTOM)), "phantoms"),
        (PhantomVector((TOP, BOTTOM)), "other"),
    ])
    def test_fields_cannot_be_assigned_or_deleted(self, value, field):
        before = repr(value)
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert repr(value) == before

    def test_incremental_defaults_to_none(self):
        handle = RuleHandle("length", len)
        assert handle.incremental is None
        assert (handle.name, handle.evaluate) == ("length", len)

    def test_handle_equality_and_hash_go_by_fields(self):
        handle = RuleHandle("length", len)
        assert handle == RuleHandle("length", len, None)
        assert hash(handle) == hash(RuleHandle("length", len))
        assert handle != RuleHandle("size", len)
        assert handle != RuleHandle("length", abs)
        assert handle != RuleHandle("length", len, abs)
        # The partials of two factory calls are distinct objects.
        assert median_rule_handle() != median_rule_handle()

    def test_vector_equality_and_hash_go_by_phantoms(self):
        vector = PhantomVector((TOP, BOTTOM))
        assert vector == PhantomVector([TOP, BOTTOM])
        assert hash(vector) == hash(PhantomVector(iter((TOP, BOTTOM))))
        assert vector != PhantomVector((BOTTOM, TOP))
        assert vector != (TOP, BOTTOM)
        assert len({vector, PhantomVector((TOP, BOTTOM))}) == 1

    # The reprs a dataclass wrote for both classes, byte for byte.
    def test_repr_lists_the_fields(self):
        assert repr(RuleHandle("length", len)) == (
            "RuleHandle(name='length', evaluate=<built-in function len>, "
            "incremental=None)"
        )
        handle = median_rule_handle()
        assert repr(handle) == (
            f"RuleHandle(name='median', evaluate={handle.evaluate!r}, "
            f"incremental={handle.incremental!r})"
        )
        assert repr(PhantomVector((TOP, WHOLE))) == (
            "PhantomVector(phantoms=(ExtendedInterval(inf, inf), "
            "ExtendedInterval(-inf, inf)))"
        )

    @pytest.mark.parametrize("trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS)
    @pytest.mark.parametrize("handle", [
        endpoint_rule_handle(2, 3),
        median_rule_handle(),
        maximal_rule_handle(),
        averaging_rule_handle(),
        phantom_rule_handle(endpoint_rule_phantoms(2, 1, 4)),
    ], ids=lambda handle: handle.name)
    def test_built_in_handles_round_trip(self, handle, trip):
        copied = trip(handle)
        assert type(copied) is RuleHandle and copied.name == handle.name
        rng = random.Random(5)
        for _ in range(20):
            profile = sample_profile(rng, 4)
            assert copied(profile) == handle(profile)
            clamp = copied.vary_agent(profile, 1)
            report = sample_profile(rng, 1)[0]
            assert clamp(report) == handle.vary_agent(profile, 1)(report)

    @pytest.mark.parametrize("trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS)
    def test_vector_round_trips(self, trip):
        vector = endpoint_rule_phantoms(2, 1, 4)
        copied = trip(vector)
        assert type(copied) is PhantomVector
        assert copied == vector and hash(copied) == hash(vector)

    def test_bad_entry_fails_when_built_and_when_unpickled(self):
        message = "phantom 1 is not an ExtendedInterval: (0.0, 1.0)"
        with pytest.raises(TypeError, match=re.escape(message)):
            PhantomVector((TOP, (0.0, 1.0)))
        forged = object.__new__(PhantomVector)
        object.__setattr__(forged, "phantoms", (TOP, (0.0, 1.0)))
        data = pickle.dumps(forged)
        with pytest.raises(TypeError, match=re.escape(message)):
            pickle.loads(data)


class TestExhaustiveSmallCases:
    def test_all_quota_pairs_on_permutations(self):
        """Order statistics are permutation invariant; check every quota
        pair against every permutation of the benchmark profile."""
        n = len(BENCHMARK_PROFILE)
        for p, q in valid_quota_pairs(n):
            rule = endpoint_rule_handle(p, q)
            reference = rule(BENCHMARK_PROFILE)
            for order in itertools.permutations(range(n)):
                shuffled = Profile(BENCHMARK_PROFILE[i] for i in order)
                assert rule(shuffled) == reference
