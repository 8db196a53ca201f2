import json
import math
import random
import re
from pathlib import Path

import pytest

from intervalagg import (
    ALL_AXIOM_IDS,
    DEFAULT_AUDIT_AXIOMS,
    AuditConfig,
    Interval,
    MonotoneMap,
    Profile,
    RuleEvaluationError,
    RuleHandle,
    WeightedL1Preference,
    audit,
    averaging_rule_handle,
    check_anonymity,
    check_continuity_lipschitz,
    check_independent_endpoints,
    check_lower_property,
    check_manipulation,
    check_out_betweenness,
    check_responsiveness,
    check_strong_neutrality,
    check_translation_equivariance,
    check_unanimity,
    check_upper_property,
    check_weak_neutrality,
    endpoint_rule_handle,
    identify_endpoint_rule,
    maximal_rule_handle,
    median_rule_handle,
    random_increasing_map,
    replay_witness,
    sample_profile,
    staircase_profile,
    valid_quota_pairs,
)
from intervalagg.axioms import _AXIOM_CODES, _AXIOMS

from .conftest import BENCHMARK_PROFILE

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_WITNESSES = json.loads((GOLDEN_DIR / "witnesses_n3.json").read_text())
MEDIAN = median_rule_handle()
# map_to_data form of the identity map, for one-field edits in replay tests.
IDENTITY_MAP = {
    "breakpoints": [[-5, -5], [5, 5]],
    "direction": "increasing",
    "left_slope": 1,
    "right_slope": 1,
    "affine": False,
}


def narrowest_rule():
    return RuleHandle(
        "narrowest",
        lambda profile: min(profile, key=lambda iv: (iv.width, iv.lo)),
    )


def widest_rule():
    return RuleHandle(
        "widest",
        lambda profile: max(profile, key=lambda iv: (iv.width, -iv.lo)),
    )


def dictatorial_rule():
    return RuleHandle("first-agent", lambda profile: profile[0])


def constant_rule():
    return RuleHandle("constant", lambda profile: Interval(0, 1))


def clamped_rule():
    def evaluate(profile):
        out = MEDIAN(profile)
        lo = min(max(out.lo, 0.0), 100.0)
        hi = min(max(out.hi, 0.0), 100.0)
        if not lo < hi:
            lo, hi = 0.0, 1.0
        return Interval(lo, hi)

    return RuleHandle("clamped", evaluate)


def jump_rule():
    return RuleHandle(
        "jump",
        lambda profile: Interval(0, 1) if profile[0].lo < 0 else Interval(5, 6),
    )


def one_ulp_rule():
    return RuleHandle(
        "one-ulp",
        lambda profile: Interval(
            profile[0].lo, math.nextafter(profile[0].lo, math.inf)
        ),
    )


# A rule failing each axiom at n=3; axioms not listed use averaging.
REPLAY_FOILS = {
    "Responsiveness": narrowest_rule,
    "Anonymity": dictatorial_rule,
    "StrongNeutrality": lambda: endpoint_rule_handle(1, 2),
    "TranslationEquivariance": clamped_rule,
    "ContinuityLipschitz": jump_rule,
    "IndependentEndpoints": widest_rule,
    "Unanimity": constant_rule,
}


class TestResponsiveness:
    def test_widening_one_agent_passes(self):
        wider = BENCHMARK_PROFILE.replace_agent(0, Interval(0, 4))
        check = check_responsiveness(
            endpoint_rule_handle(2, 2), BENCHMARK_PROFILE, wider
        )
        assert check.passed

    def test_identical_profiles_pass(self):
        check = check_responsiveness(
            averaging_rule_handle(), BENCHMARK_PROFILE, BENCHMARK_PROFILE
        )
        assert check.passed

    def test_narrowest_rule_fails(self):
        profile = Profile((Interval(0, 1), Interval(5, 6)))
        wider = Profile((Interval(0, 20), Interval(5, 6)))
        check = check_responsiveness(narrowest_rule(), profile, wider)
        assert not check.passed
        assert check.witness["output"] == [0.0, 1.0]
        assert check.witness["wider_output"] == [5.0, 6.0]

    def test_precondition_rejected(self):
        shrunk = BENCHMARK_PROFILE.replace_agent(0, Interval(2.5, 3.5))
        with pytest.raises(ValueError):
            check_responsiveness(
                endpoint_rule_handle(2, 2), BENCHMARK_PROFILE, shrunk
            )
        with pytest.raises(ValueError):
            check_responsiveness(
                endpoint_rule_handle(2, 2), BENCHMARK_PROFILE,
                Profile((Interval(0, 9),)),
            )


class TestAnonymity:
    def test_rotation_passes_for_order_statistics(self):
        check = check_anonymity(
            endpoint_rule_handle(1, 3), BENCHMARK_PROFILE, [1, 2, 0]
        )
        assert check.passed

    def test_identity_permutation_passes_everything(self):
        check = check_anonymity(dictatorial_rule(), BENCHMARK_PROFILE, [0, 1, 2])
        assert check.passed

    def test_dictatorial_rule_fails_under_swap(self):
        check = check_anonymity(dictatorial_rule(), BENCHMARK_PROFILE, [1, 0, 2])
        assert not check.passed
        assert check.witness["permutation"] == [1, 0, 2]

    def test_invalid_permutation_rejected(self):
        with pytest.raises(ValueError):
            check_anonymity(median_rule_handle(), BENCHMARK_PROFILE, [0, 0, 1])

    # Only a list or tuple is read, as replay reads one: a dict is not
    # taken for its keys, nor an iterator drained.
    @pytest.mark.parametrize("permutation", [{0: 1, 1: 0}, 5, None, iter([1, 0])])
    def test_non_sequence_permutation_rejected(self, permutation):
        profile = Profile((Interval(0, 1), Interval(1, 2)))
        message = r"is not a permutation \(a list of agent indices\)"
        with pytest.raises(ValueError, match=message):
            check_anonymity(MEDIAN, profile, permutation)

    def test_tuple_permutation_is_read_as_a_list(self):
        assert check_anonymity(MEDIAN, BENCHMARK_PROFILE, (1, 2, 0)).passed
        check = check_anonymity(dictatorial_rule(), BENCHMARK_PROFILE, (1, 0, 2))
        assert not check.passed
        assert type(check.witness["permutation"]) is list
        assert check.witness["permutation"] == [1, 0, 2]

    # Each sorts equal to [0, 1, 2]; none can index a profile as given.
    @pytest.mark.parametrize("permutation", [[1.0, 0, 2], [True, False, 2]])
    def test_non_int_entries_rejected(self, permutation):
        with pytest.raises(ValueError, match="permutation entry must be an int"):
            check_anonymity(median_rule_handle(), BENCHMARK_PROFILE, permutation)
        witness = dict(GOLDEN_WITNESSES["Anonymity"], permutation=permutation)
        with pytest.raises(ValueError, match="permutation entry must be an int"):
            replay_witness(dictatorial_rule(), json.loads(json.dumps(witness)))


class TestNeutrality:
    def test_doubling_passes_order_statistics(self):
        doubling = MonotoneMap.through([(0.0, 0.0), (1.0, 2.0)])
        check = check_weak_neutrality(
            endpoint_rule_handle(1, 1), BENCHMARK_PROFILE, doubling
        )
        assert check.passed

    def test_identity_passes_everything(self):
        check = check_weak_neutrality(
            averaging_rule_handle(), BENCHMARK_PROFILE, MonotoneMap.affine_map(1.0)
        )
        assert check.passed

    def test_averaging_fails_under_convex_kink(self):
        """A map with one hard kink between the two agents' upper
        endpoints separates the mean from every order statistic."""
        kinked = MonotoneMap.through([(0.0, 0.0), (1.0, 1.0), (2.0, 10.0)])
        profile = Profile((Interval(0, 0.5), Interval(1, 1.5)))
        check = check_weak_neutrality(averaging_rule_handle(), profile, kinked)
        assert not check.passed
        assert check.witness["expected"] == [0.5, 1.0]
        assert check.witness["mapped_output"] == [0.5, 3.0]

    def test_weak_check_rejects_decreasing_maps(self):
        with pytest.raises(ValueError):
            check_weak_neutrality(
                median_rule_handle(), BENCHMARK_PROFILE, MonotoneMap.affine_map(-1.0)
            )

    def test_symmetric_rule_survives_reflection(self):
        check = check_strong_neutrality(
            endpoint_rule_handle(2, 2), BENCHMARK_PROFILE, MonotoneMap.affine_map(-1.0)
        )
        assert check.passed

    def test_asymmetric_rule_fails_reflection(self):
        check = check_strong_neutrality(
            endpoint_rule_handle(1, 3), BENCHMARK_PROFILE, MonotoneMap.affine_map(-1.0)
        )
        assert not check.passed
        assert check.witness["expected"] == [-4.0, -1.0]
        assert check.witness["mapped_output"] == [-6.0, -3.0]


class TestTranslation:
    def test_shift_by_ten(self):
        check = check_translation_equivariance(
            endpoint_rule_handle(2, 2), BENCHMARK_PROFILE, 10.0
        )
        assert check.passed

    def test_zero_shift(self):
        check = check_translation_equivariance(
            clamped_rule(), BENCHMARK_PROFILE, 0.0
        )
        assert check.passed

    def test_clamped_rule_fails_large_shifts(self):
        check = check_translation_equivariance(
            clamped_rule(), Profile((Interval(1, 2),)), 500.0
        )
        assert not check.passed
        assert check.witness["offset"] == 500.0

    def test_output_one_ulp_wide_gets_a_verdict(self):
        # Shifted by 1000, the output's endpoints round to the same float.
        rule = one_ulp_rule()
        check = check_translation_equivariance(rule, BENCHMARK_PROFILE, 1000.0)
        assert check.passed
        report = audit(
            rule,
            AuditConfig(n_agents=3, samples=50, seed=0,
                        axioms=("TranslationEquivariance",)),
        )
        assert report.tallies["TranslationEquivariance"].samples == 50
        assert report.total_failures == 0

    @pytest.mark.parametrize(
        "judgment, offset",
        [((-1e308, 1e308), 1e308), ((1.7e308, 1.79e308), 1e308), ((0.0, 1e-15), 100.0)],
    )
    def test_invalid_shift_names_the_offset(self, judgment, offset):
        profile = Profile((Interval(*judgment),))
        with pytest.raises(ValueError, match=re.escape(f"by {offset!r}")):
            check_translation_equivariance(median_rule_handle(), profile, offset)

    def test_nonfinite_offset_rejected(self):
        with pytest.raises(ValueError):
            check_translation_equivariance(
                median_rule_handle(), BENCHMARK_PROFILE, float("inf")
            )


class TestContinuitySurrogate:
    def test_order_statistic_rules_pass(self):
        check = check_continuity_lipschitz(
            endpoint_rule_handle(2, 2), BENCHMARK_PROFILE, 0.01
        )
        assert check.passed

    def test_jump_rule_fails_near_threshold(self):
        profile = Profile((Interval(0.001, 1.0), Interval(2, 3)))
        check = check_continuity_lipschitz(
            jump_rule(), profile, 0.01, samples=4, seed=0
        )
        assert not check.passed
        assert check.witness["movement"] > 0.01

    @pytest.mark.parametrize("samples", [4, 7])
    def test_unperturbed_profile_evaluated_once(self, samples):
        calls = []

        def counted(profile):
            calls.append(profile)
            return MEDIAN(profile)

        check = check_continuity_lipschitz(
            RuleHandle("counted", counted), BENCHMARK_PROFILE, 0.01, samples=samples
        )
        assert check.passed
        assert len(calls) == 1 + samples
        assert calls.count(BENCHMARK_PROFILE) == 1

    # At 1e16 floats are 2 apart, so a jitter of up to 0.49 * width can round
    # a judgment's endpoints together; that judgment stays unperturbed.
    @pytest.mark.parametrize("width", [4, 8])
    def test_valid_profile_far_from_zero(self, width):
        profile = Profile([Interval(1e16, 1e16 + width)] * 3)
        for seed in range(200):
            assert check_continuity_lipschitz(MEDIAN, profile, 10.0, seed=seed).passed

    # Far from 0 the perturbation rounds each endpoint, and averaging its
    # output, by up to an ulp: the bound allows two, so 1-Lipschitz rules
    # pass at every magnitude.
    @pytest.mark.parametrize("scale", [1e6, 1e12, 1e14, 1e16])
    @pytest.mark.parametrize("rule", [
        *(endpoint_rule_handle(p, q) for p, q in valid_quota_pairs(3)),
        averaging_rule_handle(),
    ], ids=lambda rule: rule.name)
    def test_lipschitz_rules_pass_at_large_magnitudes(self, rule, scale):
        for seed in range(150):
            rng = random.Random(seed)
            profile = []
            for _ in range(3):
                lo = scale + rng.uniform(-10, 10)
                profile.append(Interval(lo, lo + rng.uniform(4, 12)))
            check = check_continuity_lipschitz(rule, Profile(profile), 0.01, seed=seed)
            assert check.passed, check.witness

    def test_zero_epsilon_is_vacuous(self):
        check = check_continuity_lipschitz(jump_rule(), BENCHMARK_PROFILE, 0.0)
        assert check.passed

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            check_continuity_lipschitz(median_rule_handle(), BENCHMARK_PROFILE, -1.0)

    @pytest.mark.parametrize("samples", [True, 2.5, -1])
    def test_sample_count_validated(self, samples):
        with pytest.raises(ValueError, match="samples must be"):
            check_continuity_lipschitz(
                median_rule_handle(), BENCHMARK_PROFILE, 0.5, samples=samples
            )

    @pytest.mark.parametrize("seed", [True, 1.5])
    def test_seed_validated(self, seed):
        with pytest.raises(ValueError, match=f"seed must be an int, got {seed!r}"):
            check_continuity_lipschitz(
                median_rule_handle(), BENCHMARK_PROFILE, 0.5, seed=seed
            )


def skewed_median_rule():
    # Off by a relative 1e-10: far past rounding at every magnitude.
    def evaluate(profile):
        out = MEDIAN(profile)
        return Interval(out.lo * (1 + 1e-10), out.hi * (1 + 1e-10))

    return RuleHandle("skewed-median", evaluate)


MAGNITUDES = [1e-6, 1.0, 1e6, 1e9, 1e12, 1e15]


def scaled_instance(seed, scale):
    """A seeded five-agent profile and offset, both at ``scale``."""
    rng = random.Random(seed)
    profile = []
    for _ in range(5):
        lo = scale * rng.uniform(-10, 10)
        profile.append(Interval(lo, lo + scale * rng.uniform(0.1, 10)))
    return Profile(profile), scale * rng.uniform(-100, 100)


class TestVerdictsAtEveryMagnitude:
    """The slack after a transform is the rounding of the numbers compared,
    so the verdicts do not depend on the scale of the data."""

    @pytest.mark.parametrize("scale", MAGNITUDES)
    def test_averaging_passes_translation(self, scale):
        rule = averaging_rule_handle()
        failing = [
            seed for seed in range(200)
            if not check_translation_equivariance(rule, *scaled_instance(seed, scale)).passed
        ]
        assert failing == []

    @pytest.mark.parametrize("scale", MAGNITUDES)
    def test_skewed_median_fails_translation(self, scale):
        profile, _ = scaled_instance(0, scale)
        check = check_translation_equivariance(skewed_median_rule(), profile, 5.0 * scale)
        assert not check.passed

    def test_jump_rule_fails_continuity_at_scale_one(self):
        profile, _ = scaled_instance(0, 1.0)
        profile = profile.replace_agent(0, Interval(0.001, 1.0))
        check = check_continuity_lipschitz(jump_rule(), profile, 0.01, samples=4, seed=0)
        assert not check.passed

    def test_constant_rule_whose_expected_shift_overflows_fails(self):
        # The expected output is infinite, and so is an ulp of it.
        rule = RuleHandle("far-constant", lambda profile: Interval(1e308, 1.7e308))
        profile = Profile((Interval(-1.7e308, -1.6e308),))
        check = check_translation_equivariance(rule, profile, 1.7e308)
        assert not check.passed
        assert check.witness["expected"] == [math.inf, math.inf]


class TestIndependentEndpoints:
    def test_fixed_lower_endpoints_pass(self):
        other = Profile((Interval(2, 9), Interval(3, 7), Interval(1, 8)))
        check = check_independent_endpoints(
            endpoint_rule_handle(2, 2), BENCHMARK_PROFILE, other
        )
        assert check.passed

    def test_identical_profiles_pass(self):
        check = check_independent_endpoints(
            widest_rule(), BENCHMARK_PROFILE, BENCHMARK_PROFILE
        )
        assert check.passed

    def test_width_sensitive_rule_fails(self):
        profile = Profile((Interval(0, 1), Interval(5, 10)))
        other = Profile((Interval(0, 20), Interval(5, 10)))
        check = check_independent_endpoints(widest_rule(), profile, other)
        assert not check.passed
        assert check.witness["agreeing_sides"] == ["lower"]

    def test_no_agreeing_side_rejected(self):
        other = Profile((Interval(0, 9), Interval(0, 9), Interval(0, 9)))
        with pytest.raises(ValueError):
            check_independent_endpoints(
                median_rule_handle(), BENCHMARK_PROFILE, other
            )


class TestOutBetweenness:
    def test_widening_misreport_passes_maximal_style_rule(self):
        profile = Profile((Interval(0, 1), Interval(2, 3)))
        check = check_out_betweenness(
            endpoint_rule_handle(1, 1), profile, 0, Interval(-5, 1)
        )
        assert check.passed

    def test_averaging_fails(self):
        profile = Profile((Interval(0, 1), Interval(2, 3)))
        check = check_out_betweenness(
            averaging_rule_handle(), profile, 0, Interval(-2, 1)
        )
        assert not check.passed
        assert check.witness["output"] == [1.0, 2.0]
        assert check.witness["deviated_output"] == [0.0, 2.0]

    def test_bad_agent_index_rejected(self):
        with pytest.raises(IndexError):
            check_out_betweenness(
                median_rule_handle(), BENCHMARK_PROFILE, 3, Interval(0, 1)
            )

    def test_non_interval_misreport_rejected(self):
        with pytest.raises(TypeError):
            check_out_betweenness(
                median_rule_handle(), BENCHMARK_PROFILE, 0, (0, 1)
            )

    # A bool once passed as agent 1 and wrote a witness replay rejects.
    @pytest.mark.parametrize("agent", [True, 1.0])
    def test_non_int_agent_index_names_the_field(self, agent):
        message = f"agent_index must be an int, got {agent!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            check_out_betweenness(
                averaging_rule_handle(), BENCHMARK_PROFILE, agent, Interval(-9, -8)
            )


class TestEndpointProperties:
    def test_order_statistic_pair_passes_both_sides(self):
        profile = Profile((Interval(0, 1), Interval(2, 3)))
        other = profile.replace_agent(0, Interval(-5, 1))
        rule = endpoint_rule_handle(1, 1)
        lower = check_lower_property(rule, profile, other, 0)
        upper = check_upper_property(rule, profile, other, 0)
        assert lower.passed and upper.passed

    def test_identical_profiles_pass_via_equality_branch(self):
        check = check_lower_property(
            averaging_rule_handle(), BENCHMARK_PROFILE, BENCHMARK_PROFILE, 1
        )
        assert check.passed

    def test_averaging_fails_lower_side(self):
        profile = Profile((Interval(0, 1), Interval(2, 3)))
        other = profile.replace_agent(0, Interval(-2, 1))
        check = check_lower_property(averaging_rule_handle(), profile, other, 0)
        assert not check.passed
        assert check.witness["output"] == [1.0, 2.0]
        assert check.witness["other_output"] == [0.0, 2.0]

    def test_averaging_fails_upper_side_on_mirrored_instance(self):
        profile = Profile((Interval(-1, 0), Interval(-3, -2)))
        other = profile.replace_agent(0, Interval(-1, 2))
        check = check_upper_property(averaging_rule_handle(), profile, other, 0)
        assert not check.passed

    def test_multi_agent_difference_rejected(self):
        other = Profile((Interval(0, 9), Interval(0, 9), Interval(0, 9)))
        with pytest.raises(ValueError):
            check_lower_property(median_rule_handle(), BENCHMARK_PROFILE, other, 0)

    @pytest.mark.parametrize("check", [check_lower_property, check_upper_property])
    @pytest.mark.parametrize("agent", [True, 1.0])
    def test_non_int_agent_index_names_the_field(self, check, agent):
        other = BENCHMARK_PROFILE.replace_agent(1, Interval(-9, 9))
        message = f"agent_index must be an int, got {agent!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            check(averaging_rule_handle(), BENCHMARK_PROFILE, other, agent)


class TestUnanimity:
    def test_order_statistic_rules_reproduce_common_judgment(self):
        check = check_unanimity(endpoint_rule_handle(2, 2), Interval(2, 4), 3)
        assert check.passed

    def test_averaging_reproduces_common_judgment(self):
        check = check_unanimity(averaging_rule_handle(), Interval(0.1, 1.1), 3)
        assert check.passed

    def test_constant_rule_fails(self):
        check = check_unanimity(constant_rule(), Interval(5, 6), 3)
        assert not check.passed
        assert check.witness["judgment"] == [5.0, 6.0]

    def test_agent_count_validated(self):
        with pytest.raises(ValueError):
            check_unanimity(median_rule_handle(), Interval(0, 1), 0)
        for size in (True, 2.5):
            with pytest.raises(ValueError, match="n_agents must be an int"):
                check_unanimity(median_rule_handle(), Interval(0, 1), size)


class TestManipulationCheck:
    def test_median_on_benchmark_profile_passes(self):
        from intervalagg import WeightedL1Preference

        check = check_manipulation(
            median_rule_handle(), BENCHMARK_PROFILE, 0,
            WeightedL1Preference(BENCHMARK_PROFILE[0]),
        )
        assert check.passed

    def test_averaging_fails_and_witness_replays(self):
        from intervalagg import WeightedL1Preference

        profile = Profile((Interval(0, 1), Interval(2, 3)))
        check = check_manipulation(
            averaging_rule_handle(), profile, 0,
            WeightedL1Preference(Interval(0, 1)),
        )
        assert not check.passed
        again = replay_witness(averaging_rule_handle(), check.witness)
        assert not again.passed
        assert again.witness["misreport"] == check.witness["misreport"]

    def test_penalty_witness_replays_bit_exactly(self):
        from intervalagg import PenaltyPreference

        profile = Profile((Interval(0, 1), Interval(2, 3)))
        preference = PenaltyPreference(Interval(0, 1), Interval(5, 6))
        check = check_manipulation(averaging_rule_handle(), profile, 0, preference)
        assert not check.passed
        assert check.witness["preference"]["kind"] == "penalty"
        text = json.dumps(check.witness)
        again = replay_witness(averaging_rule_handle(), json.loads(text))
        assert json.dumps(again.witness) == text

        witness = json.loads(text)
        witness["preference"]["kind"] = "quadratic"
        with pytest.raises(ValueError, match="unknown preference kind: 'quadratic'"):
            replay_witness(averaging_rule_handle(), witness)

    def test_int_weight_witness_replays_bit_exactly(self):
        from intervalagg import WeightedL1Preference

        profile = Profile((Interval(0, 1), Interval(2, 3)))
        preference = WeightedL1Preference(Interval(0, 1), 2, 1.0)
        check = check_manipulation(averaging_rule_handle(), profile, 0, preference)
        assert not check.passed
        assert check.witness["preference"]["lower_weight"] == 2
        text = json.dumps(check.witness)
        again = replay_witness(averaging_rule_handle(), json.loads(text))
        assert json.dumps(again.witness) == text


class TestAuditCampaigns:
    def test_symmetric_rule_fully_compliant(self):
        report = audit(
            endpoint_rule_handle(2, 2),
            AuditConfig(n_agents=3, samples=1000, seed=42),
        )
        assert report.failing_axioms() == []
        assert report.total_failures == 0
        assert report.total_eval_errors == 0
        for axiom in DEFAULT_AUDIT_AXIOMS:
            assert report.tallies[axiom].samples == 1000

    def test_averaging_failure_pattern(self):
        report = audit(
            averaging_rule_handle(),
            AuditConfig(n_agents=3, samples=1000, seed=42),
        )
        failing = set(report.failing_axioms())
        assert "WeakNeutrality" in failing
        assert "OutBetweenness" in failing
        for axiom in ("Responsiveness", "Anonymity",
                      "TranslationEquivariance", "Unanimity"):
            assert report.tallies[axiom].failures == 0

    def test_zero_samples_give_empty_report(self):
        report = audit(
            median_rule_handle(), AuditConfig(n_agents=3, samples=0)
        )
        assert report.total_failures == 0
        assert all(t.samples == 0 for t in report.tallies.values())
        assert report.failing_axioms() == []

    # Rule evaluations one sample makes: the neutralities reuse the
    # evaluation that anchors their map, and continuity evaluates the
    # unperturbed profile once for its 4 perturbations.
    @pytest.mark.parametrize("axiom,evaluations", [
        ("Responsiveness", 2),
        ("Anonymity", 2),
        ("WeakNeutrality", 2),
        ("StrongNeutrality", 2),
        ("TranslationEquivariance", 2),
        ("ContinuityLipschitz", 5),
        ("IndependentEndpoints", 2),
        ("OutBetweenness", 2),
        ("LowerProperty", 2),
        ("UpperProperty", 2),
        ("Unanimity", 1),
    ])
    def test_evaluations_per_sample(self, axiom, evaluations):
        calls = []

        def counting(profile):
            calls.append(profile)
            return MEDIAN(profile)

        samples = 30
        report = audit(
            RuleHandle("counting", counting),
            AuditConfig(n_agents=3, samples=samples, seed=5, axioms=(axiom,)),
        )
        assert report.tallies[axiom].samples == samples
        assert len(calls) == evaluations * samples

    def test_reports_reproduce_bit_exactly(self):
        config = AuditConfig(n_agents=3, samples=60, seed=9)
        first = audit(averaging_rule_handle(), config)
        second = audit(averaging_rule_handle(), config)
        assert first.to_json_dict() == second.to_json_dict()

    def test_every_stored_witness_replays_to_a_failure(self):
        report = audit(
            averaging_rule_handle(),
            AuditConfig(n_agents=3, samples=120, seed=5),
        )
        replayed = 0
        for axiom in report.failing_axioms():
            witness = report.tallies[axiom].first_witness
            assert witness is not None
            again = replay_witness(averaging_rule_handle(), witness)
            assert not again.passed
            replayed += 1
        assert replayed >= 2

    @pytest.mark.parametrize("axiom", ALL_AXIOM_IDS)
    def test_every_axiom_witness_replays_exactly(self, axiom):
        rule = REPLAY_FOILS.get(axiom, averaging_rule_handle)()
        report = audit(
            rule, AuditConfig(n_agents=3, samples=200, seed=0, axioms=(axiom,))
        )
        stored = report.tallies[axiom].first_witness
        assert stored is not None
        witness = json.loads(json.dumps(stored))
        again = replay_witness(rule, witness)
        assert not again.passed
        assert again.witness == witness

    def test_report_matches_golden_bytes(self):
        report = audit(
            averaging_rule_handle(),
            AuditConfig(n_agents=3, samples=40, seed=7, axioms=ALL_AXIOM_IDS),
        )
        text = json.dumps(report.to_json_dict(), indent=2) + "\n"
        assert text == (GOLDEN_DIR / "audit_averaging_n3.json").read_text()

    def test_every_axiom_witness_matches_golden_bytes(self):
        # The first witness of each axiom from the campaigns above, so the
        # layout of every witness is pinned across commits.
        witnesses = {}
        for axiom in ALL_AXIOM_IDS:
            rule = REPLAY_FOILS.get(axiom, averaging_rule_handle)()
            report = audit(
                rule, AuditConfig(n_agents=3, samples=200, seed=0, axioms=(axiom,))
            )
            witnesses[axiom] = report.tallies[axiom].first_witness
        text = json.dumps(witnesses, indent=2) + "\n"
        assert text == (GOLDEN_DIR / "witnesses_n3.json").read_text()

    def test_witnesses_survive_json_serialization(self):
        report = audit(
            averaging_rule_handle(),
            AuditConfig(n_agents=2, samples=120, seed=5),
        )
        axiom = report.failing_axioms()[0]
        witness = report.tallies[axiom].first_witness
        reloaded = json.loads(json.dumps(witness))
        assert not replay_witness(averaging_rule_handle(), reloaded).passed

    def test_manipulation_axiom_is_opt_in(self):
        assert "Manipulation" not in DEFAULT_AUDIT_AXIOMS
        assert "Manipulation" in ALL_AXIOM_IDS
        report = audit(
            averaging_rule_handle(),
            AuditConfig(n_agents=2, samples=30, seed=1, axioms=("Manipulation",)),
        )
        assert report.tallies["Manipulation"].failures > 0
        clean = audit(
            endpoint_rule_handle(1, 1),
            AuditConfig(n_agents=2, samples=30, seed=1, axioms=("Manipulation",)),
        )
        assert clean.tallies["Manipulation"].failures == 0

    def test_strong_neutrality_split_quick(self):
        symmetric = audit(
            endpoint_rule_handle(2, 2),
            AuditConfig(n_agents=3, samples=200, seed=0,
                        axioms=("StrongNeutrality",)),
        )
        assert symmetric.tallies["StrongNeutrality"].failures == 0
        asymmetric = audit(
            endpoint_rule_handle(1, 2),
            AuditConfig(n_agents=2, samples=100, seed=0,
                        axioms=("StrongNeutrality",)),
        )
        tally = asymmetric.tallies["StrongNeutrality"]
        assert tally.failures > 0
        assert tally.first_witness["map"]["direction"] == "decreasing"

    def test_out_betweenness_pass_implies_independent_endpoints_pass(self):
        """Empirical lens on the implication from strategyproof behavior
        to endpointwise independence: no shipped or foil rule may pass
        the misreport-betweenness audit while failing the endpoint one."""
        config = AuditConfig(
            n_agents=3, samples=200, seed=17,
            axioms=("OutBetweenness", "IndependentEndpoints"),
        )
        for rule in (
            endpoint_rule_handle(2, 2),
            maximal_rule_handle(),
            averaging_rule_handle(),
            widest_rule(),
        ):
            report = audit(rule, config)
            obt = report.tallies["OutBetweenness"].failures
            ie = report.tallies["IndependentEndpoints"].failures
            assert not (obt == 0 and ie > 0), rule.name

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AuditConfig(n_agents=0)
        with pytest.raises(ValueError):
            AuditConfig(n_agents=2, samples=-1)
        with pytest.raises(ValueError):
            AuditConfig(n_agents=2, axioms=("NoSuchAxiom",))
        with pytest.raises(ValueError):
            AuditConfig(n_agents=2, axioms=("Unanimity", "Unanimity"))

    @pytest.mark.parametrize("axioms", [None, 5, b"Anonymity"])
    def test_axioms_that_are_not_a_list_or_tuple_name_the_field(self, axioms):
        message = f"axioms must be a sequence of ids, got {axioms!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            AuditConfig(n_agents=3, axioms=axioms)

    def test_axioms_as_a_list(self):
        config = AuditConfig(n_agents=3, axioms=["Unanimity", "Anonymity"])
        assert config.axioms == ("Unanimity", "Anonymity")
        assert config == AuditConfig(n_agents=3, axioms=("Unanimity", "Anonymity"))

    @pytest.mark.parametrize("axiom", [["Anonymity"], {"Anonymity"}, {"Anonymity": 1}, 3])
    def test_axiom_id_that_is_not_a_string_is_unknown(self, axiom):
        with pytest.raises(ValueError, match="unknown axiom id"):
            AuditConfig(n_agents=3, axioms=[axiom])

    @pytest.mark.parametrize("fields,message", [
        ({"n_agents": True}, "n_agents must be an int, got True"),
        ({"n_agents": 2.5}, "n_agents must be an int, got 2.5"),
        ({"n_agents": 2, "samples": 2.5}, "samples must be an int, got 2.5"),
        ({"n_agents": 2, "samples": False}, "samples must be an int, got False"),
        ({"n_agents": 2, "seed": 1.5}, "seed must be an int, got 1.5"),
        ({"n_agents": 2, "seed": True}, "seed must be an int, got True"),
        ({"n_agents": 2, "axioms": "Anonymity"}, "axioms must be a sequence"),
    ])
    def test_config_rejects_non_int_sizes_naming_the_field(self, fields, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            AuditConfig(**fields)

    def test_json_report_shape(self):
        report = audit(
            endpoint_rule_handle(1, 1),
            AuditConfig(n_agents=2, samples=10, seed=0),
        )
        data = report.to_json_dict()
        assert data["rule"] == "endpoint:1,1"
        assert data["results"]["ContinuityLipschitz"]["surrogate"] is True
        assert "surrogate" in data["config"]["note"]
        assert any("(surrogate)" in line for line in report.summary_lines())
        json.dumps(data)


def test_readme_lists_the_fields_replay_reads():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("| axiom | fields replay reads |")[1].split("\n\n")[0]
    documented = {}
    for row in table.splitlines()[2:]:
        axioms, fields = row.strip("|").split("|")
        # Parenthesised notes may quote other names; only the fields count.
        fields = re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", fields))
        for axiom in re.findall(r"`(\w+)`", axioms):
            documented[axiom] = tuple(fields)
    replayed = {axiom: fields for axiom, (_, fields, _, _) in _AXIOMS.items()}
    assert documented == replayed


# Each axiom's seed code; moving a row of the table changes every report.
@pytest.mark.parametrize("axiom,code", [
    ("Responsiveness", 1),
    ("Anonymity", 2),
    ("WeakNeutrality", 3),
    ("TranslationEquivariance", 4),
    ("ContinuityLipschitz", 5),
    ("IndependentEndpoints", 6),
    ("OutBetweenness", 7),
    ("LowerProperty", 8),
    ("UpperProperty", 9),
    ("Unanimity", 10),
    ("StrongNeutrality", 11),
    ("Manipulation", 12),
])
def test_axiom_keeps_its_seed_code(axiom, code):
    assert _AXIOM_CODES[axiom] == code
    assert ALL_AXIOM_IDS[code - 1] == axiom


def test_readme_lists_the_default_and_opt_in_axioms():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("Checked axioms:")[1].split("\n\n")[0]
    default_part, opt_in_part = section.split(" by default")
    opt_in = tuple(a for a in ALL_AXIOM_IDS if a not in DEFAULT_AUDIT_AXIOMS)
    assert tuple(re.findall(r"`(\w+)`", default_part)) == DEFAULT_AUDIT_AXIOMS
    assert tuple(re.findall(r"`(\w+)`", opt_in_part)) == opt_in


# Each check that takes a profile, on a plain list and a failing rule,
# with the argument after the profile: the witness must not alias the list.
LIST_PROFILE_CASES = {
    "Responsiveness": (
        check_responsiveness, narrowest_rule,
        lambda: [[Interval(0, 20), Interval(2, 5), Interval(4, 9)]],
    ),
    "Anonymity": (check_anonymity, dictatorial_rule, lambda: [[1, 0, 2]]),
    "WeakNeutrality": (
        check_weak_neutrality, averaging_rule_handle,
        lambda: [random_increasing_map(3, [0, 1, 2, 4, 5, 9])],
    ),
    "StrongNeutrality": (
        check_strong_neutrality, averaging_rule_handle,
        lambda: [random_increasing_map(3, [0, 1, 2, 4, 5, 9])],
    ),
    "TranslationEquivariance": (check_translation_equivariance, clamped_rule, lambda: [200.0]),
    "ContinuityLipschitz": (check_continuity_lipschitz, jump_rule, lambda: [0.01]),
    "IndependentEndpoints": (
        check_independent_endpoints, widest_rule,
        lambda: [[Interval(0, 20), Interval(2, 5), Interval(4, 9)]],
    ),
    "OutBetweenness": (
        check_out_betweenness, averaging_rule_handle, lambda: [0, Interval(-2, 1)],
    ),
    "LowerProperty": (
        check_lower_property, averaging_rule_handle,
        lambda: [[Interval(-5, 1), Interval(2, 5), Interval(4, 9)], 0],
    ),
    "UpperProperty": (
        check_upper_property, averaging_rule_handle,
        lambda: [[Interval(0, 1), Interval(2, 5), Interval(4, 20)], 2],
    ),
    "Manipulation": (
        check_manipulation, averaging_rule_handle,
        lambda: [0, WeightedL1Preference(Interval(0, 1))],
    ),
}


@pytest.mark.parametrize("axiom", LIST_PROFILE_CASES)
def test_a_witness_of_a_list_profile_is_plain_json(axiom):
    check, rule, rest = LIST_PROFILE_CASES[axiom]
    profile = [Interval(0, 1), Interval(2, 5), Interval(4, 9)]
    arguments = rest()
    result = check(rule(), profile, *arguments)
    assert result.axiom == axiom and not result.passed
    witness = result.witness
    text = json.dumps(witness)
    assert json.loads(text) == witness
    assert witness["profile"] == [[0, 1], [2, 5], [4, 9]]
    # Editing the caller's lists afterwards leaves the witness as it was.
    for value in (profile, *arguments):
        if isinstance(value, list):
            value.reverse()
    assert json.dumps(witness) == text
    assert not replay_witness(rule(), json.loads(text)).passed


class TestReplayInput:
    @pytest.mark.parametrize("axiom", ALL_AXIOM_IDS)
    def test_missing_field_names_axiom_and_field(self, axiom):
        _, fields, _, _ = _AXIOMS[axiom]
        for field in fields:
            witness = dict(GOLDEN_WITNESSES[axiom])
            del witness[field]
            message = f"{axiom} witness has no '{field}' field"
            with pytest.raises(ValueError, match=re.escape(message)):
                replay_witness(averaging_rule_handle(), witness)

    def test_missing_axiom_rejected(self):
        witness = dict(GOLDEN_WITNESSES["Unanimity"])
        del witness["axiom"]
        with pytest.raises(ValueError, match="no 'axiom' field"):
            replay_witness(averaging_rule_handle(), witness)

    @pytest.mark.parametrize("witness", [["axiom"], "axiom", 3, None])
    def test_witness_that_is_not_an_object_rejected(self, witness):
        with pytest.raises(ValueError, match="a witness is an object"):
            replay_witness(averaging_rule_handle(), witness)

    @pytest.mark.parametrize("axiom", ["NoSuchAxiom", ["Unanimity"], None])
    def test_unknown_axiom_rejected(self, axiom):
        witness = dict(GOLDEN_WITNESSES["Unanimity"], axiom=axiom)
        with pytest.raises(ValueError, match="unknown axiom id"):
            replay_witness(averaging_rule_handle(), witness)

    # One malformed value per case, put into a golden witness.
    @pytest.mark.parametrize("axiom,field,value,detail", [
        ("Anonymity", "permutation", 5, "5 is not a permutation"),
        ("Anonymity", "permutation", [0, "1", 2], "permutation entry must be an int, got '1'"),
        ("TranslationEquivariance", "offset", "3", "offset must be a finite number, got '3'"),
        ("TranslationEquivariance", "offset", True, "offset must be a finite number, got True"),
        ("TranslationEquivariance", "offset", 10**400, "offset must be a finite number"),
        ("ContinuityLipschitz", "epsilon", float("nan"), "epsilon must be a finite number"),
        ("ContinuityLipschitz", "epsilon", -0.5, "epsilon must be >= 0.0, got -0.5"),
        ("ContinuityLipschitz", "perturbed", [[0, 1, 2]], "expected a [lo, hi] pair"),
        ("OutBetweenness", "agent", [1], "agent must be an int, got [1]"),
        ("OutBetweenness", "misreport", [2, 1], "interval needs lo < hi"),
        ("LowerProperty", "agent", -1, "agent must be >= 0, got -1"),
        ("Unanimity", "n_agents", 2.0, "n_agents must be an int, got 2.0"),
        ("Unanimity", "n_agents", 0, "n_agents must be >= 1, got 0"),
        ("Unanimity", "judgment", [1], "expected a [lo, hi] pair"),
        ("Responsiveness", "profile", 5, "expected a list of [lo, hi] pairs"),
        ("IndependentEndpoints", "other", [["0", 1]], "lo must be a finite number, got '0'"),
        ("WeakNeutrality", "map", {"breakpoints": []}, "missing key 'direction'"),
        # Each of these read as a valid map before numbers were checked.
        ("WeakNeutrality", "map", dict(IDENTITY_MAP, left_slope="2"),
         "left_slope must be a finite number, got '2'"),
        ("WeakNeutrality", "map", dict(IDENTITY_MAP, breakpoints=[["-5", "-5"], [5, 5]]),
         "breakpoint must be a finite number, got '-5'"),
        ("WeakNeutrality", "map", dict(IDENTITY_MAP, breakpoints=[[True, 1], [5, 5]]),
         "breakpoint must be a finite number, got True"),
        ("WeakNeutrality", "map", dict(IDENTITY_MAP, affine="false"),
         "affine must be a bool, got 'false'"),
        ("WeakNeutrality", "map", dict(IDENTITY_MAP, breakpoints=[[-5, -5], [5, 1e400]]),
         "breakpoint must be a finite number, got inf"),
        # The breakpoints decide the direction; a stored one must agree.
        ("WeakNeutrality", "map", dict(IDENTITY_MAP, direction="decreasing"),
         "map direction 'decreasing' disagrees with its breakpoints"),
        # An affine map evaluates from its first breakpoint; it must hit the second.
        ("WeakNeutrality", "map",
         dict(IDENTITY_MAP, breakpoints=[[0.0, 0.0], [3.0, 1.0]], affine=True),
         "affine map misses its second breakpoint (3.0, 1.0)"),
        ("StrongNeutrality", "map",
         dict(GOLDEN_WITNESSES["StrongNeutrality"]["map"], direction="increasing"),
         "map direction 'increasing' disagrees with its breakpoints"),
        ("Manipulation", "grid_seed", "7", "grid_seed must be an int, got '7'"),
        ("Manipulation", "preference", {"peak": [0, 1]}, "missing key 'kind'"),
        ("Manipulation", "preference", [0, 1], "expected a preference object"),
        ("Manipulation", "preference",
         dict(GOLDEN_WITNESSES["Manipulation"]["preference"], lower_weight=True),
         "lower_weight must be a finite number, got True"),
        ("Manipulation", "preference",
         dict(GOLDEN_WITNESSES["Manipulation"]["preference"], upper_weight=True),
         "upper_weight must be a finite number, got True"),
    ])
    def test_malformed_field_names_axiom_and_field(self, axiom, field, value, detail):
        calls = []

        def counting(profile):
            calls.append(profile)
            return MEDIAN(profile)

        witness = dict(GOLDEN_WITNESSES[axiom], **{field: value})
        message = f"{axiom} witness field '{field}' is malformed: "
        with pytest.raises(ValueError, match=re.escape(message) + ".*" + re.escape(detail)):
            replay_witness(RuleHandle("counting", counting), witness)
        assert calls == []

    # A perturbation of another size, or one that moves an endpoint past
    # epsilon and its rounding slack, is no continuity instance.
    @pytest.mark.parametrize("edit,detail", [
        (lambda perturbed: perturbed[:1], "1 agents against the profile's 3"),
        (lambda perturbed: perturbed + [[4.0, 5.0]], "4 agents against the profile's 3"),
        (lambda perturbed: [[-0.02, 3.0], *perturbed[1:]], "moves an endpoint by 0.02"),
        (lambda perturbed: [*perturbed[:2], [1.0, 2.0 + 0.01 + 2e-9]], "more than epsilon 0.01"),
    ], ids=["fewer agents", "more agents", "lower endpoint", "upper endpoint"])
    def test_perturbation_that_does_not_fit_is_malformed(self, edit, detail):
        def never(profile):
            raise AssertionError("the rule ran")

        golden = GOLDEN_WITNESSES["ContinuityLipschitz"]
        witness = dict(golden, perturbed=edit(golden["perturbed"]))
        message = "ContinuityLipschitz witness field 'perturbed' is malformed: "
        with pytest.raises(ValueError, match=re.escape(message) + ".*" + re.escape(detail)):
            replay_witness(RuleHandle("never", never), witness)

    def test_identity_map_witness_replays_and_passes(self):
        witness = dict(GOLDEN_WITNESSES["WeakNeutrality"], map=IDENTITY_MAP)
        assert replay_witness(MEDIAN, witness).passed

    @pytest.mark.parametrize(
        "axiom", ["OutBetweenness", "LowerProperty", "UpperProperty", "Manipulation"]
    )
    @pytest.mark.parametrize("agent", [3, 7])
    def test_agent_outside_profile_names_axiom_and_field(self, axiom, agent):
        calls = []

        def counting(profile):
            calls.append(profile)
            return MEDIAN(profile)

        witness = dict(GOLDEN_WITNESSES[axiom], agent=agent)
        assert len(witness["profile"]) == 3
        message = (
            f"{axiom} witness field 'agent' is malformed: "
            f"{agent} is out of range for 3 agents"
        )
        with pytest.raises(ValueError, match=re.escape(message)):
            replay_witness(RuleHandle("counting", counting), witness)
        assert calls == []

    @pytest.mark.parametrize("error", [ValueError("own"), RuleEvaluationError("own")])
    def test_errors_the_rule_raises_propagate(self, error):
        def broken(profile):
            raise error

        for axiom in ALL_AXIOM_IDS:
            with pytest.raises(type(error), match="^own$"):
                replay_witness(RuleHandle("broken", broken), GOLDEN_WITNESSES[axiom])


class TestEvaluationErrors:
    def test_always_failing_rule_aborts_campaign(self):
        def broken(profile):
            raise RuleEvaluationError("boom")

        report = audit(
            RuleHandle("broken", broken),
            AuditConfig(n_agents=2, samples=50, seed=0),
        )
        assert report.aborted
        assert report.abort_axiom == DEFAULT_AUDIT_AXIOMS[0]
        assert "boom" in report.abort_reason
        assert report.total_eval_errors == 10

    def test_abort_stops_evaluating_the_rule(self):
        # A closure is audited in this process, one sample at a time, so
        # the tenth consecutive error is the rule's last call.
        calls = []

        def broken(profile):
            calls.append(profile)
            raise RuleEvaluationError("boom")

        report = audit(
            RuleHandle("broken", broken),
            AuditConfig(n_agents=2, samples=50, seed=0),
        )
        assert report.aborted
        assert len(calls) == 10

    def test_occasional_errors_tallied_without_abort(self):
        calls = {"count": 0}

        def flaky(profile):
            calls["count"] += 1
            if calls["count"] % 5 == 0:
                raise RuleEvaluationError("hiccup")
            return MEDIAN(profile)

        report = audit(
            RuleHandle("flaky", flaky),
            AuditConfig(n_agents=2, samples=40, seed=0,
                        axioms=("Unanimity", "Anonymity")),
        )
        assert not report.aborted
        assert report.total_eval_errors > 0
        assert report.total_failures == 0


class TestIdentification:
    @pytest.mark.parametrize("size,message", [
        (True, "n_agents must be an int, got True"),
        (2.5, "n_agents must be an int, got 2.5"),
        (0, "n_agents must be >= 1, got 0"),
    ])
    def test_sample_profile_size_validated(self, size, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            sample_profile(random.Random(0), size)

    @pytest.mark.parametrize("rng", [None, 5, random, object()])
    def test_sample_profile_rng_validated(self, rng):
        message = f"rng must be a random.Random, got {rng!r}"
        with pytest.raises(TypeError, match=re.escape(message)):
            sample_profile(rng, 3)

    def test_sample_profile_rng_checked_before_any_draw(self):
        # A wrong rng is reported even when the size is wrong too.
        with pytest.raises(TypeError, match="rng must be a random.Random"):
            sample_profile(None, 0)

    @pytest.mark.parametrize("rng", [random.SystemRandom(), random.Random(0)])
    def test_sample_profile_takes_any_random_instance(self, rng):
        profile = sample_profile(rng, 3)
        assert type(profile) is Profile and len(profile) == 3

    def test_staircase_profile_shape(self):
        assert staircase_profile(3) == Profile(
            (Interval(1, 2), Interval(3, 4), Interval(5, 6))
        )
        with pytest.raises(ValueError):
            staircase_profile(0)
        for size in (True, 2.5):
            with pytest.raises(ValueError, match="n_agents must be an int"):
                staircase_profile(size)

    def test_recovers_quotas(self):
        assert identify_endpoint_rule(median_rule_handle(), 5) == (3, 3)
        assert identify_endpoint_rule(maximal_rule_handle(), 4) == (1, 1)
        assert identify_endpoint_rule(endpoint_rule_handle(2, 2), 3) == (2, 2)
        assert identify_endpoint_rule(endpoint_rule_handle(1, 1), 3) == (1, 1)

    def test_averaging_rejected_in_confirmation_phase(self):
        # On the staircase the mean equals the symmetric order statistic,
        # so the read-off succeeds and refutation must come from the
        # random-profile confirmations.
        probe = staircase_profile(3)
        assert averaging_rule_handle()(probe) == endpoint_rule_handle(2, 2)(probe)
        assert identify_endpoint_rule(averaging_rule_handle(), 3) is None

    def test_width_rule_rejected_in_confirmation_phase(self):
        assert identify_endpoint_rule(widest_rule(), 3) is None

    def test_non_integral_read_off_rejected(self):
        def window(profile):
            center = sum((iv.lo + iv.hi) / 2.0 for iv in profile) / len(profile)
            return Interval(center - 1.0, center + 1.0)

        assert identify_endpoint_rule(RuleHandle("window", window), 3) is None

    # On the staircase (1, 2), (3, 4) a fixed output (-1, 4) reads as lower
    # quota 0 and (1, 6) as upper quota 0.
    @pytest.mark.parametrize("output", [Interval(-1, 4), Interval(1, 6)],
                             ids=["lower", "upper"])
    def test_quota_below_one_rejected(self, output):
        fixed = RuleHandle("fixed", lambda profile: output)
        assert identify_endpoint_rule(fixed, 2) is None

    def test_confirmation_count_validated(self):
        with pytest.raises(ValueError):
            identify_endpoint_rule(median_rule_handle(), 3, confirmations=0)

    @pytest.mark.parametrize("arguments,message", [
        ((True,), "n_agents must be an int, got True"),
        ((2.5,), "n_agents must be an int, got 2.5"),
        ((3, 2.5), "confirmations must be an int, got 2.5"),
        ((3, True), "confirmations must be an int, got True"),
        ((3, 200, 1.5), "seed must be an int, got 1.5"),
    ])
    def test_arguments_checked_before_the_rule_runs(self, arguments, message):
        calls = []

        def counting(profile):
            calls.append(profile)
            return MEDIAN(profile)

        with pytest.raises(ValueError, match=re.escape(message)):
            identify_endpoint_rule(RuleHandle("counting", counting), *arguments)
        assert calls == []
