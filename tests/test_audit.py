import json
import math
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
    median_rule,
    median_rule_handle,
    replay_witness,
    staircase_profile,
)
from intervalagg.audit import _WITNESS_REPLAY

from .conftest import BENCHMARK_PROFILE

GOLDEN_DIR = Path(__file__).parent / "golden"


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
        out = median_rule(profile)
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


class TestNeutrality:
    def test_doubling_passes_order_statistics(self):
        doubling = MonotoneMap.through([(0.0, 0.0), (1.0, 2.0)])
        check = check_weak_neutrality(
            endpoint_rule_handle(1, 1), BENCHMARK_PROFILE, doubling
        )
        assert check.passed

    def test_identity_passes_everything(self):
        check = check_weak_neutrality(
            averaging_rule_handle(), BENCHMARK_PROFILE, MonotoneMap.affine_map(1.0, 0.0)
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
            return median_rule(profile)

        check = check_continuity_lipschitz(
            RuleHandle("counted", counted), BENCHMARK_PROFILE, 0.01, samples=samples
        )
        assert check.passed
        assert len(calls) == 1 + samples
        assert calls.count(BENCHMARK_PROFILE) == 1

    def test_zero_epsilon_is_vacuous(self):
        check = check_continuity_lipschitz(jump_rule(), BENCHMARK_PROFILE, 0.0)
        assert check.passed

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            check_continuity_lipschitz(median_rule_handle(), BENCHMARK_PROFILE, -1.0)


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
            return median_rule(profile)

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
    assert documented == {
        axiom: fields for axiom, (_, fields) in _WITNESS_REPLAY.items()
    }


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

    def test_occasional_errors_tallied_without_abort(self):
        calls = {"count": 0}

        def flaky(profile):
            calls["count"] += 1
            if calls["count"] % 5 == 0:
                raise RuleEvaluationError("hiccup")
            return median_rule(profile)

        report = audit(
            RuleHandle("flaky", flaky),
            AuditConfig(n_agents=2, samples=40, seed=0,
                        axioms=("Unanimity", "Anonymity")),
        )
        assert not report.aborted
        assert report.total_eval_errors > 0
        assert report.total_failures == 0


class TestIdentification:
    def test_staircase_profile_shape(self):
        assert staircase_profile(3) == Profile(
            (Interval(1, 2), Interval(3, 4), Interval(5, 6))
        )
        with pytest.raises(ValueError):
            staircase_profile(0)

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
        from intervalagg import averaging_rule, endpoint_rule, EndpointRuleParams

        assert averaging_rule(probe) == endpoint_rule(
            EndpointRuleParams(2, 2, 3), probe
        )
        assert identify_endpoint_rule(averaging_rule_handle(), 3) is None

    def test_width_rule_rejected_in_confirmation_phase(self):
        assert identify_endpoint_rule(widest_rule(), 3) is None

    def test_non_integral_read_off_rejected(self):
        def window(profile):
            center = sum((iv.lo + iv.hi) / 2.0 for iv in profile) / len(profile)
            return Interval(center - 1.0, center + 1.0)

        assert identify_endpoint_rule(RuleHandle("window", window), 3) is None

    def test_confirmation_count_validated(self):
        with pytest.raises(ValueError):
            identify_endpoint_rule(median_rule_handle(), 3, confirmations=0)
