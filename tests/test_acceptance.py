"""Acceptance suite: nine numbered end-to-end criteria for the package.

Each test prints a ``[criterion N] PASS`` line (visible under ``pytest
-s``) with its runtime where a budget applies.  Every random draw uses a
seed pinned here, so the suite is deterministic.  The criteria cover the
golden outputs on two small benchmark profiles, the phantom
representation of quota rules, bulk axiom compliance for every quota
pair, the symmetric/asymmetric split under sign-reversing maps, the
averaging foil's axiom profile and manipulability, misreport-search
soundness for quota rules, quota identification, and the agreement of
the two strategyproofness diagnostics.
"""

import random
import time

import pytest

from intervalagg import (
    AuditConfig,
    DEFAULT_AUDIT_AXIOMS,
    GridConfig,
    Interval,
    PenaltyPreference,
    Profile,
    STRICT_IMPROVEMENT_EPS,
    WeightedL1Preference,
    audit,
    averaging_rule_handle,
    check_out_betweenness,
    endpoint_rule_handle,
    endpoint_rule_phantoms,
    find_manipulation,
    identify_endpoint_rule,
    maximal_rule_handle,
    median_rule_handle,
    phantom_rule_handle,
    valid_quota_pairs,
)
from intervalagg.cli import extern_rule_adapter

from .conftest import BENCHMARK_PROFILE, INTERLEAVED_PROFILE, extern_command

MAX_AGENTS = 6


def _random_interval(rng):
    lo = rng.uniform(-40.0, 40.0)
    return Interval(lo, lo + rng.uniform(0.25, 25.0))


def _random_profile(rng, n_agents, tie_bias=0.3):
    """Profile sampler with a deliberate bias toward tied endpoints."""
    entries = []
    for _ in range(n_agents):
        entry = _random_interval(rng)
        if rng.random() < tie_bias:
            lo = float(round(entry.lo))
            entry = Interval(lo, lo + max(1.0, float(round(entry.width))))
        entries.append(entry)
    if n_agents >= 2 and rng.random() < 0.15:
        entries[rng.randrange(n_agents)] = entries[rng.randrange(n_agents)]
    return Profile(entries)


def _random_preference(rng, peak):
    if rng.random() < 0.5:
        return WeightedL1Preference(
            peak,
            10.0 ** rng.uniform(-1.0, 1.0),
            10.0 ** rng.uniform(-1.0, 1.0),
        )
    return PenaltyPreference(peak, _random_interval(rng))


def test_criterion_1_benchmark_profile_goldens():
    maximal = maximal_rule_handle()
    skewed = endpoint_rule_handle(1, 3)
    median = median_rule_handle()
    maximal(BENCHMARK_PROFILE)
    start = time.perf_counter()
    widest = maximal(BENCHMARK_PROFILE)
    pooled = skewed(BENCHMARK_PROFILE)
    middle = median(BENCHMARK_PROFILE)
    elapsed = time.perf_counter() - start
    assert widest == Interval(1, 6)
    assert pooled == Interval(1, 4)
    assert middle == Interval(2, 5)
    assert elapsed < 0.001
    print(f"\n[criterion 1] PASS (runtime {elapsed * 1000:.3f} ms)")


def test_criterion_2_interleaved_profile_median_golden():
    median = median_rule_handle()
    median(INTERLEAVED_PROFILE)
    start = time.perf_counter()
    output = median(INTERLEAVED_PROFILE)
    elapsed = time.perf_counter() - start
    assert output == Interval(2, 5)
    assert elapsed < 0.001
    print(f"\n[criterion 2] PASS (runtime {elapsed * 1000:.3f} ms)")


def test_criterion_3_phantom_representation_equivalence():
    start = time.perf_counter()
    checked = 0
    for n_agents in range(1, MAX_AGENTS + 1):
        for lower_quota, upper_quota in valid_quota_pairs(n_agents):
            direct = endpoint_rule_handle(lower_quota, upper_quota)
            pooled = phantom_rule_handle(
                endpoint_rule_phantoms(lower_quota, upper_quota, n_agents)
            )
            rng = random.Random(
                30_000 + 97 * n_agents + 13 * lower_quota + upper_quota
            )
            for _ in range(1000):
                profile = _random_profile(rng, n_agents, tie_bias=0.45)
                assert pooled(profile) == direct(profile)
                checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 56_000
    assert elapsed < 10.0
    print(
        f"\n[criterion 3] PASS ({checked} comparisons, runtime {elapsed:.2f} s)"
    )


def test_criterion_4_quota_rules_pass_default_axiom_battery():
    assert sorted(DEFAULT_AUDIT_AXIOMS) == sorted(
        (
            "Responsiveness",
            "Anonymity",
            "WeakNeutrality",
            "TranslationEquivariance",
            "ContinuityLipschitz",
            "IndependentEndpoints",
            "OutBetweenness",
            "LowerProperty",
            "UpperProperty",
            "Unanimity",
        )
    )
    start = time.perf_counter()
    audited = 0
    for n_agents in range(1, MAX_AGENTS + 1):
        for lower_quota, upper_quota in valid_quota_pairs(n_agents):
            report = audit(
                endpoint_rule_handle(lower_quota, upper_quota),
                AuditConfig(
                    n_agents=n_agents,
                    samples=1000,
                    seed=4000 + 100 * n_agents + 10 * lower_quota + upper_quota,
                ),
            )
            assert not report.aborted
            assert report.total_eval_errors == 0
            assert report.total_failures == 0, (
                f"endpoint:{lower_quota},{upper_quota} at n={n_agents}: "
                f"{report.failing_axioms()}"
            )
            audited += 1
    elapsed = time.perf_counter() - start
    assert audited == 56
    assert elapsed < 120.0
    print(
        f"\n[criterion 4] PASS ({audited} rules x "
        f"{len(DEFAULT_AUDIT_AXIOMS)} axioms x 1000 samples, "
        f"runtime {elapsed:.1f} s)"
    )


def test_criterion_5_sign_reversal_separates_symmetric_quotas():
    symmetric_checked = 0
    asymmetric_checked = 0
    for n_agents in range(2, MAX_AGENTS + 1):
        for lower_quota, upper_quota in valid_quota_pairs(n_agents):
            handle = endpoint_rule_handle(lower_quota, upper_quota)
            seed = 5000 + 100 * n_agents + 10 * lower_quota + upper_quota
            if lower_quota == upper_quota:
                report = audit(
                    handle,
                    AuditConfig(
                        n_agents=n_agents,
                        samples=1000,
                        seed=seed,
                        axioms=("StrongNeutrality",),
                    ),
                )
                assert report.tallies["StrongNeutrality"].failures == 0, (
                    f"symmetric endpoint:{lower_quota},{upper_quota} "
                    f"at n={n_agents}"
                )
                symmetric_checked += 1
            else:
                report = audit(
                    handle,
                    AuditConfig(
                        n_agents=n_agents,
                        samples=100,
                        seed=seed,
                        axioms=("StrongNeutrality",),
                    ),
                )
                tally = report.tallies["StrongNeutrality"]
                assert tally.failures >= 1, (
                    f"asymmetric endpoint:{lower_quota},{upper_quota} "
                    f"at n={n_agents} survived 100 samples"
                )
                assert tally.first_witness["map"]["direction"] == "decreasing"
                asymmetric_checked += 1
    assert symmetric_checked == 11
    assert asymmetric_checked == 44
    print(
        f"\n[criterion 5] PASS ({symmetric_checked} symmetric rules clean at "
        f"1000 samples, {asymmetric_checked} asymmetric rules refuted "
        "within 100 samples)"
    )


def test_criterion_6_averaging_foil_profile_and_manipulability():
    passing_axioms = (
        "Responsiveness",
        "Anonymity",
        "TranslationEquivariance",
        "Unanimity",
    )
    for n_agents in (2, 3, 4, 5):
        report = audit(
            averaging_rule_handle(),
            AuditConfig(
                n_agents=n_agents,
                samples=1000,
                seed=6000 + n_agents,
                axioms=passing_axioms,
            ),
        )
        assert report.total_failures == 0, report.failing_axioms()

    failing = audit(
        averaging_rule_handle(),
        AuditConfig(
            n_agents=3,
            samples=1000,
            seed=6100,
            axioms=("WeakNeutrality", "OutBetweenness"),
        ),
    )
    assert failing.tallies["WeakNeutrality"].failures >= 1
    assert failing.tallies["OutBetweenness"].failures >= 1

    rng = random.Random(6200)
    found = 0
    for index in range(500):
        n_agents = rng.randint(2, 5)
        profile = _random_profile(rng, n_agents)
        agent = rng.randrange(n_agents)
        preference = WeightedL1Preference(
            profile[agent],
            10.0 ** rng.uniform(-1.0, 1.0),
            10.0 ** rng.uniform(-1.0, 1.0),
        )
        result = find_manipulation(
            averaging_rule_handle(),
            profile,
            agent,
            preference,
            GridConfig(seed=index),
        )
        if result.found:
            assert result.cost_drop > STRICT_IMPROVEMENT_EPS
            found += 1
    assert found >= 50, f"only {found}/500 instances manipulable"
    print(
        "\n[criterion 6] PASS (4 axioms clean, 2 axioms refuted, "
        f"{found}/500 instances manipulable)"
    )


def test_criterion_7_quota_rules_resist_deterministic_grid_search():
    start = time.perf_counter()
    grid = GridConfig(random_candidates=0)
    searched = 0
    for n_agents in range(1, 6):
        for lower_quota, upper_quota in valid_quota_pairs(n_agents):
            handle = endpoint_rule_handle(lower_quota, upper_quota)
            rng = random.Random(
                70_000 + 101 * n_agents + 11 * lower_quota + upper_quota
            )
            for _ in range(500):
                profile = _random_profile(rng, n_agents)
                agent = rng.randrange(n_agents)
                preference = _random_preference(rng, profile[agent])
                result = find_manipulation(
                    handle, profile, agent, preference, grid
                )
                assert not result.found, (
                    f"endpoint:{lower_quota},{upper_quota} manipulated on "
                    f"{profile} agent {agent}: {result}"
                )
                searched += 1
    elapsed = time.perf_counter() - start
    assert searched == 17_500
    print(
        f"\n[criterion 7] PASS ({searched} searches found no manipulation, "
        f"runtime {elapsed:.1f} s)"
    )


def test_criterion_8_quota_identification_probe():
    for n_agents in range(1, MAX_AGENTS + 1):
        for quotas in valid_quota_pairs(n_agents):
            recovered = identify_endpoint_rule(
                endpoint_rule_handle(*quotas), n_agents, seed=80 + n_agents
            )
            assert recovered == quotas

    assert identify_endpoint_rule(averaging_rule_handle(), 2) is None
    assert identify_endpoint_rule(averaging_rule_handle(), 3) is None

    refuted = []
    for script in ("widest_wins.py", "midpoint_window.py"):
        adapter = extern_rule_adapter(extern_command(script))
        assert identify_endpoint_rule(adapter, 3, confirmations=40) is None
        refuted.append(script)
    print(
        "\n[criterion 8] PASS (56 quota pairs recovered; averaging and "
        f"{len(refuted)} external rules rejected)"
    )


def test_criterion_9_betweenness_and_penalty_diagnostics_agree():
    rng = random.Random(9700)
    betweenness_failures = 0
    for _ in range(10_000):
        n_agents = rng.randint(2, 5)
        profile = _random_profile(rng, n_agents)
        if rng.random() < 0.5:
            rule = averaging_rule_handle()
        else:
            rule = endpoint_rule_handle(*rng.choice(valid_quota_pairs(n_agents)))
        agent = rng.randrange(n_agents)
        if rng.random() < 0.1:
            misreport = profile[agent]
        else:
            misreport = _random_interval(rng)
        truthful_outcome = rule(profile)
        deviated_outcome = rule(profile.replace_agent(agent, misreport))
        betweenness = check_out_betweenness(rule, profile, agent, misreport)
        preference = PenaltyPreference(profile[agent], deviated_outcome)
        improvement = preference.cost(truthful_outcome) - preference.cost(
            deviated_outcome
        )
        assert (not betweenness.passed) == (
            improvement > STRICT_IMPROVEMENT_EPS
        ), (
            f"diagnostics disagree for {rule.name} on {profile}, "
            f"agent {agent}, misreport {misreport}"
        )
        if not betweenness.passed:
            betweenness_failures += 1
    assert betweenness_failures > 0
    print(
        "\n[criterion 9] PASS (10000 instances coherent, "
        f"{betweenness_failures} betweenness failures exercised)"
    )
