"""Axiom checks, sampled audit campaigns, and the rule identification probe.

Each ``check_*`` function decides one axiom on one concrete instance and
returns an :class:`AxiomCheck`; a failing check carries a JSON-plain
witness that :func:`replay_witness` re-runs deterministically.  The
:func:`audit` driver samples instances per axiom with per-sample seeds
derived from (master seed, axiom, sample index), so a report is a pure
function of (rule, config) no matter how the samples would be scheduled.

Checks compare untransformed rule outputs exactly.  After a map or a
translation has touched the numbers, endpoint comparisons allow 1e-9
of floating-point slack.  The continuity axiom is decided only through
a sampled 1-Lipschitz surrogate (sup-norm perturbations of size eps must
move the output endpoints by at most eps plus slack); reports label it
as a surrogate so nobody mistakes it for the topological property.

The identification probe exploits the staircase profile
``((1,2), (3,4), ..., (2n-1, 2n))``: an order-statistic rule's output on
it is ``(2p - 1, 2(n + 1 - q))``, so the quotas can be read off and then
confirmed against the reconstructed rule on random profiles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .core import Interval, Profile, between, scalar_between, subset
from .preferences import (
    GridConfig,
    PenaltyPreference,
    Preference,
    WeightedL1Preference,
    find_manipulation,
)
from .rules import (
    EndpointRuleParams,
    RuleEvaluationError,
    RuleHandle,
    endpoint_rule,
)
from .transforms import (
    MonotoneMap,
    _random_increasing_from_rng,
    apply_map_interval,
    apply_map_profile,
    map_from_data,
    map_to_data,
)

__all__ = [
    "DEFAULT_AUDIT_AXIOMS",
    "ALL_AXIOM_IDS",
    "TRANSFORM_TOL",
    "AxiomCheck",
    "AxiomTally",
    "AuditConfig",
    "AuditReport",
    "check_responsiveness",
    "check_anonymity",
    "check_weak_neutrality",
    "check_strong_neutrality",
    "check_translation_equivariance",
    "check_continuity_lipschitz",
    "check_independent_endpoints",
    "check_out_betweenness",
    "check_lower_property",
    "check_upper_property",
    "check_unanimity",
    "check_manipulation",
    "audit",
    "replay_witness",
    "sample_profile",
    "identify_endpoint_rule",
    "staircase_profile",
]

RESPONSIVENESS = "Responsiveness"
ANONYMITY = "Anonymity"
WEAK_NEUTRALITY = "WeakNeutrality"
STRONG_NEUTRALITY = "StrongNeutrality"
TRANSLATION_EQUIVARIANCE = "TranslationEquivariance"
CONTINUITY_LIPSCHITZ = "ContinuityLipschitz"
INDEPENDENT_ENDPOINTS = "IndependentEndpoints"
OUT_BETWEENNESS = "OutBetweenness"
LOWER_PROPERTY = "LowerProperty"
UPPER_PROPERTY = "UpperProperty"
UNANIMITY = "Unanimity"
# Not an axiom of the framework: a sampled misreport search exposed
# through the same tally machinery, opt-in.
MANIPULATION = "Manipulation"

DEFAULT_AUDIT_AXIOMS = (
    RESPONSIVENESS,
    ANONYMITY,
    WEAK_NEUTRALITY,
    TRANSLATION_EQUIVARIANCE,
    CONTINUITY_LIPSCHITZ,
    INDEPENDENT_ENDPOINTS,
    OUT_BETWEENNESS,
    LOWER_PROPERTY,
    UPPER_PROPERTY,
    UNANIMITY,
)
ALL_AXIOM_IDS = DEFAULT_AUDIT_AXIOMS + (STRONG_NEUTRALITY, MANIPULATION)

_AXIOM_CODES = {axiom: code for code, axiom in enumerate(ALL_AXIOM_IDS, start=1)}

# Endpoint slack after a map or translation has been applied.
TRANSFORM_TOL = 1e-9

# Fixed campaign settings: the continuity surrogate's perturbation size
# and perturbations per sample, and the run of consecutive evaluation
# errors after which an audit aborts.
_CONTINUITY_EPSILON = 0.01
_CONTINUITY_PERTURBATIONS = 4
_MAX_CONSECUTIVE_ERRORS = 10


@dataclass(frozen=True)
class AxiomCheck:
    """Verdict of one axiom on one instance.

    ``witness`` is None on a pass; on a fail it is a JSON-plain dict
    embedding the full instance, replayable via :func:`replay_witness`.
    """

    axiom: str
    passed: bool
    witness: Optional[dict] = None


def _interval_from(data: Sequence[float]) -> Interval:
    return Interval(data[0], data[1])


def _profile_from(data: Sequence[Sequence[float]]) -> Profile:
    return Profile(Interval(lo, hi) for lo, hi in data)


def _close(a: Sequence[float], b: Sequence[float]) -> bool:
    return abs(a[0] - b[0]) <= TRANSFORM_TOL and abs(a[1] - b[1]) <= TRANSFORM_TOL


def check_responsiveness(rule: RuleHandle, profile: Profile, wider: Profile) -> AxiomCheck:
    """Nested inputs give nested outputs.

    Precondition: every agent's judgment in ``profile`` is contained in
    the corresponding judgment of ``wider``.  Pass iff the aggregate of
    ``profile`` is contained in the aggregate of ``wider``.
    """
    if len(profile) != len(wider):
        raise ValueError("profiles must have the same number of agents")
    for pos, (narrow, wide) in enumerate(zip(profile, wider)):
        if not subset(narrow, wide):
            raise ValueError(
                f"agent {pos}: {narrow!r} is not contained in {wide!r}"
            )
    output = rule(profile)
    wider_output = rule(wider)
    if subset(output, wider_output):
        return AxiomCheck(RESPONSIVENESS, True)
    return _failure(
        RESPONSIVENESS,
        profile=profile,
        wider_profile=wider,
        output=output,
        wider_output=wider_output,
    )


def check_anonymity(
    rule: RuleHandle, profile: Profile, permutation: Sequence[int]
) -> AxiomCheck:
    """Reordering the agents leaves the aggregate exactly unchanged."""
    n = len(profile)
    if sorted(permutation) != list(range(n)):
        raise ValueError(
            f"{list(permutation)!r} is not a permutation of 0..{n - 1}"
        )
    permuted = Profile(profile[source] for source in permutation)
    output = rule(profile)
    permuted_output = rule(permuted)
    if output == permuted_output:
        return AxiomCheck(ANONYMITY, True)
    return _failure(
        ANONYMITY,
        profile=profile,
        permutation=list(permutation),
        output=output,
        permuted_output=permuted_output,
    )


def _neutrality_check(
    axiom: str,
    rule: RuleHandle,
    profile: Profile,
    mapping: MonotoneMap,
    output: Optional[Interval] = None,
) -> AxiomCheck:
    """Decide neutrality; ``output``, the rule's value on ``profile``, is
    evaluated here unless the caller already has it."""
    if axiom == WEAK_NEUTRALITY and not mapping.increasing:
        raise ValueError("weak neutrality quantifies over increasing maps only")
    if output is None:
        output = rule(profile)
    expected = apply_map_interval(mapping, output)
    mapped_profile = apply_map_profile(mapping, profile)
    actual = rule(mapped_profile)
    if _close(expected, actual):
        return AxiomCheck(axiom, True)
    return _failure(
        axiom,
        profile=profile,
        map=mapping,
        mapped_profile=mapped_profile,
        expected=expected,
        mapped_output=actual,
    )


def check_weak_neutrality(
    rule: RuleHandle, profile: Profile, mapping: MonotoneMap
) -> AxiomCheck:
    """Rule commutes with an increasing transformation of the scale.

    The image of the aggregate must equal the aggregate of the images
    within 1e-9 per endpoint.  Decreasing maps are rejected; use
    :func:`check_strong_neutrality` for those.
    """
    return _neutrality_check(WEAK_NEUTRALITY, rule, profile, mapping)


def check_strong_neutrality(
    rule: RuleHandle, profile: Profile, mapping: MonotoneMap
) -> AxiomCheck:
    """Rule commutes with any strictly monotone transformation.

    For a decreasing map the image interval has its endpoints swapped,
    which :func:`~intervalagg.transforms.apply_map_interval` already
    handles; the comparison is otherwise identical to the weak check.
    """
    return _neutrality_check(STRONG_NEUTRALITY, rule, profile, mapping)


def check_translation_equivariance(
    rule: RuleHandle, profile: Profile, offset: float
) -> AxiomCheck:
    """Shifting every judgment by ``offset`` shifts the aggregate by it."""
    offset = float(offset)
    if offset != offset or offset in (float("inf"), float("-inf")):
        raise ValueError(f"offset must be finite, got {offset!r}")
    try:
        shifted = profile.shift(offset)
    except ValueError as error:
        raise ValueError(
            f"shifting the profile by {offset!r} leaves no valid profile: {error}"
        ) from error
    output = rule(profile)
    shifted_output = rule(shifted)
    # Plain floats: a rule's output may be narrower than the float
    # spacing at the shifted scale, so its shift need not be an Interval.
    expected = [output.lo + offset, output.hi + offset]
    if _close(expected, shifted_output):
        return AxiomCheck(TRANSLATION_EQUIVARIANCE, True)
    return _failure(
        TRANSLATION_EQUIVARIANCE,
        profile=profile,
        offset=offset,
        output=output,
        expected=expected,
        shifted_output=shifted_output,
    )


def _check_lipschitz(
    rule: RuleHandle, profile: Profile, epsilon: float, *perturbations: Profile
) -> AxiomCheck:
    output = rule(profile)
    for perturbed in perturbations:
        moved = rule(perturbed)
        movement = max(abs(moved.lo - output.lo), abs(moved.hi - output.hi))
        if movement > epsilon + TRANSFORM_TOL:
            return _failure(
                CONTINUITY_LIPSCHITZ,
                profile=profile,
                perturbed=perturbed,
                epsilon=epsilon,
                output=output,
                perturbed_output=moved,
                movement=movement,
            )
    return AxiomCheck(CONTINUITY_LIPSCHITZ, True)


def check_continuity_lipschitz(
    rule: RuleHandle,
    profile: Profile,
    epsilon: float,
    samples: int = _CONTINUITY_PERTURBATIONS,
    seed: int = 0,
) -> AxiomCheck:
    """Sampled 1-Lipschitz surrogate for continuity.

    Every endpoint of the profile is perturbed independently within
    ``[-delta, delta]`` where ``delta = min(epsilon, 0.49 * width)``
    keeps each judgment nonempty; the aggregate endpoints must move by
    at most ``epsilon + 1e-9``.  Order-statistic rules satisfy the exact
    1-Lipschitz bound, so they pass at any epsilon.  ``epsilon == 0``
    passes vacuously.  This is a surrogate: passing it is evidence, not
    a proof, of the continuity axiom.
    """
    epsilon = float(epsilon)
    if epsilon < 0 or epsilon != epsilon:
        raise ValueError(f"epsilon must be >= 0, got {epsilon!r}")
    if epsilon == 0:
        return AxiomCheck(CONTINUITY_LIPSCHITZ, True)
    rng = random.Random(seed)
    perturbations = []
    for _ in range(samples):
        jittered = []
        for entry in profile:
            delta = min(epsilon, 0.49 * entry.width)
            jittered.append(
                Interval(
                    entry.lo + rng.uniform(-delta, delta),
                    entry.hi + rng.uniform(-delta, delta),
                )
            )
        perturbations.append(Profile(jittered))
    return _check_lipschitz(rule, profile, epsilon, *perturbations)


def check_independent_endpoints(
    rule: RuleHandle, profile: Profile, other: Profile
) -> AxiomCheck:
    """Each aggregate endpoint depends only on the same-side inputs.

    The two profiles must agree on all lower endpoints or on all upper
    endpoints (or both); the aggregate endpoint on every agreeing side
    must then be exactly identical.
    """
    if len(profile) != len(other):
        raise ValueError("profiles must have the same number of agents")
    lower_agree = all(a.lo == b.lo for a, b in zip(profile, other))
    upper_agree = all(a.hi == b.hi for a, b in zip(profile, other))
    if not lower_agree and not upper_agree:
        raise ValueError(
            "profiles agree on neither all lower nor all upper endpoints"
        )
    output = rule(profile)
    other_output = rule(other)
    ok = True
    sides = []
    if lower_agree:
        sides.append("lower")
        ok = ok and output.lo == other_output.lo
    if upper_agree:
        sides.append("upper")
        ok = ok and output.hi == other_output.hi
    if ok:
        return AxiomCheck(INDEPENDENT_ENDPOINTS, True)
    return _failure(
        INDEPENDENT_ENDPOINTS,
        profile=profile,
        other=other,
        agreeing_sides=sides,
        output=output,
        other_output=other_output,
    )


def check_out_betweenness(
    rule: RuleHandle, profile: Profile, agent_index: int, misreport: Interval
) -> AxiomCheck:
    """Truthful aggregate lies between the agent's judgment and any
    aggregate the agent could reach by misreporting.

    This is the workable form of strategyproofness: a deviation may drag
    the outcome around, but never *past* the truthful outcome from the
    deviator's point of view.
    """
    deviated = profile.replace_agent(agent_index, misreport)
    output = rule(profile)
    deviated_output = rule(deviated)
    if between(profile[agent_index], output, deviated_output):
        return AxiomCheck(OUT_BETWEENNESS, True)
    return _failure(
        OUT_BETWEENNESS,
        profile=profile,
        agent=agent_index,
        misreport=misreport,
        output=output,
        deviated_output=deviated_output,
    )


def _one_agent_difference(profile: Profile, other: Profile, agent_index: int) -> None:
    if len(profile) != len(other):
        raise ValueError("profiles must have the same number of agents")
    if not 0 <= agent_index < len(profile):
        raise IndexError(
            f"agent index {agent_index} out of range for {len(profile)} agents"
        )
    for pos, (a, b) in enumerate(zip(profile, other)):
        if pos != agent_index and a != b:
            raise ValueError(
                f"profiles differ at agent {pos}, allowed only at {agent_index}"
            )


def _side_property_check(
    axiom: str,
    rule: RuleHandle,
    profile: Profile,
    other: Profile,
    agent_index: int,
    side: str,
) -> AxiomCheck:
    _one_agent_difference(profile, other, agent_index)
    output = rule(profile)
    other_output = rule(other)
    pick = (lambda iv: iv.lo) if side == "lower" else (lambda iv: iv.hi)
    a = pick(output)
    b = pick(other_output)
    own = pick(profile[agent_index])
    own_other = pick(other[agent_index])
    # Either the endpoint is unchanged, or each output endpoint lies
    # between that profile's own report and the other output endpoint.
    ok = a == b or (
        scalar_between(own, a, b) and scalar_between(own_other, b, a)
    )
    if ok:
        return AxiomCheck(axiom, True)
    return _failure(
        axiom,
        profile=profile,
        other=other,
        agent=agent_index,
        output=output,
        other_output=other_output,
    )


def check_lower_property(
    rule: RuleHandle, profile: Profile, other: Profile, agent_index: int
) -> AxiomCheck:
    """One-agent changes move the aggregate lower endpoint coherently.

    For profiles differing only at ``agent_index``: either the aggregate
    lower endpoints coincide, or each lies between that profile's own
    reported lower endpoint and the other aggregate's lower endpoint.
    A consequence of strategyproofness, checked on its own because it is
    the endpoint-wise lens the identification probe relies on.
    """
    return _side_property_check(
        LOWER_PROPERTY, rule, profile, other, agent_index, "lower"
    )


def check_upper_property(
    rule: RuleHandle, profile: Profile, other: Profile, agent_index: int
) -> AxiomCheck:
    """Mirror image of :func:`check_lower_property` on upper endpoints."""
    return _side_property_check(
        UPPER_PROPERTY, rule, profile, other, agent_index, "upper"
    )


def check_unanimity(rule: RuleHandle, judgment: Interval, n_agents: int) -> AxiomCheck:
    """A unanimous profile aggregates to the common judgment exactly."""
    if n_agents < 1:
        raise ValueError(f"n_agents must be >= 1, got {n_agents}")
    profile = Profile((judgment,) * n_agents)
    output = rule(profile)
    if output == judgment:
        return AxiomCheck(UNANIMITY, True)
    return _failure(
        UNANIMITY, judgment=judgment, n_agents=n_agents, output=output
    )


def check_manipulation(
    rule: RuleHandle,
    profile: Profile,
    agent_index: int,
    preference: Preference,
    grid: GridConfig = GridConfig(),
) -> AxiomCheck:
    """Misreport search wrapped as a check; passes when nothing is found."""
    result = find_manipulation(rule, profile, agent_index, preference, grid)
    if not result.found:
        return AxiomCheck(MANIPULATION, True)
    return _failure(
        MANIPULATION,
        profile=profile,
        agent=agent_index,
        preference=preference,
        grid_seed=grid.seed,
        misreport=result.misreport,
        truthful_outcome=result.truthful_outcome,
        manipulated_outcome=result.manipulated_outcome,
        cost_drop=result.cost_drop,
    )


# --------------------------------------------------------------------------
# Sampling


def _sample_interval(rng: random.Random, low: float = -10.0, high: float = 10.0) -> Interval:
    while True:
        a = rng.uniform(low, high)
        b = rng.uniform(low, high)
        if a != b:
            return Interval(min(a, b), max(a, b))


def sample_profile(rng: random.Random, n_agents: int) -> Profile:
    """Mixture sampler used by audits.

    Three regimes: plain uniform endpoints in [-10, 10]; clustered
    profiles drawing endpoints from a small shared pool (forcing exact
    ties across agents, the likeliest quantile bug site); and
    integer-valued profiles.  The regime is chosen per profile from the
    provided stream, so campaigns see all three.
    """
    roll = rng.random()
    if roll < 0.4:
        return Profile(_sample_interval(rng) for _ in range(n_agents))
    if roll < 0.7:
        pool_size = rng.randint(2, max(2, min(4, n_agents + 1)))
        pool = set()
        while len(pool) < pool_size + 1:
            if rng.random() < 0.5:
                pool.add(float(rng.randint(-8, 8)))
            else:
                pool.add(round(rng.uniform(-10.0, 10.0), 2))
        values = sorted(pool)
        agents = []
        for _ in range(n_agents):
            i = rng.randrange(len(values) - 1)
            j = rng.randrange(i + 1, len(values))
            agents.append(Interval(values[i], values[j]))
        return Profile(agents)
    agents = []
    for _ in range(n_agents):
        lo = rng.randint(-10, 9)
        hi = rng.randint(lo + 1, 10)
        agents.append(Interval(float(lo), float(hi)))
    return Profile(agents)


def _profile_anchors(profile: Profile, output: Interval) -> list[float]:
    anchors = [v for entry in profile for v in (entry.lo, entry.hi)]
    anchors.extend((output.lo, output.hi))
    return anchors


def _negate_map(mapping: MonotoneMap) -> MonotoneMap:
    points = tuple((x, -y) for x, y in mapping.breakpoints)
    return MonotoneMap(
        points, not mapping.increasing, mapping.left_slope, mapping.right_slope
    )


def _widened_profile(rng: random.Random, profile: Profile) -> Profile:
    agents = []
    for entry in profile:
        if rng.random() < 0.3:
            agents.append(entry)
        else:
            agents.append(
                Interval(
                    entry.lo - rng.uniform(0.0, 3.0),
                    entry.hi + rng.uniform(0.0, 3.0),
                )
            )
    return Profile(agents)


def _same_side_variant(
    rng: random.Random, profile: Profile, keep_lower: bool
) -> Profile:
    agents = []
    for entry in profile:
        if rng.random() < 0.25:
            agents.append(entry)
        elif keep_lower:
            agents.append(Interval(entry.lo, entry.lo + rng.uniform(0.05, 8.0)))
        else:
            agents.append(Interval(entry.hi - rng.uniform(0.05, 8.0), entry.hi))
    return Profile(agents)


def _sample_preference(rng: random.Random, peak: Interval) -> Preference:
    if rng.random() < 0.5:
        # Log-uniform weights in [0.1, 10] avoid weight-specific blind spots.
        return WeightedL1Preference(
            peak, 10.0 ** rng.uniform(-1, 1), 10.0 ** rng.uniform(-1, 1)
        )
    return PenaltyPreference(peak, _sample_interval(rng))


def _run_axiom_sample(
    axiom: str,
    rule: RuleHandle,
    rng: random.Random,
    sample_index: int,
    n: int,
) -> AxiomCheck:
    if axiom == RESPONSIVENESS:
        profile = sample_profile(rng, n)
        return check_responsiveness(rule, profile, _widened_profile(rng, profile))
    if axiom == ANONYMITY:
        profile = sample_profile(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        return check_anonymity(rule, profile, perm)
    if axiom == WEAK_NEUTRALITY or axiom == STRONG_NEUTRALITY:
        profile = sample_profile(rng, n)
        # The anchoring evaluation is also the check's own output.
        output = rule(profile)
        anchors = _profile_anchors(profile, output)
        if axiom == WEAK_NEUTRALITY or sample_index % 2 == 0:
            mapping = _random_increasing_from_rng(rng, anchors)
        elif rng.random() < 0.5:
            mapping = MonotoneMap.affine_map(-1.0)
        else:
            mapping = _negate_map(_random_increasing_from_rng(rng, anchors))
        return _neutrality_check(axiom, rule, profile, mapping, output)
    if axiom == TRANSLATION_EQUIVARIANCE:
        profile = sample_profile(rng, n)
        roll = rng.random()
        if roll < 0.1:
            offset = 0.0
        elif roll < 0.5:
            offset = float(rng.randint(-100, 100))
        else:
            offset = rng.uniform(-100.0, 100.0)
        return check_translation_equivariance(rule, profile, offset)
    if axiom == CONTINUITY_LIPSCHITZ:
        profile = sample_profile(rng, n)
        return check_continuity_lipschitz(
            rule, profile, _CONTINUITY_EPSILON, seed=rng.randrange(2**60)
        )
    if axiom == INDEPENDENT_ENDPOINTS:
        profile = sample_profile(rng, n)
        keep_lower = sample_index % 2 == 0
        return check_independent_endpoints(
            rule, profile, _same_side_variant(rng, profile, keep_lower)
        )
    if axiom == OUT_BETWEENNESS:
        profile = sample_profile(rng, n)
        agent = rng.randrange(n)
        return check_out_betweenness(rule, profile, agent, _sample_interval(rng))
    if axiom == LOWER_PROPERTY or axiom == UPPER_PROPERTY:
        profile = sample_profile(rng, n)
        agent = rng.randrange(n)
        if rng.random() < 0.1:
            other = profile
        else:
            other = profile.replace_agent(agent, _sample_interval(rng))
        if axiom == LOWER_PROPERTY:
            return check_lower_property(rule, profile, other, agent)
        return check_upper_property(rule, profile, other, agent)
    if axiom == UNANIMITY:
        return check_unanimity(rule, _sample_interval(rng), n)
    if axiom == MANIPULATION:
        profile = sample_profile(rng, n)
        agent = rng.randrange(n)
        preference = _sample_preference(rng, profile[agent])
        grid = GridConfig(seed=rng.randrange(2**60))
        return check_manipulation(rule, profile, agent, preference, grid)
    raise ValueError(f"unknown axiom id: {axiom!r}")


@dataclass
class AxiomTally:
    """Per-axiom campaign counters plus the first stored witness."""

    samples: int = 0
    failures: int = 0
    eval_errors: int = 0
    first_witness: Optional[dict] = None


@dataclass(frozen=True)
class AuditConfig:
    """Campaign parameters; the report is a pure function of (rule, config)."""

    n_agents: int
    samples: int = 1000
    seed: int = 0
    axioms: tuple[str, ...] = DEFAULT_AUDIT_AXIOMS

    def __post_init__(self) -> None:
        if self.n_agents < 1:
            raise ValueError(f"n_agents must be >= 1, got {self.n_agents}")
        if self.samples < 0:
            raise ValueError(f"samples must be >= 0, got {self.samples}")
        axioms = tuple(self.axioms)
        for axiom in axioms:
            if axiom not in _AXIOM_CODES:
                raise ValueError(
                    f"unknown axiom id: {axiom!r}; known ids: "
                    f"{', '.join(ALL_AXIOM_IDS)}"
                )
        if len(set(axioms)) != len(axioms):
            raise ValueError("duplicate axiom ids in config")
        object.__setattr__(self, "axioms", axioms)


@dataclass
class AuditReport:
    """Outcome of a sampled campaign over one rule."""

    rule_name: str
    config: AuditConfig
    tallies: dict[str, AxiomTally]
    aborted: bool = False
    abort_axiom: Optional[str] = None
    abort_reason: Optional[str] = None

    @property
    def total_failures(self) -> int:
        return sum(tally.failures for tally in self.tallies.values())

    @property
    def total_eval_errors(self) -> int:
        return sum(tally.eval_errors for tally in self.tallies.values())

    def failing_axioms(self) -> list[str]:
        return [a for a in self.config.axioms if self.tallies[a].failures > 0]

    def to_json_dict(self) -> dict:
        config = self.config
        results = {}
        for axiom in config.axioms:
            tally = self.tallies[axiom]
            entry = {
                "samples": tally.samples,
                "failures": tally.failures,
                "eval_errors": tally.eval_errors,
                "first_witness": tally.first_witness,
            }
            if axiom == CONTINUITY_LIPSCHITZ:
                entry["surrogate"] = True
            results[axiom] = entry
        return {
            "rule": self.rule_name,
            "n_agents": config.n_agents,
            "samples": config.samples,
            "master_seed": config.seed,
            "axioms": list(config.axioms),
            "aborted": self.aborted,
            "abort_axiom": self.abort_axiom,
            "abort_reason": self.abort_reason,
            "config": {
                "continuity_epsilon": _CONTINUITY_EPSILON,
                "continuity_samples": _CONTINUITY_PERTURBATIONS,
                "note": (
                    "ContinuityLipschitz is a sampled 1-Lipschitz surrogate, "
                    "not the topological continuity axiom"
                ),
            },
            "results": results,
        }

    def summary_lines(self) -> list[str]:
        config = self.config
        width = max(len(a) for a in config.axioms) if config.axioms else 8
        lines = [
            f"rule {self.rule_name}: n={config.n_agents} samples={config.samples} "
            f"seed={config.seed}"
        ]
        for axiom in config.axioms:
            tally = self.tallies[axiom]
            verdict = "pass" if tally.failures == 0 else "FAIL"
            note = " (surrogate)" if axiom == CONTINUITY_LIPSCHITZ else ""
            err = f" errors={tally.eval_errors}" if tally.eval_errors else ""
            lines.append(
                f"  {axiom:<{width}} {verdict}  "
                f"failures={tally.failures}/{tally.samples}{err}{note}"
            )
        if self.aborted:
            lines.append(
                f"  ABORTED under {self.abort_axiom}: {self.abort_reason}"
            )
        return lines


def _derive_seed(master: int, axiom: str, sample_index: int) -> int:
    return (master * 1_000_003 + _AXIOM_CODES[axiom]) * 1_000_003 + sample_index


def audit(rule: RuleHandle, config: AuditConfig) -> AuditReport:
    """Run the sampled campaign described by ``config`` against ``rule``.

    Per-sample randomness is seeded from (master seed, axiom, sample
    index), so the report does not depend on execution order and any
    single sample can be regenerated in isolation.  Rule evaluation
    errors are tallied separately from failures; after ten consecutive
    errors the campaign aborts (the rule binary is considered broken,
    not non-compliant).
    """
    tallies = {axiom: AxiomTally() for axiom in config.axioms}
    report = AuditReport(rule.name, config, tallies)
    consecutive_errors = 0
    for axiom in config.axioms:
        tally = tallies[axiom]
        for sample_index in range(config.samples):
            rng = random.Random(_derive_seed(config.seed, axiom, sample_index))
            try:
                check = _run_axiom_sample(
                    axiom, rule, rng, sample_index, config.n_agents
                )
            except RuleEvaluationError as error:
                tally.samples += 1
                tally.eval_errors += 1
                consecutive_errors += 1
                if consecutive_errors >= _MAX_CONSECUTIVE_ERRORS:
                    report.aborted = True
                    report.abort_axiom = axiom
                    report.abort_reason = str(error)
                    return report
                continue
            consecutive_errors = 0
            tally.samples += 1
            if not check.passed:
                tally.failures += 1
                if tally.first_witness is None:
                    tally.first_witness = check.witness
    return report


def _replay_manipulation(
    rule: RuleHandle,
    profile: Profile,
    agent_index: int,
    preference: Preference,
    grid_seed: int,
    misreport: Interval,
) -> AxiomCheck:
    # The stored misreport joins the seeded grid, so replay tries it even
    # if candidate generation changed after the witness was written.
    grid = GridConfig(seed=grid_seed, extra_candidates=(misreport,))
    return check_manipulation(rule, profile, agent_index, preference, grid)


def _pref_data(preference: Preference) -> dict:
    if isinstance(preference, WeightedL1Preference):
        return {
            "kind": "weighted_l1",
            "peak": list(preference.peak),
            "lower_weight": preference.lower_weight,
            "upper_weight": preference.upper_weight,
        }
    return {
        "kind": "penalty",
        "peak": list(preference.peak),
        "reference": list(preference.reference),
    }


def _pref_from(data: Mapping) -> Preference:
    if data["kind"] == "weighted_l1":
        return WeightedL1Preference(
            _interval_from(data["peak"]),
            data["lower_weight"],
            data["upper_weight"],
        )
    if data["kind"] == "penalty":
        return PenaltyPreference(
            _interval_from(data["peak"]), _interval_from(data["reference"])
        )
    raise ValueError(f"unknown preference kind: {data['kind']!r}")


def _failure(axiom: str, **fields) -> AxiomCheck:
    """Failing verdict whose witness holds ``fields`` as plain JSON, in order.

    The one witness encoder: intervals become ``[lo, hi]``, profiles
    lists of such pairs, maps and preferences the dicts the decoders
    below read back; any other value is stored as it is.
    """
    witness = {"axiom": axiom}
    for name, value in fields.items():
        if isinstance(value, Interval):
            value = [value.lo, value.hi]
        elif isinstance(value, Profile):
            value = [[entry.lo, entry.hi] for entry in value]
        elif isinstance(value, MonotoneMap):
            value = map_to_data(value)
        elif isinstance(value, (WeightedL1Preference, PenaltyPreference)):
            value = _pref_data(value)
        witness[name] = value
    return AxiomCheck(axiom, False, witness)


# How a witness field is read back; a field not listed is plain JSON.
_WITNESS_DECODERS = {
    "profile": _profile_from,
    "wider_profile": _profile_from,
    "other": _profile_from,
    "perturbed": _profile_from,
    "misreport": _interval_from,
    "judgment": _interval_from,
    "map": map_from_data,
    "preference": _pref_from,
}

# Per axiom: the function that decides one stored instance, and the
# witness fields it takes after the rule, in argument order.
_WITNESS_REPLAY = {
    RESPONSIVENESS: (check_responsiveness, ("profile", "wider_profile")),
    ANONYMITY: (check_anonymity, ("profile", "permutation")),
    WEAK_NEUTRALITY: (check_weak_neutrality, ("profile", "map")),
    STRONG_NEUTRALITY: (check_strong_neutrality, ("profile", "map")),
    TRANSLATION_EQUIVARIANCE: (check_translation_equivariance, ("profile", "offset")),
    CONTINUITY_LIPSCHITZ: (_check_lipschitz, ("profile", "epsilon", "perturbed")),
    INDEPENDENT_ENDPOINTS: (check_independent_endpoints, ("profile", "other")),
    OUT_BETWEENNESS: (check_out_betweenness, ("profile", "agent", "misreport")),
    LOWER_PROPERTY: (check_lower_property, ("profile", "other", "agent")),
    UPPER_PROPERTY: (check_upper_property, ("profile", "other", "agent")),
    UNANIMITY: (check_unanimity, ("judgment", "n_agents")),
    MANIPULATION: (
        _replay_manipulation,
        ("profile", "agent", "preference", "grid_seed", "misreport"),
    ),
}


def replay_witness(rule: RuleHandle, witness: Mapping) -> AxiomCheck:
    """Re-run the exact instance stored in a witness dict.

    A witness produced by a failing check re-fails bit-exactly against
    the same rule; this is the soundness guarantee audits rest on.
    """
    axiom = witness["axiom"]
    if axiom not in _WITNESS_REPLAY:
        raise ValueError(f"unknown axiom id in witness: {axiom!r}")
    check, fields = _WITNESS_REPLAY[axiom]
    args = []
    for name in fields:
        decode = _WITNESS_DECODERS.get(name)
        args.append(witness[name] if decode is None else decode(witness[name]))
    return check(rule, *args)


# --------------------------------------------------------------------------
# Identification probe


def staircase_profile(n_agents: int) -> Profile:
    """The disjoint probe profile ((1,2), (3,4), ..., (2n-1, 2n)).

    Agent k occupies (2k-1, 2k), so all 2n endpoint values are distinct
    and every order statistic is attained by exactly one agent.  An
    order-statistic rule with quotas (p, q) therefore outputs exactly
    (2p - 1, 2(n + 1 - q)), which makes the quotas readable from a
    single evaluation.
    """
    if n_agents < 1:
        raise ValueError(f"n_agents must be >= 1, got {n_agents}")
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
    integral or violates the quota constraint short-circuits to None.
    The probe can only certify behavioral equality on the sampled set;
    for genuine order-statistic rules the confirmation is exact by
    construction.
    """
    if confirmations < 1:
        raise ValueError(f"confirmations must be >= 1, got {confirmations}")
    probe = staircase_profile(n_agents)
    output = rule(probe)
    lower_guess = (output.lo + 1.0) / 2.0
    upper_guess = n_agents + 1.0 - output.hi / 2.0
    if not (float(lower_guess).is_integer() and float(upper_guess).is_integer()):
        return None
    lower_quota = int(lower_guess)
    upper_quota = int(upper_guess)
    if lower_quota < 1 or upper_quota < 1:
        return None
    if lower_quota + upper_quota > n_agents + 1:
        return None
    params = EndpointRuleParams(lower_quota, upper_quota, n_agents)
    rng = random.Random(seed)
    for _ in range(confirmations):
        trial = sample_profile(rng, n_agents)
        if rule(trial) != endpoint_rule(params, trial):
            return None
    return (lower_quota, upper_quota)
