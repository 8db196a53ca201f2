"""Axiom checks, sampled audit campaigns and witness replay.

Each ``check_*`` function decides one axiom on one concrete instance and
returns an :class:`AxiomCheck`; a failing check carries a JSON-plain
witness.  One table, ``_AXIOMS``, holds a row per axiom: the function
that decides one instance, the witness fields that make up an instance,
a draw that samples one, and whether the default battery runs it.  An
instance reaches its decider along one of two paths:

* draw, then decide: :func:`audit` draws each sample from a stream
  seeded by (master seed, axiom, sample index), so a report is a pure
  function of (rule, config) no matter how the samples are scheduled;
* replay, then decide: :func:`replay_witness` decodes the row's fields
  from a stored witness and re-runs the same decider, so a witness
  re-fails bit-exactly against the rule that produced it.

The default battery, the full id list and each axiom's seed code (its
place in the table, from 1) are all read off the table.

An audit's samples, axiom by axiom in config order, form one flat range
of positions.  :func:`_outcomes`, the audit's range function, decides
any contiguous part of it lazily, one outcome per sample, and
:func:`_merge` folds one stream of the whole range's outcomes into the
report.  The fold alone aborts after ten consecutive evaluation errors
and keeps each axiom's first witness; an exception the rule raised
before any abort reaches the caller from the stream.  The in-process
stream is lazy, so it stops evaluating the rule at the abort.  A
built-in handle's stream may be decided in parts shared with a second
process, a sample worker (:mod:`intervalagg._worker` describes how);
the report is the same byte for byte either way.

Checks compare untransformed rule outputs exactly.  After a map or a
translation has touched the numbers, endpoint comparisons allow 1e-9
of floating-point slack.  The continuity axiom is decided only through
a sampled 1-Lipschitz surrogate (sup-norm perturbations of size eps must
move the output endpoints by at most eps plus slack); reports label it
as a surrogate so nobody mistakes it for the topological property.

Samples are drawn with the profile sampler of :mod:`intervalagg.core`.
"""

from __future__ import annotations

import math
import random
# Only for AuditConfig: bench/layers.py:308 calls dataclasses.replace on it.
from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Mapping, Optional, Sequence

from . import _EXPORTS, _worker
from .core import (
    Interval,
    Profile,
    _check_agent,
    _check_int,
    _check_number,
    _Frozen,
    _Record,
    _sample_interval,
    _sample_profile,
    between,
    scalar_between,
    subset,
)
from .preferences import (
    GridConfig,
    PenaltyPreference,
    Preference,
    WeightedL1Preference,
    find_manipulation,
)
from .rules import RuleEvaluationError, RuleHandle
from .transforms import (
    MonotoneMap,
    _random_increasing_from_rng,
    apply_map_interval,
    apply_map_profile,
    map_from_data,
    map_to_data,
)

__all__ = [name for name, home in _EXPORTS.items() if home == "axioms"]

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

# Endpoint slack after a map or translation has been applied.
TRANSFORM_TOL = 1e-9

# Fixed campaign settings: the continuity surrogate's perturbation size
# and perturbations per sample, and the run of consecutive evaluation
# errors after which an audit aborts.
_CONTINUITY_EPSILON = 0.01
_CONTINUITY_PERTURBATIONS = 4
_MAX_CONSECUTIVE_ERRORS = 10


class AxiomCheck(_Frozen):
    """Verdict of one axiom on one instance.

    ``witness`` is None on a pass; on a fail it is a JSON-plain dict
    embedding the full instance, replayable via :func:`replay_witness`.
    """

    __slots__ = _fields = ("axiom", "witness")
    __match_args__ = ("axiom",)

    def __init__(self, axiom: str, *, witness: Optional[dict] = None) -> None:
        # Not self._set: a check is built per audit sample.
        object.__setattr__(self, "axiom", axiom)
        object.__setattr__(self, "witness", witness)

    @property
    def passed(self) -> bool:
        return self.witness is None


# Witness field decoders: each reads one field's JSON value and raises on
# anything a failing check could not have written there.


def _interval_from(data: Sequence[float]) -> Interval:
    if not isinstance(data, (list, tuple)) or len(data) != 2:
        raise ValueError(f"expected a [lo, hi] pair, got {data!r}")
    return Interval(_check_number("lo", data[0]), _check_number("hi", data[1]))


def _profile_from(data: Sequence[Sequence[float]]) -> Profile:
    if not isinstance(data, (list, tuple)):
        raise ValueError(f"expected a list of [lo, hi] pairs, got {data!r}")
    return Profile(map(_interval_from, data))


def _permutation_from(data: Sequence[int]) -> list[int]:
    # Entries must be ints, bools excluded: a JSON witness can hold 1.0,
    # which sorts like 1 but cannot index a profile.
    if not isinstance(data, (list, tuple)):
        raise ValueError(f"{data!r} is not a permutation (a list of agent indices)")
    return [_check_int("permutation entry", source) for source in data]


def _close(a: Sequence[float], b: Sequence[float]) -> bool:
    return abs(a[0] - b[0]) <= TRANSFORM_TOL and abs(a[1] - b[1]) <= TRANSFORM_TOL


def _same_size(profile: Profile, other: Profile) -> None:
    if len(profile) != len(other):
        raise ValueError("profiles must have the same number of agents")


def check_responsiveness(rule: RuleHandle, profile: Profile, wider: Profile) -> AxiomCheck:
    """Nested inputs give nested outputs.

    Precondition: every agent's judgment in ``profile`` is contained in
    the corresponding judgment of ``wider``.  Pass iff the aggregate of
    ``profile`` is contained in the aggregate of ``wider``.
    """
    _same_size(profile, wider)
    for pos, (narrow, wide) in enumerate(zip(profile, wider)):
        if not subset(narrow, wide):
            raise ValueError(
                f"agent {pos}: {narrow!r} is not contained in {wide!r}"
            )
    output = rule(profile)
    wider_output = rule(wider)
    if subset(output, wider_output):
        return AxiomCheck(RESPONSIVENESS)
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
    """Reordering the agents leaves the aggregate exactly unchanged.

    ``permutation`` is a list or tuple of agent indices: agent ``k`` of the
    reordered profile is agent ``permutation[k]`` of ``profile``.
    """
    permutation = _permutation_from(permutation)
    n = len(profile)
    if sorted(permutation) != list(range(n)):
        raise ValueError(f"{permutation!r} is not a permutation of 0..{n - 1}")
    permuted = Profile(profile[source] for source in permutation)
    output = rule(profile)
    permuted_output = rule(permuted)
    if output == permuted_output:
        return AxiomCheck(ANONYMITY)
    return _failure(
        ANONYMITY,
        profile=profile,
        permutation=permutation,
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
        return AxiomCheck(axiom)
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
    offset = float(_check_number("offset", offset))
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
        return AxiomCheck(TRANSLATION_EQUIVARIANCE)
    return _failure(
        TRANSLATION_EQUIVARIANCE,
        profile=profile,
        offset=offset,
        output=output,
        expected=expected,
        shifted_output=shifted_output,
    )


def _past_bound(distance: float, epsilon: float, profile: Profile, perturbed: Profile) -> bool:
    """Whether ``distance`` exceeds the continuity bound ``epsilon + 1e-9``
    plus two ulps of the largest endpoint magnitude of the two profiles
    for rounding: one as the perturbation rounds each endpoint and one as
    a rule that does not copy an endpoint, averaging say, rounds its
    output.  The ulps are read only past the nominal bound."""
    bound = epsilon + TRANSFORM_TOL
    return distance > bound and distance > bound + 2 * math.ulp(
        max(abs(x) for entry in (*profile, *perturbed) for x in entry))


def _misfit(profile: Profile, epsilon: float, perturbed: Profile) -> Optional[str]:
    """Why ``perturbed`` is no perturbation of ``profile`` within the
    continuity bound; None if it is one."""
    if len(perturbed) != len(profile):
        return f"{len(perturbed)} agents against the profile's {len(profile)}"
    shift = max(abs(a - b) for a, b in zip(chain(*profile), chain(*perturbed)))
    if _past_bound(shift, epsilon, profile, perturbed):
        return f"it moves an endpoint by {shift!r}, more than epsilon {epsilon!r}"
    return None


def _check_lipschitz(
    rule: RuleHandle, profile: Profile, epsilon: float, *perturbations: Profile
) -> AxiomCheck:
    output = rule(profile)
    for perturbed in perturbations:
        moved = rule(perturbed)
        movement = max(abs(moved.lo - output.lo), abs(moved.hi - output.hi))
        if _past_bound(movement, epsilon, profile, perturbed):
            return _failure(
                CONTINUITY_LIPSCHITZ,
                profile=profile,
                perturbed=perturbed,
                epsilon=epsilon,
                output=output,
                perturbed_output=moved,
                movement=movement,
            )
    return AxiomCheck(CONTINUITY_LIPSCHITZ)


def check_continuity_lipschitz(
    rule: RuleHandle,
    profile: Profile,
    epsilon: float,
    samples: int = _CONTINUITY_PERTURBATIONS,
    seed: int = 0,
) -> AxiomCheck:
    """Sampled 1-Lipschitz surrogate for continuity.

    Every endpoint of the profile is perturbed independently within
    ``[-delta, delta]`` where ``delta = min(epsilon, 0.49 * width)``; a
    judgment whose jittered endpoints round to ``lo >= hi`` (possible only
    far from 0) is kept unperturbed.  The aggregate endpoints must move by
    at most ``epsilon + 1e-9``, plus two ulps of the largest endpoint
    magnitude for rounding: the perturbation rounds once, and a rule such
    as averaging rounds its output once more.  Order-statistic rules
    satisfy the exact 1-Lipschitz bound, so they pass at any epsilon and
    any magnitude.  ``epsilon == 0`` passes vacuously.  This is a
    surrogate: passing it is evidence, not a proof, of the continuity
    axiom.
    """
    _check_int("samples", samples, 0)
    _check_int("seed", seed)
    epsilon = float(_check_number("epsilon", epsilon, 0.0))
    if epsilon == 0:
        return AxiomCheck(CONTINUITY_LIPSCHITZ)
    return _check_lipschitz(
        rule, profile, epsilon, *_perturbations(profile, epsilon, samples, seed)
    )


def _perturbations(
    profile: Profile, epsilon: float, samples: int, seed: int
) -> list[Profile]:
    rng = random.Random(seed)
    perturbations = []
    for _ in range(samples):
        jittered = []
        for entry in profile:
            delta = min(epsilon, 0.49 * entry.width)
            lo = entry.lo + rng.uniform(-delta, delta)
            hi = entry.hi + rng.uniform(-delta, delta)
            # Rounding can make the jittered endpoints meet at a large magnitude.
            jittered.append(Interval(lo, hi) if lo < hi else entry)
        perturbations.append(Profile(jittered))
    return perturbations


def check_independent_endpoints(
    rule: RuleHandle, profile: Profile, other: Profile
) -> AxiomCheck:
    """Each aggregate endpoint depends only on the same-side inputs.

    The two profiles must agree on all lower endpoints or on all upper
    endpoints (or both); the aggregate endpoint on every agreeing side
    must then be exactly identical.
    """
    _same_size(profile, other)
    # A side is an index into an interval: 0 the lower, 1 the upper endpoint.
    sides = [
        side for side in (0, 1)
        if all(a[side] == b[side] for a, b in zip(profile, other))
    ]
    if not sides:
        raise ValueError(
            "profiles agree on neither all lower nor all upper endpoints"
        )
    output = rule(profile)
    other_output = rule(other)
    if all(output[side] == other_output[side] for side in sides):
        return AxiomCheck(INDEPENDENT_ENDPOINTS)
    return _failure(
        INDEPENDENT_ENDPOINTS,
        profile=profile,
        other=other,
        agreeing_sides=[("lower", "upper")[side] for side in sides],
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
    _check_agent(profile, agent_index, "agent_index")
    deviated = profile.replace_agent(agent_index, misreport)
    output = rule(profile)
    deviated_output = rule(deviated)
    if between(profile[agent_index], output, deviated_output):
        return AxiomCheck(OUT_BETWEENNESS)
    return _failure(
        OUT_BETWEENNESS,
        profile=profile,
        agent=agent_index,
        misreport=misreport,
        output=output,
        deviated_output=deviated_output,
    )


def _side_property_check(
    axiom: str,
    rule: RuleHandle,
    profile: Profile,
    other: Profile,
    agent_index: int,
    side: int,
) -> AxiomCheck:
    """The lower (``side`` 0) or upper (``side`` 1) property."""
    _same_size(profile, other)
    _check_agent(profile, agent_index, "agent_index")
    for pos, (a, b) in enumerate(zip(profile, other)):
        if pos != agent_index and a != b:
            raise ValueError(
                f"profiles differ at agent {pos}, allowed only at {agent_index}"
            )
    output = rule(profile)
    other_output = rule(other)
    a = output[side]
    b = other_output[side]
    # Either the endpoint is unchanged, or each output endpoint lies
    # between that profile's own report and the other output endpoint.
    if a == b or (
        scalar_between(profile[agent_index][side], a, b)
        and scalar_between(other[agent_index][side], b, a)
    ):
        return AxiomCheck(axiom)
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
        LOWER_PROPERTY, rule, profile, other, agent_index, 0
    )


def check_upper_property(
    rule: RuleHandle, profile: Profile, other: Profile, agent_index: int
) -> AxiomCheck:
    """Mirror image of :func:`check_lower_property` on upper endpoints."""
    return _side_property_check(
        UPPER_PROPERTY, rule, profile, other, agent_index, 1
    )


def check_unanimity(rule: RuleHandle, judgment: Interval, n_agents: int) -> AxiomCheck:
    """A unanimous profile aggregates to the common judgment exactly."""
    _check_int("n_agents", n_agents, 1)
    profile = Profile((judgment,) * n_agents)
    output = rule(profile)
    if output == judgment:
        return AxiomCheck(UNANIMITY)
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
        return AxiomCheck(MANIPULATION)
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


def _decide_manipulation(
    rule, profile, agent_index, preference, grid_seed, misreport=None
) -> AxiomCheck:
    # A stored misreport joins the seeded grid, so replay tries it even
    # if candidate generation changed after the witness was written.
    extra = () if misreport is None else (misreport,)
    grid = GridConfig(seed=grid_seed, extra_candidates=extra)
    return check_manipulation(rule, profile, agent_index, preference, grid)


# Draws take (rule, rng, sample_index, n_agents) and return the decider's
# arguments after the rule; their order of rng calls fixes every report.


def _draw_responsiveness(rule, rng, sample_index, n):
    profile = _sample_profile(rng, n)
    wider = [
        entry if rng.random() < 0.3
        else Interval(entry.lo - rng.uniform(0.0, 3.0), entry.hi + rng.uniform(0.0, 3.0))
        for entry in profile
    ]
    return profile, Profile(wider)


def _draw_anonymity(rule, rng, sample_index, n):
    profile = _sample_profile(rng, n)
    permutation = list(range(n))
    rng.shuffle(permutation)
    return profile, permutation


def _draw_neutrality(rule, rng, sample_index, n, strong=False):
    profile = _sample_profile(rng, n)
    # The anchoring evaluation goes on to the decider as the check's own
    # output, so a sample evaluates the profile once.
    output = rule(profile)
    anchors = [v for entry in profile for v in (entry.lo, entry.hi)]
    anchors.extend((output.lo, output.hi))
    if not strong or sample_index % 2 == 0:
        mapping = _random_increasing_from_rng(rng, anchors)
    elif rng.random() < 0.5:
        mapping = MonotoneMap.affine_map(-1.0)
    else:
        rising = _random_increasing_from_rng(rng, anchors)
        falling = tuple((x, -y) for x, y in rising.breakpoints)
        mapping = MonotoneMap(falling, rising.left_slope, rising.right_slope)
    return profile, mapping, output


def _draw_translation(rule, rng, sample_index, n):
    profile = _sample_profile(rng, n)
    roll = rng.random()
    if roll < 0.1:
        return profile, 0.0
    if roll < 0.5:
        return profile, float(rng.randint(-100, 100))
    return profile, rng.uniform(-100.0, 100.0)


def _draw_continuity(rule, rng, sample_index, n):
    profile = _sample_profile(rng, n)
    perturbations = _perturbations(
        profile, _CONTINUITY_EPSILON, _CONTINUITY_PERTURBATIONS, rng.randrange(2**60)
    )
    return (profile, _CONTINUITY_EPSILON, *perturbations)


def _draw_independent_endpoints(rule, rng, sample_index, n):
    profile = _sample_profile(rng, n)
    keep_lower = sample_index % 2 == 0
    other = [
        entry if rng.random() < 0.25
        else Interval(entry.lo, entry.lo + rng.uniform(0.05, 8.0)) if keep_lower
        else Interval(entry.hi - rng.uniform(0.05, 8.0), entry.hi)
        for entry in profile
    ]
    return profile, Profile(other)


def _draw_out_betweenness(rule, rng, sample_index, n):
    profile = _sample_profile(rng, n)
    agent = rng.randrange(n)
    return profile, agent, _sample_interval(rng)


def _draw_side_property(rule, rng, sample_index, n):
    profile = _sample_profile(rng, n)
    agent = rng.randrange(n)
    if rng.random() < 0.1:
        return profile, profile, agent
    return profile, profile.replace_agent(agent, _sample_interval(rng)), agent


def _draw_unanimity(rule, rng, sample_index, n):
    return _sample_interval(rng), n


def _draw_manipulation(rule, rng, sample_index, n):
    profile = _sample_profile(rng, n)
    agent = rng.randrange(n)
    if rng.random() < 0.5:
        # Log-uniform weights in [0.1, 10] avoid weight-specific blind spots.
        preference = WeightedL1Preference(
            profile[agent], 10.0 ** rng.uniform(-1, 1), 10.0 ** rng.uniform(-1, 1)
        )
    else:
        preference = PenaltyPreference(profile[agent], _sample_interval(rng))
    return profile, agent, preference, rng.randrange(2**60)


# One row per axiom: (decide, the witness fields replay passes to decide,
# draw, whether the default battery runs it).  An axiom's seed code is its
# place here, from 1, so moving a row changes the samples of every report.
_AXIOMS = {
    RESPONSIVENESS: (check_responsiveness, ("profile", "wider_profile"),
                     _draw_responsiveness, True),
    ANONYMITY: (check_anonymity, ("profile", "permutation"), _draw_anonymity, True),
    WEAK_NEUTRALITY: (partial(_neutrality_check, WEAK_NEUTRALITY), ("profile", "map"),
                      _draw_neutrality, True),
    TRANSLATION_EQUIVARIANCE: (check_translation_equivariance, ("profile", "offset"),
                               _draw_translation, True),
    CONTINUITY_LIPSCHITZ: (_check_lipschitz, ("profile", "epsilon", "perturbed"),
                           _draw_continuity, True),
    INDEPENDENT_ENDPOINTS: (check_independent_endpoints, ("profile", "other"),
                            _draw_independent_endpoints, True),
    OUT_BETWEENNESS: (check_out_betweenness, ("profile", "agent", "misreport"),
                      _draw_out_betweenness, True),
    LOWER_PROPERTY: (check_lower_property, ("profile", "other", "agent"),
                     _draw_side_property, True),
    UPPER_PROPERTY: (check_upper_property, ("profile", "other", "agent"),
                     _draw_side_property, True),
    UNANIMITY: (check_unanimity, ("judgment", "n_agents"), _draw_unanimity, True),
    STRONG_NEUTRALITY: (partial(_neutrality_check, STRONG_NEUTRALITY), ("profile", "map"),
                        partial(_draw_neutrality, strong=True), False),
    MANIPULATION: (_decide_manipulation,
                   ("profile", "agent", "preference", "grid_seed", "misreport"),
                   _draw_manipulation, False),
}

ALL_AXIOM_IDS = tuple(_AXIOMS)
DEFAULT_AUDIT_AXIOMS = tuple(a for a, (_, _, _, default) in _AXIOMS.items() if default)
_AXIOM_CODES = {axiom: code for code, axiom in enumerate(_AXIOMS, start=1)}


class AxiomTally(_Record):
    """Per-axiom campaign counters plus the first stored witness."""

    __slots__ = _fields = __match_args__ = (
        "samples", "failures", "eval_errors", "first_witness"
    )

    def __init__(
        self, samples: int = 0, failures: int = 0, eval_errors: int = 0,
        first_witness: Optional[dict] = None,
    ) -> None:
        self._set(samples, failures, eval_errors, first_witness)


@dataclass(frozen=True)
class AuditConfig:
    """Campaign parameters; the report is a pure function of (rule, config)."""

    n_agents: int
    samples: int = 1000
    seed: int = 0
    axioms: tuple[str, ...] = DEFAULT_AUDIT_AXIOMS

    def __post_init__(self) -> None:
        _check_int("n_agents", self.n_agents, 1)
        _check_int("samples", self.samples, 0)
        _check_int("seed", self.seed)
        if not isinstance(self.axioms, (list, tuple)):
            raise ValueError(f"axioms must be a sequence of ids, got {self.axioms!r}")
        axioms = tuple(self.axioms)
        for axiom in axioms:
            if not isinstance(axiom, str) or axiom not in _AXIOM_CODES:
                raise ValueError(
                    f"unknown axiom id: {axiom!r}; known ids: "
                    f"{', '.join(ALL_AXIOM_IDS)}"
                )
        if len(set(axioms)) != len(axioms):
            raise ValueError("duplicate axiom ids in config")
        object.__setattr__(self, "axioms", axioms)


class AuditReport(_Record):
    """Outcome of a sampled campaign over one rule."""

    __slots__ = _fields = ("rule_name", "config", "tallies", "abort_axiom", "abort_reason")
    __match_args__ = _fields[:3]

    def __init__(
        self, rule_name: str, config: AuditConfig, tallies: dict[str, AxiomTally],
        *, abort_axiom: Optional[str] = None, abort_reason: Optional[str] = None,
    ) -> None:
        self._set(rule_name, config, tallies, abort_axiom, abort_reason)

    @property
    def aborted(self) -> bool:
        return self.abort_axiom is not None

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

    A built-in handle may be audited in two processes, this one and a
    sample worker (see :mod:`intervalagg._worker`).  The report is the
    same byte for byte either way, and an exception the rule raises
    reaches the caller as it would in-process.
    """
    total = len(config.axioms) * config.samples
    stream = _worker.parts(_outcomes, (rule, config), total)
    return _merge(rule.name, config, stream or _outcomes(rule, config, 0, total))


def _outcomes(rule: RuleHandle, config: AuditConfig, start: int, stop: int):
    """The outcome of each sample at flat positions ``start`` to
    ``stop - 1``, lazily and in order: None for a pass, the witness for a
    failure, the message for a :class:`RuleEvaluationError`.

    Position ``a * config.samples + i`` is sample ``i`` of the ``a``-th
    axiom of the config.  Any other exception the rule raises propagates
    at its sample.
    """
    samples, n_agents = config.samples, config.n_agents
    rng = random.Random(0)  # reseeded for every sample
    for index, axiom in enumerate(config.axioms):
        base = index * samples
        decide, _, draw, _ = _AXIOMS[axiom]
        for sample_index in range(max(start - base, 0), min(stop - base, samples)):
            rng.seed(_derive_seed(config.seed, axiom, sample_index))
            try:
                outcome = decide(rule, *draw(rule, rng, sample_index, n_agents)).witness
            except RuleEvaluationError as error:
                outcome = str(error)
            yield outcome


def _merge(name: str, config: AuditConfig, outcomes) -> AuditReport:
    """The report on ``outcomes``, one per sample in position order: one
    fold, which aborts at ten consecutive evaluation errors and keeps each
    axiom's first witness.  Stops reading ``outcomes`` at the abort, so an
    exception the stream raises after it is never seen."""
    axioms, samples = config.axioms, config.samples
    tallies = {axiom: AxiomTally() for axiom in axioms}
    report = AuditReport(name, config, tallies)
    consecutive_errors = 0
    for pos, outcome in enumerate(outcomes):
        axiom = axioms[pos // samples]
        tally = tallies[axiom]
        tally.samples += 1
        if isinstance(outcome, str):
            tally.eval_errors += 1
            consecutive_errors += 1
            if consecutive_errors == _MAX_CONSECUTIVE_ERRORS:
                report.abort_axiom, report.abort_reason = axiom, outcome
                return report
            continue
        consecutive_errors = 0
        if outcome is not None:
            tally.failures += 1
            if tally.first_witness is None:
                tally.first_witness = outcome
    return report


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
    if not isinstance(data, Mapping):
        raise ValueError(f"expected a preference object, got {data!r}")
    if data["kind"] == "weighted_l1":
        return WeightedL1Preference(
            _interval_from(data["peak"]), data["lower_weight"], data["upper_weight"]
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
    return AxiomCheck(axiom, witness=witness)


# How each witness field a row of _AXIOMS lists is read back and checked.
_WITNESS_DECODERS = {
    "profile": _profile_from,
    "wider_profile": _profile_from,
    "other": _profile_from,
    "perturbed": _profile_from,
    "misreport": _interval_from,
    "judgment": _interval_from,
    "map": map_from_data,
    "preference": _pref_from,
    "permutation": _permutation_from,
    "offset": partial(_check_number, "offset"),
    "epsilon": partial(_check_number, "epsilon", least=0.0),
    "agent": partial(_check_int, "agent", least=0),
    "n_agents": partial(_check_int, "n_agents", least=1),
    "grid_seed": partial(_check_int, "grid_seed"),
}


def replay_witness(rule: RuleHandle, witness: Mapping) -> AxiomCheck:
    """Re-run the exact instance stored in a witness dict.

    A witness produced by a failing check re-fails bit-exactly against
    the same rule; this is the soundness guarantee audits rest on.  A
    witness that is not a mapping or has no axiom is a ValueError; so is
    one with a field its axiom reads missing or malformed (an ``agent``
    outside its profile included, and a continuity ``perturbed`` profile
    of another size or moved past the bound), and that error names the
    axiom and the field.  Each is raised before the rule is evaluated.
    """
    if not isinstance(witness, Mapping):
        raise ValueError(f"a witness is an object, got {witness!r}")
    if "axiom" not in witness:
        raise ValueError("witness has no 'axiom' field")
    axiom = witness["axiom"]
    if not isinstance(axiom, str) or axiom not in _AXIOMS:
        raise ValueError(f"unknown axiom id in witness: {axiom!r}")
    decide, fields, _, _ = _AXIOMS[axiom]
    args = {}
    for name in fields:
        if name not in witness:
            raise ValueError(f"{axiom} witness has no {name!r} field")
        try:
            args[name] = _WITNESS_DECODERS[name](witness[name])
        except (TypeError, ValueError, KeyError, OverflowError) as error:
            detail = f"missing key {error}" if isinstance(error, KeyError) else error
            raise ValueError(
                f"{axiom} witness field {name!r} is malformed: {detail}"
            ) from error
    # Every row that reads an agent reads the profile it indexes.
    if "agent" in args and args["agent"] >= len(args["profile"]):
        raise ValueError(
            f"{axiom} witness field 'agent' is malformed: {args['agent']} is "
            f"out of range for {len(args['profile'])} agents"
        )
    # The continuity row's perturbation must fit its profile and epsilon.
    misfit = "perturbed" in args and _misfit(*args.values())
    if misfit:
        raise ValueError(f"{axiom} witness field 'perturbed' is malformed: {misfit}")
    return decide(rule, *args.values())

