"""Workload ``misreport_search``: single-peaked misreport searches.

One op is one ``find_manipulation`` call with the default ``GridConfig``
(the deterministic grid plus the 200-point seeded cloud, a grid seed per
op).  The pool is stratified so every seed gives the same mix: for each
n in 1..7, blocks of ten searches where one is against the averaging foil
and nine against order-statistic rules with a seeded admissible quota
pair, every other one of those built as a phantom handle.  Preferences
alternate between weighted-L1 (log-uniform weights) and penalty kinds.

Oracle: the truthful outcome equals a reference computed here from the
raw endpoints; order-statistic searches find nothing; a misreport found
against averaging is re-evaluated with the reference mean, and its
outcome and its cost drop above ``STRICT_IMPROVEMENT_EPS`` are confirmed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from harness import Verdict
from layers import ProbeInputs, Search

NAME = "misreport_search"
AGENT_COUNTS = range(1, 8)
BLOCK = 10
BLOCKS_PER_N = 4


@dataclass(frozen=True)
class Op:
    kind: str
    handle: object
    profile: object
    agent: int
    preference: object
    grid: object
    quotas: Optional[tuple]
    expected_truthful: tuple


@dataclass
class State:
    lib: object
    ops: list


def _endpoint(rng: random.Random) -> float:
    # A coarse lattice half of the time, so profiles carry exact ties.
    if rng.random() < 0.5:
        return rng.randint(-20, 20) / 2.0
    return rng.uniform(-10.0, 10.0)


def _raw_interval(rng: random.Random) -> tuple:
    while True:
        a, b = _endpoint(rng), _endpoint(rng)
        if a != b:
            return (min(a, b), max(a, b))


def reference_order_statistic(raw: list, quotas: tuple) -> tuple:
    p, q = quotas
    lows = sorted(lo for lo, _ in raw)
    highs = sorted(hi for _, hi in raw)
    return (lows[p - 1], highs[len(raw) - q])


def reference_mean(raw: list) -> tuple:
    n = len(raw)
    lo = sum(Fraction(lo) for lo, _ in raw) / n
    hi = sum(Fraction(hi) for _, hi in raw) / n
    return (float(lo), float(hi))


def build(lib, seed: int, root: str, wrap=None, recorder=None) -> State:
    rng = random.Random(f"{NAME}:{seed}")
    wrap = wrap or (lambda handle: handle)
    ops = []
    for block in range(BLOCKS_PER_N):
        for n in AGENT_COUNTS:
            for slot in range(BLOCK):
                raw = [_raw_interval(rng) for _ in range(n)]
                profile = lib.Profile(lib.Interval(lo, hi) for lo, hi in raw)
                agent = rng.randrange(n)
                peak = profile[agent]
                if (slot + block) % 2 == 0:
                    preference = lib.WeightedL1Preference(
                        peak, 10.0 ** rng.uniform(-1, 1), 10.0 ** rng.uniform(-1, 1)
                    )
                else:
                    preference = lib.PenaltyPreference(peak, lib.Interval(*_raw_interval(rng)))
                grid = lib.GridConfig(seed=rng.randrange(2**31))
                if slot == BLOCK - 1:
                    kind, quotas = "averaging", None
                    handle = lib.averaging_rule_handle()
                    expected = reference_mean(raw)
                else:
                    quotas = rng.choice(lib.valid_quota_pairs(n))
                    expected = reference_order_statistic(raw, quotas)
                    if slot % 2:
                        kind = "phantoms"
                        handle = lib.phantom_rule_handle(lib.endpoint_rule_phantoms(*quotas, n))
                    else:
                        kind = "endpoint"
                        handle = lib.endpoint_rule_handle(*quotas)
                ops.append(
                    Op(kind, wrap(handle), profile, agent, preference, grid, quotas, expected)
                )
    return State(lib, ops)


def _plain(interval) -> Optional[list]:
    return None if interval is None else [interval.lo, interval.hi]


def run_op(state: State, op: Op) -> dict:
    result = state.lib.find_manipulation(op.handle, op.profile, op.agent, op.preference, op.grid)
    return {
        "found": result.found,
        "truthful": _plain(result.truthful_outcome),
        "misreport": _plain(result.misreport),
        "outcome": _plain(result.manipulated_outcome),
        "cost_drop": result.cost_drop,
    }


def check(state: State, op: Op, output: dict) -> Optional[Verdict]:
    lib = state.lib
    if tuple(output["truthful"]) != op.expected_truthful:
        return Verdict(f"truthful outcome {output['truthful']} != reference {list(op.expected_truthful)}")
    if op.quotas is not None:
        if output["found"]:
            return Verdict(f"order-statistic rule reported manipulable by {output['misreport']}")
        return None
    if not output["found"]:
        return None
    raw = [(iv.lo, iv.hi) for iv in op.profile]
    raw[op.agent] = tuple(output["misreport"])
    outcome = reference_mean(raw)
    if list(outcome) != output["outcome"]:
        return Verdict(f"manipulated outcome {output['outcome']} != reference {list(outcome)}")
    truthful = lib.Interval(*op.expected_truthful)
    drop = op.preference.cost(truthful) - op.preference.cost(lib.Interval(*outcome))
    if drop != output["cost_drop"] or not drop > lib.STRICT_IMPROVEMENT_EPS:
        return Verdict(f"cost drop {output['cost_drop']} not confirmed (recomputed {drop})")
    return None


def probe_inputs(state: State) -> ProbeInputs:
    searches = [
        Search(op.kind, op.handle, op.profile, op.agent, op.preference, op.grid)
        for op in state.ops
    ]
    return ProbeInputs(
        profiles=[op.profile for op in state.ops[:: max(1, len(state.ops) // 20)]],
        searches=searches,
    )


def close(state: State) -> None:
    pass
