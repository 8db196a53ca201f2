"""Workload ``audit_battery``: sampled axiom campaigns plus identification.

One op audits one rule on the default ten-axiom battery
(``audit(handle, AuditConfig(n, samples=SAMPLES, seed))``) and then runs
``identify_endpoint_rule`` on the same rule.  The pool holds, for each
n in 2..6, every admissible quota pair, the median rule, one phantom
handle for a seeded quota pair and the averaging foil: 70 ops.

Oracle: order-statistic and phantom campaigns have no failures and no
evaluation errors; the averaging campaign fails only a subset of
{WeakNeutrality, OutBetweenness, LowerProperty, UpperProperty} and each
stored witness fails again under ``replay_witness``; identification
returns the quotas of order-statistic rules and None for averaging.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from harness import Verdict
from layers import ProbeInputs

NAME = "audit_battery"
SAMPLES = 30
AGENT_COUNTS = range(2, 7)
AVERAGING_MAY_FAIL = frozenset(
    {"WeakNeutrality", "OutBetweenness", "LowerProperty", "UpperProperty"}
)


@dataclass(frozen=True)
class Op:
    kind: str
    handle: object
    config: object
    quotas: Optional[tuple]
    identify_seed: int


@dataclass
class State:
    lib: object
    ops: list


def build(lib, seed: int, root: str, wrap=None, recorder=None) -> State:
    rng = random.Random(f"{NAME}:{seed}")
    wrap = wrap or (lambda handle: handle)
    ops = []

    def add(kind, handle, n, quotas):
        config = lib.AuditConfig(n, samples=SAMPLES, seed=rng.randrange(2**31))
        ops.append(Op(kind, wrap(handle), config, quotas, rng.randrange(2**31)))

    for n in AGENT_COUNTS:
        for p, q in lib.valid_quota_pairs(n):
            add("endpoint", lib.endpoint_rule_handle(p, q), n, (p, q))
        mid = (n + 1) // 2
        add("median", lib.median_rule_handle(), n, (mid, mid))
        p, q = rng.choice(lib.valid_quota_pairs(n))
        add("phantoms", lib.phantom_rule_handle(lib.endpoint_rule_phantoms(p, q, n)), n, (p, q))
        add("averaging", lib.averaging_rule_handle(), n, None)
    return State(lib, ops)


def run_op(state: State, op: Op) -> dict:
    report = state.lib.audit(op.handle, op.config)
    quotas = state.lib.identify_endpoint_rule(
        op.handle, op.config.n_agents, seed=op.identify_seed
    )
    return {
        "report": report.to_json_dict(),
        "identify": list(quotas) if quotas is not None else None,
    }


def check(state: State, op: Op, output: dict) -> Optional[Verdict]:
    report = output["report"]
    if report["aborted"]:
        return Verdict(f"campaign aborted: {report['abort_reason']}")
    results = report["results"]
    if any(entry["eval_errors"] for entry in results.values()):
        return Verdict("evaluation errors in an in-process rule")
    if any(entry["samples"] != SAMPLES for entry in results.values()):
        return Verdict("an axiom ran the wrong number of samples")
    failing = {axiom for axiom, entry in results.items() if entry["failures"]}
    if op.quotas is not None:
        if failing:
            return Verdict(f"order-statistic rule failed {sorted(failing)}")
        if output["identify"] != list(op.quotas):
            return Verdict(f"identify gave {output['identify']}, expected {list(op.quotas)}")
        return None
    if not failing <= AVERAGING_MAY_FAIL:
        return Verdict(f"averaging failed unexpected axioms {sorted(failing - AVERAGING_MAY_FAIL)}")
    for axiom in failing:
        replay = state.lib.replay_witness(op.handle, results[axiom]["first_witness"])
        if replay.passed:
            return Verdict(f"{axiom} witness does not fail again on replay")
    if output["identify"] is not None:
        return Verdict(f"identify recognised averaging as {output['identify']}")
    return None


def probe_inputs(state: State) -> ProbeInputs:
    lib = state.lib
    profiles = []
    for op in state.ops:
        rng = random.Random(op.config.seed)
        profiles.append(lib.sample_profile(rng, op.config.n_agents))
    return ProbeInputs(
        profiles=profiles[:: max(1, len(profiles) // 20)],
        campaigns=[(op.handle, op.config) for op in state.ops],
        identifies=[(op.handle, op.config.n_agents, op.identify_seed) for op in state.ops],
    )


def close(state: State) -> None:
    pass
