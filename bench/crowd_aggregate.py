"""Workload ``crowd_aggregate``: large-profile rounds with one-agent revisions.

One op is one crowd round: build a ``Profile`` from raw float pairs,
evaluate the ``endpoint:p,q``, median, maximal and phantom handles, then
apply ``REVISIONS`` one-agent revisions, each a ``replace_agent`` followed
by re-evaluating all four handles.  Rounds run at n in {1001, 3001,
10001}; each pass holds ``ROUNDS_PER_PASS`` rounds of each size, so the
median op is a 3001-agent round and the slowest tenth are 10001-agent
rounds.  Quota pairs are drawn stratified over the quota range.  The averaging rule is left out: at n = 10001 it would hide the
order-statistic kernels, and the two campaign workloads measure it.

Oracle: every aggregate equals a reference computed here, outside the
timed region, by sorting the raw floats with the revisions applied.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from harness import Verdict
from layers import ProbeInputs

NAME = "crowd_aggregate"
ROUNDS_PER_PASS = {1001: 6, 3001: 8, 10001: 4}
REVISIONS = 3


@dataclass(frozen=True)
class Op:
    kind: str
    n: int
    raw: list
    handles: tuple
    revisions: tuple
    expected: list


@dataclass
class State:
    lib: object
    ops: list
    recorder: object


def _raw_interval(rng: random.Random) -> tuple:
    lo = rng.uniform(-100.0, 100.0)
    return (lo, lo + rng.uniform(0.01, 50.0))


def _quota_pair(rng: random.Random, n: int, stratum: int, strata: int) -> tuple:
    """An admissible pair with ``p`` in the given stratum of 1..n/2 and
    ``q`` in the mirrored one, so every pass covers the quota range evenly
    (sorting cost varies a little with the quotas of a phantom vector).
    Drawn directly: listing all admissible pairs at n = 10001 would take
    about 50 million tuples."""
    half = n // 2
    width = half // strata
    p = rng.randint(1 + stratum * width, (stratum + 1) * width)
    mirrored = strata - 1 - stratum
    q = rng.randint(1 + mirrored * width, (mirrored + 1) * width)
    return (p, q)


def _reference(raw: list, specs: tuple) -> list:
    n = len(raw)
    lows = sorted(lo for lo, _ in raw)
    highs = sorted(hi for _, hi in raw)
    out = []
    for p, q in specs:
        out.append([lows[p - 1], highs[n - q]])
    return out


def build(lib, seed: int, root: str, wrap=None, recorder=None) -> State:
    rng = random.Random(f"{NAME}:{seed}")
    wrap = wrap or (lambda handle: handle)
    ops = []
    for n, rounds in ROUNDS_PER_PASS.items():
        for stratum in range(rounds):
            raw = [_raw_interval(rng) for _ in range(n)]
            p, q = _quota_pair(rng, n, stratum, rounds)
            pp, pq = _quota_pair(rng, n, rounds - 1 - stratum, rounds)
            mid = (n + 1) // 2
            handles = (
                wrap(lib.endpoint_rule_handle(p, q)),
                wrap(lib.median_rule_handle()),
                wrap(lib.maximal_rule_handle()),
                wrap(lib.phantom_rule_handle(lib.endpoint_rule_phantoms(pp, pq, n))),
            )
            # Each handle as the order-statistic quota pair it must equal.
            specs = ((p, q), (mid, mid), (1, 1), (pp, pq))
            revisions = tuple(
                (rng.randrange(n), _raw_interval(rng)) for _ in range(REVISIONS)
            )
            current = list(raw)
            expected = _reference(current, specs)
            for agent, pair in revisions:
                current[agent] = pair
                expected.extend(_reference(current, specs))
            ops.append(Op(f"round_{n}", n, raw, handles, revisions, expected))
    return State(lib, ops, recorder)


def run_op(state: State, op: Op) -> list:
    lib = state.lib
    recorder = state.recorder
    interval = lib.Interval
    if recorder is not None:
        span = recorder.begin("core.profile_build")
    profile = lib.Profile(interval(lo, hi) for lo, hi in op.raw)
    if recorder is not None:
        recorder.finish(span)
    out = []
    for handle in op.handles:
        result = handle(profile)
        out.append([result.lo, result.hi])
    for agent, (lo, hi) in op.revisions:
        if recorder is not None:
            span = recorder.begin("core.replace_agent")
        profile = profile.replace_agent(agent, interval(lo, hi))
        if recorder is not None:
            recorder.finish(span)
        for handle in op.handles:
            result = handle(profile)
            out.append([result.lo, result.hi])
    return out


def check(state: State, op: Op, output: list) -> Optional[Verdict]:
    if output != op.expected:
        for position, (got, want) in enumerate(zip(output, op.expected)):
            if got != want:
                return Verdict(f"aggregate {position} is {got}, reference {want}")
        return Verdict(f"{len(output)} aggregates, expected {len(op.expected)}")
    return None


def probe_inputs(state: State) -> ProbeInputs:
    lib = state.lib
    seen = set()
    profiles = []
    for op in state.ops:
        if op.n not in seen:
            seen.add(op.n)
            profiles.append(lib.Profile(lib.Interval(lo, hi) for lo, hi in op.raw))
    return ProbeInputs(profiles=profiles)


def close(state: State) -> None:
    pass
