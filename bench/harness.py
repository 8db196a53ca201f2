"""Closed-loop timing, per-op oracles, digests and result formatting.

A workload module exposes:

* ``build(lib, seed, root, wrap, recorder) -> state``: everything before
  the first timed op.  ``wrap`` is applied to every rule handle the
  workload builds; ``recorder``, when given, receives spans from inside
  an op.  ``state.ops`` is the fixed, seeded op pool; expected results
  for the oracles are computed here, outside the timed region.
* ``run_op(state, op) -> output``: one timed op; the output is JSON-plain.
* ``check(state, op, output) -> Verdict | None``: the oracle; ``None``
  means the op is correct.
* ``probe_inputs(state)``: the inputs the traced run's layer probes use.
* ``close(state)``: releases files the state made.

Ops run one at a time on one thread.  A run covers whole passes over the
pool, so every run has the same op mix and a pass digest that depends on
the seed alone.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns
from typing import Optional

MIN_TIMED_OPS = 100
SETUP_REPEATS = 5
# The host's speed drifts by up to 2-3x over seconds to minutes.  Between
# ops the loop times a fixed slice of interpreter work; each op's time is
# scaled by the slices just before and after it to what it would take on
# a machine where that slice takes REFERENCE_CALIBRATION_NS.  Raw times
# are reported next to the scaled ones.
CALIBRATION_EVERY_NS = 20_000_000
REFERENCE_CALIBRATION_NS = 1_400_000


@dataclass(frozen=True)
class Verdict:
    """A failed oracle.  ``known_defect`` marks a failure that matches an
    open, documented defect exactly; it is reported, never dropped."""

    reason: str
    known_defect: bool = False


_CALIBRATION_DATA = [((i * 7919) % 10007) * 0.5 for i in range(4000)]


def _calibration_work() -> float:
    # The same kinds of work the library does: tuple allocation, sorting a
    # list of floats too large for the first-level caches, small sorts and
    # dict updates in interpreted loops.
    pairs = [(x, x + 1.0) for x in _CALIBRATION_DATA]
    lows = sorted(pair[1] for pair in pairs)
    acc = lows[len(lows) // 2]
    table = {}
    for i in range(150):
        row = sorted(((i * 7919 + k * 104729) % 97) * 0.5 for k in range(6))
        table[i & 63] = (row[0], row[-1])
        acc += row[2] / (1.0 + (i & 7))
    return acc + len(table)


def calibration_ns() -> int:
    """Time one fixed slice of interpreter work (about 1.4 ms on a 2-core
    Xeon); it does not touch the library, so no change to the program
    under test can move it."""
    begin = perf_counter_ns()
    _calibration_work()
    return perf_counter_ns() - begin


def scaled(times_ns: list, marks: list, calibrations: list) -> list:
    """Op times at reference speed: ``marks[i]`` is the calibration taken
    just before op ``i``; the one after it is ``marks[i] + 1``."""
    return [
        t * 2 * REFERENCE_CALIBRATION_NS / (calibrations[m] + calibrations[m + 1])
        for t, m in zip(times_ns, marks)
    ]


@dataclass
class LoopResult:
    times_ns: list = field(default_factory=list)
    scaled_ns: list = field(default_factory=list)
    calibrations: list = field(default_factory=list)
    passes: int = 0
    failed: int = 0
    known_defects: int = 0
    failures: list = field(default_factory=list)
    first_pass: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.times_ns)


def fresh_import(root: str):
    """Import ``intervalagg`` (and its CLI module) from ``root/src`` anew.

    Earlier copies are dropped from ``sys.modules`` first, so the import
    cost is part of every set-up repetition.
    """
    src = os.path.join(root, "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == "intervalagg" or m.startswith("intervalagg.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    lib = importlib.import_module("intervalagg")
    importlib.import_module("intervalagg.cli")
    return lib


def scratch_dir(root: str, prefix: str) -> str:
    """A new directory for files a run writes, inside the checkout."""
    base = os.path.join(root, ".bench_tmp")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix + "-", dir=base)


def canonical(output) -> str:
    return json.dumps(output, sort_keys=True, separators=(",", ":"), allow_nan=True)


def digest(first_pass: list) -> str:
    payload = "\n".join(first_pass).encode("utf-8")
    return "sha256:" + hashlib.sha256(payload).hexdigest()


def setup(
    workload, root: str, seed: int, wrap=None, recorder=None, repeats: int = SETUP_REPEATS
):
    """Build the workload ``repeats`` times; return the last state, the
    set-up times at reference speed and the raw ones.  Each repetition
    imports, generates inputs, computes the oracle's expectations and warms
    up on the pool's first op."""
    times = []
    raw = []
    state = None
    for _ in range(repeats):
        if state is not None:
            workload.close(state)
        before = calibration_ns()
        begin = perf_counter()
        lib = fresh_import(root)
        state = workload.build(lib, seed, root, wrap, recorder)
        workload.run_op(state, state.ops[0])
        elapsed = perf_counter() - begin
        raw.append(elapsed)
        times.append(elapsed * 2 * REFERENCE_CALIBRATION_NS / (before + calibration_ns()))
    gc.collect()
    gc.freeze()
    return state, times, raw


def timed_loop(
    workload,
    state,
    seconds: float,
    recorder=None,
    max_passes: Optional[int] = None,
) -> LoopResult:
    """Run whole passes over the pool until ``seconds`` of op time and at
    least ``MIN_TIMED_OPS`` ops are done (or ``max_passes`` passes).

    Every op is checked: on the first pass by the workload's oracle, on
    later passes by equality with the first pass's output, so a result
    that changes between repetitions counts as a failure.

    As in ``timeit``, the cyclic garbage collector is off while a pass runs
    and collects between passes: which op happens to trigger a full
    collection depends on the seed, and would move p90 from seed to seed.
    """
    result = LoopResult()
    verdicts: list = []
    budget_ns = seconds * 1e9
    spent_ns = 0
    since_calibration = 0
    marks = []
    calibrations = result.calibrations
    calibrations.append(calibration_ns())
    ops = state.ops
    while True:
        gc.collect()
        gc.disable()
        try:
            for index, op in enumerate(ops):
                marks.append(len(calibrations) - 1)
                if recorder is not None:
                    recorder.op_id = result.attempted
                    span = recorder.begin("op." + op.kind)
                begin = perf_counter_ns()
                try:
                    output = workload.run_op(state, op)
                    error = None
                except Exception as exc:  # an op that raises is a failed op
                    output = None
                    error = f"{type(exc).__name__}: {exc}"
                elapsed = perf_counter_ns() - begin
                if recorder is not None:
                    recorder.finish(span)
                    recorder.op_id = -1
                result.times_ns.append(elapsed)
                spent_ns += elapsed
                since_calibration += elapsed
                text = canonical(output) if error is None else "error: " + error
                if result.passes == 0:
                    result.first_pass.append(text)
                    verdict = Verdict(error) if error else workload.check(state, op, output)
                    verdicts.append(verdict)
                elif text != result.first_pass[index]:
                    verdict = Verdict("output differs from the first pass")
                else:
                    verdict = verdicts[index]
                if verdict is not None:
                    if verdict.known_defect:
                        result.known_defects += 1
                    else:
                        result.failed += 1
                    if len(result.failures) < 5 and result.passes == 0:
                        result.failures.append(f"{op.kind}: {verdict.reason}")
                if since_calibration >= CALIBRATION_EVERY_NS:
                    calibrations.append(calibration_ns())
                    since_calibration = 0
        finally:
            gc.enable()
        result.passes += 1
        if (max_passes is not None and result.passes >= max_passes) or (
            spent_ns >= budget_ns and result.attempted >= MIN_TIMED_OPS
        ):
            if since_calibration:
                calibrations.append(calibration_ns())
            result.scaled_ns = scaled(result.times_ns, marks, calibrations)
            return result


def end_to_end(setup_times: list, loop: LoopResult, rss_children: bool, raw: bool = False) -> dict:
    """The five end-to-end metrics; op times at reference speed unless ``raw``."""
    times_ns = loop.times_ns if raw else loop.scaled_ns
    times_ms = [t / 1e6 for t in times_ns]
    usage = resource.getrusage(
        resource.RUSAGE_CHILDREN if rss_children else resource.RUSAGE_SELF
    )
    return {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "ops_per_s": {
            "value": loop.attempted / (sum(times_ns) / 1e9),
            "unit": "ops/s",
        },
        "op_p50_ms": {"value": statistics.median(times_ms), "unit": "ms"},
        "op_p90_ms": {
            "value": statistics.quantiles(times_ms, n=10, method="inclusive")[8],
            "unit": "ms",
        },
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": {"value": usage.ru_maxrss / 1024.0, "unit": "MB"},
    }


def machine_info() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
    }


def report_line(name: str, value, unit: str, note: str = "") -> str:
    text = f"{name} {value!r} {unit}"
    return f"{text}  # {note}" if note else text
