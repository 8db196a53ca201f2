"""Self-tests for the benchmark.  Run from the checkout root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import importlib
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import harness
import run
from layers import PER_LAYER
from tracing import Recorder, self_times, wrap_handle

ROOT = run.ROOT
IN_PROCESS = ("audit_battery", "misreport_search", "crowd_aggregate")


def _one_pass(name: str, seed: int = 7, wrap=None, recorder=None):
    workload = importlib.import_module(name)
    state, _, _ = harness.setup(workload, ROOT, seed, wrap=wrap, recorder=recorder, repeats=1)
    try:
        return state, harness.timed_loop(workload, state, 0, recorder=recorder, max_passes=1)
    finally:
        workload.close(state)


def _nudged(handle):
    """An endpoint rule whose lower endpoint is one ulp too high."""
    evaluate = handle.evaluate

    def wrong(profile):
        out = evaluate(profile)
        return type(out)(math.nextafter(out.lo, math.inf), out.hi)

    return type(handle)(handle.name, wrong)


@pytest.mark.parametrize("name", IN_PROCESS)
def test_wrong_handle_raises_failed_ratio(name):
    _, loop = _one_pass(name, wrap=_nudged)
    assert loop.failed > 0
    assert loop.failed / loop.attempted > 0


@pytest.mark.parametrize("name", IN_PROCESS)
def test_traced_and_untraced_digests_match(name):
    _, plain = _one_pass(name)
    recorder = Recorder()
    _, traced = _one_pass(
        name, wrap=lambda handle: wrap_handle(handle, recorder), recorder=recorder
    )
    assert plain.failed == traced.failed == 0
    assert len(recorder.select("rules.eval.")) > 0
    assert harness.digest(plain.first_pass) == harness.digest(traced.first_pass)


def test_digest_depends_on_seed_only():
    _, first = _one_pass("crowd_aggregate", seed=3)
    _, again = _one_pass("crowd_aggregate", seed=3)
    _, other = _one_pass("crowd_aggregate", seed=4)
    assert harness.digest(first.first_pass) == harness.digest(again.first_pass)
    assert harness.digest(first.first_pass) != harness.digest(other.first_pass)


def test_self_time_on_synthetic_tree():
    # 0: [0, 100] root; 1: [10, 40] and 2: [30, 60] overlap inside it;
    # 3: [15, 20] is a grandchild inside 1; 4: [90, 120] sticks out of 0.
    start = [0, 10, 30, 15, 90]
    end = [100, 40, 60, 20, 120]
    parent = [-1, 0, 0, 1, 0]
    # Root: covered [10, 60] and [90, 100] -> 60 of 100.
    assert self_times(start, end, parent) == [40, 25, 30, 5, 30]


def test_recorder_nesting_and_self_time():
    recorder = Recorder()
    outer = recorder.begin("op.x")
    inner = recorder.begin("rules.eval.endpoint")
    recorder.finish(inner)
    recorder.finish(outer)
    assert recorder.parent == [-1, 0]
    own = self_times(recorder.start, recorder.end, recorder.parent)
    assert own[0] == recorder.duration(outer) - recorder.duration(inner)
    with pytest.raises(RuntimeError):
        recorder.begin("a")
        recorder.begin("b")
        recorder.finish(0)


def test_cli_known_defects_are_reported_not_dropped():
    state, loop = _one_pass("cli_roundtrip")
    defects = [op for op in state.ops if op.defect is not None]
    assert len(defects) == 2
    assert loop.failed == 0
    assert loop.known_defects == 2
    assert loop.attempted == len(state.ops)
    line = run._loop_lines(loop)[0]
    assert line.startswith(f"failed_op_ratio {2 / len(state.ops)!r}")
    assert sum("known defect" in text for text in loop.failures) == 2


def test_cli_defect_fixed_behaviour_passes():
    workload = importlib.import_module("cli_roundtrip")
    op = workload.Op("defect", (), (), None, frozenset({2}), (1, "OverflowError"))
    fixed = {"exit": 2, "stdout": "", "stderr": "error: bound too large\n", "files": {}}
    assert workload.check(None, op, fixed) is None
    broken = dict(fixed, exit=1, stderr="Traceback ...\nOverflowError: x\n")
    assert workload.check(None, op, broken).known_defect


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(entry) for entry in PER_LAYER
    ]
    loop = harness.LoopResult(times_ns=[1, 2, 3], scaled_ns=[1, 2, 3])
    metrics = harness.end_to_end([0.5], loop, rss_children=False)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: value["unit"] for name, value in metrics.items()
    }
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "bench"), tmp_path / "bench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "crowd_aggregate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
