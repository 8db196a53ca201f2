"""Benchmark entry point for intervalagg.

Usage, from the root of a checkout:

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: audit_battery, misreport_search, crowd_aggregate, cli_roundtrip
(see each module's docstring and ``bench/spec.json``).  Each runs closed
loop, one caller on one thread, against the checkout's ``src/``.

``--trace 0`` prints the end-to-end metrics (set-up time, throughput, p50
and p90 op time, peak RSS), the op count, the failed-op ratio and the
output digest.  ``--trace 1`` runs the same pool untraced and then traced,
probes every layer, and prints the per-layer metrics and the tracing
overhead; spans go to ``.bench_out/``.  The last line of standard output
is always one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import statistics
import sys

import harness
from layers import PER_LAYER, RULE_KINDS, run_probes, traffic_metrics
from tracing import Recorder, wrap_handle

WORKLOADS = ("audit_battery", "misreport_search", "crowd_aggregate", "cli_roundtrip")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _loop_lines(loop: harness.LoopResult) -> list:
    bad = loop.failed + loop.known_defects
    lines = [
        harness.report_line(
            "failed_op_ratio",
            bad / loop.attempted,
            "1",
            f"{loop.known_defects} known-defect + {loop.failed} unexpected "
            f"of {loop.attempted} ops",
        ),
        f"ops {loop.attempted} passes {loop.passes} digest {harness.digest(loop.first_pass)}",
    ]
    lines.extend(f"failure: {text}" for text in loop.failures)
    return lines


def run_untraced(workload, seed: int, seconds: float) -> tuple:
    state, setup_times, raw_setup = harness.setup(workload, ROOT, seed)
    try:
        loop = harness.timed_loop(workload, state, seconds)
    finally:
        workload.close(state)
    children = workload.NAME == "cli_roundtrip"
    metrics = harness.end_to_end(setup_times, loop, rss_children=children)
    raw = harness.end_to_end(raw_setup, loop, rss_children=children, raw=True)
    lines = [
        harness.report_line(k, v["value"], v["unit"], f"raw {raw[k]['value']!r}")
        for k, v in metrics.items()
    ]
    calibrations = loop.calibrations
    lines.append(
        f"calibration slices {len(calibrations)} median "
        f"{statistics.median(calibrations) / 1e6:.4f} ms (reference "
        f"{harness.REFERENCE_CALIBRATION_NS / 1e6:.4f} ms)"
    )
    lines += _loop_lines(loop)
    return loop.failed == 0, loop.attempted, loop.failed, metrics, lines


def run_traced(workload, seed: int, seconds: float) -> tuple:
    recorder = Recorder()
    plain, _, _ = harness.setup(workload, ROOT, seed)
    traced, _, _ = harness.setup(
        workload, ROOT, seed,
        wrap=lambda handle: wrap_handle(handle, recorder),
        recorder=recorder, repeats=1,
    )
    workdir = harness.scratch_dir(ROOT, "probe")
    try:
        untraced_loop = harness.timed_loop(workload, plain, seconds / 2)
        first = len(recorder)
        traced_loop = harness.timed_loop(workload, traced, seconds, recorder=recorder, max_passes=1)
        last = len(recorder)
        probes = run_probes(
            plain.lib, workload.probe_inputs(plain), recorder, seed, ROOT, workdir
        )
    finally:
        workload.close(plain)
        workload.close(traced)
        shutil.rmtree(workdir, ignore_errors=True)

    traffic = traffic_metrics(recorder, first, last)
    untraced_pass_ns = sum(untraced_loop.scaled_ns) / untraced_loop.passes
    overhead = sum(traced_loop.scaled_ns) / untraced_pass_ns - 1.0
    values = dict(probes)
    source = {name: "probe" for name in values}
    values["rules.evals_per_op"] = traffic["rules.evals_per_op"]
    values["rules.busy_share"] = traffic["rules.busy_share"]
    source["rules.evals_per_op"] = source["rules.busy_share"] = "traffic"
    for kind in RULE_KINDS:
        if kind in traffic["eval_us"]:
            values[f"rules.eval_us.{kind}"] = traffic["eval_us"][kind]
            source[f"rules.eval_us.{kind}"] = "traffic"
    values["trace.overhead_share"] = overhead
    source["trace.overhead_share"] = "traffic"

    metrics = {}
    lines = []
    for name, unit, _ in PER_LAYER:
        metrics[name] = {"value": values[name], "unit": unit}
        lines.append(harness.report_line(name, values[name], unit, source[name]))
    digests = (harness.digest(untraced_loop.first_pass), harness.digest(traced_loop.first_pass))
    lines.append(f"digest untraced {digests[0]} traced {digests[1]}")
    lines.append(
        "trace overhead: traced pass {:.4f} s vs untraced pass {:.4f} s ({:+.1%})".format(
            sum(traced_loop.scaled_ns) / 1e9, untraced_pass_ns / 1e9, overhead
        )
    )
    lines.extend(
        f"self_ms {name} {ms:.3f}" for name, ms in traffic["self_ms"].items()
    )
    for label, loop in (("untraced", untraced_loop), ("traced", traced_loop)):
        lines.extend(f"{label} {line}" for line in _loop_lines(loop))
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"spans-{workload.NAME}-{seed}.jsonl")
    recorder.write_jsonl(spans_path)
    lines.append(f"spans {len(recorder)} written to {os.path.relpath(spans_path, ROOT)}")
    failed = untraced_loop.failed + traced_loop.failed
    correct = failed == 0 and digests[0] == digests[1]
    attempted = untraced_loop.attempted + traced_loop.attempted
    return correct, attempted, failed, metrics, lines


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "intervalagg", "__init__.py")):
        print(f"error: no intervalagg sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    workload = importlib.import_module(args.workload)
    info = harness.machine_info()
    print(
        f"machine nproc={info['nproc']} cpu={info['cpu']!r} python={info['python']}",
        flush=True,
    )
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    runner = run_traced if args.trace else run_untraced
    correct, attempted, failed, metrics, lines = runner(workload, args.seed, args.seconds)
    try:
        os.rmdir(os.path.join(ROOT, ".bench_tmp"))
    except OSError:
        pass  # absent, or still used by another run
    for line in lines:
        print(line)
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
