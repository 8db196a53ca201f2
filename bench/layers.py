"""Per-layer probes for the traced run.

Each probe times direct calls into one module's public functions, on the
inputs of the workload being traced (its profiles, searches, campaigns
and CLI arguments), and records every call as a span.  Rule evaluations
go through handles the probe wraps itself, so their counts and times are
exact.  Every traced run measures every layer: a layer the workload's ops
never reach is probed on that workload's inputs, and the run says so.

``PER_LAYER`` is the single list of per-layer metric names, units and
directions; ``BENCHMARK.json`` repeats it and the self-tests compare them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import random
import shlex
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Optional

from tracing import Recorder, self_times, wrap_handle

AXIOMS = (
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
RULE_KINDS = ("endpoint", "median", "maximal", "phantoms", "averaging")
CLI_COMMANDS = ("aggregate", "sweep", "audit", "manipulate", "identify")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
EXTERN_SCRIPT = os.path.join(BENCH_DIR, "extern_rule.py")

# Largest profiles the preference and CLI probes use: the misreport grid
# grows with the square of the profile's distinct endpoints, and a sweep
# with the square of n.
SEARCH_AGENTS = 7
CLI_AGENTS = 101
PROBE_AUDIT_SAMPLES = 20

PER_LAYER = (
    [
        ("core.profile_build_us_per_agent", "us", "lower"),
        ("core.replace_agent_us", "us", "lower"),
        ("rules.evals_per_op", "count", "lower"),
    ]
    + [(f"rules.eval_us.{kind}", "us", "lower") for kind in RULE_KINDS]
    + [
        ("rules.busy_share", "ratio", "lower"),
        ("transforms.map_build_us", "us", "lower"),
        ("transforms.apply_profile_us", "us", "lower"),
        ("preferences.candidates_per_search", "count", "lower"),
        ("preferences.candidate_gen_us", "us", "lower"),
        ("preferences.search_self_share", "ratio", "lower"),
        ("preferences.distinct_outcome_ratio", "ratio", "higher"),
        ("preferences.found_ratio.endpoint", "ratio", "lower"),
        ("preferences.found_ratio.averaging", "ratio", "higher"),
    ]
    + [(f"audit.us_per_sample.{axiom}", "us", "lower") for axiom in AXIOMS]
    + [(f"audit.evals_per_sample.{axiom}", "count", "lower") for axiom in AXIOMS]
    + [
        ("audit.unique_eval_ratio", "ratio", "higher"),
        ("audit.sample_profile_us", "us", "lower"),
        ("audit.identify_ms", "ms", "lower"),
        ("audit.eval_errors", "count", "lower"),
        ("cli.python_start_ms", "ms", "lower"),
        ("cli.import_ms", "ms", "lower"),
    ]
    + [(f"cli.main_inprocess_ms.{command}", "ms", "lower") for command in CLI_COMMANDS]
    + [
        ("cli.extern_eval_ms", "ms", "lower"),
        ("cli.extern_child_ms", "ms", "lower"),
        ("cli.json_load_us", "us", "lower"),
        ("trace.overhead_share", "ratio", "lower"),
    ]
)


@dataclass(frozen=True)
class Search:
    kind: str
    handle: object
    profile: object
    agent: int
    preference: object
    grid: object


@dataclass
class ProbeInputs:
    """What the probes run on.  Unset fields are derived from ``profiles``."""

    profiles: list
    searches: Optional[list] = None
    campaigns: Optional[list] = None  # (handle, AuditConfig)
    identifies: Optional[list] = None  # (handle, n_agents, seed)
    cli_cases: Optional[dict] = None  # command -> argv for cli.main


def extern_command(mode: str) -> str:
    """``extern:`` command line for the benchmark's own rule script."""
    return f"{shlex.quote(sys.executable)} {shlex.quote(EXTERN_SCRIPT)} {mode}"


def _median_ns(fn, repeats: int = 3) -> float:
    samples = []
    for _ in range(repeats):
        begin = perf_counter_ns()
        fn()
        samples.append(perf_counter_ns() - begin)
    return statistics.median(samples)


def _spanned(recorder: Recorder, name: str, fn):
    index = recorder.begin(name)
    try:
        return fn()
    finally:
        recorder.finish(index)


def _truncate(lib, profile, size: int):
    return lib.Profile(profile[:size])


def _core(lib, inputs: ProbeInputs, recorder: Recorder) -> dict:
    build_ns = 0
    agents = 0
    replace = []
    for profile in inputs.profiles:
        raw = [(iv.lo, iv.hi) for iv in profile]
        interval = lib.Interval
        build_ns += _median_ns(
            lambda: _spanned(
                recorder,
                "core.profile_build",
                lambda: lib.Profile(interval(lo, hi) for lo, hi in raw),
            )
        )
        agents += len(raw)
        middle = len(profile) // 2
        replace.append(
            _median_ns(
                lambda: _spanned(
                    recorder,
                    "core.replace_agent",
                    lambda: profile.replace_agent(middle, profile[0]),
                )
            )
        )
    return {
        "core.profile_build_us_per_agent": build_ns / agents / 1e3,
        "core.replace_agent_us": statistics.median(replace) / 1e3,
    }


def _rules(lib, inputs: ProbeInputs, recorder: Recorder) -> dict:
    """p50 time of one evaluation of each rule kind on the probe profiles."""
    per_kind: dict = {kind: [] for kind in RULE_KINDS}
    for profile in inputs.profiles:
        n = len(profile)
        handles = {
            "endpoint": lib.endpoint_rule_handle(1, 1),
            "median": lib.median_rule_handle(),
            "maximal": lib.maximal_rule_handle(),
            "phantoms": lib.phantom_rule_handle(lib.endpoint_rule_phantoms(1, 1, n)),
            "averaging": lib.averaging_rule_handle(),
        }
        for kind, handle in handles.items():
            wrapped = wrap_handle(handle, recorder)
            for _ in range(3):
                first = len(recorder)
                wrapped(profile)
                per_kind[kind].append(recorder.duration(first))
    return {
        f"rules.eval_us.{kind}": statistics.median(times) / 1e3
        for kind, times in per_kind.items()
    }


def _transforms(lib, inputs: ProbeInputs, recorder: Recorder, seed: int) -> dict:
    build = []
    apply = []
    median = lib.median_rule_handle()
    for index, profile in enumerate(inputs.profiles):
        output = median(profile)
        anchors = [v for iv in profile for v in (iv.lo, iv.hi)] + [output.lo, output.hi]
        map_seed = seed * 1_000_003 + index
        build.append(
            _median_ns(
                lambda: _spanned(
                    recorder,
                    "transforms.random_increasing_map",
                    lambda: lib.random_increasing_map(map_seed, anchors),
                )
            )
        )
        mapping = lib.random_increasing_map(map_seed, anchors)
        apply.append(
            _median_ns(
                lambda: _spanned(
                    recorder,
                    "transforms.apply_map_profile",
                    lambda: lib.apply_map_profile(mapping, profile),
                )
            )
        )
    return {
        "transforms.map_build_us": statistics.median(build) / 1e3,
        "transforms.apply_profile_us": statistics.median(apply) / 1e3,
    }


def default_searches(lib, profiles: list, seed: int) -> list:
    rng = random.Random(f"searches:{seed}")
    searches = []
    for profile in profiles:
        small = _truncate(lib, profile, SEARCH_AGENTS)
        agent = rng.randrange(len(small))
        preference = lib.WeightedL1Preference(small[agent])
        grid = lib.GridConfig(seed=rng.randrange(2**31))
        for kind, handle in (
            ("endpoint", lib.endpoint_rule_handle(1, 1)),
            ("averaging", lib.averaging_rule_handle()),
        ):
            searches.append(Search(kind, handle, small, agent, preference, grid))
    return searches


def _preferences(lib, searches: list, recorder: Recorder) -> dict:
    counts = []
    gen = []
    search_ns = 0
    residual_ns = 0
    outcomes = 0
    distinct = 0
    found = {"endpoint": [], "averaging": []}
    for search in searches:
        first = len(recorder)
        candidates = _spanned(
            recorder,
            "preferences.candidate_misreports",
            lambda: lib.candidate_misreports(search.profile, search.grid),
        )
        gen_ns = recorder.duration(first)
        counts.append(len(candidates))
        gen.append(gen_ns)
        wrapped = wrap_handle(search.handle, recorder)
        top = len(recorder)
        result = _spanned(
            recorder,
            "preferences.find_manipulation",
            lambda: lib.find_manipulation(
                wrapped, search.profile, search.agent, search.preference, search.grid
            ),
        )
        evals = recorder.select("rules.eval.", top + 1)
        duration = recorder.duration(top)
        covered = sum(recorder.duration(i) for i in evals)
        search_ns += duration
        residual_ns += duration - covered - gen_ns
        # The first evaluation is the truthful outcome; the rest are candidates.
        keys = [recorder.eval_keys[i][1] for i in evals[1:]]
        outcomes += len(keys)
        distinct += len(set(keys))
        group = "averaging" if search.kind == "averaging" else "endpoint"
        found[group].append(1.0 if result.found else 0.0)
    return {
        "preferences.candidates_per_search": statistics.fmean(counts),
        "preferences.candidate_gen_us": statistics.median(gen) / 1e3,
        "preferences.search_self_share": residual_ns / search_ns,
        "preferences.distinct_outcome_ratio": distinct / outcomes,
        "preferences.found_ratio.endpoint": statistics.fmean(found["endpoint"] or [0.0]),
        "preferences.found_ratio.averaging": statistics.fmean(found["averaging"] or [0.0]),
    }


def _audit(lib, inputs: ProbeInputs, recorder: Recorder) -> dict:
    """Re-run each campaign one axiom at a time with a wrapped handle.

    Sample seeds depend only on (seed, axiom, index), so the instances are
    the ones the full campaign checks.
    """
    spent = {axiom: 0 for axiom in AXIOMS}
    samples = {axiom: 0 for axiom in AXIOMS}
    evals = {axiom: 0 for axiom in AXIOMS}
    unique = 0
    errors = 0
    sampling = []
    for handle, config in inputs.campaigns:
        wrapped = wrap_handle(handle, recorder)
        for axiom in config.axioms:
            one = dataclasses.replace(config, axioms=(axiom,))
            top = len(recorder)
            report = _spanned(recorder, f"audit.axiom.{axiom}", lambda: lib.audit(wrapped, one))
            spans = recorder.select("rules.eval.", top + 1)
            spent[axiom] += recorder.duration(top)
            samples[axiom] += report.tallies[axiom].samples
            errors += report.tallies[axiom].eval_errors
            evals[axiom] += len(spans)
            unique += len({recorder.eval_keys[i][0] for i in spans if i in recorder.eval_keys})
        sampling.append(
            _median_ns(
                lambda: _spanned(
                    recorder,
                    "audit.sample_profile",
                    lambda: lib.sample_profile(random.Random(config.seed), config.n_agents),
                )
            )
        )
    identify = []
    for handle, n, seed in inputs.identifies:
        top = len(recorder)
        _spanned(
            recorder,
            "audit.identify_endpoint_rule",
            lambda: lib.identify_endpoint_rule(handle, n, seed=seed),
        )
        identify.append(recorder.duration(top))
    metrics = {}
    for axiom in AXIOMS:
        metrics[f"audit.us_per_sample.{axiom}"] = spent[axiom] / samples[axiom] / 1e3
        metrics[f"audit.evals_per_sample.{axiom}"] = evals[axiom] / samples[axiom]
    metrics["audit.unique_eval_ratio"] = unique / sum(evals.values())
    metrics["audit.sample_profile_us"] = statistics.median(sampling) / 1e3
    metrics["audit.identify_ms"] = statistics.median(identify) / 1e6
    metrics["audit.eval_errors"] = errors
    return metrics


def _run_child(argv: list, env: Optional[dict], stdin: bytes = b"") -> float:
    # Pipes and the environment match what the extern adapter uses.
    begin = perf_counter_ns()
    subprocess.run(
        argv, input=stdin, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, check=True, timeout=60,
    )
    return perf_counter_ns() - begin


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def default_cli_cases(lib, profile, workdir: str, seed: int) -> dict:
    path = os.path.join(workdir, "probe_profile.json")
    small_path = os.path.join(workdir, "probe_small.json")
    write_profile(lib, _truncate(lib, profile, CLI_AGENTS), path)
    small = _truncate(lib, profile, SEARCH_AGENTS)
    write_profile(lib, small, small_path)
    n = str(len(small))
    return {
        "aggregate": ["aggregate", "--rule", "median", "--profile", path],
        "sweep": ["sweep", "--profile", path, "--out", os.path.join(workdir, "probe.csv")],
        "audit": [
            "audit", "--rule", "median", "--n", n, "--samples", str(PROBE_AUDIT_SAMPLES),
            "--seed", str(seed), "--out", os.path.join(workdir, "probe_audit.json"),
        ],
        "manipulate": ["manipulate", "--rule", "median", "--profile", small_path, "--agent", "1"],
        "identify": ["identify", "--rule", "median", "--n", n, "--seed", str(seed)],
    }


def write_profile(lib, profile, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(lib.cli.profile_to_document(profile), handle)


def _cli(lib, inputs: ProbeInputs, recorder: Recorder, root: str, workdir: str) -> dict:
    env = child_env(root)
    start = []
    extra = []
    # Bare start and start-plus-import alternate, so both see the same
    # machine state; the import cost is the median of the differences.
    for _ in range(7):
        bare = _run_child([sys.executable, "-c", "pass"], env)
        start.append(bare)
        extra.append(_run_child([sys.executable, "-c", "import intervalagg.cli"], env) - bare)
    metrics = {
        "cli.python_start_ms": statistics.median(start) / 1e6,
        "cli.import_ms": statistics.median(extra) / 1e6,
    }
    for command in CLI_COMMANDS:
        argv = inputs.cli_cases[command]

        def call():
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                lib.cli.main(argv)

        metrics[f"cli.main_inprocess_ms.{command}"] = (
            _median_ns(lambda: _spanned(recorder, f"cli.main.{command}", call)) / 1e6
        )
    profile_path = inputs.cli_cases["aggregate"][inputs.cli_cases["aggregate"].index("--profile") + 1]
    profile = lib.cli.load_profile_document(profile_path)
    adapter = lib.cli.extern_rule_adapter(extern_command("union"))
    metrics["cli.extern_eval_ms"] = (
        _median_ns(lambda: _spanned(recorder, "cli.extern_eval", lambda: adapter(profile))) / 1e6
    )
    payload = json.dumps(lib.cli.profile_to_document(profile)).encode("utf-8")
    child = [sys.executable, EXTERN_SCRIPT, "union"]
    metrics["cli.extern_child_ms"] = statistics.median(
        _run_child(child, None, payload) for _ in range(3)
    ) / 1e6
    metrics["cli.json_load_us"] = (
        _median_ns(
            lambda: _spanned(
                recorder, "cli.load_profile_document",
                lambda: lib.cli.load_profile_document(profile_path),
            ),
            repeats=5,
        )
        / 1e3
    )
    return metrics


def run_probes(lib, inputs: ProbeInputs, recorder: Recorder, seed: int, root: str, workdir: str) -> dict:
    """Every probe metric for one workload's inputs."""
    profiles = inputs.profiles
    if inputs.searches is None:
        inputs.searches = default_searches(lib, profiles, seed)
    if inputs.campaigns is None:
        n = min(len(p) for p in profiles)
        config = lib.AuditConfig(n, samples=PROBE_AUDIT_SAMPLES, seed=seed)
        inputs.campaigns = [(lib.median_rule_handle(), config)]
    if inputs.identifies is None:
        inputs.identifies = [(lib.median_rule_handle(), min(len(p) for p in profiles), seed)]
    if inputs.cli_cases is None:
        inputs.cli_cases = default_cli_cases(lib, profiles[0], workdir, seed)
    metrics = {}
    metrics.update(_core(lib, inputs, recorder))
    metrics.update(_rules(lib, inputs, recorder))
    metrics.update(_transforms(lib, inputs, recorder, seed))
    metrics.update(_preferences(lib, inputs.searches, recorder))
    metrics.update(_audit(lib, inputs, recorder))
    metrics.update(_cli(lib, inputs, recorder, root, workdir))
    return metrics


def traffic_metrics(recorder: Recorder, first: int, last: int) -> dict:
    """Figures from the traced pass of the workload's own ops.

    ``first``/``last`` bound the spans of that pass.  Returns the rule
    evaluation count per op, the share of op time spent inside rule
    evaluations, the p50 evaluation time per rule kind seen, and the self
    time of each span name.
    """
    ops = [i for i in recorder.select("op.", first, last) if recorder.op[i] >= 0]
    evals = [i for i in recorder.select("rules.eval.", first, last) if recorder.op[i] >= 0]
    op_ns = sum(recorder.duration(i) for i in ops)
    eval_ns = sum(recorder.duration(i) for i in evals)
    per_kind: dict = {}
    for i in evals:
        per_kind.setdefault(recorder.names[i][len("rules.eval."):], []).append(recorder.duration(i))
    own = self_times(
        recorder.start[first:last],
        recorder.end[first:last],
        [p - first if p >= first else -1 for p in recorder.parent[first:last]],
    )
    self_by_name: dict = {}
    for offset, ns in enumerate(own):
        name = recorder.names[first + offset]
        self_by_name[name] = self_by_name.get(name, 0) + ns
    return {
        "rules.evals_per_op": len(evals) / len(ops),
        "rules.busy_share": eval_ns / op_ns,
        "eval_us": {kind: statistics.median(v) / 1e3 for kind, v in per_kind.items()},
        "self_ms": {name: ns / 1e6 for name, ns in sorted(self_by_name.items())},
    }
