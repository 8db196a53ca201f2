"""Workload ``cli_roundtrip``: one ``python -m intervalagg`` process per op.

Children run one at a time with ``PYTHONPATH`` set to the checkout's
``src``; an ``extern:`` op adds that child's own rule grandchildren.  A
pass holds, twice over with fresh seeded inputs: ``aggregate`` with each
built-in selector including ``phantoms:<file>``, ``sweep`` on a profile of
about 100 agents (about 5k quota pairs), a small ``audit``, ``manipulate``
against an order-statistic rule and against averaging, and ``identify``
on both.  Once per pass it adds three ``extern:`` aggregates (about a tenth),
two contract ops (a garbage extern reply must exit 2, infeasible quotas
must exit 3) and the two known defects of the exit-code contract: an
oversized integer in a profile must exit 2 without a traceback, and a
near-float-max profile passed to ``manipulate`` must not exit 3.

Oracle: the exit code is the expected one, stderr holds no traceback, and
stdout and any CSV or report file equal what ``intervalagg.cli.main``
gives in-process on the same arguments, computed during set-up.  A
known-defect op that fails in exactly the documented way is counted as a
known defect, apart from unexpected failures.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass
from typing import Optional

from harness import Verdict, scratch_dir
from layers import BENCH_DIR, ProbeInputs, child_env, extern_command, write_profile

NAME = "cli_roundtrip"
CHILD_TIMEOUT_S = 60


@dataclass(frozen=True)
class Expected:
    exit: int
    stdout: str
    files: dict


@dataclass(frozen=True)
class Op:
    kind: str
    argv: tuple
    outputs: tuple  # files the command writes
    expected: Optional[Expected]  # in-process result; None for known-defect ops
    allowed_exits: Optional[frozenset] = None  # exit-code contract
    defect: Optional[tuple] = None  # (exit code, stderr text) of the known defect


@dataclass
class State:
    lib: object
    ops: list
    workdir: str
    env: dict


def _normalise(text: str, workdir: str) -> str:
    return (
        text.replace(workdir, "<tmp>")
        .replace(BENCH_DIR, "<bench>")
        .replace(sys.executable, "<python>")
    )


def _inprocess(lib, argv: list, workdir: str, outputs: tuple) -> Expected:
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.main(list(argv))
    files = {}
    for path in outputs:
        with open(path, encoding="utf-8") as handle:
            files[os.path.basename(path)] = _normalise(handle.read(), workdir)
        os.remove(path)
    return Expected(code, _normalise(out.getvalue(), workdir), files)


def _phantom_document(vector) -> dict:
    def bound(value):
        return "inf" if value == float("inf") else "-inf" if value == float("-inf") else value

    return {"phantoms": [{"lo": bound(ph.lo), "hi": bound(ph.hi)} for ph in vector]}


def build(lib, seed: int, root: str, wrap=None, recorder=None) -> State:
    rng = random.Random(f"{NAME}:{seed}")
    workdir = scratch_dir(root, NAME)
    ops = []
    counter = itertools.count()

    def path(suffix: str) -> str:
        return os.path.join(workdir, f"f{next(counter)}{suffix}")

    def profile_file(n: int) -> tuple:
        profile = lib.Profile(
            lib.Interval(*sorted(rng.sample(range(-200, 201), 2))) for _ in range(n)
        )
        name = path(".json")
        write_profile(lib, profile, name)
        return profile, name

    def add(kind, argv, outputs=()):
        ops.append(Op(kind, tuple(argv), tuple(outputs), _inprocess(lib, argv, workdir, outputs)))

    for _ in range(2):
        profile, doc = profile_file(rng.randint(5, 50))
        n = len(profile)
        p, q = rng.choice(lib.valid_quota_pairs(n))
        add("aggregate", ["aggregate", "--rule", f"endpoint:{p},{q}", "--profile", doc])
        for selector in ("median", "maximal", "averaging"):
            add("aggregate", ["aggregate", "--rule", selector, "--profile", doc])
        phantom_path = path(".json")
        with open(phantom_path, "w", encoding="utf-8") as handle:
            json.dump(_phantom_document(lib.endpoint_rule_phantoms(q, p, n)), handle)
        add("aggregate", ["aggregate", "--rule", f"phantoms:{phantom_path}", "--profile", doc])
        _, sweep_doc = profile_file(rng.randint(96, 104))
        csv_path = path(".csv")
        add("sweep", ["sweep", "--profile", sweep_doc, "--out", csv_path], [csv_path])
        report = path(".json")
        small = rng.randint(3, 6)
        sp, sq = rng.choice(lib.valid_quota_pairs(small))
        add(
            "audit",
            ["audit", "--rule", f"endpoint:{sp},{sq}", "--n", str(small), "--samples", "20",
             "--seed", str(rng.randrange(10**6)), "--out", report],
            [report],
        )
        small_profile, small_doc = profile_file(rng.randint(2, 6))
        agent = str(rng.randint(1, len(small_profile)))
        mp, mq = rng.choice(lib.valid_quota_pairs(len(small_profile)))
        add("manipulate", ["manipulate", "--rule", f"endpoint:{mp},{mq}", "--profile", small_doc,
                           "--agent", agent, "--pref", "weighted:1,2", "--seed", str(rng.randrange(10**6))])
        reference = sorted(rng.sample(range(-200, 201), 2))
        add("manipulate", ["manipulate", "--rule", "averaging", "--profile", small_doc,
                           "--agent", agent, "--pref", f"penalty:{reference[0]},{reference[1]}",
                           "--seed", str(rng.randrange(10**6))])
        ip, iq = rng.choice(lib.valid_quota_pairs(5))
        add("identify", ["identify", "--rule", f"endpoint:{ip},{iq}", "--n", "5",
                         "--samples", "50", "--seed", str(rng.randrange(10**6))])
        add("identify", ["identify", "--rule", "averaging", "--n", "4",
                         "--samples", "50", "--seed", str(rng.randrange(10**6))])

    union = "extern:" + extern_command("union")
    for _ in range(3):
        _, doc = profile_file(rng.randint(5, 50))
        add("extern", ["aggregate", "--rule", union, "--profile", doc])

    _, doc = profile_file(rng.randint(5, 50))
    garbage = ["aggregate", "--rule", "extern:" + extern_command("garbage"), "--profile", doc]
    ops.append(Op("contract", tuple(garbage), (), _inprocess(lib, garbage, workdir, ()), frozenset({2})))
    _, doc = profile_file(3)
    infeasible = ["aggregate", "--rule", "endpoint:3,2", "--profile", doc]
    ops.append(Op("contract", tuple(infeasible), (), _inprocess(lib, infeasible, workdir, ()), frozenset({3})))

    # Known defects of the exit-code contract: a JSON integer too large for
    # a float, and bounds near float max that overflow the misreport grid.
    oversized = path(".json")
    with open(oversized, "w", encoding="utf-8") as handle:
        handle.write('{"agents": [{"lo": 0, "hi": 1%s}, {"lo": 0, "hi": 2}]}' % ("0" * 400))
    ops.append(Op("defect", ("aggregate", "--rule", "median", "--profile", oversized), (), None,
                  frozenset({2}), (1, "OverflowError")))
    huge = path(".json")
    with open(huge, "w", encoding="utf-8") as handle:
        json.dump({"agents": [{"lo": -1e308, "hi": 1e308}, {"lo": -1.5e308, "hi": 1.2e308},
                              {"lo": 0, "hi": 1}]}, handle)
    ops.append(Op("defect", ("manipulate", "--rule", "median", "--profile", huge, "--agent", "1"),
                  (), None, frozenset({0, 1, 2}), (3, "")))
    return State(lib, ops, workdir, child_env(root))


def run_op(state: State, op: Op) -> dict:
    proc = subprocess.run(
        [sys.executable, "-m", "intervalagg", *op.argv],
        env=state.env,
        cwd=state.workdir,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        timeout=CHILD_TIMEOUT_S,
    )
    files = {}
    for path in op.outputs:
        try:
            with open(path, encoding="utf-8") as handle:
                files[os.path.basename(path)] = _normalise(handle.read(), state.workdir)
            os.remove(path)
        except OSError:
            files[os.path.basename(path)] = None
    return {
        "exit": proc.returncode,
        "stdout": _normalise(proc.stdout.decode("utf-8", "replace"), state.workdir),
        "stderr": _normalise(proc.stderr.decode("utf-8", "replace"), state.workdir),
        "files": files,
    }


def check(state: State, op: Op, output: dict) -> Optional[Verdict]:
    code = output["exit"]
    traceback = "Traceback" in output["stderr"]
    if op.defect is not None:
        defect_code, defect_text = op.defect
        if code == defect_code and defect_text in output["stderr"]:
            return Verdict(f"known defect: exit {code}", known_defect=True)
    if traceback:
        return Verdict(f"traceback on stderr (exit {code})")
    if op.allowed_exits is not None and code not in op.allowed_exits:
        return Verdict(f"exit {code}, contract allows {sorted(op.allowed_exits)}")
    expected = op.expected
    if expected is None:
        return None
    if code != expected.exit:
        return Verdict(f"exit {code}, in-process gave {expected.exit}")
    if output["stdout"] != expected.stdout:
        return Verdict("stdout differs from the in-process run")
    if output["files"] != expected.files:
        return Verdict("written files differ from the in-process run")
    return None


def probe_inputs(state: State) -> ProbeInputs:
    lib = state.lib
    cases = {}
    docs = {}
    for op in state.ops:
        if op.kind in ("aggregate", "sweep", "audit", "manipulate", "identify"):
            cases.setdefault(op.kind, list(op.argv))
            if "--profile" in op.argv:
                doc = op.argv[op.argv.index("--profile") + 1]
                docs.setdefault(doc, lib.cli.load_profile_document(doc))
    return ProbeInputs(profiles=list(docs.values()), cli_cases=cases)


def close(state: State) -> None:
    shutil.rmtree(state.workdir, ignore_errors=True)
