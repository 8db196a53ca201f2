"""Sharded audits: a built-in handle is audited in this process and the
sample worker, and the report is the one the in-process audit writes,
byte for byte.  Each path is forced by patching the CPU count; rules of
the tests' own shard when the worker is started with their module."""

import json
import os
import select
import signal
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from intervalagg import (
    ALL_AXIOM_IDS,
    AuditConfig,
    RuleHandle,
    _worker,
    audit,
    averaging_rule_handle,
    endpoint_rule_handle,
    endpoint_rule_phantoms,
    median_rule_handle,
    phantom_rule_handle,
    rules,
    valid_quota_pairs,
)
from intervalagg.axioms import _merge, _run_samples
from intervalagg.cli import extern_rule_adapter

from . import sharded_rules
from .conftest import ROOT, extern_command, src_env
from .sharded_rules import MEDIAN, flaky_rule
from .test_audit import GOLDEN_DIR


def report_text(rule, config):
    return json.dumps(audit(rule, config).to_json_dict(), indent=2) + "\n"


def ready():
    """The worker, once it has said it runs this process's code; tiny
    audits start it if need be."""
    deadline = time.monotonic() + 60
    while True:
        audit(MEDIAN, AuditConfig(n_agents=2, samples=2, seed=0))
        worker = _worker._live()
        if worker is not None and worker.fingerprint == _worker._fingerprint():
            return worker
        assert time.monotonic() < deadline, "the sample worker never became ready"
        time.sleep(0.02)


def gone(pid):
    """Whether process ``pid`` has exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            state = stat.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return True
    return state in ("Z", "X")


def eventually(condition, timeout=30):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline
        time.sleep(0.02)


needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(_worker, "_usable_cpus", lambda: 2)


@pytest.fixture
def paths(monkeypatch, two_cpus):
    """Run a callable on the sharded path, then in-process.

    Each poll for the worker's replies waits 5 ms first, so the worker
    answers its chunks before this process can take them over; unless
    ``answered`` is False, the sharded run must get one of its answers.
    """
    reply = _worker._reply
    answers = []

    def slow_reply(fd):
        time.sleep(0.005)
        answer = reply(fd)
        if isinstance(answer, tuple) and answer[0] == _worker._live().sequence:
            answers.append(answer[1])
        return answer

    monkeypatch.setattr(_worker, "_reply", slow_reply)

    def run(call, answered=True):
        ready()
        before = len(answers)
        sharded = call()
        assert len(answers) > before or not answered
        monkeypatch.setattr(_worker, "_usable_cpus", lambda: 1)
        before = len(answers)
        in_process = call()
        assert len(answers) == before
        monkeypatch.setattr(_worker, "_usable_cpus", lambda: 2)
        return sharded, in_process

    return run


@pytest.fixture
def rule_paths(monkeypatch, paths):
    """``paths``, with the worker started on the tests' own rules too."""
    monkeypatch.setattr(_worker, "_MODULES", (*_worker._MODULES, "tests.sharded_rules"))
    monkeypatch.setattr(_worker, "_import_paths", lambda: [*IMPORT_PATHS, str(ROOT)])
    return paths


IMPORT_PATHS = _worker._import_paths()


def rules_at(n):
    pairs = valid_quota_pairs(n)
    return [
        endpoint_rule_handle(*pairs[0]),
        endpoint_rule_handle(*pairs[-1]),
        endpoint_rule_handle(*pairs[len(pairs) // 2]),
        median_rule_handle(),
        phantom_rule_handle(endpoint_rule_phantoms(*pairs[len(pairs) // 3], n)),
        averaging_rule_handle(),
    ]


@pytest.mark.parametrize("n", range(2, 7))
def test_sharded_reports_match_in_process(paths, n):
    for k, rule in enumerate(rules_at(n)):
        config = AuditConfig(n_agents=n, samples=25, seed=100 * n + k)
        sharded, in_process = paths(lambda: report_text(rule, config))
        assert sharded == in_process


def test_sharded_report_matches_golden_bytes(paths):
    config = AuditConfig(n_agents=3, samples=40, seed=7, axioms=ALL_AXIOM_IDS)
    golden = (GOLDEN_DIR / "audit_averaging_n3.json").read_text()
    assert paths(lambda: report_text(averaging_rule_handle(), config)) == (golden, golden)


# Two or three samples per axiom make chunks of one or two, so the ten
# errors that abort span chunks of both processes.
@pytest.mark.parametrize("samples", [2, 3])
def test_abort_across_a_chunk_boundary(rule_paths, samples):
    config = AuditConfig(n_agents=3, samples=samples, seed=1)
    rule = RuleHandle("refusing", sharded_rules.refusing)
    sharded, in_process = rule_paths(lambda: audit(rule, config))
    assert sharded.aborted and sharded.abort_axiom == ALL_AXIOM_IDS[9 // samples]
    assert (sharded.abort_axiom, sharded.abort_reason) == (
        in_process.abort_axiom, in_process.abort_reason
    )
    assert [(t.samples, t.eval_errors) for t in sharded.tallies.values()] == [
        (t.samples, t.eval_errors) for t in in_process.tallies.values()
    ]
    assert sharded.to_json_dict() == in_process.to_json_dict()


@pytest.mark.parametrize("threshold", [-20, 0, 5, 8, 20])
def test_evaluation_errors_match_in_process(rule_paths, threshold):
    config = AuditConfig(n_agents=3, samples=30, seed=threshold + 50)
    # An early abort leaves nothing for the worker to answer.
    call = lambda: report_text(flaky_rule(threshold), config)  # noqa: E731
    sharded, in_process = rule_paths(call, answered=threshold < 5)
    assert sharded == in_process


def test_value_error_in_the_worker_range_is_raised_again(rule_paths):
    config = AuditConfig(n_agents=3, samples=20, seed=1)
    rule = RuleHandle("bounded", sharded_rules.bounded)
    # The first sample that raises, a TranslationEquivariance one, lies in
    # an odd chunk, one of the worker's.
    *_, first, raised = _run_samples(rule, config, 0, 200)
    assert isinstance(raised, ValueError)
    chunk = next(k for k in range(_worker._CHUNKS) if 200 * (k + 1) // _worker._CHUNKS > first)
    assert 60 <= first < 80 and chunk % 2 == 1
    errors = []

    def failing_audit():
        with pytest.raises(ValueError) as error:
            audit(rule, config)
        errors.append(error)

    rule_paths(failing_audit)
    assert [error.type for error in errors] == [ValueError, ValueError]
    assert str(errors[0].value) == str(errors[1].value)
    config = AuditConfig(n_agents=3, samples=20, seed=3)
    assert rule_paths(lambda: report_text(MEDIAN, config)) == (report_text(MEDIAN, config),) * 2


def serial_text(monkeypatch, rule, config):
    monkeypatch.setattr(_worker, "_usable_cpus", lambda: 1)
    text = report_text(rule, config)
    monkeypatch.setattr(_worker, "_usable_cpus", lambda: 2)
    return text


def test_worker_killed_between_audits(monkeypatch, two_cpus):
    config = AuditConfig(n_agents=4, samples=30, seed=6)
    expected = serial_text(monkeypatch, averaging_rule_handle(), config)
    first = ready()
    os.kill(first.pid, signal.SIGKILL)
    texts = []

    def replaced():
        texts.append(report_text(averaging_rule_handle(), config))
        return _worker._live() is not first

    eventually(replaced)
    assert texts == [expected] * len(texts)
    assert _worker._live() is None or _worker._live().pid != first.pid
    with pytest.raises(ChildProcessError):
        os.waitpid(first.pid, os.WNOHANG)  # reaped when it was found dead
    assert ready().pid != first.pid
    assert report_text(averaging_rule_handle(), config) == expected


@pytest.mark.parametrize("answers", [0, 1, 3])
def test_worker_that_dies_during_an_audit(monkeypatch, two_cpus, answers):
    config = AuditConfig(n_agents=4, samples=30, seed=6)
    expected = serial_text(monkeypatch, averaging_rule_handle(), config)
    worker = ready()
    reply = _worker._reply
    seen = []

    def dying(fd):
        time.sleep(0.005)  # so that the worker answers first
        if len(seen) == answers:
            os.kill(worker.pid, signal.SIGKILL)
            os.waitpid(worker.pid, 0)
            seen.append("killed")
        answer = reply(fd)
        if isinstance(answer, tuple) and answer[0] == worker.sequence:
            seen.append(answer)
        return answer

    monkeypatch.setattr(_worker, "_reply", dying)
    assert report_text(averaging_rule_handle(), config) == expected
    assert seen[answers] == "killed" and _worker._live() is None
    monkeypatch.setattr(_worker, "_reply", reply)
    assert ready().pid != worker.pid


def test_interrupt_during_an_audit_ends_the_worker(monkeypatch, two_cpus):
    config = AuditConfig(n_agents=4, samples=30, seed=6)
    expected = serial_text(monkeypatch, averaging_rule_handle(), config)
    worker = ready()
    reply = _worker._reply

    def interrupted(fd):
        time.sleep(0.005)  # so that the worker answers first
        answer = reply(fd)
        if isinstance(answer, tuple):
            raise KeyboardInterrupt
        return answer

    monkeypatch.setattr(_worker, "_reply", interrupted)
    with pytest.raises(KeyboardInterrupt):
        audit(averaging_rule_handle(), config)
    monkeypatch.setattr(_worker, "_reply", reply)
    assert _worker._live() is None
    with pytest.raises(ChildProcessError):
        os.waitpid(worker.pid, os.WNOHANG)  # killed and reaped
    assert report_text(averaging_rule_handle(), config) == expected


# A worker that stops reading, stopped here or starved by the scheduler:
# requests fill its pipe, and the caller must go on deciding every chunk
# itself rather than wait.  Run in a subprocess, so a hang is a timeout.
STOPPED = """
import json, os, signal, time
from intervalagg import AuditConfig, _worker, audit, averaging_rule_handle

_worker._usable_cpus = lambda: 2
rule, config = averaging_rule_handle(), AuditConfig(n_agents=3, samples=10, seed=2)
texts = {json.dumps(audit(rule, config).to_json_dict())}
while _worker._live().fingerprint is None:
    time.sleep(0.02)
    texts.add(json.dumps(audit(rule, config).to_json_dict()))
worker = _worker._live()
os.kill(worker.pid, signal.SIGSTOP)
for _ in range(300):
    texts.add(json.dumps(audit(rule, config).to_json_dict()))
os.kill(worker.pid, signal.SIGCONT)
_worker._usable_cpus = lambda: 1
texts.add(json.dumps(audit(rule, config).to_json_dict()))
print(len(texts), _worker._live() is worker)
"""


def test_stopped_worker_leaves_the_caller_deciding():
    child = subprocess.run(
        [sys.executable, "-c", STOPPED],
        capture_output=True, text=True, timeout=120, env=src_env(),
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == ["1", "True"]


# Below the soft limit of descriptors on any usual host (1024).
HIGH_FD = 1000


def test_worker_holds_no_descriptor_of_its_caller(two_cpus):
    # A descriptor the caller lets children inherit, open when the worker
    # starts: the worker closes it, so the read end sees EOF once the
    # caller closes its own write end.
    _worker._stop()
    read_end, write_end = os.pipe()
    os.set_inheritable(write_end, True)
    # One more, far above the others, inheritable as dup2 makes it.
    high_read, high_write = os.pipe()
    os.dup2(high_write, HIGH_FD)
    os.close(high_write)
    try:
        ready()
        os.close(write_end)
        assert select.select([read_end], [], [], 30)[0]
        assert os.read(read_end, 1) == b""
        os.close(HIGH_FD)
        assert select.select([high_read], [], [], 30)[0]
        assert os.read(high_read, 1) == b""
    finally:
        os.close(read_end)
        os.close(high_read)


EXITING = """
import os, sys, time
from intervalagg import AuditConfig, _worker, audit, median_rule_handle

_worker._usable_cpus = lambda: 2
deadline = time.monotonic() + 60
while _worker._live() is None or _worker._live().fingerprint is None:
    audit(median_rule_handle(), AuditConfig(n_agents=3, samples=4, seed=1))
    assert time.monotonic() < deadline
    time.sleep(0.02)
print(_worker._live().pid, flush=True)
if sys.argv[1] == "killed":
    os.kill(os.getpid(), 9)
"""


@needs_proc
@pytest.mark.parametrize("how", ["exits", "killed"])
def test_worker_ends_with_its_caller(how):
    child = subprocess.run(
        [sys.executable, "-c", EXITING, how],
        capture_output=True, text=True, timeout=120, env=src_env(),
    )
    assert child.returncode == (0 if how == "exits" else -9), child.stderr
    pid = int(child.stdout)
    if how == "exits":
        assert gone(pid)  # killed and reaped at exit
    else:
        eventually(lambda: gone(pid))  # saw EOF on its requests


# A child forked from a caller with a live worker lets go of it: the
# child audits on its own, and the caller keeps its worker, which still
# answers it, until it exits.
FORKED = """
import json, os, sys, time
from intervalagg import AuditConfig, _worker, audit, median_rule_handle

rule, config = median_rule_handle(), AuditConfig(n_agents=3, samples=8, seed=1)
expected = json.dumps(audit(rule, config).to_json_dict())
_worker._usable_cpus = lambda: 2
deadline = time.monotonic() + 60
while _worker._live() is None or _worker._live().fingerprint is None:
    audit(rule, config)
    assert time.monotonic() < deadline
    time.sleep(0.02)
worker = _worker._live()
print(worker.pid, flush=True)
child = os.fork()
if child == 0:
    let_go = getattr(sys, _worker._HOME, None) is None and worker.requests < 0
    same = json.dumps(audit(rule, config).to_json_dict()) == expected
    mine = _worker._live() is None or _worker._live().pid != worker.pid
    print("child", let_go, same, mine, flush=True)
    sys.exit(0)
assert os.waitpid(child, 0)[1] == 0
reply, answered = _worker._reply, []

def slow_reply(fd):
    time.sleep(0.005)
    answer = reply(fd)
    if isinstance(answer, tuple) and answer[0] == worker.sequence:
        answered.append(answer)
    return answer

_worker._reply = slow_reply
while not answered:
    assert json.dumps(audit(rule, config).to_json_dict()) == expected
    assert time.monotonic() < deadline
print("parent", _worker._live() is worker, flush=True)
"""


@needs_proc
@pytest.mark.skipif(not hasattr(os, "fork"), reason="forks")
def test_forked_child_lets_go_of_the_worker():
    child = subprocess.run(
        [sys.executable, "-c", FORKED],
        capture_output=True, text=True, timeout=120, env=src_env(),
    )
    assert child.returncode == 0, child.stderr
    pid, forked, caller = child.stdout.splitlines()
    assert forked.split() == ["child", "True", "True", "True"]
    assert caller.split() == ["parent", "True"]
    assert gone(int(pid))  # killed and reaped when the caller exited


REIMPORTED = """
import json, sys, time

pids, texts = [], set()
for _ in range(3):
    for name in [m for m in sys.modules if m == "intervalagg" or m.startswith("intervalagg.")]:
        del sys.modules[name]
    import intervalagg
    from intervalagg import _worker

    _worker._usable_cpus = lambda: 2
    rule = intervalagg.median_rule_handle()
    config = intervalagg.AuditConfig(n_agents=4, samples=20, seed=5)
    deadline = time.monotonic() + 60
    while True:
        texts.add(json.dumps(intervalagg.audit(rule, config).to_json_dict()))
        worker = _worker._live()
        if worker is not None and worker.fingerprint == _worker._fingerprint():
            break
        assert time.monotonic() < deadline
        time.sleep(0.02)
    pids.append(worker.pid)
print(json.dumps([pids, len(texts)]))
"""


def test_one_worker_across_fresh_imports():
    child = subprocess.run(
        [sys.executable, "-c", REIMPORTED],
        capture_output=True, text=True, timeout=120, env=src_env(),
    )
    assert child.returncode == 0, child.stderr
    pids, distinct = json.loads(child.stdout)
    assert len(set(pids)) == 1 and distinct == 1


# A rule in __main__, redefined between audits, and a global it reads,
# reassigned between them: the worker cannot run them as they are now,
# so each audit runs in-process and sees them as they are.
REDEFINED = """
import json
from intervalagg import AuditConfig, RuleHandle, _worker, audit, median_rule_handle

MEDIAN = median_rule_handle()
config = AuditConfig(n_agents=3, samples=30, seed=4)

def texts(rule):
    assert _worker._request(rule, config, [(0, 300)]) is None
    _worker._usable_cpus = lambda: 2
    sharded = json.dumps(audit(rule, config).to_json_dict())
    _worker._usable_cpus = lambda: 1
    return sharded, json.dumps(audit(rule, config).to_json_dict())

def rule(profile):
    return MEDIAN(profile)

first = texts(RuleHandle("r", rule))

def rule(profile):
    lo = sum(entry.lo for entry in profile) / len(profile)
    return type(profile[0])(lo, lo + SCALE * (profile[0].hi - profile[0].lo))

SCALE = 1
second = texts(RuleHandle("r", rule))
SCALE = 3
third = texts(RuleHandle("r", rule))
print(first[0] == first[1], second[0] == second[1], third[0] == third[1],
      len({first[1], second[1], third[1]}), _worker._live() is None)
"""


def test_rule_redefined_in_main_between_audits(tmp_path):
    child = subprocess.run(
        [sys.executable, "-c", REDEFINED],
        capture_output=True, text=True, timeout=120, env=src_env(), cwd=tmp_path,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == ["True", "True", "True", "3", "True"]


def test_patched_package_code_is_not_left_to_the_worker(monkeypatch, two_cpus):
    # Only this process sees the patch, so the fingerprints differ and
    # every sample is decided here, by the patched code.
    config = AuditConfig(n_agents=4, samples=20, seed=8)
    rule = endpoint_rule_handle(2, 2)
    ready()
    clean = report_text(rule, config)
    kth = rules._kth_of_two
    monkeypatch.setattr(rules, "_kth_of_two", lambda ranked, pool, k: kth(ranked, pool, k) + 1.0)
    expected = serial_text(monkeypatch, rule, config)
    assert expected != clean
    for _ in range(5):
        assert report_text(rule, config) == expected
        time.sleep(0.1)
    monkeypatch.setattr(rules, "_kth_of_two", kth)
    assert ready().fingerprint == _worker._fingerprint()
    assert report_text(rule, config) == clean


def test_audits_that_cannot_shard_run_in_process(monkeypatch, two_cpus):
    config = AuditConfig(n_agents=3, samples=2, seed=1)
    ranges = [(0, 20)]
    assert _worker._request(MEDIAN, config, ranges) is not None
    for rule in (
        RuleHandle("closure", lambda profile: MEDIAN(profile)),
        extern_rule_adapter(extern_command("widest_wins.py")),
        RuleHandle("first", sharded_rules.first_agent),  # not started with this module
    ):
        assert _worker._request(rule, config, ranges) is None
        assert _worker.parts(rule, config, 20) is None
    # Too large to send in one write: a phantom handle of 300 agents.
    big = phantom_rule_handle(endpoint_rule_phantoms(2, 3, 300))
    assert _worker._request(big, AuditConfig(n_agents=300, samples=2, seed=1), ranges) is None
    monkeypatch.setattr(_worker, "_usable_cpus", lambda: 1)
    assert _worker.parts(MEDIAN, config, 20) is None
    # An audit with no samples has nothing to share, so it starts no worker.
    monkeypatch.setattr(_worker, "_usable_cpus", lambda: 2)
    _worker._stop()
    for empty in (AuditConfig(n_agents=3, samples=0), AuditConfig(n_agents=3, axioms=())):
        assert report_text(MEDIAN, empty) == serial_text(monkeypatch, MEDIAN, empty)
        assert _worker._live() is None


def test_audits_from_two_threads(monkeypatch, two_cpus):
    configs = [AuditConfig(n_agents=5, samples=30, seed=seed) for seed in range(6)]
    expected = [serial_text(monkeypatch, averaging_rule_handle(), c) for c in configs]
    ready()
    results = {}

    def run(offset):
        for k in range(offset, len(configs), 2):
            results[k] = report_text(averaging_rule_handle(), configs[k])

    threads = [threading.Thread(target=run, args=(offset,)) for offset in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert [results[k] for k in range(len(configs))] == expected


# The merge on any cut of the samples into ranges gives what one range
# gives: the same report, or the same exception.
@settings(max_examples=60, deadline=None)
@given(
    threshold=st.sampled_from([-20, 0, 5, 8, 20]),
    ceiling=st.sampled_from([None, 9.0, 9.9]),
    samples=st.integers(0, 6),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_merge_of_any_cut_matches_one_range(threshold, ceiling, samples, seed, data):
    rule = flaky_rule(threshold, ceiling)
    config = AuditConfig(n_agents=2, samples=samples, seed=seed)
    total = len(config.axioms) * samples
    cuts = sorted(data.draw(st.lists(st.integers(0, total), max_size=6)))
    bounds = [0, *cuts, total]

    def outcome(parts):
        try:
            return _merge(rule.name, config, parts).to_json_dict()
        except ValueError as error:
            return repr(error)

    whole = outcome([(0, _run_samples(rule, config, 0, total))])
    parts = [
        (start, _run_samples(rule, config, start, stop))
        for start, stop in zip(bounds, bounds[1:])
    ]
    assert outcome(parts) == whole
    try:
        audited = audit(rule, config).to_json_dict()
    except ValueError as error:
        audited = repr(error)
    assert audited == whole


# A rule failing with witnesses that outgrow a pipe: the worker blocks on
# each reply until this process reads it.  Run in a subprocess, so a
# deadlock is a timeout.
LARGE_PIPES = """
import json, sys, time
from intervalagg import AuditConfig, RuleHandle, _worker, audit
from tests.sharded_rules import first_agent

_worker._usable_cpus = lambda: 2
_worker._MODULES = (*_worker._MODULES, "tests.sharded_rules")
paths = _worker._import_paths()
_worker._import_paths = lambda: [*paths, sys.argv[1]]
rule = RuleHandle("first", first_agent)
config = AuditConfig(n_agents=3000, samples=16, seed=1, axioms=("Anonymity",))
sharded = [json.dumps(audit(rule, config).to_json_dict())]
while _worker._live().fingerprint is None:
    time.sleep(0.05)
    sharded.append(json.dumps(audit(rule, config).to_json_dict()))
sharded += [json.dumps(audit(rule, config).to_json_dict()) for _ in range(3)]
ready = _worker._live().fingerprint == _worker._fingerprint()
_worker._usable_cpus = lambda: 1
in_process = json.dumps(audit(rule, config).to_json_dict())
print(ready, sharded == [in_process] * len(sharded),
      json.loads(in_process)["results"]["Anonymity"]["failures"])
"""


def test_replies_larger_than_a_pipe(tmp_path):
    env = src_env()
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT), env["PYTHONPATH"]])
    child = subprocess.run(
        [sys.executable, "-c", LARGE_PIPES, str(ROOT)],
        capture_output=True, text=True, timeout=120, env=env, cwd=tmp_path,
    )
    assert child.returncode == 0, child.stderr
    ready, identical, failures = child.stdout.split()
    assert ready == "True" and identical == "True" and int(failures) > 0
