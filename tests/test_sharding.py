"""Sharded audits: a built-in handle is audited in this process and the
sample worker, and the report is the one the in-process audit writes,
byte for byte.  Each path is forced by patching the CPU count; rules of
the tests' own shard when the worker is started with their module."""

import json
import os
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from functools import partial
from unittest.mock import patch

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from intervalagg import (
    ALL_AXIOM_IDS,
    AuditConfig,
    RuleHandle,
    _worker,
    audit,
    axioms,
    averaging_rule_handle,
    endpoint_rule_handle,
    endpoint_rule_phantoms,
    identify_endpoint_rule,
    median_rule_handle,
    phantom_rule_handle,
    rules,
    valid_quota_pairs,
)
from intervalagg._worker import _decided
from intervalagg.axioms import _merge, _outcomes
from intervalagg.cli import extern_rule_adapter
from intervalagg.rules import _STREAMS, _confirmations

from . import sharded_rules
from .conftest import ROOT, extern_command, src_env
from .sharded_rules import MEDIAN, flaky_rule, median_except
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

    Each poll for the worker's replies first waits up to 5 ms for one to
    arrive, so the worker answers its chunks before this process can take
    them over; unless ``answered`` is False, the sharded run must get one
    of its answers.
    """
    reply = _worker._reply
    answers = []

    def slow_reply(fd):
        select.select([fd], [], [], 0.005)
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
    """``paths``, with the worker started on the tests' own rules too.  A
    worker started on other modules is kept unused, so the worker is
    stopped before and after."""
    monkeypatch.setattr(_worker, "_MODULES", (*_worker._MODULES, "tests.sharded_rules"))
    monkeypatch.setattr(_worker, "_import_paths", lambda: [*IMPORT_PATHS, str(ROOT)])
    _worker._stop()
    yield paths
    _worker._stop()


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
    # At thresholds from 5 the campaign aborts early, and whether the worker
    # answered before the merge stopped reading is left open.
    call = lambda: report_text(flaky_rule(threshold), config)  # noqa: E731
    sharded, in_process = rule_paths(call, answered=threshold < 5)
    assert sharded == in_process


def test_value_error_in_the_worker_range_is_raised_again(rule_paths):
    config = AuditConfig(n_agents=3, samples=20, seed=1)
    rule = RuleHandle("bounded", sharded_rules.bounded)
    # The first sample that raises, a TranslationEquivariance one, lies in
    # an odd chunk, one of the worker's.
    outcomes, raised = _decided(_outcomes, (rule, config), 0, 200)
    first = len(outcomes)
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


def test_a_handle_that_raises_in_every_chunk(paths):
    # Quotas (3, 3) are invalid for 3 agents, so every sample of every
    # chunk raises, in both processes; the first is raised again.
    rule = endpoint_rule_handle(3, 3)
    config = AuditConfig(n_agents=3, samples=20, seed=1)
    errors = []

    def failing_audit():
        with pytest.raises(ValueError) as error:
            audit(rule, config)
        errors.append(str(error.value))

    paths(failing_audit)
    assert errors == ["quotas (3, 3) invalid for 3 agents"] * 2


def drained(stream):
    """What ``stream`` yields, and the repr of the ValueError it then
    raises (None if none)."""
    outcomes = []
    try:
        for outcome in stream:
            outcomes.append(outcome)
    except ValueError as error:
        return outcomes, repr(error)
    return outcomes, None


# The worker knows only range functions, f(*args, start, stop): one that
# is not an audit is decided in both processes and comes back as one
# stream, the same outcomes and then the same exception at the same
# position.  The ValueError at 35 lies in an odd chunk, one of the worker's.
@pytest.mark.parametrize("fail_at", [35, None])
def test_a_range_function_that_is_not_an_audit(rule_paths, fail_at):
    total = 160
    sharded, in_process = rule_paths(
        lambda: _worker.parts(sharded_rules.squares, (fail_at,), total)
    )
    assert in_process is None  # on one CPU the caller decides it whole
    outcomes, error = drained(sharded)
    assert (outcomes, error) == drained(sharded_rules.squares(fail_at, 0, total))
    assert len(outcomes) == (total if fail_at is None else fail_at)
    assert (error is None) == (fail_at is None)


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
from intervalagg.axioms import _outcomes

MEDIAN = median_rule_handle()
config = AuditConfig(n_agents=3, samples=30, seed=4)

def texts(rule):
    assert _worker._request(_outcomes, (rule, config), [(0, 300)]) is None
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


# A module on the worker's list that does not record itself at import:
# this process cannot show that it still runs what it imported, so the
# audit is decided here and starts no worker.
UNRECORDED = """
import json
from intervalagg import AuditConfig, _worker, audit, median_rule_handle

_worker._MODULES = (*_worker._MODULES, "json")
_worker._usable_cpus = lambda: 2
rule, config = median_rule_handle(), AuditConfig(n_agents=3, samples=20, seed=1)
sharded = json.dumps(audit(rule, config).to_json_dict())
_worker._usable_cpus = lambda: 1
in_process = json.dumps(audit(rule, config).to_json_dict())
print(_worker._fingerprint() is None, _worker._live() is None, sharded == in_process)
"""


def test_a_module_without_a_record_is_not_left_to_the_worker():
    child = subprocess.run(
        [sys.executable, "-c", UNRECORDED],
        capture_output=True, text=True, timeout=120, env=src_env(),
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == ["True", "True", "True"]


# A ready worker, and then one more module on the list here: the worker
# runs other code than this process from then on, so it is kept alive
# and sent nothing, and every audit is decided here.
KEPT = """
import json, os, time
from intervalagg import AuditConfig, _worker, audit, median_rule_handle

_worker._usable_cpus = lambda: 2
rule, config = median_rule_handle(), AuditConfig(n_agents=4, samples=20, seed=5)
deadline = time.monotonic() + 60
while _worker._live() is None or _worker._live().fingerprint != _worker._fingerprint():
    audit(rule, config)
    assert time.monotonic() < deadline
    time.sleep(0.02)
worker = _worker._live()
sequence = worker.sequence
_worker._MODULES = (*_worker._MODULES, "tests.sharded_rules")
texts = []
for _ in range(10):
    texts.append(json.dumps(audit(rule, config).to_json_dict()))
    time.sleep(0.05)
live = _worker._live() is worker and os.waitpid(worker.pid, os.WNOHANG) == (0, 0)
_worker._usable_cpus = lambda: 1
in_process = json.dumps(audit(rule, config).to_json_dict())
print(live, worker.sequence == sequence, texts == [in_process] * 10)
"""


def test_a_worker_running_other_code_is_kept_unused():
    env = src_env()
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT), env["PYTHONPATH"]])
    child = subprocess.run(
        [sys.executable, "-c", KEPT],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == ["True", "True", "True"]


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


def decided_here_while_patched(monkeypatch, paths, config, change):
    """Audit the averaging rule under ``config`` with the worker answering,
    then with ``change(context)`` applied, then with it undone: the changed
    report is the one this process writes on its own, and once the patch
    is undone the same worker answers again."""
    rule = averaging_rule_handle()
    clean, _ = paths(lambda: report_text(rule, config))
    pid = _worker._live().pid
    with monkeypatch.context() as patched:
        change(patched)
        sharded = report_text(rule, config)
        patched.setattr(_worker, "_usable_cpus", lambda: 1)
        assert sharded == report_text(rule, config) != clean
    assert paths(lambda: report_text(rule, config)) == (clean, clean)
    assert _worker._live().pid == pid


def test_a_partial_swapped_in_the_axiom_table_is_not_left_to_the_worker(monkeypatch, paths):
    # StrongNeutrality drawing increasing maps only, as WeakNeutrality does.
    decide, fields, draw, default = axioms._AXIOMS["StrongNeutrality"]
    weak = (decide, fields, partial(draw.func, strong=False), default)
    config = AuditConfig(n_agents=4, samples=20, seed=8, axioms=("StrongNeutrality",))
    decided_here_while_patched(
        monkeypatch, paths, config,
        lambda patched: patched.setitem(axioms._AXIOMS, "StrongNeutrality", weak),
    )


def other_seed(master, axiom, sample_index):
    return master * 7919 + sample_index


def test_code_replaced_in_a_function_is_not_left_to_the_worker(monkeypatch, paths):
    config = AuditConfig(n_agents=4, samples=20, seed=8)
    decided_here_while_patched(
        monkeypatch, paths, config,
        lambda patched: patched.setattr(axioms._derive_seed, "__code__", other_seed.__code__),
    )


def test_a_method_replaced_on_a_class_is_not_left_to_the_worker(monkeypatch, paths):
    evaluate = RuleHandle.__call__

    def shifted(handle, profile):
        outcome = evaluate(handle, profile)
        return type(outcome)(outcome.lo + 0.5, outcome.hi + 0.5)

    config = AuditConfig(n_agents=4, samples=20, seed=8)
    decided_here_while_patched(
        monkeypatch, paths, config,
        lambda patched: patched.setattr(RuleHandle, "__call__", shifted),
    )


def test_audits_that_cannot_shard_run_in_process(monkeypatch, two_cpus):
    config = AuditConfig(n_agents=3, samples=2, seed=1)
    ranges = [(0, 20)]
    assert _worker._request(_outcomes, (MEDIAN, config), ranges) is not None
    for rule in (
        RuleHandle("closure", lambda profile: MEDIAN(profile)),
        extern_rule_adapter(extern_command("widest_wins.py")),
        RuleHandle("first", sharded_rules.first_agent),  # not started with this module
    ):
        assert _worker._request(_outcomes, (rule, config), ranges) is None
        assert _worker.parts(_outcomes, (rule, config), 20) is None
    # Too large to send in one write: a phantom handle of 300 agents.
    big = phantom_rule_handle(endpoint_rule_phantoms(2, 3, 300))
    big_config = AuditConfig(n_agents=300, samples=2, seed=1)
    assert _worker._request(_outcomes, (big, big_config), ranges) is None
    monkeypatch.setattr(_worker, "_usable_cpus", lambda: 1)
    assert _worker.parts(_outcomes, (MEDIAN, config), 20) is None
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


def identifications(rule, n, confirmations=(5, 50, 200), seeds=(0, 1)):
    """Identify ``rule`` on ``n`` agents per confirmation count and seed:
    the quotas, None, or the exception raised."""
    results = []
    for count in confirmations:
        for seed in seeds:
            try:
                results.append(identify_endpoint_rule(rule, n, count, seed))
            except Exception as error:
                results.append(repr(error))
    return results


def confirms(rule, n):
    """Whether identification reaches the confirmations: the averaging
    rule at even n is not integral on the staircase."""
    return rule.name != "averaging" or n % 2 == 1


# Five confirmations leave eleven sub-streams empty, and fifty is not a
# multiple of sixteen.
@pytest.mark.parametrize("n", range(2, 7))
def test_sharded_identification_matches_in_process(paths, n):
    for k, rule in enumerate(rules_at(n)):
        seeds = (k, 100 + n)
        call = lambda: identifications(rule, n, seeds=seeds)  # noqa: E731
        sharded, in_process = paths(call, confirms(rule, n))
        assert sharded == in_process
        assert (None in sharded) == (rule.name == "averaging")


def test_identification_with_four_chunks(monkeypatch, paths):
    monkeypatch.setattr(_worker, "_CHUNKS", 4)
    for n in (2, 5):
        for rule in rules_at(n):
            sharded, in_process = paths(lambda: identifications(rule, n), confirms(rule, n))
            assert sharded == in_process


def substream_profiles(n, seed, confirmations):
    """The profiles each sub-stream draws, in order."""
    drawn = []
    recorder = RuleHandle("recorder", lambda profile: drawn.append(profile) or MEDIAN(profile))
    streams = []
    for k in range(_STREAMS):
        assert list(_confirmations(recorder, MEDIAN, n, seed, confirmations, k, k + 1)) == [True]
        streams.append([tuple(map(tuple, profile)) for profile in drawn])
        drawn.clear()
    return streams


# Sixteen chunks give each process every other sub-stream; four give each
# chunk four sub-streams, so a mismatch and an exception can share one.
@pytest.mark.parametrize("chunks", [16, 4])
def test_mismatches_and_errors_in_the_workers_substreams(monkeypatch, rule_paths, chunks):
    monkeypatch.setattr(_worker, "_CHUNKS", chunks)
    n, seed = 3, 11
    streams = substream_profiles(n, seed, 200)
    # Median but on the fourth profile of sub-stream 5, one of the worker's.
    odd = median_except(mismatches=[streams[5][3]])
    agreed = list(_confirmations(odd, MEDIAN, n, seed, 200, 0, _STREAMS))
    assert [k for k in range(_STREAMS) if not agreed[k]] == [5]
    assert identify_endpoint_rule(MEDIAN, n, seed=seed) == (2, 2)
    assert rule_paths(lambda: identify_endpoint_rule(odd, n, seed=seed)) == (None, None)

    def identified(mismatches, failures):
        rule = median_except(
            [streams[k][i] for k, i in mismatches], [streams[k][i] for k, i in failures]
        )

        def identify():
            try:
                return identify_endpoint_rule(rule, n, seed=seed)
            except ValueError as error:
                return str(error)

        return rule_paths(identify)

    def refused(k, i):
        return (f"refused {streams[k][i]!r}",) * 2

    # A ValueError in the worker's sub-stream 7 is raised again.
    assert identified([], [(7, 0)]) == refused(7, 0)
    # The first mismatch wins over a later exception, and the first
    # exception over a later mismatch: across the two processes' sub-streams
    # and within one sub-stream.
    for first, later in (((3, 2), (4, 0)), ((8, 2), (9, 0)), ((5, 1), (5, 2))):
        assert identified([first], [later]) == (None, None)
        assert identified([later], [first]) == refused(*first)


def test_identifying_rules_that_cannot_shard(paths):
    closure = RuleHandle("closure", lambda profile: MEDIAN(profile))
    extern = extern_rule_adapter(extern_command("widest_wins.py"))
    for rule in (closure, extern):
        args = (rule, MEDIAN, 3, 0, 200)
        assert _worker._request(_confirmations, args, [(0, _STREAMS)]) is None
    sharded, in_process = paths(lambda: identifications(closure, 3), answered=False)
    assert sharded == in_process == [(2, 2)] * 6


def cut(decide, args, total, data):
    """The range 0 to ``total - 1`` of ``decide``, cut where ``data``
    draws, each part decided alone and the parts chained as the worker
    chains its chunks."""
    bounds = [0, *sorted(data.draw(st.lists(st.integers(0, total), max_size=6))), total]
    return _worker._chained(
        [_decided(decide, args, start, stop) for start, stop in zip(bounds, bounds[1:])]
    )


@st.composite
def audit_ranges(draw):
    rule = flaky_rule(draw(st.sampled_from([-20, 0, 5, 8, 20])),
                      draw(st.sampled_from([None, 9.0, 9.9])))
    config = AuditConfig(n_agents=2, samples=draw(st.integers(0, 6)),
                         seed=draw(st.integers(0, 2**16)))
    return _outcomes, (rule, config), len(config.axioms) * config.samples


@st.composite
def confirmation_ranges(draw):
    n, confirmations, seed = 3, draw(st.integers(1, 40)), draw(st.integers(0, 2**16))
    streams = substream_profiles(n, seed, confirmations)

    def pick():
        ks = draw(st.sets(st.integers(0, _STREAMS - 1), max_size=3))
        return [draw(st.sampled_from(streams[k])) for k in sorted(ks) if streams[k]]

    rule = median_except(pick(), pick())
    return _confirmations, (rule, MEDIAN, n, seed, confirmations), _STREAMS


@st.composite
def square_ranges(draw):
    total = draw(st.integers(0, 40))
    return sharded_rules.squares, (draw(st.one_of(st.none(), st.integers(0, 40))),), total


def caught(call):
    """What ``call()`` returns, or the repr of the ValueError it raises."""
    try:
        return call()
    except ValueError as error:
        return repr(error)


# Any cut of a range, decided part by part and chained, is the range
# decided whole: the same outcomes, then the same exception at the same
# position.  Fed such a stream, an audit writes the report, and
# identification returns the result, that one range gives.
@settings(max_examples=180, deadline=None)
@given(data=st.data())
def test_any_cut_of_a_range_chains_to_the_whole_range(data):
    decide, args, total = data.draw(
        st.one_of(audit_ranges(), confirmation_ranges(), square_ranges())
    )
    whole = drained(decide(*args, 0, total))
    assert drained(cut(decide, args, total, data)) == whole
    if decide is _outcomes:
        rule, config = args

        def report(stream):
            return caught(lambda: _merge(rule.name, config, stream).to_json_dict())

        expected = report(decide(*args, 0, total))
        assert report(cut(decide, args, total, data)) == expected
        assert caught(lambda: audit(rule, config).to_json_dict()) == expected
    elif decide is _confirmations:
        rule, _, n, seed, confirmations = args
        # The first mismatch before any exception gives None, else the
        # first exception is raised.
        outcomes, raised = whole
        expected = None if False in outcomes else raised or (2, 2)
        identify = lambda: identify_endpoint_rule(rule, n, confirmations, seed)  # noqa: E731
        assert caught(identify) == expected
        stream = cut(decide, args, total, data)
        with patch.object(_worker, "_live", lambda: True), \
                patch.object(_worker, "parts", lambda decide, args, total: stream):
            assert caught(identify) == expected


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


@needs_proc
def test_failed_spawn_leaves_the_caller_deciding(monkeypatch, two_cpus):
    config = AuditConfig(n_agents=4, samples=30, seed=6)
    expected = serial_text(monkeypatch, averaging_rule_handle(), config)
    _worker._stop()
    spawns = []

    def refused(*args, **kwargs):
        spawns.append(args)
        raise OSError("no process can be started")

    monkeypatch.setattr(os, "posix_spawn", refused)
    descriptors = len(os.listdir("/proc/self/fd"))
    assert report_text(averaging_rule_handle(), config) == expected
    assert len(spawns) == 1 and _worker._live() is None
    assert len(os.listdir("/proc/self/fd")) == descriptors  # all four pipe ends closed


def test_send_to_a_dead_worker_stops_it(two_cpus):
    worker = ready()
    os.kill(worker.pid, signal.SIGKILL)
    os.waitpid(worker.pid, 0)
    _worker._send(worker, _worker._frame(None))  # a broken pipe, not an error
    assert _worker._live() is None and worker.requests == -1


def test_a_worker_is_stopped_once(two_cpus):
    worker = ready()
    _worker._stop(worker)
    _worker._stop(worker)  # closes nothing again, kills no reused pid
    assert _worker._live() is None
    assert worker.requests == worker.replies == -1


@pytest.mark.parametrize("count, usable", [(3, 3), (None, 1)])
def test_usable_cpus_without_affinity(monkeypatch, count, usable):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    assert _worker._usable_cpus() == usable


# A child imports a copy of the package and starts the worker; the copy's
# axioms.py is then rewritten before the worker imports it.  The worker
# runs other code than the child and says so by its files' identities, so
# the child decides every sample itself, and keeps its worker.
EDITED = """
import json, os, sys, time
from intervalagg import AuditConfig, _worker, audit, averaging_rule_handle

gate, module, old, new = sys.argv[1:]
assert os.path.dirname(_worker.__file__) == os.path.dirname(module), _worker.__file__
# The worker waits for the gate before it imports the package.
_worker._SERVE = (
    f"import os, time\\nwhile not os.path.exists({gate!r}): time.sleep(0.01)\\n"
    + _worker._SERVE
)
_worker._usable_cpus = lambda: 2
rule, config = averaging_rule_handle(), AuditConfig(n_agents=4, samples=20, seed=8)
texts = {json.dumps(audit(rule, config).to_json_dict())}
worker = _worker._live()
with open(module) as source:
    text = source.read()
assert old in text
with open(module, "w") as source:
    source.write(text.replace(old, new))
open(gate, "w").close()
deadline = time.monotonic() + 60
while worker.fingerprint is None:
    assert time.monotonic() < deadline
    time.sleep(0.02)
    texts.add(json.dumps(audit(rule, config).to_json_dict()))
texts.add(json.dumps(audit(rule, config).to_json_dict()))
_worker._usable_cpus = lambda: 1
in_process = json.dumps(audit(rule, config).to_json_dict())
print(json.dumps([
    sorted(texts) == [in_process],
    None not in (worker.fingerprint, _worker._fingerprint()),
    worker.fingerprint != _worker._fingerprint(),
    _worker._live() is worker,
]))
print(in_process)
"""
SEED_CODE = "* 1_000_003 + sample_index\n"


def test_a_package_edited_on_disk_is_audited_as_imported(tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(
        ROOT / "src" / "intervalagg", copy / "intervalagg",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    env = src_env()
    env["PYTHONPATH"] = os.pathsep.join([str(copy), env["PYTHONPATH"]])

    def run(*argv):
        child = subprocess.run(
            [sys.executable, *argv], capture_output=True, text=True, timeout=120,
            env=env, cwd=tmp_path,
        )
        assert child.returncode == 0, child.stderr
        return child.stdout.splitlines()

    module = copy / "intervalagg" / "axioms.py"
    flags, in_process = run(
        "-c", EDITED, str(tmp_path / "gate"), str(module), SEED_CODE,
        SEED_CODE.replace("index", "index + 1"),
    )
    assert json.loads(flags) == [True, True, True, True]
    # The edit changes the report: the worker's answers would have shown.
    edited = run("-c", "import json; from intervalagg import *; print(json.dumps(audit("
                 "averaging_rule_handle(), AuditConfig(n_agents=4, samples=20, seed=8))"
                 ".to_json_dict()))")
    assert edited != [in_process]
