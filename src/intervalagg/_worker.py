"""The sample worker: a second Python process that decides part of an audit.

:func:`parts` cuts an audit's flat range of samples into sixteen equal
chunks.  This process decides the even ones, and one worker process per
calling process decides the odd ones from the first on, writing each
result back on a pipe.  When this process has decided its own chunks it
takes over, from the last back, every odd one the worker has not answered
yet, so it never waits on the worker.  A slow or busy worker only costs
its own chunks, and a worker that dies costs nothing but the restart.

The worker is a fresh interpreter, started with ``os.posix_spawn`` at the
first audit that can use it and kept until this process exits; a child
forked from this process lets go of it and starts its own.  It inherits
no descriptor but its two pipes and no state: it imports the package
from the directory this process imported it from.  It can therefore
decide only what a fresh import can: handles whose every function and
class is a built-in of the package and that pickle small enough for one
pipe write (:func:`_request`), and only while this process runs the same
package code as the worker.  That code is compared by fingerprint, the
code objects and plain values of every module the worker runs
(:data:`_MODULES`): the worker sends its fingerprint first, and this
process recomputes its own whenever a module of the package was
replaced, reloaded or patched.  Until the two agree the worker's answers
are not used.  Audits of any other handle, such as an ``extern:`` rule,
a closure or a rule of the caller's own, run in this process, as do all
audits on one CPU and audits with no samples.

The worker runs at the lowest scheduling priority, so it only takes a
CPU that would otherwise idle, and this process never waits on it: a
request the worker has no room for yet is not sent, and its chunks are
decided here.  Sixteen chunks keep the part of an audit that both
processes may decide small.  When the audit ends, a worker that is still
deciding its chunks is told to stop at the next chunk boundary.
"""

from __future__ import annotations

import atexit
import io
import os
import pickle
import sys
import types
from typing import Optional

_CHUNKS = 16
# The modules that decide samples, fingerprinted in both processes.
_MODULES = tuple(
    "intervalagg." + name
    for name in ("core", "rules", "transforms", "preferences", "axioms")
)
# Where the live worker of this process is kept: on ``sys``, so that a
# fresh import of the package finds and reuses it instead of starting
# another.
_HOME = "_intervalagg_sample_worker"
# The worker's command: argv[1] names the modules, the rest of argv is
# prepended to its import path.
_SERVE = (
    "import sys; sys.path[:0] = sys.argv[2:]; "
    "from intervalagg._worker import _serve; _serve(tuple(sys.argv[1].split(',')))"
)


def _usable_cpus() -> int:
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _import_paths() -> list[str]:
    """Where the worker imports :data:`_MODULES` from: the directory this
    process imported the package from."""
    return [os.path.dirname(os.path.dirname(os.path.abspath(__file__)))]


class _Worker:
    """The live worker: its pid, the write end of its request pipe and the
    read end of its reply pipe.  ``fingerprint`` is None until the worker
    has sent it; ``spawned_for`` is this process's fingerprint when the
    worker was started."""

    def __init__(self, pid: int, requests: int, replies: int, spawned_for: str) -> None:
        import threading

        self.pid = pid
        self.owner = os.getpid()
        self.requests = requests
        self.replies = replies
        self.spawned_for = spawned_for
        self.fingerprint: Optional[str] = None
        self.sequence = 0
        self.lock = threading.Lock()

    def close(self, kill: bool) -> None:
        """Close this process's pipe ends, once; with ``kill``, also end
        the worker and reap it."""
        if self.requests < 0:
            return
        os.close(self.requests)
        os.close(self.replies)
        self.requests = self.replies = -1
        if kill:
            import signal

            try:
                os.kill(self.pid, signal.SIGKILL)
                os.waitpid(self.pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass  # reaped elsewhere, by a SIGCHLD handler say


def _live() -> Optional[_Worker]:
    worker = getattr(sys, _HOME, None)
    return worker if worker is not None and worker.owner == os.getpid() else None


def _stop(worker: Optional[_Worker] = None) -> None:
    """End ``worker``, by default the live worker of this process, if it
    has one."""
    worker = worker or _live()
    if worker is not None:
        if getattr(sys, _HOME, None) is worker:
            delattr(sys, _HOME)
        worker.close(kill=True)


def _forget() -> None:
    """In a child forked from this process: let go of the parent's worker
    without touching it, so it still sees EOF when the parent exits."""
    worker = getattr(sys, _HOME, None)
    if worker is not None:
        delattr(sys, _HOME)
        worker.close(kill=False)


# This process ends its worker at exit; a child forked from it lets go.
atexit.register(_stop)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget)


def _spawn(fingerprint: str) -> Optional[_Worker]:
    """Start a worker, None if that fails."""
    requests_in, requests = os.pipe()
    replies, replies_out = os.pipe()
    try:
        pid = os.posix_spawn(
            sys.executable,
            [sys.executable, "-I", "-S", "-c", _SERVE, ",".join(_MODULES), *_import_paths()],
            os.environ,
            file_actions=[
                (os.POSIX_SPAWN_DUP2, requests_in, 0),
                (os.POSIX_SPAWN_DUP2, replies_out, 1),
                (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0),
            ],
        )
    except OSError:
        pid = None
    finally:
        os.close(requests_in)
        os.close(replies_out)
    if pid is None:
        os.close(requests)
        os.close(replies)
        return None
    os.set_blocking(requests, False)
    worker = _Worker(pid, requests, replies, fingerprint)
    setattr(sys, _HOME, worker)
    return worker


def parts(rule, config, total: int) -> Optional[list[tuple[int, tuple]]]:
    """``(start, result of _run_samples)`` for each chunk of the audit in
    order, up to the first that ends early, where the merge stops at the
    latest; None if the audit runs in this process instead."""
    if not total or _usable_cpus() < 2 or not hasattr(os, "posix_spawn") or not sys.executable:
        return None
    bounds = [total * k // _CHUNKS for k in range(_CHUNKS + 1)]
    ranges = list(zip(bounds, bounds[1:]))
    request = _request(rule, config, ranges)
    if request is None:
        return None
    fingerprint = _fingerprint()
    worker = _live()
    if worker is not None and not worker.lock.acquire(blocking=False):
        return None  # another thread's audit is using the worker
    if worker is not None and worker.fingerprint not in (None, fingerprint):
        if worker.spawned_for == fingerprint:
            worker.lock.release()
            return None  # the package on disk is not the code this process runs
        _stop(worker)
        worker = None
    if worker is None:
        worker = _spawn(fingerprint)
        if worker is None:
            return None
        worker.lock.acquire()
    try:
        return _decide(worker, rule, config, ranges, request, fingerprint)
    except BaseException:
        # An interrupt may have cut a frame in half: start afresh next time.
        _stop(worker)
        raise
    finally:
        worker.lock.release()


def _decide(worker, rule, config, ranges, request, fingerprint):
    """Decide the even chunks here and each odd one the worker has not
    answered when this process gets to it."""
    from .axioms import _run_samples

    worker.sequence += 1
    sequence = worker.sequence
    results: list = [None] * len(ranges)
    answered = set()
    limit = len(ranges)
    _send(worker, _frame((sequence, request)))

    def take(k: int, result: Optional[tuple] = None) -> None:
        nonlocal limit
        if result is None:
            result = _run_samples(rule, config, *ranges[k])
        results[k] = result
        if result[3] < ranges[k][1]:
            limit = min(limit, k + 1)

    def collect() -> None:
        while worker.replies >= 0:
            try:
                reply = _reply(worker.replies)
            except Exception:  # EOF, a broken frame: the worker is gone
                _stop(worker)
                return
            if reply is None:
                return
            if worker.fingerprint is None:
                worker.fingerprint = reply
            elif reply[0] == sequence and worker.fingerprint == fingerprint:
                _, k, result = reply
                answered.add(k)
                if k < limit and results[k] is None and result is not None:
                    take(k, result)

    for k in range(0, len(ranges), 2):
        if k < limit:
            take(k)
        collect()
    while True:
        collect()
        theirs = [k for k in range(1, limit, 2) if results[k] is None]
        if not theirs:
            break
        take(theirs[-1])
    if worker.requests >= 0 and not answered.issuperset(range(1, len(ranges), 2)):
        _send(worker, _frame(None))
    return [(ranges[k][0], results[k]) for k in range(limit)]


class _Pickler(pickle.Pickler):
    """Refuses any function or class whose module is not in ``shared``."""

    def reducer_override(self, obj):
        if isinstance(obj, (types.FunctionType, type)) and obj.__module__ not in self.shared:
            raise pickle.PicklingError(f"{obj!r} is not in {self.shared}")
        return NotImplemented


def _request(rule, config, ranges) -> Optional[bytes]:
    """``(rule, config, ranges)`` pickled for the worker; None if ``rule``
    reaches a function or a class from outside :data:`_MODULES`, which
    the worker would not run as this process does, does not pickle, or
    pickles too large to be sent in one write (a phantom handle of some
    hundred agents, say)."""
    import select

    buffer = io.BytesIO()
    pickler = _Pickler(buffer)
    pickler.shared = {*_MODULES, "builtins", "copyreg", "functools"}
    try:
        pickler.dump((rule, config, ranges))
    except Exception:  # closures, lambdas, open files, a rule of the caller's
        return None
    request = buffer.getvalue()
    # Room for the sequence number and the framing in one PIPE_BUF write.
    return request if len(request) <= select.PIPE_BUF - 64 else None


def _frame(message: object) -> memoryview:
    """``message`` pickled, after its length: one message on a pipe."""
    data = pickle.dumps(message)
    return memoryview(len(data).to_bytes(8, "little") + data)


def _send(worker: _Worker, frame: memoryview) -> None:
    """Write ``frame`` to the worker if its request pipe has room for it.
    The pipe does not block and ``frame`` holds at most ``PIPE_BUF``
    bytes, so the write is whole or nothing: a stopped or starved worker
    leaves its requests unread, never this process waiting."""
    try:
        os.write(worker.requests, frame)
    except BlockingIOError:
        pass  # the worker has not read the earlier ones; it gets no answer here
    except OSError:  # a broken pipe: the worker is gone
        _stop(worker)


def _reply(fd: int):
    """The next message the worker wrote on ``fd``, None if none has
    arrived yet; EOFError once the worker is gone."""
    import select

    return _read(fd) if select.select([fd], [], [], 0)[0] else None


def _read(fd: int):
    """The next :func:`_frame` on ``fd``, unpickled, waiting for it;
    EOFError once the writer is gone."""
    def exactly(size: int) -> bytes:
        chunks = []
        while size:
            chunk = os.read(fd, size)
            if not chunk:
                raise EOFError("sample worker pipe closed")
            chunks.append(chunk)
            size -= len(chunk)
        return b"".join(chunks)

    return pickle.loads(exactly(int.from_bytes(exactly(8), "little")))


# The modules last fingerprinted here, the fingerprint, and the modules
# and dicts it read with what was in them: while none of them has
# changed, neither has the fingerprint.
_fingerprinted: tuple = ((), (), "")


def _fingerprint() -> str:
    """The fingerprint of :data:`_MODULES` as this process has them."""
    global _fingerprinted
    modules, seen, fingerprint = _fingerprinted
    if modules == _MODULES and all(_unchanged(entry) for entry in seen):
        return fingerprint
    seen = []
    fingerprint = _code_fingerprint(_MODULES, seen)
    _fingerprinted = (_MODULES, seen, fingerprint)
    return fingerprint


def _unchanged(entry) -> bool:
    container, content = entry
    if isinstance(content, str):
        return sys.modules.get(content) is container
    return container == content


def _code_fingerprint(modules: tuple, seen: list) -> str:
    """A digest of the code and plain values of ``modules`` that two
    processes agree on exactly when a fresh import would decide every
    sample the same in both.  Functions and classes of those modules are
    read down to their code objects and attributes, containers down to
    their items, anything else by its type's name.  ``seen`` receives each
    module and each dict read, with what was in it."""
    import hashlib
    import importlib
    import types

    parts: list = []
    visited: set = set()

    def record(mapping) -> None:
        seen.append((mapping, dict(mapping)))

    def token(value) -> None:
        if value is None or isinstance(value, (bool, int, float, complex, str, bytes)):
            parts.append(repr(value))
        elif isinstance(value, types.CodeType):
            parts.append(repr((
                value.co_name, value.co_code, value.co_names, value.co_varnames,
                value.co_freevars, value.co_cellvars, value.co_argcount,
                value.co_posonlyargcount, value.co_kwonlyargcount, value.co_flags,
            )))
            for const in value.co_consts:
                token(const)
        elif id(value) in visited:
            parts.append("<seen>")
        elif isinstance(value, types.FunctionType) and value.__module__ in modules:
            visited.add(id(value))
            for part in (value.__code__, value.__defaults__, value.__kwdefaults__):
                token(part)
        elif isinstance(value, type) and value.__module__ in modules:
            visited.add(id(value))
            record(value.__dict__)
            for key, item in value.__dict__.items():
                if key != "__slotnames__":  # a cache pickling fills in
                    parts.append(key)
                    token(item)
        elif isinstance(value, (staticmethod, classmethod)):
            token(value.__func__)
        elif isinstance(value, property):
            for part in (value.fget, value.fset, value.fdel):
                token(part)
        elif isinstance(value, (tuple, list)):
            parts.append(type(value).__name__)
            for item in value:
                token(item)
        elif isinstance(value, (set, frozenset)):
            start = len(parts)
            for item in value:
                token(item)
            parts[start:] = sorted(parts[start:])
        elif isinstance(value, dict):
            visited.add(id(value))
            record(value)
            for key, item in value.items():
                token(key)
                token(item)
        else:
            name = getattr(value, "__qualname__", getattr(value, "__name__", ""))
            parts.append(f"{type(value).__module__}.{type(value).__qualname__}:{name}")

    for name in modules:
        module = importlib.import_module(name)
        seen.append((module, name))
        namespace = vars(module)
        record(namespace)
        for key in sorted(namespace):
            if not key.startswith("__"):
                parts.append(key)
                token(namespace[key])
    return hashlib.sha256("\0".join(parts).encode("utf-8", "surrogatepass")).hexdigest()


def _serve(modules: tuple) -> None:
    """The worker's main loop: send the fingerprint, then decide the odd
    chunks of each request, replying to each, until the next message
    arrives; until this process's stdin closes.  It leaves only by
    ``os._exit``, so it writes nothing else anywhere."""
    try:
        try:
            top = max(int(fd) for fd in os.listdir("/proc/self/fd"))
        except OSError:
            top = 1 << 16
        os.closerange(3, top + 1)
        replies = os.dup(1)
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        import select
        import signal

        signal.signal(signal.SIGINT, signal.SIG_DFL)
        # Run only on a CPU that would otherwise idle: a worker that takes
        # turns with the caller on one CPU slows the caller down.
        os.nice(19)
        from .axioms import _run_samples

        def write(message: object) -> None:
            frame = _frame(message)
            while frame:
                frame = frame[os.write(replies, frame):]

        write(_code_fingerprint(modules, []))
        while True:
            request = _read(0)  # EOFError once the caller is gone
            if request is None:
                continue  # told to stop, and already stopped
            sequence, body = request
            rule, config, ranges = pickle.loads(body)
            for k in range(1, len(ranges), 2):
                if select.select([0], [], [], 0)[0]:
                    break  # told to stop, or a newer request
                result = _run_samples(rule, config, *ranges[k])
                write((sequence, k, result if result[4] is None else None))
    finally:
        os._exit(0)
