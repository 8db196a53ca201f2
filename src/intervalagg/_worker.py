"""The sample worker: a second Python process that decides part of a range.

A range function is a generator function of the package that yields one
outcome per position: ``decide(*args, start, stop)`` for positions
``start`` to ``stop - 1``, in order.  The package has two, an audit's
samples and identification's confirmations.  :func:`parts` returns one
stream that yields and raises what ``decide(*args, 0, total)`` would,
decided in sixteen equal chunks no other module sees: the even ones
here, the odd ones in order by one worker process per calling process,
which writes each result back on a pipe.  This process then takes over,
from the last back, every odd chunk not yet answered, so it never waits:
a slow or busy worker costs only its chunks, a dying one the restart.

The worker is a fresh interpreter, started with ``os.posix_spawn`` at the
first audit that can use it (identification only uses a live one) and
is kept until this process exits; a forked child lets go of it.  It inherits
no descriptor but its two pipes and no state: it imports the package
from the directory this process imported it from.  It can therefore
decide only what a fresh import can: requests whose every function and
class is a built-in of the package and that pickle small enough for one
pipe write (:func:`_request`), and only while this process runs the same
package code as the worker.  That code is compared by fingerprint: the
modification time and size of the file of every module the worker runs
(:data:`_MODULES`), as recorded at import (:func:`intervalagg._record`).
The worker sends its own first.  This process has none while one of its
modules has no record or no longer holds what it held at import
(patched, say), and then decides every range itself.  The worker's
answers are used only while the two agree.  A worker that runs other
code than this process, its files edited before it imported them or
re-imported here after an edit, is kept unused until this process exits.
Any other request, one that reaches an ``extern:``
command, a closure or a function of the caller's own, say, is decided
in this process, as are all ranges on one CPU and empty ranges.

The worker runs at the lowest scheduling priority, so it only takes a
CPU that would otherwise idle, and this process never waits on it: a
request the worker has no room for yet is not sent, and its chunks are
decided here.  Sixteen chunks keep the part of a range that both
processes may decide small.  When this process has every chunk, a worker
that is still deciding its chunks is told to stop at the next boundary.
"""

from __future__ import annotations

import atexit
import io
import os
import pickle
import sys
import types
from typing import Iterator, Optional

from . import _EXPORTS, _identity

_CHUNKS = 16
# The modules that decide samples, compared in both processes: every
# submodule that defines a public name.
_MODULES = tuple("intervalagg." + name for name in dict.fromkeys(_EXPORTS.values()))
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
    has sent it."""

    def __init__(self, pid: int, requests: int, replies: int) -> None:
        import threading

        self.pid = pid
        self.requests = requests
        self.replies = replies
        self.fingerprint: Optional[tuple] = None
        self.sequence = 0
        self.lock = threading.Lock()


def _live() -> Optional[_Worker]:
    return getattr(sys, _HOME, None)


def _stop(worker: Optional[_Worker] = None, kill: bool = True) -> None:
    """Let go of ``worker`` (by default the live worker of this process, if
    any), once: close this process's ends of its pipes and, with ``kill``,
    end the worker and reap it.  A child forked from this process lets go
    without ``kill``, so the worker still sees EOF when this process exits."""
    worker = worker or _live()
    if worker is None or worker.requests < 0:
        return
    if _live() is worker:
        delattr(sys, _HOME)
    os.close(worker.requests)
    os.close(worker.replies)
    worker.requests = worker.replies = -1
    if kill:
        import signal

        try:
            os.kill(worker.pid, signal.SIGKILL)
            os.waitpid(worker.pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass  # reaped elsewhere, by a SIGCHLD handler say


# This process ends its worker at exit; a child forked from it lets go.
atexit.register(_stop)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=lambda: _stop(kill=False))


def _spawn() -> Optional[_Worker]:
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
    worker = _Worker(pid, requests, replies)
    setattr(sys, _HOME, worker)
    return worker


def parts(decide, args: tuple, total: int) -> Optional[Iterator]:
    """One stream of the outcomes of positions 0 to ``total - 1``, raising
    where ``decide(*args, 0, total)`` would; None if the range is to be
    decided in this process instead."""
    if not total or _usable_cpus() < 2 or not hasattr(os, "posix_spawn") or not sys.executable:
        return None
    bounds = [total * k // _CHUNKS for k in range(_CHUNKS + 1)]
    ranges = list(zip(bounds, bounds[1:]))
    request = _request(decide, args, ranges)
    if request is None:
        return None
    fingerprint = _fingerprint()
    if fingerprint is None:
        return None  # this process no longer runs the code it imported
    worker = _live()
    if worker is not None and worker.fingerprint not in (None, fingerprint):
        return None  # the worker runs other code than this process
    if worker is not None and not worker.lock.acquire(blocking=False):
        return None  # another thread is using the worker
    if worker is None:
        worker = _spawn()
        if worker is None:
            return None
        worker.lock.acquire()
    try:
        return _decide(worker, decide, args, ranges, request, fingerprint)
    except BaseException:
        # An interrupt may have cut a frame in half: start afresh next time.
        _stop(worker)
        raise
    finally:
        worker.lock.release()


def _decided(decide, args: tuple, start: int, stop: int) -> tuple[list, Optional[Exception]]:
    """The outcomes ``decide(*args, start, stop)`` yields up to the first
    exception it raises, and that exception (None if none)."""
    outcomes: list = []
    try:
        for outcome in decide(*args, start, stop):
            outcomes.append(outcome)
    except Exception as error:
        return outcomes, error
    return outcomes, None


def _decide(worker, decide, args, ranges, request, fingerprint):
    """Decide the even chunks here and each odd one the worker has not
    answered when this process gets to it, then chain them."""
    worker.sequence += 1
    sequence = worker.sequence
    results: list = [None] * len(ranges)
    answered = set()
    _send(worker, _frame((sequence, request)))

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
                _, k, outcomes = reply
                answered.add(k)
                if results[k] is None and outcomes is not None:
                    results[k] = (outcomes, None)

    for k in range(0, len(ranges), 2):
        results[k] = _decided(decide, args, *ranges[k])
        collect()
    while True:
        collect()
        theirs = [k for k in range(1, len(ranges), 2) if results[k] is None]
        if not theirs:
            break
        results[theirs[-1]] = _decided(decide, args, *ranges[theirs[-1]])
    if worker.requests >= 0 and not answered.issuperset(range(1, len(ranges), 2)):
        _send(worker, _frame(None))
    return _chained(results)


def _chained(results) -> Iterator:
    """Each ``(outcomes, raised)`` in order: the outcomes, then ``raised``."""
    for outcomes, raised in results:
        yield from outcomes
        if raised is not None:
            raise raised


class _Pickler(pickle.Pickler):
    """Refuses any function or class whose module is not in ``shared``."""

    def reducer_override(self, obj):
        if isinstance(obj, (types.FunctionType, type)) and obj.__module__ not in self.shared:
            raise pickle.PicklingError(f"{obj!r} is not in {self.shared}")
        return NotImplemented


def _request(decide, args: tuple, ranges) -> Optional[bytes]:
    """``(args, decide, ranges)`` pickled for the worker; None if it
    reaches a function or a class from outside :data:`_MODULES`, which the
    worker would not run as this process does, does not pickle, or pickles
    too large to be sent in one write (a phantom handle of some hundred
    agents, say).  ``args`` go first: pickling ``decide`` imports its
    module, so a superseded copy of the package must fail on ``args``
    before it imports a module of the newer copy."""
    import select

    buffer = io.BytesIO()
    pickler = _Pickler(buffer)
    pickler.shared = {*_MODULES, "builtins", "copyreg", "functools"}
    try:
        pickler.dump((args, decide, ranges))
    except Exception:  # closures, lambdas, open files, a function of the caller's
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


def _fingerprint(modules: tuple = ()) -> Optional[tuple]:
    """The fingerprint of ``modules`` (by default :data:`_MODULES`), their
    files' identities at import (:func:`intervalagg._identity`); None once
    one no longer holds what it held then, or has no file."""
    identities = tuple(map(_identity, modules or _MODULES))
    return None if None in identities else identities


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

        def write(message: object) -> None:
            frame = _frame(message)
            while frame:
                frame = frame[os.write(replies, frame):]

        write(_fingerprint(modules))
        while True:
            request = _read(0)  # EOFError once the caller is gone
            if request is None:
                continue  # told to stop, and already stopped
            sequence, body = request
            args, decide, ranges = pickle.loads(body)
            for k in range(1, len(ranges), 2):
                if select.select([0], [], [], 0)[0]:
                    break  # told to stop, or a newer request
                outcomes, raised = _decided(decide, args, *ranges[k])
                write((sequence, k, outcomes if raised is None else None))
    finally:
        os._exit(0)
