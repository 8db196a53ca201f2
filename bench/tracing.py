"""In-memory span recorder for the traced benchmark run.

Spans are recorded only from the benchmark's own files: around each op,
around direct calls into a library module, and inside rule handles the
benchmark built itself and wrapped with :func:`wrap_handle`.  Nothing in
``intervalagg`` is patched.  A span holds its name, start and end
(``perf_counter_ns``), the index of the span that was open when it began
and the id of the op it belongs to (-1 outside the timed ops).  Spans stay
in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
from time import perf_counter_ns


class Recorder:
    """Single-threaded span store with a stack of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self._stack: list[int] = []
        self.op_id = -1
        # Hashes of (profile, outcome) per rule-evaluation span, keyed by
        # span index; they feed the wasted-work ratios.
        self.eval_keys: dict[int, tuple[int, int]] = {}

    def begin(self, name: str) -> int:
        index = len(self.start)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(perf_counter_ns())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = perf_counter_ns()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while span {popped} was open")

    def __len__(self) -> int:
        return len(self.start)

    def duration(self, index: int) -> int:
        return self.end[index] - self.start[index]

    def select(self, prefix: str, first: int = 0, last: int | None = None) -> list[int]:
        """Indices of spans whose name starts with ``prefix``."""
        stop = len(self.start) if last is None else last
        return [i for i in range(first, stop) if self.names[i].startswith(prefix)]

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for i in range(len(self.start)):
                handle.write(
                    json.dumps(
                        [self.names[i], self.start[i], self.end[i], self.parent[i], self.op[i]]
                    )
                )
                handle.write("\n")


def self_times(
    start: list[int], end: list[int], parent: list[int]
) -> list[int]:
    """Each span's duration minus the part of it that its children cover.

    Children may overlap one another; the covered part is the union of
    their intervals clipped to the parent, so no time is subtracted twice.
    """
    children: dict[int, list[int]] = {}
    for index, up in enumerate(parent):
        if up >= 0:
            children.setdefault(up, []).append(index)
    result = []
    for index in range(len(start)):
        lo, hi = start[index], end[index]
        covered = 0
        reach = lo
        for child in sorted(children.get(index, ()), key=start.__getitem__):
            a = max(start[child], reach)
            b = min(end[child], hi)
            if b > a:
                covered += b - a
                reach = b
        result.append(hi - lo - covered)
    return result


def rule_kind(name: str) -> str:
    """Rule family of a handle name: endpoint, median, maximal, phantoms, ..."""
    return name.split(":", 1)[0].split("[", 1)[0]


def wrap_handle(handle, recorder: Recorder):
    """A handle with the same name whose evaluations are recorded as spans.

    The wrapper times the wrapped call and, after closing the span,
    stores hashes of the profile and the outcome so distinct-input and
    distinct-outcome ratios can be counted without keeping the profiles.
    """
    evaluate = handle.evaluate
    span_name = "rules.eval." + rule_kind(handle.name)

    def traced(profile):
        index = recorder.begin(span_name)
        try:
            outcome = evaluate(profile)
        finally:
            recorder.finish(index)
        recorder.eval_keys[index] = (hash(profile), hash(outcome))
        return outcome

    return type(handle)(handle.name, traced)
