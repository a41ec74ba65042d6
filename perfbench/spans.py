"""Span recording around public entry points of the system under test.

:class:`Tracer` keeps spans in memory (name, start, end, parent span, frame
id, optional work counts) and :func:`instrument` wraps methods or module
functions so each call records one span.  Wrappers are observe-only: they
pass arguments and results through untouched.

Processes forked while a tracer is installed (the executor's shard workers)
inherit the wrappers; there each finished root span is appended to
``spans-<pid>.jsonl`` in the tracer's spill directory, and the parent
reads those files back with :func:`load_spilled`.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, List, Optional, Sequence, Tuple

from benchstats import Span

#: In-memory span record: (id, parent, name, start, end, frame, attrs, pid).
Record = Tuple[int, Optional[int], str, float, float, Optional[str], Optional[dict], int]

_SPILL_PREFIX = "spans-"


class Tracer:
    """Collects spans from every thread of this process (and forked children)."""

    def __init__(self, spill_dir: Optional[Path] = None) -> None:
        self.spill_dir = spill_dir
        self.records: List[Record] = []
        self._local = threading.local()
        self._pid = os.getpid()
        self._ids = itertools.count(1)
        self._spill = None
        self.active = False
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        if not self.active:
            return
        self._pid = os.getpid()
        self._ids = itertools.count(1)
        self.records = []
        self._local = threading.local()
        if self.spill_dir is not None:
            path = self.spill_dir / f"{_SPILL_PREFIX}{self._pid}.jsonl"
            self._spill = open(path, "a", encoding="utf-8")

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(
        self,
        name: str,
        fn: Callable,
        args: tuple,
        kwargs: dict,
        frame: Optional[str] = None,
        after: Optional[Callable[[tuple, Any], dict]] = None,
    ):
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = self._pid * 1_000_000_000 + next(self._ids)
        if frame is None and parent is not None:
            frame = parent[1]
        stack.append((span_id, frame))
        attrs = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        if after is not None:
            attrs = after(args, result)
            frame = attrs.pop("frame", frame)
        self.records.append(
            (span_id, parent[0] if parent else None, name, start, end, frame, attrs, self._pid)
        )
        if self._spill is not None and not stack:
            self._flush_spill()
        return result

    def _flush_spill(self) -> None:
        for record in self.records:
            self._spill.write(json.dumps(record_to_json(record)) + "\n")
        self._spill.flush()
        self.records = []

    def add(self, name: str, start: float, end: float, frame: Optional[str] = None) -> None:
        """Record a span measured by the caller (e.g. a client-side wait)."""
        span_id = self._pid * 1_000_000_000 + next(self._ids)
        self.records.append((span_id, None, name, start, end, frame, None, self._pid))


def span_cost_s(calls: int = 20000) -> float:
    """Measured extra seconds one wrapped call costs over the bare call."""

    class Probe:
        def work(self):
            return None

    probe = Probe()
    start = time.perf_counter()
    for _ in range(calls):
        probe.work()
    bare = time.perf_counter() - start
    with Instrumentation(Tracer(), [Target(Probe, "work", "probe")]):
        start = time.perf_counter()
        for _ in range(calls):
            probe.work()
        wrapped = time.perf_counter() - start
    return max(0.0, wrapped - bare) / calls


def record_to_json(record: Record) -> dict:
    span_id, parent, name, start, end, frame, attrs, pid = record
    out = {"id": span_id, "parent": parent, "name": name, "start": start,
           "end": end, "frame": frame, "pid": pid}
    if attrs:
        out["attrs"] = attrs
    return out


def record_from_json(item: dict) -> Record:
    return (item["id"], item["parent"], item["name"], item["start"], item["end"],
            item["frame"], item.get("attrs"), item["pid"])


def load_spilled(spill_dir: Path) -> List[Record]:
    """Spans written by forked children, removing the files read."""
    records: List[Record] = []
    for path in sorted(spill_dir.glob(f"{_SPILL_PREFIX}*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            records.extend(record_from_json(json.loads(line)) for line in handle if line.strip())
        path.unlink()
    return records


def as_spans(records: Sequence[Record]) -> List[Span]:
    return [Span(r[0], r[1], r[2], r[3], r[4], r[5]) for r in records]


@dataclass(frozen=True)
class Target:
    """One entry point to wrap: ``owner.attr`` recorded as span ``name``.

    ``frame(args)`` names the frame a root call belongs to (children inherit
    their parent's); ``after(args, result)`` returns work counts to attach,
    optionally overriding the frame id under key ``"frame"``.
    """

    owner: Any
    attr: str
    name: str
    frame: Optional[Callable[[tuple], str]] = None
    after: Optional[Callable[[tuple, Any], dict]] = None


class Instrumentation:
    """Installed wrappers; :meth:`remove` restores the originals."""

    def __init__(self, tracer: Tracer, targets: Sequence[Target]) -> None:
        self.tracer = tracer
        self._saved: List[Tuple[Any, str, Any]] = []
        for target in targets:
            self._wrap(target)
        tracer.active = True

    def _wrap(self, target: Target) -> None:
        owner, attr = target.owner, target.attr
        original = getattr(owner, attr)
        tracer, name, frame_of, after = self.tracer, target.name, target.frame, target.after

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            frame = frame_of(args) if frame_of is not None else None
            return tracer.call(name, original, args, kwargs, frame, after)

        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        self.tracer.active = False

    def __enter__(self) -> "Instrumentation":
        return self

    def __exit__(self, *exc_info) -> None:
        self.remove()


def overriding_classes(base: type, attr: str) -> List[type]:
    """``base`` and every subclass that defines ``attr`` itself."""
    found, pending = [], [base]
    while pending:
        cls = pending.pop()
        if attr in cls.__dict__ and not getattr(cls.__dict__[attr], "__isabstractmethod__", False):
            found.append(cls)
        pending.extend(cls.__subclasses__())
    return found
