"""The benchmark's own arithmetic: percentiles, span self time, open-loop
schedules and failure accounting.

Pure functions and small classes with no dependency on the system under
test, so ``perfbench/tests`` can check them in isolation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

#: A tail percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


class InsufficientSamples(ValueError):
    """Too few samples for the requested percentile."""


def samples_beyond(count: int, fraction: float) -> int:
    """Samples strictly above the nearest-rank ``fraction`` percentile."""
    return count - max(1, math.ceil(fraction * count))


def min_samples_for(fraction: float, beyond: int = MIN_SAMPLES_BEYOND) -> int:
    """Smallest sample count whose ``fraction`` percentile has ``beyond`` samples past it."""
    count = 1
    while samples_beyond(count, fraction) < beyond:
        count += 1
    return count


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest value with ``fraction`` of samples at or below it."""
    if not values:
        raise InsufficientSamples("no samples")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(fraction * len(ordered))) - 1]


def tail_percentile(
    values: Sequence[float], fraction: float, beyond: int = MIN_SAMPLES_BEYOND
) -> float:
    """``percentile`` that refuses when fewer than ``beyond`` samples lie past it."""
    have = samples_beyond(len(values), fraction)
    if have < beyond:
        raise InsufficientSamples(
            f"p{fraction * 100:g} of {len(values)} samples has {have} beyond it "
            f"(need {beyond}, i.e. >= {min_samples_for(fraction, beyond)} samples)"
        )
    return percentile(values, fraction)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Span:
    """One timed call at a layer boundary."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: float
    frame: Optional[str] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """span id -> duration minus the part of it that child spans cover."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    by_id = {span.span_id: span for span in spans}
    for span in spans:
        parent = by_id.get(span.parent_id) if span.parent_id is not None else None
        if parent is None:
            continue
        start = max(span.start, parent.start)
        end = min(span.end, parent.end)
        if end > start:
            children.setdefault(parent.span_id, []).append((start, end))
    return {
        span.span_id: span.duration - covered_length(children.get(span.span_id, ()))
        for span in spans
    }


def self_time_by_name(spans: Iterable[Span]) -> Dict[str, float]:
    """Summed self time per span name."""
    spans = list(spans)
    own = self_times(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + own[span.span_id]
    return totals


# ----------------------------------------------------------------------
# Open-loop load
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Send:
    """One frame a camera is due to send, ``due_s`` after the load starts."""

    due_s: float
    camera: int
    seq: int


#: Largest seeded jitter of a camera's phase, as a share of its slot.
PHASE_JITTER = 0.1


def phase_offsets(cameras: int, fps: float, seed: int) -> List[float]:
    """Seeded per-camera start offsets within one frame period.

    The period is cut into one slot per camera; the seed shuffles cameras
    over slots and jitters each a little within its slot.  The schedule
    repeats every period, so close phases would make the same frames
    collide all run long and the tail would depend on the seed; evenly
    spread slots keep every seed's load shape alike.
    """
    rng = random.Random(seed)
    slots = list(range(cameras))
    rng.shuffle(slots)
    width = 1.0 / fps / cameras
    return [(slot + PHASE_JITTER * rng.random()) * width for slot in slots]


def open_loop_schedule(
    phases: Sequence[float], fps: float, frames: int
) -> List[Send]:
    """Every send of every camera, in due order: camera ``c`` frame ``k`` is
    due at ``phases[c] + k / fps`` whatever happened to earlier frames."""
    sends = [
        Send(phase + seq / fps, camera, seq)
        for camera, phase in enumerate(phases)
        for seq in range(frames)
    ]
    sends.sort(key=lambda send: (send.due_s, send.camera))
    return sends


def latency_from_due(due_s: float, done_s: float) -> float:
    """Open-loop latency: measured from when the request was due, not sent,
    so a stalled generator's lateness counts against the system."""
    return done_s - due_s


# ----------------------------------------------------------------------
# Failure accounting
# ----------------------------------------------------------------------
@dataclass
class FailureTally:
    """Failed units out of attempted ones; a unit failing twice counts once."""

    attempted: int = 0
    reasons: Dict[str, int] = field(default_factory=dict)
    _failed: Dict[Hashable, List[str]] = field(default_factory=dict)

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, unit: Hashable, reason: str) -> None:
        self.reasons[reason] = self.reasons.get(reason, 0) + 1
        self._failed.setdefault(unit, []).append(reason)

    @property
    def failed(self) -> int:
        return len(self._failed)

    @property
    def failed_frac(self) -> float:
        if self.attempted <= 0:
            raise ValueError("nothing was attempted")
        return self.failed / self.attempted

    def examples(self, limit: int = 5) -> List[str]:
        return [f"{unit}: {', '.join(why)}" for unit, why in list(self._failed.items())[:limit]]
