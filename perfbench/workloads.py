"""The closed-loop workloads: ``hd_camera`` and ``tracking_batch``.

Each workload builds its inputs from the seed in :meth:`setup`, runs the
system through its public API for at least the requested seconds in
:meth:`measure`, and checks every output it got back.
"""

from __future__ import annotations

import random
import time
import tracemalloc
from dataclasses import dataclass, field, replace
from typing import Dict, List, Tuple

from benchstats import FailureTally, min_samples_for

from repro import PipelineSpec, tracking_backend_for
from repro.eval.tracking import evaluate_tracking
from repro.nn.models import build_mdnet
from repro.video.datasets import Dataset, build_tracking_dataset
from repro.video.synthetic import SequenceConfig, SequenceGenerator


@dataclass
class Measurement:
    """What one measured pass of a workload produced."""

    #: Per-frame latencies (seconds) and the tail percentile this workload reports.
    latencies_s: List[float]
    tail_fraction: float
    frames: int
    wall_s: float
    energy_per_frame_j: float
    success_rate: float
    tally: FailureTally
    #: Mean per-frame service time, compared traced vs untraced for the overhead.
    service_s: float
    #: When each latency sample was taken (``time.perf_counter``), and the
    #: timed intervals ``wall_s`` adds up; both place the samples against the
    #: speed probe.
    sample_times: List[float] = field(default_factory=list)
    windows: List[Tuple[float, float]] = field(default_factory=list)
    #: Open-loop load: throughput is the offered rate, not a speed.
    open_loop: bool = False
    #: Run facts for the printed report.
    info: Dict[str, object] = field(default_factory=dict)
    #: Inputs for the per-layer metrics (filled on every pass, used when traced):
    #: the telemetry of every processed frame and the meters that priced them.
    telemetry: list = field(default_factory=list)
    meters: list = field(default_factory=list)
    executor_wall_s: float = 0.0
    executor_shards: int = 1
    remote_records: list = field(default_factory=list)
    layer_extra: Dict[str, float] = field(default_factory=dict)


def frame_signature(result) -> list:
    """Everything a frame result says, in comparable form."""
    return [
        (frame.frame_index, frame.kind, frame.window_size,
         [(d.box, d.label, d.object_id) for d in frame.detections])
        for frame in result.frames
    ]


def check_window(result, window: int, tally: FailureTally, unit_prefix) -> None:
    """A result for every frame, I-frames exactly every ``window`` frames."""
    for position, frame in enumerate(result.frames):
        if frame.frame_index != position:
            tally.fail((*unit_prefix, position), "frame-index")
        if frame.is_inference != (position % window == 0):
            tally.fail((*unit_prefix, position), "window-schedule")


def allocation_mb_per_frame(session, frames, truths=None, warmup: int = 4) -> float:
    """Mean peak bytes allocated during one ``submit``, in MB, after ``warmup`` frames."""
    truths = truths or [None] * len(frames)
    kwargs = lambda i: {"truth": truths[i]} if truths[i] is not None else {}
    for index in range(warmup):
        session.submit(frames[index], **kwargs(index))
    samples = []
    tracemalloc.start()
    try:
        for index in range(warmup, len(frames)):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            session.submit(frames[index], **kwargs(index))
            samples.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    return sum(samples) / len(samples) / 1e6


def price_energy(spec: PipelineSpec, results) -> tuple:
    """Energy per frame of ``results``, each sequence metered as its own camera."""
    soc = spec.vision_soc()
    network = build_mdnet()
    meters = []
    for result in results:
        meter = soc.open_meter(network, label=result.sequence_name)
        meter.record_all(result.telemetry)
        meters.append(meter)
    energy = sum(meter.breakdown().total_energy_j for meter in meters)
    return energy / sum(meter.frames for meter in meters), meters


class HdCamera:
    """A few 720p one-object clips, each replayed through a fresh session."""

    name = "hd_camera"
    spec = PipelineSpec(extrapolation_window=8)
    clips = 3
    frames_per_clip = 24
    width, height = 1280, 720
    tail_fraction = 0.95
    fresh_setup_for_trace = False

    def setup(self, seed: int, seconds: float, traced: bool = False):
        clips = [
            SequenceGenerator(
                SequenceConfig(
                    name=f"hd_{index}",
                    frame_width=self.width,
                    frame_height=self.height,
                    num_frames=self.frames_per_clip,
                    num_objects=1,
                    seed=seed * 7919 + index,
                )
            ).generate()
            for index in range(self.clips)
        ]
        return {"clips": clips, "pipeline": self.spec.build(tracking_backend_for("mdnet"))}

    def teardown(self, state) -> None:
        pass

    def allocation_mb_per_frame(self, state) -> float:
        clip = state["clips"][0]
        session = state["pipeline"].open_session(source=clip)
        return allocation_mb_per_frame(session, [clip.frame(i) for i in range(12)])

    def measure(self, state, seconds: float, tracer=None, pause=None) -> Measurement:
        clips, pipeline = state["clips"], state["pipeline"]
        window = self.spec.extrapolation_window
        need = min_samples_for(self.tail_fraction)
        tally = FailureTally()
        latencies: List[float] = []
        sample_times: List[float] = []
        windows: List[Tuple[float, float]] = []
        telemetry: list = []
        first: Dict[int, object] = {}
        service = 0.0
        index = 0
        while True:
            clip_index = index % len(clips)
            clip = clips[clip_index]
            replay = index // len(clips)
            # Replays get their own session name so span frame ids stay unique.
            name = clip.name if replay == 0 else f"{clip.name}~{replay}"
            clip_start = time.perf_counter()
            session = pipeline.open_session(source=clip, name=name)
            for position in range(clip.num_frames):
                frame = clip.frame(position)
                before = time.perf_counter()
                session.submit(frame)
                latencies.append(time.perf_counter() - before)
                sample_times.append(before)
            result = session.finish()
            tally.attempt(clip.num_frames)
            unit = (clip.name, replay)
            if len(result.frames) != clip.num_frames:
                tally.fail(unit, "missing-results")
            check_window(result, window, tally, unit)
            if clip_index in first:
                if frame_signature(result) != frame_signature(first[clip_index]):
                    tally.fail(unit, "replay-mismatch")
            else:
                first[clip_index] = result
            service += sum(event.total_s for event in result.telemetry)
            telemetry.extend(result.telemetry)
            windows.append((clip_start, time.perf_counter()))
            index += 1
            elapsed = sum(end - begin for begin, end in windows)
            if elapsed >= seconds and len(latencies) >= need and len(first) == len(clips):
                break
            if pause is not None:
                pause(0.05)

        ordered = [first[i] for i in range(len(clips))]
        energy, meters = price_energy(self.spec, ordered)
        success = evaluate_tracking(ordered, Dataset("hd_camera", clips), 0.5).success_rate
        return Measurement(
            latencies_s=latencies,
            tail_fraction=self.tail_fraction,
            frames=len(latencies),
            wall_s=elapsed,
            energy_per_frame_j=energy,
            success_rate=success,
            tally=tally,
            service_s=service / len(latencies),
            sample_times=sample_times,
            windows=windows,
            info={"clip_passes": index, "spec": self.spec.describe()},
            telemetry=telemetry,
            meters=meters,
        )


class TrackingBatch:
    """The default tracking pool through ``run_dataset`` on two shard workers."""

    name = "tracking_batch"
    spec = PipelineSpec(extrapolation_window=4, exhaustive_search=True, workers=2)
    tail_fraction = 0.95
    fresh_setup_for_trace = False

    def setup(self, seed: int, seconds: float, traced: bool = False):
        pool = build_tracking_dataset()
        # The pool is fixed; the seed shuffles the order in which its
        # sequences are opened.  Streams are placed on shards round-robin, so
        # the order moves whole placement pairs: each shard keeps the same
        # share of the pool whatever the seed, and the seed changes the
        # interleaving, not the load balance.
        pairs = [list(range(i, min(i + 2, len(pool.sequences))))
                 for i in range(0, len(pool.sequences), 2)]
        random.Random(seed).shuffle(pairs)
        sequences = [pool.sequences[i] for pair in pairs for i in pair]
        return {
            "sequences": sequences,
            "pipeline": self.spec.build(tracking_backend_for("mdnet")),
            "reference": None,
        }

    def teardown(self, state) -> None:
        pass

    def _serial_pipeline(self):
        return replace(self.spec, workers=1).build(tracking_backend_for("mdnet"))

    def allocation_mb_per_frame(self, state) -> float:
        sequence = state["sequences"][0]
        session = self._serial_pipeline().open_session(source=sequence)
        return allocation_mb_per_frame(session, [sequence.frame(i) for i in range(16)])

    def reference(self, state) -> list:
        """An in-process run of the same sequences, computed once per process."""
        if state["reference"] is None:
            serial = self._serial_pipeline()
            state["reference"] = [frame_signature(r) for r in serial.run_dataset(state["sequences"])]
        return state["reference"]

    def measure(self, state, seconds: float, tracer=None, pause=None) -> Measurement:
        sequences, pipeline = state["sequences"], state["pipeline"]
        window = self.spec.extrapolation_window
        tally = FailureTally()
        passes, windows = [], []
        while True:
            begin = time.perf_counter()
            passes.append(pipeline.run_dataset(sequences))
            windows.append((begin, time.perf_counter()))
            wall = sum(end - begin for begin, end in windows)
            # Whole passes only: stop before a pass that would overrun the budget.
            if wall + (windows[-1][1] - windows[-1][0]) > seconds:
                break
            if pause is not None:
                pause(0.05)

        reference = self.reference(state)
        latencies: List[float] = []
        sample_times: List[float] = []
        for number, results in enumerate(passes):
            for sequence, result, expected in zip(sequences, results, reference):
                unit = (sequence.name, number)
                tally.attempt(sequence.num_frames)
                if len(result.frames) != sequence.num_frames:
                    tally.fail(unit, "missing-results")
                check_window(result, window, tally, unit)
                if frame_signature(result) != expected:
                    tally.fail(unit, "sharded-vs-inprocess")
                latencies.extend(event.total_s for event in result.telemetry)
                sample_times.extend(sum(windows[number]) / 2 for _ in result.telemetry)
        energy, meters = price_energy(self.spec, passes[0])
        success = evaluate_tracking(
            passes[0], Dataset("tracking_batch", sequences), 0.5
        ).success_rate
        frames = sum(len(r.frames) for results in passes for r in results)
        return Measurement(
            latencies_s=latencies,
            tail_fraction=self.tail_fraction,
            frames=frames,
            wall_s=wall,
            energy_per_frame_j=energy,
            success_rate=success,
            tally=tally,
            service_s=sum(latencies) / len(latencies),
            sample_times=sample_times,
            windows=windows,
            info={"passes": len(passes), "sequences": len(sequences), "spec": self.spec.describe()},
            telemetry=[event for results in passes for r in results for event in r.telemetry],
            meters=meters,
            executor_wall_s=wall,
            executor_shards=self.spec.workers,
        )
