#!/usr/bin/env python
"""Append a multi-stream throughput measurement to ``BENCH_motion.json``.

Run from the repository root:

    PYTHONPATH=src python benchmarks/run_stream_bench.py               # full preset
    PYTHONPATH=src python benchmarks/run_stream_bench.py --preset ci
    PYTHONPATH=src python benchmarks/run_stream_bench.py --streams 8 --frames 48

The benchmark feeds N synthetic camera streams through the
:class:`~repro.core.streaming.StreamMultiplexer` (fair-share E-frame
interleaving, batched I-frame inference) and records, per run:

* aggregate throughput (frames/sec across all streams) and wall time;
* per-stream mean service latency and queue wait;
* I-frame batching statistics (batch count, mean batch size);
* the serial one-stream-after-another baseline for the same workload, and
  the multiplexed/serial throughput ratio (~1.0 on one core — the
  multiplexer adds scheduling, not parallelism — but the entry tracks the
  scheduling overhead staying negligible);
* the worker-shard count and resolved frame-transport mode (the spec's
  ``--exec-workers 2`` runs the same workload over worker processes with
  frames crossing the shared-memory transport; outputs are bit-identical,
  so the entry isolates the transport/scheduling overhead).

Each run **appends** a dated ``benchmark: "multi_stream"`` entry to the same
trajectory file the motion bench uses, so the perf history of both hot
paths accumulates in one place.  The pipeline configuration is a
:class:`~repro.core.spec.PipelineSpec` taken from the standard spec flags
(``--window``, ``--block-size``, ...); the recorded entry stores
``spec.to_cli_args()`` so any measurement can be reproduced by pasting the
flags back.

``--guard`` enforces this bench's row of the floor table in
``benchmarks/guard.py``: the ceiling on each stream's modeled energy per
frame.
"""

from __future__ import annotations

import sys
import time

import guard
from repro.core.backends import tracking_backend_for
from repro.core.spec import PipelineSpec
from repro.core.streaming import SCHEDULING_POLICIES, StreamMultiplexer
from repro.nn.models import build_mdnet
from repro.video.synthetic import SequenceConfig, SequenceGenerator

#: Presets: name -> (streams, frames per stream, frame width, frame height).
PRESETS = {
    "full": (4, 60, 192, 108),
    # Small CI preset: enough frames for several full EW cycles per stream.
    "ci": (4, 24, 192, 108),
}

#: Max consecutive E-frames per stream per scheduling round.
E_FRAME_BURST = 4
#: Max I-frames grouped into one inference batch.
MAX_INFERENCE_BATCH = 4


def make_streams(count: int, frames: int, width: int, height: int, seed: int):
    """N single-object synthetic camera streams with distinct content."""
    return [
        SequenceGenerator(
            SequenceConfig(
                name=f"camera_{index}",
                frame_width=width,
                frame_height=height,
                num_frames=frames,
                num_objects=1,
                seed=seed + index,
            )
        ).generate()
        for index in range(count)
    ]


def benchmark_multiplexer(
    spec: PipelineSpec,
    streams: int,
    frames: int,
    width: int,
    height: int,
    seed: int,
    policy: str = "fair",
) -> dict:
    sequences = make_streams(streams, frames, width, height, seed)
    backend = tracking_backend_for("mdnet", seed=seed)

    # Serial baseline: each stream through its own dedicated session, one
    # after the other (what the pre-multiplexer API amounted to).  Sessions
    # are opened outside the timed region so both sides of the ratio
    # measure frame processing only — the multiplexer's wall_s likewise
    # covers drain(), with session setup done in untimed add_stream().
    serial_sessions = [
        spec.build(tracking_backend_for("mdnet", seed=seed)).open_session(source=sequence)
        for sequence in sequences
    ]
    # Warm-up: run one stream through a throwaway session so neither timed
    # region pays first-call costs (allocator, code paths) — the serial
    # region runs first and would otherwise absorb them all.
    warmup = spec.build(tracking_backend_for("mdnet", seed=seed)).open_session(
        source=sequences[0]
    )
    for _, frame in sequences[0].iter_frames():
        warmup.submit(frame)
    warmup.finish()

    serial_start = time.perf_counter()
    for session, sequence in zip(serial_sessions, sequences):
        for _, frame in sequence.iter_frames():
            session.submit(frame)
        session.finish()
    serial_s = time.perf_counter() - serial_start
    total_frames = sum(sequence.num_frames for sequence in sequences)

    # Multiplexed: all streams concurrently through one scheduler, with the
    # spec's SoC model attached so every frame is priced as it is processed
    # (batched I-frames amortise NNX weight traffic across streams).
    multiplexer = StreamMultiplexer(
        spec.build(backend),
        e_frame_burst=E_FRAME_BURST,
        max_inference_batch=MAX_INFERENCE_BATCH,
        policy=policy,
        soc=spec.vision_soc(),
        network=build_mdnet(),
        extrapolation_on_cpu=spec.extrapolation_on_cpu,
        workers=spec.workers,
        transport=spec.transport,
    )
    for sequence in sequences:
        stream_id = multiplexer.add_stream(sequence)
        multiplexer.feed_sequence(stream_id, sequence)
    results = multiplexer.finish()
    report = multiplexer.report()
    assert all(len(results[s.name]) == s.num_frames for s in sequences)

    return {
        "benchmark": "multi_stream",
        "spec": spec.to_cli_args(),
        "spec_label": spec.describe(),
        "policy": policy,
        "streams": streams,
        "frames_per_stream": frames,
        "frame_width": width,
        "frame_height": height,
        "e_frame_burst": E_FRAME_BURST,
        "max_inference_batch": MAX_INFERENCE_BATCH,
        "workers": report.workers,
        "transport": report.transport,
        "total_frames": report.frames_processed,
        "inference_frames": report.inference_frames,
        "extrapolation_frames": report.extrapolation_frames,
        "inference_batches": report.inference_batches,
        "mean_batch_size": report.mean_batch_size,
        "mux_wall_s": report.wall_s,
        "mux_aggregate_fps": report.aggregate_fps,
        "serial_wall_s": serial_s,
        "serial_aggregate_fps": total_frames / serial_s if serial_s > 0 else 0.0,
        "mux_vs_serial": (serial_s / report.wall_s) if report.wall_s > 0 else 0.0,
        # Modeled SoC energy (deterministic for a given spec + workload):
        # per-stream energy-per-frame plus the multi-camera aggregate.  The
        # aggregate is the exact shared-SoC figure (static power settled
        # once across streams); the per-stream sum is kept as the upper
        # bound it historically reported.
        "aggregate_energy_per_frame_mj": report.aggregate_energy_per_frame_j * 1e3,
        "aggregate_energy_upper_bound_mj": (
            report.aggregate_energy_upper_bound_j * 1e3
        ),
        "aggregate_power_w": report.aggregate_power_w,
        "per_stream": [
            {
                "name": stats.name,
                "frames": stats.frames_processed,
                "inference_rate": stats.inference_rate,
                "mean_service_latency_ms": stats.mean_service_latency_s * 1e3,
                "mean_queue_wait_ms": stats.mean_queue_wait_s * 1e3,
                "max_queue_depth": stats.max_queue_depth,
                "energy_per_frame_mj": (
                    report.stream_energy[stats.name].energy_per_frame_j * 1e3
                ),
                "soc_power_w": (
                    report.stream_energy[stats.name].total_energy_j
                    / report.stream_energy[stats.name].wall_time_s
                ),
            }
            for stats in report.streams
        ],
    }


def add_options(parser) -> None:
    parser.add_argument("--streams", type=int, default=None, help="override stream count")
    parser.add_argument(
        "--frames", type=int, default=None, help="override frames per stream"
    )
    parser.add_argument("--seed", type=int, default=0, help="content seed (default: 0)")
    parser.add_argument(
        "--policy",
        choices=list(SCHEDULING_POLICIES),
        default="fair",
        help="scheduling policy (default: fair)",
    )
    PipelineSpec.add_cli_options(parser)


def measure(args) -> dict:
    streams, frames, width, height = PRESETS[args.preset]
    return benchmark_multiplexer(
        PipelineSpec.from_cli_args(args),
        streams=args.streams or streams,
        frames=args.frames or frames,
        width=width,
        height=height,
        seed=args.seed,
        policy=args.policy,
    )


def summarize(entry: dict) -> None:
    print(
        f"  {entry['streams']} streams x {entry['frames_per_stream']} frames "
        f"({entry['spec_label']}, "
        f"{entry['workers']} worker(s), {entry['transport']} transport): "
        f"mux {entry['mux_aggregate_fps']:.1f} fps aggregate "
        f"({entry['mux_vs_serial']:.2f}x serial), "
        f"{entry['inference_batches']} I-batches, "
        f"mean batch {entry['mean_batch_size']:.2f}"
    )
    for stream in entry["per_stream"]:
        print(
            f"    {stream['name']}: {stream['frames']} frames, "
            f"{stream['inference_rate']:.2f} I-rate, "
            f"{stream['mean_service_latency_ms']:.2f} ms/frame service, "
            f"{stream['mean_queue_wait_ms']:.1f} ms mean queue wait, "
            f"{stream['energy_per_frame_mj']:.2f} mJ/frame modeled"
        )
    print(
        f"  aggregate: {entry['aggregate_energy_per_frame_mj']:.2f} mJ/frame, "
        f"{entry['aggregate_power_w']:.2f} W modeled SoC power"
    )


if __name__ == "__main__":
    sys.exit(guard.main(__doc__, PRESETS, measure, summarize, add_options))
