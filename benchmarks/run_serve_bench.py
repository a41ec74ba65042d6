#!/usr/bin/env python
"""Append a network-serving latency measurement to ``BENCH_motion.json``.

Run from the repository root:

    PYTHONPATH=src python benchmarks/run_serve_bench.py                 # full preset
    PYTHONPATH=src python benchmarks/run_serve_bench.py --preset ci --faults drop,reorder
    PYTHONPATH=src python benchmarks/run_serve_bench.py --preset demo64 --faults drop,reorder

The benchmark is a load generator against the real TCP serving stack
(:class:`~repro.core.server.EuphratesServer` over
:class:`~repro.core.ingest.IngestCore` over the sharded execution core):
N synthetic cameras connect, are admitted against the
:class:`~repro.soc.frame_cost.CapacityModel` M/D/1 budget, and replay
their frames with configurable injected faults:

* ``drop``    — each frame is lost in flight with probability ``--drop-rate``;
* ``reorder`` — adjacent frames swap places with probability ``--reorder-rate``;
* ``burst``   — with probability :data:`BURST_RATE` a camera sends its next
  three frames back-to-back instead of round-robin pacing.

Per run the entry records client-observed p50/p99 result-ack latency,
per-stream modeled energy (the graceful drain settles the shared SoC pool,
so the aggregate is the *exact* shared-static-power figure), and the
server-side fault counters (gaps sealed, duplicates, late drops,
reorderings, overload drops).  ``--guard`` enforces this bench's rows of
the floor table in ``benchmarks/guard.py``: the p99 latency ceiling, and at
least one result ack.
"""

from __future__ import annotations

import argparse
import random
import sys
import time

import guard
from repro.core.backends import tracking_backend_for
from repro.core.ingest import IngestConfig, IngestCore
from repro.core.server import ServeClient, ServerThread
from repro.core.spec import PipelineSpec
from repro.core.streaming import StreamMultiplexer
from repro.nn.models import build_mdnet
from repro.soc.frame_cost import CapacityModel
from repro.video.synthetic import SequenceConfig, SequenceGenerator

#: Presets: name -> (cameras, frames per camera, frame width, frame height).
PRESETS = {
    "full": (16, 48, 96, 54),
    # Small CI preset: exercises the full network path in seconds.
    "ci": (6, 24, 96, 54),
    # Acceptance demo: 64 concurrent cameras on one shared backend.
    "demo64": (64, 24, 96, 54),
}

FAULT_KINDS = ("drop", "reorder", "burst")

#: Probability a camera bursts 3 frames per round under the burst fault.
BURST_RATE = 0.1
#: Per-stream bounded ready-queue depth, and what a full queue does.
QUEUE_CAPACITY = 32
OVERLOAD_POLICY = "degrade"
#: Fraction of the capacity budget the fleet declares.
TARGET_UTILIZATION = 0.9


def make_cameras(count: int, frames: int, width: int, height: int, seed: int):
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


def fault_schedule(
    frames: int,
    faults: set,
    rng: random.Random,
    drop_rate: float,
    reorder_rate: float,
) -> list:
    """The seqs one camera actually sends, in arrival order."""
    seqs = list(range(frames))
    if "drop" in faults:
        seqs = [s for s in seqs if rng.random() >= drop_rate] or [0]
    if "reorder" in faults:
        for index in range(len(seqs) - 1):
            if rng.random() < reorder_rate:
                seqs[index], seqs[index + 1] = seqs[index + 1], seqs[index]
    return seqs


def percentile(values: list, fraction: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * (len(ordered) - 1) + 0.5))]


def benchmark_serving(
    spec: PipelineSpec,
    cameras: int,
    frames: int,
    width: int,
    height: int,
    seed: int,
    faults: set,
    drop_rate: float,
    reorder_rate: float,
) -> dict:
    sequences = make_cameras(cameras, frames, width, height, seed)
    soc = spec.vision_soc()
    network = build_mdnet()
    capacity = CapacityModel(soc, network, extrapolation_on_cpu=spec.extrapolation_on_cpu)
    window_size = (
        spec.extrapolation_window
        if isinstance(spec.extrapolation_window, int)
        else 1
    )
    # Declared per-camera rate: fill ``TARGET_UTILIZATION`` of the shared
    # backend across all cameras, so admission control admits the whole
    # fleet while still pricing it against the real budget.
    service_s = capacity.frame_service_time_s(window_size)
    declared_fps = TARGET_UTILIZATION / (cameras * service_s)

    multiplexer = StreamMultiplexer(
        spec.build(tracking_backend_for("mdnet", seed=seed)),
        soc=soc,
        network=network,
        extrapolation_on_cpu=spec.extrapolation_on_cpu,
        workers=spec.workers,
        transport=spec.transport,
        isolate_failures=True,
    )
    ingest = IngestCore(
        multiplexer,
        capacity=capacity,
        config=IngestConfig(
            queue_capacity=QUEUE_CAPACITY, overload_policy=OVERLOAD_POLICY
        ),
    )

    rng = random.Random(seed)
    schedules = [
        fault_schedule(
            frames, faults, random.Random(seed * 7919 + index), drop_rate, reorder_rate
        )
        for index in range(cameras)
    ]
    latencies_ms: list = []
    summaries: list = []
    send_times: dict = {}
    wall_start = time.perf_counter()

    def drain_client(index: int, client: ServeClient, timeout: float = 0.0) -> None:
        client.poll(timeout=timeout)
        while client.results:
            record = client.results.pop()
            key = (index, record.get("seq"))
            sent = send_times.pop(key, None)
            if sent is not None:
                latencies_ms.append((time.perf_counter() - sent) * 1e3)

    with ServerThread(ingest) as server:
        clients = []
        try:
            for index, sequence in enumerate(sequences):
                client = ServeClient("127.0.0.1", server.port)
                client.hello(
                    handle=index,
                    stream=sequence.name,
                    width=width,
                    height=height,
                    fps=declared_fps,
                    window_size=window_size,
                )
                clients.append(client)
            projection = ingest.projected_queueing()

            # Round-robin replay with per-camera fault schedules.
            cursors = [0] * cameras
            live = set(range(cameras))
            while live:
                for index in sorted(live):
                    sequence, schedule = sequences[index], schedules[index]
                    burst = (
                        3 if "burst" in faults and rng.random() < BURST_RATE else 1
                    )
                    for _ in range(burst):
                        if cursors[index] >= len(schedule):
                            live.discard(index)
                            break
                        seq = schedule[cursors[index]]
                        cursors[index] += 1
                        send_times[(index, seq)] = time.perf_counter()
                        clients[index].send_frame(
                            index,
                            seq,
                            sequence.frame(seq),
                            truth=sequence.truth_detections(seq),
                        )
                    drain_client(index, clients[index])

            # Collect stragglers (acks shed by a bounded outbox never come,
            # so stop as soon as the count stops shrinking).
            deadline = time.perf_counter() + 30.0
            stalled_since = time.perf_counter()
            pending = len(send_times)
            while send_times and time.perf_counter() < deadline:
                for index, client in enumerate(clients):
                    drain_client(index, client, timeout=0.002)
                if len(send_times) < pending:
                    pending = len(send_times)
                    stalled_since = time.perf_counter()
                elif time.perf_counter() - stalled_since > 1.0:
                    break
            for index, client in enumerate(clients):
                summary = client.bye(index)
                drain_client(index, client)
                summaries.append(summary)
        finally:
            for client in clients:
                client.close()
        report = server.shutdown()
    wall_s = time.perf_counter() - wall_start

    accepted = sum(s.get("frames", 0) for s in summaries)
    fault_totals: dict = {}
    for summary in summaries:
        for key, value in (summary.get("faults") or {}).items():
            fault_totals[key] = fault_totals.get(key, 0) + value

    assert report is not None and report.shared_energy is not None, (
        "graceful drain must settle the shared SoC pool"
    )
    return {
        "benchmark": "serve",
        "spec": spec.to_cli_args(),
        "spec_label": spec.describe(),
        "cameras": cameras,
        "frames_per_camera": frames,
        "frame_width": width,
        "frame_height": height,
        "faults": sorted(faults),
        "drop_rate": drop_rate if "drop" in faults else 0.0,
        "reorder_rate": reorder_rate if "reorder" in faults else 0.0,
        "burst_rate": BURST_RATE if "burst" in faults else 0.0,
        "workers": report.workers,
        "transport": report.transport,
        "overload_policy": OVERLOAD_POLICY,
        "queue_capacity": QUEUE_CAPACITY,
        "declared_fps_per_camera": declared_fps,
        "projected_utilization": (
            projection.utilization if projection is not None else None
        ),
        "frames_sent": sum(len(s) for s in schedules),
        "frames_accepted": accepted,
        "frames_processed": report.frames_processed,
        "result_acks": len(latencies_ms),
        "latency_p50_ms": percentile(latencies_ms, 0.50),
        "latency_p99_ms": percentile(latencies_ms, 0.99),
        "latency_mean_ms": (
            sum(latencies_ms) / len(latencies_ms) if latencies_ms else 0.0
        ),
        "wall_s": wall_s,
        "fault_totals": fault_totals,
        "aggregate_energy_j": report.aggregate_energy_j,
        "aggregate_energy_per_frame_mj": report.aggregate_energy_per_frame_j * 1e3,
        "shared_energy_exact": report.shared_energy is not None,
        "per_stream": [
            {
                "name": name,
                "frames": breakdown.num_frames,
                "energy_per_frame_mj": breakdown.energy_per_frame_j * 1e3,
            }
            for name, breakdown in sorted(report.stream_energy.items())
        ],
    }


def parse_faults(text: str) -> set:
    faults = {fault for fault in text.split(",") if fault}
    unknown = faults - set(FAULT_KINDS)
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown fault(s) {sorted(unknown)}; expected {FAULT_KINDS}"
        )
    return faults


def add_options(parser) -> None:
    parser.add_argument("--cameras", type=int, default=None, help="override camera count")
    parser.add_argument(
        "--frames", type=int, default=None, help="override frames per camera"
    )
    parser.add_argument("--seed", type=int, default=0, help="content/fault seed")
    parser.add_argument(
        "--faults", type=parse_faults, default=set(),
        help=f"comma list of injected faults from {FAULT_KINDS} (default: none)",
    )
    parser.add_argument(
        "--drop-rate", type=float, default=0.05,
        help="per-frame loss probability under the drop fault (default: 0.05)",
    )
    parser.add_argument(
        "--reorder-rate", type=float, default=0.05,
        help="adjacent-swap probability under the reorder fault (default: 0.05)",
    )
    PipelineSpec.add_cli_options(parser)


def measure(args) -> dict:
    cameras, frames, width, height = PRESETS[args.preset]
    return benchmark_serving(
        PipelineSpec.from_cli_args(args),
        cameras=args.cameras or cameras,
        frames=args.frames or frames,
        width=width,
        height=height,
        seed=args.seed,
        faults=args.faults,
        drop_rate=args.drop_rate,
        reorder_rate=args.reorder_rate,
    )


def summarize(entry: dict) -> None:
    totals = entry["fault_totals"]
    print(
        f"  {entry['cameras']} cameras x {entry['frames_per_camera']} frames over TCP "
        f"({entry['spec_label']}, {entry['workers']} worker(s), "
        f"{entry['transport']} transport, faults: "
        f"{','.join(entry['faults']) or 'none'}): "
        f"{entry['frames_accepted']}/{entry['frames_sent']} frames accepted, "
        f"projected utilization {entry['projected_utilization']:.3f}"
    )
    print(
        f"  latency p50 {entry['latency_p50_ms']:.2f} ms / "
        f"p99 {entry['latency_p99_ms']:.2f} ms over "
        f"{entry['result_acks']} acks; "
        f"energy {entry['aggregate_energy_per_frame_mj']:.2f} mJ/frame "
        f"(exact shared-SoC aggregate {entry['aggregate_energy_j']:.3f} J)"
    )
    print(
        f"  faults sealed: {totals.get('gaps', 0)} gaps, "
        f"{totals.get('late_drops', 0)} late, "
        f"{totals.get('duplicates', 0)} dups, "
        f"{totals.get('reordered', 0)} reordered, "
        f"{totals.get('overload_drops', 0)} overload drops, "
        f"{totals.get('degraded_submits', 0)} degraded submits"
    )


if __name__ == "__main__":
    sys.exit(guard.main(__doc__, PRESETS, measure, summarize, add_options))
