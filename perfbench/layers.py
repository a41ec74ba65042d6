"""Per-layer instrumentation of the repro package and the metrics it yields.

:func:`standard_targets` lists the public entry points the traced run wraps,
one span name per layer.  :func:`layer_metrics` turns the recorded spans,
the frame telemetry the cost meters priced, and workload-side counts into
the per-layer metrics.  Layer times are self times in milliseconds per
processed frame unless the name says otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from benchstats import self_time_by_name
from spans import Record, Target, as_spans, overriding_classes

from repro.core.backends import InferenceBackend
from repro.core.executor import InProcessTransport, SharedMemoryTransport, ShardedExecutor
from repro.core.extrapolation import MotionExtrapolator
from repro.core.ingest import IngestCore
from repro.core.session import EuphratesSession
from repro.core.types import FrameKind
from repro.core.window import WindowController
from repro.isp.denoise import TemporalDenoiseStage
from repro.isp.pipeline import ISPPipeline
from repro.motion.block_matching import BlockMatcher
from repro.soc.frame_cost import CostMeter, SharedSoCPool

#: Layer span name -> its self-time metric, outermost layer first.
LAYERS = {
    "ingest.decode": "ingest.decode_ms",
    "ingest.push": "ingest.push_ms",
    "ingest.pump": "ingest.pump_ms",
    "executor.submit": "executor.submit_ms",
    "transport.send": "transport.send_ms",
    "executor.pump": "executor.pump_ms",
    "session": "session.self_ms",
    "isp": "isp.self_ms",
    "isp.denoise": "isp.denoise.self_ms",
    "motion": "motion.self_ms",
    "window": "window.self_ms",
    "extrapolation": "extrapolation.self_ms",
    "nn": "nn.self_ms",
}


@dataclass
class Capture:
    """What the wrappers observed: telemetry priced and cost meters opened."""

    events: list = field(default_factory=list)
    meters: List[CostMeter] = field(default_factory=list)


def _motion_work(args, field_) -> dict:
    matcher = args[0]
    stats = matcher.last_search_stats
    config = matcher.config
    blocks = field_.grid.num_blocks
    full = blocks * (2 * config.search_range + 1) ** 2
    if stats is not None:
        evaluated = stats.candidates_evaluated
    else:
        evaluated = matcher.last_operation_count / (config.block_size * config.block_size)
    return {"evaluated": float(evaluated), "full": float(full)}


def _records_work(args, records) -> dict:
    busy: Dict[str, float] = {}
    for record in records:
        busy[record.shard] = busy.get(record.shard, 0.0) + record.busy_s
    return {
        "records": len(records),
        "wait_s": sum(record.wait_s for record in records),
        "busy_s": busy,
    }


def standard_targets(capture: Capture) -> List[Target]:
    """Every layer entry point the traced run wraps."""

    def priced(args, _cost) -> dict:
        capture.events.append(args[1])
        return {"frames": 1}

    def opened(_args, meter) -> dict:
        capture.meters.append(meter)
        return {}

    targets = [
        Target(BlockMatcher, "estimate", "motion", after=_motion_work),
        Target(TemporalDenoiseStage, "process", "isp.denoise"),
        Target(ISPPipeline, "process_luma", "isp"),
        Target(MotionExtrapolator, "extrapolate_detections", "extrapolation"),
        Target(
            EuphratesSession,
            "submit",
            "session",
            frame=lambda args: f"{args[0].name}#{args[0].frames_submitted}",
        ),
        Target(ShardedExecutor, "submit", "executor.submit"),
        Target(ShardedExecutor, "pump", "executor.pump", after=_records_work),
        Target(ShardedExecutor, "drain", "executor.pump", after=_records_work),
        Target(
            SharedMemoryTransport, "send", "transport.send",
            after=lambda args, _ref: {"bytes": int(args[1].nbytes)},
        ),
        Target(
            InProcessTransport, "send", "transport.send",
            after=lambda args, _ref: {"bytes": int(args[1].nbytes)},
        ),
        Target(
            IngestCore, "push_frame", "ingest.push",
            frame=lambda args: f"{args[1]}#{args[2]}",
        ),
        Target(IngestCore, "pump", "ingest.pump"),
        Target(CostMeter, "record", "soc.price", after=priced),
        Target(CostMeter, "record_all", "soc.price"),
        Target(SharedSoCPool, "open_meter", "soc.open_meter", after=opened),
    ]
    targets += [
        Target(cls, "should_infer", "window")
        for cls in overriding_classes(WindowController, "should_infer")
    ]
    targets += [
        Target(cls, "infer", "nn") for cls in overriding_classes(InferenceBackend, "infer")
    ]
    return targets


def unit_energies_j(meters: Sequence[CostMeter], shared_soc=None) -> Dict[str, float]:
    """Energy per SoC unit, mirroring :meth:`CostMeter.breakdown` (each meter
    its own SoC) or, with ``shared_soc``, :meth:`SharedSoCPool.aggregate`
    (static terms settled once over the longest meter wall)."""
    metered = [meter for meter in meters if meter.frames]
    units = {"isp": 0.0, "nnx": 0.0, "mc": 0.0, "dram": 0.0, "cpu": 0.0}
    for meter in metered:
        soc = meter.soc
        units["isp"] += soc.config.frontend_power_w * meter.wall_time_s
        units["nnx"] += soc.nnx.config.active_power_w * meter.nnx_active_s
        units["mc"] += soc.motion_controller.config.active_power_w * meter.mc_busy_s
        units["dram"] += soc.dram.energy_j(meter.traffic_bytes, 0.0)
        units["cpu"] += meter.cpu_energy_j
        if shared_soc is None:
            wall = meter.wall_time_s
            units["nnx"] += soc.nnx.idle_energy_j(max(0.0, wall - meter.nnx_active_s))
            units["mc"] += soc.motion_controller.idle_energy_j(max(0.0, wall - meter.mc_busy_s))
            units["dram"] += soc.dram.energy_j(0, wall)
    if shared_soc is not None and metered:
        wall = max(meter.wall_time_s for meter in metered)
        nnx_busy = sum(meter.nnx_active_s for meter in metered)
        mc_busy = sum(meter.mc_busy_s for meter in metered)
        units["nnx"] += shared_soc.nnx.idle_energy_j(max(0.0, wall - nnx_busy))
        units["mc"] += shared_soc.motion_controller.idle_energy_j(max(0.0, wall - mc_busy))
        units["dram"] += shared_soc.dram.energy_j(0, wall)
    return units


@dataclass
class LayerInputs:
    """Everything :func:`layer_metrics` needs from one traced workload run."""

    records: Sequence[Record]
    #: FrameTelemetry of every processed frame.
    events: Sequence[object]
    meters: Sequence[CostMeter]
    #: Wall seconds the executor shards were alive (for busy fractions).
    executor_wall_s: float = 0.0
    executor_shards: int = 1
    #: Workload-side values reported as-is (serve counters, generator lag, ...).
    extra: Dict[str, float] = field(default_factory=dict)


def layer_metrics(inputs: LayerInputs) -> Dict[str, float]:
    records = inputs.records
    spans = as_spans(records)
    self_s = self_time_by_name(spans)
    by_id = {r[0]: r for r in records}
    counts: Dict[str, int] = {}
    for record in records:
        counts[record[2]] = counts.get(record[2], 0) + 1
    frames = max(1, counts.get("session", 0))

    def per_frame_ms(name: str) -> float:
        return self_s.get(name, 0.0) * 1e3 / frames

    out: Dict[str, float] = {metric: per_frame_ms(name) for name, metric in LAYERS.items()}

    motion = [r[6] for r in records if r[2] == "motion" and r[6]]
    full = sum(a["full"] for a in motion)
    out["motion.calls_per_frame"] = counts.get("motion", 0) / frames
    out["motion.evaluated_frac"] = sum(a["evaluated"] for a in motion) / full if full else 0.0

    events = list(inputs.events)
    e_frames = [e for e in events if e.kind is FrameKind.EXTRAPOLATION]
    n_events = max(1, len(events))
    out["motion.ops_per_frame"] = sum(e.motion_ops for e in events) / n_events
    out["motion.telemetry_ms"] = sum(e.motion_search_s for e in events) * 1e3 / n_events
    out["extrapolation.ops_per_eframe"] = (
        sum(e.extrapolation_ops for e in e_frames) / len(e_frames) if e_frames else 0.0
    )
    out["window.inference_rate"] = (len(events) - len(e_frames)) / n_events
    out["nn.calls"] = float(sum(
        1 for r in records
        if r[2] == "nn" and not (r[1] in by_id and by_id[r[1]][2] == "nn")
    ))

    pumped = [r[6] for r in records if r[2] == "executor.pump" and r[6]]
    waited = sum(a["records"] for a in pumped)
    out["executor.queue_wait_ms"] = (
        sum(a["wait_s"] for a in pumped) * 1e3 / waited if waited else 0.0
    )
    busy = sum(sum(a["busy_s"].values()) for a in pumped)
    capacity = inputs.executor_wall_s * inputs.executor_shards
    out["executor.worker_busy_frac"] = busy / capacity if capacity > 0 else 0.0
    sent = [r[6]["bytes"] for r in records if r[2] == "transport.send" and r[6]]
    out["transport.bytes_per_frame"] = sum(sent) / frames

    priced = sum(r[6]["frames"] for r in records if r[2] == "soc.price" and r[6])
    out["soc.price_us_per_frame"] = self_s.get("soc.price", 0.0) * 1e6 / max(1, priced)
    units = unit_energies_j(inputs.meters)
    priced_frames = max(1, sum(meter.frames for meter in inputs.meters))
    for unit in ("nnx", "dram", "isp", "mc"):
        out[f"soc.{unit}_mj_per_frame"] = units[unit] * 1e3 / priced_frames
    out.update(inputs.extra)
    return out


def frame_life(records: Sequence[Record], frame: str) -> List[str]:
    """One frame's spans as an indented tree, times relative to its first span."""
    mine = sorted((r for r in records if r[5] == frame), key=lambda r: (r[3], -r[4]))
    if not mine:
        return []
    origin = mine[0][3]
    depth: Dict[int, int] = {}
    lines = []
    for record in mine:
        level = depth.get(record[1], -1) + 1
        depth[record[0]] = level
        lines.append(
            f"{'  ' * level}{record[2]:<16} +{(record[3] - origin) * 1e3:8.3f} ms "
            f"for {(record[4] - record[3]) * 1e3:8.3f} ms  (pid {record[7]})"
        )
    return lines
