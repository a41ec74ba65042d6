"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload hd_camera --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the system under test is imported from
``src/``.  ``--trace 0`` measures the end-to-end metrics with no
instrumentation.  ``--trace 1`` measures the same workload untraced and
then traced, and reports the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object; everything before it
is a human-readable report.  A fuller record (machine fingerprint, checks,
every metric) and, for traced runs, the spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3

#: End-to-end metrics: name -> unit (every workload reports all of them).
#: Timings are scaled to the reference probe speed (see fingerprint.py).
END_TO_END = {
    "latency_p50_ref_ms": "ms",
    "throughput_ref_fps": "frames/s",
    "energy_per_frame_mj": "mJ",
    "success_rate": "fraction",
    "delivered_frac": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics reported by every traced run: name -> unit.
PER_LAYER = {
    "motion.self_ms": "ms",
    "motion.calls_per_frame": "count",
    "motion.ops_per_frame": "ops",
    "motion.evaluated_frac": "fraction",
    "isp.denoise.self_ms": "ms",
    "isp.self_ms": "ms",
    "extrapolation.self_ms": "ms",
    "extrapolation.ops_per_eframe": "ops",
    "window.inference_rate": "fraction",
    "nn.self_ms": "ms",
    "nn.calls": "count",
    "session.self_ms": "ms",
    "session.alloc_mb_per_frame": "MB",
    "executor.worker_busy_frac": "fraction",
    "transport.bytes_per_frame": "bytes",
    "streaming.inference_batch_mean": "count",
    "ingest.queue_depth_max": "count",
    "soc.price_us_per_frame": "us",
    "soc.nnx_mj_per_frame": "mJ",
    "soc.dram_mj_per_frame": "mJ",
    "soc.isp_mj_per_frame": "mJ",
    "soc.mc_mj_per_frame": "mJ",
    "trace.overhead_frac": "fraction",
}

#: Layer metrics printed and written to result.json but not in the result
#: line: times that exist only on some workloads (a constant 0 elsewhere) and
#: cross-checks.
EXTRA_LAYER = {
    "executor.submit_ms": "ms",
    "transport.send_ms": "ms",
    "executor.pump_ms": "ms",
    "executor.queue_wait_ms": "ms",
    "streaming.queue_wait_ms": "ms",
    "ingest.decode_ms": "ms",
    "ingest.push_ms": "ms",
    "ingest.pump_ms": "ms",
    "ingest.overload_drops": "count",
    "ingest.degraded_submits": "count",
    "server.unattributed_p50_ms": "ms",
    "server.unattributed_p99_ms": "ms",
    "server.result_drops": "count",
    "generator.lag_p99_ms": "ms",
    "window.self_ms": "ms",
    "motion.telemetry_ms": "ms",
    "trace.service_delta_frac": "fraction",
}

#: Spans the load generator records itself (not wrapper calls).
CLIENT_SPANS = ("generator.send", "client.ack")


def _bootstrap() -> None:
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"perfbench: no system under test at {ROOT / 'src' / 'repro'}")
    sys.path.insert(0, str(ROOT / "src"))


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def make_workload(name: str):
    from serve_fleet import ServeFleet
    from workloads import HdCamera, TrackingBatch

    workloads = {"hd_camera": HdCamera, "tracking_batch": TrackingBatch, "serve_fleet": ServeFleet}
    if name not in workloads:
        raise SystemExit(f"perfbench: unknown workload {name!r} (have {sorted(workloads)})")
    return workloads[name]()


def end_to_end(measurement, setup_s: float, probe) -> dict:
    """The result-line metrics, times scaled to reference speed by ``probe``."""
    from benchstats import tail_percentile

    scaled = [
        latency * probe.scale_at(moment)
        for latency, moment in zip(measurement.latencies_s, measurement.sample_times)
    ]
    if measurement.open_loop:
        throughput = measurement.frames / measurement.wall_s
    else:
        busy = sum((end - start) * probe.mean_scale(start, end) for start, end in measurement.windows)
        throughput = measurement.frames / busy
    return {
        "latency_p50_ref_ms": statistics.median(scaled) * 1e3,
        "latency_tail_ref_ms": tail_percentile(scaled, measurement.tail_fraction) * 1e3,
        "throughput_ref_fps": throughput,
        "energy_per_frame_mj": measurement.energy_per_frame_j * 1e3,
        "success_rate": measurement.success_rate,
        "delivered_frac": 1.0 - measurement.tally.failed_frac,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }


def traced_pass(workload, state, seed, seconds, out_dir, base):
    """Measure again with every layer wrapped; return (layer metrics, records, traced)."""
    from layers import Capture, LayerInputs, layer_metrics, standard_targets
    from spans import Instrumentation, Tracer, load_spilled, span_cost_s

    spill = out_dir / "spill"
    spill.mkdir(parents=True, exist_ok=True)
    for stale in spill.glob("*"):
        stale.unlink()
    tracer, capture = Tracer(spill_dir=spill), Capture()
    if workload.fresh_setup_for_trace:
        state = workload.setup(seed, seconds, traced=True)
        try:
            traced = workload.measure(state, seconds, tracer)
        finally:
            workload.teardown(state)
    else:
        with Instrumentation(tracer, standard_targets(capture)):
            traced = workload.measure(state, seconds, tracer)
    records = tracer.records + load_spilled(spill) + list(traced.remote_records)
    metrics = layer_metrics(
        LayerInputs(
            records=records,
            events=traced.telemetry,
            meters=traced.meters,
            executor_wall_s=traced.executor_wall_s,
            executor_shards=traced.executor_shards,
            extra=traced.layer_extra,
        )
    )
    local_spans = sum(1 for r in records if r[2] not in CLIENT_SPANS)
    frames = max(1, sum(1 for r in records if r[2] == "session"))
    metrics["trace.overhead_frac"] = local_spans / frames * span_cost_s() / traced.service_s
    metrics["trace.service_delta_frac"] = traced.service_s / base.service_s - 1.0
    return metrics, records, traced


def print_layer_table(metrics: dict, frame_ms: float) -> None:
    from layers import LAYERS

    timed = set(LAYERS.values())
    print(f"per-layer metrics (self time per frame; frame time {frame_ms:.3f} ms):")
    for name, unit in {**PER_LAYER, **EXTRA_LAYER}.items():
        value = metrics.get(name, 0.0)
        share = f"{value / frame_ms:7.1%}" if name in timed and frame_ms > 0 else ""
        print(f"  {name:<32} {value:14.4f} {unit:<9} {share}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _bootstrap()

    from benchstats import percentile, samples_beyond
    from fingerprint import REFERENCE_PROBE_S, SpeedProbe, fingerprint
    from layers import frame_life
    from spans import record_to_json

    workload = make_workload(args.workload)
    out_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)

    probe = SpeedProbe()
    setup_windows, state = [], None
    try:
        probe.burst()
        for _ in range(SETUP_REPEATS):
            if state is not None:
                workload.teardown(state)
            start = time.perf_counter()
            state = workload.setup(args.seed, args.seconds)
            setup_windows.append((start, time.perf_counter()))
        probe.burst()
        base = workload.measure(state, args.seconds, pause=probe.burst)
        probe.burst()
        if args.trace:
            layers, records, traced = traced_pass(workload, state, args.seed, args.seconds, out_dir, base)
            layers["session.alloc_mb_per_frame"] = workload.allocation_mb_per_frame(state)
    finally:
        if state is not None:
            workload.teardown(state)
    setup_times = [end - start for start, end in setup_windows]
    setup_s = statistics.median(
        (end - start) * probe.mean_scale(start, end) for start, end in setup_windows
    )

    e2e = end_to_end(base, setup_s, probe)
    tally = base.tally
    checks = [base.tally]
    print(f"workload {args.workload} seed {args.seed}: {base.info}; "
          f"mean service {base.service_s * 1e3:.3f} ms per frame")
    print(f"  measured: {base.frames} frames in {base.wall_s:.2f} s "
          f"({base.frames / base.wall_s:.3f} frames/s); latency p50 "
          f"{percentile(base.latencies_s, 0.5) * 1e3:.3f} ms ({len(base.latencies_s)} samples); "
          f"setup {statistics.median(setup_times):.3f} s")
    print(f"  speed probe: {len(probe.bursts)} bursts, "
          f"{min(d for _, d in probe.bursts) * 1e3:.4f}-{max(d for _, d in probe.bursts) * 1e3:.4f} ms "
          f"against the reference {REFERENCE_PROBE_S * 1e3:.4f} ms; *_ref_* metrics and setup_s "
          f"are scaled by it")
    for fraction in (0.95, 0.99):
        if samples_beyond(len(base.latencies_s), fraction) >= 10:
            print(f"  latency_p{fraction * 100:g}_ms = {percentile(base.latencies_s, fraction) * 1e3:.3f}")
    print(f"  failed_frac = {tally.failed_frac:.6f} ({tally.failed} of {tally.attempted}; {tally.reasons})")
    for example in tally.examples():
        print(f"    failed: {example}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "machine": fingerprint(),
        "setup_times_s": setup_times,
        "probe_bursts": probe.bursts,
        "end_to_end": e2e,
        "failed_frac": tally.failed_frac,
        "failure_reasons": tally.reasons,
        "info": base.info,
    }
    for name, unit in END_TO_END.items():
        print(f"  {name:<22} {e2e[name]:14.4f} {unit}")
    # Printed and kept in result.json, not in the result line: one host stall
    # moves a tail far beyond the largest bound a result-line metric may have.
    print(f"  {'latency_tail_ref_ms':<22} {e2e['latency_tail_ref_ms']:14.4f} ms "
          f"(p{base.tail_fraction * 100:g})")

    if args.trace:
        checks.append(traced.tally)
        frame_ms = sum(traced.latencies_s) / len(traced.latencies_s) * 1e3
        print_layer_table(layers, frame_ms)
        print(f"  motion.self_ms {layers['motion.self_ms']:.3f} ms per frame vs "
              f"FrameTelemetry.motion_search_s {layers['motion.telemetry_ms']:.3f} ms; tracing overhead "
              f"{layers['trace.overhead_frac']:.3%} of service time by span cost, "
              f"{layers['trace.service_delta_frac']:+.2%} traced vs untraced")
        spans_path = out_dir / "spans.jsonl"
        with open(spans_path, "w", encoding="utf-8") as handle:
            for item in sorted(records, key=lambda r: r[3]):
                handle.write(json.dumps(record_to_json(item)) + "\n")
        framed = [r[5] for r in records if r[2] == "session" and r[5]]
        if framed:
            example = framed[len(framed) // 2]
            print(f"  life of frame {example} ({spans_path.relative_to(ROOT)}):")
            for line in frame_life(records, example):
                print(f"    {line}")
        record["per_layer"] = layers
        metrics = {name: {"value": layers.get(name, 0.0), "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}

    print(f"  machine: {record['machine']}")
    (out_dir / "result.json").write_text(json.dumps(record, indent=2, default=str) + "\n")
    failed = sum(check.failed for check in checks)
    attempted = sum(check.attempted for check in checks)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def stop_helpers() -> None:
    """Stop every process this run started and wait until each has ended.

    Shard workers and the serve server are joined by their owners; this
    catches any child left behind on an error path, and the
    ``multiprocessing`` resource tracker, which shared memory and the spawn
    start method launch and which would otherwise outlive this process.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    try:
        code = main()
    except SystemExit as exit_:
        code = exit_.code
    except BaseException:
        traceback.print_exc()
        code = 1
    finally:
        stop_helpers()
    sys.exit(code)
