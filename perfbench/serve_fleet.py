"""The open-loop ``serve_fleet`` workload.

Sixteen 96x54 cameras each send 4 frames/s on a fixed schedule with seeded
phase offsets, spread over two TCP connections by handle.  The server runs
in a process of its own (``IngestCore`` over an in-process
``StreamMultiplexer``, one worker), so the load generator never shares an
interpreter lock with it.  Each connection is driven by one generator
thread that sends every frame when it is due and timestamps every RESULT
ack the moment it is read.
"""

from __future__ import annotations

import bisect
import math
import multiprocessing
import threading
import time
from typing import Dict, Optional

from benchstats import (
    FailureTally,
    latency_from_due,
    min_samples_for,
    open_loop_schedule,
    percentile,
    phase_offsets,
)
from spans import Instrumentation, Target, Tracer
from layers import Capture, standard_targets, unit_energies_j
from workloads import Measurement, allocation_mb_per_frame, check_window, frame_signature

from repro import PipelineSpec, tracking_backend_for
from repro.core import server as server_module
from repro.core.ingest import MSG_RESULT, AdmissionError, IngestConfig, IngestCore, encode_frame
from repro.core.server import ServeClient, ServerThread
from repro.core.streaming import StreamMultiplexer
from repro.eval.tracking import evaluate_tracking
from repro.nn.models import build_mdnet
from repro.soc.frame_cost import CapacityModel
from repro.video.datasets import Dataset
from repro.video.synthetic import SequenceConfig, SequenceGenerator

CAMERAS = 16
CONNECTIONS = 2
FPS = 4.0
WIDTH, HEIGHT = 96, 54
SPEC = PipelineSpec()
#: How long after the last due send to wait for stragglers before counting them lost.
ACK_GRACE_S = 10.0
#: Frames due this early are checked but left out of the latency figures:
#: every stream opens with its backend start and an I-frame at once.
WARMUP_S = 1.0
#: The speed probe runs one call (2-3 ms with its arrays out of cache) in a
#: gap of the load at most this often, and only when every frame sent is
#: acked and the next is due at least PROBE_GAP_S later, so it never overlaps
#: the server's work.  The single cache-cold call tracked this host's slow
#: phases far better than a warmed one: over five seeds the p95 spread 6%
#: against 37%.
PROBE_EVERY_S = 0.2
PROBE_GAP_S = 0.004


def stream_name(handle: int) -> str:
    return f"cam{handle}"


class RecordingIngest(IngestCore):
    """An ingest core that keeps each settled stream's result for checking."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.settled: Dict[str, object] = {}

    def close_stream(self, stream_id: str):
        result = super().close_stream(stream_id)
        self.settled[stream_id] = result
        return result


def _decode_frame_id(_args, decoded) -> dict:
    return {"frame": f"{stream_name(decoded[0])}#{decoded[1]}"}


def server_main(conn, traced: bool) -> None:
    """The server process: serve until told to stop, then report."""
    tracer = capture = instrumentation = None
    if traced:
        tracer, capture = Tracer(), Capture()
        instrumentation = Instrumentation(
            tracer,
            standard_targets(capture)
            + [Target(server_module, "decode_frame", "ingest.decode", after=_decode_frame_id)],
        )
    soc = SPEC.vision_soc()
    network = build_mdnet()
    multiplexer = StreamMultiplexer(
        SPEC.build(tracking_backend_for("mdnet")),
        soc=soc,
        network=network,
        extrapolation_on_cpu=SPEC.extrapolation_on_cpu,
        workers=1,
        transport=SPEC.transport,
        isolate_failures=True,
    )
    ingest = RecordingIngest(
        multiplexer,
        capacity=CapacityModel(soc, network, extrapolation_on_cpu=SPEC.extrapolation_on_cpu),
        config=IngestConfig(),
    )
    server = ServerThread(ingest).start()
    try:
        conn.send(("port", server.port))
        conn.recv()  # stop
    finally:
        report = server.shutdown()
    if instrumentation is not None:
        instrumentation.remove()
    streams = report.streams
    processed = sum(s.frames_processed for s in streams)
    payload = {
        "energy_per_frame_j": report.aggregate_energy_per_frame_j,
        "exact_shared_energy": report.shared_energy is not None,
        "frames_processed": processed,
        "inference_batch_mean": report.mean_batch_size,
        "queue_wait_s": sum(s.wait_s for s in streams),
        "busy_s": sum(s.busy_s for s in streams),
        "max_queue_depth": max((s.max_queue_depth for s in streams), default=0),
        "result_drops": server.server.total_result_drops,
        "failures": dict(multiplexer.stream_failures),
        "results": ingest.settled,
    }
    if traced:
        units = unit_energies_j(capture.meters, shared_soc=soc)
        frames = max(1, sum(meter.frames for meter in capture.meters))
        payload.update(
            records=tracer.records,
            events=capture.events,
            units_mj_per_frame={unit: value * 1e3 / frames for unit, value in units.items()},
        )
    conn.send(payload)
    conn.close()


class ServeFleet:
    name = "serve_fleet"
    spec = SPEC
    # p95 spread 18% over ten seeds here (a slow host phase inflates a few
    # percent of acks); p90 spread 3.5%.  p95 and p99 are still printed.
    tail_fraction = 0.90
    fresh_setup_for_trace = True

    def __init__(self) -> None:
        self._serial: Dict[tuple, dict] = {}

    # -- setup ----------------------------------------------------------
    def setup(self, seed: int, seconds: float, traced: bool = False):
        # Enough frames after warm-up for the p99 to have ten acks beyond it,
        # however short the run.
        frames = max(
            int(round(FPS * seconds)),
            math.ceil(min_samples_for(0.99) / CAMERAS + FPS * WARMUP_S),
        )
        cameras = [
            SequenceGenerator(
                SequenceConfig(
                    name=stream_name(handle),
                    frame_width=WIDTH,
                    frame_height=HEIGHT,
                    num_frames=frames,
                    num_objects=1,
                    seed=seed * 7919 + handle,
                )
            ).generate()
            for handle in range(CAMERAS)
        ]
        wire = [
            [encode_frame(h, seq, cam.frame(seq), cam.truth_detections(seq)) for seq in range(frames)]
            for h, cam in enumerate(cameras)
        ]
        ctx = server_context()
        parent_conn, child_conn = ctx.Pipe()
        process = ctx.Process(target=server_main, args=(child_conn, traced), name="perfbench-server")
        process.start()
        child_conn.close()
        state = {"seed": seed, "frames": frames, "cameras": cameras, "wire": wire,
                 "process": process, "conn": parent_conn, "clients": [], "rejected": set(),
                 "payload": None}
        try:
            _, port = parent_conn.recv()
            for _ in range(CONNECTIONS):
                state["clients"].append(ServeClient("127.0.0.1", port))
            window = SPEC.extrapolation_window
            for handle in range(CAMERAS):
                client = state["clients"][handle % CONNECTIONS]
                try:
                    client.hello(handle=handle, stream=stream_name(handle), width=WIDTH,
                                 height=HEIGHT, fps=FPS, window_size=window)
                except AdmissionError:
                    state["rejected"].add(handle)
        except BaseException:
            self.teardown(state)
            raise
        return state

    def teardown(self, state) -> Optional[dict]:
        """Close the connections, stop the server and collect its report."""
        for client in state["clients"]:
            client.close()
        state["clients"] = []
        process, conn = state["process"], state["conn"]
        if process.is_alive() and state["payload"] is None:
            try:
                conn.send("stop")
                state["payload"] = conn.recv()
            except (EOFError, OSError):
                pass
        process.join(timeout=60)
        if process.is_alive():
            process.terminate()
            process.join(timeout=10)
        conn.close()
        return state["payload"]

    # -- load -----------------------------------------------------------
    def _drive(self, client: ServeClient, sends, wire, t0: float, acks: dict,
               sent: dict, errors: list, pause=None, all_due=()) -> None:
        """Send ``sends`` on schedule over one connection, reading acks between sends.

        With ``pause`` (one connection only) the speed probe runs in idle gaps:
        everything sent is acked and the next frame of ``all_due`` (every
        connection's due times, sorted) is far enough off.
        """
        last_probe = 0.0

        def idle_gap(now: float) -> bool:
            if now - last_probe < PROBE_EVERY_S or len(acks) < len(sent):
                return False
            index = bisect.bisect_right(all_due, now - t0)
            return index == len(all_due) or t0 + all_due[index] - now > PROBE_GAP_S

        def take(timeout: float) -> None:
            try:
                _, payload = client.wait_for(MSG_RESULT, timeout=timeout)
            except TimeoutError:
                return
            acks.setdefault((payload["handle"], payload["seq"]), []).append(
                (time.perf_counter(), payload)
            )

        try:
            for send in sends:
                due = t0 + send.due_s
                while True:
                    now = time.perf_counter()
                    remaining = due - now
                    if remaining <= 0:
                        break
                    if pause is not None and idle_gap(now):
                        pause(0.0)
                        last_probe = now
                        continue
                    take(remaining)
                client.send_raw(wire[send.camera][send.seq])
                sent[(send.camera, send.seq)] = time.perf_counter()
            expected = len(sends)
            deadline = t0 + (sends[-1].due_s if sends else 0.0) + ACK_GRACE_S
            mine = {(s.camera, s.seq) for s in sends}
            while sum(1 for key in mine if key in acks) < expected:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    break
                take(min(remaining, 0.5))
            client.results.clear()
        except Exception as error:  # reported by the caller after join
            errors.append(error)

    def serial_reference(self, state) -> dict:
        """Each camera's frames through a serial session: stream -> signature."""
        key = (state["seed"], state["frames"])
        if key not in self._serial:
            pipeline = SPEC.build(tracking_backend_for("mdnet"))
            reference = {}
            for camera in state["cameras"]:
                session = pipeline.open_session(WIDTH, HEIGHT, name=camera.name)
                for seq in range(camera.num_frames):
                    session.submit(camera.frame(seq), truth=camera.truth_detections(seq))
                reference[camera.name] = frame_signature(session.finish())
            self._serial[key] = reference
        return self._serial[key]

    def allocation_mb_per_frame(self, state) -> float:
        camera = state["cameras"][0]
        session = SPEC.build(tracking_backend_for("mdnet")).open_session(WIDTH, HEIGHT, name=camera.name)
        count = min(16, camera.num_frames)
        return allocation_mb_per_frame(
            session,
            [camera.frame(i) for i in range(count)],
            [camera.truth_detections(i) for i in range(count)],
        )

    def measure(self, state, seconds: float, tracer: Optional[Tracer] = None, pause=None) -> Measurement:
        phases = phase_offsets(CAMERAS, FPS, state["seed"])
        live = [h for h in range(CAMERAS) if h not in state["rejected"]]
        schedule = [s for s in open_loop_schedule(phases, FPS, state["frames"]) if s.camera in live]
        acks: Dict[tuple, list] = {}
        sent: Dict[tuple, float] = {}
        errors: list = []
        t0 = time.perf_counter() + 0.05
        all_due = [s.due_s for s in schedule]
        threads = [
            threading.Thread(
                target=self._drive,
                args=(client, [s for s in schedule if s.camera % CONNECTIONS == index],
                      state["wire"], t0, acks, sent, errors),
                kwargs={"pause": pause, "all_due": all_due} if index == 0 else {},
                name=f"perfbench-gen{index}",
            )
            for index, client in enumerate(state["clients"])
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        summaries = {}
        for handle in live:
            summaries[handle] = state["clients"][handle % CONNECTIONS].bye(handle)
        payload = self.teardown(state)
        if payload is None:
            raise RuntimeError("the server process exited without a report")
        return self._assess(state, schedule, t0, acks, sent, summaries, payload, tracer)

    # -- checks and metrics ---------------------------------------------
    def _assess(self, state, schedule, t0, acks, sent, summaries, payload, tracer) -> Measurement:
        tally = FailureTally()
        frames = state["frames"]
        tally.attempt(CAMERAS * frames)
        for handle in state["rejected"]:
            for seq in range(frames):
                tally.fail((handle, seq), "rejected-hello")
        latencies, sample_times, unattributed, lags = [], [], [], []
        kinds: Dict[int, Dict[int, str]] = {}
        last_ack = t0
        for send in schedule:
            key = (send.camera, send.seq)
            got = acks.get(key, [])
            due = t0 + send.due_s
            lags.append(sent[key] - due)
            if not got:
                tally.fail(key, "not-acked")
                continue
            if len(got) > 1:
                tally.fail(key, "duplicate-ack")
            received, result = got[0]
            latency = latency_from_due(due, received)
            if send.due_s >= WARMUP_S:
                latencies.append(latency)
                sample_times.append(due)
                unattributed.append(latency - result["latency_ms"] / 1e3)
            kinds.setdefault(send.camera, {})[send.seq] = result["kind"]
            last_ack = max(last_ack, received)
            if tracer is not None:
                frame = f"{stream_name(send.camera)}#{send.seq}"
                tracer.add("generator.send", due, sent[key], frame)
                tracer.add("client.ack", sent[key], received, frame)
        if payload["result_drops"]:
            tally.reasons["shed-acks"] = payload["result_drops"]

        reference = self.serial_reference(state)
        settled = payload["results"]
        window = SPEC.extrapolation_window
        faults: Dict[str, int] = {}
        for handle, summary in summaries.items():
            for name, count in (summary.get("faults") or {}).items():
                faults[name] = faults.get(name, 0) + count
        for handle in summaries:
            name = stream_name(handle)
            expected = reference[name]
            acked = kinds.get(handle, {})
            if [acked.get(seq) for seq in range(frames)] != [f[1].value for f in expected]:
                tally.fail((handle, "kinds"), "acked-schedule-vs-serial")
            result = settled.get(name)
            if result is None or name in payload["failures"]:
                tally.fail((handle, "result"), "stream-failed")
                continue
            if len(result.frames) != frames:
                tally.fail((handle, "result"), "frame-count")
            check_window(result, window, tally, (handle,))
            if frame_signature(result) != expected:
                tally.fail((handle, "result"), "output-vs-serial")

        ordered = [settled[stream_name(h)] for h in sorted(summaries) if stream_name(h) in settled]
        success = evaluate_tracking(ordered, Dataset("serve_fleet", state["cameras"]), 0.5).success_rate
        first_due = t0 + min(s.due_s for s in schedule)
        processed = payload["frames_processed"]
        layer_extra = {
            "streaming.queue_wait_ms": payload["queue_wait_s"] * 1e3 / max(1, processed),
            "streaming.inference_batch_mean": payload["inference_batch_mean"],
            "ingest.queue_depth_max": float(payload["max_queue_depth"]),
            "ingest.overload_drops": float(faults.get("overload_drops", 0)),
            "ingest.degraded_submits": float(faults.get("degraded_submits", 0)),
            "server.unattributed_p50_ms": percentile(unattributed, 0.5) * 1e3,
            "server.unattributed_p99_ms": percentile(unattributed, 0.99) * 1e3,
            "server.result_drops": float(payload["result_drops"]),
            "generator.lag_p99_ms": percentile(lags, 0.99) * 1e3,
        }
        if "units_mj_per_frame" in payload:
            for unit in ("nnx", "dram", "isp", "mc"):
                layer_extra[f"soc.{unit}_mj_per_frame"] = payload["units_mj_per_frame"][unit]
        return Measurement(
            latencies_s=latencies,
            tail_fraction=self.tail_fraction,
            frames=sum(len(got) > 0 for got in acks.values()),
            wall_s=last_ack - first_due,
            energy_per_frame_j=payload["energy_per_frame_j"],
            success_rate=success,
            tally=tally,
            service_s=payload["busy_s"] / max(1, processed),
            sample_times=sample_times,
            windows=[(first_due, last_ack)],
            open_loop=True,
            info={
                "cameras": CAMERAS,
                "offered_fps": CAMERAS * FPS,
                "rejected_hellos": len(state["rejected"]),
                "faults": faults,
                "exact_shared_energy": payload["exact_shared_energy"],
                "generator_lag_p99_ms": layer_extra["generator.lag_p99_ms"],
                "spec": SPEC.describe(),
            },
            executor_wall_s=last_ack - first_due,
            remote_records=payload.get("records", []),
            telemetry=payload.get("events", []),
            layer_extra=layer_extra,
        )


def server_context():
    """Start the server from a fresh interpreter: the generator holds no state it needs."""
    return multiprocessing.get_context("spawn")
