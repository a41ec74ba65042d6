"""Fault-injection tests for the TCP serving front end.

Every scenario here is an unhappy path: dropped frames, duplicated and
out-of-order arrivals, a client vanishing mid-stream, a consumer that
stops reading its acks, and a worker process dying under an active
connection.  The invariants: the server never deadlocks, frame
*processing* is never corrupted (the hypothesis property pins accepted
frames bit-identical to a serial session fed the surviving subsequence),
and every fault lands in telemetry or a fault counter.
"""

from __future__ import annotations

import random
import struct
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.backends import tracking_backend_for
from repro.core.executor import StreamFailedError
from repro.core.ingest import MSG_FRAME, IngestConfig, IngestCore, encode_message
from repro.core.server import ServeClient, ServerThread
from repro.core.spec import PipelineSpec
from repro.core.streaming import StreamMultiplexer
from repro.video.synthetic import SequenceConfig, SequenceGenerator

from test_session import assert_results_identical


def _sequence(frames: int = 20, seed: int = 7, name: str = "cam"):
    return SequenceGenerator(
        SequenceConfig(
            name=name, frame_width=64, frame_height=48,
            num_frames=frames, num_objects=1, seed=seed,
        )
    ).generate()


class _RecordingIngest(IngestCore):
    """Keeps each settled stream's result for bit-exact comparison."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.settled = {}

    def close_stream(self, stream_id: str):
        result = super().close_stream(stream_id)
        self.settled[stream_id] = result
        return result


def _make_ingest(
    *, workers: int = 1, ingest_cls=IngestCore, **config_kwargs
) -> IngestCore:
    spec = PipelineSpec(extrapolation_window=4)
    pipeline = spec.build(tracking_backend_for("mdnet"))
    mux = StreamMultiplexer(pipeline, workers=workers, isolate_failures=True)
    config_kwargs.setdefault("admission", False)
    config_kwargs.setdefault("reorder_window", 4)
    return ingest_cls(mux, config=IngestConfig(**config_kwargs))


def _stream_all(client: ServeClient, handle: int, seq_obj, seqs) -> None:
    for seq in seqs:
        client.send_frame(
            handle, seq, seq_obj.frame(seq), truth=seq_obj.truth_detections(seq)
        )


class TestServerFaults:
    def test_dropped_frames_seal_gaps(self):
        seq_obj = _sequence(20)
        dropped = {3, 9}
        with ServerThread(_make_ingest()) as server:
            with ServeClient("127.0.0.1", server.port) as client:
                client.hello(
                    handle=1, stream="cam", width=seq_obj.width, height=seq_obj.height
                )
                _stream_all(
                    client, 1, seq_obj, [s for s in range(20) if s not in dropped]
                )
                summary = client.bye(1)
        assert summary["status"] == "ok"
        assert summary["frames"] == 18
        assert summary["faults"]["gaps"] == len(dropped)
        assert summary["faults"]["overload_drops"] == 0
        report = server.shutdown()
        assert report.frames_processed == 18

    def test_duplicates_and_out_of_order_arrivals(self):
        seq_obj = _sequence(16)
        # 3 duplicated while buffered; 5 and 10 re-delivered after release;
        # (3,2), (7,6) and (12,11) swapped in flight.
        arrivals = [0, 1, 3, 3, 2, 4, 5, 5, 7, 6, 8, 9, 10, 10, 12, 11, 13, 14, 15]
        with ServerThread(_make_ingest()) as server:
            with ServeClient("127.0.0.1", server.port) as client:
                client.hello(
                    handle=1, stream="cam", width=seq_obj.width, height=seq_obj.height
                )
                _stream_all(client, 1, seq_obj, arrivals)
                summary = client.bye(1)
                # RESULT acks observed so far arrived in pipeline order.
                indices = [r["frame_index"] for r in client.results]
                assert indices == sorted(indices)
                # Every acked frame carries the source seq it came from.
                for record in client.results:
                    assert record["seq"] == record["frame_index"]
        assert summary["status"] == "ok"
        assert summary["frames"] == 16  # all 16 distinct seqs survive
        assert summary["faults"]["duplicates"] == 1  # dup of a buffered frame
        assert summary["faults"]["late_drops"] == 2  # re-delivery after release
        assert summary["faults"]["reordered"] > 0
        assert summary["faults"]["gaps"] == 0
        server.shutdown()

    def test_midstream_disconnect_settles_stream(self):
        seq_obj = _sequence(20)
        with ServerThread(_make_ingest()) as server:
            rude = ServeClient("127.0.0.1", server.port)
            rude.hello(
                handle=1, stream="rude", width=seq_obj.width, height=seq_obj.height
            )
            _stream_all(rude, 1, seq_obj, range(10))
            # The server answers STATS only after reading every earlier
            # message, so all ten frames are in before the socket goes.
            # (Closing with unread acks sends a TCP reset, which would
            # discard frames still queued on the server side.)
            rude.stats()
            rude.close()  # vanish mid-stream: no BYE

            with ServeClient("127.0.0.1", server.port) as polite:
                polite.hello(
                    handle=1, stream="polite",
                    width=seq_obj.width, height=seq_obj.height,
                )
                # The disconnect settles 'rude' like an implicit BYE; wait
                # until the server has reaped it.
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    stats = polite.stats()
                    if "rude" not in stats["streams"]:
                        break
                    time.sleep(0.05)
                else:
                    pytest.fail("disconnected stream was never settled")
                assert stats["failures"] == {}
                _stream_all(polite, 1, seq_obj, range(20))
                summary = polite.bye(1)
        assert summary["status"] == "ok"
        assert summary["frames"] == 20
        report = server.shutdown()
        # The rude client's accepted frames were still processed in full.
        assert report.frames_processed == 30

    def test_slow_consumer_sheds_acks_not_frames(self):
        seq_obj = _sequence(60, seed=9)
        with ServerThread(_make_ingest(), outbox_depth=2) as server:
            with ServeClient("127.0.0.1", server.port) as client:
                client.hello(
                    handle=1, stream="cam", width=seq_obj.width, height=seq_obj.height
                )
                # Never poll while streaming: the tiny outbox overflows as
                # the pump bursts records faster than the writer drains.
                _stream_all(client, 1, seq_obj, range(60))
                deadline = time.monotonic() + 30.0
                while (
                    server.server.total_result_drops == 0
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
                summary = client.bye(1)
        # Processing was never backpressured by the unread acks...
        assert summary["status"] == "ok"
        assert summary["frames"] == 60
        # ...the shed acks were counted, not silently lost.
        assert server.server.total_result_drops > 0
        report = server.shutdown()
        assert report.frames_processed == 60

    def test_worker_death_during_active_connection(self):
        seq_obj = _sequence(20)
        ingest = _make_ingest(workers=2)
        executor = ingest.multiplexer._executor
        with ServerThread(ingest) as server:
            with ServeClient("127.0.0.1", server.port) as client:
                client.hello(
                    handle=1, stream="doomed",
                    width=seq_obj.width, height=seq_obj.height,
                )
                client.hello(
                    handle=2, stream="survivor",
                    width=seq_obj.width, height=seq_obj.height,
                )
                doomed_shard = executor.shard_of("doomed")
                assert doomed_shard is not executor.shard_of("survivor")
                _stream_all(client, 1, seq_obj, range(4))
                _stream_all(client, 2, seq_obj, range(4))

                doomed_shard.process.kill()
                doomed_shard.process.join(timeout=10.0)

                # Keep feeding the dead stream until the failure surfaces.
                deadline = time.monotonic() + 30.0
                seq = 4
                while not client.errors and time.monotonic() < deadline:
                    client.send_frame(
                        1, seq, seq_obj.frame(seq % 20),
                        truth=seq_obj.truth_detections(seq % 20),
                    )
                    seq += 1
                    client.poll(timeout=0.05)
                assert client.errors, "worker death never reported to the client"
                assert "died unexpectedly" in client.errors[0]["reason"]

                # The sibling stream on the healthy shard still completes.
                _stream_all(client, 2, seq_obj, range(4, 20))
                summary = client.bye(2)
        assert summary["status"] == "ok"
        assert summary["frames"] == 20
        assert "doomed" in ingest.multiplexer.stream_failures
        report = server.shutdown()
        assert report is not None  # graceful drain despite the dead worker

    def test_malformed_truth_fails_only_its_stream(self):
        # One FRAME with an unparseable truth blob fails its own stream with
        # an ERROR naming the handle; the sibling stream on the same
        # connection keeps every ack and its results stay bit-exact.
        seq_obj = _sequence(20)
        ingest = _make_ingest(ingest_cls=_RecordingIngest)
        blob = b'[{"x": 1, "y": 2}]'
        frame = seq_obj.frame(5)
        bad_frame = encode_message(
            MSG_FRAME,
            struct.pack(">IIHHI", 2, 5, frame.shape[0], frame.shape[1], len(blob))
            + blob
            + frame.tobytes(),
        )
        with ServerThread(ingest) as server:
            with ServeClient("127.0.0.1", server.port) as client:
                for handle, name in ((1, "sibling"), (2, "bad")):
                    client.hello(
                        handle=handle, stream=name,
                        width=seq_obj.width, height=seq_obj.height,
                    )
                for seq in range(20):
                    truth = seq_obj.truth_detections(seq)
                    client.send_frame(1, seq, seq_obj.frame(seq), truth=truth)
                    if seq < 5:
                        client.send_frame(2, seq, seq_obj.frame(seq), truth=truth)
                    elif seq == 5:
                        client.send_raw(bad_frame)
                    client.poll(timeout=0.01)
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    acks = [r for r in client.results if r["handle"] == 1]
                    if len(acks) == 20:
                        break
                    client.poll(timeout=0.05)
                assert client.errors[0]["handle"] == 2
                assert client.errors[0]["stream"] == "bad"
                assert "malformed FRAME truth" in client.errors[0]["reason"]
                summary = client.bye(1)
                with pytest.raises(StreamFailedError, match="no stream"):
                    client.bye(2)
        assert summary["status"] == "ok"
        assert summary["frames"] == 20
        assert [(a["frame_index"], a["seq"]) for a in acks] == [(i, i) for i in range(20)]
        serial = (
            PipelineSpec(extrapolation_window=4)
            .build(tracking_backend_for("mdnet"))
            .open_session(seq_obj.width, seq_obj.height, name="sibling")
        )
        for seq in range(20):
            serial.submit(seq_obj.frame(seq), truth=seq_obj.truth_detections(seq))
        serial = serial.finish()
        assert [a["kind"] for a in acks] == [f.kind.value for f in serial.frames]
        assert_results_identical(serial, ingest.settled["sibling"])
        server.shutdown()

    def test_bye_on_failed_stream_raises_promptly(self):
        # A tracking stream poisoned mid-flight (no truth on the first
        # I-frame) is torn down server-side; a later BYE on that handle must
        # surface the MSG_ERROR as StreamFailedError, not block for a
        # BYE_OK that will never come.
        seq_obj = _sequence(8)
        with ServerThread(_make_ingest()) as server:
            with ServeClient("127.0.0.1", server.port) as client:
                client.hello(
                    handle=1, stream="cam", width=seq_obj.width, height=seq_obj.height
                )
                # Keep pushing truthless frames until the poisoned session's
                # failure surfaces as MSG_ERROR (the server tears the stream
                # down and pops the handle).
                deadline = time.monotonic() + 30.0
                seq = 0
                while not client.errors and time.monotonic() < deadline:
                    client.send_frame(1, seq % 8, seq_obj.frame(seq % 8))
                    seq += 1
                    client.poll(timeout=0.05)
                assert client.errors, "stream failure never reported"
                started = time.monotonic()
                with pytest.raises(StreamFailedError, match="no stream"):
                    client.bye(1, timeout=30.0)
                assert time.monotonic() - started < 15.0
                # An outright unknown handle fails fast the same way.
                with pytest.raises(StreamFailedError, match="no stream"):
                    client.bye(99, timeout=30.0)
        server.shutdown()


class TestAcceptedSubsequenceProperty:
    """Accepted frames are bit-identical to a serial session fed the same
    surviving subsequence, with an I-frame forced at every gap."""

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        num_frames=st.integers(min_value=5, max_value=14),
        drops=st.sets(st.integers(min_value=0, max_value=13), max_size=3),
        chaos_seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_accepted_frames_match_serial(self, num_frames, drops, chaos_seed):
        rng = random.Random(chaos_seed)
        survivors = [s for s in range(num_frames) if s not in drops]
        # Jittered arrival order (bounded displacement) plus duplicates.
        arrivals = sorted(survivors, key=lambda s: s + rng.uniform(-1.8, 1.8))
        for seq in survivors:
            if rng.random() < 0.25:
                position = rng.randint(arrivals.index(seq), len(arrivals))
                arrivals.insert(position, seq)

        seq_obj = _sequence(frames=num_frames, seed=13)
        spec = PipelineSpec(extrapolation_window=4)
        mux = StreamMultiplexer(
            spec.build(tracking_backend_for("mdnet")), isolate_failures=True
        )
        core = IngestCore(
            mux,
            config=IngestConfig(
                admission=False, reorder_window=3,
                queue_capacity=256, feed_depth=256,
            ),
        )
        core.open_stream("cam", width=seq_obj.width, height=seq_obj.height)
        accepted = core._stream("cam").accepted_seqs  # live list
        for seq in arrivals:
            core.push_frame(
                "cam", seq, seq_obj.frame(seq), truth=seq_obj.truth_detections(seq)
            )
            core.pump()
        streamed = core.close_stream("cam")
        core.finish()

        # No overload configured: exactly the reorder survivors got in.
        assert accepted == survivors

        # Serial reference: same stream name (backends seed off it), same
        # subsequence, I-frame forced wherever the source seq is not
        # contiguous (the sealed gaps).
        session = spec.build(tracking_backend_for("mdnet")).open_session(
            seq_obj.width, seq_obj.height, name="cam"
        )
        for position, seq in enumerate(accepted):
            forced = (
                seq != (accepted[position - 1] + 1 if position else 0)
            )
            session.submit(
                seq_obj.frame(seq),
                truth=seq_obj.truth_detections(seq),
                force_inference=forced,
            )
        serial = session.finish()
        assert_results_identical(serial, streamed)
