"""Unit tests for the benchmark's own arithmetic (no system under test needed)."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from benchstats import (  # noqa: E402
    FailureTally,
    InsufficientSamples,
    Span,
    covered_length,
    latency_from_due,
    min_samples_for,
    open_loop_schedule,
    percentile,
    phase_offsets,
    samples_beyond,
    self_time_by_name,
    self_times,
    tail_percentile,
)


# -- percentile rule ----------------------------------------------------
def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.95) == 95
    assert percentile(values, 0.99) == 99
    assert percentile([7.0], 0.99) == 7.0


def test_samples_beyond_counts_values_past_the_percentile():
    assert samples_beyond(100, 0.95) == 5
    assert samples_beyond(200, 0.95) == 10
    assert samples_beyond(1000, 0.99) == 10


def test_min_samples_for_needs_ten_beyond():
    assert min_samples_for(0.95) == 200
    assert min_samples_for(0.99) == 1000
    assert min_samples_for(0.5) == 20
    for fraction in (0.5, 0.9, 0.95, 0.99):
        need = min_samples_for(fraction)
        assert samples_beyond(need, fraction) >= 10
        assert samples_beyond(need - 1, fraction) < 10


def test_tail_percentile_refuses_thin_tails():
    values = [float(v) for v in range(199)]
    with pytest.raises(InsufficientSamples):
        tail_percentile(values, 0.95)
    values.append(199.0)
    assert tail_percentile(values, 0.95) == 189.0


# -- self time from nested spans ---------------------------------------
def test_self_time_subtracts_children():
    spans = [
        Span(1, None, "session", 0.0, 10.0),
        Span(2, 1, "isp", 1.0, 8.0),
        Span(3, 2, "motion", 2.0, 6.0),
        Span(4, 1, "nn", 8.5, 9.5),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 7.0 - 1.0)
    assert own[2] == pytest.approx(7.0 - 4.0)
    assert own[3] == pytest.approx(4.0)
    assert own[4] == pytest.approx(1.0)
    # Self times partition the root span.
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    spans = [
        Span(1, None, "pump", 0.0, 10.0),
        Span(2, 1, "a", 1.0, 5.0),
        Span(3, 1, "b", 4.0, 6.0),
        Span(4, 1, "late", 9.0, 12.0),
    ]
    assert self_times(spans)[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert covered_length([(1.0, 5.0), (4.0, 6.0), (9.0, 10.0)]) == pytest.approx(6.0)


def test_self_time_by_name_sums_same_named_nested_spans():
    spans = [
        Span(1, None, "soc.price", 0.0, 4.0),
        Span(2, 1, "soc.price", 1.0, 3.0),
        Span(3, None, "soc.price", 5.0, 6.0),
    ]
    assert self_time_by_name(spans) == {"soc.price": pytest.approx(5.0)}


# -- open-loop schedule -------------------------------------------------
def test_open_loop_due_times_follow_phase_and_rate():
    phases = [0.01, 0.05]
    sends = open_loop_schedule(phases, fps=10.0, frames=3)
    assert len(sends) == 6
    assert [s.due_s for s in sends] == sorted(s.due_s for s in sends)
    for send in sends:
        assert send.due_s == pytest.approx(phases[send.camera] + send.seq / 10.0)


def test_phase_offsets_are_seeded_and_within_one_period():
    assert phase_offsets(16, 8.0, seed=3) == phase_offsets(16, 8.0, seed=3)
    assert phase_offsets(16, 8.0, seed=3) != phase_offsets(16, 8.0, seed=4)
    phases = phase_offsets(16, 8.0, seed=5)
    assert all(0.0 <= p < 1.0 / 8.0 for p in phases)
    # One camera per slot of the period: no seed synchronizes the fleet.
    assert sorted(int(p * 8.0 * 16) for p in phases) == list(range(16))


def test_latency_is_measured_from_due_time_not_send_time():
    due, sent, acked = 1.000, 1.005, 1.007
    assert latency_from_due(due, acked) == pytest.approx(0.007)
    assert latency_from_due(due, acked) > acked - sent


# -- failed_frac accounting ---------------------------------------------
def test_failed_frac_counts_each_unit_once():
    tally = FailureTally()
    tally.attempt(100)
    tally.fail(("cam1", 3), "not-acked")
    tally.fail(("cam1", 3), "acked-schedule-vs-serial")
    tally.fail(("cam2", 0), "rejected-hello")
    assert tally.failed == 2
    assert tally.failed_frac == pytest.approx(0.02)
    assert tally.reasons == {"not-acked": 1, "acked-schedule-vs-serial": 1, "rejected-hello": 1}


def test_failed_frac_is_zero_when_everything_succeeds_and_needs_attempts():
    tally = FailureTally()
    with pytest.raises(ValueError):
        tally.failed_frac
    tally.attempt(5)
    assert tally.failed_frac == 0.0
