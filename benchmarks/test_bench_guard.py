"""The bench floor table (``benchmarks/guard.py``) against the committed trajectory.

No timing: every check runs on committed ``BENCH_motion.json`` entries or
on entries built here.
"""

from __future__ import annotations

import copy
import json

import pytest

import guard

DOCUMENT = json.loads(guard.TRAJECTORY.read_text())
FLOORS = DOCUMENT["floors"]
BENCHES = sorted({row.bench for row in guard.FLOORS})


def latest(bench: str, preset: str = "ci") -> dict:
    return [
        entry
        for entry in DOCUMENT["entries"]
        if entry.get("benchmark") == bench and entry.get("preset") == preset
    ][-1]


def numba_entry(active: str = "numba") -> dict:
    """The latest ci motion entry re-labelled as a numba run at 720p and 1080p."""
    entry = copy.deepcopy(latest(guard.MOTION))
    entry["kernel_backend"] = "numba"
    entry["kernel_backend_active"] = active
    entry["results"].append(dict(entry["results"][0], resolution="1080p"))
    for result in entry["results"]:
        result["es_speedup_vs_numpy"] = 3.0
    return entry


def measured_entry(row: guard.Row) -> dict:
    """A committed (or re-labelled) entry on which ``row`` applies and measures."""
    if row.key.startswith("min_numba_"):
        return numba_entry()
    return latest(row.bench)


def test_every_floor_key_has_exactly_one_row():
    keys = [row.key for row in guard.FLOORS]
    assert sorted(keys) == sorted(FLOORS)
    assert len(keys) == len(set(keys))


def test_seeds_equal_the_committed_floors():
    assert {row.key: row.default for row in guard.FLOORS} == FLOORS


@pytest.mark.parametrize("row", guard.FLOORS, ids=lambda row: row.key)
def test_limit_passes_at_equality_and_fails_beyond(row):
    entry = measured_entry(row)
    value = row.extract(entry)
    assert value is not None
    floors = dict(FLOORS, **{row.key: value})
    assert guard.check(entry, floors) == []
    # Move the limit just past the value: above it for a floor, below it
    # for a ceiling.
    step = {"min": 1, "max": -1}[row.kind] * max(abs(value) * 1e-6, 1e-9)
    floors[row.key] = value + step
    violations = guard.check(entry, floors)
    assert len(violations) == 1
    assert violations[0].startswith(f"{row.key}: measured ")


@pytest.mark.parametrize(
    "kind, value, limit, ok",
    [
        ("min", 2.0, 2.0, True),
        ("min", 1.999, 2.0, False),
        ("max", 2.0, 2.0, True),
        ("max", 2.001, 2.0, False),
        ("equal", 0, 0, True),
        ("equal", 1, 0, False),
    ],
)
def test_comparator(kind, value, limit, ok):
    assert guard.passes(kind, value, limit) is ok


@pytest.mark.parametrize(
    "entry",
    [
        {"benchmark": guard.MOTION},
        {
            "benchmark": guard.MOTION,
            "kernel_backend": "numba",
            "results": [{"resolution": "720p"}, {"resolution": "1080p"}],
        },
        {"benchmark": "pipeline"},
        {"benchmark": "multi_stream", "per_stream": [{"name": "camera_0"}]},
        {"benchmark": "serve"},
        {"benchmark": "tune"},
    ],
    ids=lambda entry: entry["benchmark"] + ("_numba" if "kernel_backend" in entry else ""),
)
def test_missing_metric_is_a_violation(entry):
    rows = guard.guarded(entry, FLOORS)
    assert rows
    assert guard.check(entry, FLOORS) == [f"{row.key}: not measured" for row, _ in rows]


def test_numba_rows_skip_numpy_entries():
    entry = latest(guard.MOTION)
    assert entry["kernel_backend"] == "numpy"
    impossible = dict(FLOORS)
    for row in guard.FLOORS:
        if row.key.startswith("min_numba_"):
            impossible[row.key] = 1e9
    assert guard.check(entry, impossible) == []


def test_numba_rows_apply_only_at_measured_resolutions():
    entry = numba_entry()
    entry["results"] = [r for r in entry["results"] if r["resolution"] == "720p"]
    keys = [row.key for row, _ in guard.guarded(entry, FLOORS)]
    assert "min_numba_es_speedup_vs_numpy_720p" in keys
    assert "min_numba_es_speedup_vs_numpy_1080p" not in keys


def test_inactive_numba_entry_is_a_violation():
    assert guard.check(numba_entry(), FLOORS) == []
    assert guard.check(numba_entry(active="numpy"), FLOORS) == [
        "kernel_backend_active: measured numpy, equal numba"
    ]


def test_resume_reevaluation_and_missing_acks_are_violations():
    tune = dict(latest("tune"), resume_reevaluated=2)
    assert guard.check(tune, FLOORS) == ["resume_reevaluated: measured 2, equal 0"]
    serve = dict(latest("serve"), result_acks=0)
    assert guard.check(serve, FLOORS) == ["result_acks: measured 0, min 1"]


@pytest.mark.parametrize("bench", BENCHES)
def test_bench_never_checks_another_benchs_rows(bench):
    entry = latest(bench)
    assert {row.bench for row, _ in guard.guarded(entry, FLOORS)} == {bench}
    foreign = {
        row.key: (-1e9 if row.kind == "max" else 1e9)
        for row in guard.FLOORS
        if row.bench != bench
    }
    assert guard.check(entry, dict(FLOORS, **foreign)) == []


@pytest.mark.parametrize("bench", BENCHES)
def test_latest_committed_ci_entry_passes(bench):
    assert guard.check(latest(bench), FLOORS) == []


def test_report_prints_only_the_bench_rows(capsys):
    entry = latest("serve")
    assert guard.report(entry, FLOORS, guard=True) == 0
    out = capsys.readouterr().out
    assert out.startswith("serve floors OK: max_serve_p99_latency_ms=")
    assert "result_acks=" in out
    assert "min_tss" not in out


def test_report_fails_only_under_guard(capsys):
    entry = dict(latest("serve"), latency_p99_ms=1e6)
    assert guard.report(entry, FLOORS, guard=False) == 0
    assert guard.report(entry, FLOORS, guard=True) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "max_serve_p99_latency_ms: measured 1000000.00, max 1500.0" in captured.err


def test_load_seeds_a_fresh_file(tmp_path):
    document = guard.load(tmp_path / "fresh.json")
    assert document == {"schema": 2, "floors": FLOORS, "entries": []}
