#!/usr/bin/env python
"""Append a design-space autotune measurement to ``BENCH_motion.json``.

Run from the repository root:

    PYTHONPATH=src python benchmarks/run_tune_bench.py               # full preset
    PYTHONPATH=src python benchmarks/run_tune_bench.py --preset ci --guard

Each run sweeps the ``ci`` tuning space with ``repro.harness.tune.run_tune``
(grid strategy, a fresh store), records the measured Pareto frontier and
the headline co-design number — the lowest modeled energy-per-frame whose
tracking accuracy is at least the seed (default-spec) configuration's —
then **appends** a dated ``benchmark: "tune"`` entry to the shared
trajectory file.  The sweep is then immediately re-run against the same
store, and the entry records how many points the resume pass evaluated:
anything but zero means the disk store stopped deduplicating work.

``--guard`` enforces this bench's rows of the floor table in
``benchmarks/guard.py``: the process exits non-zero when the frontier
collapses below ``min_tune_frontier_points``, when the best achievable
energy at seed accuracy rises above ``max_tune_best_energy_per_frame_mj``
(the extrapolation scheduling or the cost core regressed), or when the
resume pass re-evaluated anything.

Commit the refreshed JSON whenever the tuner, the spec surface, or the
cost core changes.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import guard
from repro.core.spec import PipelineSpec
from repro.harness.tune import (
    TUNE_PRESETS,
    TuneStore,
    best_at_baseline_accuracy,
    point_key,
    run_tune,
)

#: Fidelity preset each bench preset measures at (the tune space is always
#: ``ci``; ``full`` fidelity is the EXPERIMENTS.md configuration).
PRESETS = {"ci": "ci", "full": "full"}


def measure(args) -> dict:
    """One tune sweep + resume pass; returns the trajectory entry."""
    fidelity_preset, seed = PRESETS[args.preset], args.seed
    workers = args.workers if args.workers > 1 else None
    with tempfile.TemporaryDirectory(prefix="tune-bench-") as tmp:
        store_path = Path(tmp) / "store.jsonl"
        report = run_tune(
            "ci",
            preset=fidelity_preset,
            strategy="grid",
            seed=seed,
            store_path=store_path,
            max_workers=workers,
        )
        resumed = run_tune(
            "ci",
            preset=fidelity_preset,
            strategy="grid",
            seed=seed,
            store_path=store_path,
            resume=True,
            max_workers=workers,
        )
        store = TuneStore(store_path)
        store.load()
        fidelity = TUNE_PRESETS[fidelity_preset]
        baseline = store.get(point_key(PipelineSpec(), fidelity, seed))
        best = best_at_baseline_accuracy(store.results(), baseline)
    entry = {
        "benchmark": "tune",
        "space": "ci",
        "strategy": "grid",
        "seed": seed,
        "fidelity": fidelity.to_dict(),
        "candidates": report.artifact.metadata["candidates"],
        "evaluated": report.evaluated,
        "resume_reevaluated": resumed.evaluated,
        "frontier_points": len(report.frontier),
        "frontier": [
            {
                "config": result.describe,
                "spec": list(result.spec_args),
                "accuracy": round(result.accuracy, 4),
                "energy_per_frame_mj": round(result.energy_per_frame_mj, 3),
                "fps": round(result.fps, 1),
            }
            for result in report.frontier
        ],
    }
    if baseline is not None:
        entry["baseline_accuracy"] = round(baseline.accuracy, 4)
        entry["baseline_energy_per_frame_mj"] = round(
            baseline.energy_per_frame_mj, 3
        )
    if best is not None:
        entry["best_energy_per_frame_mj"] = round(best.energy_per_frame_mj, 3)
        entry["best_config"] = best.describe
        entry["best_accuracy"] = round(best.accuracy, 4)
    return entry


def add_options(parser) -> None:
    parser.add_argument(
        "--seed", type=int, default=1, help="backend seed (default: 1)"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for sequence execution (default: 1, serial — "
        "adaptive-window points are only worker-invariant serially)",
    )


def summarize(entry: dict) -> None:
    print(
        f"  {entry['candidates']} candidate(s), {entry['evaluated']} evaluated, "
        f"resume re-evaluated {entry['resume_reevaluated']}"
    )
    for point in entry["frontier"]:
        print(
            f"  frontier: {point['config']:<28s} acc {point['accuracy']:.3f}  "
            f"{point['energy_per_frame_mj']:.2f} mJ/frame  {point['fps']:.0f} fps"
        )
    if "best_energy_per_frame_mj" in entry:
        print(
            f"  best at >= seed accuracy: {entry['best_config']} — "
            f"{entry['best_energy_per_frame_mj']:.2f} mJ/frame"
        )


if __name__ == "__main__":
    sys.exit(guard.main(__doc__, PRESETS, measure, summarize, add_options))
