#!/usr/bin/env python
"""Append a motion-estimation perf measurement to ``BENCH_motion.json``.

Run from the repository root:

    PYTHONPATH=src python benchmarks/run_motion_bench.py              # full preset
    PYTHONPATH=src python benchmarks/run_motion_bench.py --preset ci --guard

Each run measures fps / per-frame latency / analytical op counts for the
vectorized three-step search (against the scalar oracle it must beat), the
exhaustive search (against the scalar oracle on a crop of the 720p frames and
at the tracking pool's 192x108 frames), and the fixed-point float-frame
path, then
**appends** a dated entry to the trajectory file — the perf history
accumulates across commits instead of being overwritten.  A legacy
single-payload ``BENCH_motion.json`` is migrated into the first trajectory
entry automatically.

``--kernel-backend numba`` measures the compiled SAD backend; the entry then
also times the numpy-backend ES at each resolution and records the
``es_speedup_vs_numpy`` ratio the accel floors guard.  The entry
always records both the requested and the *active* backend (numba degrades
to numpy when Numba is absent), so the trajectory never lies about what ran.

``--guard`` enforces the perf floors stored in the file (the CI
``perf-guard`` and ``kernels-accel`` jobs run this): the process exits
non-zero when the fresh measurement's TSS or either ES speedup over the
scalar oracle drops below its floor — or, under ``--kernel-backend numba``, when
the backend failed to activate or its ES speedup over numpy missed the
accel floor.

Commit the refreshed JSON whenever the motion hot path changes.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from datetime import datetime, timezone
from pathlib import Path

from repro.harness.perf import (
    RESOLUTIONS,
    _time_per_frame,
    benchmark_motion_estimation,
    synthetic_luma_sequence,
)
from repro.motion.kernels import KERNEL_BACKENDS

#: Floors seeded into a fresh trajectory file.  The committed
#: ``BENCH_motion.json`` carries the authoritative values; edit them there
#: (with justification) rather than here.
DEFAULT_FLOORS = {
    # Three-step search on per-step pixel-major neighbourhoods measured
    # 33-45x the scalar oracle at 720p (the earlier engine 9-15x).
    "min_tss_speedup_720p": 20.0,
    # Exhaustive search vs the scalar oracle's ES on the 360x640 crop of
    # the 720p sequence (perf.ES_ORACLE_CROP): measured 23-39x.
    "min_es_speedup_vs_scalar_720p": 15.0,
    # The same ratio at the tracking pool's 192x108 frames
    # (perf.ES_SMALL_FRAME), where ES is dispatch-bound: measured 22.7-32.4x
    # over 12 runs with the one-call window scan (14.7-15.5x with the old
    # per-offset loop).
    "min_es_speedup_vs_scalar_192x108": 15.0,
    # Ceiling on the modeled per-stream energy of the multi-stream bench
    # (run_stream_bench.py --guard).  The modeled energy is deterministic
    # for a given spec/workload, so a breach means a real regression in the
    # scheduler (I-frame batching stopped amortising weight traffic — the
    # ci preset prices 13.99 mJ/frame batched vs 14.24 unbatched) or in the
    # SoC cost model itself — not measurement noise.
    "max_stream_energy_per_frame_mj": 14.1,
    # Accel floors: checked only on entries measured with
    # --kernel-backend numba (and each only at resolutions the preset
    # actually measured).  The compiled backend must genuinely activate and
    # beat the numpy ES by this factor, else the guard fails.
    "min_numba_es_speedup_vs_numpy_720p": 2.0,
    "min_numba_es_speedup_vs_numpy_1080p": 2.0,
}

#: Presets: name -> (resolutions, frames, include_scalar).
PRESETS = {
    # The full trajectory measurement (both resolutions).
    "full": (None, 4, True),
    # Small CI preset: 720p only, fewest frames that still time a pair per
    # measurement — enough for the guarded ratios, cheap enough for CI.
    "ci": ({"720p": RESOLUTIONS["720p"]}, 3, True),
}


def load_trajectory(path: Path) -> dict:
    """Load (or initialise) the trajectory document, migrating legacy files."""
    if not path.exists():
        return {"schema": 2, "floors": dict(DEFAULT_FLOORS), "entries": []}
    document = json.loads(path.read_text())
    if "entries" in document:
        document.setdefault("floors", dict(DEFAULT_FLOORS))
        return document
    # Legacy format: the whole file was one benchmark payload.
    return {"schema": 2, "floors": dict(DEFAULT_FLOORS), "entries": [document]}


def check_floors(entry: dict, floors: dict) -> list:
    """Return human-readable violations of the stored perf floors.

    The base TSS/ES floors apply to every guarded run.  The accel
    (``min_numba_*``) floors apply only to entries measured with
    ``--kernel-backend numba``, and each only at resolutions the preset
    measured; on such entries the backend must also have actually activated
    (a silent degrade to numpy would otherwise green-light the guard while
    measuring the wrong thing).
    """
    measured = {
        result["resolution"]: result for result in entry.get("results", [])
    }
    measured["192x108"] = entry.get("es_small_frame")
    violations = []
    checks = [
        ("min_tss_speedup_720p", "720p", "speedup"),
        ("min_es_speedup_vs_scalar_720p", "720p", "es_speedup_vs_scalar"),
        ("min_es_speedup_vs_scalar_192x108", "192x108", "es_speedup_vs_scalar"),
    ]
    for floor_key, resolution, metric in checks:
        floor = floors.get(floor_key)
        if floor is None:
            continue
        result = measured.get(resolution)
        if result is None or metric not in result:
            violations.append(
                f"{floor_key}: metric '{metric}' at {resolution} was not measured "
                f"(run without --skip-scalar / --skip-exhaustive)"
            )
            continue
        value = result[metric]
        if value < floor:
            violations.append(
                f"{floor_key}: measured {value:.2f}x < floor {floor:.2f}x"
            )

    if entry.get("kernel_backend") == "numba":
        if entry.get("kernel_backend_active") != "numba":
            violations.append(
                "kernel_backend: numba requested but inactive (is the "
                "[accel] extra installed?) — the guarded run measured numpy"
            )
        for resolution in ("720p", "1080p"):
            floor = floors.get(f"min_numba_es_speedup_vs_numpy_{resolution}")
            result = measured.get(resolution)
            if floor is None or result is None:
                continue
            value = result.get("es_speedup_vs_numpy")
            if value is None:
                violations.append(
                    f"min_numba_es_speedup_vs_numpy_{resolution}: "
                    "metric 'es_speedup_vs_numpy' was not measured"
                )
            elif value < floor:
                violations.append(
                    f"min_numba_es_speedup_vs_numpy_{resolution}: "
                    f"measured {value:.2f}x < floor {floor:.2f}x"
                )
    return violations


def add_numpy_es_baseline(entry: dict, num_frames: int, seed: int = 0) -> None:
    """Time the numpy-backend ES and attach the backend speedup.

    Mutates each resolution result in ``entry`` with
    ``es_numpy_s_per_frame`` and ``es_speedup_vs_numpy`` so a
    ``--kernel-backend numba`` entry carries its own baseline — the ratio
    the accel floors guard, self-contained in one trajectory entry.
    """
    from repro.motion.block_matching import BlockMatcher, BlockMatchingConfig, SearchStrategy

    matcher = BlockMatcher(
        BlockMatchingConfig(
            block_size=entry["block_size"],
            search_range=entry["search_range"],
            strategy=SearchStrategy.EXHAUSTIVE,
            kernel_backend="numpy",
        )
    )
    for result in entry.get("results", []):
        if "es_s_per_frame" not in result:
            continue
        frames = synthetic_luma_sequence(
            result["height"], result["width"], num_frames, seed=seed
        )
        matcher.estimate(frames[1], frames[0])  # warm-up
        numpy_s = _time_per_frame(matcher.estimate, frames)
        result["es_numpy_s_per_frame"] = numpy_s
        result["es_speedup_vs_numpy"] = numpy_s / result["es_s_per_frame"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_motion.json",
        help="trajectory JSON to append to (default: repo-root BENCH_motion.json)",
    )
    parser.add_argument(
        "--preset",
        choices=sorted(PRESETS),
        default="full",
        help="measurement preset: 'full' = 720p+1080p, 'ci' = small 720p-only "
        "preset for the perf-guard job (default: full)",
    )
    parser.add_argument(
        "--frames", type=int, default=None, help="override frames per synthetic sequence"
    )
    parser.add_argument(
        "--skip-scalar",
        action="store_true",
        help="skip the slow scalar-oracle timing (no speedup column)",
    )
    parser.add_argument(
        "--skip-exhaustive",
        action="store_true",
        help="skip the exhaustive-search timings",
    )
    parser.add_argument(
        "--kernel-backend",
        choices=list(KERNEL_BACKENDS),
        default="numpy",
        help="SAD kernel backend to measure; 'numba' also times the numpy "
        "ES baseline and records the backend speedup (default: numpy)",
    )
    parser.add_argument(
        "--guard",
        action="store_true",
        help="fail (exit 1) when the fresh measurement violates the perf "
        "floors stored in the trajectory file",
    )
    args = parser.parse_args()

    resolutions, preset_frames, preset_scalar = PRESETS[args.preset]
    include_scalar = preset_scalar and not args.skip_scalar
    if args.guard and (args.skip_scalar or args.skip_exhaustive):
        parser.error("--guard needs the scalar and exhaustive measurements")

    num_frames = args.frames if args.frames is not None else preset_frames
    entry = benchmark_motion_estimation(
        resolutions=resolutions,
        num_frames=num_frames,
        include_scalar=include_scalar,
        include_exhaustive=not args.skip_exhaustive,
        kernel_backend=args.kernel_backend,
    )
    if args.kernel_backend != "numpy" and not args.skip_exhaustive:
        add_numpy_es_baseline(entry, num_frames)
    entry["date"] = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    entry["preset"] = args.preset
    entry["python"] = platform.python_version()
    entry["machine"] = platform.machine()

    document = load_trajectory(args.output)
    document["entries"].append(entry)
    args.output.write_text(json.dumps(document, indent=2) + "\n")
    print(f"appended entry {len(document['entries'])} to {args.output}")

    for result in entry["results"]:
        line = f"  {result['resolution']:>6}: TSS {result['vectorized_fps']:.1f} fps"
        if "speedup" in result:
            line += f" ({result['speedup']:.1f}x scalar)"
        if "es_fps" in result:
            line += f"; ES {result['es_fps']:.1f} fps"
        if "es_speedup_vs_scalar" in result:
            line += f" ({result['es_speedup_vs_scalar']:.1f}x scalar on the crop)"
        if "es_speedup_vs_numpy" in result:
            line += (
                f"; {entry['kernel_backend_active']} backend "
                f"{result['es_speedup_vs_numpy']:.1f}x numpy ES"
            )
        if "fixed_point_fps" in result:
            line += f"; Q8.4 TSS {result['fixed_point_fps']:.1f} fps"
        print(line)
    small = entry.get("es_small_frame")
    if small is not None:
        print(
            f"  {small['frame'][1]}x{small['frame'][0]}: ES "
            f"{small['es_s_per_frame'] * 1e3:.2f} ms/frame "
            f"({small['es_speedup_vs_scalar']:.1f}x scalar)"
        )

    if args.guard:
        violations = check_floors(entry, document["floors"])
        if violations:
            for violation in violations:
                print(f"PERF FLOOR VIOLATION — {violation}", file=sys.stderr)
            return 1
        print("perf floors OK:", ", ".join(
            f"{key}={value}" for key, value in document["floors"].items()
        ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
