#!/usr/bin/env python
"""Append a motion-estimation perf measurement to ``BENCH_motion.json``.

Run from the repository root:

    PYTHONPATH=src python benchmarks/run_motion_bench.py              # full preset
    PYTHONPATH=src python benchmarks/run_motion_bench.py --preset ci --guard

Each run measures fps / per-frame latency / analytical op counts for the
vectorized three-step search (against the scalar oracle it must beat), the
exhaustive search (against the scalar oracle on a crop of the 720p frames and
at the tracking pool's 192x108 frames), and the fixed-point float-frame
path, then **appends** a dated entry to the trajectory file.

``--kernel-backend numba`` measures the compiled SAD backend; the entry then
also times the numpy-backend ES at each resolution and records the
``es_speedup_vs_numpy`` ratio the accel floors guard.  The entry
always records both the requested and the *active* backend (numba degrades
to numpy when Numba is absent), so the trajectory never lies about what ran.

``--guard`` enforces this bench's rows of the floor table in
``benchmarks/guard.py``: the TSS and both ES speedups over the scalar
oracle, and under ``--kernel-backend numba`` an active backend and its ES
speedup over numpy.
"""

from __future__ import annotations

import sys

import guard
from repro.harness.perf import (
    RESOLUTIONS,
    _time_per_frame,
    benchmark_motion_estimation,
    synthetic_luma_sequence,
)
from repro.motion.kernels import KERNEL_BACKENDS

#: Presets: name -> (resolutions, frames).
PRESETS = {
    # The full trajectory measurement (both resolutions).
    "full": (None, 4),
    # Small CI preset: 720p only, fewest frames that still time a pair per
    # measurement — enough for the guarded ratios, cheap enough for CI.
    "ci": ({"720p": RESOLUTIONS["720p"]}, 3),
}


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
        frames = synthetic_luma_sequence(
            result["height"], result["width"], num_frames, seed=seed
        )
        matcher.estimate(frames[1], frames[0])  # warm-up
        numpy_s = _time_per_frame(matcher.estimate, frames)
        result["es_numpy_s_per_frame"] = numpy_s
        result["es_speedup_vs_numpy"] = numpy_s / result["es_s_per_frame"]


def add_options(parser) -> None:
    parser.add_argument(
        "--frames", type=int, default=None, help="override frames per synthetic sequence"
    )
    parser.add_argument(
        "--kernel-backend",
        choices=list(KERNEL_BACKENDS),
        default="numpy",
        help="SAD kernel backend to measure; 'numba' also times the numpy "
        "ES baseline and records the backend speedup (default: numpy)",
    )


def measure(args) -> dict:
    resolutions, preset_frames = PRESETS[args.preset]
    num_frames = args.frames if args.frames is not None else preset_frames
    entry = benchmark_motion_estimation(
        resolutions=resolutions,
        num_frames=num_frames,
        kernel_backend=args.kernel_backend,
    )
    if args.kernel_backend != "numpy":
        add_numpy_es_baseline(entry, num_frames)
    return entry


def summarize(entry: dict) -> None:
    for result in entry["results"]:
        line = (
            f"  {result['resolution']:>6}: TSS {result['vectorized_fps']:.1f} fps "
            f"({result['speedup']:.1f}x scalar); ES {result['es_fps']:.1f} fps "
            f"({result['es_speedup_vs_scalar']:.1f}x scalar on the crop)"
        )
        if "es_speedup_vs_numpy" in result:
            line += (
                f"; {entry['kernel_backend_active']} backend "
                f"{result['es_speedup_vs_numpy']:.1f}x numpy ES"
            )
        line += f"; Q8.4 TSS {result['fixed_point_fps']:.1f} fps"
        print(line)
    small = entry["es_small_frame"]
    print(
        f"  {small['frame'][1]}x{small['frame'][0]}: ES "
        f"{small['es_s_per_frame'] * 1e3:.2f} ms/frame "
        f"({small['es_speedup_vs_scalar']:.1f}x scalar)"
    )


if __name__ == "__main__":
    sys.exit(guard.main(__doc__, PRESETS, measure, summarize, add_options))
