#!/usr/bin/env python
"""Append an end-to-end frame-path measurement to ``BENCH_motion.json``.

Run from the repository root:

    PYTHONPATH=src python benchmarks/run_pipeline_bench.py               # full preset
    PYTHONPATH=src python benchmarks/run_pipeline_bench.py --preset ci --guard
    PYTHONPATH=src python benchmarks/run_pipeline_bench.py --kernel-backend numba

Where ``run_motion_bench.py`` times the SAD kernels in isolation, this bench
times the *whole* per-frame session path — ISP stages, motion search, denoise
blend, extrapolation, backend inference — by feeding synthetic camera clips
through real :class:`~repro.core.session.EuphratesSession` objects at
720p/1080p under two schedules (``i_heavy`` EW=1, ``e_heavy`` EW=8).  Each
run **appends** a dated ``benchmark: "pipeline"`` entry recording:

* end-to-end fps and seconds/frame per (resolution, schedule), with the
  steady-state E-frame and I-frame costs split out;
* the per-stage wall-clock breakdown from the ``FrameTelemetry`` stage
  timings (same data the ``profile`` subcommand renders);
* the optimized denoise-blend speedup over the retained scalar reference
  (machine-robust same-run ratio, like the motion bench's scalar/vectorized
  TSS speedup);
* the peak heap churn of one steady-state E-frame ``submit()`` measured
  under ``tracemalloc`` (the allocation-free-steady-state guard).

``--guard`` enforces this bench's rows of the floor table in
``benchmarks/guard.py``: the blend-vs-reference speedup floor and the
E-frame allocation ceiling.  Wall-clock floors are same-run ratios on
purpose: absolute fps is machine-dependent, but "vectorized blend beats the
scalar loop by >= Nx" and "an E-frame allocates under M MB" hold on any box.
"""

from __future__ import annotations

import sys
import time

import numpy as np

import guard
from repro.core.spec import PipelineSpec
from repro.harness.perf import RESOLUTIONS
from repro.harness.pipeline_perf import SCHEDULES, benchmark_pipeline, make_sequence

#: Presets: name -> (resolution subset or None for all, frames per run).
PRESETS = {
    "full": (None, 18),
    # CI preset: 720p only, enough frames for a full EW=8 cycle plus
    # steady-state samples after the two warm-up frames.
    "ci": ({"720p": RESOLUTIONS["720p"]}, 12),
}


def measure_blend_speedup(spec: PipelineSpec, height: int, width: int, seed: int):
    """Same-run speedup of the dispatched blend over the scalar reference.

    Measures the *steady-state* call exactly as a session pays it: the raw
    uint8 frame handed straight to the kernel and a preallocated output
    buffer — the allocating first-call path would understate the speedup
    the session actually sees.
    """
    from repro.isp.denoise import TemporalDenoiseConfig, TemporalDenoiseStage
    from repro.isp.reference import reference_motion_compensated_blend

    sequence = make_sequence(height, width, 4, seed=seed)
    frames = [frame for _, frame in sequence.iter_frames()]
    stage = TemporalDenoiseStage(
        TemporalDenoiseConfig(block_matching=spec.block_matching_config()),
        reuse_output_buffers=True,
    )
    stage.process(frames[0])
    stage.process(frames[1])
    current = np.asarray(frames[2])
    current_f64 = np.asarray(current, dtype=np.float64)
    previous = stage._previous_denoised.copy()
    field = stage._matcher.estimate(
        stage._current_matching_reference(current, current_f64),
        stage._previous_reference,
    )

    def best_of(callable_, repeats=3):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            callable_()
            best = min(best, time.perf_counter() - start)
        return best

    config = stage.config
    out = np.empty(current.shape, dtype=np.float64)

    def optimized():
        return stage._motion_compensated_blend(current, previous, field, out=out)

    optimized()  # warm-up, like the session's steady state
    optimized_s = best_of(optimized)
    reference_s = best_of(
        lambda: reference_motion_compensated_blend(
            current_f64,
            previous,
            field,
            blend_strength=config.blend_strength,
            max_normalised_sad=config.max_normalised_sad,
        )
    )
    fast = optimized()
    slow = reference_motion_compensated_blend(
        current_f64,
        previous,
        field,
        blend_strength=config.blend_strength,
        max_normalised_sad=config.max_normalised_sad,
    )
    if not np.array_equal(fast, slow):
        raise AssertionError("dispatched blend diverged from the scalar reference")
    return {
        "optimized_s": optimized_s,
        "reference_s": reference_s,
        "speedup": reference_s / optimized_s if optimized_s > 0 else 0.0,
    }


def add_options(parser) -> None:
    parser.add_argument("--frames", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--kernel-backend",
        choices=("numpy", "numba"),
        default="numpy",
        help="kernel backend the sessions request (graceful numpy fallback)",
    )


def measure(args) -> dict:
    resolutions, preset_frames = PRESETS[args.preset]
    spec = PipelineSpec(kernel_backend=args.kernel_backend)
    entry = benchmark_pipeline(
        spec,
        resolutions=resolutions,
        num_frames=args.frames or preset_frames,
        seed=args.seed,
    )
    for result in entry["results"]:
        result["blend_vs_reference"] = measure_blend_speedup(
            spec, result["height"], result["width"], args.seed
        )
    return entry


def summarize(entry: dict) -> None:
    for result in entry["results"]:
        for schedule in SCHEDULES:
            timing = result[schedule]
            print(
                f"{result['resolution']} {schedule} (EW={timing['window']}): "
                f"{timing['fps']:.2f} fps overall, "
                f"E-frame {timing['e_s_per_frame'] * 1e3:.1f} ms "
                f"({timing['e_fps']:.2f} fps), "
                f"I-frame {timing['i_s_per_frame'] * 1e3:.1f} ms"
            )
        print(
            f"{result['resolution']} blend vs reference: "
            f"{result['blend_vs_reference']['speedup']:.1f}x; "
            f"E-frame alloc: {result['e_frame_alloc_mb']:.1f} MB"
        )


if __name__ == "__main__":
    sys.exit(guard.main(__doc__, PRESETS, measure, summarize, add_options))
