"""Motion-estimation performance microbenchmarks.

Measures frames/sec of the vectorized block matcher on synthetic 720p/1080p
sequences and compares it against the scalar reference oracle
(:mod:`repro.motion.reference`), so every PR can check the perf trajectory.
Besides the three-step search (the production default) the benchmark times
the exhaustive search (also against the scalar oracle, on a crop) and the
fixed-point float-frame path, the two hot-path gaps this repo's trajectory
tracks.
The SAD kernel backend (numpy or the compiled numba backend) is a
parameter, so the same harness measures both sides of the backend speedup.

The results are appended to the ``BENCH_motion.json`` trajectory by
``benchmarks/run_motion_bench.py`` (which also enforces the stored perf
floors for CI) and asserted by ``benchmarks/test_perf_motion.py``.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..motion.block_matching import BlockMatcher, BlockMatchingConfig, SearchStrategy
from ..motion.kernels import resolve_kernel_backend
from ..motion.reference import scalar_estimate

#: Benchmark resolutions: label -> (height, width).
RESOLUTIONS: Dict[str, Tuple[int, int]] = {
    "720p": (720, 1280),
    "1080p": (1080, 1920),
}

#: Top-left crop (height, width) on which exhaustive search is timed against
#: the scalar oracle: the oracle's ES scores each of a 720p frame's 3,600
#: blocks at 225 offsets one call at a time (~6 s per frame), while the crop
#: keeps 900 blocks and the ratio, since both sides scale with block count.
ES_ORACLE_CROP: Tuple[int, int] = (360, 640)

#: Frame size (height, width) of the tracking pool's sequences.  ES there
#: scores 84 blocks per offset, so per-call dispatch rather than arithmetic
#: sets its speed; it is timed against the scalar oracle on its own.
ES_SMALL_FRAME: Tuple[int, int] = (108, 192)


def synthetic_luma_sequence(
    height: int, width: int, num_frames: int, seed: int = 0
) -> np.ndarray:
    """A textured uint8 luma sequence with global translational motion.

    The content is smooth-but-textured (block matching can lock on) and each
    frame shifts by a couple of pixels, which mirrors the camera/object
    motion the paper's workloads exhibit.
    """
    rng = np.random.default_rng(seed)
    coarse = rng.uniform(0, 255, (height // 8 + 4, width // 8 + 4))
    canvas = np.kron(coarse, np.ones((8, 8)))
    frames = np.empty((num_frames, height, width), dtype=np.uint8)
    for index in range(num_frames):
        dy = (index * 2) % 16
        dx = (index * 3) % 16
        frames[index] = canvas[dy : dy + height, dx : dx + width].astype(np.uint8)
    return frames


def _time_per_frame(estimate, frames) -> float:
    start = time.perf_counter()
    for index in range(1, len(frames)):
        estimate(frames[index], frames[index - 1])
    elapsed = time.perf_counter() - start
    return elapsed / (len(frames) - 1)


def benchmark_motion_estimation(
    resolutions: Optional[Dict[str, Tuple[int, int]]] = None,
    num_frames: int = 4,
    block_size: int = 16,
    search_range: int = 7,
    include_scalar: bool = True,
    include_exhaustive: bool = True,
    include_fixed_point: bool = True,
    kernel_backend: str = "numpy",
    seed: int = 0,
) -> Dict[str, object]:
    """Benchmark the vectorized searches (and the scalar oracle) per resolution.

    Returns a JSON-ready dict with, per resolution:

    * vectorized TSS frames/sec and latency (the legacy ``vectorized_*``
      keys), the analytical op counts, and — with ``include_scalar`` — the
      scalar-oracle timing and the vectorized-vs-scalar ``speedup``;
    * with ``include_exhaustive``, exhaustive-search timing (``es_*``) and
      its ``es_vs_tss`` ratio; with ``include_scalar`` as well, the ES and
      scalar-oracle ES timings on the :data:`ES_ORACLE_CROP` crop and their
      ``es_speedup_vs_scalar`` ratio;
    * with ``include_exhaustive`` and ``include_scalar``, ES and scalar-oracle
      ES timings at :data:`ES_SMALL_FRAME` and their ratio, once per run
      (the top-level ``es_small_frame`` dict);
    * with ``include_fixed_point``, TSS timing on Q8.4 fixed-point float
      frames (``fixed_point_*``) and its ratio to the uint8 fast path —
      tracking that float-valued frames no longer fall off onto the float64
      gather kernel.

    ``include_scalar=False`` skips the slow oracle timing (useful for quick
    smoke runs).  ``kernel_backend`` selects the SAD kernel implementation
    (``numpy``/``numba``); the top-level result records both the requested
    backend and the backend that actually ran (``numba`` silently degrades
    to ``numpy`` when Numba is absent, and the trajectory must say so).
    """
    if num_frames < 2:
        raise ValueError("num_frames must be >= 2 (timing needs at least one frame pair)")
    resolutions = resolutions or RESOLUTIONS
    active_backend = resolve_kernel_backend(kernel_backend)
    config = BlockMatchingConfig(
        block_size=block_size,
        search_range=search_range,
        strategy=SearchStrategy.THREE_STEP,
        kernel_backend=kernel_backend,
    )
    matcher = BlockMatcher(config)
    results: List[Dict[str, object]] = []

    for label, (height, width) in resolutions.items():
        frames = synthetic_luma_sequence(height, width, num_frames, seed=seed)
        matcher.estimate(frames[1], frames[0])  # warm-up

        vector_s = _time_per_frame(matcher.estimate, frames)
        entry: Dict[str, object] = {
            "resolution": label,
            "height": height,
            "width": width,
            "frames_timed": num_frames - 1,
            "vectorized_s_per_frame": vector_s,
            "vectorized_fps": 1.0 / vector_s,
            "ops_per_frame": config.ops_per_frame(width, height),
            "ops_per_macroblock": config.ops_per_macroblock,
        }
        if include_scalar:
            scalar_s = _time_per_frame(
                lambda cur, prev: scalar_estimate(
                    cur, prev, block_size=block_size, search_range=search_range
                ),
                frames,
            )
            entry["scalar_s_per_frame"] = scalar_s
            entry["scalar_fps"] = 1.0 / scalar_s
            entry["speedup"] = scalar_s / vector_s

        if include_exhaustive:
            es_matcher = BlockMatcher(
                BlockMatchingConfig(
                    block_size=block_size,
                    search_range=search_range,
                    strategy=SearchStrategy.EXHAUSTIVE,
                    kernel_backend=kernel_backend,
                )
            )
            es_matcher.estimate(frames[1], frames[0])  # warm-up
            es_s = _time_per_frame(es_matcher.estimate, frames)
            entry["es_s_per_frame"] = es_s
            entry["es_fps"] = 1.0 / es_s
            # > 1 means ES is still slower than TSS; the trajectory tracks
            # this gap.
            entry["es_vs_tss"] = es_s / vector_s
            if include_scalar:
                # The two sides alternate pair by pair, so a change in
                # machine speed mid-run hits both alike.
                crop = frames[:, : ES_ORACLE_CROP[0], : ES_ORACLE_CROP[1]]
                es_matcher.estimate(crop[1], crop[0])  # warm-up at the crop size
                es_crop_s = scalar_es_s = 0.0
                for index in range(1, num_frames):
                    pair = crop[index - 1 : index + 1]
                    es_crop_s += _time_per_frame(es_matcher.estimate, pair)
                    scalar_es_s += _time_per_frame(
                        lambda cur, prev: scalar_estimate(
                            cur,
                            prev,
                            block_size=block_size,
                            search_range=search_range,
                            three_step=False,
                        ),
                        pair,
                    )
                es_crop_s /= num_frames - 1
                scalar_es_s /= num_frames - 1
                entry["es_crop"] = list(crop.shape[1:])
                entry["es_crop_s_per_frame"] = es_crop_s
                entry["es_scalar_crop_s_per_frame"] = scalar_es_s
                entry["es_speedup_vs_scalar"] = scalar_es_s / es_crop_s

        if include_fixed_point:
            # Q8.4 lattice floats: integer-valued after scaling by 16, so
            # the kernel must ride the exact integer path, not the float64
            # gather.  The +1/16 keeps the full 0..255 value range with a
            # non-zero fractional part, so the scaled integers span 0..4081
            # and the kernel lands in the int32 working dtype — the same
            # regime the quantized ISP's real Q8.4 frames execute (a /16
            # shrink would scale back into uint8 and measure a faster path
            # the pipeline never takes).  The uniform offset on both frames
            # leaves every SAD, and hence the search work, unchanged.
            lattice_frames = [frame.astype(np.float64) + 1.0 / 16.0 for frame in frames]
            matcher.estimate(lattice_frames[1], lattice_frames[0])  # warm-up
            fixed_s = _time_per_frame(matcher.estimate, lattice_frames)
            entry["fixed_point_s_per_frame"] = fixed_s
            entry["fixed_point_fps"] = 1.0 / fixed_s
            entry["fixed_point_vs_uint8"] = fixed_s / vector_s
            entry["fixed_point_kernel_exact"] = bool(matcher.last_kernel_exact)
        results.append(entry)

    payload = {
        "benchmark": "motion_estimation",
        "block_size": block_size,
        "search_range": search_range,
        "kernel_backend": kernel_backend,
        "kernel_backend_active": active_backend,
        "results": results,
    }
    if include_exhaustive and include_scalar:
        payload["es_small_frame"] = benchmark_small_frame_es(
            block_size, search_range, kernel_backend, seed=seed
        )
    return payload


def benchmark_small_frame_es(
    block_size: int = 16,
    search_range: int = 7,
    kernel_backend: str = "numpy",
    num_frames: int = 6,
    repeats: int = 10,
    seed: int = 0,
) -> Dict[str, object]:
    """Time ES against the scalar oracle at :data:`ES_SMALL_FRAME`.

    The vectorized side is a few milliseconds per frame, so each pair is
    timed ``repeats`` times (mean) to keep one slow interval from setting
    the ratio; the oracle scores each pair once.  The two sides alternate
    pair by pair, so a change in machine speed mid-run hits both alike.
    """
    height, width = ES_SMALL_FRAME
    frames = synthetic_luma_sequence(height, width, num_frames, seed=seed)
    matcher = BlockMatcher(
        BlockMatchingConfig(
            block_size=block_size,
            search_range=search_range,
            strategy=SearchStrategy.EXHAUSTIVE,
            kernel_backend=kernel_backend,
        )
    )
    matcher.estimate(frames[1], frames[0])  # warm-up
    es_s = scalar_s = 0.0
    for index in range(1, num_frames):
        pair = frames[index - 1 : index + 1]
        es_s += sum(_time_per_frame(matcher.estimate, pair) for _ in range(repeats)) / repeats
        scalar_s += _time_per_frame(
            lambda cur, prev: scalar_estimate(
                cur, prev, block_size=block_size, search_range=search_range, three_step=False
            ),
            pair,
        )
    es_s /= num_frames - 1
    scalar_s /= num_frames - 1
    return {
        "frame": [height, width],
        "frames_timed": num_frames - 1,
        "es_s_per_frame": es_s,
        "es_scalar_s_per_frame": scalar_s,
        "es_speedup_vs_scalar": scalar_s / es_s,
    }
