"""Machine fingerprint and same-run calibration probes.

:class:`SpeedProbe` times a fixed numpy kernel again and again while a
workload pauses.  The host this benchmark is built on changes speed by tens
of percent over tens of seconds, so the runner reports timings scaled to a
reference probe duration: ``reference time = measured time x
REFERENCE_PROBE_S / probe time then``.  Raw timings are kept alongside.
"""

from __future__ import annotations

import bisect
import os
import platform
import statistics
import time
from typing import Dict, List, Tuple

import numpy as np

#: Probe duration that defines reference speed (one probe call on an idle
#: 2-core Xeon VM).
REFERENCE_PROBE_S = 1.5e-3
#: Bursts this close to a moment are pooled when there are at least three
#: (the serving load probes one call at a time in idle gaps).
POOL_WINDOW_S = 0.5


class SpeedProbe:
    """Times a fixed integer abs-difference reduction over a 720p frame pair.

    The kernel has the shape of the system's hot loop (SAD-style numpy
    passes), so host slow-downs hit it and the workloads alike.  It runs in
    bursts while the workload is paused (before and after the measured
    window, and at the workload's own pause points), so it never competes
    with the workload it calibrates.  Between bursts the probe duration is
    interpolated linearly in time.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.integers(0, 255, (720, 1280)).astype(np.int32)
        self._b = self._a[::-1].copy()
        #: (mid time, median probe seconds) of every burst, in time order.
        self.bursts: List[Tuple[float, float]] = []
        # A few untimed calls first: the first calls in a fresh process also
        # fault in the allocator's pages for the temporaries, and a slow first
        # burst skews the set-up time it scales.
        for _ in range(3):
            np.abs(self._a - self._b).sum()

    def burst(self, seconds: float = 0.25) -> None:
        """Time the kernel back to back for about ``seconds`` (at least once)."""
        samples = []
        first = time.perf_counter()
        end = first + seconds
        while True:
            start = time.perf_counter()
            np.abs(self._a - self._b).sum()
            now = time.perf_counter()
            samples.append(now - start)
            if now >= end:
                break
        self.bursts.append(((first + now) / 2, statistics.median(samples)))

    def probe_s_at(self, moment: float) -> float:
        """Probe duration at ``moment``: the median of the bursts within
        ``POOL_WINDOW_S`` when there are three or more, otherwise interpolated
        between the nearest bursts."""
        near = [d for t, d in self.bursts if abs(t - moment) <= POOL_WINDOW_S]
        if len(near) >= 3:
            return statistics.median(near)
        times = [t for t, _ in self.bursts]
        index = bisect.bisect_left(times, moment)
        if index == 0:
            return self.bursts[0][1]
        if index == len(self.bursts):
            return self.bursts[-1][1]
        (t0, d0), (t1, d1) = self.bursts[index - 1], self.bursts[index]
        return d0 + (d1 - d0) * (moment - t0) / (t1 - t0)

    def scale_at(self, moment: float) -> float:
        """Factor converting a time measured at ``moment`` to reference speed."""
        return REFERENCE_PROBE_S / self.probe_s_at(moment)

    def mean_scale(self, start: float, end: float, steps: int = 64) -> float:
        """Time-averaged :meth:`scale_at` over ``[start, end]``."""
        return statistics.fmean(
            self.scale_at(start + (end - start) * (i + 0.5) / steps) for i in range(steps)
        )


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> str:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        return "unknown"


def memory_bandwidth_gbs(megabytes: int = 32, repeats: int = 7) -> float:
    """GB/s of a memory-bound ``np.add`` pass (two reads and one write), best of ``repeats``."""
    count = megabytes * 1024 * 1024 // 8
    a = np.ones(count)
    b = np.ones(count)
    out = np.empty(count)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        np.add(a, b, out=out)
        best = min(best, time.perf_counter() - start)
    return 3 * a.nbytes / best / 1e9


def fingerprint() -> Dict[str, object]:
    from repro import PipelineSpec
    from repro.motion.kernels import numba_available, resolve_kernel_backend

    return {
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "kernel_backend": resolve_kernel_backend(PipelineSpec().kernel_backend),
        "numba_available": numba_available(),
        "memory_gbs": round(memory_bandwidth_gbs(), 3),
    }
