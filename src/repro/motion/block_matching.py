"""Block-matching motion estimation (Sec. 2.3).

Two search strategies are provided:

* **Exhaustive search (ES)** — evaluates every candidate displacement inside
  the ``(2d + 1) x (2d + 1)`` search window.  Most accurate, costs
  ``L^2 * (2d + 1)^2`` arithmetic operations per macroblock.
* **Three-step search (TSS)** — the classic logarithmic search of Koga et
  al., which evaluates nine candidates per step while halving the step size.
  Costs ``L^2 * (1 + 8 * log2(d + 1))`` operations per macroblock, an ~8/9
  reduction at ``d = 7``.

Both strategies are fully vectorized through the shared
:class:`~repro.motion.kernels.SadKernel`: a TSS step scores its candidates
for the whole macroblock grid at once, and ES scores the whole window in one
call (a few NumPy dispatches per window row and band of block rows).  The
original per-macroblock Python loops live on in
:mod:`repro.motion.reference` as the bit-identical correctness oracle.

Exhaustive search is a fixed-work scan: every block is scored at every
offset of the window, and a block keeps the first offset reaching its
minimum SAD with offsets ordered nearest-to-zero first — the scalar
oracle's strict-``<`` scan, so ties break towards the smallest motion.

Both strategies return a :class:`~repro.motion.motion_field.MotionField`
holding forward motion vectors (previous frame -> current frame) and the SAD
of the best match, which later feeds the confidence filter of Eq. 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Tuple

import numpy as np

from .kernels import KERNEL_BACKENDS, KernelScratch, SadKernel
from .motion_field import MacroblockGrid, MotionField
from .reference import tss_initial_step


class SearchStrategy(Enum):
    """Block-matching search strategy."""

    EXHAUSTIVE = "exhaustive"
    THREE_STEP = "three_step"


@dataclass(frozen=True)
class SearchStats:
    """Work accounting for one exhaustive-search invocation.

    ``candidates_total`` is the window's candidate count
    (``num_blocks * (2d+1)^2``); ``candidates_evaluated`` is how many of
    them the scan computed SADs for (all of them).
    """

    candidates_total: int
    candidates_evaluated: int

    @property
    def evaluated_fraction(self) -> float:
        if self.candidates_total == 0:
            return 0.0
        return self.candidates_evaluated / self.candidates_total


def exhaustive_search_ops_per_macroblock(block_size: int, search_range: int) -> int:
    """Arithmetic operations per macroblock for exhaustive search."""
    return block_size * block_size * (2 * search_range + 1) ** 2


def three_step_search_ops_per_macroblock(block_size: int, search_range: int) -> int:
    """Arithmetic operations per macroblock for three-step search."""
    steps = max(1.0, math.log2(search_range + 1))
    return int(block_size * block_size * (1 + 8 * steps))


@dataclass(frozen=True)
class BlockMatchingConfig:
    """Configuration of the block matcher.

    Attributes
    ----------
    block_size:
        Macroblock edge length ``L`` in pixels (the paper uses 16 by default
        and sweeps 4..128 in Fig. 11a).
    search_range:
        Search distance ``d`` in pixels; the window is ``(2d+1) x (2d+1)``.
        ``d = 0`` is the valid zero-motion degenerate case (the window
        collapses to the co-located block).
    strategy:
        Exhaustive or three-step search.
    kernel_backend:
        SAD kernel backend (``numpy``/``numba``).  ``numpy`` is the default
        and the oracle; ``numba`` compiles the exact-integer hot loops and
        fuses the whole exhaustive scan into one compiled call per frame.
        Both backends are bit-identical; ``numba`` silently resolves to
        ``numpy`` when Numba is not installed (install the ``[accel]``
        extra) or when the frames force float mode.
    """

    block_size: int = 16
    search_range: int = 7
    strategy: SearchStrategy = SearchStrategy.THREE_STEP
    kernel_backend: str = "numpy"

    def __post_init__(self) -> None:
        if self.block_size <= 0:
            raise ValueError("block_size must be positive")
        if self.search_range < 0:
            raise ValueError("search_range must be non-negative")
        if self.kernel_backend not in KERNEL_BACKENDS:
            raise ValueError(
                f"unknown kernel backend '{self.kernel_backend}' "
                f"(expected one of {KERNEL_BACKENDS})"
            )

    @property
    def ops_per_macroblock(self) -> int:
        """Arithmetic operations per macroblock for this configuration."""
        if self.strategy is SearchStrategy.EXHAUSTIVE:
            return exhaustive_search_ops_per_macroblock(self.block_size, self.search_range)
        return three_step_search_ops_per_macroblock(self.block_size, self.search_range)

    def ops_per_frame(self, frame_width: int, frame_height: int) -> int:
        """Arithmetic operations to estimate motion for a whole frame."""
        grid = MacroblockGrid(frame_width, frame_height, self.block_size)
        return grid.num_blocks * self.ops_per_macroblock


class BlockMatcher:
    """Estimates a macroblock motion field between two consecutive frames."""

    def __init__(self, config: BlockMatchingConfig | None = None) -> None:
        self.config = config or BlockMatchingConfig()
        #: Arithmetic-operation count of the most recent :meth:`estimate` call.
        #: Both strategies use their analytical per-macroblock formula.
        self.last_operation_count = 0
        #: Candidate accounting of the most recent exhaustive search
        #: (``None`` after a three-step run).
        self.last_search_stats: SearchStats | None = None
        #: Whether the most recent estimate rode the kernel's exact-integer
        #: mode, and at which fixed-point scale (1 = plain integers).
        self.last_kernel_exact = False
        self.last_kernel_scale = 1
        #: Kernel backend that actually served the most recent estimate
        #: (``numba`` only when compiled and in exact-integer mode).
        self.last_kernel_backend = "numpy"
        # Buffer pool shared by the per-frame kernels (padded frames, block
        # copies, three-step neighbourhoods) so the steady-state frame path
        # stops paying fresh allocations per estimate.
        self._kernel_scratch = KernelScratch()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def estimate(self, current: np.ndarray, previous: np.ndarray) -> MotionField:
        """Estimate forward motion from ``previous`` to ``current``.

        Both frames are 2-D luma arrays of identical shape.  The returned
        field stores, for every macroblock of the *current* frame, the
        displacement its content underwent since the previous frame and the
        SAD of the best match.
        """
        current = np.asarray(current)
        previous = np.asarray(previous)
        if current.ndim != 2 or previous.ndim != 2:
            raise ValueError("block matching expects 2-D luma frames")
        if current.shape != previous.shape:
            raise ValueError(
                f"frame shapes differ: {current.shape} vs {previous.shape}"
            )

        height, width = current.shape
        grid = MacroblockGrid(width, height, self.config.block_size)
        padded_current, padded_previous = self._pad_to_grid(current, previous, grid)
        kernel = SadKernel(
            padded_current,
            padded_previous,
            self.config.block_size,
            self.config.search_range,
            backend=self.config.kernel_backend,
            scratch=self._kernel_scratch,
        )

        self.last_kernel_exact = kernel.exact_integer
        self.last_kernel_scale = kernel.scale
        self.last_kernel_backend = kernel.active_backend
        if self.config.strategy is SearchStrategy.EXHAUSTIVE:
            vectors, sad = self._exhaustive(kernel)
        else:
            vectors, sad = self._three_step(kernel)
            self.last_search_stats = None
        self.last_operation_count = grid.num_blocks * self.config.ops_per_macroblock
        return MotionField(vectors, sad, grid, search_range=self.config.search_range)

    # ------------------------------------------------------------------
    # Padding helpers
    # ------------------------------------------------------------------
    def _pad_to_grid(
        self, current: np.ndarray, previous: np.ndarray, grid: MacroblockGrid
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Edge-pad both frames so their size is a multiple of the block size."""
        block = self.config.block_size
        target_h = grid.rows * block
        target_w = grid.cols * block
        pad_h = target_h - current.shape[0]
        pad_w = target_w - current.shape[1]
        if pad_h == 0 and pad_w == 0:
            return current, previous
        pad = ((0, pad_h), (0, pad_w))
        return np.pad(current, pad, mode="edge"), np.pad(previous, pad, mode="edge")

    # ------------------------------------------------------------------
    # Exhaustive search
    # ------------------------------------------------------------------
    def _exhaustive(self, kernel: SadKernel) -> Tuple[np.ndarray, np.ndarray]:
        """Score every block at every window offset; keep the strict minimum.

        Offsets are visited nearest-to-zero first and a block's best match
        moves only on a strictly smaller SAD, so ties keep the smallest
        motion — exactly the scalar oracle's scan.  When the compiled kernel
        backend is active the whole scan runs as one fused per-macroblock
        call (:meth:`SadKernel.fused_exhaustive`).  In exact-integer NumPy
        mode one :meth:`SadKernel.sad_window` call scores the whole window,
        and a first-occurrence ``argmin`` over the candidates in visit order
        picks the same winner as the strict-``<`` scan.  Float mode scans
        offset by offset with :meth:`SadKernel.sad_per_block`, the oracle's
        reduction order.
        """
        d = self.config.search_range
        offsets = self._window_offsets(d)
        shape = (kernel.rows, kernel.cols)
        self.last_search_stats = SearchStats(
            candidates_total=kernel.rows * kernel.cols * len(offsets),
            candidates_evaluated=kernel.rows * kernel.cols * len(offsets),
        )
        if kernel.supports_fused:
            best_dy, best_dx, best_sad = kernel.fused_exhaustive(offsets)
        elif kernel.exact_integer:
            visit = np.array(offsets)
            span = 2 * d + 1
            sads = kernel.sad_window().reshape(span * span, -1)
            sads = sads[(visit[:, 0] + d) * span + visit[:, 1] + d]
            winner = np.argmin(sads, axis=0)
            best_sad = kernel.descale(np.take_along_axis(sads, winner[None], axis=0)[0])
            best_sad = best_sad.reshape(shape)
            best_dy, best_dx = visit[winner].T.reshape((2,) + shape)
        else:
            # The first offset is always (0, 0): evaluating it up front seeds
            # every block's best SAD without an inf sentinel.
            best_sad = kernel.sad_per_block(0, 0)
            best_dy = np.zeros(shape, dtype=np.int64)
            best_dx = np.zeros_like(best_dy)
            for dy, dx in offsets[1:]:
                sad = kernel.sad_per_block(dy, dx)
                improved = sad < best_sad
                best_sad = np.where(improved, sad, best_sad)
                best_dy[improved] = dy
                best_dx[improved] = dx
        # A match at offset (dx, dy) means the block content came from
        # (x + dx, y + dy) in the previous frame, i.e. it moved forward by
        # (-dx, -dy).
        vectors = np.stack([-best_dx, -best_dy], axis=-1).astype(np.float64)
        return vectors, best_sad

    @staticmethod
    def _window_offsets(search_range: int) -> List[Tuple[int, int]]:
        """All (dy, dx) offsets in the window, nearest-to-zero first.

        Ordering matters for tie-breaking: when several displacements give
        the same SAD (flat image regions), the smallest motion wins, which
        keeps static backgrounds static.
        """
        offsets = [
            (dy, dx)
            for dy in range(-search_range, search_range + 1)
            for dx in range(-search_range, search_range + 1)
        ]
        offsets.sort(key=lambda o: (o[0] * o[0] + o[1] * o[1], abs(o[0]), abs(o[1])))
        return offsets

    # ------------------------------------------------------------------
    # Three-step search
    # ------------------------------------------------------------------
    def _three_step(self, kernel: SadKernel) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized TSS: every step evaluates all macroblocks at once.

        Each macroblock carries its own search center, so one
        :meth:`SadKernel.sad_around` call scores the eight neighbours of every
        block's center (the first step also scores the center itself).  The
        scalar reference visits a step's candidates in a fixed order and
        accepts one only on strict SAD improvement, so it ends on the
        *first* candidate reaching the step's minimum SAD, provided that
        minimum beats the center; ``argmin`` (first occurrence) over the
        candidates in that same order picks exactly it, bit for bit.
        """
        d = self.config.search_range
        center_dy = np.zeros((kernel.rows, kernel.cols), dtype=np.int64)
        center_dx = np.zeros_like(center_dy)
        best_sad = None

        step = tss_initial_step(d)
        while step >= 1:
            # Candidates are relative to the step's starting center; the
            # best strictly-improving one becomes the next step's center.
            ndy, ndx = np.array(
                [(y, x) for y in (-step, 0, step) for x in (-step, 0, step) if y or x]
            ).T
            invalid = None
            if step + max(np.abs(center_dy).max(), np.abs(center_dx).max()) > d:
                invalid = (np.abs(center_dy + ndy[:, None, None]) > d) | (
                    np.abs(center_dx + ndx[:, None, None]) > d
                )
                # Candidates outside the window for every block are not scored.
                scored = ~invalid.all(axis=(1, 2))
                ndy, ndx, invalid = ndy[scored], ndx[scored], invalid[scored]
            first = best_sad is None
            offsets = [(0, 0)] * first + list(zip(ndy.tolist(), ndx.tolist()))
            sads = kernel.sad_around(center_dy, center_dx, offsets)
            if first:
                best_sad, sads = sads[0], sads[1:]
            if len(sads):
                if invalid is not None:
                    sads[invalid] = np.inf
                winner = np.argmin(sads, axis=0)
                sad = np.take_along_axis(sads, winner[None], axis=0)[0]
                improved = sad < best_sad
                best_sad = np.where(improved, sad, best_sad)
                center_dy = center_dy + np.where(improved, ndy[winner], 0)
                center_dx = center_dx + np.where(improved, ndx[winner], 0)
            step //= 2

        vectors = np.stack([-center_dx, -center_dy], axis=-1).astype(np.float64)
        return vectors, best_sad
