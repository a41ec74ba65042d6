"""Shared SAD kernels for the block-matching strategies.

Both search strategies evaluate "the SAD of every macroblock against the
previous frame displaced by some offset".  Exhaustive search scores the
whole window at once (:meth:`SadKernel.sad_window`: one broadcast pass per
window row covers every horizontal offset); three-step search scores the
neighbours of a *per-block* center, one step at a time
(:meth:`SadKernel.sad_around`).  Either way the whole macroblock grid costs a
handful of NumPy dispatches per window row or candidate instead of a Python
loop.

Two execution modes, picked automatically per frame pair:

* **Exact-integer mode** — when both frames hold only integer values (the
  realistic case: luma planes are 8-bit in a real ISP), every SAD is an
  integer small enough that float64 arithmetic on it is exact regardless of
  summation order.  The kernel therefore runs in narrow integer dtypes
  (uint8 absolute differences, uint16-int64 accumulation sized from the
  largest possible block SAD), which cuts memory traffic ~8x versus float64.
  Results are bit-identical to the scalar float64 reference by exactness.

  The mode also covers **fixed-point frames**: float frames whose values all
  lie on a power-of-two lattice (e.g. the Q8.4 frames the quantized ISP
  stages emit, multiples of 1/16) are scaled up to integers, matched with
  integer arithmetic, and the SADs divided back down.  Because every
  per-block partial sum is a bounded multiple of the lattice step, float64
  represents it exactly whatever the summation order, so the result is again
  bit-identical to the scalar float64 reference.
* **Float mode** — for general float frames, per-block SADs are computed by
  gathering ``(L, L)`` reference patches from a strided sliding-window view
  and reducing each block's C-contiguous absolute-difference patch over its
  trailing ``L*L`` elements — the same operation sequence, and therefore the
  same IEEE rounding, as the scalar reference loop
  (:mod:`repro.motion.reference`).  Bit-identical, at float64 bandwidth.

With the numba backend active (:mod:`repro.motion.kernels_numba`) the
per-block primitive runs compiled, and :meth:`SadKernel.fused_exhaustive`
runs a whole exhaustive search in one compiled call.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import kernels_numba

#: Largest absolute frame value for which the exact-integer mode is used;
#: guarantees every SAD stays far below 2**53 so float64 sums are exact.
_MAX_EXACT_INT = 2**20

#: Bytes per band of block rows the exhaustive and three-step primitives
#: score at a time: :meth:`SadKernel.sad_window` bounds a band's difference
#: image by it, :meth:`SadKernel.sad_around` its current-frame blocks, so a
#: band's working set stays in a core's L2 cache across all its candidates.
_BAND_BYTES = 2**18

#: Kernel backends selectable through ``PipelineSpec(kernel_backend=...)``.
#: ``numpy`` is the default and the performance oracle the compiled backend
#: is property-tested against; ``numba`` compiles the integer-domain hot
#: loops (:mod:`repro.motion.kernels_numba`) and silently degrades to
#: ``numpy`` when Numba is not installed (the ``[accel]`` extra).
KERNEL_BACKENDS = ("numpy", "numba")


def numba_available() -> bool:
    """Whether the compiled kernel backend can actually run compiled."""
    return kernels_numba.NUMBA_AVAILABLE


def resolve_kernel_backend(backend: str) -> str:
    """Validate ``backend`` and degrade ``numba`` to ``numpy`` when absent.

    This is the single graceful-degradation point: configuration layers
    (:class:`BlockMatchingConfig`, ``PipelineSpec``) accept ``"numba"``
    regardless of what is installed, and the kernels resolve it at use time
    so the same spec runs everywhere — compiled where the ``[accel]`` extra
    is present, bit-identically on NumPy where it is not.
    """
    if backend not in KERNEL_BACKENDS:
        raise ValueError(
            f"unknown kernel backend '{backend}' (expected one of {KERNEL_BACKENDS})"
        )
    if backend == "numba" and not numba_available():
        return "numpy"
    return backend

#: Fractional-bit counts probed by :func:`fixed_point_scale` for float frames
#: that are not integer-valued.  4 matches the ISP's Q8.4 frame format; 8
#: covers finer lattices (any coarser lattice is also exact at 8 bits).
_FRAC_BITS_CANDIDATES = (4, 8)


def _bounded_integer_valued(frame: np.ndarray) -> bool:
    """True when a float frame holds only bounded integer values."""
    if frame.size == 0:
        return True
    low = float(frame.min())
    high = float(frame.max())
    if low < -_MAX_EXACT_INT or high > _MAX_EXACT_INT or not np.isfinite([low, high]).all():
        return False
    return bool((frame == np.floor(frame)).all())


def _integer_frame_bounded(frame: np.ndarray) -> bool:
    """True unless an integer frame wider than 16 bits exceeds the exact bound."""
    return frame.dtype.itemsize <= 2 or not frame.size or (
        -_MAX_EXACT_INT <= int(frame.min()) and int(frame.max()) <= _MAX_EXACT_INT
    )


def frames_are_integer(*frames: np.ndarray) -> bool:
    """True when every frame holds only integer values of bounded magnitude.

    Integer dtypes qualify immediately; float frames are value-checked.
    """
    return all(
        _integer_frame_bounded(frame) if np.issubdtype(frame.dtype, np.integer)
        else np.issubdtype(frame.dtype, np.floating) and _bounded_integer_valued(frame)
        for frame in frames
    )


def fixed_point_scale(*frames: np.ndarray) -> Optional[int]:
    """Smallest power-of-two scale that makes every frame integer-valued.

    Returns ``1`` for plain integer(-valued) frames, ``2**f`` when every
    float frame lies on the ``2**-f`` fixed-point lattice for one of the
    probed fractional-bit counts (:data:`_FRAC_BITS_CANDIDATES`), and
    ``None`` when the frames are genuinely fractional — the float-mode
    fallback.  Scaling by the returned factor keeps every value within
    ``_MAX_EXACT_INT * 2**f``, far below the float64 exactness limit.
    """
    if frames_are_integer(*frames):
        return 1
    float_frames = [frame for frame in frames if np.issubdtype(frame.dtype, np.floating)]
    integer_frames = [frame for frame in frames if np.issubdtype(frame.dtype, np.integer)]
    # Integer frames lie on every lattice; only the magnitude bound (which
    # scaling tightens by at most 2**8) needs checking.
    if len(float_frames) + len(integer_frames) < len(frames) or not all(
        _integer_frame_bounded(frame) for frame in integer_frames
    ):
        return None
    for frac_bits in _FRAC_BITS_CANDIDATES:
        scale = 1 << frac_bits
        if all(_bounded_integer_valued(frame * scale) for frame in float_frames):
            return scale
    return None


class KernelScratch:
    """Reusable buffer pool shared by successive :class:`SadKernel` instances.

    A kernel is built per frame pair, but its scratch buffers (the padded
    previous frame, block copies, three-step neighbourhoods and differences)
    depend only on the frame geometry and working dtype — reallocating them
    every frame costs more in page faults than the SAD arithmetic they
    stage.  A long-lived owner (the
    :class:`~repro.motion.block_matching.BlockMatcher`) passes one pool to
    every kernel it builds; buffers are handed back by name and reallocated
    only when the geometry or dtype changes.

    Buffers hold no state between uses (every consumer overwrites before
    reading), but a pool must not be shared by two kernels evaluated
    *interleaved* — sequential per-frame use only.
    """

    def __init__(self) -> None:
        self._buffers: dict = {}

    def get(self, name: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
        buffer = self._buffers.get(name)
        if (
            buffer is None
            or buffer.shape != tuple(shape)
            or buffer.dtype != np.dtype(dtype)
        ):
            buffer = np.empty(shape, dtype=dtype)
            self._buffers[name] = buffer
        return buffer


def _edge_pad_pooled(
    frame: np.ndarray, pad: int, pool: KernelScratch
) -> np.ndarray:
    """``np.pad(frame, pad, mode="edge")`` into a pooled buffer.

    Replicates the border pixels exactly like ``mode="edge"`` (corner cells
    fall out of padding the columns after the rows), but writes into a
    reusable buffer instead of allocating a fresh padded frame per call.
    """
    if pad == 0:
        return frame
    height, width = frame.shape
    padded = pool.get(
        "padded_frame", (height + 2 * pad, width + 2 * pad), frame.dtype
    )
    padded[pad : pad + height, pad : pad + width] = frame
    padded[:pad, pad : pad + width] = frame[:1, :]
    padded[pad + height :, pad : pad + width] = frame[-1:, :]
    padded[:, :pad] = padded[:, pad : pad + 1]
    padded[:, pad + width :] = padded[:, pad + width - 1 : pad + width]
    return padded


def _accumulator(dtype: np.dtype, bound: float):
    """Narrowest dtype that sums non-negative differences of ``dtype`` up to ``bound``."""
    if dtype == np.uint8 and bound < 2**16:
        return np.uint16
    return np.int32 if bound < 2**31 else np.int64


class SadKernel:
    """SAD evaluation over a whole macroblock grid.

    Parameters
    ----------
    current, previous:
        2-D luma frames whose dimensions are already multiples of
        ``block_size`` (the :class:`~repro.motion.block_matching.BlockMatcher`
        edge-pads before constructing the kernel).  Integer dtypes (or
        integer-valued / fixed-point-lattice float frames) select the
        exact-integer mode.
    block_size:
        Macroblock edge length ``L``.
    search_range:
        Search distance ``d``; offsets passed to the SAD methods must
        satisfy ``|offset| <= d``.
    exact_integer:
        Force or forbid the exact-integer mode; ``None`` (default) detects
        it (including the fixed-point scale) from the frame contents.
        Forcing ``True`` asserts the frames are integer-valued as-is
        (scale 1).
    backend:
        Kernel backend (:data:`KERNEL_BACKENDS`).  ``numba`` routes the
        exact-integer primitives through the compiled loops of
        :mod:`repro.motion.kernels_numba`; it resolves to ``numpy`` when
        Numba is not installed *or* the frames force float mode (compiled
        float sums would not reproduce the oracle's reduction order).  The
        backend actually in effect is :attr:`active_backend`.
    """

    def __init__(
        self,
        current: np.ndarray,
        previous: np.ndarray,
        block_size: int,
        search_range: int,
        exact_integer: bool | None = None,
        backend: str = "numpy",
        scratch: Optional[KernelScratch] = None,
    ) -> None:
        if current.shape != previous.shape:
            raise ValueError(
                f"frame shapes differ: {current.shape} vs {previous.shape}"
            )
        height, width = current.shape
        if height % block_size or width % block_size:
            raise ValueError(
                f"kernel frames must be multiples of the block size, got "
                f"{current.shape} for block {block_size}"
            )
        self.block_size = block_size
        self.search_range = search_range
        self.rows = height // block_size
        self.cols = width // block_size
        self.frame_height = height
        self.frame_width = width
        #: Power-of-two factor the frames were scaled by before integer
        #: matching; 1 for plain integer frames, >1 for fixed-point lattices.
        self.scale = 1
        if exact_integer is None:
            scale = fixed_point_scale(current, previous)
            exact_integer = scale is not None
            self.scale = scale if scale is not None else 1
        self.exact_integer = exact_integer
        #: Backend the caller asked for (before availability resolution).
        self.requested_backend = backend
        #: Backend actually serving the primitives: ``numba`` only when the
        #: compiled module is importable *and* the frames ride the
        #: exact-integer mode; ``numpy`` otherwise.
        self.active_backend = (
            "numba"
            if resolve_kernel_backend(backend) == "numba" and self.exact_integer
            else "numpy"
        )

        self._pool = pool = scratch if scratch is not None else KernelScratch()
        if self.exact_integer:
            if self.scale != 1:
                # Lattice values times a power of two are exact integers in
                # float64 (and below 2**28), so the int32 cast is exact.
                current = (np.asarray(current, dtype=np.float64) * self.scale).astype(np.int32)
                previous = (np.asarray(previous, dtype=np.float64) * self.scale).astype(np.int32)
            # Bounds of the frames' values (a uint8 frame counts as 0..255).
            bounds = [
                (0.0, 255.0) if f.dtype == np.uint8 else (float(f.min()), float(f.max()))
                for f in (current, previous)
                if f.size
            ] or [(0.0, 0.0)]
            low, high = min(b[0] for b in bounds), max(b[1] for b in bounds)
            # Narrowest working dtype whose differences cannot overflow.
            wide = np.int16 if -(2.0**14) <= low and high < 2.0**14 else np.int32
            work = np.dtype(np.uint8 if low >= 0.0 and high <= 255.0 else wide)
            self._current = np.ascontiguousarray(current, dtype=work)
            self._padded = _edge_pad_pooled(
                np.asarray(previous, dtype=work), search_range, pool
            )
            max_diff = 255.0 if work == np.uint8 else high - low
            #: Largest SAD any block can reach, which bounds every accumulator.
            self._max_block_sad = max_diff * block_size * block_size
        else:
            self._current = np.ascontiguousarray(current, dtype=np.float64)
            self._padded = _edge_pad_pooled(
                np.asarray(previous, dtype=np.float64), search_range, pool
            )

        # (rows, cols, L, L) contiguous copy of the current frame's blocks,
        # staged in the pool so successive frames reuse the same pages.
        self._current_blocks = pool.get(
            "current_blocks",
            (self.rows, self.cols, block_size, block_size),
            self._current.dtype,
        )
        np.copyto(
            self._current_blocks,
            self._current.reshape(self.rows, block_size, self.cols, block_size)
            .transpose(0, 2, 1, 3),
        )
        # windows[y, x] is the (L, L) patch of the padded previous frame with
        # top-left (y, x); block (r, c) at offset (dy, dx) reads
        # windows[d + r*L + dy, d + c*L + dx].
        self._windows = sliding_window_view(self._padded, (block_size, block_size))
        self._base_y = search_range + np.arange(self.rows)[:, None] * block_size
        self._base_x = search_range + np.arange(self.cols)[None, :] * block_size
        # Pixel-major bands of the current blocks, built on sad_around's first call.
        self._bands: Optional[list] = None

    def _pixel_major_bands(self) -> list:
        """``(first row, stop row, current blocks as (L, L, n))`` per band."""
        L = self.block_size
        band_rows = max(1, _BAND_BYTES // (L * self.frame_width * self._current.itemsize))
        flat = self._pool.get("current_bands", (self._current.size,), self._current.dtype)
        bands = []
        for first in range(0, self.rows, band_rows):
            stop = min(first + band_rows, self.rows)
            band = flat[first * L * self.frame_width : stop * L * self.frame_width]
            tiles = self._current[first * L : stop * L].reshape(stop - first, L, self.cols, L)
            np.copyto(band.reshape(L, L, stop - first, self.cols), tiles.transpose(1, 3, 0, 2))
            bands.append((first, stop, band.reshape(L, L, -1)))
        return bands

    def descale(self, sad: np.ndarray) -> np.ndarray:
        """Integer SAD back to frame units (exact: scale is a power of two)."""
        out = sad.astype(np.float64)
        if self.scale != 1:
            out /= self.scale
        return out

    # ------------------------------------------------------------------
    # Public SAD primitives
    # ------------------------------------------------------------------
    def sad_window(self) -> np.ndarray:
        """Integer SAD of every macroblock at every window offset.

        The exhaustive-search primitive, exact-integer mode only.  Returns
        ``(2d+1, 2d+1, rows, cols)`` indexed ``[dy + d, dx + d]``, in the
        kernel's scaled integer units (:meth:`descale` converts).

        Works through bands of block rows, each band's difference image at
        most :data:`_BAND_BYTES` (one block row when a row alone is larger).
        Per band and window row ``dy``, one broadcast pass takes the absolute
        differences against all ``2d+1`` horizontal offsets at once (a
        sliding-window view of the padded previous frame), then two
        reductions sum the ``L`` pixel rows and the ``L`` columns of every
        block.  Integer sums are exact in any order, so every SAD equals the
        scalar reference's.
        """
        if not self.exact_integer:
            raise RuntimeError("sad_window requires the exact-integer mode")
        L, d, width = self.block_size, self.search_range, self.frame_width
        span = 2 * d + 1
        dtype = self._current.dtype
        column_accum = _accumulator(dtype, self._max_block_sad / L)
        block_accum = _accumulator(dtype, self._max_block_sad)
        band_rows = max(1, _BAND_BYTES // (L * span * width * dtype.itemsize))
        largest = min(band_rows, self.rows)
        # One band's buffers, allocated per call rather than pooled: sessions
        # that live for one short sequence would otherwise pin them between
        # frames and fragment the heap of a worker that opens many sessions.
        diff, diff2 = np.empty((2, largest * L, span, width), dtype=dtype)
        columns = np.empty((largest, span, width), dtype=column_accum)
        # shifted[y, k] is padded row y from column k: window offset dx = k - d.
        shifted = sliding_window_view(self._padded, width, axis=1)
        sads = np.empty((span, span, self.rows, self.cols), dtype=block_accum)
        for first in range(0, self.rows, band_rows):
            stop = min(first + band_rows, self.rows)
            blocks, pixels = stop - first, (stop - first) * L
            current = self._current[first * L : stop * L, None, :]
            band, band2, partial = diff[:pixels], diff2[:pixels], columns[:blocks]
            for dy in range(-d, d + 1):
                top = d + first * L + dy
                reference = shifted[top : top + pixels]
                if dtype == np.uint8:
                    np.maximum(current, reference, out=band)
                    np.minimum(current, reference, out=band2)
                    np.subtract(band, band2, out=band)
                else:
                    np.subtract(current, reference, out=band)
                    np.abs(band, out=band)
                np.add.reduce(
                    band.reshape(blocks, L, span, width),
                    axis=1,
                    dtype=column_accum,
                    out=partial,
                )
                np.add.reduce(
                    partial.reshape(blocks, span, self.cols, L),
                    axis=3,
                    dtype=block_accum,
                    out=sads[dy + d, :, first:stop].transpose(1, 0, 2),
                )
        return sads

    def sad_per_block(self, dy, dx) -> np.ndarray:
        """SAD of every macroblock at per-block displacements.

        ``dy``/``dx`` are scalars or ``(rows, cols)`` integer arrays.  Returns
        ``(rows, cols)`` float64, bit-identical to the scalar reference loops.
        """
        if self.active_backend == "numba":
            shape = (self.rows, self.cols)
            dy_arr = np.ascontiguousarray(
                np.broadcast_to(np.asarray(dy, dtype=np.int64), shape)
            )
            dx_arr = np.ascontiguousarray(
                np.broadcast_to(np.asarray(dx, dtype=np.int64), shape)
            )
            out = np.empty(shape, dtype=np.int64)
            kernels_numba.sad_per_block(
                self._current_blocks, self._padded, self.search_range, dy_arr, dx_arr, out
            )
            return self.descale(out)
        if self.exact_integer:
            return self.sad_around(dy, dx, [(0, 0)])[0]
        references = self._windows[self._base_y + dy, self._base_x + dx]
        # The ufunc output is C-contiguous, so the trailing-axes reduction
        # runs over each block's L*L contiguous elements — the same pairwise
        # order as the scalar reference's contiguous per-block sums.
        return np.abs(self._current_blocks - references).sum(axis=(2, 3))

    def sad_around(self, center_dy, center_dx, offsets: Sequence[Tuple[int, int]]) -> np.ndarray:
        """SAD of every macroblock at ``center + offset``, for each offset.

        The three-step-search primitive: ``center_dy``/``center_dx`` are
        scalars or ``(rows, cols)`` integer arrays inside the search window,
        ``offsets`` one step's ``(ndy, ndx)`` candidates.  Returns
        ``(len(offsets), rows, cols)`` float64; entries whose displacement
        leaves the window are unspecified (the caller masks them).

        In exact-integer NumPy mode each block's radius-``max |offset|``
        neighbourhood is copied once into a pixel-major ``(N, N, blocks)``
        buffer; every candidate is a view of it, scored by a few contiguous
        ufunc passes over all blocks.  Float mode and the numba backend run
        :meth:`sad_per_block` per candidate, window-clipped.
        """
        shape = (self.rows, self.cols)
        center_dy = np.broadcast_to(np.asarray(center_dy, dtype=np.int64), shape)
        center_dx = np.broadcast_to(np.asarray(center_dx, dtype=np.int64), shape)
        d = self.search_range
        if not self.exact_integer or self.active_backend == "numba":
            moved = [(center_dy + y, center_dx + x) for y, x in offsets]
            clipped = [(np.clip(y, -d, d), np.clip(x, -d, d)) for y, x in moved]
            return np.stack([self.sad_per_block(y, x) for y, x in clipped])
        L = self.block_size
        radius = max(max(abs(ndy), abs(ndx)) for ndy, ndx in offsets)
        size = L + 2 * radius
        # Candidates past the window read beyond the d-pixel padding, so widen
        # it: edge padding twice is one wider edge padding, same pixels inside.
        margin = max(0, radius + int(max(np.abs(center_dy).max(), np.abs(center_dx).max())) - d)
        source = np.pad(self._padded, margin, mode="edge") if margin else self._padded
        windows = sliding_window_view(source, (size, size))
        # Top-left corner, in ``windows``, of every block's neighbourhood.
        tops = self._base_y + margin - radius + center_dy
        lefts = self._base_x + margin - radius + center_dx
        shared = (center_dy == center_dy[0, 0]).all() and (center_dx == center_dx[0, 0]).all()

        dtype = self._current.dtype
        accum = _accumulator(dtype, self._max_block_sad)
        if self._bands is None:
            self._bands = self._pixel_major_bands()
        largest = self._bands[0][2].shape[-1]
        pooled = self._pool.get(f"tss_neighbourhood{size}", (size * size * largest,), dtype)
        scratch = self._pool.get("tss_diff", (2 * L * L * largest,), dtype)
        sads = np.empty((len(offsets), self.rows * self.cols), dtype=accum)
        for first, stop, current in self._bands:
            blocks = current.shape[-1]
            if shared:
                # One shared center: the neighbourhoods are a strided view of
                # the padded frame, copied without any index arrays.
                strided = windows[tops[first, 0] :: L, lefts[0, 0] :: L]
                patches = strided[: stop - first, : self.cols]
            else:
                patches = windows[tops[first:stop], lefts[first:stop]]
            neighbourhood = pooled[: size * size * blocks].reshape(size, size, blocks)
            grid = neighbourhood.reshape(size, size, stop - first, self.cols)
            np.copyto(grid, patches.transpose(2, 3, 0, 1))
            diff, diff2 = scratch[: 2 * L * L * blocks].reshape(2, L, L, blocks)
            for index, (ndy, ndx) in enumerate(offsets):
                top, left = radius + ndy, radius + ndx
                reference = neighbourhood[top : top + L, left : left + L]
                if dtype == np.uint8:
                    np.maximum(current, reference, out=diff)
                    np.minimum(current, reference, out=diff2)
                    np.subtract(diff, diff2, out=diff)
                else:
                    np.subtract(current, reference, out=diff)
                    np.abs(diff, out=diff)
                out = sads[index, first * self.cols : stop * self.cols]
                np.add.reduce(diff.reshape(L * L, blocks), axis=0, dtype=accum, out=out)
        return self.descale(sads).reshape((len(offsets),) + shape)

    # ------------------------------------------------------------------
    # The fused compiled driver
    # ------------------------------------------------------------------
    @property
    def supports_fused(self) -> bool:
        """Whether :meth:`fused_exhaustive` runs compiled.

        Requires the numba backend to be active (which itself implies the
        exact-integer mode): the fused per-macroblock driver interpreted in
        Python would be orders of magnitude slower than the vectorized NumPy
        scan, so the dispatcher only takes it when it is actually compiled.
        """
        return self.active_backend == "numba"

    def fused_exhaustive(
        self, offsets: Sequence[Tuple[int, int]]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Whole exhaustive search in one compiled call (no Python dispatch).

        ``offsets`` are the candidates in visit order, ``(0, 0)`` first.
        Returns ``(best_dy, best_dx, best_sad)`` with SAD already descaled
        to frame units.
        """
        if not self.exact_integer:
            raise RuntimeError("the fused exhaustive driver requires the exact-integer mode")
        dys = np.ascontiguousarray([o[0] for o in offsets], dtype=np.int64)
        dxs = np.ascontiguousarray([o[1] for o in offsets], dtype=np.int64)
        best_dy = np.empty((self.rows, self.cols), dtype=np.int64)
        best_dx = np.empty((self.rows, self.cols), dtype=np.int64)
        best_sad = np.empty((self.rows, self.cols), dtype=np.int64)
        kernels_numba.fused_exhaustive(
            self._current_blocks,
            self._padded,
            dys,
            dxs,
            self.search_range,
            best_dy,
            best_dx,
            best_sad,
        )
        return best_dy, best_dx, self.descale(best_sad)
