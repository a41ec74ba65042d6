"""Vectorized ISP stage kernels behind the ``kernel_backend`` dispatch.

The ISP counterpart of :mod:`repro.motion.kernels`: the motion-compensated
denoise blend, the 3x3 box sum and the bilinear demosaic, each available as

* a vectorized **numpy** implementation (the default backend and the oracle
  for the compiled path), bit-identical to the scalar references in
  :mod:`repro.isp.reference`;
* a compiled **numba** implementation (:mod:`repro.isp.kernels_numba`),
  selected by ``backend="numba"`` — callers resolve availability through
  :func:`repro.motion.kernels.resolve_kernel_backend` first, exactly like
  the SAD kernels, so a missing ``[accel]`` extra degrades to numpy.

Bit-identity notes:

* The blend is element-wise arithmetic (``(1-s)*current + s*reference``), so
  vectorization cannot reassociate anything; the only care needed is using
  the same half-to-even rounding for source offsets as the reference.
* The box sum is a *reduction*, so the numpy path only uses the
  summed-area-table shortcut when the input provably lies on an integer or
  fixed-point lattice (:func:`fixed_point_scale`) where every sum is exact;
  genuinely fractional floats keep the reference's nine-shift accumulation
  order.  All kernels accept an ``out`` scratch buffer so steady-state
  callers allocate nothing.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..motion.kernels import fixed_point_scale
from ..motion.motion_field import MotionField
from . import kernels_numba as _numba


def motion_compensated_blend(
    current: np.ndarray,
    previous: np.ndarray,
    field: MotionField,
    *,
    blend_strength: float,
    max_normalised_sad: float,
    out: Optional[np.ndarray] = None,
    backend: str = "numpy",
) -> np.ndarray:
    """Blend each macroblock with its motion-compensated predecessor.

    Writes into ``out`` (a float64 frame-shaped scratch buffer, allocated
    when absent) and returns it.  ``out`` must not alias ``current`` or
    ``previous``.  ``current`` may be uint8: every read of it lands in a
    float64 destination (assignments widen, and a uint8-by-float multiply
    promotes to float64), and uint8 -> float64 conversion is exact, so the
    result is bit-identical to widening the frame up front — the steady-state
    denoise stage exploits this to skip a full-frame copy per frame.
    """
    height, width = current.shape
    if out is None:
        out = np.empty((height, width), dtype=np.float64)
    block = field.grid.block_size
    strength = blend_strength
    max_sad = field.max_sad * max_normalised_sad

    if backend == "numba":
        np.copyto(out, current)
        _numba.blend_frame(
            current, previous, field.vectors, field.sad, block, max_sad, strength, out
        )
        return out

    rows_full = height // block
    cols_full = width // block
    valid = None
    if rows_full and cols_full:
        vectors = field.vectors[:rows_full, :cols_full]
        # The block content came from (x - u, y - v) in the previous frame
        # (forward-motion convention).
        src_y = (
            np.arange(rows_full)[:, None] * block - np.rint(vectors[..., 1])
        ).astype(np.int64)
        src_x = (
            np.arange(cols_full)[None, :] * block - np.rint(vectors[..., 0])
        ).astype(np.int64)
        valid = (
            (field.sad[:rows_full, :cols_full] <= max_sad)
            & (src_y >= 0)
            & (src_x >= 0)
            & (src_y + block <= height)
            & (src_x + block <= width)
        )
    if valid is not None and valid.any():
        # The dense pass overwrites the whole full-block grid, so only the
        # ragged edge strips need the ``current`` pre-fill.
        grid_y = rows_full * block
        grid_x = cols_full * block
        out[grid_y:, :] = current[grid_y:, :]
        out[:grid_y, grid_x:] = current[:grid_y, grid_x:]
        _blend_dense(
            out, current, previous, src_y, src_x, valid,
            rows_full, cols_full, block, strength,
        )
    else:
        np.copyto(out, current)

    # Ragged frame edge: the partial blocks of the bottom row / right column
    # keep the scalar path (at most rows+cols blocks, not the full grid).
    grid_rows, grid_cols = field.grid.rows, field.grid.cols
    if grid_rows > rows_full or grid_cols > cols_full:
        edge_blocks = [
            (row, col)
            for row in range(rows_full, grid_rows)
            for col in range(grid_cols)
        ]
        edge_blocks += [
            (row, col)
            for row in range(rows_full)
            for col in range(cols_full, grid_cols)
        ]
        for row, col in edge_blocks:
            if field.sad[row, col] > max_sad:
                continue
            y0 = row * block
            x0 = col * block
            y1 = min(y0 + block, height)
            x1 = min(x0 + block, width)
            u, v = field.vectors[row, col]
            src_y0 = int(round(y0 - v))
            src_x0 = int(round(x0 - u))
            src_y1 = src_y0 + (y1 - y0)
            src_x1 = src_x0 + (x1 - x0)
            if src_y0 < 0 or src_x0 < 0 or src_y1 > height or src_x1 > width:
                continue
            reference = previous[src_y0:src_y1, src_x0:src_x1]
            out[y0:y1, x0:x1] = (
                (1.0 - strength) * current[y0:y1, x0:x1] + strength * reference
            )
    return out


def _blocked_view(array: np.ndarray, block: int) -> np.ndarray:
    """A zero-copy ``(rows, block, cols, block)`` macroblock view of a 2-D
    array whose dimensions are multiples of ``block`` (works for any strides,
    unlike ``reshape``, which would silently copy a non-contiguous slice)."""
    height, width = array.shape
    stride_y, stride_x = array.strides
    return np.lib.stride_tricks.as_strided(
        array,
        shape=(height // block, block, width // block, block),
        strides=(stride_y * block, stride_y, stride_x * block, stride_x),
    )


def _blend_dense(
    out: np.ndarray,
    current: np.ndarray,
    previous: np.ndarray,
    src_y: np.ndarray,
    src_x: np.ndarray,
    valid: np.ndarray,
    rows_full: int,
    cols_full: int,
    block: int,
    strength: float,
) -> None:
    """Blend every valid full block without destination indexing.

    Gathers each block's motion-compensated reference patch in one fancy
    read through a sliding-window view of ``previous``, then runs the blend
    element-wise through blocked 4-D views of ``current``/``out`` — the
    destination side is the grid itself, so there is no destination index
    and no scatter.  The gathered patch array is the one per-frame
    temporary.  Invalid blocks get swept by the element-wise pass and are
    restored to ``current`` afterwards (cheap on real motion fields, where
    nearly every block matches).  Per-element arithmetic keeps the
    reference's ``(1-s)*current + s*reference`` operand order, so results
    stay bit-identical.
    """
    grid_y = rows_full * block
    grid_x = cols_full * block
    # Clamp invalid blocks' source to a safe in-bounds position; their
    # blended garbage is overwritten by the restore pass below.
    sy = np.where(valid, src_y, 0)
    sx = np.where(valid, src_x, 0)
    windows = np.lib.stride_tricks.sliding_window_view(previous, (block, block))
    ref_patches = windows[sy, sx]  # (rows_full, cols_full, block, block)
    # Scale the reference term in its contiguous gather layout, then add it
    # through the transposed block view — one strided pass instead of a
    # strided multiply into a third buffer plus a contiguous add.
    np.multiply(ref_patches, strength, out=ref_patches)
    ref_blocks = ref_patches.transpose(0, 2, 1, 3)
    out_blocks = _blocked_view(out[:grid_y, :grid_x], block)
    cur_blocks = _blocked_view(current[:grid_y, :grid_x], block)
    np.multiply(cur_blocks, 1.0 - strength, out=out_blocks)
    np.add(out_blocks, ref_blocks, out=out_blocks)
    invalid_rows, invalid_cols = np.nonzero(~valid)
    for row, col in zip(invalid_rows.tolist(), invalid_cols.tolist()):
        y0 = row * block
        x0 = col * block
        out[y0 : y0 + block, x0 : x0 + block] = current[y0 : y0 + block, x0 : x0 + block]


def box_sum_3x3(
    image: np.ndarray,
    *,
    out: Optional[np.ndarray] = None,
    backend: str = "numpy",
) -> np.ndarray:
    """3x3 box sum with reflected borders.

    Lattice-valued inputs (integers, Q8.4 frames, CFA masks) take an exact
    int64 summed-area table — the nine-neighbour sum of bounded lattice
    values is exact in both orders, so the SAT result equals the reference's
    shifted adds bit for bit.  Genuinely fractional floats keep the
    reference's accumulation order.
    """
    height, width = image.shape
    if out is None:
        out = np.empty((height, width), dtype=np.float64)

    if backend == "numba":
        _numba.box_sum_3x3(np.asarray(image, dtype=np.float64), out)
        return out

    scale = fixed_point_scale(np.asarray(image))
    if scale is not None:
        padded = np.pad(image, 1, mode="reflect")
        lattice = np.rint(np.asarray(padded, dtype=np.float64) * scale).astype(
            np.int64
        )
        sat = np.zeros((height + 3, width + 3), dtype=np.int64)
        np.cumsum(np.cumsum(lattice, axis=0), axis=1, out=sat[1:, 1:])
        window_sums = (
            sat[3:, 3:] - sat[3:, :-3] - sat[:-3, 3:] + sat[:-3, :-3]
        )
        np.divide(window_sums, scale, out=out)
        return out

    padded = np.pad(image, 1, mode="reflect")
    out[:] = 0.0
    for dy in range(3):
        for dx in range(3):
            out += padded[dy : dy + height, dx : dx + width]
    return out


def bilinear_demosaic(
    bayer: np.ndarray, channel_map: np.ndarray, *, backend: str = "numpy"
) -> np.ndarray:
    """Mask-based bilinear demosaic of a Bayer mosaic to height x width x 3."""
    height, width = bayer.shape
    if backend == "numba":
        rgb = np.empty((height, width, 3), dtype=np.float64)
        _numba.bilinear_demosaic(
            np.asarray(bayer, dtype=np.float64), channel_map, rgb
        )
        return rgb

    rgb = np.zeros((height, width, 3), dtype=np.float64)
    for channel in range(3):
        mask = (channel_map == channel).astype(np.float64)
        values = bayer * mask
        summed = box_sum_3x3(values)
        counts = box_sum_3x3(mask)
        with np.errstate(invalid="ignore", divide="ignore"):
            interpolated = np.where(
                counts > 0, summed / np.maximum(counts, 1e-9), 0.0
            )
        rgb[..., channel] = np.where(mask > 0, bayer, interpolated)
    return np.clip(rgb, 0.0, 255.0)


__all__ = ["bilinear_demosaic", "box_sum_3x3", "motion_compensated_blend"]
