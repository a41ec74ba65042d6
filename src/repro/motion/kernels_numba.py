"""Compiled (Numba) integer-domain SAD kernels behind :class:`SadKernel`.

This module is the optional ``numba`` kernel backend selected through
``PipelineSpec(kernel_backend="numba")``.  It compiles the per-block SAD
primitive of :mod:`repro.motion.kernels` plus one **fused exhaustive
search** that runs the whole scan per macroblock in a single compiled call,
eliminating the Python dispatch of the NumPy scan.

Scope and bit-identity contract:

* Only the **exact-integer mode** is compiled (uint8/int32 frames, including
  the fixed-point-scaled Q8.4 path): every SAD there is an exact integer, so
  summation order cannot matter and the compiled sequential loops are
  bit-identical to the NumPy kernels and to the scalar oracle
  (:mod:`repro.motion.reference`) by exactness.  Genuinely fractional float
  frames stay on the NumPy gather kernel, whose pairwise reduction order the
  scalar oracle defines — a compiled sequential float sum would round
  differently, and bit-identity outranks speed in this repo.
* The fused driver may *abort* a block's SAD summation once the running
  partial sum reaches the block's best SAD (the partial sum only grows, so
  the candidate can no longer strictly improve).  This early termination
  changes how much arithmetic is spent, never which candidate wins, so the
  returned field is still bit-identical to the NumPy scan.

When Numba is not installed the module still imports cleanly:
``NUMBA_AVAILABLE`` is ``False``, ``@njit`` degrades to a no-op decorator,
and every kernel remains callable as plain (slow) Python — which is exactly
how the backend-equivalence property tests exercise this code on machines
without the ``[accel]`` extra.  Backend *selection* never routes here in
that case: :func:`repro.motion.kernels.resolve_kernel_backend` degrades
``"numba"`` to ``"numpy"`` so production paths keep NumPy speed.
"""

from __future__ import annotations

import numpy as np

try:  # pragma: no cover - exercised via the subprocess fallback test
    from numba import njit as _njit

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - the no-numba environment itself
    NUMBA_AVAILABLE = False

    def _njit(*args, **kwargs):
        """No-op stand-in: keeps the kernels importable and callable."""

        def decorate(func):
            return func

        return decorate


def _jit(func):
    """``@njit(cache=True)`` when Numba is present, identity otherwise.

    ``cache=True`` persists the compiled machine code next to this module so
    repeated processes (benchmarks, CI steps, worker shards) skip the
    multi-second JIT warm-up.
    """
    return _njit(cache=True)(func)


@_jit
def sad_per_block(current_blocks, padded, d, dy, dx, out):
    """SAD of every macroblock at per-block offsets (the TSS primitive)."""
    rows, cols = current_blocks.shape[0], current_blocks.shape[1]
    block = current_blocks.shape[2]
    for r in range(rows):
        for c in range(cols):
            base_y = d + r * block + dy[r, c]
            base_x = d + c * block + dx[r, c]
            total = np.int64(0)
            for i in range(block):
                yy = base_y + i
                for j in range(block):
                    a = np.int64(current_blocks[r, c, i, j])
                    b = np.int64(padded[yy, base_x + j])
                    total += a - b if a >= b else b - a
            out[r, c] = total


@_jit
def fused_exhaustive(current_blocks, padded, dys, dxs, d, best_dy, best_dx, best_sad):
    """One-call exhaustive search over every macroblock and candidate.

    ``dys``/``dxs`` give the candidate offsets in visit order, ``(0, 0)``
    first; a block's best match moves only on a strictly smaller SAD, the
    NumPy scan's rule.  Outputs: per-block best offset and integer SAD.
    """
    rows, cols = current_blocks.shape[0], current_blocks.shape[1]
    block = current_blocks.shape[2]
    for r in range(rows):
        for c in range(cols):
            base_y = d + r * block
            base_x = d + c * block
            # Seed with the (0, 0) candidate so no infinity sentinel is needed.
            best = np.int64(0)
            for i in range(block):
                yy = base_y + dys[0] + i
                for j in range(block):
                    a = np.int64(current_blocks[r, c, i, j])
                    b = np.int64(padded[yy, base_x + dxs[0] + j])
                    best += a - b if a >= b else b - a
            best_k = 0
            for k in range(1, dys.shape[0]):
                oy = base_y + dys[k]
                ox = base_x + dxs[k]
                sad = np.int64(0)
                for i in range(block):
                    yy = oy + i
                    for j in range(block):
                        a = np.int64(current_blocks[r, c, i, j])
                        b = np.int64(padded[yy, ox + j])
                        sad += a - b if a >= b else b - a
                    if sad >= best:
                        # The partial sum only grows: this candidate can no
                        # longer strictly improve.
                        break
                if sad < best:
                    best = sad
                    best_k = k
            best_dy[r, c] = dys[best_k]
            best_dx[r, c] = dxs[best_k]
            best_sad[r, c] = best
