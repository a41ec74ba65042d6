"""Tests for the vectorized SAD kernels and the scalar-oracle equivalence.

The vectorized engine must be *bit-identical* to the scalar reference in
``repro.motion.reference`` — not approximately equal — because downstream
confidence filtering (Eq. 2/3) is sensitive to SAD values and the paper's
hardware produces exact integer SADs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.motion.block_matching import BlockMatcher, BlockMatchingConfig, SearchStrategy
from repro.motion import kernels
from repro.motion.kernels import SadKernel, frames_are_integer
from repro.motion.reference import scalar_estimate


class TestFramesAreInteger:
    def test_uint8_frames(self):
        assert frames_are_integer(np.zeros((4, 4), dtype=np.uint8))

    def test_integer_valued_floats(self):
        assert frames_are_integer(np.array([[1.0, 255.0], [0.0, 7.0]]))

    def test_fractional_floats(self):
        assert not frames_are_integer(np.array([[1.0, 2.5]]))

    def test_mixed(self):
        a = np.zeros((2, 2), dtype=np.uint8)
        b = np.array([[0.25, 1.0], [2.0, 3.0]])
        assert not frames_are_integer(a, b)

    def test_huge_values_rejected(self):
        assert not frames_are_integer(np.array([[2.0**40]]))

    def test_non_finite_rejected(self):
        assert not frames_are_integer(np.array([[np.nan, 1.0]]))


class TestSadKernelModes:
    def test_integer_mode_detected_for_uint8(self):
        frame = np.zeros((16, 16), dtype=np.uint8)
        kernel = SadKernel(frame, frame, block_size=8, search_range=2)
        assert kernel.exact_integer

    def test_float_mode_for_fractional_frames(self):
        # 1/3 lies on no power-of-two lattice, so this is genuinely float.
        frame = np.full((16, 16), 1.0 / 3.0)
        kernel = SadKernel(frame, frame, block_size=8, search_range=2)
        assert not kernel.exact_integer

    def test_fixed_point_mode_for_lattice_frames(self):
        # 0.5 lies on the Q8.4 lattice: matched in scaled integers.
        frame = np.full((16, 16), 0.5)
        kernel = SadKernel(frame, frame, block_size=8, search_range=2)
        assert kernel.exact_integer
        assert kernel.scale == 16

    def test_window_and_per_block_agree_on_integers(self):
        rng = np.random.default_rng(0)
        current = rng.integers(0, 256, (32, 48)).astype(np.uint8)
        previous = rng.integers(0, 256, (32, 48)).astype(np.uint8)
        kernel = SadKernel(current, previous, block_size=16, search_range=3)
        window = kernel.sad_window()
        assert window.shape == (7, 7, 2, 3)
        for dy, dx in [(0, 0), (1, -2), (-3, 3)]:
            per_block = kernel.sad_per_block(
                np.full((2, 3), dy, dtype=np.int64), np.full((2, 3), dx, dtype=np.int64)
            )
            assert np.array_equal(kernel.descale(window[dy + 3, dx + 3]), per_block)

    def test_window_requires_exact_integer_mode(self):
        frame = np.full((16, 16), 1.0 / 3.0)
        with pytest.raises(RuntimeError, match="exact-integer"):
            SadKernel(frame, frame, block_size=8, search_range=2).sad_window()

    def test_integer_and_float_modes_agree_on_integer_frames(self):
        rng = np.random.default_rng(1)
        current = rng.integers(0, 256, (32, 32)).astype(np.float64)
        previous = rng.integers(0, 256, (32, 32)).astype(np.float64)
        fast = SadKernel(current, previous, 16, 4, exact_integer=True)
        slow = SadKernel(current, previous, 16, 4, exact_integer=False)
        dy = rng.integers(-4, 5, (2, 2))
        dx = rng.integers(-4, 5, (2, 2))
        assert np.array_equal(fast.sad_per_block(dy, dx), slow.sad_per_block(dy, dx))

    def test_rejects_unpadded_frames(self):
        with pytest.raises(ValueError):
            SadKernel(np.zeros((10, 16)), np.zeros((10, 16)), 16, 2)


def _assert_matches_oracle(current, previous, block_size, search_range, strategy):
    matcher = BlockMatcher(
        BlockMatchingConfig(
            block_size=block_size, search_range=search_range, strategy=strategy
        )
    )
    field = matcher.estimate(current, previous)
    oracle = scalar_estimate(
        current,
        previous,
        block_size=block_size,
        search_range=search_range,
        three_step=strategy is SearchStrategy.THREE_STEP,
    )
    assert np.array_equal(field.vectors, oracle.vectors)
    assert np.array_equal(field.sad, oracle.sad)


class TestVectorizedEqualsOracle:
    """Property tests: the vectorized searches equal the scalar reference."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        block_size=st.sampled_from([3, 4, 8, 16]),
        search_range=st.sampled_from([0, 1, 2, 5, 7]),
        height=st.integers(8, 48),
        width=st.integers(8, 48),
    )
    def test_tss_on_random_float_frames(self, seed, block_size, search_range, height, width):
        rng = np.random.default_rng(seed)
        current = rng.uniform(0, 255, (height, width))
        previous = rng.uniform(0, 255, (height, width))
        _assert_matches_oracle(
            current, previous, block_size, search_range, SearchStrategy.THREE_STEP
        )

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        block_size=st.sampled_from([3, 4, 8, 16]),
        search_range=st.sampled_from([0, 1, 2, 5, 7]),
        height=st.integers(8, 48),
        width=st.integers(8, 48),
    )
    def test_tss_and_es_on_random_integer_frames(
        self, seed, block_size, search_range, height, width
    ):
        rng = np.random.default_rng(seed)
        current = rng.integers(0, 256, (height, width)).astype(np.uint8)
        previous = rng.integers(0, 256, (height, width)).astype(np.uint8)
        for strategy in SearchStrategy:
            _assert_matches_oracle(current, previous, block_size, search_range, strategy)

    def test_low_texture_ties_match_oracle(self):
        """Flat regions exercise the strict-improvement tie-breaking."""
        rng = np.random.default_rng(7)
        current = np.full((40, 40), 100.0)
        current[10:20, 10:20] += rng.integers(0, 3, (10, 10))
        previous = np.full((40, 40), 100.0)
        _assert_matches_oracle(current, previous, 8, 7, SearchStrategy.THREE_STEP)
        _assert_matches_oracle(current, previous, 8, 7, SearchStrategy.EXHAUSTIVE)


def _neighbours(step):
    return [(y, x) for y in (-step, 0, step) for x in (-step, 0, step) if y or x]


class TestStepNeighbourhood:
    """``SadKernel.sad_around``, the three-step-search primitive, is exact.

    Its integer path scores every candidate from one pixel-major copy of
    each block's neighbourhood; the searches built on it must still equal
    the scalar oracle bit for bit in every regime the copy has to handle.
    """

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        block_size=st.sampled_from([4, 8, 16, 32]),
        search_range=st.sampled_from([0, 1, 3, 7, 10, 15]),
        height=st.integers(5, 72),
        width=st.integers(5, 72),
        frac_bits=st.sampled_from([0, 4, 8]),
    )
    def test_tss_matches_oracle(self, seed, block_size, search_range, height, width, frac_bits):
        rng = np.random.default_rng(seed)
        previous = rng.integers(0, 256, (height, width))
        shift = rng.integers(-search_range - 2, search_range + 3, 2)
        current = np.roll(previous, tuple(shift), axis=(0, 1))
        noisy = rng.random((height, width)) < 0.2
        current[noisy] = rng.integers(0, 256, int(noisy.sum()))
        if frac_bits:
            # Fixed-point values: the kernel scales them to integers, int16
            # for Q8.4 and int32 for the finer Q8.8 lattice.
            scale = 2**frac_bits
            current = (current * scale + rng.integers(0, scale, current.shape)) / scale
            previous = (previous * scale + rng.integers(0, scale, previous.shape)) / scale
        else:
            current = current.astype(np.uint8)
            previous = previous.astype(np.uint8)
        matcher = BlockMatcher(
            BlockMatchingConfig(block_size=block_size, search_range=search_range)
        )
        field = matcher.estimate(current, previous)
        oracle = scalar_estimate(
            current, previous, block_size=block_size, search_range=search_range
        )
        assert matcher.last_kernel_exact
        assert matcher.last_kernel_scale == 2**frac_bits
        assert np.array_equal(field.vectors, oracle.vectors)
        assert np.array_equal(field.sad, oracle.sad)

    def test_uint8_sads_wider_than_uint16(self):
        # 32x32 blocks of unrelated uint8 noise: SADs pass 2**16, so a
        # uint16 accumulator would wrap.
        rng = np.random.default_rng(11)
        current = rng.integers(0, 256, (80, 100)).astype(np.uint8)
        previous = rng.integers(0, 256, (80, 100)).astype(np.uint8)
        _assert_matches_oracle(current, previous, 32, 7, SearchStrategy.THREE_STEP)
        field = BlockMatcher(BlockMatchingConfig(block_size=32)).estimate(current, previous)
        assert field.sad.max() > 2**16

    def _moved_top_half(self):
        # The top half shifts by one first-step offset and the bottom half
        # stays: after the first step some block centers coincide, not all.
        rng = np.random.default_rng(5)
        previous = rng.integers(0, 256, (64, 96)).astype(np.uint8)
        current = previous.copy()
        current[:32] = np.roll(previous, 4, axis=1)[:32]
        return current, previous

    def test_partly_shared_centers_match_oracle(self):
        current, previous = self._moved_top_half()
        matcher = BlockMatcher(BlockMatchingConfig(block_size=16, search_range=7))
        field = matcher.estimate(current, previous)
        assert set(map(tuple, field.vectors.reshape(-1, 2))) >= {(0.0, 0.0), (4.0, 0.0)}
        _assert_matches_oracle(current, previous, 16, 7, SearchStrategy.THREE_STEP)

    @pytest.mark.parametrize("search_range", [3, 7, 10])
    def test_shared_and_gathered_neighbourhoods_equal_float_mode(self, search_range):
        current, previous = self._moved_top_half()
        fast = SadKernel(current, previous, 16, search_range)
        slow = SadKernel(current, previous, 16, search_range, exact_integer=False)
        assert fast.exact_integer and not slow.exact_integer
        d = search_range
        shared = np.zeros((fast.rows, fast.cols), dtype=np.int64)
        mixed = shared.copy()
        mixed[: fast.rows // 2] = -min(4, d)  # some centers coincide, not all
        mixed[0, 0] = d  # candidates past the window: masked by callers
        for center_dy, center_dx in ((shared, shared), (shared, mixed), (mixed, mixed)):
            for step in (1, 2, 4):
                offsets = [(0, 0)] + _neighbours(step)
                sads = fast.sad_around(center_dy, center_dx, offsets)
                for (ndy, ndx), sad in zip(offsets, sads):
                    dy, dx = center_dy + ndy, center_dx + ndx
                    valid = (np.abs(dy) <= d) & (np.abs(dx) <= d)
                    expected = slow.sad_per_block(np.clip(dy, -d, d), np.clip(dx, -d, d))
                    assert np.array_equal(sad[valid], expected[valid])


def _window_case(case):
    """Frames and block size that send ``sad_window`` down one integer path."""
    rng = np.random.default_rng(17)
    if case == "uint8":
        shape, block_size = (48, 64), 16
        frames = [rng.integers(0, 256, shape).astype(np.uint8) for _ in range(2)]
    elif case == "uint8_wide_columns":
        # 255 * 264 > 2**16: a column partial no longer fits uint16.  The
        # first block differs by 255 everywhere, so its partials reach that.
        shape, block_size = (264, 528), 264
        frames = [rng.integers(0, 256, shape).astype(np.uint8) for _ in range(2)]
        frames[0][:, :264] = 255
        frames[1][:, :264] = 0
    elif case == "int16_q8_4":
        # Q8.4 lattice floats are matched as int16 multiples of 1/16.
        shape, block_size = (48, 64), 16
        frames = [np.round(rng.uniform(0, 255, shape) * 16) / 16 for _ in range(2)]
    else:  # "int32"
        shape, block_size = (48, 64), 16
        frames = [rng.integers(-(2**20), 2**20, shape).astype(np.int64) for _ in range(2)]
    return frames[0], frames[1], block_size


def _assert_window_equals_float_mode(current, previous, block_size, search_range):
    fast = SadKernel(current, previous, block_size, search_range)
    slow = SadKernel(current, previous, block_size, search_range, exact_integer=False)
    assert fast.exact_integer and not slow.exact_integer
    window = fast.sad_window()
    side = 2 * search_range + 1
    assert window.shape == (side, side, fast.rows, fast.cols)
    for dy in range(-search_range, search_range + 1):
        for dx in range(-search_range, search_range + 1):
            expected = slow.sad_per_block(dy, dx)
            assert np.array_equal(
                fast.descale(window[dy + search_range, dx + search_range]), expected
            )
    return fast, window


class TestWindowPrimitive:
    """``SadKernel.sad_window``, the exhaustive-search primitive, is exact.

    Every integer path (working dtype x accumulator widths) and every band
    layout must give the float-mode per-block gather's SADs at every window
    offset.
    """

    @pytest.mark.parametrize(
        "case, work_dtype, block_dtype",
        [
            ("uint8", np.uint8, np.uint16),
            ("uint8_wide_columns", np.uint8, np.int32),
            ("int16_q8_4", np.int16, np.int32),
            ("int32", np.int32, np.int32),
        ],
    )
    def test_every_offset_equals_float_mode(self, case, work_dtype, block_dtype):
        current, previous, block_size = _window_case(case)
        fast, window = _assert_window_equals_float_mode(current, previous, block_size, 2)
        assert fast._current.dtype == work_dtype
        assert window.dtype == block_dtype

    @pytest.mark.parametrize(
        "height, width, block_size, search_range",
        [
            (112, 192, 16, 7),  # tracking-pool geometry: 7 block rows, bands of 5 + 2
            (16, 80, 16, 7),  # a single block row
            (48, 64, 16, 0),  # d = 0: the co-located block only
            (16, 24, 8, 12),  # a window wider than the frame
        ],
    )
    def test_band_and_window_geometries(self, height, width, block_size, search_range):
        rng = np.random.default_rng(height * width + search_range)
        current = rng.integers(0, 256, (height, width)).astype(np.uint8)
        previous = rng.integers(0, 256, (height, width)).astype(np.uint8)
        _assert_window_equals_float_mode(current, previous, block_size, search_range)

    def test_tracking_geometry_spans_a_partial_band(self):
        side, block_size, width = 15, 16, 192
        band_rows = kernels._BAND_BYTES // (block_size * side * width)
        assert 1 < band_rows < 7 and 7 % band_rows

    @pytest.mark.parametrize("band_rows", [1, 2, 3, 4])
    def test_forced_band_heights(self, monkeypatch, band_rows):
        """Bands of every height up to the frame's, ragged last band included."""
        rng = np.random.default_rng(band_rows)
        current = rng.integers(0, 256, (40, 48)).astype(np.uint8)
        previous = rng.integers(0, 256, (40, 48)).astype(np.uint8)
        monkeypatch.setattr(kernels, "_BAND_BYTES", band_rows * 8 * 7 * 48)
        _assert_window_equals_float_mode(current, previous, 8, 3)
