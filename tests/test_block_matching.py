"""Tests for block-matching motion estimation (ES and TSS)."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.motion.block_matching import (
    BlockMatcher,
    BlockMatchingConfig,
    SearchStrategy,
    exhaustive_search_ops_per_macroblock,
    three_step_search_ops_per_macroblock,
)
from repro.motion import kernels
from repro.motion.reference import scalar_estimate


def _textured_frame(rng: np.random.Generator, height: int = 64, width: int = 96) -> np.ndarray:
    """A smooth but textured frame block matching can lock on to."""
    coarse = rng.uniform(0, 255, (height // 8, width // 8))
    return np.kron(coarse, np.ones((8, 8)))


def _shift(frame: np.ndarray, dx: int, dy: int) -> np.ndarray:
    """Shift a frame by (dx, dy) with edge replication."""
    shifted = np.roll(np.roll(frame, dy, axis=0), dx, axis=1)
    return shifted


class TestConfig:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BlockMatchingConfig(block_size=0)
        with pytest.raises(ValueError):
            BlockMatchingConfig(search_range=-1)

    def test_zero_search_range_is_valid(self):
        """d = 0 is the degenerate zero-motion case, not an error."""
        config = BlockMatchingConfig(search_range=0)
        assert config.ops_per_macroblock > 0
        rng = np.random.default_rng(21)
        frame = rng.integers(0, 256, (32, 32)).astype(np.uint8)
        field = BlockMatcher(config).estimate(frame, frame)
        assert field.max_magnitude() == 0.0

    def test_es_ops_formula(self):
        # L^2 * (2d+1)^2 from Sec. 2.3.
        assert exhaustive_search_ops_per_macroblock(16, 7) == 256 * 225

    def test_tss_ops_formula(self):
        # L^2 * (1 + 8 log2(d+1)) -> for d=7: 256 * 25.
        assert three_step_search_ops_per_macroblock(16, 7) == 256 * 25

    def test_tss_is_cheaper_than_es(self):
        config_es = BlockMatchingConfig(strategy=SearchStrategy.EXHAUSTIVE)
        config_tss = BlockMatchingConfig(strategy=SearchStrategy.THREE_STEP)
        assert config_tss.ops_per_macroblock < config_es.ops_per_macroblock
        # The paper quotes an ~8/9 reduction at d = 7.
        ratio = config_tss.ops_per_macroblock / config_es.ops_per_macroblock
        assert ratio == pytest.approx(1.0 / 9.0, rel=0.05)

    def test_ops_per_frame_scales_with_blocks(self):
        config = BlockMatchingConfig()
        assert config.ops_per_frame(64, 48) == 12 * config.ops_per_macroblock


class TestMotionRecovery:
    @pytest.mark.parametrize("strategy", [SearchStrategy.EXHAUSTIVE, SearchStrategy.THREE_STEP])
    @pytest.mark.parametrize("shift", [(0, 0), (3, 2), (-4, 1), (5, -5)])
    def test_recovers_global_translation(self, strategy, shift):
        rng = np.random.default_rng(7)
        previous = _textured_frame(rng)
        dx, dy = shift
        current = _shift(previous, dx, dy)
        matcher = BlockMatcher(BlockMatchingConfig(block_size=16, search_range=7, strategy=strategy))
        field = matcher.estimate(current, previous)
        # Interior blocks (away from the wrap-around edges) must recover the shift.
        interior = field.vectors[1:-1, 1:-1]
        assert np.median(interior[..., 0]) == pytest.approx(dx, abs=1.0)
        assert np.median(interior[..., 1]) == pytest.approx(dy, abs=1.0)

    def test_static_scene_reports_zero_motion(self):
        rng = np.random.default_rng(8)
        frame = _textured_frame(rng)
        matcher = BlockMatcher(BlockMatchingConfig())
        field = matcher.estimate(frame, frame)
        assert field.max_magnitude() == 0.0
        assert np.all(field.sad == 0.0)

    def test_flat_frames_prefer_zero_motion(self):
        flat = np.full((48, 64), 128.0)
        matcher = BlockMatcher(BlockMatchingConfig(strategy=SearchStrategy.EXHAUSTIVE))
        field = matcher.estimate(flat, flat)
        assert field.max_magnitude() == 0.0

    def test_motion_beyond_search_range_is_not_recovered(self):
        rng = np.random.default_rng(9)
        previous = _textured_frame(rng)
        current = _shift(previous, 12, 0)  # beyond d = 7
        matcher = BlockMatcher(BlockMatchingConfig(search_range=7))
        field = matcher.estimate(current, previous)
        assert abs(field.mean_motion().u) <= 7.0


def _bump_canvas(height: int, width: int, seed: int, bumps: int = 40) -> np.ndarray:
    """Smooth, self-dissimilar uint8 content block matching can lock on to."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:height, 0:width]
    img = np.zeros((height, width))
    for _ in range(bumps):
        cy, cx = rng.uniform(0, height), rng.uniform(0, width)
        sigma = rng.uniform(10, 25)
        img += rng.uniform(50, 255) * np.exp(
            -(((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma * sigma))
        )
    img = (img - img.min()) / (img.max() - img.min()) * 255
    return np.rint(img).astype(np.uint8)


class TestExactShiftRecovery:
    """Known-shift frames where the searches must be *exactly* right.

    The frames are crops of one larger canvas (no wrap-around), so every
    interior macroblock has a perfect (SAD = 0) match at the true
    displacement.  ES must find it for any in-range shift; TSS, being a
    greedy logarithmic descent, is guaranteed exact when the displacement
    lies on its first-step lattice (the SAD = 0 match is evaluated directly
    and strict improvement can never leave it).
    """

    HEIGHT, WIDTH, MARGIN = 96, 128, 16

    def _frame_pair(self, dx: int, dy: int):
        m = self.MARGIN
        canvas = _bump_canvas(self.HEIGHT + 2 * m, self.WIDTH + 2 * m, seed=5)
        previous = canvas[m : m + self.HEIGHT, m : m + self.WIDTH]
        # current[y, x] = previous[y - dy, x - dx]: forward motion (dx, dy).
        current = canvas[m - dy : m - dy + self.HEIGHT, m - dx : m - dx + self.WIDTH]
        return current, previous

    def _assert_exact(self, strategy, dx: int, dy: int):
        current, previous = self._frame_pair(dx, dy)
        matcher = BlockMatcher(
            BlockMatchingConfig(block_size=16, search_range=7, strategy=strategy)
        )
        field = matcher.estimate(current, previous)
        interior = field.vectors[1:-1, 1:-1]
        assert np.all(interior[..., 0] == dx), f"u != {dx} for {strategy}"
        assert np.all(interior[..., 1] == dy), f"v != {dy} for {strategy}"
        assert np.all(field.sad[1:-1, 1:-1] == 0.0)

    @pytest.mark.parametrize("shift", [(0, 0), (3, 2), (-5, 1), (7, -7), (2, -3), (-6, -4)])
    def test_es_recovers_any_in_range_shift_exactly(self, shift):
        self._assert_exact(SearchStrategy.EXHAUSTIVE, *shift)

    @pytest.mark.parametrize(
        "shift", [(0, 0), (4, 0), (0, -4), (-4, 0), (4, 4), (-4, -4), (-4, 4), (4, -4)]
    )
    def test_tss_recovers_step_lattice_shifts_exactly(self, shift):
        self._assert_exact(SearchStrategy.THREE_STEP, *shift)
        # ES must agree on these shifts too.
        self._assert_exact(SearchStrategy.EXHAUSTIVE, *shift)


class TestEstimateInterface:
    def test_shape_mismatch_rejected(self):
        matcher = BlockMatcher()
        with pytest.raises(ValueError):
            matcher.estimate(np.zeros((32, 32)), np.zeros((32, 48)))

    def test_non_2d_rejected(self):
        matcher = BlockMatcher()
        with pytest.raises(ValueError):
            matcher.estimate(np.zeros((32, 32, 3)), np.zeros((32, 32, 3)))

    def test_non_multiple_frame_size_is_padded(self):
        rng = np.random.default_rng(10)
        frame = rng.uniform(0, 255, (50, 70))
        matcher = BlockMatcher(BlockMatchingConfig(block_size=16))
        field = matcher.estimate(frame, frame)
        assert field.grid.rows == 4
        assert field.grid.cols == 5

    def test_operation_count_tracked(self):
        rng = np.random.default_rng(11)
        frame = _textured_frame(rng)
        config = BlockMatchingConfig(strategy=SearchStrategy.THREE_STEP)
        matcher = BlockMatcher(config)
        matcher.estimate(frame, frame)
        expected = (64 // 16) * (96 // 16) * config.ops_per_macroblock
        assert matcher.last_operation_count == expected

    def test_sad_values_are_non_negative(self):
        rng = np.random.default_rng(12)
        a = rng.uniform(0, 255, (48, 64))
        b = rng.uniform(0, 255, (48, 64))
        matcher = BlockMatcher()
        field = matcher.estimate(a, b)
        assert np.all(field.sad >= 0)

    def test_vectors_stay_within_search_window(self):
        rng = np.random.default_rng(13)
        a = rng.uniform(0, 255, (48, 64))
        b = rng.uniform(0, 255, (48, 64))
        for strategy in SearchStrategy:
            matcher = BlockMatcher(BlockMatchingConfig(search_range=5, strategy=strategy))
            field = matcher.estimate(a, b)
            assert np.all(np.abs(field.vectors) <= 5.0)


class TestESvsTSS:
    def test_tss_sad_never_better_than_es(self):
        """ES is optimal within the window; TSS can only match or do worse."""
        rng = np.random.default_rng(14)
        previous = _textured_frame(rng)
        current = _shift(previous, 2, 3) + rng.normal(0, 2.0, previous.shape)
        es = BlockMatcher(BlockMatchingConfig(strategy=SearchStrategy.EXHAUSTIVE))
        tss = BlockMatcher(BlockMatchingConfig(strategy=SearchStrategy.THREE_STEP))
        es_field = es.estimate(current, previous)
        tss_field = tss.estimate(current, previous)
        assert es_field.sad.sum() <= tss_field.sad.sum() + 1e-6

    def test_es_and_tss_agree_on_clean_translation(self):
        rng = np.random.default_rng(15)
        previous = _textured_frame(rng)
        current = _shift(previous, 4, 1)
        es = BlockMatcher(BlockMatchingConfig(strategy=SearchStrategy.EXHAUSTIVE))
        tss = BlockMatcher(BlockMatchingConfig(strategy=SearchStrategy.THREE_STEP))
        es_field = es.estimate(current, previous)
        tss_field = tss.estimate(current, previous)
        interior_es = es_field.vectors[1:-1, 1:-1]
        interior_tss = tss_field.vectors[1:-1, 1:-1]
        agreement = np.mean(np.all(interior_es == interior_tss, axis=-1))
        assert agreement > 0.8


def _exhaustive(current, previous, block_size, search_range):
    matcher = BlockMatcher(
        BlockMatchingConfig(
            block_size=block_size,
            search_range=search_range,
            strategy=SearchStrategy.EXHAUSTIVE,
        )
    )
    return matcher, matcher.estimate(current, previous)


def _assert_exhaustive_matches_oracle(current, previous, block_size, search_range):
    oracle = scalar_estimate(
        current, previous, block_size=block_size, search_range=search_range, three_step=False
    )
    _matcher, field = _exhaustive(current, previous, block_size, search_range)
    assert np.array_equal(field.vectors, oracle.vectors)
    assert np.array_equal(field.sad, oracle.sad)


class TestExhaustiveMatchesOracle:
    """The vectorized exhaustive scan equals the scalar oracle bit for bit."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        block_size=st.sampled_from([3, 4, 8, 16]),
        search_range=st.sampled_from([0, 1, 2, 5, 7]),
        height=st.integers(8, 48),
        width=st.integers(8, 48),
    )
    def test_integer_frames(self, seed, block_size, search_range, height, width):
        rng = np.random.default_rng(seed)
        current = rng.integers(0, 256, (height, width)).astype(np.uint8)
        previous = rng.integers(0, 256, (height, width)).astype(np.uint8)
        _assert_exhaustive_matches_oracle(current, previous, block_size, search_range)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        block_size=st.sampled_from([4, 8, 16]),
        search_range=st.sampled_from([0, 2, 7]),
        height=st.integers(8, 48),
        width=st.integers(8, 48),
    )
    def test_fixed_point_frames(self, seed, block_size, search_range, height, width):
        """Q8.4-lattice floats ride the exact integer kernel."""
        rng = np.random.default_rng(seed)
        current = np.round(rng.uniform(0, 255, (height, width)) * 16) / 16
        previous = np.round(rng.uniform(0, 255, (height, width)) * 16) / 16
        _assert_exhaustive_matches_oracle(current, previous, block_size, search_range)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        block_size=st.sampled_from([4, 8, 16]),
        search_range=st.sampled_from([0, 2, 7]),
        height=st.integers(8, 48),
        width=st.integers(8, 48),
    )
    def test_fractional_float_frames(self, seed, block_size, search_range, height, width):
        """Genuinely fractional frames take the float gather path."""
        rng = np.random.default_rng(seed)
        current = rng.uniform(0, 255, (height, width))
        previous = rng.uniform(0, 255, (height, width))
        _assert_exhaustive_matches_oracle(current, previous, block_size, search_range)

    def test_zero_search_range(self):
        """d = 0 collapses the window to the co-located block."""
        rng = np.random.default_rng(3)
        current = rng.integers(0, 256, (40, 56)).astype(np.uint8)
        previous = rng.integers(0, 256, (40, 56)).astype(np.uint8)
        _assert_exhaustive_matches_oracle(current, previous, 8, 0)
        _matcher, field = _exhaustive(current, previous, 8, 0)
        assert field.max_magnitude() == 0.0

    def test_edge_padded_blocks(self):
        """Frame sizes that are not block multiples exercise the edge padding."""
        rng = np.random.default_rng(4)
        for height, width in [(50, 70), (33, 47), (17, 90)]:
            current = rng.integers(0, 256, (height, width)).astype(np.uint8)
            previous = rng.integers(0, 256, (height, width)).astype(np.uint8)
            _assert_exhaustive_matches_oracle(current, previous, 16, 7)

    def test_flat_frames_keep_zero_motion_tiebreak(self):
        """Every offset ties on flat content: the smallest motion wins."""
        flat = np.full((48, 64), 128, dtype=np.uint8)
        _assert_exhaustive_matches_oracle(flat, flat, 16, 7)
        _matcher, field = _exhaustive(flat, flat, 16, 7)
        assert field.max_magnitude() == 0.0
        assert np.all(field.sad == 0.0)


    def test_uint8_sads_wider_than_uint16(self):
        """32x32 blocks of unrelated noise: SADs pass 2**16 without wrapping."""
        rng = np.random.default_rng(8)
        current = rng.integers(0, 256, (80, 100)).astype(np.uint8)
        previous = rng.integers(0, 256, (80, 100)).astype(np.uint8)
        _assert_exhaustive_matches_oracle(current, previous, 32, 5)
        _matcher, field = _exhaustive(current, previous, 32, 5)
        assert field.sad.max() > 2**16

    def test_wide_integer_frames(self):
        """Integer frames past the int16 range use int32 and an integer reduction."""
        rng = np.random.default_rng(9)
        current = rng.integers(-(2**20), 2**20, (40, 56)).astype(np.int64)
        previous = rng.integers(-(2**20), 2**20, (40, 56)).astype(np.int64)
        _assert_exhaustive_matches_oracle(current, previous, 8, 3)

    def test_search_range_wider_than_frame(self):
        """Offsets past the frame edge read the edge-replicated padding."""
        rng = np.random.default_rng(10)
        current = rng.integers(0, 256, (16, 24)).astype(np.uint8)
        previous = rng.integers(0, 256, (16, 24)).astype(np.uint8)
        _assert_exhaustive_matches_oracle(current, previous, 8, 12)

    def test_periodic_ties_keep_the_nearest_offset(self):
        """Content repeating every 4 px ties at offsets 4 apart: the nearest wins."""
        rng = np.random.default_rng(11)
        tile = rng.integers(0, 256, (4, 4)).astype(np.uint8)
        previous = np.tile(tile, (12, 16))
        current = np.roll(previous, (1, 2), axis=(0, 1))
        _assert_exhaustive_matches_oracle(current, previous, 16, 7)
        _matcher, field = _exhaustive(current, previous, 16, 7)
        # current[y, x] = previous[y - 1, x - 2]: the match at (dy, dx) =
        # (-1, -2) and its ties at (-1, 2), (3, -2), ... all have SAD 0; the
        # nearest-to-zero one is the forward motion (2, 1).
        interior = field.vectors[1:-1, 1:-1]
        assert np.all(interior[..., 0] == 2.0)
        assert np.all(interior[..., 1] == 1.0)
        assert np.all(field.sad[1:-1, 1:-1] == 0.0)

    def test_tracking_geometry_spans_bands(self):
        """192x108 frames at d = 7: seven block rows over a full and a partial band."""
        rng = np.random.default_rng(13)
        previous = rng.integers(0, 256, (108, 192)).astype(np.uint8)
        current = np.roll(previous, (3, -5), axis=(0, 1))
        _assert_exhaustive_matches_oracle(current, previous, 16, 7)

    def test_single_block_row(self):
        rng = np.random.default_rng(14)
        current = rng.integers(0, 256, (12, 80)).astype(np.uint8)
        previous = rng.integers(0, 256, (12, 80)).astype(np.uint8)
        _assert_exhaustive_matches_oracle(current, previous, 16, 7)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        block_size=st.sampled_from([2, 4, 8, 16]),
        search_range=st.sampled_from([0, 1, 3, 7, 12]),
        height=st.integers(4, 60),
        width=st.integers(4, 60),
        frac_bits=st.sampled_from([0, 4, 8]),
        band_bytes=st.sampled_from([1, 2**9, 2**12, 2**18]),
    )
    def test_banded_scan_matches_oracle(
        self, seed, block_size, search_range, height, width, frac_bits, band_bytes
    ):
        """Any band height, dtype path and window size: ES equals the oracle."""
        rng = np.random.default_rng(seed)
        previous = rng.integers(0, 256, (height, width))
        current = np.roll(previous, tuple(rng.integers(-4, 5, 2)), axis=(0, 1))
        noisy = rng.random((height, width)) < 0.3
        current[noisy] = rng.integers(0, 256, int(noisy.sum()))
        if frac_bits:
            scale = 2**frac_bits
            current = (current * scale + rng.integers(0, scale, current.shape)) / scale
            previous = (previous * scale + rng.integers(0, scale, previous.shape)) / scale
        else:
            current, previous = current.astype(np.uint8), previous.astype(np.uint8)
        with mock.patch.object(kernels, "_BAND_BYTES", band_bytes):
            matcher, _field = _exhaustive(current, previous, block_size, search_range)
            assert matcher.last_kernel_scale == 2**frac_bits
            _assert_exhaustive_matches_oracle(current, previous, block_size, search_range)


class TestSearchAccounting:
    def test_exhaustive_operation_count_matches_analytical(self):
        rng = np.random.default_rng(6)
        frame = rng.integers(0, 256, (64, 96)).astype(np.uint8)
        matcher, _field = _exhaustive(frame, frame, 16, 7)
        expected = (64 // 16) * (96 // 16) * matcher.config.ops_per_macroblock
        assert matcher.last_operation_count == expected
        stats = matcher.last_search_stats
        assert stats.candidates_evaluated == stats.candidates_total == 24 * 225
        assert stats.evaluated_fraction == 1.0

    def test_three_step_clears_search_stats(self):
        rng = np.random.default_rng(7)
        frame = rng.integers(0, 256, (48, 48)).astype(np.uint8)
        matcher, _field = _exhaustive(frame, frame, 16, 7)
        matcher.config = BlockMatchingConfig(strategy=SearchStrategy.THREE_STEP)
        matcher.estimate(frame, frame)
        assert matcher.last_search_stats is None

    def test_exhaustive_stats_count_padded_blocks(self):
        """Edge-padded blocks are searched, and counted, like full ones."""
        rng = np.random.default_rng(12)
        frame = rng.integers(0, 256, (50, 70)).astype(np.uint8)
        matcher, field = _exhaustive(frame, frame, 16, 3)
        assert (field.grid.rows, field.grid.cols) == (4, 5)
        assert matcher.last_search_stats.candidates_total == 20 * 49
        assert matcher.last_operation_count == 20 * matcher.config.ops_per_macroblock

    @pytest.mark.parametrize("search_range", [0, 1, 7])
    def test_window_offsets_visit_nearest_first(self, search_range):
        offsets = BlockMatcher._window_offsets(search_range)
        side = 2 * search_range + 1
        assert len(offsets) == len(set(offsets)) == side * side
        assert offsets[0] == (0, 0)
        distances = [dy * dy + dx * dx for dy, dx in offsets]
        assert distances == sorted(distances)
