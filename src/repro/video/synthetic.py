"""Procedural generation of continuous-vision video sequences.

The generator composes a textured background with one or more moving,
optionally deformable objects, then applies sequence-level effects
(illumination variation, motion blur, sensor noise) that correspond to the
OTB visual attributes.  Ground truth boxes are computed analytically from the
object models, so evaluation never depends on a human annotation step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from ..core.geometry import BoundingBox
from .attributes import VisualAttribute
from .objects import MovingObject, make_textured_part
from .sequence import VideoSequence
from .trajectories import BouncingTrajectory, SinusoidalTrajectory


#: Object classes used by the detection dataset; loosely mirrors the PASCAL
#: VOC-style classes the paper's in-house dataset annotates.
OBJECT_LABELS = (
    "person",
    "car",
    "bicycle",
    "dog",
    "bus",
    "motorbike",
    "cat",
    "chair",
)


@dataclass(frozen=True)
class SequenceConfig:
    """Parameters controlling one synthetic sequence.

    The defaults produce a quick-to-render 192x108 clip; the paper's nominal
    capture setting (1920x1080 at 60 FPS) is available by overriding
    ``frame_width``/``frame_height`` but is rarely needed because the
    algorithm's behaviour depends on motion statistics, not resolution.
    """

    name: str = "sequence"
    frame_width: int = 192
    frame_height: int = 108
    num_frames: int = 60
    num_objects: int = 1
    fps: float = 60.0
    seed: int = 0
    attributes: FrozenSet[VisualAttribute] = frozenset()
    #: Object speed in pixels/frame for ordinary sequences.
    base_speed: float = 2.0
    #: Object speed for sequences tagged FAST_MOTION.
    fast_speed: float = 11.0
    #: Edge length range of generated objects, as a fraction of frame height.
    min_object_fraction: float = 0.18
    max_object_fraction: float = 0.38
    #: Standard deviation of additive sensor noise (luma levels).
    noise_sigma: float = 2.0
    #: Background texture contrast; raised for BACKGROUND_CLUTTER.
    background_contrast: float = 18.0

    def __post_init__(self) -> None:
        if self.num_frames <= 0:
            raise ValueError("num_frames must be positive")
        if self.num_objects <= 0:
            raise ValueError("num_objects must be positive")
        if self.frame_width < 32 or self.frame_height < 32:
            raise ValueError("frames must be at least 32x32 pixels")


class SequenceGenerator:
    """Renders :class:`VideoSequence` objects from a :class:`SequenceConfig`."""

    def __init__(self, config: SequenceConfig) -> None:
        self.config = config
        self._rng = np.random.default_rng(config.seed)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def generate(self) -> VideoSequence:
        """Render the configured sequence."""
        config = self.config
        background = self._make_background()
        objects = [self._make_object(i) for i in range(config.num_objects)]

        frames = np.empty(
            (config.num_frames, config.frame_height, config.frame_width), dtype=np.uint8
        )
        ground_truth: Dict[int, List[Optional[BoundingBox]]] = {
            obj.object_id: [] for obj in objects
        }
        labels = {obj.object_id: obj.label for obj in objects}

        for t in range(config.num_frames):
            illumination = self._illumination_gain(t)
            canvas = background.copy() * illumination
            for obj in objects:
                obj.render_into(canvas, t, illumination=illumination)
                ground_truth[obj.object_id].append(
                    obj.ground_truth_box(t, config.frame_width, config.frame_height)
                )
            canvas = self._apply_motion_blur(canvas, objects, t)
            canvas = self._apply_noise(canvas)
            frames[t] = np.clip(canvas, 0, 255).astype(np.uint8)

        return VideoSequence(
            name=config.name,
            frames=frames,
            ground_truth=ground_truth,
            labels=labels,
            attributes=config.attributes,
            fps=config.fps,
        )

    # ------------------------------------------------------------------
    # Scene construction
    # ------------------------------------------------------------------
    def _make_background(self) -> np.ndarray:
        """Smooth random background; rough and high-contrast when cluttered."""
        config = self.config
        height, width = config.frame_height, config.frame_width
        cluttered = VisualAttribute.BACKGROUND_CLUTTER in config.attributes
        contrast = config.background_contrast * (3.0 if cluttered else 1.0)
        coarse_h = max(2, height // (4 if cluttered else 16))
        coarse_w = max(2, width // (4 if cluttered else 16))
        coarse = self._rng.uniform(-1.0, 1.0, size=(coarse_h, coarse_w))
        background = _upsample_bilinear(coarse, height, width)
        base_level = self._rng.uniform(70.0, 110.0)
        return np.clip(base_level + contrast * background, 0.0, 255.0)

    def _make_object(self, index: int) -> MovingObject:
        config = self.config
        rng = self._rng
        attributes = config.attributes

        size = rng.uniform(
            config.min_object_fraction, config.max_object_fraction
        ) * config.frame_height
        width = size * rng.uniform(0.7, 1.4)
        height = size

        speed = config.fast_speed if VisualAttribute.FAST_MOTION in attributes else config.base_speed
        speed *= rng.uniform(0.8, 1.2)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        velocity_x = speed * math.cos(angle)
        velocity_y = speed * math.sin(angle) * 0.6

        margin = max(width, height) * 0.6
        start_x = rng.uniform(margin, config.frame_width - margin)
        start_y = rng.uniform(margin, config.frame_height - margin)

        if VisualAttribute.IN_PLANE_ROTATION in attributes or (
            VisualAttribute.OUT_OF_PLANE_ROTATION in attributes
        ):
            trajectory = SinusoidalTrajectory(
                start_x=start_x,
                start_y=start_y,
                drift_x=velocity_x * 0.5,
                drift_y=velocity_y * 0.5,
                amplitude_x=8.0,
                amplitude_y=5.0,
                period_frames=30.0,
                phase=rng.uniform(0, 2 * math.pi),
            )
        else:
            trajectory = BouncingTrajectory(
                start_x=start_x,
                start_y=start_y,
                velocity_x=velocity_x,
                velocity_y=velocity_y,
                frame_width=float(config.frame_width),
                frame_height=float(config.frame_height),
                margin=margin * 0.5,
            )

        deformable = VisualAttribute.DEFORMATION in attributes
        parts = self._make_parts(rng, width, height, deformable)

        scale_rate = 1.0
        if VisualAttribute.SCALE_VARIATION in attributes:
            scale_rate = 1.006 if rng.random() < 0.5 else 0.994

        occluded_intervals: Tuple[Tuple[int, int], ...] = ()
        if VisualAttribute.OCCLUSION in attributes:
            start = config.num_frames // 3
            occluded_intervals = ((start, start + max(4, config.num_frames // 6)),)

        out_of_view_intervals: Tuple[Tuple[int, int], ...] = ()
        if VisualAttribute.OUT_OF_VIEW in attributes:
            start = (2 * config.num_frames) // 3
            out_of_view_intervals = ((start, start + max(3, config.num_frames // 10)),)

        label = OBJECT_LABELS[(index + self.config.seed) % len(OBJECT_LABELS)]
        return MovingObject(
            object_id=index,
            label=label,
            trajectory=trajectory,
            parts=parts,
            scale_rate=scale_rate,
            occluded_intervals=occluded_intervals,
            out_of_view_intervals=out_of_view_intervals,
        )

    def _make_parts(
        self, rng: np.random.Generator, width: float, height: float, deformable: bool
    ):
        base_intensity = rng.uniform(150.0, 210.0)
        if not deformable:
            return [
                make_textured_part(
                    rng, width, height, base_intensity=base_intensity, contrast=45.0
                )
            ]
        # Deformable object: a torso plus two swaying limbs.
        torso = make_textured_part(
            rng, width * 0.6, height, base_intensity=base_intensity, contrast=45.0
        )
        left = make_textured_part(
            rng,
            width * 0.3,
            height * 0.55,
            base_intensity=base_intensity - 25.0,
            contrast=40.0,
            offset_x=-width * 0.45,
            offset_y=height * 0.15,
            sway_amplitude=width * 0.18,
            sway_period=16.0,
            sway_phase=0.0,
        )
        right = make_textured_part(
            rng,
            width * 0.3,
            height * 0.55,
            base_intensity=base_intensity - 25.0,
            contrast=40.0,
            offset_x=width * 0.45,
            offset_y=height * 0.15,
            sway_amplitude=width * 0.18,
            sway_period=16.0,
            sway_phase=math.pi,
        )
        return [torso, left, right]

    # ------------------------------------------------------------------
    # Sequence-level effects
    # ------------------------------------------------------------------
    def _illumination_gain(self, frame_index: int) -> float:
        if VisualAttribute.ILLUMINATION_VARIATION not in self.config.attributes:
            return 1.0
        period = max(20.0, self.config.num_frames / 2.0)
        return 1.0 + 0.25 * math.sin(2.0 * math.pi * frame_index / period)

    def _apply_motion_blur(
        self, canvas: np.ndarray, objects: List[MovingObject], frame_index: int
    ) -> np.ndarray:
        if VisualAttribute.MOTION_BLUR not in self.config.attributes:
            return canvas
        # Approximate motion blur by averaging the frame with copies shifted
        # along the dominant object's motion direction.
        if not objects or frame_index == 0:
            return canvas
        x0, y0 = objects[0].center_at(frame_index - 1)
        x1, y1 = objects[0].center_at(frame_index)
        dx, dy = x1 - x0, y1 - y0
        steps = int(min(6, max(abs(dx), abs(dy))))
        if steps <= 0:
            return canvas
        accumulated = canvas.copy()
        for step in range(1, steps + 1):
            shift_x = int(round(dx * step / (steps + 1)))
            shift_y = int(round(dy * step / (steps + 1)))
            accumulated += _shift_image(canvas, shift_x, shift_y)
        return accumulated / (steps + 1)

    def _apply_noise(self, canvas: np.ndarray) -> np.ndarray:
        if self.config.noise_sigma <= 0:
            return canvas
        noise = self._rng.normal(0.0, self.config.noise_sigma, size=canvas.shape)
        return canvas + noise


def _shift_image(image: np.ndarray, dx: int, dy: int) -> np.ndarray:
    """Shift an image by integer offsets, edge-padding the uncovered region."""
    shifted = np.empty_like(image)
    height, width = image.shape
    src_y0 = max(0, -dy)
    src_y1 = min(height, height - dy)
    src_x0 = max(0, -dx)
    src_x1 = min(width, width - dx)
    dst_y0 = max(0, dy)
    dst_x0 = max(0, dx)
    shifted[:] = image
    if src_y1 > src_y0 and src_x1 > src_x0:
        shifted[dst_y0 : dst_y0 + (src_y1 - src_y0), dst_x0 : dst_x0 + (src_x1 - src_x0)] = (
            image[src_y0:src_y1, src_x0:src_x1]
        )
    return shifted


def _upsample_bilinear(coarse: np.ndarray, height: int, width: int) -> np.ndarray:
    """Bilinearly upsample a coarse noise grid to the frame resolution."""
    src_h, src_w = coarse.shape
    row_pos = np.linspace(0, src_h - 1, height)
    col_pos = np.linspace(0, src_w - 1, width)
    row0 = np.floor(row_pos).astype(int)
    col0 = np.floor(col_pos).astype(int)
    row1 = np.minimum(row0 + 1, src_h - 1)
    col1 = np.minimum(col0 + 1, src_w - 1)
    row_frac = (row_pos - row0)[:, None]
    col_frac = (col_pos - col0)[None, :]
    top = coarse[np.ix_(row0, col0)] * (1 - col_frac) + coarse[np.ix_(row0, col1)] * col_frac
    bottom = coarse[np.ix_(row1, col0)] * (1 - col_frac) + coarse[np.ix_(row1, col1)] * col_frac
    return top * (1 - row_frac) + bottom * row_frac
