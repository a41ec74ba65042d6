"""Video sequence container with per-frame ground truth."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional

import numpy as np

from ..core.geometry import BoundingBox
from ..core.types import Detection
from .attributes import VisualAttribute


@dataclass
class VideoSequence:
    """A continuous video clip plus its ground-truth annotations.

    Attributes
    ----------
    name:
        Sequence identifier (e.g. ``"otb_like_017"``).
    frames:
        Luma frames as a ``(num_frames, height, width)`` uint8 array.  The
        synthetic generator produces luma directly; the ISP substrate can
        also re-derive luma from simulated RAW captures.
    ground_truth:
        Per-object list of per-frame boxes.  ``None`` marks frames where the
        object is absent (out of view), matching how tracking benchmarks
        annotate missing targets.
    labels:
        Class label per object id.
    attributes:
        Visual attributes characterising the sequence (Fig. 12 categories).
    fps:
        Nominal capture rate; the paper's evaluation uses 60 FPS.
    """

    name: str
    frames: np.ndarray
    ground_truth: Dict[int, List[Optional[BoundingBox]]]
    labels: Dict[int, str] = field(default_factory=dict)
    attributes: FrozenSet[VisualAttribute] = frozenset()
    fps: float = 60.0

    def __post_init__(self) -> None:
        if self.frames.ndim != 3:
            raise ValueError(f"frames must be (T, H, W), got shape {self.frames.shape}")
        for object_id, boxes in self.ground_truth.items():
            if len(boxes) != self.num_frames:
                raise ValueError(
                    f"object {object_id} has {len(boxes)} annotations for "
                    f"{self.num_frames} frames"
                )

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_frames(self) -> int:
        return int(self.frames.shape[0])

    @property
    def height(self) -> int:
        return int(self.frames.shape[1])

    @property
    def width(self) -> int:
        return int(self.frames.shape[2])

    @property
    def object_ids(self) -> List[int]:
        return sorted(self.ground_truth.keys())

    @property
    def primary_object_id(self) -> int:
        """The tracked target for single-object tracking scenarios."""
        if not self.ground_truth:
            raise ValueError("sequence has no annotated objects")
        return self.object_ids[0]

    def __len__(self) -> int:
        return self.num_frames

    def frame(self, index: int) -> np.ndarray:
        """Luma frame at ``index``."""
        return self.frames[index]

    def iter_frames(self):
        """Iterate over ``(index, frame)`` pairs."""
        for index in range(self.num_frames):
            yield index, self.frames[index]

    # ------------------------------------------------------------------
    # Ground-truth queries
    # ------------------------------------------------------------------
    def truth_for(self, object_id: int) -> List[Optional[BoundingBox]]:
        """Per-frame ground-truth boxes for one object."""
        return self.ground_truth[object_id]

    def truth_at(self, frame_index: int) -> Dict[int, BoundingBox]:
        """All objects present at ``frame_index`` mapped to their boxes."""
        present = {}
        for object_id, boxes in self.ground_truth.items():
            box = boxes[frame_index]
            if box is not None:
                present[object_id] = box
        return present

    def truth_detections(self, frame_index: int) -> List[Detection]:
        """Ground truth at ``frame_index`` expressed as detections."""
        detections = []
        for object_id, box in sorted(self.truth_at(frame_index).items()):
            detections.append(
                Detection(
                    box=box,
                    label=self.labels.get(object_id, "object"),
                    score=1.0,
                    object_id=object_id,
                )
            )
        return detections

    def total_annotations(self) -> int:
        """Total number of (frame, object) ground-truth boxes."""
        return sum(
            1
            for boxes in self.ground_truth.values()
            for box in boxes
            if box is not None
        )

    def average_objects_per_frame(self) -> float:
        """Mean number of annotated objects per frame."""
        if self.num_frames == 0:
            return 0.0
        return self.total_annotations() / self.num_frames

    def has_attribute(self, attribute: VisualAttribute) -> bool:
        return attribute in self.attributes
