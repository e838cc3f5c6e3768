"""Chest ROI derivation from facial landmarks, or from an explicit rectangle.

Landmarks (chin, left ear, right ear) come from a sidecar CSV; no face
detector is embedded. The chest box is placed below the chin, sized
relative to the ear-to-ear face width by three geometry constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

from .config import MIN_ROI_SIDE, RoiGeometryConfig
from .ingest import VideoMeta, read_step_hold, step_hold, write_step_hold

LANDMARK_HEADER = ["frame", "chin_x", "chin_y", "lear_x", "lear_y", "rear_x", "rear_y"]


@dataclass(frozen=True)
class LandmarkSet:
    chin: tuple[float, float]
    left_ear: tuple[float, float]
    right_ear: tuple[float, float]

    def __post_init__(self):
        for x, y in (self.chin, self.left_ear, self.right_ear):
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError("landmark coordinates must be finite")


@dataclass(frozen=True)
class RoiRect:
    """Pixel rectangle, top-left origin."""

    x: int
    y: int
    w: int
    h: int

    def clamped(self, meta: VideoMeta) -> "RoiRect":
        x0 = max(self.x, 0)
        y0 = max(self.y, 0)
        x1 = min(self.x + self.w, meta.width)
        y1 = min(self.y + self.h, meta.height)
        if x1 - x0 < MIN_ROI_SIDE or y1 - y0 < MIN_ROI_SIDE:
            raise ValueError(
                f"ROI smaller than {MIN_ROI_SIDE}x{MIN_ROI_SIDE} after clamping to frame"
            )
        return RoiRect(x0, y0, x1 - x0, y1 - y0)

    def crop(self, plane):
        return plane[self.y : self.y + self.h, self.x : self.x + self.w]


def _pixel(v: float, size: int) -> int:  # NaN (from inf - inf) lands on 0
    return int(math.floor(min(max(0, v), size) + 0.5))


def roi_span(lm: LandmarkSet, geometry: RoiGeometryConfig) -> tuple[float, float, float, float]:
    """Un-clamped, un-rounded chest box as (x0, y0, x1, y1)."""
    wf = abs(lm.right_ear[0] - lm.left_ear[0])
    if wf == 0:
        raise ValueError("degenerate landmarks: ears share the same x coordinate")
    mid_x = (lm.left_ear[0] + lm.right_ear[0]) / 2.0
    x0 = mid_x - geometry.k_w * wf
    x1 = mid_x + geometry.k_w * wf
    y0 = lm.chin[1] + geometry.k_top * wf
    y1 = y0 + geometry.k_h * wf
    return x0, y0, x1, y1


def roi_from_landmarks(
    lm: LandmarkSet, meta: VideoMeta, geometry: RoiGeometryConfig | None = None
) -> RoiRect:
    """Chest rectangle from landmarks: clamp to the frame, round half up, then check the size."""
    geometry = geometry or RoiGeometryConfig()
    x0, y0, x1, y1 = roi_span(lm, geometry)
    xi0, yi0 = _pixel(x0, meta.width), _pixel(y0, meta.height)
    xi1, yi1 = _pixel(x1, meta.width), _pixel(y1, meta.height)
    return RoiRect(xi0, yi0, xi1 - xi0, yi1 - yi0).clamped(meta)


def _landmark_row(fields: list[str]) -> tuple[int, LandmarkSet]:
    frame = int(fields[0])
    cx, cy, lx, ly, rx, ry = map(float, fields[1:])  # a wrong field count raises
    return frame, LandmarkSet((cx, cy), (lx, ly), (rx, ry))  # so does a non-finite value


def load_landmark_track(path) -> Callable[[int], LandmarkSet]:
    """Read a landmark CSV (header: LANDMARK_HEADER) into a frame index -> LandmarkSet step_hold."""
    return step_hold(read_step_hold(path, "landmark", LANDMARK_HEADER, _landmark_row), "landmarks")


def write_landmark_track(path, rows: Iterable[tuple[int, LandmarkSet]]) -> None:
    """Write the (frame, LandmarkSet) rows that load_landmark_track reads back."""
    write_step_hold(path, LANDMARK_HEADER,
                    ([frame, *lm.chin, *lm.left_ear, *lm.right_ear] for frame, lm in rows))
