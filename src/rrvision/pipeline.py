"""Streaming pipeline: frames in, one RR prediction per step out.

Per frame: crop the ROI, take the uint8 crop's masked row means, resample
them and push the profile into the window. The window's MotionBuffer owns the
frame schedule; when it says the next column starts an epoch, the ROI is
re-estimated first, and the crop's mask and row plan are built: the dilated
Canny edges of the grayscale crop in edges mode, every pixel in full_roi
mode. Only those epoch starts convert a crop to grayscale.
Whenever the window emits a snapshot the breathing analysis runs on it and a
prediction is yielded. When the caller passes a StageTimings, wall time is
recorded per frame and per window so the CLI can report and tests can assert
the real-time contract: every whole frame, from its read to its push and epoch
starts included, must fit within a frame period, and one window analysis
within a step. Time the consumer spends between predictions counts in neither.
Without one, the loop reads no clock.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from .breathing import RRPrediction, analyze_window
from .config import RunConfig
from .edges import CannyScratch, canny, dilate
from .ingest import open_source, to_grayscale
from .profile import extract_profile, plan_rows
from .roi import RoiRect, load_landmark_track, roi_from_landmarks
from .window import MotionBuffer


@dataclass
class StageTimings:
    """Wall times in seconds, 8 bytes each: one per whole frame, one per window analysis."""

    analysis: array = field(default_factory=lambda: array("d"))
    frame_total: array = field(default_factory=lambda: array("d"))

    @staticmethod
    def _stats(samples: array) -> dict:
        if not samples:
            return {"n": 0, "p50_ms": None, "p99_ms": None, "max_ms": None}
        arr = np.asarray(samples) * 1000.0
        return {
            "n": len(samples),
            "p50_ms": float(np.percentile(arr, 50)),
            "p99_ms": float(np.percentile(arr, 99)),
            "max_ms": float(arr.max()),
        }

    def summary(self) -> dict:
        return {
            "window_analysis": self._stats(self.analysis),
            "frame_total": self._stats(self.frame_total),
        }


def run_stream(
    video_path,
    cfg: RunConfig,
    landmarks_path=None,
    fixed_roi: Optional[tuple[int, int, int, int]] = None,
    timings: Optional[StageTimings] = None,
) -> Iterator[RRPrediction]:
    """Run the full pipeline over a recording, yielding predictions in order.

    The ROI comes from exactly one input: fixed_roi, a rectangle (x, y, w, h), or
    the landmark CSV (with a record at or before frame 0).
    """
    cfg.validate()
    meta, frames = open_source(video_path)

    if (fixed_roi is None) == (landmarks_path is None):
        both = ", not both" if fixed_roi is not None else ""
        raise ValueError(f"need fixed_roi or a landmark file{both}")
    landmarks_at = load_landmark_track(landmarks_path) if fixed_roi is None else None

    buffer = MotionBuffer(cfg.canonical_len, meta.fps, cfg.schedule)
    scratch = CannyScratch()  # Canny's planes, reused at every epoch start

    while True:
        if timings is not None:
            t_start = time.perf_counter()  # before the read, after the consumer
        frame = next(frames, None)
        if frame is None:
            return
        epoch_start = buffer.epoch_start
        if epoch_start:
            if fixed_roi is not None:
                roi_rect = RoiRect(*fixed_roi).clamped(meta)
            else:
                roi_rect = roi_from_landmarks(landmarks_at(frame.index), meta, cfg.geometry)
        pixels = roi_rect.crop(frame.data)
        if epoch_start:
            if cfg.profile_mode == "edges":
                mask = dilate(canny(to_grayscale(pixels), cfg.canny, scratch),
                              cfg.canny.dilation_radius)
            else:
                mask = np.ones(pixels.shape[:2], dtype=bool)
            plan = plan_rows(mask, cfg.canonical_len, meta.channels)

        event = buffer.push_profile(extract_profile(pixels, plan))
        if timings is not None:
            t_push = time.perf_counter()
            timings.frame_total.append(t_push - t_start)

        if event is not None:
            prediction = analyze_window(event, cfg.breathing)
            if timings is not None:
                timings.analysis.append(time.perf_counter() - t_push)
            yield prediction


def run_recording(video_path, cfg: RunConfig, landmarks_path=None,
                  fixed_roi=None) -> list[RRPrediction]:
    """Collect all predictions for a recording."""
    return list(run_stream(video_path, cfg, landmarks_path=landmarks_path, fixed_roi=fixed_roi))
