"""Streaming pipeline: frames in, one RR prediction per step out.

Per frame: crop the ROI, take the uint8 crop's masked row means, resample
them and push the profile into the window. The window's MotionBuffer owns the
frame schedule and counts the frames: when it says the next column starts an
epoch, one statement looks the ROI up at its column count and builds the
crop's mask and row plan. Two choices are made once per stream, before the
first frame: the ROI lookup (landmarks or a fixed rectangle) and the mask
rule (the dilated Canny edges of the uint8 crop in edges mode, every pixel in
full_roi mode). Canny makes the crop's grayscale plane itself, so only
edges-mode epoch starts convert a crop to grayscale.
Whenever the window emits a snapshot the breathing analysis runs on it and a
prediction is yielded. Canny at epoch starts and the analysis at window ends
work in the stream's one Scratch, and neither returns a view into it.
When the caller passes a StageTimings, wall time is recorded per frame and
per window so the CLI can report and tests can assert the real-time contract:
every whole frame, from its read to its push and epoch starts included, must
fit within a frame period, and one window analysis within a step. Time the
consumer spends between predictions counts in neither. Without one, the loop
reads no clock.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from .breathing import RRPrediction, analyze_window
from .config import RunConfig
from .edges import canny, dilate
from .ingest import open_source
from .profile import extract_profile, plan_rows
from .roi import RoiRect, load_landmark_track, roi_from_landmarks
from .window import MotionBuffer, Scratch


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
    # the ROI lookup, chosen once: frame index -> rectangle; a fixed one is clamped once
    if fixed_roi is None:
        landmarks_at = load_landmark_track(landmarks_path)
        roi_at = lambda i: roi_from_landmarks(landmarks_at(i), meta, cfg.geometry)
    else:
        fixed_rect = RoiRect(*fixed_roi).clamped(meta)
        roi_at = lambda i: fixed_rect

    scratch = Scratch()  # the stream's working memory: Canny's at epoch starts, else the analysis's
    # the mask rule, chosen once: crop -> mask
    if cfg.profile_mode == "edges":
        mask_of = lambda crop: dilate(canny(crop, cfg.canny, scratch), cfg.canny.dilation_radius)
    else:
        mask_of = lambda crop: np.ones(crop.shape[:2], dtype=bool)

    buffer = MotionBuffer(cfg.canonical_len, meta.fps, cfg.schedule, scratch)

    while True:
        if timings is not None:
            t_start = time.perf_counter()  # before the read, after the consumer
        frame = next(frames, None)
        if frame is None:
            return
        if buffer.epoch_start:  # the buffer's column count is this frame's index
            roi_rect = roi_at(buffer.count)
            plan = plan_rows(mask_of(roi_rect.crop(frame)), cfg.canonical_len, meta.channels)
        pixels = roi_rect.crop(frame)

        event = buffer.push_profile(extract_profile(pixels, plan))
        if timings is not None:
            t_push = time.perf_counter()
            timings.frame_total.append(t_push - t_start)

        if event is not None:
            prediction = analyze_window(event, cfg.breathing, scratch)
            if timings is not None:
                timings.analysis.append(time.perf_counter() - t_push)
            yield prediction


def run_recording(video_path, cfg: RunConfig, landmarks_path=None,
                  fixed_roi=None) -> list[RRPrediction]:
    """Collect all predictions for a recording."""
    return list(run_stream(video_path, cfg, landmarks_path=landmarks_path, fixed_roi=fixed_roi))
