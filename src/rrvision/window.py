"""Sliding motion-signal matrix: ring buffer, frame schedule, epoch stitching.

Profiles arrive once per frame and become columns of an LxN matrix held in
a ring: column i sits at i % N, so the count of columns pushed is the only
position kept. The buffer owns the frame schedule: it turns the window, step
and re-estimation seconds into frame counts. Once warm, it emits a snapshot
every step. Each new epoch re-estimates the ROI (and edge mask), so profile
levels can jump at the boundary; the buffer shifts the new epoch per row to
continue exactly where the previous epoch ended.

A stream's working memory is one grow-only Scratch, shared by Canny and the
window analysis; a buffer given it sizes it for its windows before frame 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ScheduleConfig, samples


# float64 planes of a window's (L, N) shape that the window analysis requests
ANALYSIS_PLANES = 2


class Scratch:
    """Grow-only float64 working memory, lent to one caller at a time."""

    def __init__(self) -> None:
        self._flat = np.empty(0)

    def request(self, *shape: int) -> np.ndarray:
        """A view of the first values: the buffer holds the largest request, not their sum."""
        size = math.prod(shape)
        if self._flat.size < size:
            self._flat = np.empty(0)  # freed before the longer one is allocated
            self._flat = np.empty(size)
        return self._flat[:size].reshape(shape)


@dataclass
class MotionWindow:
    """Immutable snapshot of the last N profile columns (oldest to newest)."""

    matrix: np.ndarray  # (L, N) float64
    fs: float
    end_frame: int

    @property
    def end_time_s(self) -> float:
        return (self.end_frame + 1) / self.fs


class MotionBuffer:
    """Single-writer sliding buffer over stitched profile columns."""

    def __init__(self, n_rows: int, fps: float, schedule: ScheduleConfig | None = None,
                 scratch: Scratch | None = None):
        schedule = schedule or ScheduleConfig()
        schedule.validate()
        self.fs = float(fps)
        self.n_rows = n_rows
        self.n_cols = samples(schedule.window_s, fps, "window_s")
        self.step_frames = samples(schedule.step_s, fps, "step_s")
        self.epoch_frames = samples(schedule.reest_s, fps, "reest_s")
        if self.n_cols < 2 or self.step_frames < 1:
            raise ValueError("window/step too small for this frame rate")
        if self.epoch_frames < 1:
            raise ValueError("re-estimation period too short for this frame rate")
        try:
            self._ring = np.zeros((n_rows, self.n_cols), dtype=np.float64)
            if scratch is not None:  # sized for the analysis of the windows
                scratch.request(ANALYSIS_PLANES, n_rows, self.n_cols)
        except (ValueError, MemoryError):  # numpy's messages name no setting
            raise ValueError(f"a window of canonical_len {n_rows} rows by window_s "
                             f"{schedule.window_s} s at {fps}/s is too large to allocate") from None
        self._count = 0  # total columns pushed; column i sits at i % n_cols
        self._offset = np.zeros(n_rows, dtype=np.float64)

    @property
    def count(self) -> int:
        """Columns pushed so far: the index of the frame whose column comes next."""
        return self._count

    @property
    def epoch_start(self) -> bool:
        """True when the next column opens an epoch: column 0 and every epoch_frames after."""
        return self._count % self.epoch_frames == 0

    def push_profile(self, values: np.ndarray) -> MotionWindow | None:
        """Append one column; returns a window snapshot on step boundaries.

        A column that opens an epoch other than the first is stitched: the
        per-row offset moves so that it equals the previous column. Emits
        nothing until n_cols columns have accumulated (warm-up), then one
        snapshot every step_frames columns.
        """
        if len(values) != self.n_rows:
            raise ValueError("profile length does not match buffer rows")

        if self._count > 0 and self.epoch_start:
            # this order of operations fixes the output bits; values - last rounds differently
            last = self._ring[:, (self._count - 1) % self.n_cols]
            self._offset = self._offset + ((values - self._offset) - last)

        self._ring[:, self._count % self.n_cols] = values - self._offset
        self._count += 1

        if self._count >= self.n_cols and (self._count - self.n_cols) % self.step_frames == 0:
            return self.snapshot()
        return None

    def snapshot(self) -> MotionWindow:
        if self._count < self.n_cols:
            raise ValueError("buffer not warm yet")
        oldest = self._count % self.n_cols
        ordered = np.concatenate((self._ring[:, oldest:], self._ring[:, :oldest]), axis=1)
        return MotionWindow(matrix=ordered, fs=self.fs, end_frame=self._count - 1)
