"""Sliding motion-signal matrix: ring buffer, step schedule, epoch stitching.

Profiles arrive once per frame and become columns of an LxN matrix (N =
window seconds x fps). Once the buffer is warm, a snapshot is emitted every
step. ROI re-estimation starts a new epoch; because the ROI (and edge mask)
may change, profile levels can jump at the boundary, so each new epoch is
shifted per row to continue exactly where the previous epoch ended.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import ScheduleConfig
from .profile import Profile1D


@dataclass
class MotionWindow:
    """Immutable snapshot of the last N profile columns (oldest to newest)."""

    matrix: np.ndarray  # (L, N) float64
    fs: float
    end_frame: int

    @property
    def end_time_s(self) -> float:
        return (self.end_frame + 1) / self.fs


def schedule_reestimation(frame_index: int, fps: float, reest_s: float) -> bool:
    """True exactly at epoch starts: frame 0 and every reest_s thereafter."""
    period = int(round(reest_s * fps))
    if period < 1:
        raise ValueError("re-estimation period too short for this frame rate")
    return frame_index % period == 0


def stitch_epoch_boundary(prev_last: np.ndarray, new_first: np.ndarray) -> np.ndarray:
    """Per-row offsets that make the new epoch continue the old one.

    Subtracting the returned offsets from every column of the new epoch
    makes its first column equal the previous epoch's last column.
    """
    if prev_last.shape != new_first.shape:
        raise ValueError("column length changed across epoch boundary")
    return new_first - prev_last


class MotionBuffer:
    """Single-writer sliding buffer over stitched profile columns."""

    def __init__(self, n_rows: int, fps: float, schedule: ScheduleConfig | None = None):
        self.schedule = schedule or ScheduleConfig()
        self.schedule.validate()
        self.fs = float(fps)
        self.n_rows = n_rows
        self.n_cols = int(round(self.schedule.window_s * fps))
        self.step_frames = int(round(self.schedule.step_s * fps))
        if self.n_cols < 2 or self.step_frames < 1:
            raise ValueError("window/step too small for this frame rate")
        self._ring = np.zeros((n_rows, self.n_cols), dtype=np.float64)
        self._head = 0  # next write position
        self._count = 0  # total columns pushed
        self._offset = np.zeros(n_rows, dtype=np.float64)
        self._epoch: Optional[int] = None
        self._last_column: Optional[np.ndarray] = None

    def push_profile(self, p: Profile1D, frame_index: int | None = None) -> Optional[MotionWindow]:
        """Append one column; returns a window snapshot on step boundaries.

        Emits nothing until n_cols columns have accumulated (warm-up), then
        one snapshot every step_frames columns.
        """
        if frame_index is not None and frame_index != self._count:
            raise ValueError(f"out-of-order profile: expected frame {self._count}, got {frame_index}")
        if len(p.values) != self.n_rows:
            raise ValueError("profile length does not match buffer rows")
        if self._epoch is not None and p.epoch < self._epoch:
            raise ValueError("out-of-order profile: epoch went backwards")

        raw = np.asarray(p.values, dtype=np.float64)
        if self._epoch is not None and p.epoch != self._epoch and self._last_column is not None:
            self._offset = self._offset + stitch_epoch_boundary(
                self._last_column, raw - self._offset
            )
        self._epoch = p.epoch

        column = raw - self._offset
        self._ring[:, self._head] = column
        self._head = (self._head + 1) % self.n_cols
        self._count += 1
        self._last_column = column

        if self._count >= self.n_cols and (self._count - self.n_cols) % self.step_frames == 0:
            return self.snapshot()
        return None

    def snapshot(self) -> MotionWindow:
        if self._count < self.n_cols:
            raise ValueError("buffer not warm yet")
        ordered = np.concatenate(
            (self._ring[:, self._head :], self._ring[:, : self._head]), axis=1
        )
        return MotionWindow(matrix=ordered, fs=self.fs, end_frame=self._count - 1)
