"""Collapse a grayscale ROI into a canonical-length 1D profile.

Each frame's ROI becomes a column vector of per-row mean intensities over
the pixels of the epoch's mask: the dilated edges in edges mode, every pixel
in full_roi mode. Rows whose mask is empty carry no measurement of their
own; they are filled by linear interpolation between the nearest valid rows
(constant extension at the ends) so the profile stays dense. Raw profiles
have ROI-height length and are resampled to a fixed canonical length so the
motion matrix stays rectangular when the ROI size changes between
re-estimation epochs.

The mask only changes at epoch starts, so everything that depends on it
alone is worked out once per epoch, in a RowPlan. A profile is a plain
float64 array; which epoch it belongs to is the motion buffer's business.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RowPlan:
    """What one epoch's mask fixes for every frame of the epoch."""

    weights: np.ndarray  # float64 (h, w): 1.0 on mask pixels, else 0.0
    valid_rows: np.ndarray  # indices of the rows with at least one mask pixel
    counts: np.ndarray  # mask pixels in each valid row
    rows: np.ndarray  # 0..h-1 as float64, the raw profile's sample positions
    positions: np.ndarray  # the canonical samples' positions on the same axis


def plan_rows(mask: np.ndarray, canonical_len: int) -> RowPlan:
    """The row plan of an epoch whose profiles average over `mask`."""
    h = mask.shape[0]
    if h < 2 or canonical_len < 2:
        raise ValueError("resampling needs at least 2 samples on both sides")
    counts = mask.sum(axis=1)
    valid_rows = np.flatnonzero(counts)
    if len(valid_rows) == 0:
        raise ValueError("no edge pixels in ROI")
    return RowPlan(
        weights=mask.astype(np.float64),
        valid_rows=valid_rows,
        counts=counts[valid_rows],
        rows=np.arange(h, dtype=np.float64),
        positions=np.arange(canonical_len, dtype=np.float64) * (h - 1) / (canonical_len - 1),
    )


def extract_profile(gray_roi: np.ndarray, plan: RowPlan) -> np.ndarray:
    """One frame's masked row means, filled and resampled to the canonical length.

    Overwrites `gray_roi`, a float64 array the caller owns: multiplying it
    in place by the 0/1 weights keeps or zeroes each pixel exactly, and the
    row sums then add the same values in the same order as on a copy.
    Interpolating at a sample position returns that sample exactly, so the
    fill leaves valid rows untouched and resampling to the ROI height is the
    identity.
    """
    sums = np.multiply(gray_roi, plan.weights, out=gray_roi).sum(axis=1)
    raw = np.interp(plan.rows, plan.valid_rows, sums[plan.valid_rows] / plan.counts)
    return np.interp(plan.positions, plan.rows, raw)
