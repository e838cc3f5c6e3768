"""Collapse a uint8 ROI crop into a canonical-length 1D profile.

Each frame's ROI becomes a column vector of per-row mean intensities over
the pixels of the epoch's mask: the dilated edges in edges mode, every pixel
in full_roi mode. An RGB pixel's intensity is the mean of its three
channels, so a row's value is the mean of all its masked samples. Rows whose
mask is empty carry no measurement of their own; they are filled by linear
interpolation between the nearest valid rows (constant extension at the
ends) so the profile stays dense. Raw profiles have ROI-height length and
are resampled to a fixed canonical length so the motion matrix stays
rectangular when the ROI size changes between re-estimation epochs.

The mask only changes at epoch starts, so everything that depends on it
alone is worked out once per epoch, in a RowPlan. That includes whether the
mask is full, as in full_roi mode: then the crop's rows are summed as they
are, and with every row valid the fill is skipped, with the same bytes. A
profile is a plain float64 array; which epoch it belongs to is the motion
buffer's business.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RowPlan:
    """What one epoch's mask fixes for every frame of the epoch."""

    shape: tuple  # the crops' shape: (h, w) for GRAY8, (h, w, channels) otherwise
    mask: np.ndarray  # uint8 (h, w * channels): 1 on the samples of mask pixels, else 0
    full: bool  # every pixel is a mask pixel: rows are summed as they are
    valid_rows: np.ndarray  # indices of the rows with at least one mask pixel
    divisors: np.ndarray  # masked samples in each valid row: channels x mask pixels
    rows: np.ndarray  # 0..h-1 as float64, the raw profile's sample positions
    positions: np.ndarray  # the canonical samples' positions on the same axis


def plan_rows(mask: np.ndarray, canonical_len: int, channels: int = 1) -> RowPlan:
    """The row plan of an epoch whose profiles average over `mask`."""
    h, w = mask.shape
    if h < 2 or canonical_len < 2:
        raise ValueError("resampling needs at least 2 samples on both sides")
    counts = mask.sum(axis=1)
    valid_rows = np.flatnonzero(counts)
    if len(valid_rows) == 0:
        raise ValueError("no edge pixels in ROI")
    return RowPlan(
        shape=(h, w) if channels == 1 else (h, w, channels),
        mask=np.repeat(np.asarray(mask, dtype=bool).view(np.uint8), channels, axis=1),
        full=bool((counts == w).all()),
        valid_rows=valid_rows,
        divisors=channels * counts[valid_rows],
        rows=np.arange(h, dtype=np.float64),
        positions=np.arange(canonical_len, dtype=np.float64) * (h - 1) / (canonical_len - 1),
    )


def extract_profile(pixels: np.ndarray, plan: RowPlan) -> np.ndarray:
    """One frame's masked row means, filled and resampled to the canonical length.

    `pixels` is the frame's uint8 crop, shaped as the plan says; it is only
    read. Zeroing the samples outside the mask (a full mask has none) and
    summing each row in uint32 gives the exact integer sum in any order, and
    one division by the row's sample count then gives the exact mean,
    correctly rounded.
    """
    if pixels.dtype != np.uint8:
        raise ValueError(f"pixels must be uint8, not {pixels.dtype}")
    if pixels.shape != plan.shape:
        raise ValueError(f"pixels of shape {pixels.shape} do not fit a plan for {plan.shape}")
    rows = pixels.reshape(plan.mask.shape)
    sums = (rows if plan.full else np.multiply(rows, plan.mask)).sum(axis=1, dtype=np.uint32)
    return fill_and_resample(sums[plan.valid_rows] / plan.divisors, plan)


def fill_and_resample(means: np.ndarray, plan: RowPlan) -> np.ndarray:
    """The valid rows' means, filled over the empty rows and resampled.

    Interpolating at a sample position returns that sample exactly, so the
    fill leaves valid rows untouched, and is skipped when every row is valid,
    and resampling to the ROI height is the identity.
    """
    every_row = len(plan.valid_rows) == len(plan.rows)
    raw = means if every_row else np.interp(plan.rows, plan.valid_rows, means)
    return np.interp(plan.positions, plan.rows, raw)
