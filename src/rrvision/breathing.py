"""Window analysis: signal selection, grouping, peak detection, RR prediction.

A motion window holds one intensity time series per profile row. The rows
that move the most are the interesting ones, but the very top of the
std-deviation ranking is often subject motion rather than breathing, so the
top 30% of rows are split in rank order into six equal groups and each group
is averaged into a candidate respiratory wave. Every wave is smoothed,
peak-picked and converted to an instantaneous-RR series; the group whose RR
series is steadiest wins, and its mean is the prediction for the window.

Peak picking is array code per wave: each local maximum's prominence comes
from the nearest strictly higher sample on either side and the minimum
between them, and the survivors are thinned tallest first in one pass over a
mask of blocked samples. The prominence is taken over the wave's maxima and
the valleys between consecutive ones: a (maxima x maxima) comparison finds
each maximum's nearest higher maximum on either side, and the valleys from
there to the peak hold its bracketing minimum. The result is the same as
over every sample, because every sample from the nearest higher maximum to
the nearest higher sample lies above the peak. The prediction keeps every
group's RR series, so a configuration with fewer groups of the same size can
be decided from the first of them.

The selection writes its (rows x N) working arrays into two float64 planes of
the window's shape, requested from a Scratch: a stream passes its own, which
Canny shares between windows, so its windows fault in no fresh heap pages."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .config import BreathingConfig, samples
from .window import MotionWindow, Scratch

# rows whose detrended std falls below this are considered flat (intensity units)
FLAT_STD = 1e-9


@dataclass
class RRSeries:
    peak_indices: np.ndarray  # ascending sample indices
    inst_rr: np.ndarray  # BPM per consecutive peak pair, band-filtered


@dataclass
class RRPrediction:
    """One window's prediction; it is valid exactly when it has a rate (rr_bpm is not None)."""

    t: float  # window end time, seconds
    rr_bpm: Optional[float]
    group_index: Optional[int]  # 1-based; 1 = highest-std group
    n_peaks: int
    # every group's RR series in rank order; the winner is one of them
    series: list[RRSeries] = field(default_factory=list, repr=False, compare=False)

    @property
    def valid(self) -> bool:
        return self.rr_bpm is not None


def detrend(signal: np.ndarray, planes: Optional[np.ndarray] = None) -> np.ndarray:
    """Subtract the least-squares line along the last axis; zero mean and zero trend remain.

    With planes, two float64 planes of the signal's shape (a (2, ...) array),
    the centred copy is written into the first and the result into the second,
    which is returned; without, both are fresh arrays. The bits are the same.
    """
    y = np.asarray(signal, dtype=np.float64)
    n = y.shape[-1]
    if n < 2:
        raise ValueError("detrend needs at least 2 samples")
    y_c, out = (None, None) if planes is None else planes
    t_c = np.arange(n, dtype=np.float64) - (n - 1) / 2  # (n - 1) / 2 is the exact mean
    y_c = np.subtract(y, y.mean(axis=-1, keepdims=True), out=y_c)
    out = np.multiply(y_c, t_c, out=out)  # y_c * t_c, then the line, then the result
    slope = out.sum(axis=-1) / (t_c * t_c).sum()
    return np.subtract(y_c, np.multiply(np.expand_dims(slope, -1), t_c, out=out), out=out)


def _row_std(x: np.ndarray, work: Optional[np.ndarray]) -> np.ndarray:
    """x.std(axis=1), bit for bit, with the deviations from the mean written into work.

    np.std always allocates the deviations, so its own steps are spelled out:
    sum, divide, subtract, square, sum, divide, sqrt. A work of None allocates.
    """
    n = x.shape[1]
    mean = np.add.reduce(x, axis=1, keepdims=True)
    np.true_divide(mean, n, out=mean)
    dev = np.subtract(x, mean, out=work)
    np.square(dev, out=dev)
    var = np.add.reduce(dev, axis=1)
    np.true_divide(var, n, out=var)
    return np.sqrt(var, out=var)


def select_and_group(window: MotionWindow, cfg: BreathingConfig,
                     scratch: Scratch | None = None) -> np.ndarray:
    """Detrend rows, rank by std, keep the top fraction, split into groups.

    Returns a (G, group_size, N) array in rank order (group 0 holds the
    highest-std signals), sized by cfg.groups. Ranking ties break toward the
    lower row index. Leftover selected rows beyond G*group_size are dropped.
    An all-flat window yields G = 0.

    The work is done in two (L, N) planes of `scratch`, or of a throwaway one:
    the centred rows, the std's deviations and then the grouped rows go into the
    first, the detrended rows into the second. The result is a view into the
    first, valid until the scratch's next request.
    """
    n_rows, n_cols = window.matrix.shape
    group_size, n_groups = cfg.groups(n_rows)
    planes = (scratch or Scratch()).request(2, n_rows, n_cols)
    detrended = detrend(window.matrix, planes)
    stds = _row_std(detrended, planes[0])
    if np.all(stds <= FLAT_STD):
        n_groups = 0
    order = np.argsort(-stds, kind="stable")[: n_groups * group_size]
    # mode="clip" since the indices are in range, and "raise" would copy through a temporary
    grouped = np.take(detrended, order, axis=0, out=planes[0][: len(order)], mode="clip")
    return grouped.reshape(n_groups, group_size, n_cols)


def group_to_wave(group: np.ndarray) -> np.ndarray:
    """Element-wise mean of a group's signals (axis -2); stacks give one wave per group."""
    if group.shape[-2] == 0:
        raise ValueError("empty signal group")
    return group.sum(axis=-2) / group.shape[-2]


def smooth(wave: np.ndarray, fs: float, cfg: BreathingConfig) -> np.ndarray:
    """Centered moving average along the last axis, window rounded to an odd sample count.

    Truncated at the boundaries and renormalized by the number of samples
    actually present.
    """
    k = samples(cfg.smooth_s, fs, "smooth_s")
    if k % 2 == 0:
        k += 1
    if k <= 1:
        return np.asarray(wave, dtype=np.float64).copy()
    n = wave.shape[-1]
    half = min(k // 2, n)  # a half-width of n already spans the whole wave from every sample
    csum = np.zeros(wave.shape[:-1] + (n + 1,))
    np.cumsum(wave, axis=-1, out=csum[..., 1:])
    lo = np.maximum(np.arange(n) - half, 0)
    hi = np.minimum(np.arange(n) + half + 1, n)
    return (csum[..., hi] - csum[..., lo]) / (hi - lo)


def _prominence(wave: np.ndarray, peaks: np.ndarray) -> np.ndarray:
    """Topographic prominence of each peak: drop to the higher of the two bracketing minima.

    On each side the stretch runs up to the nearest sample strictly above the
    peak (or the array border); its minimum includes the peak itself.

    ``peaks`` must hold every local maximum of ``wave`` in ascending order, as
    detect_peaks passes them. They cut the wave into k+1 segments: before the
    first maximum, from each maximum up to the next, and from the last one to
    the end. On each side, the segments between a peak and its nearest
    strictly higher maximum (or the border) give the stretch's minimum once it
    is capped at the peak's height. The result is exact. Let j be the nearest
    sample above the peak on one side, and q the nearest maximum above it
    there, or the border sample when there is none. If a sample s between q
    and j were at or below the peak, the leftmost highest sample between s and
    the peak would be a local maximum above the peak, nearer to it than q. So
    every sample from q to j lies above the peak: the segments cover the
    stretch, and the samples they add beyond it cannot lower the capped
    minimum. With no j on a side, the segments cover the stretch exactly.
    """
    k = len(peaks)
    if k == 0:
        return np.empty(0)
    height = wave[peaks]
    seg = np.minimum.reduceat(wave, np.concatenate(([0], peaks)))
    higher = height > height[:, None]  # row i, column j: maximum j is strictly above maximum i
    left_of = np.tri(k, dtype=bool)  # j <= i; the diagonal is never higher
    rows = np.arange(k)
    on_left, on_right = higher & left_of, higher > left_of  # > on booleans: and not
    left = k - 1 - on_left[:, ::-1].argmax(axis=1)
    left = np.where(on_left[rows, left], left, -1)
    right = on_right.argmax(axis=1)
    right = np.where(on_right[rows, right], right, k)
    # segments [left+1, i+1) and [i+1, right+1) as every other reduceat range;
    # the appended inf makes right+1 = k+1 a valid start
    bounds = np.stack([left + 1, rows + 1, rows + 1, right + 1], axis=1).ravel()
    sides = np.minimum.reduceat(np.append(seg, np.inf), bounds)[::2].reshape(k, 2)
    return height - np.minimum(sides.max(axis=1), height)


def detect_peaks(wave: np.ndarray, fs: float, cfg: BreathingConfig) -> np.ndarray:
    """Peak indices: local maxima with enough prominence, spaced apart.

    A local maximum satisfies wave[i] > wave[i-1] and wave[i] >= wave[i+1]
    (the leftmost sample of a plateau). Peaks need prominence of at least
    prominence_factor * std(wave), and peaks closer than fs*60/rr_max samples
    are thinned greedily by descending height, keeping the taller one.
    """
    w = np.asarray(wave, dtype=np.float64)
    n = len(w)
    if n < 3:
        return np.empty(0, dtype=np.int64)
    candidates = np.nonzero((w[1:-1] > w[:-2]) & (w[1:-1] >= w[2:]))[0] + 1
    # every prominence is >= 0, so a wave whose std is 0 keeps every candidate
    candidates = candidates[_prominence(w, candidates) >= cfg.prominence_factor * w.std()]

    # greedy, tallest first with ties to the lower index: a peak is kept unless a kept one lies
    # within reach, closer than min_dist = fs*60/rr_max (capped at n: n - 1 blocks every sample)
    reach = math.ceil(min(fs * 60.0 / cfg.rr_max, n)) - 1
    blocked = np.zeros(n, dtype=bool)
    kept = np.zeros(len(candidates), dtype=bool)
    for k in np.argsort(-w[candidates], kind="stable"):
        i = candidates[k]
        if not blocked[i]:
            kept[k] = True
            blocked[max(i - reach, 0) : i + reach + 1] = True
    return candidates[kept].astype(np.int64)


def instantaneous_rr(peak_indices: np.ndarray, fs: float, cfg: BreathingConfig) -> RRSeries:
    """BPM value per consecutive peak pair, keeping only the plausible band."""
    peaks = np.asarray(peak_indices, dtype=np.int64)
    ibis = np.diff(peaks) / fs  # seconds per breath
    rr = 60.0 * cfg.cycles_per_peak / ibis
    rr = rr[(rr >= cfg.rr_min) & (rr <= cfg.rr_max)]
    return RRSeries(peak_indices=peaks, inst_rr=rr)


def best_group(series_per_group: list[RRSeries], cfg: BreathingConfig) -> Optional[int]:
    """0-based index of the eligible group with the steadiest RR series.

    Eligible means at least min_peaks peaks and at least 2 retained RR
    values (so the std is meaningful). Ties break toward the lower index.
    Returns None when no group qualifies.
    """
    eligible = [i for i, s in enumerate(series_per_group)
                if len(s.peak_indices) >= cfg.min_peaks and len(s.inst_rr) >= 2]
    return min(eligible, key=lambda i: float(np.std(series_per_group[i].inst_rr)), default=None)


def predict(series: list[RRSeries], t: float, cfg: BreathingConfig) -> RRPrediction:
    """The steadiest eligible group's mean RR; invalid when no group qualifies."""
    win = best_group(series, cfg)
    if win is None:
        return RRPrediction(t=t, rr_bpm=None, group_index=None, n_peaks=0, series=series)
    return RRPrediction(
        t=t,
        rr_bpm=float(series[win].inst_rr.mean()),
        group_index=win + 1,
        n_peaks=int(len(series[win].peak_indices)),
        series=series,
    )


def analyze_window(window: MotionWindow, cfg: BreathingConfig,
                   scratch: Scratch | None = None) -> RRPrediction:
    """Full per-window analysis, worked in `scratch`; invalid when no group qualifies."""
    fs = window.fs
    waves = smooth(group_to_wave(select_and_group(window, cfg, scratch)), fs, cfg)
    series = [instantaneous_rr(detect_peaks(wave, fs, cfg), fs, cfg) for wave in waves]
    return predict(series, window.end_time_s, cfg)
