"""Window analysis: signal selection, grouping, peak detection, RR prediction.

A motion window holds one intensity time series per profile row. The rows
that move the most are the interesting ones, but the very top of the
std-deviation ranking is often subject motion rather than breathing, so the
top 30% of rows are split in rank order into six equal groups and each group
is averaged into a candidate respiratory wave. Every wave is smoothed,
peak-picked and converted to an instantaneous-RR series; the group whose RR
series is steadiest wins, and its mean is the prediction for the window.

Peak picking is one pass over a window's whole (groups x N) stack of waves.
Each local maximum's prominence comes from the nearest strictly higher sample
on either side and the minimum between them. The stack is cut at every row
start and every maximum, and one reduceat takes each segment's minimum, its
valley. Two bounds from the valleys next to a maximum settle most maxima
exactly; the rest take the valleys from their nearest higher maximum on
either side, found for all rows at once by binary lifting. The result is the
same as over every sample, because every sample from the nearest higher
maximum to the nearest higher sample lies above the peak. The survivors are
thinned tallest first in one loop over a mask of blocked samples. The
prediction keeps every group's RR series, so a configuration with fewer
groups of the same size can be decided from the first of them.

Each stage takes the one form the analysis passes it: detect_peaks the whole
stack, returning one int64 array of peak indices per row, and detrend the
window's matrix with the two planes it writes into. The selection requests
those ANALYSIS_PLANES float64 planes of the window's shape from a Scratch: a
stream passes its own, which Canny shares between windows, so a warm window
allocates less than one such plane, as tracemalloc traces it."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .config import BreathingConfig, samples
from .window import ANALYSIS_PLANES, MotionWindow, Scratch

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


def detrend(signal: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """Subtract the least-squares line along the last axis; zero mean and zero trend remain.

    planes holds two float64 planes of the signal's shape (a (2, ...) array): the
    centred copy is written into the first and the result into the second, which is
    returned.
    """
    n = signal.shape[-1]
    if n < 2:
        raise ValueError("detrend needs at least 2 samples")
    y_c, out = planes
    t_c = np.arange(n, dtype=np.float64) - (n - 1) / 2  # (n - 1) / 2 is the exact mean
    np.subtract(signal, signal.mean(axis=-1, keepdims=True), out=y_c)
    np.multiply(y_c, t_c, out=out)  # y_c * t_c, then the line, then the result
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
    planes = (scratch or Scratch()).request(ANALYSIS_PLANES, n_rows, n_cols)
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


def _items(wave: np.ndarray, starts: np.ndarray, peaks: np.ndarray):
    """Cut rows laid end to end in ``wave`` at each row start and each local maximum.

    ``starts`` holds each row's first index and ``peaks`` every local maximum
    of every row, both ascending; a row's first sample is never a maximum.
    The cuts are the items, in order. Returns each maximum's item index, and
    for each item its height and its valley: the minimum of the segment from
    the item up to the next one (its row's end for a row's last item). A row
    start is an item of height +inf, and one more item of height and valley
    +inf follows the last, so each row is fenced by items above any sample.
    """
    bounds = np.sort(np.concatenate((starts, peaks)))
    item = np.searchsorted(bounds, peaks)
    heights = np.full(len(bounds) + 1, np.inf)
    heights[item] = wave[peaks]
    valleys = np.full(len(bounds) + 1, np.inf)
    np.minimum.reduceat(wave, bounds, out=valleys[:-1])
    return item, heights, valleys


def _item_prominence(heights: np.ndarray, valleys: np.ndarray, item: np.ndarray) -> np.ndarray:
    """Topographic prominence of the maxima at ``item``: drop to the higher bracketing minimum.

    On each side the stretch runs up to the nearest sample strictly above the
    peak (or its row's border); its minimum includes the peak itself.

    The items come from _items. On each side, the valleys from the nearest
    item strictly above the peak (a higher maximum, or the border's +inf item)
    up to the peak give the stretch's minimum once it is capped at the peak's
    height. The result is exact. Let j be the nearest sample above the peak
    on one side, and q the nearest maximum above it there, or the border
    sample when there is none. If a sample s between q and j were at or below
    the peak, the leftmost highest sample between s and the peak would be a
    local maximum above the peak, nearer to it than q. So every sample from q
    to j lies above the peak: the valleys cover the stretch, and the samples
    they add beyond it cannot lower the capped minimum. With no j on a side,
    the valleys cover the stretch exactly.

    The nearest higher items are found by binary lifting. Level j of a table
    holds the tallest height of every run of 2**j items, and each search
    widens its run of items at or below the peak by the largest steps that
    keep it so. The tables hold 2 x items x log2(items) values, whatever the
    heights.
    """
    k, size = len(item), len(heights)
    h = heights[item]
    # the next item to test on each side; right-side positions index the tables' second half
    pos = np.concatenate((item - 1, item + 1 + size))
    step = np.repeat([-1, 1], k)
    levels = (size - 2).bit_length()  # runs of up to 2**levels - 1 items: a whole row
    table, pad, tables = heights, np.full(1 << levels, np.inf), []
    for j in range(levels):
        if j:
            half = 1 << (j - 1)
            table = np.maximum(table[:-half], table[half:])
        # first half: the run ending at each item; second half: the run starting there
        edge = pad[: (1 << j) - 1]
        tables.append(np.concatenate((edge, table, table, edge)))
    below = np.concatenate((h, h))
    for j in reversed(range(levels)):
        np.add(pos, step << j, out=pos, where=tables[j][pos] <= below)
    # valleys [left, item) and [item, right) as every other reduceat range
    bounds = np.stack((pos[:k], item, item, pos[k:] - size), axis=1).ravel()
    sides = np.minimum.reduceat(valleys, bounds)[::2].reshape(k, 2)
    return h - np.minimum(sides.max(axis=1), h)


def detect_peaks(waves: np.ndarray, fs: float, cfg: BreathingConfig) -> list[np.ndarray]:
    """Peak indices, ascending int64, for each row of a (G, N) stack of waves.

    A local maximum satisfies w[i] > w[i-1] and w[i] >= w[i+1] (the leftmost
    sample of a plateau). Peaks need prominence of at least thr =
    prominence_factor * the std of their row, and peaks closer than
    fs*60/rr_max samples are thinned greedily by descending height, keeping
    the taller one.

    Two bounds from the valleys of _items settle most maxima exactly, so
    _item_prominence runs once, for the rest. Let h be a maximum's height and
    vL, vR the valleys of the segments on its left and right. Between two
    consecutive items a row is non-increasing, then strictly rising: a strict
    rise followed by none would be a local maximum. So each adjacent
    segment's bottom lies in the stretch on its side, and prominence >= h -
    max(vL, vR): accept when that is >= thr. If the neighbouring item on a
    side is strictly higher, that side's stretch ends within the segment, at
    that maximum or the border at the latest, and holds its bottom, so its
    minimum is exactly the valley v, and prominence <= h - v: reject when
    h - v < thr. The valleys are samples, selected and never computed, and a
    rounded subtraction is monotone, so both tests agree bit for bit with
    prominence >= thr.
    """
    n_rows, n = waves.shape
    if n == 0:  # nothing to cut or reduce; rows of 1 or 2 samples go on and find no maximum
        return [np.empty(0, dtype=np.int64) for _ in range(n_rows)]
    row, col = np.nonzero((waves[:, 1:-1] > waves[:, :-2]) & (waves[:, 1:-1] >= waves[:, 2:]))
    col += 1
    # every prominence is >= 0, so a row whose std is 0 keeps every maximum
    thr = (cfg.prominence_factor * _row_std(waves, None))[row]
    item, heights, valleys = _items(waves.ravel(), np.arange(0, n_rows * n, n), row * n + col)
    h, v_left, v_right = heights[item], valleys[item - 1], valleys[item]
    keep = h - np.maximum(v_left, v_right) >= thr
    v_higher = np.maximum(np.where(heights[item - 1] > h, v_left, -np.inf),
                          np.where(heights[item + 1] > h, v_right, -np.inf))
    # a row with a non-finite sample has a NaN thr, so none of its maxima is kept or unsettled
    unsettled = ~keep & (h - v_higher >= thr)
    keep[unsettled] = _item_prominence(heights, valleys, item[unsettled]) >= thr[unsettled]
    row, col, h = row[keep], col[keep], h[keep]

    # greedy, tallest first with ties to the lower index: a peak is kept unless a kept one lies
    # within reach, closer than min_dist = fs*60/rr_max (capped at n: n - 1 blocks every sample);
    # rows sit reach apart in one blocked mask, so a row's block never reaches the next row
    reach = math.ceil(min(fs * 60.0 / cfg.rr_max, n)) - 1
    stride = n + reach
    blocked = np.zeros(n_rows * stride + reach, dtype=bool)
    kept = np.zeros(len(col), dtype=bool)
    order = np.argsort(-h, kind="stable")
    for k, i in zip(order.tolist(), (row * stride + col + reach)[order].tolist()):
        if not blocked[i]:
            kept[k] = True
            blocked[i - reach : i + reach + 1] = True
    ends = np.searchsorted(row[kept], np.arange(n_rows + 1)).tolist()
    col = col[kept]
    return [col[a:b] for a, b in zip(ends[:-1], ends[1:])]


def instantaneous_rr(peak_indices: np.ndarray, fs: float, cfg: BreathingConfig) -> RRSeries:
    """BPM value per consecutive peak pair, keeping only the plausible band."""
    ibis = np.diff(peak_indices) / fs  # seconds per breath
    rr = 60.0 * cfg.cycles_per_peak / ibis
    rr = rr[(rr >= cfg.rr_min) & (rr <= cfg.rr_max)]
    return RRSeries(peak_indices=peak_indices, inst_rr=rr)


def best_group(series_per_group: list[RRSeries], cfg: BreathingConfig) -> Optional[int]:
    """0-based index of the eligible group with the steadiest RR series.

    Eligible means at least min_peaks peaks and at least 2 retained RR
    values (so the std is meaningful). Ties break toward the lower index.
    Returns None when no group qualifies. A series' std is _row_std of it as
    a one-row stack, np.std's own steps.
    """
    eligible = [i for i, s in enumerate(series_per_group)
                if len(s.peak_indices) >= cfg.min_peaks and len(s.inst_rr) >= 2]
    spread = lambda i: float(_row_std(np.reshape(series_per_group[i].inst_rr, (1, -1)), None)[0])
    return min(eligible, key=spread, default=None)


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
    series = [instantaneous_rr(peaks, fs, cfg) for peaks in detect_peaks(waves, fs, cfg)]
    return predict(series, window.end_time_s, cfg)
