import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rrvision import breathing
from rrvision.breathing import (
    RRSeries,
    _item_prominence,
    _items,
    _row_std,
    analyze_window,
    best_group,
    detect_peaks,
    detrend,
    group_to_wave,
    instantaneous_rr,
    predict,
    select_and_group,
    smooth,
)
from rrvision.config import BreathingConfig, ScheduleConfig
from rrvision.edges import canny
from rrvision.window import MotionBuffer, Scratch

from conftest import traced_peak, window_from_rows


CFG = BreathingConfig()


# --- brute-force references ---------------------------------------------------


def oracle_moving_average(wave, k):
    n = len(wave)
    half = k // 2
    out = np.empty(n)
    for i in range(n):
        lo, hi = max(0, i - half), min(n, i + half + 1)
        out[i] = sum(wave[lo:hi]) / (hi - lo)
    return out


def oracle_local_maxima(w):
    return [i for i in range(1, len(w) - 1) if w[i] > w[i - 1] and w[i] >= w[i + 1]]


def oracle_prominence(w, i):
    height = w[i]
    left = height
    j = i - 1
    while j >= 0 and w[j] <= height:
        left = min(left, w[j])
        j -= 1
    right = height
    j = i + 1
    while j < len(w) and w[j] <= height:
        right = min(right, w[j])
        j += 1
    return height - max(left, right)


def prominence(wave, peaks):
    """_item_prominence of one wave's maxima (every one, ascending), on the layout of _items."""
    item, heights, valleys = _items(wave, [0], peaks)
    return _item_prominence(heights, valleys, item)


def oracle_thin(candidates, heights, min_dist):
    order = sorted(candidates, key=lambda i: (-heights[i], i))
    kept = []
    for i in order:
        if all(abs(i - j) >= min_dist for j in kept):
            kept.append(i)
    return sorted(kept)


def oracle_detect_peaks(w, fs, cfg):
    w = np.asarray(w, dtype=np.float64)
    cand = oracle_local_maxima(w)
    sd = w.std()
    if sd > 0:
        cand = [i for i in cand if oracle_prominence(w, i) >= cfg.prominence_factor * sd]
    return oracle_thin(cand, w, fs * 60.0 / cfg.rr_max)


def lent_planes(x):
    """Two float64 planes of x's shape, as select_and_group lends them to detrend."""
    return np.empty((2, *x.shape))


def sine_window(rr_bpm, fs, seconds=20.0, n_rows=30, phase=0.3, amplitudes=None):
    n = int(round(seconds * fs))
    t = np.arange(n) / fs
    wave = np.sin(2 * np.pi * (rr_bpm / 60.0) * t + phase)
    if amplitudes is None:
        amplitudes = np.linspace(30, 5, n_rows)
    rows = [a * wave for a in amplitudes]
    return window_from_rows(rows, fs=fs)


# --- detrend -------------------------------------------------------------------


class TestDetrend:
    def test_constant_becomes_zero(self):
        x = np.full(50, 7.5)
        out = detrend(x, lent_planes(x))
        assert np.abs(out).max() < 1e-9

    def test_pure_ramp_becomes_zero(self):
        t = np.arange(100, dtype=np.float64)
        x = 2.0 + 3.0 * t
        out = detrend(x, lent_planes(x))
        assert np.abs(out).max() / (3.0 * 100) < 1e-9

    def test_sine_plus_ramp_recovers_sine(self):
        t = np.arange(200, dtype=np.float64)
        sine = 4 * np.sin(2 * np.pi * t / 40)
        x = sine + 5.0 + 0.25 * t
        out = detrend(x, lent_planes(x))
        # fit oracle: residual trend of the output is essentially zero, and
        # the output equals the sine minus the sine's own least-squares line
        slope = np.polyfit(t, out, 1)[0]
        assert abs(slope) < 1e-9 * 0.25
        want = sine - np.polyval(np.polyfit(t, sine, 1), t)
        assert out == pytest.approx(want, abs=1e-9)

    def test_kills_any_affine_signal_1000_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(2, 40))
            a, b = rng.uniform(-100, 100, size=2)
            t = np.arange(n, dtype=np.float64)
            x = a + b * t
            out = detrend(x, lent_planes(x))
            scale = max(1.0, abs(a), abs(b) * n)
            assert np.abs(out).max() < 1e-9 * scale

    def test_output_has_zero_mean_and_trend(self):
        rng = np.random.default_rng(1)
        y = rng.uniform(-5, 5, size=101)
        out = detrend(y, lent_planes(y))
        t = np.arange(101, dtype=np.float64)
        assert abs(out.mean()) < 1e-9
        assert abs(np.polyfit(t, out, 1)[0]) < 1e-9

    def test_matrix_matches_per_row_closed_form_bit_for_bit(self):
        rng = np.random.default_rng(4)
        for n_rows, n in [(1, 2), (7, 3), (40, 600), (120, 257)]:
            m = rng.normal(0, 50, size=(n_rows, n)).cumsum(axis=1) + rng.uniform(-200, 200)
            t = np.arange(n, dtype=np.float64)
            t_c = t - t.mean()
            # each row's slope sums its products in numpy's own order, not a BLAS kernel's
            want = np.stack([
                row - row.mean() - (t_c * (row - row.mean())).sum() / (t_c * t_c).sum() * t_c
                for row in m
            ])
            assert np.array_equal(detrend(m, lent_planes(m)), want)


# --- selection & grouping -------------------------------------------------------


def rows_with_stds(stds, n=120):
    """Rows whose detrended std ranking follows the given values."""
    rng = np.random.default_rng(42)
    pattern = rng.normal(0, 1, size=n)
    pattern = detrend(pattern, lent_planes(pattern))
    pattern /= pattern.std()
    return [s * pattern for s in stds]


class TestSelectAndGroup:
    def test_descending_stds_partition(self):
        window = window_from_rows(rows_with_stds([float(100 - i) for i in range(100)]))
        groups = select_and_group(window, CFG)
        assert len(groups) == 6
        for g in groups:
            assert g.shape[0] == 5
        # group 1 holds stds 100..96, group 6 holds 75..71
        assert [round(r.std()) for r in groups[0]] == [100, 99, 98, 97, 96]
        assert [round(r.std()) for r in groups[5]] == [75, 74, 73, 72, 71]

    def test_small_window_floors_to_single_signal_groups(self):
        window = window_from_rows(rows_with_stds([float(20 - i) for i in range(20)]))
        groups = select_and_group(window, CFG)
        assert len(groups) == 6
        assert all(g.shape[0] == 1 for g in groups)
        assert [round(g[0].std()) for g in groups] == [20, 19, 18, 17, 16, 15]

    def test_ties_resolved_by_row_index(self):
        window = window_from_rows(rows_with_stds([5.0] * 40))
        groups = select_and_group(window, CFG)
        # every row is identical, so grouping must follow row order: we can
        # check via equality with the expected rows
        assert len(groups) == 6
        assert all(g.shape[0] == 2 for g in groups)

    def test_flat_window_yields_no_groups(self):
        window = window_from_rows(np.full((40, 100), 3.0))
        assert select_and_group(window, CFG).shape == (0, 2, 100)

    def test_group_fraction_too_small_rejected(self):
        window = window_from_rows(np.zeros((10, 50)))
        with pytest.raises(ValueError, match="too few rows"):
            select_and_group(window, CFG)

    def test_row_std_equals_numpy_std_bit_for_bit_1000_matrices(self):
        rng = np.random.default_rng(7)
        for i in range(1000):
            n_rows = int(rng.integers(1, 9))
            n = 2 if i % 10 == 0 else int(rng.integers(2, 130))  # odd and even widths
            m = rng.normal(0.0, 10.0 ** rng.uniform(-3, 3), size=(n_rows, n)).cumsum(axis=1)
            m += rng.choice([0.0, 1e6, -1e12])  # large offsets
            m[rng.random(n_rows) < 0.2] = rng.uniform(-1e6, 1e6)  # constant rows
            planes = np.full((2, n_rows, n), np.nan)
            detrended = detrend(m, planes)
            want = detrended.std(axis=1)
            assert np.array_equal(_row_std(detrended, None), want)
            assert np.array_equal(_row_std(detrended, planes[0]), want)

    def test_windows_on_one_set_of_planes_equal_bare_windows(self):
        # 40 rows of 20 s at 10/s, one window a second; flat stretches give G = 0 windows
        fs, rng = 10.0, np.random.default_rng(3)
        scratch = Scratch()
        buffer = MotionBuffer(40, fs, ScheduleConfig(window_s=20.0, step_s=1.0), scratch)
        amplitudes, phases = rng.uniform(1.0, 30.0, 40), rng.uniform(0.0, 6.0, 40)
        events = []
        for i in range(700):
            t = i / fs
            if 200 <= i < 300 or i >= 500:
                column = amplitudes * np.sin(2 * np.pi * 0.25 * t + phases) + rng.normal(0, 1, 40)
            else:
                column = np.full(40, 5.0)
            events.append(buffer.push_profile(column))
        windows = [w for w in events if w is not None]
        shapes = {select_and_group(w, CFG).shape[0] for w in windows}
        assert shapes == {0, 6}  # flat windows and grouped ones, in one sequence
        # between windows, Canny works in the same scratch and needs more of it than they do
        img = rng.uniform(0.0, 255.0, (12, 16)).repeat(10, axis=0).repeat(10, axis=1)
        mask = canny(img)
        valid = 0
        for w in windows:
            assert np.array_equal(canny(img, scratch=scratch), mask)
            got = analyze_window(w, CFG, scratch)
            want = analyze_window(w, CFG)
            assert got == want
            assert len(got.series) == len(want.series)
            for a, b in zip(got.series, want.series):
                assert np.array_equal(a.peak_indices, b.peak_indices)
                assert np.array_equal(a.inst_rr, b.inst_rr)
            valid += got.valid
        assert valid > 0

    def test_prediction_holds_no_view_into_the_planes(self):
        window = sine_window(15.0, 30.0, n_rows=40)
        scratch = Scratch()
        got = analyze_window(window, CFG, scratch)
        series = [(s.peak_indices.copy(), s.inst_rr.copy()) for s in got.series]
        assert got.valid and len(series) == 6
        planes = scratch.request(2, *window.matrix.shape)  # all of the scratch
        planes.fill(np.nan)
        assert got == analyze_window(window, CFG)
        for s, (peaks, rr) in zip(got.series, series):
            assert np.array_equal(s.peak_indices, peaks) and np.array_equal(s.inst_rr, rr)
            assert not np.shares_memory(s.inst_rr, planes)
            assert not np.shares_memory(s.peak_indices, planes)

    @pytest.mark.parametrize("window_s", [20.0, 30.0])
    def test_warm_analysis_traces_under_a_plane(self, window_s):
        """Bytes traced by warm analyses of 100x400 and 100x600 stream windows at 20/s.

        One (rows x n) float64 plane allocated per window would reach the bound.
        """
        rng = np.random.default_rng(0)
        scratch = Scratch()
        buffer = MotionBuffer(100, 20.0, ScheduleConfig(window_s=window_s, step_s=1.0), scratch)
        amplitudes = rng.uniform(1.0, 30.0, 100)
        peaks, i = [], 0
        while len(peaks) < 5:
            profile = amplitudes * np.sin(2 * np.pi * 0.25 * i / 20.0) + rng.normal(0, 1, 100)
            window = buffer.push_profile(profile)
            i += 1
            if window is not None:
                peaks.append(traced_peak(lambda: analyze_window(window, CFG, scratch))[1])
        assert max(peaks[2:]) < window.matrix.size * 8, peaks


class TestGroupLayout:
    @pytest.mark.parametrize("n_rows,top_frac,group_frac,want", [
        (100, 0.58, 0.29, (29, 2)),  # the float products floor to 57 and 28
        (100, 0.57, 0.57, (57, 1)),
        (50, 0.58, 0.58, (29, 1)),
        (200, 0.29, 0.29, (58, 1)),
        (100, 0.30, 0.05, (5, 6)),
        (37, 0.30, 0.05, (1, 6)),  # 1.85 rows a group, 11.1 selected
    ])
    def test_rows_counted_for_the_written_decimal(self, n_rows, top_frac, group_frac, want):
        cfg = BreathingConfig(top_frac=top_frac, group_frac=group_frac)
        cfg.validate()
        assert cfg.groups(n_rows) == want


class TestGroupToWave:
    def test_single_signal_group(self):
        sig = np.array([[1.0, 2.0, 3.0]])
        assert np.array_equal(group_to_wave(sig), sig[0])

    def test_opposite_signals_cancel(self):
        s = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(group_to_wave(np.stack([s, -s])), np.zeros(3))

    def test_matches_mean_oracle(self):
        rng = np.random.default_rng(2)
        group = rng.uniform(-5, 5, size=(5, 40))
        want = np.array([sum(group[:, j]) / 5 for j in range(40)])
        assert group_to_wave(group) == pytest.approx(want, rel=1e-12)

    def test_stack_matches_per_group_calls(self):
        rng = np.random.default_rng(5)
        groups = rng.uniform(-5, 5, size=(6, 7, 90))
        want = np.stack([group_to_wave(g) for g in groups])
        assert np.array_equal(group_to_wave(groups), want)


class TestSmooth:
    def test_constant_unchanged(self):
        wave = np.full(50, 3.3)
        assert smooth(wave, 30.0, CFG) == pytest.approx(wave)

    def test_impulse_box_response(self):
        cfg = BreathingConfig(smooth_s=0.3)  # k = round(0.3*10)=3
        wave = np.zeros(21)
        wave[10] = 1.0
        out = smooth(wave, 10.0, cfg)
        assert out[9:12] == pytest.approx([1 / 3, 1 / 3, 1 / 3])
        assert out[8] == 0.0

    def test_boundary_truncation(self):
        cfg = BreathingConfig(smooth_s=0.3)
        wave = np.zeros(10)
        wave[0] = 1.0
        out = smooth(wave, 10.0, cfg)
        assert out[0] == pytest.approx(1 / 2)  # only 2 samples available

    def test_window_forced_odd(self):
        # smooth_s*fs = 12 -> k = 13
        cfg = BreathingConfig(smooth_s=0.4)
        wave = np.zeros(40)
        wave[20] = 13.0
        out = smooth(wave, 30.0, cfg)
        assert np.count_nonzero(out) == 13
        assert out[14:27] == pytest.approx(np.ones(13))

    def test_matches_oracle_1000_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            n = int(rng.integers(3, 30))
            fs = float(rng.choice([10.0, 20.0, 30.0]))
            cfg = BreathingConfig(smooth_s=float(rng.uniform(0.05, 0.6)))
            wave = rng.uniform(-10, 10, size=n)
            k = int(round(cfg.smooth_s * fs))
            if k % 2 == 0:
                k += 1
            want = wave.copy() if k <= 1 else oracle_moving_average(wave, k)
            assert smooth(wave, fs, cfg) == pytest.approx(want, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("smooth_s", [0.0, 0.3, 0.4])
    def test_stack_matches_per_wave_calls(self, smooth_s):
        cfg = BreathingConfig(smooth_s=smooth_s)
        waves = np.random.default_rng(6).uniform(-10, 10, size=(6, 120))
        want = np.stack([smooth(w, 30.0, cfg) for w in waves])
        assert np.array_equal(smooth(waves, 30.0, cfg), want)


class TestDetectPeaks:
    def test_constant_has_no_peaks(self):
        assert len(detect_peaks(np.full((1, 100), 2.0), 30.0, CFG)[0]) == 0

    def test_quarter_hz_sine_at_30fps(self):
        t = np.arange(600) / 30.0
        wave = np.sin(2 * np.pi * 0.25 * t)
        peaks = detect_peaks(wave[None], 30.0, CFG)[0]
        assert list(peaks) == [30, 150, 270, 390, 510]
        assert all(d == 120 for d in np.diff(peaks))

    def test_close_peaks_thinned_keeps_taller(self):
        # two peaks 10 samples apart; min distance 30*60/45 = 40
        wave = np.zeros(100)
        wave[40] = 1.0
        wave[50] = 2.0
        got = detect_peaks(wave[None], 30.0, CFG)[0]
        want = oracle_detect_peaks(wave, 30.0, CFG)
        assert list(got) == want == [50]

    def test_plateau_keeps_leftmost_sample(self):
        wave = np.zeros(60)
        wave[20:24] = 1.0
        assert list(detect_peaks(wave[None], 30.0, CFG)[0]) == [20]

    def test_matches_oracle_1000_instances(self):
        tiny = np.array([0.0, 5e-324, 0.0])  # its std underflows to 0
        got = list(detect_peaks(tiny[None], 30.0, CFG)[0])
        assert got == oracle_detect_peaks(tiny, 30.0, CFG) == [1]
        rng = np.random.default_rng(4)
        for _ in range(1000):
            n = int(rng.integers(3, 60))
            wave = rng.normal(0, 1, size=n)
            if rng.random() < 0.3:  # exercise plateaus and ties
                wave = np.round(wave * 2) / 2
            fs = float(rng.choice([10.0, 20.0, 30.0]))
            got = list(detect_peaks(wave[None], fs, CFG)[0])
            assert got == oracle_detect_peaks(wave, fs, CFG)

    @pytest.mark.parametrize("fs", [7.5, 12.5, 20.0, 29.97, 30.0])
    def test_matches_oracle_on_window_length_walks(self, fs):
        # 20-30 s windows, where min_dist (fs*60/45 samples) spans several
        # candidates and thinning has real work to do
        rng = np.random.default_rng(int(fs * 100))
        thinned = 0
        for _ in range(60):
            n = int(rng.integers(600, 901))
            k = int(rng.integers(1, 30))
            wave = np.convolve(np.cumsum(rng.normal(0, 1, n)), np.ones(k) / k, mode="same")
            if rng.random() < 0.4:  # plateaus and equal heights
                wave = np.round(wave * 2) / 2
            cand = np.array(oracle_local_maxima(wave), dtype=np.int64)
            assert list(prominence(wave, cand)) == [oracle_prominence(wave, i) for i in cand]
            want = oracle_detect_peaks(wave, fs, CFG)
            assert list(detect_peaks(wave[None], fs, CFG)[0]) == want
            thinned += len(cand) > len(want)
        assert thinned >= 30

    @settings(max_examples=40, deadline=None)
    @given(
        rr=st.sampled_from([8.0, 12.0, 15.0, 20.0, 30.0, 40.0]),
        fs=st.sampled_from([20.0, 30.0]),
        phase=st.floats(0, 2 * np.pi),
    )
    def test_sine_peak_spacing_within_one_sample(self, rr, fs, phase):
        t = np.arange(int(20 * fs)) / fs
        wave = np.sin(2 * np.pi * (rr / 60.0) * t + phase)
        peaks = detect_peaks(wave[None], fs, CFG)[0]
        true_period = fs * 60.0 / rr
        assert len(peaks) >= 2
        for d in np.diff(peaks):
            assert abs(d - true_period) <= 1.0


class TestProminence:
    """_item_prominence on one wave's maxima and valleys must equal the full walk."""

    @staticmethod
    def assert_matches_walk(wave):
        wave = np.asarray(wave, dtype=np.float64)
        cand = np.array(oracle_local_maxima(wave), dtype=np.int64)
        assert list(prominence(wave, cand)) == [oracle_prominence(wave, i) for i in cand]

    @pytest.mark.parametrize("wave", [
        [9, 8, 7, 1, 5, 2],  # the first higher sample climbs to sample 0 without a dip
        [2, 5, 1, 7, 8, 9],  # ... and to sample n-1
        [1, 7, 5, 2, 3, 1],  # the first higher sample climbs to an interior maximum
        [0, 3, 1, 3, 3, 1, 3, 0],  # plateaus at exactly the peak's height on both sides
        [1, 2, 2, 0, 2, 1, 2, 2, 0],  # ... where the peaks are plateaus too
        [5, 0, 0, 0, 3, 1, 4],  # the left stretch's minimum is a flat valley
        [4, 1, 3, 2, 2, 2, 5],  # the right stretch's minimum is a flat valley above its border
        [0, 1, 0], [1, 2, 1], [2, 1, 0],  # n = 3
        [0, 1, 1, 0], [0, 2, 1, 3], [3, 1, 2, 0], [1, 1, 1, 1],  # n = 4
        [1, 3, 4, 2, 0],  # a single maximum
        [0, 2, 1, 2, 0, 2, 1, 2, 0],  # equal maxima: none is strictly higher than another
        [0, 5, 1, 3, 0, 5, 2, 4, 1],  # the tallest maximum twice
        [0, 4, 1, 2, 1, 3, 0],  # maxima at samples 1 and n-2
        [5, 4, 3, 3, 1], [1, 2, 3], [2, 2, 1, 1],  # no maximum at all
    ])
    def test_hand_made_waves(self, wave):
        self.assert_matches_walk(wave)

    def test_matches_walk_2000_random_waves(self):
        rng = np.random.default_rng(16)
        for k in range(2000):
            n = int(rng.integers(3, 301))
            kind = k % 4
            if kind == 0:  # random walk
                wave = np.cumsum(rng.normal(0, 1, n))
            elif kind == 1:  # 4-level plateaus
                wave = np.repeat(rng.integers(0, 4, n), rng.integers(1, 6, n))[:n] * 1.0
            elif kind == 2:  # rounded walk: plateaus and equal heights
                wave = np.round(np.cumsum(rng.normal(0, 1, n)) * 2) / 2
            else:  # noisy sine
                wave = np.sin(np.arange(n) * rng.uniform(0.05, 0.5)) + rng.normal(0, 0.3, n)
            self.assert_matches_walk(wave)

    def test_matches_walk_on_window_length_noise(self):
        # the VGA stream's regime: 600-900 samples and more than 100 maxima a wave
        rng = np.random.default_rng(21)
        for k in range(200):
            wave = rng.normal(0, 1, int(rng.integers(600, 901)))
            if k % 2:  # equal heights
                wave = np.round(wave * 2) / 2
            assert len(oracle_local_maxima(wave)) > 100
            self.assert_matches_walk(wave)

    def test_memory_stays_under_two_mb_on_a_zigzag(self):
        wave = np.tile([0.0, 1.0], 450)
        peaks = np.arange(1, 899, 2)
        assert list(peaks) == oracle_local_maxima(wave)
        _, peak_bytes = traced_peak(lambda: prominence(wave, peaks))
        assert peak_bytes < 2_000_000


def open_maxima(monkeypatch):
    """Patch breathing._item_prominence to record how many maxima each call evaluates."""
    calls, exact = [], breathing._item_prominence

    def recording(heights, valleys, item):
        calls.append(len(item))
        return exact(heights, valleys, item)

    monkeypatch.setattr(breathing, "_item_prominence", recording)
    return calls


class TestPeakStack:
    """detect_peaks on a (G, N) stack: each row as the per-row oracle, the bounds exact."""

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        fs=st.sampled_from([7.5, 12.5, 20.0, 29.97, 30.0]),
        rr_max=st.sampled_from([45.0, 200.0]),  # min_dist of 10-40 samples, or of 2-9
        factor=st.sampled_from([0.0, 0.3, 1.0]),
    )
    def test_matches_per_row_oracle(self, data, fs, rr_max, factor):
        cfg = BreathingConfig(rr_max=rr_max, prominence_factor=factor)
        n_rows, n = data.draw(st.integers(0, 6)), data.draw(st.integers(1, 60))
        levels = data.draw(st.sampled_from([2, 5, None]))  # plateaus and equal heights, or not
        elements = (st.floats(-1e3, 1e3) if levels is None
                    else st.integers(0, levels).map(float))
        stack = data.draw(hnp.arrays(np.float64, (n_rows, n), elements=elements))
        got = detect_peaks(stack, fs, cfg)
        assert isinstance(got, list) and len(got) == n_rows
        for row, peaks in zip(stack, got):
            assert peaks.dtype == np.int64
            assert list(peaks) == oracle_detect_peaks(row, fs, cfg)

    def test_matches_oracle_on_smoothed_window_length_walks(self):
        rng = np.random.default_rng(27)
        for k in range(40):
            n_rows, n = int(rng.integers(1, 7)), int(rng.integers(400, 901))
            stack = np.cumsum(rng.normal(0, 1, (n_rows, n)), axis=1)
            stack = smooth(stack, 30.0, CFG)
            if k % 2:
                stack = np.round(stack * 2) / 2
            got = detect_peaks(stack, 30.0, CFG)
            for row, peaks in zip(stack, got):
                assert list(peaks) == oracle_detect_peaks(row, 30.0, CFG)

    def test_empty_stack_and_short_rows(self):
        assert detect_peaks(np.empty((0, 600)), 30.0, CFG) == []
        for n in (0, 1, 2):
            got = detect_peaks(np.zeros((3, n)), 30.0, CFG)
            assert len(got) == 3 and all(p.dtype == np.int64 and len(p) == 0 for p in got)
        got = detect_peaks(np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 1.0], [2.0, 1.0, 0.0]]), 30.0, CFG)
        assert [list(p) for p in got] == [[1], [], []]

    @pytest.mark.parametrize("row,factor,want", [
        ([0.0, 5.0, 0.0, 4.0, 0.0, 5.0, 0.0], 0.3, [1, 3, 5]),  # every adjacent valley is deep
        ([-1.0, 1.0, -1.0, 1.0, -1.0, 1.0], 2.0, [1, 3]),  # std 1: the drop 2 equals thr
    ])
    def test_accept_bound_alone_decides(self, monkeypatch, row, factor, want):
        calls = open_maxima(monkeypatch)
        row, cfg = np.array(row), BreathingConfig(prominence_factor=factor)
        got = list(detect_peaks(row[None], 0.5, cfg)[0])
        assert got == oracle_detect_peaks(row, 0.5, cfg) == want
        assert sum(calls) == 0

    @pytest.mark.parametrize("row", [
        [0.0, 10.0, 4.0, 4.5, 4.0, 10.0, 0.0],  # a bump between two higher maxima
        [0.0, 10.0, 4.0, 4.5, 4.2, 4.3, 0.0],  # higher on one side only: a maximum, a border
    ])
    def test_reject_bound_alone_decides(self, monkeypatch, row):
        calls = open_maxima(monkeypatch)
        row = np.array(row)
        got = list(detect_peaks(row[None], 0.5, CFG)[0])
        assert got == oracle_detect_peaks(row, 0.5, CFG) and 3 not in got
        assert sum(calls) == 0

    def test_open_maxima_take_the_exact_prominence(self, monkeypatch):
        calls = open_maxima(monkeypatch)
        # equal maxima over a shallow valley: neither is strictly above the other, both reach -5
        row = np.array([-5.0, 1.0, 0.9, 1.0, -5.0])
        got = list(detect_peaks(row[None], 0.5, CFG)[0])
        assert got == oracle_detect_peaks(row, 0.5, CFG) == [1, 3]
        assert calls == [2]

    def test_threshold_equal_to_the_drop_is_kept(self, monkeypatch):
        # the maximum at 3 (height 5) has a higher left neighbour over the valley 2, and its
        # right stretch reaches 1: its prominence is 5 - 2 = 3, the upper bound exactly
        row = np.array([0.0, 10.0, 2.0, 5.0, 4.0, 4.5, 1.0, 12.0, 0.0])
        factor = 3.0 / row.std()
        assert factor * row.std() == 3.0
        cfg = BreathingConfig(prominence_factor=float(factor))
        assert oracle_prominence(row, 3) == 3.0
        calls = open_maxima(monkeypatch)
        got = list(detect_peaks(row[None], 0.5, cfg)[0])
        assert got == oracle_detect_peaks(row, 0.5, cfg) == [1, 3, 7]
        assert calls == [1]  # 1 and 7 are accepted, 5 rejected, 3 left open
        stack = np.stack([row, row[::-1]])  # mirrored: the higher neighbour on the right
        assert [list(p) for p in detect_peaks(stack, 0.5, cfg)] == [[1, 3, 7], [1, 5, 7]]

    def test_memory_stays_under_two_mb_with_every_maximum_open(self, monkeypatch):
        row = np.tile([0.9, 1.0], 450)
        row[0] = row[-1] = -100.0  # deep border segments: no bound settles any maximum
        stack = np.tile(row, (6, 1))
        calls = open_maxima(monkeypatch)
        got, peak_bytes = traced_peak(lambda: detect_peaks(stack, 30.0, CFG))
        assert calls == [6 * 449]
        assert all(list(p) == oracle_detect_peaks(row, 30.0, CFG) for p in got)
        assert peak_bytes < 2_000_000


class TestInstantaneousRR:
    def test_three_second_ibis(self):
        s = instantaneous_rr(np.array([0, 90, 180]), 30.0, CFG)
        assert list(s.inst_rr) == [20.0, 20.0]

    def test_mixed_ibis(self):
        s = instantaneous_rr(np.array([0, 60, 150]), 30.0, CFG)
        assert list(s.inst_rr) == [30.0, 20.0]

    def test_out_of_band_values_dropped(self):
        s = instantaneous_rr(np.array([0, 15]), 30.0, CFG)  # 120 BPM
        assert len(s.inst_rr) == 0

    def test_fewer_than_two_peaks(self):
        assert len(instantaneous_rr(np.array([7]), 30.0, CFG).inst_rr) == 0
        rr = instantaneous_rr(np.array([], dtype=np.int64), 30.0, CFG).inst_rr
        assert rr.dtype == np.float64 and rr.shape == (0,)

    def test_two_peaks_per_breath_reading(self):
        cfg = BreathingConfig(cycles_per_peak=0.5)
        s = instantaneous_rr(np.array([0, 60, 120]), 30.0, cfg)  # IBI 2 s
        assert list(s.inst_rr) == [15.0, 15.0]


def series(rrs, n_peaks=None):
    rrs = np.asarray(rrs, dtype=np.float64)
    peaks = np.arange(len(rrs) + 1 if n_peaks is None else n_peaks)
    return RRSeries(peak_indices=peaks, inst_rr=rrs)


class TestBestGroupAndPredict:
    def test_lowest_std_wins(self):
        groups = [
            series([20, 20.5, 20, 21]),      # std ~ 0.41
            series([18, 22, 20, 24]),
            series([19, 21, 20, 22.2]),
            series([], n_peaks=1),            # ineligible
            series([20, 21, 20, 22]),
            series([10, 40, 20, 30]),
        ]
        assert best_group(groups, CFG) == 0

    def test_tie_breaks_to_lower_index(self):
        groups = [
            series([30, 10, 20, 25]),
            series([20, 20, 20, 20]),
            series([25, 25, 25, 25]),
        ]
        assert best_group(groups, CFG) == 1

    def test_all_below_min_peaks_is_none(self):
        groups = [series([20, 20], n_peaks=2) for _ in range(6)]
        assert best_group(groups, CFG) is None

    def test_single_rr_value_is_ineligible(self):
        groups = [series([20.0], n_peaks=5)]
        assert best_group(groups, CFG) is None

    def test_predict_averages(self):
        window = sine_window(20.0, 30.0)
        pred = analyze_window(window, CFG)
        assert pred.valid
        assert pred.rr_bpm == pytest.approx(20.0, abs=0.5)

    def test_invalid_prediction_on_flat_window(self):
        pred = analyze_window(window_from_rows(np.full((40, 600), 9.0)), CFG)
        assert not pred.valid
        assert pred.rr_bpm is None and pred.group_index is None and pred.n_peaks == 0


class TestBestGroupStd:
    def test_series_std_equals_numpy_std_bit_for_bit_20000_series(self):
        rng = np.random.default_rng(20)
        previous = None
        for k in range(20000):
            n = int(rng.integers(1, 300))
            rr = rng.uniform(6.0, 45.0, n) + rng.normal(0, 10.0 ** rng.uniform(-4, 1))
            if k % 3 == 0:  # integer rates: equal values and exact sums
                rr = np.round(rr)
            assert _row_std(rr.reshape(1, -1), None)[0] == np.std(rr)
            if n >= 2 and previous is not None:
                want = 0 if np.std(previous) <= np.std(rr) else 1
                assert best_group([series(previous), series(rr)], CFG) == want
            previous = rr if n >= 2 else previous


class TestGroupPrefix:
    @pytest.mark.parametrize("top_frac", [0.05, 0.10, 0.15, 0.20, 0.25])
    def test_first_groups_decide_a_smaller_fraction(self, top_frac):
        # a smaller top fraction with the same group size forms the first
        # groups of the larger one, so their RR series decide it exactly
        cfg = BreathingConfig(top_frac=top_frac)
        rng = np.random.default_rng(int(top_frac * 100))
        for _ in range(10):
            n_rows = int(rng.integers(20, 121))
            rows = rng.normal(0, 1, size=(n_rows, 400)).cumsum(axis=1) + rng.uniform(
                1, 20, size=(n_rows, 1)
            ) * np.sin(2 * np.pi * rng.uniform(0.15, 0.5) * np.arange(400) / 20.0)
            window = window_from_rows(rows, fs=20.0)
            full = analyze_window(window, CFG)
            assert len(full.series) == CFG.groups(n_rows)[1]
            k = cfg.groups(n_rows)[1]
            assert predict(full.series[:k], 20.0, cfg) == analyze_window(window, cfg)

    def test_flat_window_has_no_series(self):
        pred = analyze_window(window_from_rows(np.full((40, 600), 9.0)), CFG)
        assert pred.series == []


class TestPipelineProperties:
    def test_deterministic(self):
        window = sine_window(15.0, 30.0)
        a = analyze_window(window, CFG)
        b = analyze_window(window, CFG)
        assert a == b

    @settings(max_examples=25, deadline=None)
    @given(scale=st.floats(0.01, 100.0, allow_nan=False))
    def test_amplitude_invariance(self, scale):
        rng = np.random.default_rng(7)
        rows = rng.normal(0, 1, size=(40, 200)) + 5 * np.sin(
            2 * np.pi * 0.25 * np.arange(200) / 10.0
        )
        base = window_from_rows(rows, fs=10.0)
        scaled = window_from_rows(rows * scale, fs=10.0)
        a = analyze_window(base, CFG)
        b = analyze_window(scaled, CFG)
        assert a.valid == b.valid
        assert a.group_index == b.group_index
        assert a.n_peaks == b.n_peaks
        if a.valid:
            assert a.rr_bpm == pytest.approx(b.rr_bpm, rel=1e-12)

    def test_grouping_rescues_prediction_from_loud_noise_rows(self):
        # 5 rows of loud aperiodic noise, 25 rows of clean sine, 70 quiet
        rng = np.random.default_rng(8)
        fs, n = 30.0, 600
        t = np.arange(n) / fs
        sine = np.sin(2 * np.pi * 0.25 * t)
        rows = []
        for _ in range(5):
            rows.append(np.cumsum(rng.normal(0, 3.0, size=n)))  # random walk
        for i in range(25):
            rows.append((10 - 0.2 * i) * sine)
        for _ in range(70):
            rows.append(rng.normal(0, 0.01, size=n))
        window = window_from_rows(rows, fs=fs)
        pred = analyze_window(window, CFG)
        assert pred.valid
        assert pred.group_index != 1
        assert pred.rr_bpm == pytest.approx(15.0, abs=1.0)

    @pytest.mark.parametrize("rr", [12.0, 15.0, 20.0, 30.0])
    @pytest.mark.parametrize("fs", [20.0, 30.0])
    def test_noiseless_window_within_half_bpm(self, rr, fs):
        # brute-force sine-peak oracle first: discrete argmax per cycle
        n = int(20 * fs)
        t = np.arange(n) / fs
        wave = np.sin(2 * np.pi * (rr / 60.0) * t + 0.3)
        oracle_peaks = oracle_detect_peaks(wave, fs, CFG)
        oracle_rr = 60.0 * fs / np.mean(np.diff(oracle_peaks))
        assert oracle_rr == pytest.approx(rr, abs=0.5)

        pred = analyze_window(sine_window(rr, fs), CFG)
        assert pred.valid
        assert pred.rr_bpm == pytest.approx(rr, abs=0.5)
