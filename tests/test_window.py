import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrvision.config import ScheduleConfig
from rrvision.window import MotionBuffer


def push_columns(buf, columns):
    events = []
    for i, col in enumerate(columns):
        ev = buf.push_profile(np.asarray(col, dtype=np.float64))
        if ev is not None:
            events.append((i, ev))
    return events


def epoch_starts(fps, reest_s, n_frames):
    """Frames at which the buffer says the next column opens an epoch."""
    buf = MotionBuffer(1, fps, ScheduleConfig(reest_s=reest_s))
    hits = []
    for f in range(n_frames):
        if buf.epoch_start:
            hits.append(f)
        buf.push_profile(np.zeros(1))
    return hits


def stitched(columns, reest_s, fs=10.0):
    """The buffer's stitched columns, oldest first, for one window of all of them."""
    n = len(columns)
    buf = MotionBuffer(len(columns[0]), fs, ScheduleConfig(n / fs, n / fs / 2, reest_s))
    (_, window), = push_columns(buf, columns)
    return window.matrix


class TestSchedule:
    def test_reestimation_at_epoch_starts(self):
        assert epoch_starts(30.0, 20.0, 1801) == [0, 600, 1200, 1800]

    def test_frame_601_is_not_a_boundary(self):
        assert 601 not in epoch_starts(30.0, 20.0, 602)

    def test_other_rates(self):
        assert epoch_starts(20.0, 10.0, 401) == [0, 200, 400]

    def test_non_integer_rate_rounds_the_period(self):
        # 20 s at 29.97 fps is 599.4 frames, rounded to 599
        assert epoch_starts(29.97, 20.0, 1199) == [0, 599, 1198]

    def test_period_below_one_frame_rejected(self):
        with pytest.raises(ValueError, match="re-estimation period too short"):
            MotionBuffer(2, 30.0, ScheduleConfig(reest_s=0.01))

    def test_step_below_one_frame_rejected(self):
        with pytest.raises(ValueError, match="^window/step too small for this frame rate$"):
            MotionBuffer(2, 30.0, ScheduleConfig(step_s=0.01))


class TestCadence:
    def test_first_event_at_warmup_then_every_step(self):
        buf = MotionBuffer(4, 30.0, ScheduleConfig(window_s=20.0, step_s=1.0))
        cols = [np.full(4, float(i)) for i in range(700)]
        events = push_columns(buf, cols)
        indices = [i for i, _ in events]
        assert indices == [599, 629, 659, 689]  # columns 600, 630, 660, 690

    def test_no_event_before_warmup(self):
        buf = MotionBuffer(4, 30.0, ScheduleConfig())
        events = push_columns(buf, [np.zeros(4)] * 599)
        assert events == []

    def test_twenty_fps_webcam_rate(self):
        # 20 FPS: N = 400, an event every 20 columns
        buf = MotionBuffer(4, 20.0, ScheduleConfig(window_s=20.0, step_s=1.0))
        events = push_columns(buf, [np.zeros(4)] * 460)
        assert [i for i, _ in events] == [399, 419, 439, 459]

    @settings(max_examples=60, deadline=None)
    @given(
        frames=st.integers(0, 300),
        window_s=st.integers(2, 10),
        step_s=st.integers(1, 4),
    )
    def test_event_count_formula(self, frames, window_s, step_s):
        if window_s < 2 * step_s:
            return
        fs = 10.0
        buf = MotionBuffer(3, fs, ScheduleConfig(window_s=float(window_s), step_s=float(step_s)))
        events = push_columns(buf, [np.zeros(3)] * frames)
        n = int(round(window_s * fs))
        step = int(round(step_s * fs))
        expected = max(0, (frames - n) // step + 1) if frames >= n else 0
        assert len(events) == expected


class TestWindowContent:
    def test_matches_list_model(self):
        rng = np.random.default_rng(0)
        buf = MotionBuffer(3, 10.0, ScheduleConfig(window_s=2.0, step_s=1.0, reest_s=3.7))
        model = []  # brute-force: stitched columns, take last N
        offset = np.zeros(3)
        for i in range(100):
            raw = rng.uniform(-10, 10, size=3)
            if i in (37, 74):  # epoch starts of a 3.7 s period at 10 fps
                offset = offset + ((raw - offset) - model[-1])
            model.append(raw - offset)
            ev = buf.push_profile(raw)
            if ev is not None:
                want = np.stack(model[-20:], axis=1)
                assert ev.matrix == pytest.approx(want, abs=1e-12)
                assert ev.end_frame == i

    def test_snapshot_is_a_copy(self):
        buf = MotionBuffer(2, 10.0, ScheduleConfig(window_s=2.0, step_s=1.0))
        events = push_columns(buf, [np.full(2, float(i)) for i in range(20)])
        _, win = events[0]
        before = win.matrix.copy()
        push_columns(buf, [np.full(2, 99.0)])
        assert np.array_equal(win.matrix, before)


class TestStitching:
    def test_offsets_are_new_minus_prev(self):
        # epochs of two columns: the second epoch opens with [14, 5] after [10, 5]
        raw = np.array([[9.0, 5.0], [10.0, 5.0], [14.0, 5.0], [20.0, 7.0]]).T
        window = stitched(list(raw.T), reest_s=0.2)
        assert np.array_equal(window[:, :2], raw[:, :2])
        assert np.array_equal(raw[:, 2:] - window[:, 2:], [[4.0, 4.0], [0.0, 0.0]])

    def test_identical_columns_mean_zero_offset(self):
        raw = np.array([[1.0, 2.0], [3.0, 4.0], [3.0, 4.0], [5.0, 6.0]]).T
        assert np.array_equal(stitched(list(raw.T), reest_s=0.2), raw)

    def test_new_epoch_continues_previous_level(self):
        buf = MotionBuffer(1, 10.0, ScheduleConfig(window_s=2.0, step_s=1.0, reest_s=1.0))
        cols = [[float(i)] for i in range(10)] + [[100.0 + i] for i in range(10)]
        events = push_columns(buf, cols)
        window = events[-1][1].matrix[0]
        # first column of epoch 1 must equal last of epoch 0 (9.0), rest follow
        assert window[9] == 9.0
        assert window[10] == 9.0
        assert window[11] == 10.0

    def test_epoch_opening_as_the_head_wraps_continues_the_last_column(self):
        # 20 columns and 20-frame epochs: every epoch's first column is written at
        # ring slot 0, so the column it continues is the ring's last slot
        buf = MotionBuffer(2, 10.0, ScheduleConfig(window_s=2.0, step_s=1.0, reest_s=2.0))
        assert buf.epoch_frames % buf.n_cols == 0
        rng = np.random.default_rng(3)
        levels = np.repeat([0.0, 50.0, -80.0], 20)[:, None]  # each epoch jumps
        raw = rng.uniform(-10, 10, size=(60, 2)) + levels
        events = push_columns(buf, list(raw))
        assert [i for i, _ in events] == [19, 29, 39, 49, 59]
        model, offset = [], np.zeros(2)  # brute force, in the buffer's order of operations
        for i, col in enumerate(raw):
            if i in (20, 40):
                offset = offset + ((col - offset) - model[-1])
            model.append(col - offset)
        for i, window in events:
            assert np.array_equal(window.matrix, np.stack(model[i - 19 : i + 1], axis=1))
        for i, window in events[1::2]:  # columns i-19..i, an epoch opening at index 10
            assert window.matrix[:, 10] == pytest.approx(window.matrix[:, 9], abs=1e-12)

    def test_preserves_within_epoch_first_differences(self):
        rng = np.random.default_rng(1)
        raw = rng.uniform(0, 50, size=(2, 40))
        buf = MotionBuffer(2, 10.0, ScheduleConfig(window_s=2.0, step_s=1.0, reest_s=1.5))
        epochs = [i // 15 for i in range(40)]
        events = push_columns(buf, list(raw.T))
        window = events[-1][1].matrix  # last 20 columns = columns 20..39
        for row in range(2):
            for i in range(21, 40):
                if epochs[i] == epochs[i - 1]:
                    got = window[row, i - 20] - window[row, i - 21]
                    want = raw[row, i] - raw[row, i - 1]
                    assert got == pytest.approx(want, abs=1e-9)

    def test_artificial_jump_leaves_no_step(self):
        # sine rows with a constant offset jump at an epoch boundary: after
        # stitching, the boundary step stays within the noise scale
        rng = np.random.default_rng(2)
        fs, n = 10.0, 60
        t = np.arange(n) / fs
        sigma = 0.05
        base = 20 * np.sin(2 * np.pi * 0.3 * t) + rng.normal(0, sigma, size=n)
        jumped = base + np.where(np.arange(n) >= 30, 35.0, 0.0)  # +35 at the boundary
        buf = MotionBuffer(1, fs, ScheduleConfig(window_s=4.0, step_s=2.0, reest_s=3.0))
        events = push_columns(buf, [[v] for v in jumped])
        window = events[-1][1].matrix[0]  # columns 20..59, boundary at col 10
        raw_step = np.abs(np.diff(jumped[20:]))[9]
        stitched_step = np.abs(np.diff(window))[9]
        assert raw_step > 30  # the jump really was there
        assert stitched_step <= sigma
