"""The whole stream against a plain per-frame reference, window by window.

`oracle_stream` restates everything before the breathing analysis from the
documented rules and the stage oracles, sharing no code with the program:
it reads the frames from the files itself, states the schedule by frame
index, looks the landmarks up by step-hold (or clamps the fixed rectangle),
takes the epoch's mask from `oracle_canny` and `_oracle_dilate`, takes each
row's mean as a quotient of exact integers, fills and resamples with
`np.interp`, and stitches the columns, held in a Python list, in the
documented order of operations. Every window `run_stream` analyses must
equal the reference's bit for bit, and so must each prediction.

The ROIs drawn are mostly ones the program accepts: the scene's landmark
box, moved by landmark rows, a border rectangle that holds the whole box, or a
corner square down to the ROI minimum. Where the program refuses an epoch's
ROI (off the frame, too small for Canny, or with no edge pixel), the
reference must refuse it too, after the same windows and with the same
number of frames read. The Canny config stays at its default: at other
sigmas `oracle_canny`'s `math.exp` taps may differ from `np.exp` by an ulp.
"""

import json
import math
import tempfile
from dataclasses import astuple
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rrvision import pipeline
from rrvision.breathing import analyze_window
from rrvision.config import MIN_ROI_SIDE, RunConfig
from rrvision.ingest import read_pnm, write_pnm
from rrvision.roi import LandmarkSet, write_landmark_track
from rrvision.synth import SynthConfig, generate, scene_geometry
from rrvision.window import MotionWindow, Scratch

from test_edges import _oracle_dilate, oracle_canny


def _oracle_frames(video_path: Path, meta: dict):
    """The recording's uint8 frames in order, read from the bytes the formats document."""
    shape = (meta["height"], meta["width"]) + ((3,) if meta["pixel_format"] == "RGB24" else ())
    if not video_path.is_dir():
        yield from np.fromfile(video_path, np.uint8).reshape(-1, *shape)
        return
    n = math.prod(shape)
    ext = "ppm" if len(shape) == 3 else "pgm"
    for i in range(meta["frame_count"]):
        data = (video_path / f"frame_{i:06d}.{ext}").read_bytes()[-n:]  # the samples end the file
        yield np.frombuffer(data, np.uint8).reshape(shape)


def _oracle_landmark_box(rows, i, cfg, width, height):
    """(x0, y0, x1, y1) of the chest box from the last landmark row at or before frame i."""
    _, cx, cy, lx, ly, rx, ry = [r for r in rows if r[0] <= i][-1]
    g = cfg.geometry
    wf = abs(rx - lx)
    mid = (lx + rx) / 2.0
    top = cy + g.k_top * wf
    corners = (mid - g.k_w * wf, top, mid + g.k_w * wf, top + g.k_h * wf)

    def pixel(v, size):  # clamp to the frame, then round half up
        return math.floor(min(max(v, 0), size) + 0.5)

    return tuple(pixel(v, size) for v, size in zip(corners, (width, height) * 2))


def _oracle_profile(crop, mask, canonical_len):
    """Exact masked row means over all channels, filled over empty rows, resampled."""
    h = crop.shape[0]
    channels = crop.shape[2] if crop.ndim == 3 else 1
    valid = [y for y in range(h) if mask[y].any()]
    means = [int(crop[y][mask[y]].sum()) / (channels * int(mask[y].sum())) for y in valid]
    rows = np.arange(h, dtype=np.float64)
    filled = np.interp(rows, valid, means)
    positions = np.arange(canonical_len, dtype=np.float64) * (h - 1) / (canonical_len - 1)
    return np.interp(positions, rows, filled)


def oracle_stream(video_path, cfg: RunConfig, landmarks_path=None, fixed_roi=None):
    """(windows, refused_at): every window the stream should analyse, built one frame at a time.

    refused_at is None when the stream runs to its end, else the number of frames
    read when it refuses an ROI: 0 for a fixed rectangle, which is clamped once
    before frame 0, or i + 1 for a refusal at the epoch start of frame i.
    """
    video_path = Path(video_path)
    side_dir = video_path if video_path.is_dir() else video_path.parent
    meta = json.loads((side_dir / "meta.json").read_text())
    width, height, fps = meta["width"], meta["height"], float(meta["fps"])
    n_cols, step, epoch = (round(s * fps) for s in (cfg.schedule.window_s,
                                                     cfg.schedule.step_s,
                                                     cfg.schedule.reest_s))
    smallest = MIN_ROI_SIDE  # an epoch's ROI side; Canny's blur needs its whole support
    if cfg.profile_mode == "edges":
        smallest = max(smallest, 2 * math.ceil(3 * cfg.canny.sigma) + 1)
    if landmarks_path is not None:
        lines = Path(landmarks_path).read_text().split()[1:]
        rows = [(int(f), *map(float, rest)) for f, *rest in (line.split(",") for line in lines)]
    else:
        x, y, w, h = fixed_roi
        box = max(x, 0), max(y, 0), min(x + w, width), min(y + h, height)
        if min(box[2] - box[0], box[3] - box[1]) < MIN_ROI_SIDE:
            return [], 0

    columns, windows, offset = [], [], np.zeros(cfg.canonical_len)
    for i, frame in enumerate(_oracle_frames(video_path, meta)):
        if i % epoch == 0:  # an epoch start: a new ROI and mask
            if landmarks_path is not None:
                box = _oracle_landmark_box(rows, i, cfg, width, height)
            x0, y0, x1, y1 = box
            if min(x1 - x0, y1 - y0) < smallest:
                return windows, i + 1
            crop = frame[y0:y1, x0:x1]
            if cfg.profile_mode == "edges":
                gray = crop if crop.ndim == 2 else crop.astype(np.int64).sum(axis=2) / 3.0
                mask = _oracle_dilate(oracle_canny(gray, cfg.canny), cfg.canny.dilation_radius)
            else:
                mask = np.ones(crop.shape[:2], dtype=bool)
            if not mask.any():
                return windows, i + 1
        raw = _oracle_profile(frame[y0:y1, x0:x1], mask, cfg.canonical_len)
        if i > 0 and i % epoch == 0:  # continue each row where the last epoch ended
            offset = offset + ((raw - offset) - columns[-1])
        columns.append(raw - offset)
        if i + 1 >= n_cols and (i + 1 - n_cols) % step == 0:
            windows.append(MotionWindow(np.stack(columns[-n_cols:], axis=1), fps, i))
    return windows, None


def _jitter_channels(video_path: Path, seed: int) -> None:
    """Flip the low bits of every sample, so an RGB pixel's channels differ."""
    rng = np.random.default_rng(seed)
    if video_path.is_dir():
        for path in sorted(video_path.glob("frame_*.ppm")):
            data = read_pnm(path)
            write_pnm(path, data ^ rng.integers(0, 8, data.shape, dtype=np.uint8))
    else:
        data = np.fromfile(video_path, np.uint8)
        (data ^ rng.integers(0, 8, data.shape, dtype=np.uint8)).tofile(video_path)


@st.composite
def streams(draw):
    """A small recording, its run config, and its landmark rows or fixed rectangle."""
    width = draw(st.sampled_from([64, 96, 160]))
    fps = draw(st.sampled_from([7.5, 10.0, 12.5, 20.0, 29.97, 30.0]))
    cfg = RunConfig(profile_mode=draw(st.sampled_from(["edges", "full_roi"])))
    sched = cfg.schedule
    sched.step_s = draw(st.sampled_from([0.5, 1.0]))
    sched.window_s = draw(st.sampled_from([2 * sched.step_s, 3.0, 4.0]))
    sched.reest_s = draw(st.sampled_from([0.7, 1.0, 1.5, 2.5, 20.0]))
    duration_s = sched.window_s + draw(st.sampled_from([0.5, 1.5, 3.0]))
    synth = SynthConfig(
        width=width, height=width * 3 // 4, fps=fps, duration_s=duration_s,
        rr_segments=[(0.0, float(draw(st.integers(10, 30))))],
        texture_seed=draw(st.integers(0, 99)),
        pixel_format=draw(st.sampled_from(["GRAY8", "RGB24"])),
        container=draw(st.sampled_from(["raw", "images"])),
        walk_row_frac=draw(st.sampled_from([0.0, 0.1])), walk_amplitude=3.0,
    )
    geometry = scene_geometry(synth)

    # landmark rows that move the box over a still scene: shifts in quarter pixels
    # and a face up to 2 px narrower or wider, so the ROI changes size too
    moves = draw(st.lists(st.tuples(st.integers(1, synth.frame_count - 1),
                                    st.integers(-16, 16), st.integers(-16, 16),
                                    st.integers(-2, 2)),
                          max_size=3, unique_by=lambda m: m[0]))
    lm, landmark_rows = geometry.landmarks, None
    if moves:
        landmark_rows = [(0, lm)] + [
            (f, LandmarkSet((lm.chin[0] + dx / 4, lm.chin[1] + dy / 4),
                            (lm.left_ear[0] + dx / 4 - dw / 2, lm.left_ear[1] + dy / 4),
                            (lm.right_ear[0] + dx / 4 + dw / 2, lm.right_ear[1] + dy / 4)))
            for f, dx, dy, dw in sorted(moves)]
    else:  # the scene's own rows, with its content jump if any
        synth.roi_jump_at_s = draw(st.sampled_from([None, 1.0, duration_s - 1.0]))

    fixed_roi = None
    if draw(st.booleans()):  # a rectangle reaching `over` pixels past the frame border
        over = draw(st.integers(0, 6))
        side = draw(st.sampled_from(["left", "right", "top", "bottom", "corner"]))
        x, y, w, h = astuple(geometry.roi)
        if side == "corner":  # n pixels a side after clamping, from below the ROI minimum
            n = draw(st.integers(MIN_ROI_SIDE - 2, 12))
            fixed_roi = (draw(st.sampled_from([-over, width - n])),
                         draw(st.sampled_from([-over, synth.height - n])), n + over, n + over)
        else:  # the landmark box, stretched to one frame edge and past it
            fixed_roi = {"left": (-over, y, x + w + over, h),
                         "right": (x, y, width - x + over, h),
                         "top": (x, -over, w, y + h + over),
                         "bottom": (x, y, w, synth.height - y + over)}[side]
    return synth, cfg, landmark_rows, fixed_roi


class TestAgainstOracleStream:
    @settings(max_examples=25, deadline=None)
    @given(streams())
    def test_every_window_and_prediction_matches(self, stream):
        synth, cfg, landmark_rows, fixed_roi = stream
        with tempfile.TemporaryDirectory() as tmp:
            ds = generate(synth, Path(tmp) / "rec")
            if synth.pixel_format == "RGB24":
                _jitter_channels(ds.video_path, synth.texture_seed)
            if landmark_rows:
                write_landmark_track(ds.landmarks_path, landmark_rows)
            source = (dict(fixed_roi=fixed_roi) if fixed_roi
                      else dict(landmarks_path=ds.landmarks_path))

            want, refused_at = oracle_stream(ds.video_path, cfg, **source)
            got, preds, frames_read = [], [], 0
            real_open, real_analyze = pipeline.open_source, pipeline.analyze_window

            def counted_open(path):
                meta, frames = real_open(path)

                def counted():
                    nonlocal frames_read
                    for frame in frames:
                        frames_read += 1
                        yield frame

                return meta, counted()

            def captured(window, *args):
                got.append(window)
                return real_analyze(window, *args)

            with mock.patch.object(pipeline, "open_source", counted_open), \
                    mock.patch.object(pipeline, "analyze_window", captured):
                try:
                    for prediction in pipeline.run_stream(ds.video_path, cfg, **source):
                        preds.append(prediction)
                except ValueError:
                    assert refused_at == frames_read
                else:
                    assert refused_at is None

        assert [(w.end_frame, w.fs) for w in got] == [(w.end_frame, w.fs) for w in want]
        for g, w in zip(got, want):
            assert g.matrix.shape == w.matrix.shape
            assert g.matrix.tobytes() == w.matrix.tobytes()
        for p, w in zip(preds, want):
            q = analyze_window(w, cfg.breathing, Scratch())
            assert p == q
            assert [(s.peak_indices.tobytes(), s.inst_rr.tobytes()) for s in p.series] == \
                [(s.peak_indices.tobytes(), s.inst_rr.tobytes()) for s in q.series]
