"""Deterministic synthetic breathing videos with exact ground truth.

The scene is a column-wise 1D world: a static random horizontal-band
texture fills the frame, and a "chest" occupies a horizontal span whose
content sits below a strong horizontal boundary edge. The boundary (and the
chest texture rigidly attached to it) moves vertically as
``amplitude_px * sin(phase(t))`` where the phase integrates the configured
breathing-rate segments, so the rate is phase-continuous across segment
switches. Rows near the boundary's travel range are kept textureless so the
moving edge is the only structure there.

Rendering is sub-pixel: the pixel the boundary crosses mixes background and
flat chest intensity by its coverage, so the fractional displacement shows
in that pixel alone; nothing samples chest rows. Integer-pixel motion at
small amplitudes would produce staircase signals that flatter the method.

Optional stressors map one-to-one onto pipeline stages: per-pixel Gaussian
noise (selection), linear illumination drift (detrending), an instantaneous
vertical content jump (ROI re-estimation and stitching), and random-walk
intensity rows (grouping).

Every pixel of a row outside the chest holds one value, and every chest pixel
of the row another, so a frame is two (h,) vectors of row values. Every frame
takes one path: it draws its noise into a float64 plane, scales it by
``noise_sigma`` (0*z + f rounds to f, so 0 adds no noise) and adds the row
values. Frames render in runs of consecutive frames, as many as fit in one
640x480 float64 plane: 16 at 160x120, one at 640x480 and above. A run is one
(c, h, w) float64 plane. Each frame draws its noise into its own (h, w) plane of
it; every other step is one array call over the whole run: the row values, the
noise scaling, the three row adds, clip and round, and each channel's copy into
the uint8 output. The scene is read-only once built: ``_write_frames`` makes two
slots of a run's planes, renders the even runs in one and, on a worker thread,
the odd runs in the other, and writes each run's uint8 frames as they are, in
index order. A recording of one run never starts the worker. Each frame draws
its noise from its own generator and every other step is elementwise, so its
bytes depend on its index alone, not on the run, slot or thread that renders
it. A warm 640x480 frame allocates less than one uint8 (h, w) plane of
temporaries in either pixel format, as ``tracemalloc`` traces them.

Output is exactly what the ingest module reads (raw file or PPM/PGM
sequence plus ``meta.json``) together with ``ground_truth.csv``
(``t,rr_bpm``) and a landmark CSV consistent with the rendered geometry.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import BreathingConfig, RoiGeometryConfig, ScheduleConfig, samples
from .ingest import (GROUND_TRUTH_HEADER, GROUND_TRUTH_NAME, LANDMARKS_NAME, MANIFEST_NAME,
                     PIXEL_FORMATS, RGB24, VideoMeta, write_manifest, write_pnm, write_step_hold)
from .roi import LandmarkSet, RoiRect, roi_from_landmarks, write_landmark_track

RR_FLOOR, RR_CEIL = BreathingConfig.rr_min, BreathingConfig.rr_max
CONTAINERS = ("raw", "images")

_BASE_LEVEL = 150.0
_TEMPLATE_PAD = 16  # head-room rows revealed by a downward content jump
_BAND_PX = 5  # background texture band height
_CHEST_CONTRAST = 100.0  # chest darkness below the background level
_QUIET_MARGIN_PX = 6  # textureless rows beyond the boundary's travel
_JUMP_DY_PX = 6  # downward content shift at roi_jump_at_s
_RUN_VALUES = 640 * 480  # float64 values of one run's plane: 16 frames at 160x120, one at VGA


@dataclass
class SynthConfig:
    width: int = 160
    height: int = 120
    fps: float = 30.0
    duration_s: float = 60.0
    rr_segments: list[tuple[float, float]] = field(default_factory=lambda: [(0.0, 15.0)])
    amplitude_px: float = 2.0
    noise_sigma: float = 2.0
    illum_drift: float = 0.0  # intensity units per second
    texture_seed: int = 0
    roi_jump_at_s: float | None = None
    # scene-shaping knobs
    pixel_format: str = field(default=RGB24, metadata={"choices": PIXEL_FORMATS})
    container: str = field(default="raw", metadata={"choices": CONTAINERS})
    chest_width_frac: float = 0.5  # chest span as a fraction of the ROI width
    band_contrast: float = 60.0
    walk_row_frac: float = 0.0
    walk_amplitude: float = 0.0  # target std of the walk over one default analysis window

    def validate(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        # VideoMeta checks the frame size, the fps and the pixel format
        if self.meta.frame_count == 0:
            raise ValueError(f"duration_s of {self.duration_s} s at {self.fps} fps gives no frame")
        if not self.rr_segments:
            raise ValueError("need at least one rr segment")
        starts = [s for s, _ in self.rr_segments]
        if starts[0] != 0 or any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("rr_segments must start at 0 and be strictly increasing")
        for _, rr in self.rr_segments:
            if not RR_FLOOR <= rr <= RR_CEIL:
                raise ValueError(f"rr {rr} outside [{RR_FLOOR}, {RR_CEIL}] BPM")
        for name in ("amplitude_px", "noise_sigma", "walk_amplitude", "texture_seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not 0 <= self.walk_row_frac <= 1:
            raise ValueError("walk_row_frac must be in [0, 1]")
        if self.container not in CONTAINERS:
            raise ValueError(f"unknown container {self.container!r}")
        if not 0 < self.chest_width_frac <= 1:
            raise ValueError("chest_width_frac must be in (0, 1]")

    @property
    def frame_count(self) -> int:
        return samples(self.duration_s, self.fps, "duration_s")

    @property
    def meta(self) -> VideoMeta:
        return VideoMeta(self.width, self.height, self.fps, self.frame_count, self.pixel_format)

    def phase_at(self, t: float) -> float:
        """Accumulated breathing phase in radians (continuous across segments)."""
        phase = 0.0
        for i, (start, rr) in enumerate(self.rr_segments):
            end = self.rr_segments[i + 1][0] if i + 1 < len(self.rr_segments) else math.inf
            if t <= start:
                break
            phase += 2 * math.pi * (rr / 60.0) * (min(t, end) - start)
        return phase


@dataclass
class SceneGeometry:
    landmarks: LandmarkSet
    roi: RoiRect
    boundary_y: int  # nominal chest-boundary row
    chest_x0: int
    chest_x1: int
    quiet_half: int  # textureless half-height around the boundary


@dataclass
class SynthDataset:
    out_dir: Path
    video_path: Path  # raw file, or the directory itself for image sequences
    ground_truth_path: Path
    landmarks_path: Path
    meta: VideoMeta
    geometry: SceneGeometry


def scene_geometry(cfg: SynthConfig) -> SceneGeometry:
    """Face landmarks and derived chest layout for a config's frame size."""
    wf = round(cfg.width / 4)
    mid_x = cfg.width // 2
    chin_y = round(cfg.height * 0.25)
    ear_y = max(2, chin_y - round(0.3 * wf))
    lm = LandmarkSet(
        chin=(float(mid_x), float(chin_y)),
        left_ear=(mid_x - wf / 2.0, float(ear_y)),
        right_ear=(mid_x + wf / 2.0, float(ear_y)),
    )
    roi = roi_from_landmarks(lm, cfg.meta, RoiGeometryConfig())
    boundary_y = roi.y + round(0.45 * roi.h)
    cw = max(4, round(cfg.chest_width_frac * roi.w))
    chest_x0 = mid_x - cw // 2
    chest_x1 = chest_x0 + cw
    quiet_half = math.ceil(cfg.amplitude_px) + _QUIET_MARGIN_PX
    return SceneGeometry(lm, roi, boundary_y, chest_x0, chest_x1, quiet_half)


class _Scene:
    """Precomputed textures and per-frame column rendering."""

    def __init__(self, cfg: SynthConfig):
        self.cfg = cfg
        self.geom = scene_geometry(cfg)
        rng = np.random.default_rng([cfg.texture_seed, 0])

        # static background template with textureless rows near the boundary;
        # band levels alternate sign so every band boundary is a strong edge
        n_ext = cfg.height + _TEMPLATE_PAD
        ext = self._band_texture(rng, n_ext, _BASE_LEVEL, cfg.band_contrast)
        y_ext = np.arange(n_ext) - _TEMPLATE_PAD
        quiet = np.abs(y_ext - self.geom.boundary_y) <= self.geom.quiet_half
        ext[quiet] = _BASE_LEVEL
        self._static_ext = ext

        # chest: flat dark, so the boundary step is the only moving edge and
        # every motion signal is a monotone function of the displacement
        # (mixed-polarity moving edges would let opposite-phase pulse rows
        # average into clean frequency-doubled waves)
        self._chest_dark = float(np.clip(_BASE_LEVEL - _CHEST_CONTRAST, 5, 250))

        # the content sits _JUMP_DY_PX lower from this frame on; no frame reaches frame_count
        jump_at_s = cfg.duration_s if cfg.roi_jump_at_s is None else cfg.roi_jump_at_s
        self.jump_frame = samples(min(max(0, jump_at_s), cfg.duration_s), cfg.fps, "roi_jump_at_s")
        self.run_frames = max(1, _RUN_VALUES // (cfg.width * cfg.height))

        # random-walk rows live in the static texture inside the ROI
        self.walk_rows: np.ndarray = np.empty(0, dtype=np.int64)
        self._walk_paths: np.ndarray | None = None
        n_walk = int(round(cfg.walk_row_frac * self.geom.roi.h))
        if n_walk > 0 and cfg.walk_amplitude > 0:
            roi = self.geom.roi
            rows = np.arange(roi.y, roi.y + roi.h)
            eligible = rows[np.abs(rows - self.geom.boundary_y) > self.geom.quiet_half + 1]
            if n_walk > len(eligible):
                raise ValueError(f"walk_row_frac {cfg.walk_row_frac} needs {n_walk} rows, but "
                                 f"only {len(eligible)} ROI rows are away from the boundary")
            walk_rng = np.random.default_rng([cfg.texture_seed, 1])
            self.walk_rows = np.sort(walk_rng.choice(eligible, size=n_walk, replace=False))
            m = samples(ScheduleConfig.window_s, cfg.fps, "walk window")
            step = cfg.walk_amplitude * math.sqrt(3.0 / m)
            incr = walk_rng.normal(0.0, step, size=(n_walk, cfg.frame_count))
            self._walk_paths = np.cumsum(incr, axis=1)

    def _band_texture(
        self, rng: np.random.Generator, n: int, base: float, contrast: float
    ) -> np.ndarray:
        n_bands = n // _BAND_PX + 2
        signs = np.where(np.arange(n_bands) % 2 == 0, 1.0, -1.0)
        levels = base + signs * rng.uniform(0.6, 1.0, size=n_bands) * contrast
        return np.clip(levels, 5, 250)[np.arange(n) // _BAND_PX]

    def displacement(self, frame_index: int) -> float:
        t = frame_index / self.cfg.fps
        return self.cfg.amplitude_px * math.sin(self.cfg.phase_at(t))

    def offset(self, frame_index: int) -> int:
        """Rows the content (texture, boundary, walk rows, landmarks) sits below its start."""
        return _JUMP_DY_PX if frame_index >= self.jump_frame else 0

    def boundary_at(self, frame_index: int) -> float:
        return self.geom.boundary_y + self.offset(frame_index) + self.displacement(frame_index)

    def _fresh_planes(self, frames: int) -> tuple[np.ndarray, np.ndarray]:
        """A slot for a run of frames: the float64 (frames, h, w) plane and the uint8 output."""
        shape = self.cfg.meta.frame_shape
        return np.empty((frames, *shape[:2])), np.empty((frames, *shape), dtype=np.uint8)

    def _render_into(self, start: int, plane: np.ndarray) -> np.ndarray:
        """Frames start, start + 1, ... as float64 before quantization, one per ``plane[k]``."""
        cfg = self.cfg
        c, h, _ = plane.shape
        frames = range(start, start + c)
        dy = np.array([self.offset(i) for i in frames])
        # each frame's row values outside the chest (back) and on it (chest), (c, h)
        back = self._static_ext[(_TEMPLATE_PAD - dy)[:, None] + np.arange(h)]
        b = np.array([self.boundary_at(i) for i in frames])
        alpha = np.clip(b[:, None] - (np.arange(h, dtype=np.float64) - 0.5), 0.0, 1.0)
        chest = alpha * back + (1.0 - alpha) * self._chest_dark  # alpha: background coverage

        if self._walk_paths is not None:
            rows = np.clip(self.walk_rows + dy[:, None], 0, h - 1)
            walk = self._walk_paths[:, start : start + c].T
            for v in (back, chest):
                v[np.arange(c)[:, None], rows] += walk

        if cfg.illum_drift:
            lift = cfg.illum_drift * (np.arange(start, start + c) / cfg.fps)
            for v in (back, chest):
                v += lift[:, None]

        x0, x1 = self.geom.chest_x0, self.geom.chest_x1
        # normal(0, s) is 0.0 + s * z from the same draw: only a zero's sign can differ,
        # and adding the row value (IEEE addition commutes) removes that difference
        for k, i in enumerate(frames):
            np.random.default_rng([cfg.texture_seed, 2, i]).standard_normal(out=plane[k])
        plane *= cfg.noise_sigma
        plane[:, :, :x0] += back[:, :, None]
        plane[:, :, x1:] += back[:, :, None]
        plane[:, :, x0:x1] += chest[:, :, None]
        return plane

    def _quantize_into(self, start: int, plane: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Frames start, start + 1, ... as uint8 in ``out``.

        RGB24 repeats each frame's plane in every channel, so channel averaging is exact.
        """
        x = self._render_into(start, plane)
        np.clip(x, 0, 255, out=x)
        x += 0.5
        np.floor(x, out=x)
        channels = out.reshape(*x.shape, -1)
        for c in range(channels.shape[3]):  # from x: a copy between channels buffers its source
            np.copyto(channels[..., c], x, casting="unsafe")
        return out


def _write_frames(scene: _Scene, write) -> None:
    """write(start, frames) for every run of frames in index order, every other run rendered ahead.

    Runs of ``scene.run_frames`` frames render in two slots: the even runs in one on this
    thread, the odd runs in the other on the worker. The last run may be short. The pool is
    shut down before this returns or raises.
    """
    n, run = scene.cfg.frame_count, scene.run_frames
    mine, theirs = scene._fresh_planes(run), scene._fresh_planes(run)

    def render(start, slot):
        return scene._quantize_into(start, *(p[: n - start] for p in slot))

    with ThreadPoolExecutor(max_workers=1) as worker:
        for start in range(0, n, 2 * run):
            ahead = worker.submit(render, start + run, theirs) if start + run < n else None
            write(start, render(start, mine))
            if ahead is not None:
                write(start + run, ahead.result())


def generate(cfg: SynthConfig, out_path) -> SynthDataset:
    """Render a recording to disk: frames, manifest, ground truth, landmarks."""
    cfg.validate()
    scene = _Scene(cfg)  # it may still reject the walk rows: before any file is made
    out_dir = Path(out_path)
    if out_dir.exists() and any(out_dir.iterdir()):
        raise ValueError(f"output path {out_dir} exists and is not empty")
    out_dir.mkdir(parents=True, exist_ok=True)

    meta = cfg.meta
    write_manifest(out_dir / MANIFEST_NAME, meta)

    if cfg.container == "raw":
        video_path = out_dir / f"video{meta.raw_suffix}"
        with open(video_path, "wb") as fh:
            _write_frames(scene, lambda start, frames: fh.write(frames))
    else:
        video_path = out_dir

        def write_run(start, frames):
            for k, frame in enumerate(frames):
                write_pnm(out_dir / meta.frame_name(start + k), frame)

        _write_frames(scene, write_run)

    gt_path = out_dir / GROUND_TRUTH_NAME
    write_step_hold(gt_path, GROUND_TRUTH_HEADER, cfg.rr_segments)

    lm_path = out_dir / LANDMARKS_NAME
    lm0 = scene.geom.landmarks
    offsets = [scene.offset(i) for i in range(cfg.frame_count)]
    # a row at frame 0 and wherever the offset changes: the landmarks move with the content
    write_landmark_track(lm_path, [
        (i, LandmarkSet(*((x, y + dy) for x, y in (lm0.chin, lm0.left_ear, lm0.right_ear))))
        for i, dy in enumerate(offsets) if i == 0 or dy != offsets[i - 1]])

    return SynthDataset(
        out_dir=out_dir,
        video_path=video_path,
        ground_truth_path=gt_path,
        landmarks_path=lm_path,
        meta=meta,
        geometry=scene.geom,
    )
