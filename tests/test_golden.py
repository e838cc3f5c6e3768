"""Golden outputs: refactors of the frame path or the analysis must not move any output.

Two small 160x120 recordings (RGB24 raw, and a GRAY8 PGM directory whose
scene jumps mid-stream) run through ``rrvision run`` in every profile mode
x signal fraction x re-estimation period below. The rows it writes must
equal the committed files under ``tests/golden/`` byte for byte.

The same two recordings plus one with loud random-walk rows form the corpus
of the ablation tables: ``evaluate.format_table`` over ``ablation``'s four
cells, and over ``run_cell``'s cells of each profile mode at fractions that
also fall below the group fraction (0.02) and between the defaults (0.15).
The tables are the only output that shows ``best_group_ge2_share``.

The synthetic generator is pinned by the sha256 of every file ``generate``
writes for six short recordings, one per container and stressor: a changed
pixel that moves no prediction row still fails. ``generate`` renders runs of
frames on two threads, so the same digests are also taken in a child process
pinned to one CPU, where the worker must neither stall nor change a byte. Each
of the six fits in one run, which leaves the worker idle, so the child also
renders a recording of several runs, and its bytes must equal an in-process
render's.

Canny itself is pinned at deployment size: the uint8 landmark ROI (320x240)
of a seeded 640x480 RGB24 scene, at a few frames and three blur sigmas, as
the sha256 of each packed edge mask. The recordings above only ever run Canny on
80x60 ROIs.

To rewrite the files after an intended output change, run
``PYTHONPATH=src python3 tests/test_golden.py`` and say why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import rrvision
from rrvision import evaluate
from rrvision.cli import main
from rrvision.config import CannyConfig, RoiGeometryConfig, RunConfig
from rrvision.edges import canny
from rrvision.roi import roi_from_landmarks
from rrvision.synth import SynthConfig, _Scene, generate

from conftest import make_recording

GOLDEN_DIR = Path(__file__).parent / "golden"

RECORDINGS = {
    "rgb24_raw": dict(pixel_format="RGB24", container="raw", texture_seed=41),
    "gray8_pgm_jump": dict(
        pixel_format="GRAY8", container="images", texture_seed=42, roi_jump_at_s=12.0
    ),
}
MODES = ("edges", "full_roi")
FRACTIONS = ("0.05", "0.30")
REEST_S = ("20", "5")
DURATION_S = 24.0
# the ablation corpus adds one recording whose loudest rows are random walks
WALK_RECORDING = dict(texture_seed=43, walk_row_frac=0.05, walk_amplitude=100.0)
ABLATIONS = {
    "default": lambda specs: evaluate.ablation(specs, RunConfig()),
    "fractions": lambda specs: [
        c for mode in ("full_roi", "edges")
        for c in evaluate.run_cell(specs, RunConfig(), mode, (0.02, 0.05, 0.15, 0.30))
    ],
}
VGA_SCENE = dict(
    width=640, height=480, fps=30.0, duration_s=4.0, rr_segments=[(0.0, 15.0)],
    noise_sigma=2.0, pixel_format="RGB24", texture_seed=7,
)
# short recordings whose written files are pinned by digest: each container and stressor
SYNTH_BASE = dict(width=96, height=72, fps=30.0, duration_s=1.0, rr_segments=[(0.0, 15.0)],
                  noise_sigma=2.0)
SYNTH_RECORDINGS = {
    "rgb24_raw_noise": dict(pixel_format="RGB24", texture_seed=51),
    "gray8_raw_walk_drift": dict(pixel_format="GRAY8", texture_seed=52, walk_row_frac=0.1,
                                 walk_amplitude=30.0, illum_drift=4.0),
    "gray8_raw_jump": dict(pixel_format="GRAY8", texture_seed=53, roi_jump_at_s=0.5,
                           rr_segments=[(0.0, 12.0), (0.4, 24.0)]),
    "rgb24_raw_noiseless": dict(pixel_format="RGB24", texture_seed=54, noise_sigma=0.0),
    "rgb24_ppm": dict(pixel_format="RGB24", container="images", texture_seed=55,
                      duration_s=0.5),
    "gray8_pgm": dict(pixel_format="GRAY8", container="images", texture_seed=56,
                      duration_s=0.5, illum_drift=-3.0),
}
# six of generate's 16-frame runs, so the one-CPU child starts the worker; the jump
# (frame 27) falls inside the first run the worker renders
RUNS_RECORDING = dict(width=160, height=120, fps=30.0, duration_s=3.0, pixel_format="RGB24",
                      texture_seed=57, walk_row_frac=0.1, walk_amplitude=30.0,
                      illum_drift=2.0, roi_jump_at_s=0.9)
VGA_FRAMES = (0, 30, 60)  # a quarter and a half breath apart
VGA_SIGMAS = (1.0, 1.4, 2.0)

CASES = [
    (rec, mode, frac, reest)
    for rec in RECORDINGS
    for mode in MODES
    for frac in FRACTIONS
    for reest in REEST_S
]


def case_name(rec: str, mode: str, frac: str, reest: str) -> str:
    return f"{rec}_{mode}_{frac}_reest{reest}"


def render(root: Path) -> dict:
    return {
        name: make_recording(root / name, duration_s=DURATION_S, **params)
        for name, params in RECORDINGS.items()
    }


def ablation_table(recordings: dict, walk, cells) -> str:
    specs = [
        evaluate.RecordingSpec(ds.video_path, ds.ground_truth_path, ds.landmarks_path)
        for ds in (*recordings.values(), walk)
    ]
    return evaluate.format_table(cells(specs))


def vga_edge_masks() -> str:
    """One CSV row per (frame, sigma): the edge count and the sha256 of the packed mask."""
    scene = _Scene(SynthConfig(**VGA_SCENE))
    roi = roi_from_landmarks(scene.geom.landmarks, scene.cfg.meta, RoiGeometryConfig())
    rows = ["frame,sigma,edge_pixels,packbits_sha256"]
    for i in VGA_FRAMES:
        frame = scene._quantize_into(i, *scene._fresh_planes(1))[0]  # uint8 RGB24, as read
        crop = roi.crop(frame)
        for sigma in VGA_SIGMAS:
            mask = canny(crop, CannyConfig(sigma=sigma))
            digest = hashlib.sha256(np.packbits(mask).tobytes()).hexdigest()
            rows.append(f"{i},{sigma},{int(mask.sum())},{digest}")
    return "\n".join(rows) + "\n"


def synth_digests(root: Path) -> str:
    """One CSV row per file ``generate`` writes: recording, relative path, sha256."""
    rows = ["recording,file,sha256"]
    for name, params in SYNTH_RECORDINGS.items():
        out = root / name
        generate(SynthConfig(**{**SYNTH_BASE, **params}), out)
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            rows.append(f"{name},{path.relative_to(out).as_posix()},{digest}")
    return "\n".join(rows) + "\n"


def predictions(ds, mode: str, frac: str, reest: str, out: Path) -> str:
    code = main(
        [
            "run", str(ds.video_path), "--landmarks", str(ds.landmarks_path),
            "--profile-mode", mode, "--top-frac", frac, "--reest-s", reest,
            "--out", str(out),
        ]
    )
    assert code == 0
    return out.read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def recordings(tmp_path_factory):
    return render(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def walk_recording(tmp_path_factory):
    return make_recording(
        tmp_path_factory.mktemp("golden_walk"), duration_s=DURATION_S, **WALK_RECORDING
    )


@pytest.mark.parametrize("case", CASES, ids=[case_name(*c) for c in CASES])
def test_predictions_match_golden(case, recordings, tmp_path):
    rec, mode, frac, reest = case
    got = predictions(recordings[rec], mode, frac, reest, tmp_path / "out.csv")
    want = (GOLDEN_DIR / f"{case_name(*case)}.csv").read_text(encoding="utf-8")
    assert got == want


@pytest.mark.parametrize("name", ABLATIONS)
def test_ablation_table_matches_golden(name, recordings, walk_recording):
    got = ablation_table(recordings, walk_recording, ABLATIONS[name])
    assert got == (GOLDEN_DIR / f"ablation_{name}.csv").read_text(encoding="utf-8")


def test_synth_files_match_golden(tmp_path):
    got = synth_digests(tmp_path)
    assert got == (GOLDEN_DIR / "synth_sha256.csv").read_text(encoding="utf-8")


# pins itself before numpy starts a thread, so every thread it starts inherits the one CPU
ONE_CPU_CHILD = """import os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from pathlib import Path
import test_golden
out = Path(sys.argv[1])
sys.stdout.write(test_golden.synth_digests(out))
test_golden.generate(test_golden.SynthConfig(**test_golden.RUNS_RECORDING), out / "runs")
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity to set")
def test_synth_files_match_golden_on_one_cpu(tmp_path):
    paths = (Path(rrvision.__file__).parents[1], Path(__file__).parent)  # rrvision, tests
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, paths))}
    child = tmp_path / "child"
    proc = subprocess.run([sys.executable, "-c", ONE_CPU_CHILD, str(child)], env=env,
                          capture_output=True, encoding="utf-8", timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN_DIR / "synth_sha256.csv").read_text(encoding="utf-8")
    cfg = SynthConfig(**RUNS_RECORDING)
    assert cfg.frame_count >= 4 * _Scene(cfg).run_frames
    here = generate(cfg, tmp_path / "here")
    assert (child / "runs" / here.video_path.name).read_bytes() == here.video_path.read_bytes()


def test_vga_edge_masks_match_golden():
    assert vga_edge_masks() == (GOLDEN_DIR / "canny_vga_masks.csv").read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    (GOLDEN_DIR / "canny_vga_masks.csv").write_text(vga_edge_masks(), encoding="utf-8")
    print("wrote canny_vga_masks.csv")
    with tempfile.TemporaryDirectory() as tmp:
        digests = synth_digests(Path(tmp) / "synth")
        (GOLDEN_DIR / "synth_sha256.csv").write_text(digests, encoding="utf-8")
        print("wrote synth_sha256.csv")
        recs = render(Path(tmp))
        for case in CASES:
            name = case_name(*case)
            rows = predictions(recs[case[0]], *case[1:], Path(tmp) / "out.csv")
            (GOLDEN_DIR / f"{name}.csv").write_text(rows, encoding="utf-8")
            print(f"wrote {name}.csv")
        walk = make_recording(Path(tmp) / "walk", duration_s=DURATION_S, **WALK_RECORDING)
        for name, cells in ABLATIONS.items():
            table = ablation_table(recs, walk, cells)
            (GOLDEN_DIR / f"ablation_{name}.csv").write_text(table, encoding="utf-8")
            print(f"wrote ablation_{name}.csv")
