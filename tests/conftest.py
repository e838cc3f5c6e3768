import tracemalloc

import numpy as np
import pytest

from rrvision.synth import SynthConfig, generate
from rrvision.window import MotionWindow


def make_recording(out_dir, **overrides):
    """Small GRAY8 synthetic recording with sensible test defaults."""
    params = dict(
        width=160,
        height=120,
        fps=30.0,
        duration_s=60.0,
        rr_segments=[(0.0, 15.0)],
        noise_sigma=2.0,
        pixel_format="GRAY8",
        texture_seed=0,
    )
    params.update(overrides)
    return generate(SynthConfig(**params), out_dir)


def window_from_rows(rows, fs=30.0) -> MotionWindow:
    matrix = np.asarray(rows, dtype=np.float64)
    return MotionWindow(matrix=matrix, fs=fs, end_frame=matrix.shape[1] - 1)


def traced_peak(call):
    """call() and the peak bytes tracemalloc traced while it ran, which counts numpy's buffers."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def cadence_recording(tmp_path_factory):
    """60 s at 30 FPS: the canonical cadence / CLI fixture."""
    return make_recording(tmp_path_factory.mktemp("cadence") / "rec", texture_seed=11)
