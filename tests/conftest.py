import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rrvision
from rrvision.config import RunConfig
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


# Every block of 128 KiB or more is a fresh mapping, and the heap is never trimmed.
_PINNED_MALLOC = "glibc.malloc.mmap_threshold=131072:glibc.malloc.trim_threshold=1073741824"
glibc_only = pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                                reason="pins glibc malloc, counts Linux faults")


def minor_faults_under_pinned_malloc(probe: str) -> list[int]:
    """The integers a probe script prints, run in a fresh interpreter under _PINNED_MALLOC.

    Pinning malloc keeps a fault count from depending on how earlier
    allocations left the heap: a float64 plane allocated per call then faults
    all its pages at every call, while the heap's smaller blocks, reused from
    earlier calls, fault none.
    """
    env = dict(os.environ, GLIBC_TUNABLES=_PINNED_MALLOC, PYTHONPATH=os.pathsep.join(
        [str(Path(rrvision.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    return [int(v) for v in proc.stdout.split()]


@pytest.fixture(scope="session")
def cadence_recording(tmp_path_factory):
    """60 s at 30 FPS: the canonical cadence / CLI fixture."""
    return make_recording(tmp_path_factory.mktemp("cadence") / "rec", texture_seed=11)


@pytest.fixture
def run_config():
    return RunConfig()
