"""Respiratory rate estimation from visible-light video.

Tracks chest motion as per-row pixel-intensity changes over a sliding
window, builds candidate respiratory waves from grouped motion signals, and
emits one breaths-per-minute value per second.
"""

from .breathing import RRPrediction, analyze_window
from .config import (
    BreathingConfig,
    CannyConfig,
    RoiGeometryConfig,
    RunConfig,
    ScheduleConfig,
)
from .evaluate import EvalMetrics, ablation, score
from .pipeline import run_recording, run_stream
from .synth import SynthConfig, generate

__version__ = "0.1.0"

__all__ = [
    "BreathingConfig",
    "CannyConfig",
    "EvalMetrics",
    "RoiGeometryConfig",
    "RRPrediction",
    "RunConfig",
    "ScheduleConfig",
    "SynthConfig",
    "ablation",
    "analyze_window",
    "generate",
    "run_recording",
    "run_stream",
    "score",
    "__version__",
]
