"""Pure arithmetic on measurements: stream schedules, open-loop replay, span self time."""

from __future__ import annotations

from collections import defaultdict

import numpy as np


def window_end_frames(n_frames: int, fps: float, window_s: float, step_s: float) -> np.ndarray:
    """Indices of the frames whose processing emits a prediction.

    The first window closes once window_s seconds of columns are buffered;
    after that one closes every step_s seconds.
    """
    n_cols = int(round(window_s * fps))
    step = int(round(step_s * fps))
    return np.arange(n_cols - 1, n_frames, step)


def epoch_start_frames(n_frames: int, fps: float, reest_s: float) -> np.ndarray:
    """Indices of the frames that re-estimate ROI and edge mask (frame 0, then every reest_s)."""
    return np.arange(0, n_frames, int(round(reest_s * fps)))


def open_loop(service_s, fps: float) -> tuple[np.ndarray, np.ndarray]:
    """Replay measured service times against frames arriving at the native rate.

    Frame i is due at i/fps and completes at c_i = max(c_{i-1}, due_i) + s_i,
    which is exact for a single-threaded pull pipeline. Returns each frame's
    latency c_i - due_i and the backlog when it completes: frames already due
    that have not started yet.
    """
    s = np.asarray(service_s, dtype=np.float64)
    due = np.arange(len(s)) / fps
    done = np.cumsum(s)
    # unrolled recurrence: c_i = S_i + max_{k<=i}(due_k - S_{k-1})
    completion = done + np.maximum.accumulate(due - (done - s))
    backlog = np.searchsorted(due, completion, side="right") - np.arange(1, len(s) + 1)
    return completion - due, np.maximum(backlog, 0)


def span_stats(spans) -> dict[str, dict]:
    """Per-name calls, self seconds and inclusive per-call milliseconds.

    ``spans`` holds (id, parent_id, name, start, end) tuples of one thread;
    a span's self time is its duration minus the durations of its direct
    children, which never overlap.
    """
    child_time: dict[int, float] = defaultdict(float)
    for _, parent, _, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    by_name: dict[str, dict] = {}
    for sid, _, name, start, end in spans:
        s = by_name.setdefault(name, {"calls": 0, "self_s": 0.0, "durations_ms": []})
        s["calls"] += 1
        s["self_s"] += (end - start) - child_time[sid]
        s["durations_ms"].append((end - start) * 1000.0)
    return by_name


def span_layer(name: str, s: dict | None, wall_s: float) -> dict:
    """calls / self_s / ms_p50 / share of one span name (zeros when never called)."""
    if s is None:
        return {f"{name}.calls": 0, f"{name}.self_s": 0.0, f"{name}.ms_p50": 0.0,
                f"{name}.share": 0.0}
    return {
        f"{name}.calls": s["calls"],
        f"{name}.self_s": s["self_s"],
        f"{name}.ms_p50": percentile(s["durations_ms"], 50),
        f"{name}.share": s["self_s"] / wall_s,
    }


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))
