"""Measuring the program from outside: a frame clock and an opt-in span tracer.

Both work by replacing a module attribute with a wrapper for the duration of
a ``with`` block, at the name the caller looks up at call time, and restore
the original afterwards. The untraced run installs only the frame clock.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import rrvision.pipeline as pipeline

# span name -> (module, attribute path) of the function wrapped for it
SPAN_TARGETS = {
    "ingest.to_grayscale": ("rrvision.pipeline", "to_grayscale"),
    "roi.roi_from_landmarks": ("rrvision.pipeline", "roi_from_landmarks"),
    "edges.canny": ("rrvision.pipeline", "canny"),
    "edges.dilate": ("rrvision.pipeline", "dilate"),
    "profile.extract_profile": ("rrvision.pipeline", "extract_profile"),
    "window.push_profile": ("rrvision.window", "MotionBuffer.push_profile"),
    "window.snapshot": ("rrvision.window", "MotionBuffer.snapshot"),
    "breathing.analyze_window": ("rrvision.pipeline", "analyze_window"),
    "breathing.select_and_group": ("rrvision.breathing", "select_and_group"),
    "breathing.smooth": ("rrvision.breathing", "smooth"),
    "breathing.detect_peaks": ("rrvision.breathing", "detect_peaks"),
    "breathing.instantaneous_rr": ("rrvision.breathing", "instantaneous_rr"),
    "breathing.best_group": ("rrvision.breathing", "best_group"),
    "pipeline.run_stream": ("rrvision.pipeline", "run_stream"),
    "evaluate.run_cell": ("rrvision.evaluate", "run_cell"),
    "synth.generate": ("rrvision.synth", "generate"),
}
# Seconds the host-speed probe takes on the reference host (a 2-vCPU x86_64
# VM, Python 3.11) when it runs at full speed. Timings are reported scaled
# to that speed: on a shared host the speed drifts by up to half within a
# minute, and that drift would hide any change of the program itself.
REFERENCE_PROBE_S = 0.015


def probe_seconds(tries: int = 7) -> float:
    """Seconds a fixed interpreter loop takes now; the median of `tries`.

    The loop runs no program code and allocates nothing, so its time follows
    only the host's speed and it leaves the process's memory as it was.
    """
    times = []
    for _ in range(tries):
        t0 = perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append(perf_counter() - t0)
    return sorted(times)[tries // 2]


def host_scale(before: float, after: float) -> float:
    """Factor that scales a time measured between two probe_seconds() to the reference host."""
    return REFERENCE_PROBE_S / ((before + after) / 2.0)


# the frame iterator's next() is traced by the frame clock
READ_SPAN = "ingest.read"
# traced during set-up, by run.py; every other span during the timed phase
SETUP_SPAN = "synth.generate"
SPAN_NAMES = (READ_SPAN, *SPAN_TARGETS)


def _resolve(module: str, path: str):
    """(owner, attribute name), or None when a refactor removed the target."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p, None)
        if owner is None:
            return None
    return (owner, attr) if hasattr(owner, attr) else None


@contextmanager
def _patched(owner, attr: str, replacement):
    original = getattr(owner, attr)
    setattr(owner, attr, replacement)
    try:
        yield original
    finally:
        setattr(owner, attr, original)


class Tracer:
    """In-memory spans of one thread, plus counters fed by span results."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent_id, name, start, end)
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._next_id = 0

    def open(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent, perf_counter()

    def close(self, token, name: str) -> None:
        end = perf_counter()
        sid, parent, start = token
        self._stack.pop()
        self.spans.append((sid, parent, name, start, end))

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def wrap(self, name: str, fn):
        """fn with every call recorded as a span; a generator spans its whole life."""
        on_result = _COUNTERS.get(name)
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                token = self.open()
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    self.close(token, name)

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = self.open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(token, name)
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    @contextmanager
    def installed(self, names):
        """Wrap the named targets; yields the names whose target no longer exists."""
        absent = []
        with ExitStack() as stack:
            for name in names:
                target = _resolve(*SPAN_TARGETS[name])
                if target is None:
                    absent.append(name)
                    continue
                owner, attr = target
                stack.enter_context(_patched(owner, attr, self.wrap(name, getattr(owner, attr))))
            yield absent

    def write_jsonl(self, path, phase: str) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"phase": phase, "id": sid, "parent": parent, "name": name,
                         "start": start, "end": end}
                    )
                    + "\n"
                )


def _count_mask(tracer: Tracer, mask) -> None:
    tracer.add("edges.mask_px", float(mask.sum()))
    tracer.add("edges.roi_px", float(mask.size))


def _count_prediction(tracer: Tracer, prediction) -> None:
    tracer.add("breathing.windows", 1.0)
    tracer.add("breathing.valid", float(prediction.valid))


def _count_snapshot(tracer: Tracer, window) -> None:
    tracer.add("window.snapshot.bytes", float(window.matrix.nbytes))


_COUNTERS = {
    "edges.dilate": _count_mask,
    "breathing.analyze_window": _count_prediction,
    "window.snapshot": _count_snapshot,
}


@dataclass
class StreamClock:
    """Request timestamps of one stream: stamps[i] is when frame i was asked for."""

    fps: float
    cfg: object  # the stream's RunConfig
    stamps: list[float] = field(default_factory=list)

    @property
    def service_s(self) -> list[float]:
        """Time from requesting frame i to requesting frame i+1 (or the end)."""
        return [b - a for a, b in zip(self.stamps, self.stamps[1:])]


class FrameClock:
    """Timestamps every frame request of every stream rrvision.pipeline opens.

    It also wraps run_stream's entry, once per stream, only to note the
    stream's RunConfig; the frame iterator carries the per-frame cost.
    """

    def __init__(self):
        self.streams: list[StreamClock] = []
        self.tracer: Tracer | None = None
        self._cfg = None

    def take(self) -> list[StreamClock]:
        streams, self.streams = self.streams, []
        return streams

    def _frames(self, frames, clock: StreamClock):
        stamps = clock.stamps
        it = iter(frames)
        while True:
            stamps.append(perf_counter())
            tracer = self.tracer
            token = tracer.open() if tracer is not None else None
            try:
                frame = next(it)
            except StopIteration:
                return
            finally:
                if token is not None:
                    tracer.close(token, READ_SPAN)
            if tracer is not None:
                tracer.add("ingest.read.bytes", float(frame.data.nbytes))
            yield frame

    @contextmanager
    def installed(self):
        open_source = pipeline.open_source
        run_stream = pipeline.run_stream

        @functools.wraps(open_source)
        def timed_open_source(path):
            meta, frames = open_source(path)
            clock = StreamClock(meta.fps, self._cfg)
            self.streams.append(clock)
            return meta, self._frames(frames, clock)

        @functools.wraps(run_stream)
        def noted_run_stream(video_path, cfg, *args, **kwargs):
            self._cfg = cfg
            yield from run_stream(video_path, cfg, *args, **kwargs)

        with _patched(pipeline, "open_source", timed_open_source), _patched(
            pipeline, "run_stream", noted_run_stream
        ):
            yield self
