"""One timed phase of a benchmark run, in a process that does nothing else.

run.py renders the inputs, writes a spec JSON and starts
``python3 phase.py SPEC``. This process runs the workload through the public
API until the spec's seconds have passed (always at least one whole unit: a
replay of the stream, or one full ablation), checks every output, and prints
one JSON object as its last line. Keeping the phase in its own process makes
its resident high-water mark the phase's own.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import rrvision.evaluate as evaluate
import rrvision.pipeline as pipeline
from rrvision.config import RunConfig
from rrvision.evaluate import RecordingSpec, load_ground_truth, score

from instrument import (
    SETUP_SPAN,
    SPAN_NAMES,
    SPAN_TARGETS,
    FrameClock,
    StreamClock,
    Tracer,
    host_scale,
    probe_seconds,
)
from measure import (
    epoch_start_frames,
    open_loop,
    percentile,
    span_layer,
    span_stats,
    window_end_frames,
)
from workloads import CORPUS

PREDICTION_HEADER = "t_seconds,rr_bpm,group_index,n_peaks,valid"

# acceptance-suite bars for the default configuration
MAX_MAE_BPM = 1.0
MIN_SR2_PCT = 95.0
MIN_VALID_SHARE = 0.90
DEFAULT_CELL = ("edges", 0.30)


@dataclass
class Unit:
    wall_s: float
    streams: list[StreamClock]
    scale: float  # host_scale over the unit: multiply its raw times by it


def prediction_csv(predictions) -> str:
    """Predictions formatted exactly as ``rrvision run`` writes them."""
    lines = [PREDICTION_HEADER]
    for p in predictions:
        rr = f"{p.rr_bpm:.4f}" if p.valid else ""
        group = str(p.group_index) if p.valid else ""
        lines.append(f"{p.t:.3f},{rr},{group},{p.n_peaks},{int(p.valid)}")
    return "\n".join(lines) + "\n"


def cadence_problems(predictions, n_frames: int, fps: float, schedule) -> list[str]:
    """One prediction per step, at the expected times, strictly increasing."""
    ends = window_end_frames(n_frames, fps, schedule.window_s, schedule.step_s)
    ts = [p.t for p in predictions]
    if len(ts) != len(ends):
        return [f"{len(ts)} predictions, expected one per step: {len(ends)}"]
    if any(b <= a for a, b in zip(ts, ts[1:])):
        return ["prediction times not strictly increasing"]
    if len(ts) and np.max(np.abs(np.asarray(ts) - (ends + 1) / fps)) > 1e-6:
        return ["prediction times off the step schedule"]
    return []


def accuracy_problems(mae, sr2, valid_share) -> list[str]:
    problems = []
    if mae is None or mae > MAX_MAE_BPM:
        problems.append(f"MAE {mae} BPM above {MAX_MAE_BPM}")
    if sr2 is None or sr2 < MIN_SR2_PCT:
        problems.append(f"SR2 {sr2}% below {MIN_SR2_PCT}")
    if valid_share < MIN_VALID_SHARE:
        problems.append(f"valid share {valid_share:.3f} below {MIN_VALID_SHARE}")
    return problems


class Phase:
    def __init__(self, spec: dict):
        self.spec = spec
        self.cfg = RunConfig.from_dict({"schedule": spec["schedule"]})
        self.cfg.validate()
        self.recordings = [
            RecordingSpec(Path(r["video"]), Path(r["ground_truth"]), Path(r["landmarks"]))
            for r in spec["recordings"]
        ]
        self.frames = [(r["frame_count"], r["fps"]) for r in spec["recordings"]]
        self.clock = FrameClock()
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.csv: str | None = None
        self.accuracy: dict = {}

    # --- units ----------------------------------------------------------

    def _stream_unit(self):
        rec = self.recordings[0]
        stream = pipeline.run_stream(rec.video_path, self.cfg, landmarks_path=rec.landmarks_path)
        return list(stream)

    def _corpus_unit(self):
        return evaluate.ablation(self.recordings, self.cfg)

    def run_units(self, seconds: float) -> list[Unit]:
        """Whole units until `seconds` have passed; stops at the first failure."""
        unit = self._corpus_unit if self.spec["kind"] == CORPUS else self._stream_unit
        units: list[Unit] = []
        t_end = perf_counter() + seconds
        probe_before = probe_seconds()
        while not units or perf_counter() < t_end:
            t0 = perf_counter()
            try:
                output = unit()
            except Exception:  # a unit boundary: report the failure, never crash the run
                self._record(self._unit_size(), ["unit raised:\n" + traceback.format_exc()])
                self.clock.take()
                break
            wall_s = perf_counter() - t0
            probe_after = probe_seconds()
            units.append(Unit(wall_s, self.clock.take(), host_scale(probe_before, probe_after)))
            probe_before = probe_after
            if not self._check_unit(output):
                break
        return units

    def _unit_size(self) -> int:
        """Recording runs one unit attempts."""
        return 4 * len(self.recordings) if self.spec["kind"] == CORPUS else 1

    # --- output checks --------------------------------------------------

    def _check_unit(self, output) -> bool:
        if self.spec["kind"] == CORPUS:
            return self._check_cells(output)
        return self._check_stream(output)

    def _check_stream(self, predictions) -> bool:
        n_frames, fps = self.frames[0]
        problems = cadence_problems(predictions, n_frames, fps, self.cfg.schedule)
        csv = prediction_csv(predictions)
        if self.csv is None:
            m = score(predictions, load_ground_truth(self.recordings[0].ground_truth_path))
            self._set_accuracy(m)
            problems += accuracy_problems(m.mae, m.sr2, self.accuracy["valid_share"])
            self.csv = csv
        elif csv != self.csv:
            problems.append("a replay gave different predictions than the first")
        return self._record(1, problems)

    def _check_cells(self, cells) -> bool:
        expected = sum(
            len(window_end_frames(n, fps, self.cfg.schedule.window_s, self.cfg.schedule.step_s))
            for n, fps in self.frames
        )
        problems = []
        if not any((c.profile_mode, round(c.fraction, 6)) == DEFAULT_CELL for c in cells):
            problems.append(f"no {DEFAULT_CELL} cell in the ablation")
        for c in cells:
            label = f"{c.profile_mode}/{c.fraction:.2f}"
            if c.error is not None:
                problems.append(f"cell {label} failed: {c.error}")
            elif c.metrics.n + c.metrics.invalid_count != expected:
                problems.append(f"cell {label} scored {c.metrics.n + c.metrics.invalid_count} "
                                f"windows, expected {expected}")
            elif (c.profile_mode, round(c.fraction, 6)) == DEFAULT_CELL:
                self._set_accuracy(c.metrics)
                problems += accuracy_problems(
                    c.metrics.mae, c.metrics.sr2, self.accuracy["valid_share"]
                )
        if len(cells) != 4:
            problems.append(f"{len(cells)} ablation cells, expected 4")
        return self._record(self._unit_size(), problems)

    def check_recordings(self) -> None:
        """Untimed default-configuration pass over the corpus: cadence and prediction rows.

        It also warms up every code path before the timed ablation.
        """
        texts = []
        for rec, (n_frames, fps) in zip(self.recordings, self.frames):
            try:
                predictions = pipeline.run_recording(
                    rec.video_path, self.cfg, landmarks_path=rec.landmarks_path
                )
            except Exception:  # count the recording as failed and go on with the next
                name = rec.video_path.parent.name
                self._record(1, [f"{name} raised:\n" + traceback.format_exc()])
                continue
            self._record(1, cadence_problems(predictions, n_frames, fps, self.cfg.schedule))
            texts.append(prediction_csv(predictions))
        self.clock.take()
        self.csv = "".join(texts)

    def _record(self, n: int, problems: list[str]) -> bool:
        self.attempted += n
        if problems:
            self.failed += n
            self.problems += problems
        return not problems

    def _set_accuracy(self, m) -> None:
        total = m.n + m.invalid_count
        self.accuracy = {
            "mae_bpm": m.mae,
            "sr2_pct": m.sr2,
            "invalid_share": m.invalid_count / total if total else 1.0,
            "valid_share": m.n / total if total else 0.0,
            "windows_scored": total,
        }

    # --- the phase --------------------------------------------------------

    def run(self) -> dict:
        seconds = float(self.spec["seconds"])
        result: dict = {}
        with self.clock.installed():
            if self.spec["kind"] == CORPUS:
                self.check_recordings()
            if self.spec["trace"]:
                # alternate untraced and traced units, so the machine's drift
                # does not land on one side of the tracing-overhead comparison
                tracer = Tracer()
                base: list[Unit] = []
                units: list[Unit] = []
                absent: list[str] = []
                t_end = perf_counter() + seconds
                while not self.problems and (not units or perf_counter() < t_end):
                    base += self.run_units(0.0)
                    self.clock.tracer = tracer
                    with tracer.installed([n for n in SPAN_TARGETS if n != SETUP_SPAN]) as absent:
                        units += self.run_units(0.0)
                    self.clock.tracer = None
                tracer.write_jsonl(self.spec["spans_path"], "timed")
                result["layers"] = layer_metrics(tracer, units, base)
                result["absent"] = absent
            else:
                units = self.run_units(seconds)
        result.update(timing_metrics(units))
        result.update(
            correct=not self.problems,
            attempted=self.attempted,
            failed=self.failed,
            problems=self.problems,
            accuracy=self.accuracy,
            predictions_sha256=hashlib.sha256((self.csv or "").encode()).hexdigest(),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        return result


def median_streams(units: list[Unit]) -> list[tuple[StreamClock, np.ndarray]]:
    """Each stream with, per frame, its median scaled service time over the units.

    Every unit repeats the same streams of the same frames, so frame i of
    stream j is the same work in each.
    """
    shapes = [[len(st.service_s) for st in u.streams] for u in units]
    if any(s != shapes[0] for s in shapes):  # a failed unit stopped early
        units = units[:1]
    medians = []
    for j, st in enumerate(units[0].streams):
        service = np.vstack([np.asarray(u.streams[j].service_s) * u.scale for u in units])
        medians.append((st, np.median(service, axis=0)))
    return medians


def timing_metrics(units: list[Unit]) -> dict:
    """End-to-end figures of the timed units, with the counts they rest on.

    Times are scaled to the host at full speed (instrument.host_scale).
    Each figure is the median over the units: the median unit for throughput
    and wall, the median repeat of each frame for per-frame figures. Those
    cover the streams of the default configuration only: the ablation runs
    its four cells on equal numbers of frames, at different per-frame
    costs, and a percentile over that even mix would fall on a gap between
    two costs.
    """
    if not units:
        return {"metrics": {}, "counts": {}}
    service, epoch_s, latency_s = [], [], []
    backlog_max = 0
    for st, s in median_streams(units):
        latency, backlog = open_loop(s, st.fps)
        backlog_max = max(backlog_max, int(backlog.max(initial=0)))
        if (st.cfg.profile_mode, round(st.cfg.breathing.top_frac, 6)) != DEFAULT_CELL:
            continue
        sched = st.cfg.schedule
        service.append(s)
        epoch_s.append(s[epoch_start_frames(len(s), st.fps, sched.reest_s)])
        latency_s.append(latency[window_end_frames(len(s), st.fps, sched.window_s, sched.step_s)])
    service, epoch_s, latency_s = (
        np.concatenate(a) if a else np.zeros(0) for a in (service, epoch_s, latency_s)
    )
    unit_frames = sum(len(st.service_s) for st in units[0].streams)
    unit_wall = float(np.median([u.wall_s * u.scale for u in units]))
    return {
        "metrics": {
            "frames_per_s": unit_frames / unit_wall,
            "frame_ms_p50": _ms(service, 50),
            "frame_ms_p99": _ms(service, 99),
            "epoch_frame_ms_p50": _ms(epoch_s, 50),
            "rr_latency_ms_p50": _ms(latency_s, 50),
            "eval_wall_s": unit_wall,
        },
        "counts": {
            "units": len(units),
            "streams_per_unit": len(units[0].streams),
            "frames_per_unit": unit_frames,
            "timed_wall_s": sum(u.wall_s for u in units),
            "host_scale_min": min(u.scale for u in units),
            "host_scale_max": max(u.scale for u in units),
            "frames_in_percentiles": len(service),
            "epoch_frames": len(epoch_s),
            "windows": len(latency_s),
            "backlog_frames_max": backlog_max,
        },
    }


def _ms(seconds: np.ndarray, q: float) -> float | None:
    """A percentile in milliseconds; None when a failed run left no samples."""
    return percentile(seconds, q) * 1e3 if len(seconds) else None


def layer_metrics(tracer: Tracer, units: list[Unit], base: list[Unit]) -> dict:
    """Per-layer figures of the traced `units`; `base` ran untraced just before them."""
    wall = sum(u.wall_s for u in units)
    stats = span_stats(tracer.spans)
    layers = {}
    for name in SPAN_NAMES:
        if name != SETUP_SPAN:
            layers.update(span_layer(name, stats.get(name), wall))
    c = tracer.counts
    untraced_fps = timing_metrics(base)["metrics"].get("frames_per_s")
    traced_fps = timing_metrics(units)["metrics"].get("frames_per_s")
    layers.update(
        {
            "ingest.read.bytes": c.get("ingest.read.bytes", 0.0),
            "window.snapshot.bytes": c.get("window.snapshot.bytes", 0.0),
            "edges.mask_coverage": c["edges.mask_px"] / c["edges.roi_px"]
            if c.get("edges.roi_px") else 0.0,
            "breathing.valid_share": c["breathing.valid"] / c["breathing.windows"]
            if c.get("breathing.windows") else 0.0,
            "trace.frames_per_s_untraced": untraced_fps,
            "trace.frames_per_s_traced": traced_fps,
            "trace.overhead_pct": (untraced_fps / traced_fps - 1.0) * 100.0
            if untraced_fps and traced_fps else None,
            # from the untraced unit, so tracing cost does not inflate the queue
            "pipeline.backlog_frames_max": timing_metrics(base)["counts"].get(
                "backlog_frames_max", 0
            ),
        }
    )
    return layers


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    result = Phase(spec).run()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
