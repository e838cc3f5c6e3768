"""Tests of the benchmark itself: replay and span arithmetic, output format, a tiny run.

    python3 -m pytest perfbench/tests -q
"""

import json

import numpy as np
import pytest

import instrument
import run
from measure import epoch_start_frames, open_loop, span_stats, window_end_frames
from phase import Unit, prediction_csv, timing_metrics
from workloads import CORPUS, STREAM, Workload


def test_open_loop_replay_with_stall():
    # 4 fps: frames due every 0.25 s; frame 2 stalls for 0.875 s (all exact in binary)
    service = [0.125, 0.125, 0.875, 0.125, 0.125, 0.125, 0.125]
    latency, backlog = open_loop(service, fps=4.0)
    # c = 0.125, 0.375, 1.375, 1.5, 1.625, 1.75, 1.875 against due = i / 4
    assert latency.tolist() == [0.125, 0.125, 0.875, 0.75, 0.625, 0.5, 0.375]
    # at 1.375 frames 3..5 are due and waiting; the queue drains one per 0.125 s after
    assert backlog.tolist() == [0, 0, 3, 3, 2, 1, 0]


def test_open_loop_matches_recurrence():
    rng = np.random.default_rng(3)
    service = rng.exponential(0.03, size=500)
    fps = 30.0
    latency, _ = open_loop(service, fps)
    c = -np.inf
    want = []
    for i, s in enumerate(service):
        c = max(c, i / fps) + s
        want.append(c - i / fps)
    assert latency == pytest.approx(want, abs=1e-12)


def test_host_scale_is_reference_over_mean_probe_time():
    ref = instrument.REFERENCE_PROBE_S
    assert instrument.host_scale(ref, ref) == pytest.approx(1.0)
    # the probe took 1.5x then 2.5x its reference time: the host ran at half speed
    assert instrument.host_scale(1.5 * ref, 2.5 * ref) == pytest.approx(0.5)


def test_timing_metrics_scale_each_unit_then_take_medians():
    from rrvision.config import RunConfig

    cfg = RunConfig()

    def unit(service, scale):
        clock = instrument.StreamClock(fps=10.0, cfg=cfg)
        clock.stamps = np.concatenate([[0.0], np.cumsum(service)]).tolist()
        return Unit(wall_s=float(sum(service)), streams=[clock], scale=scale)

    # the same 4 frames three times; on a host at half speed each took twice as long
    units = [unit([0.02] * 4, 1.0), unit([0.04] * 4, 0.5), unit([0.10] * 4, 1.0)]
    m = timing_metrics(units)["metrics"]
    assert m["frame_ms_p50"] == pytest.approx(20.0)
    assert m["eval_wall_s"] == pytest.approx(0.08)
    assert m["frames_per_s"] == pytest.approx(50.0)


def test_span_self_time_on_nested_spans():
    spans = [  # (id, parent, name, start, end), closed innermost first
        (2, 1, "c", 2.0, 3.0),
        (1, 0, "b", 1.0, 4.0),
        (3, 0, "b", 5.0, 6.0),
        (0, None, "a", 0.0, 10.0),
    ]
    stats = span_stats(spans)
    assert stats["a"]["self_s"] == 6.0  # 10 minus its children b (3 s) and b (1 s)
    assert stats["b"]["calls"] == 2
    assert stats["b"]["self_s"] == 3.0  # (3 - 1) + 1: the grandchild is b's, not a's
    assert stats["c"]["self_s"] == 1.0
    assert stats["b"]["durations_ms"] == [3000.0, 1000.0]


def test_tracer_nests_calls_and_generators():
    tracer = instrument.Tracer()

    def inner(x):
        return x + 1

    t_inner = tracer.wrap("inner", inner)

    def gen(n):
        for i in range(n):
            yield t_inner(i)

    t_gen = tracer.wrap("gen", gen)
    t_outer = tracer.wrap("outer", lambda n: list(t_gen(n)))
    assert t_outer(3) == [1, 2, 3]
    by_id = {s[0]: s for s in tracer.spans}
    names = {sid: s[2] for sid, s in by_id.items()}
    parents = [(names[s[0]], names.get(s[1])) for s in tracer.spans]
    assert parents.count(("inner", "gen")) == 3
    assert ("gen", "outer") in parents and ("outer", None) in parents
    stats = span_stats(tracer.spans)
    total = sum(s["self_s"] for s in stats.values())
    outer = [s for s in tracer.spans if s[2] == "outer"][0]
    assert total == pytest.approx(outer[4] - outer[3], abs=1e-9)


def test_missing_target_is_reported_absent(monkeypatch):
    monkeypatch.setitem(instrument.SPAN_TARGETS, "x.gone", ("rrvision.pipeline", "no_such_fn"))
    monkeypatch.setitem(instrument.SPAN_TARGETS, "x.gone2", ("rrvision.window", "Nope.push"))
    with instrument.Tracer().installed(["x.gone", "x.gone2", "edges.canny"]) as absent:
        import rrvision.pipeline as pipeline

        assert pipeline.canny.__wrapped__ is not None
    assert absent == ["x.gone", "x.gone2"]
    assert not hasattr(pipeline.canny, "__wrapped__")


def test_frame_schedules():
    assert window_end_frames(660, 30.0, 20.0, 1.0).tolist() == [599, 629, 659]
    assert epoch_start_frames(61, 30.0, 1.0).tolist() == [0, 30, 60]


def test_prediction_rows_match_rrvision_run(tmp_path):
    from rrvision.cli import main as cli_main
    from rrvision.config import RunConfig
    from rrvision.pipeline import run_recording
    from rrvision.synth import SynthConfig, generate

    ds = generate(
        SynthConfig(duration_s=22.0, pixel_format="GRAY8", rr_segments=[(0.0, 13.0)]),
        tmp_path / "rec",
    )
    out = tmp_path / "pred.csv"
    assert cli_main(["run", str(ds.video_path), "--out", str(out)]) == 0
    preds = run_recording(ds.video_path, RunConfig(), landmarks_path=ds.landmarks_path)
    assert prediction_csv(preds) == out.read_text()


_TINY = dict(width=160, height=120, fps=30.0, duration_s=21.0, pixel_format="GRAY8",
             rr_segments=[(0.0, 15.0)])
TINY_WORKLOADS = [
    Workload("tiny_stream", STREAM, (dict(_TINY),), {"reest_s": 2.0}),
    Workload("tiny_corpus", CORPUS, (dict(_TINY), dict(_TINY, fps=20.0)), {}),
]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", TINY_WORKLOADS, ids=lambda w: w.name)
def test_tiny_run_prints_every_metric_with_unit(workload, trace, tmp_path, capsys):
    src = run.ROOT / "src"
    report = run.run_benchmark(workload, 0, 0.0, trace, src, tmp_path)
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.print_report(report)
    printed = capsys.readouterr().out.splitlines()
    assert report["correct"], report["problems"]
    assert report["attempted"] >= 1 and report["failed"] == 0
    expected = declared["per_layer" if trace else "end_to_end"]
    for m in expected:
        assert report["metrics"][m["name"]]["unit"] == m["unit"]
        line = next(x for x in printed if x.startswith(m["name"] + " "))
        name, value, unit = line.split(" ")
        assert unit == m["unit"] and float(value) == report["metrics"][name]["value"]
    assert set(report["metrics"]) == {m["name"] for m in expected}
    saved = json.loads((tmp_path / f"BENCH_{workload.name}{'_trace' if trace else ''}.json")
                       .read_text())
    assert saved["meta"]["src_sha256"] and saved["predictions_sha256"]
    assert not any((tmp_path / "_work").iterdir())
    if trace:
        spans = (tmp_path / f"spans_{workload.name}.jsonl").read_text().splitlines()
        assert {json.loads(s)["name"] for s in spans} >= {"ingest.read", "edges.canny",
                                                          "synth.generate"}
