"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here; corpora are generated on the fly
from seeded configs so the whole suite is deterministic.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from rrvision.breathing import detect_peaks, smooth as breathing_smooth, detrend
from rrvision.cli import main as cli_main
from rrvision.config import BreathingConfig, CannyConfig, RunConfig
from rrvision.edges import canny
from rrvision.evaluate import (
    load_ground_truth,
    metrics_from_errors,
    prediction_errors,
    score,
)
from rrvision.pipeline import run_recording
from rrvision.synth import SynthConfig, generate

from conftest import make_recording
from test_breathing import oracle_detect_peaks, oracle_moving_average
from test_edges import oracle_canny, vstep
from test_evaluate import pred
from test_profile import exact_row_mean, random_crop, resample, row_means


def report(criterion: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{criterion}] {status} - {detail}")
    assert ok, f"{criterion}: {detail}"


def pooled_run(recordings, cfg):
    """Errors, invalid count, prediction count and winners across recordings."""
    errors, invalid, total, winners = [], 0, 0, []
    for ds in recordings:
        preds = run_recording(ds.video_path, cfg, landmarks_path=ds.landmarks_path)
        gt = load_ground_truth(ds.ground_truth_path)
        errs, inv = prediction_errors(preds, gt)
        errors += errs
        invalid += inv
        total += len(preds)
        winners += [p.group_index for p in preds if p.valid]
    return errors, invalid, total, winners


class TestCriterion1SyntheticAccuracy:
    def test_sixteen_video_corpus(self, tmp_path):
        t0 = time.time()
        combos = list(itertools.product([12, 15, 20, 30], [20.0, 30.0], [2.0, 6.0]))
        assert len(combos) == 16
        errors, invalid, total = [], 0, 0
        for k, (rr, fps, sigma) in enumerate(combos):
            ds = make_recording(
                tmp_path / f"v{k}", duration_s=60.0, fps=fps,
                rr_segments=[(0.0, float(rr))], noise_sigma=sigma,
                amplitude_px=2.0, texture_seed=k,
            )
            cfg = RunConfig()  # edges mode, top_frac 0.30 by default
            preds = run_recording(ds.video_path, cfg, landmarks_path=ds.landmarks_path)
            gt = load_ground_truth(ds.ground_truth_path)
            errs, inv = prediction_errors(preds, gt)
            errors += errs
            invalid += inv
            total += len(preds)
        elapsed = time.time() - t0
        m = metrics_from_errors(errors, invalid)
        valid_share = 1 - invalid / total
        ok = m.mae <= 1.0 and m.sr2 >= 95.0 and valid_share >= 0.90 and elapsed < 300
        report(
            "criterion-1 synthetic accuracy",
            ok,
            f"MAE={m.mae:.4f} (<=1.0) SR2={m.sr2:.2f}% (>=95) "
            f"valid={100 * valid_share:.1f}% (>=90) elapsed={elapsed:.0f}s (<300)",
        )


class TestCriterion2EdgesVsFullRoi:
    def test_cluttered_corpus_ordering(self, tmp_path):
        maes = {}
        recordings = []
        for k, rr in enumerate([12, 15, 20, 30]):
            recordings.append(
                make_recording(
                    tmp_path / f"c{k}", duration_s=60.0,
                    rr_segments=[(0.0, float(rr))], noise_sigma=6.0,
                    chest_width_frac=0.25, band_contrast=80.0, texture_seed=100 + k,
                )
            )
        # static high-contrast texture must occupy at least half the ROI rows
        g = recordings[0].geometry
        quiet_rows = 2 * g.quiet_half + 1
        textured_share = 1 - quiet_rows / g.roi.h
        assert textured_share >= 0.5

        for mode in ("edges", "full_roi"):
            cfg = RunConfig()
            cfg.profile_mode = mode
            errors, invalid, _, _ = pooled_run(recordings, cfg)
            maes[mode] = metrics_from_errors(errors, invalid).mae
        ok = maes["edges"] <= maes["full_roi"]
        report(
            "criterion-2 edges vs full-roi",
            ok,
            f"edges MAE={maes['edges']:.4f} <= full MAE={maes['full_roi']:.4f} "
            f"(clutter rows {100 * textured_share:.0f}%)",
        )


class TestCriterion3GroupingVsTopFive:
    def test_loud_aperiodic_rows(self, tmp_path):
        recordings = [
            make_recording(
                tmp_path / f"w{k}", duration_s=60.0, rr_segments=[(0.0, float(rr))],
                noise_sigma=2.0, walk_row_frac=0.05, walk_amplitude=100.0,
                texture_seed=200 + k,
            )
            for k, rr in enumerate([12, 15, 20])
        ]
        cfg6 = RunConfig()  # top 30% in six groups
        cfg1 = RunConfig()
        cfg1.breathing.top_frac = 0.05  # single top-5% group
        errs6, inv6, _, winners = pooled_run(recordings, cfg6)
        errs1, inv1, _, _ = pooled_run(recordings, cfg1)
        mae6 = metrics_from_errors(errs6, inv6).mae
        mae1 = metrics_from_errors(errs1, inv1).mae
        share = np.mean([w >= 2 for w in winners])
        ok = mae6 <= mae1 and share >= 0.5
        report(
            "criterion-3 grouping vs top-5%",
            ok,
            f"G6 MAE={mae6:.4f} <= G1 MAE={mae1:.4f}; winner>=2 in {100 * share:.0f}% (>=50%)",
        )


class TestCriterion4ExternalDatasetHarness:
    def test_user_manifest_produces_four_cell_ablation(self, tmp_path, capsys):
        # paper-scale COHFACE numbers are not reproducible at desk scale; the
        # contract is that a user-supplied manifest in the documented format
        # runs the full 4-cell ablation without error
        for i, rr in enumerate([15.0, 20.0]):
            make_recording(
                tmp_path / f"rec{i}", duration_s=25.0, fps=20.0,
                rr_segments=[(0.0, rr)], texture_seed=40 + i,
            )
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([
            {
                "video_path": f"rec{i}/video.gray8",
                "ground_truth_path": f"rec{i}/ground_truth.csv",
                "landmarks_path": f"rec{i}/landmarks.csv",
            }
            for i in range(2)
        ]))
        code = cli_main(["eval", str(manifest)])
        out = capsys.readouterr().out
        rows = out.strip().splitlines()
        ok = code == 0 and len(rows) == 5 and "failed" not in out
        print()
        report(
            "criterion-4 external-dataset harness",
            ok,
            f"exit={code}, {len(rows) - 1} ablation cells, no failures",
        )


class TestCriterion5OracleEquivalence:
    def test_oracle_suites(self):
        rng = np.random.default_rng(2024)
        cfg = CannyConfig()

        # Canny on step images matches the brute-force oracle exactly
        canny_cases = 0
        for col in range(8, 16):
            img = vstep(24, 24, col)
            assert np.array_equal(canny(img, cfg), oracle_canny(img, cfg))
            imgt = img.T
            assert np.array_equal(canny(imgt, cfg), oracle_canny(imgt, cfg))
            canny_cases += 2

        bcfg = BreathingConfig()
        n_inst = 1000
        for _ in range(n_inst):
            # resampling
            h, length = int(rng.integers(2, 10)), int(rng.integers(2, 10))
            raw = rng.uniform(-10, 300, size=h)
            got = resample(raw, length)
            want = np.interp(
                np.arange(length) * (h - 1) / (length - 1), np.arange(h), raw
            )
            assert got == pytest.approx(want, abs=1e-9)

            # row means of GRAY8 and RGB crops: the exact mean, correctly rounded
            h, w = int(rng.integers(2, 6)), int(rng.integers(1, 6))
            for rgb in (False, True):
                roi = random_crop(rng, h, w, rgb)
                want = [float(exact_row_mean(row, np.ones(w, dtype=bool))) for row in roi]
                assert list(row_means(roi)) == want

            # moving average
            wave = rng.uniform(-5, 5, size=int(rng.integers(3, 25)))
            fs = float(rng.choice([10.0, 20.0, 30.0]))
            k = int(round(bcfg.smooth_s * fs))
            k += 1 - k % 2 if k % 2 == 0 else 0
            want_ma = oracle_moving_average(wave, max(k, 1)) if k > 1 else wave
            assert breathing_smooth(wave, fs, bcfg) == pytest.approx(want_ma, abs=1e-9)

            # peak detection + thinning
            w = rng.normal(0, 1, size=int(rng.integers(3, 40)))
            assert list(detect_peaks(w, fs, bcfg)) == oracle_detect_peaks(w, fs, bcfg)

            # MAE / SR2
            n = int(rng.integers(1, 8))
            refs = rng.uniform(8, 40, size=n)
            gt = [(float(i), float(r)) for i, r in enumerate(refs)]
            preds = [pred(float(i) + 0.25, float(rng.uniform(6, 45))) for i in range(n)]
            m = score(preds, gt)
            errors = [abs(p.rr_bpm - refs[int(p.t)]) for p in preds]
            assert m.mae == pytest.approx(np.mean(errors))
            assert m.sr2 == pytest.approx(100.0 * np.mean([e <= 2.0 for e in errors]))

            # detrend kills affine signals
            a, b = rng.uniform(-100, 100, size=2)
            t = np.arange(int(rng.integers(2, 30)), dtype=np.float64)
            resid = detrend(a + b * t)
            scale = max(1.0, abs(a), abs(b) * len(t))
            assert np.abs(resid).max() < 1e-9 * scale

        report(
            "criterion-5 oracle equivalence",
            True,
            f"canny exact on {canny_cases} step images; resample/row-mean (GRAY8 and RGB)/"
            f"moving-average/peak-thinning/MAE-SR2/detrend checked on {n_inst} instances each",
        )


class TestCriterion6RealTime:
    def test_vga_stream_meets_budgets(self, tmp_path, capsys):
        fps = 30.0
        ds = make_recording(
            tmp_path / "vga", width=640, height=480, duration_s=22.0, fps=fps,
            texture_seed=50,
        )
        timing_json = tmp_path / "timing.json"
        code = cli_main([
            "run", str(ds.video_path), "--landmarks", str(ds.landmarks_path),
            "--out", str(tmp_path / "preds.csv"), "--timing-json", str(timing_json),
        ])
        capsys.readouterr()
        assert code == 0
        summary = json.loads(timing_json.read_text())
        frame_budget_ms = 1000.0 / fps
        frame_max = summary["frame_total"]["max_ms"]
        an99 = summary["window_analysis"]["p99_ms"]
        ok = frame_max <= frame_budget_ms and an99 <= 1000.0
        print()
        report(
            "criterion-6 real-time contract",
            ok,
            f"whole frame max={frame_max:.3f}ms, epoch starts included "
            f"(<= {frame_budget_ms:.1f}ms), window analysis p99={an99:.1f}ms (<= 1000ms) "
            "at 640x480@30",
        )


class TestCriterion7ContinuityAndStitching:
    def test_roi_jump_recovery(self, tmp_path):
        ds = make_recording(
            tmp_path / "jump", duration_s=60.0, rr_segments=[(0.0, 15.0)],
            roi_jump_at_s=30.0, texture_seed=60,
        )
        preds = run_recording(ds.video_path, RunConfig(), landmarks_path=ds.landmarks_path)
        seconds = [round(p.t, 3) for p in preds]
        no_gap = seconds == [float(t) for t in range(20, 61)]
        after = [p for p in preds if 30.0 < p.t <= 40.0]
        all_valid = all(p.valid for p in after)
        errs = [abs(p.rr_bpm - 15.0) for p in after if p.valid]
        mae = float(np.mean(errs)) if errs else math.inf
        ok = no_gap and all_valid and mae <= 1.5
        report(
            "criterion-7a jump continuity",
            ok,
            f"cadence unbroken={no_gap}, (30,40] all valid={all_valid}, MAE={mae:.4f} (<=1.5)",
        )

    def test_rate_switch_tracked(self, tmp_path):
        ds = make_recording(
            tmp_path / "switch", duration_s=90.0,
            rr_segments=[(0.0, 15.0), (30.0, 20.0)], texture_seed=61,
        )
        preds = run_recording(ds.video_path, RunConfig(), landmarks_path=ds.landmarks_path)
        late = [p for p in preds if p.t >= 55.0]
        ok_valid = all(p.valid for p in late)
        max_err = max(abs(p.rr_bpm - 20.0) for p in late if p.valid)
        ok = ok_valid and max_err <= 2.0
        report(
            "criterion-7b rate-switch tracking",
            ok,
            f"all valid from t=55: {ok_valid}, max |err|={max_err:.3f} BPM (<=2 within 25s of switch)",
        )


class TestCriterion8Cadence:
    def test_one_prediction_per_second(self, cadence_recording, capsys, tmp_path):
        out_csv = tmp_path / "preds.csv"
        code = cli_main([
            "run", str(cadence_recording.video_path),
            "--landmarks", str(cadence_recording.landmarks_path), "--out", str(out_csv),
        ])
        capsys.readouterr()
        rows = out_csv.read_text().strip().splitlines()[1:]
        ts = [float(r.split(",")[0]) for r in rows]
        ok = code == 0 and len(rows) == 41 and ts[0] == 20.0 and ts[-1] == 60.0
        print()
        report(
            "criterion-8 cadence",
            ok,
            f"60s @ 30FPS emitted {len(rows)} rows, t={ts[0]:.0f}..{ts[-1]:.0f}s (expected 41, 20..60)",
        )
