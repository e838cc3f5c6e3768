"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here except criterion 5's, which runs the unit
suites' own oracle checks under their tolerances. Corpora are generated on the
fly from seeded configs so the whole suite is deterministic.
"""

import itertools
import json
import math
import time

import numpy as np

from rrvision.cli import main as cli_main
from rrvision.config import RunConfig
from rrvision.evaluate import load_ground_truth, metrics_from_errors, prediction_errors
from rrvision.pipeline import run_recording

# modules, not their Test* classes: a class imported here would be collected here again
import test_breathing
import test_edges
import test_evaluate
import test_profile
from conftest import make_recording


def report(criterion: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{criterion}] {status} - {detail}")
    assert ok, f"{criterion}: {detail}"


def pooled_run(recordings, cfg):
    """Pooled metrics, share of valid predictions and winning groups across recordings."""
    errors, invalid, total, winners = [], 0, 0, []
    for ds in recordings:
        preds = run_recording(ds.video_path, cfg, landmarks_path=ds.landmarks_path)
        gt = load_ground_truth(ds.ground_truth_path)
        errs, inv = prediction_errors(preds, gt)
        errors += errs
        invalid += inv
        total += len(preds)
        winners += [p.group_index for p in preds if p.valid]
    return metrics_from_errors(errors, invalid), 1 - invalid / total, winners


class TestCriterion1SyntheticAccuracy:
    def test_sixteen_video_corpus(self, tmp_path):
        t0 = time.time()
        combos = list(itertools.product([12, 15, 20, 30], [20.0, 30.0], [2.0, 6.0]))
        assert len(combos) == 16
        recordings = [
            make_recording(
                tmp_path / f"v{k}", duration_s=60.0, fps=fps,
                rr_segments=[(0.0, float(rr))], noise_sigma=sigma,
                amplitude_px=2.0, texture_seed=k,
            )
            for k, (rr, fps, sigma) in enumerate(combos)
        ]
        m, valid_share, _ = pooled_run(recordings, RunConfig())  # edges mode, top_frac 0.30
        elapsed = time.time() - t0
        ok = m.mae <= 1.0 and m.sr2 >= 95.0 and valid_share >= 0.90 and elapsed < 300
        report(
            "criterion-1 synthetic accuracy",
            ok,
            f"MAE={m.mae:.4f} (<=1.0) SR2={m.sr2:.2f}% (>=95) "
            f"valid={100 * valid_share:.1f}% (>=90) elapsed={elapsed:.0f}s (<300)",
        )


class TestCriterion2EdgesVsFullRoi:
    def test_cluttered_corpus_ordering(self, tmp_path):
        recordings = [
            make_recording(
                tmp_path / f"c{k}", duration_s=60.0,
                rr_segments=[(0.0, float(rr))], noise_sigma=6.0,
                chest_width_frac=0.25, band_contrast=80.0, texture_seed=100 + k,
            )
            for k, rr in enumerate([12, 15, 20, 30])
        ]
        # static high-contrast texture must occupy at least half the ROI rows
        g = recordings[0].geometry
        quiet_rows = 2 * g.quiet_half + 1
        textured_share = 1 - quiet_rows / g.roi.h
        assert textured_share >= 0.5

        maes = {mode: pooled_run(recordings, RunConfig(profile_mode=mode))[0].mae
                for mode in ("edges", "full_roi")}
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
        m6, _, winners = pooled_run(recordings, cfg6)
        mae6, mae1 = m6.mae, pooled_run(recordings, cfg1)[0].mae
        share = np.mean([w >= 2 for w in winners])
        ok = mae6 <= mae1 and share >= 0.5
        report(
            "criterion-3 grouping vs top-5%",
            ok,
            f"G6 MAE={mae6:.4f} <= G1 MAE={mae1:.4f}; winner>=2 in {100 * share:.0f}% (>=50%)",
        )


class TestCriterion4ExternalDatasetHarness:
    def test_user_manifest_produces_four_cell_ablation(self, tmp_path, capsys):
        # paper-scale COHFACE numbers are not reproducible at desk scale; the contract is
        # that a user-supplied manifest in the documented format runs the 4-cell ablation
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


def canny_step_images():
    """Every case of TestCannyAgainstOracle's vertical and horizontal step-image checks."""
    suite = test_edges.TestCannyAgainstOracle()
    for col, contrast in itertools.product(test_edges.STEP_COLS, test_edges.STEP_CONTRASTS):
        suite.test_vertical_steps_match_oracle_exactly(col, contrast)
    for row in test_edges.STEP_ROWS:
        suite.test_horizontal_steps_match_oracle_exactly(row)


class TestCriterion5OracleEquivalence:
    def test_oracle_suites(self):
        # the unit suites' own oracle checks; all but Canny's draw 1000 instances each
        breathing, profile = test_breathing, test_profile
        checks = {
            "canny": canny_step_images,
            "resample": profile.TestResample().test_matches_interpolation_oracle_1000_instances,
            "row-mean": profile.TestFullRoiProfile().test_matches_row_mean_oracle_1000_instances,
            "moving-average": breathing.TestSmooth().test_matches_oracle_1000_instances,
            "peak-thinning": breathing.TestDetectPeaks().test_matches_oracle_1000_instances,
            "MAE-SR2": test_evaluate.TestScore()
            .test_permutation_invariant_and_matches_brute_force_1000_instances,
            "detrend": breathing.TestDetrend().test_kills_any_affine_signal_1000_instances,
        }
        failed = []
        for name, check in checks.items():
            try:
                check()
            except AssertionError:
                failed.append(name)
        passed = "/".join(name for name in checks if name not in failed)
        report("criterion-5 oracle equivalence", not failed,
               f"match their oracles: {passed or 'none'}; failed: {'/'.join(failed) or 'none'}")


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
