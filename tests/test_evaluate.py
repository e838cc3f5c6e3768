import json

import numpy as np
import pytest

from rrvision import evaluate
from rrvision.breathing import RRPrediction
from rrvision.config import RunConfig
from rrvision.evaluate import (
    ablation,
    group_rank_stats,
    load_dataset_manifest,
    load_ground_truth,
    metrics_from_errors,
    prediction_errors,
    RecordingSpec,
    run_cell,
    score,
    format_table,
)
from rrvision.ingest import step_hold
from rrvision.pipeline import run_recording

from conftest import make_recording


def pred(t, rr, valid=True, group=1):
    return RRPrediction(
        t=t, rr_bpm=rr if valid else None, group_index=group if valid else None,
        n_peaks=5 if valid else 0,
    )


GT = [(0.0, 15.0)]


class TestScore:
    def test_exact_match(self):
        m = score([pred(20.0, 15.0), pred(21.0, 15.0)], GT)
        assert (m.mae, m.sr2, m.n, m.invalid_count) == (0.0, 100.0, 2, 0)

    def test_boundary_two_bpm_counts_as_success(self):
        m = score([pred(20.0, 17.0)], GT)
        assert m.sr2 == 100.0 and m.mae == 2.0

    def test_mixed_errors(self):
        # |15-15| = 0 and |18-15| = 3: one hit, one miss
        m = score([pred(20.0, 15.0), pred(21.0, 18.0)], GT)
        assert m.mae == pytest.approx(1.5)
        assert m.sr2 == pytest.approx(50.0)

    def test_errors_of_zero_and_two(self):
        # both within the inclusive bound
        m = score([pred(20.0, 15.0), pred(21.0, 16.0)], [(0.0, 15.0), (20.5, 18.0)])
        assert m.mae == pytest.approx(1.0)
        assert m.sr2 == 100.0

    def test_invalid_excluded_but_counted(self):
        m = score([pred(20.0, 15.0), pred(21.0, None, valid=False)], GT)
        assert (m.n, m.invalid_count, m.mae) == (1, 1, 0.0)

    def test_zero_valid_predictions(self):
        m = score([pred(20.0, None, valid=False)], GT)
        assert m.mae is None and m.sr2 is None
        assert (m.n, m.invalid_count) == (0, 1)

    def test_uncovered_time_rejected(self):
        with pytest.raises(ValueError, match=r"^no ground truth at or before 1\.0$"):
            score([pred(1.0, 15.0)], [(5.0, 15.0)])

    def test_step_hold_reference(self):
        reference = step_hold([(0.0, 12.0), (10.0, 18.0), (30.0, 24.0)], "ground truth")
        assert reference(9.999) == 12.0
        assert reference(10.0) == 18.0
        assert reference(29.0) == 18.0
        assert reference(1000.0) == 24.0

    def test_permutation_invariant_and_matches_brute_force_1000_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(1, 12))
            refs = rng.uniform(8, 40, size=n)
            gt = [(float(i), float(r)) for i, r in enumerate(refs)]
            preds = [pred(float(i) + 0.5, float(rng.uniform(6, 45))) for i in range(n)]
            m = score(preds, gt)
            errors = [abs(p.rr_bpm - refs[int(p.t)]) for p in preds]
            assert m.mae == pytest.approx(sum(errors) / n)
            assert m.sr2 == pytest.approx(100.0 * sum(e <= 2.0 for e in errors) / n)
            rng.shuffle(preds)
            m2 = score(preds, gt)
            assert m2.mae == pytest.approx(m.mae) and m2.sr2 == pytest.approx(m.sr2)


class TestGroupRankStats:
    def test_share_above_first_group(self):
        assert group_rank_stats([1, 2, 6, 3]) == pytest.approx(0.75)

    def test_all_first_group(self):
        assert group_rank_stats([1, 1, 1]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no valid windows"):
            group_rank_stats([])


class TestGroundTruthFile:
    def test_rejects_bad_header(self, tmp_path):
        p = tmp_path / "gt.csv"
        p.write_text("time,rr\n0,15\n")
        with pytest.raises(ValueError, match="header"):
            load_ground_truth(p)

    def test_rejects_empty(self, tmp_path):
        p = tmp_path / "gt.csv"
        p.write_text("t,rr_bpm\n")
        with pytest.raises(ValueError, match="^empty ground-truth file "):
            load_ground_truth(p)

    def test_rejects_one_column_row(self, tmp_path):
        p = tmp_path / "gt.csv"
        p.write_text("t,rr_bpm\n0,15\n1\n")
        with pytest.raises(ValueError, match="malformed ground-truth row at .*:3"):
            load_ground_truth(p)


    @pytest.mark.parametrize("row", ["20,abc", "abc,15", "20,nan", "nan,15", "20,inf", "20,-inf"])
    def test_rejects_non_numeric_or_non_finite_value(self, tmp_path, row):
        p = tmp_path / "gt.csv"
        p.write_text(f"t,rr_bpm\n0,15\n{row}\n")
        with pytest.raises(ValueError, match="malformed ground-truth row at .*gt.csv:3"):
            load_ground_truth(p)


def write_manifest(path, entries):
    path.write_text(json.dumps(entries))
    return path


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("eval_corpus")
    recs = []
    for i, rr in enumerate([15.0, 20.0]):
        ds = make_recording(
            root / f"rec{i}", duration_s=30.0, rr_segments=[(0.0, rr)], texture_seed=20 + i
        )
        recs.append(
            {
                "video_path": str(ds.video_path.relative_to(root)),
                "ground_truth_path": str(ds.ground_truth_path.relative_to(root)),
                "landmarks_path": str(ds.landmarks_path.relative_to(root)),
            }
        )
    manifest = write_manifest(root / "manifest.json", recs)
    return root, manifest, recs


# both library entries to an evaluation share run_cell's refusals
EACH_ENTRY = pytest.mark.parametrize("run", [
    lambda specs, cfg: ablation(specs, cfg),
    lambda specs, cfg: run_cell(specs, cfg, "edges", [0.30]),
], ids=["ablation", "run_cell"])


class TestManifestAndAblation:
    def test_empty_manifest_rejected(self, tmp_path):
        p = write_manifest(tmp_path / "m.json", [])
        with pytest.raises(ValueError, match="non-empty"):
            load_dataset_manifest(p)

    def test_manifest_requires_roi_source(self, tmp_path):
        p = write_manifest(
            tmp_path / "m.json", [{"video_path": "v.gray8", "ground_truth_path": "gt.csv"}]
        )
        with pytest.raises(ValueError, match="landmarks_path or fixed_roi"):
            load_dataset_manifest(p)

    def test_manifest_without_roi_source_says_so(self, tmp_path):
        p = write_manifest(
            tmp_path / "m.json", [{"video_path": "v.gray8", "ground_truth_path": "gt.csv"}]
        )
        with pytest.raises(ValueError, match="needs landmarks_path or fixed_roi$"):
            load_dataset_manifest(p)

    def test_manifest_rejects_two_roi_sources(self, tmp_path):
        entry = {"video_path": "v.gray8", "ground_truth_path": "gt.csv",
                 "landmarks_path": "lm.csv", "fixed_roi": [40, 50, 80, 60]}
        p = write_manifest(tmp_path / "m.json", [entry])
        with pytest.raises(ValueError, match="not both"):
            load_dataset_manifest(p)

    @pytest.mark.parametrize(
        "entry",
        [
            {"video_path": "v.gray8", "landmarks_path": "lm.csv"},
            "x",
            {"video_path": 5, "ground_truth_path": "gt.csv", "landmarks_path": "lm.csv"},
            # a mistyped fixed_roi beside landmarks_path would otherwise run on the landmarks
            {"video_path": "v.gray8", "ground_truth_path": "gt.csv", "landmarks_path": "lm.csv",
             "fixed_ro1": [1, 2, 3]},
        ],
        ids=["missing_ground_truth_path", "not_an_object", "path_not_a_string", "unknown_key"],
    )
    def test_malformed_entry_rejected(self, tmp_path, entry):
        p = write_manifest(tmp_path / "m.json", [entry])
        with pytest.raises(ValueError, match="must be an object with string video_path"):
            load_dataset_manifest(p)

    @pytest.mark.parametrize("key", ["video_path", "ground_truth_path", "landmarks_path"])
    def test_empty_path_rejected_at_load(self, tmp_path, key):
        # "" would resolve to the manifest's own directory, and an empty
        # landmarks_path beside a fixed_roi would be ignored
        entry = {"video_path": "v.gray8", "ground_truth_path": "gt.csv", key: ""}
        if key == "landmarks_path":
            entry["fixed_roi"] = [40, 50, 80, 60]
        p = write_manifest(tmp_path / "m.json", [entry])
        with pytest.raises(ValueError, match=r"must be an object with .*, none of them empty$"):
            load_dataset_manifest(p)

    @pytest.mark.parametrize(
        "roi", [[1, 2], 5, [1, 2, 3, 4, 5], [40, 50, 80.5, 60], "40,50,80,60"],
        ids=["two_values", "scalar", "five_values", "float_value", "string"],
    )
    def test_malformed_fixed_roi_rejected(self, tmp_path, roi):
        entry = {"video_path": "v.gray8", "ground_truth_path": "gt.csv", "fixed_roi": roi}
        p = write_manifest(tmp_path / "m.json", [entry])
        with pytest.raises(ValueError, match="fixed_roi must be a list of four integers"):
            load_dataset_manifest(p)

    def test_each_recording_runs_on_its_own_roi_source(self, corpus):
        # one recording by a fixed rectangle that is not its landmark box, one by landmarks
        root, _, recs = corpus
        roi = (50, 55, 60, 50)
        specs = [
            RecordingSpec(root / recs[0]["video_path"], root / recs[0]["ground_truth_path"],
                          fixed_roi=roi),
            RecordingSpec(root / recs[1]["video_path"], root / recs[1]["ground_truth_path"],
                          landmarks_path=root / recs[1]["landmarks_path"]),
        ]
        [cell] = run_cell(specs, RunConfig(), "edges", [0.30])
        runs = [run_recording(specs[0].video_path, RunConfig(), fixed_roi=roi),
                run_recording(specs[1].video_path, RunConfig(), specs[1].landmarks_path)]
        errors = [e for spec, run in zip(specs, runs)
                  for e in prediction_errors(run, load_ground_truth(spec.ground_truth_path))[0]]
        n_invalid = sum(not p.valid for run in runs for p in run)
        assert cell.metrics == metrics_from_errors(errors, n_invalid)
        assert runs[0] != run_recording(specs[0].video_path, RunConfig(),
                                        root / recs[0]["landmarks_path"])

    def test_four_cells(self, corpus):
        _, manifest, _ = corpus
        cells = ablation(load_dataset_manifest(manifest), RunConfig())
        assert [(c.profile_mode, c.fraction) for c in cells] == [
            ("full_roi", 0.05),
            ("full_roi", 0.30),
            ("edges", 0.05),
            ("edges", 0.30),
        ]
        assert all(c.error is None for c in cells)
        assert all(c.metrics.n > 0 for c in cells)
        table = format_table(cells)
        assert table.count("\n") == 5  # header + 4 rows
        assert table.startswith("profile,fraction,mae,sr2")

    def test_ablation_cell_equals_pipeline_exactly(self, corpus):
        root, manifest, recs = corpus
        specs = load_dataset_manifest(manifest)
        [cell] = run_cell(specs, RunConfig(), "edges", [0.30])
        errors = []
        for spec in specs:
            preds = run_recording(spec.video_path, RunConfig(), landmarks_path=spec.landmarks_path)
            reference = step_hold(load_ground_truth(spec.ground_truth_path), "ground truth")
            errors += [abs(p.rr_bpm - reference(p.t)) for p in preds if p.valid]
        want = metrics_from_errors(errors, 0)
        assert cell.metrics == want

    @pytest.mark.parametrize("mode", ["full_roi", "edges"])
    def test_shared_pass_cells_equal_independent_runs(self, corpus, mode):
        # 0.02 is below the group fraction and gets its own pass; 0.05 and
        # 0.15 are decided from the first groups of the 0.30 pass
        _, manifest, _ = corpus
        specs = load_dataset_manifest(manifest)
        fractions = (0.02, 0.05, 0.15, 0.30)
        cells = run_cell(specs, RunConfig(), mode, fractions)
        assert [c.fraction for c in cells] == list(fractions)
        for cell, fraction in zip(cells, fractions):
            cfg = RunConfig.from_dict({
                "profile_mode": mode,
                "breathing": {"top_frac": fraction, "group_frac": min(0.05, fraction)},
            })
            preds, errors = [], []
            for spec in specs:
                run = run_recording(spec.video_path, cfg, landmarks_path=spec.landmarks_path)
                preds += run
                errors += prediction_errors(run, load_ground_truth(spec.ground_truth_path))[0]
            winners = [p.group_index for p in preds if p.valid]
            assert cell.error is None
            assert cell.metrics == metrics_from_errors(errors, len(preds) - len(winners))
            assert cell.best_group_ge2_share == (group_rank_stats(winners) if winners else None)

    def test_unreadable_recording_fails_cell_but_run_continues(self, corpus, tmp_path):
        root, _, recs = corpus
        broken = [dict(recs[0])]
        broken[0] = {**recs[0], "video_path": "missing.gray8"}
        # one good entry and one broken entry, absolute paths for the good one
        entries = [
            {
                "video_path": str(root / recs[0]["video_path"]),
                "ground_truth_path": str(root / recs[0]["ground_truth_path"]),
                "landmarks_path": str(root / recs[0]["landmarks_path"]),
            },
            {
                "video_path": str(root / "missing.gray8"),
                "ground_truth_path": str(root / recs[0]["ground_truth_path"]),
                "landmarks_path": str(root / recs[0]["landmarks_path"]),
            },
        ]
        manifest = write_manifest(tmp_path / "m.json", entries)
        cells = run_cell(load_dataset_manifest(manifest), RunConfig(), "edges", [0.30])
        assert len(cells) == 1
        assert cells[0].error is not None
        assert "failed" in format_table(cells)

    def test_malformed_ground_truth_fails_cell_but_run_continues(self, corpus, tmp_path):
        root, _, recs = corpus
        gt = tmp_path / "gt.csv"
        gt.write_text("t,rr_bpm\n0,15\n1\n")
        specs = [
            RecordingSpec(
                root / recs[0]["video_path"], gt, landmarks_path=root / recs[0]["landmarks_path"]
            )
        ]
        cells = run_cell(specs, RunConfig(), "edges", [0.30])
        assert "malformed ground-truth row" in cells[0].error

    def test_ground_truth_read_before_its_pass(self, corpus, tmp_path, monkeypatch):
        root, _, recs = corpus
        specs = [RecordingSpec(root / r["video_path"], tmp_path / f"missing_{i}.csv",
                               landmarks_path=root / r["landmarks_path"])
                 for i, r in enumerate(recs[:2])]
        passes = []
        monkeypatch.setattr(evaluate, "run_recording", lambda *args: passes.append(args) or [])
        cells = run_cell(specs, RunConfig(), "edges", [0.05, 0.30])
        assert passes == []
        assert all("missing_0.csv" in c.error for c in cells)

    @EACH_ENTRY
    def test_empty_set_raises(self, run):
        with pytest.raises(ValueError, match="^empty dataset manifest$"):
            run([], RunConfig())

    @pytest.mark.parametrize("base", [{"profile_mode": "full_roi"},
                                      {"breathing": {"top_frac": 0.2}}],
                             ids=["profile_mode", "top_frac"])
    @EACH_ENTRY
    def test_per_cell_setting_in_the_base_raises_before_any_pass(self, tmp_path, monkeypatch,
                                                                 base, run):
        def no_read(*args):
            raise AssertionError("a recording was read")

        monkeypatch.setattr(evaluate, "load_ground_truth", no_read)
        monkeypatch.setattr(evaluate, "run_recording", no_read)
        specs = [RecordingSpec(tmp_path / "v.gray8", tmp_path / "gt.csv", tmp_path / "lm.csv")]
        with pytest.raises(ValueError, match="^eval sets profile_mode and top_frac per cell; "):
            run(specs, RunConfig.from_dict(base))
