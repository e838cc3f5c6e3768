import json
import subprocess
import sys

import pytest

from rrvision import evaluate, pipeline
from rrvision.cli import main
from rrvision.evaluate import SR_BOUND_BPM
from rrvision.synth import SynthConfig, generate

from conftest import make_recording


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_sixty_second_run_emits_41_rows(self, capsys, cadence_recording):
        code, out, err = run_cli(
            capsys, "run", cadence_recording.video_path,
            "--landmarks", cadence_recording.landmarks_path,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t_seconds,rr_bpm,group_index,n_peaks,valid"
        assert len(lines) == 42
        ts = [float(l.split(",")[0]) for l in lines[1:]]
        assert ts[0] == 20.0 and ts[-1] == 60.0
        assert "frame_ms" in err and "max=" in err

    def test_landmarks_default_to_sibling_file(self, capsys, cadence_recording):
        code, out, _ = run_cli(capsys, "run", cadence_recording.video_path)
        assert code == 0
        assert len(out.strip().splitlines()) == 42

    def test_image_sequence_landmarks_default_to_its_directory(self, capsys, tmp_path):
        # synth writes a sequence's side files into the sequence directory itself
        ds = make_recording(tmp_path / "seq", duration_s=22.0, container="images")
        defaulted, given = tmp_path / "default.csv", tmp_path / "given.csv"
        assert run_cli(capsys, "run", ds.video_path, "--out", defaulted)[0] == 0
        code, _, _ = run_cli(capsys, "run", ds.video_path,
                             "--landmarks", ds.video_path / "landmarks.csv", "--out", given)
        assert code == 0
        assert defaulted.read_bytes() == given.read_bytes()
        ts = [row.split(",")[0] for row in defaulted.read_text().splitlines()[1:]]
        assert ts == ["20.000", "21.000", "22.000"]

    def test_truncated_frame_header_mid_sequence_exits_1_naming_the_frame(self, capsys,
                                                                         tmp_path):
        ds = make_recording(tmp_path / "seq", duration_s=1.0, container="images")
        (ds.video_path / "frame_000002.pgm").write_bytes(b"P5\n160")
        out_csv = tmp_path / "f.csv"
        code, out, err = run_cli(capsys, "run", ds.video_path, "--out", out_csv)
        assert code == 1
        assert out == ""
        assert not out_csv.exists()
        (line,) = err.splitlines()
        assert line.startswith("error: ") and "frame_000002.pgm" in line

    def test_short_video_warns(self, capsys, tmp_path):
        ds = make_recording(tmp_path / "short", duration_s=10.0)
        code, out, err = run_cli(capsys, "run", ds.video_path, "--landmarks", ds.landmarks_path)
        assert code == 0
        assert len(out.strip().splitlines()) == 1  # header only
        assert "shorter than" in err

    def test_unreadable_input_exits_1(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "run", tmp_path / "nope.gray8")
        assert code == 1
        assert "error" in err

    def test_unsupported_source_exits_1(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "run", tmp_path / "clip.mp4")
        assert code == 1
        assert out == ""
        assert "error: unsupported source " in err

    def test_reest_period_below_one_frame_exits_1(self, capsys, tmp_path):
        ds = make_recording(tmp_path / "rec", duration_s=1.0)
        code, _, err = run_cli(capsys, "run", ds.video_path, "--reest-s", "0.01")
        assert code == 1
        assert "error: re-estimation period" in err

    def test_rejected_run_creates_no_out_file(self, capsys, tmp_path):
        ds = make_recording(tmp_path / "rec", duration_s=1.0)
        out_csv = tmp_path / "f.csv"
        code, out, _ = run_cli(capsys, "run", ds.video_path, "--reest-s", "0.01", "--out", out_csv)
        assert code == 1
        assert out == ""
        assert not out_csv.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--canonical-len", "19"], "too few rows for group_frac 0.05: 19"),
        (["--canonical-len", "19", "--dump-config"], "too few rows for group_frac 0.05: 19"),
        (["--rr-min", "-1", "--rr-max", "0"], "need 0 <= rr_min < rr_max"),
        (["--smooth-s", "-1"], "smooth_s must be >= 0"),
        (["--step-s", "0"], "step_s must be positive"),
        (["--step-s", "-1", "--dump-config"], "step_s must be positive"),
        (["--k-w", "0", "--dump-config"], "k_w and k_h must be positive"),
        (["--k-h", "-1"], "k_w and k_h must be positive"),
        (["--reest-s", "0"], "reest_s must be positive"),
        (["--low", "100", "--high", "50"], "canny low threshold must be below high"),
        (["--dilation-radius", "-1"], "dilation_radius must be >= 0"),
        (["--top-frac", "0.01"], "need 0 < group_frac <= top_frac <= 1"),
        (["--min-peaks", "1"], "min_peaks must be >= 2"),
        (["--cycles-per-peak", "0"], "cycles_per_peak must be positive"),
        (["--canonical-len", "1"], "canonical_len must be >= 2"),
    ])
    def test_bad_breathing_config_exits_1_before_any_read(self, capsys, tmp_path, monkeypatch,
                                                          cadence_recording, flags, message):
        def no_read(*args):
            raise AssertionError("the recording was opened")

        monkeypatch.setattr(pipeline, "open_source", no_read)
        out_csv = tmp_path / "f.csv"
        code, out, err = run_cli(capsys, "run", cadence_recording.video_path, "--out", out_csv,
                                 *flags)
        assert code == 1
        assert out == ""
        assert f"error: {message}" in err
        assert not out_csv.exists()

    def test_short_video_out_file_holds_header(self, capsys, tmp_path):
        ds = make_recording(tmp_path / "short", duration_s=10.0)
        out_csv = tmp_path / "f.csv"
        code, _, _ = run_cli(capsys, "run", ds.video_path, "--out", out_csv)
        assert code == 0
        assert out_csv.read_text() == "t_seconds,rr_bpm,group_index,n_peaks,valid\n"

    def test_fixed_roi_flag_needs_four_values(self, capsys, tmp_path):
        ds = make_recording(tmp_path / "rec", duration_s=1.0)
        code, out, err = run_cli(capsys, "run", ds.video_path, "--fixed-roi", "1,2")
        assert code == 1
        assert out == ""
        assert "error: fixed_roi must be four integers" in err

    def test_timing_json(self, capsys, tmp_path, cadence_recording):
        out_json = tmp_path / "timing.json"
        code, _, _ = run_cli(
            capsys, "run", cadence_recording.video_path,
            "--landmarks", cadence_recording.landmarks_path,
            "--timing-json", out_json,
        )
        assert code == 0
        summary = json.loads(out_json.read_text())
        assert summary["frame_total"]["n"] == 1800
        assert summary["window_analysis"]["n"] == 41

    def test_out_file(self, capsys, tmp_path, cadence_recording):
        out_csv = tmp_path / "preds.csv"
        code, out, _ = run_cli(
            capsys, "run", cadence_recording.video_path,
            "--landmarks", cadence_recording.landmarks_path, "--out", out_csv,
        )
        assert code == 0
        assert out == ""
        assert len(out_csv.read_text().strip().splitlines()) == 42

    def test_fixed_roi_flag(self, capsys, cadence_recording):
        code, out, _ = run_cli(
            capsys, "run", cadence_recording.video_path, "--fixed-roi", "40,50,80,60"
        )
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 41
        assert sum(r.endswith(",1") for r in rows) >= 37

    @pytest.mark.parametrize("landmarks", ["sidecar", "missing"])
    def test_fixed_roi_with_landmarks_flag_exits_1(self, capsys, tmp_path, cadence_recording,
                                                   landmarks):
        # an explicit --landmarks is a second ROI source; the sidecar default is not
        path = {"sidecar": cadence_recording.landmarks_path,
                "missing": tmp_path / "nonexistent.csv"}[landmarks]
        out_csv = tmp_path / "out.csv"
        code, out, err = run_cli(
            capsys, "run", cadence_recording.video_path, "--fixed-roi", "40,50,80,60",
            "--landmarks", path, "--out", out_csv,
        )
        assert code == 1
        assert "not both" in err
        assert not out_csv.exists()


class TestDumpConfigRoundTrip:
    def test_flags_round_trip_to_byte_identical_output(self, capsys, tmp_path, cadence_recording):
        flags = ["--top-frac", "0.30", "--smooth-s", "0.5", "--sigma", "1.2",
                 "--profile-mode", "edges", "--window-s", "20", "--reest-s", "10"]
        code, dumped, _ = run_cli(
            capsys, "run", cadence_recording.video_path, *flags, "--dump-config"
        )
        assert code == 0
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(dumped)

        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        code_a, _, _ = run_cli(
            capsys, "run", cadence_recording.video_path,
            "--landmarks", cadence_recording.landmarks_path, *flags, "--out", out_a,
        )
        code_b, _, _ = run_cli(
            capsys, "run", cadence_recording.video_path,
            "--landmarks", cadence_recording.landmarks_path,
            "--config", cfg_file, "--out", out_b,
        )
        assert code_a == code_b == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    @pytest.mark.parametrize("roi", [[1, 2], 5], ids=["two_values", "scalar"])
    def test_malformed_fixed_roi_in_config_exits_1(self, capsys, tmp_path, roi):
        # the ROI source is an input of the run, like --landmarks, not a config key
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"fixed_roi": roi}))
        code, out, err = run_cli(capsys, "run", tmp_path / "v.gray8", "--config", cfg_file)
        assert code == 1
        assert out == ""
        assert "error: config: unknown config key fixed_roi" in err

    def test_dumped_config_has_no_fixed_roi(self, capsys, tmp_path, cadence_recording):
        # a dumped run is reproduced by giving --fixed-roi again, as --landmarks must be;
        # the rectangle is not the landmark box, so the sidecar landmarks give other rows
        video, roi = cadence_recording.video_path, ["--fixed-roi", "50,55,60,50"]
        code, dumped, _ = run_cli(capsys, "run", video, *roi, "--dump-config")
        assert code == 0
        assert "fixed_roi" not in dumped
        assert dumped == run_cli(capsys, "run", "v.gray8", "--dump-config")[1]
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(dumped)
        out_a, out_b, out_c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
        assert run_cli(capsys, "run", video, *roi, "--out", out_a)[0] == 0
        run_cli(capsys, "run", video, *roi, "--config", cfg_file, "--out", out_b)
        run_cli(capsys, "run", video, "--config", cfg_file, "--out", out_c)
        assert out_a.read_bytes() == out_b.read_bytes() != out_c.read_bytes()

    def test_flag_overrides_config_file(self, capsys, tmp_path, cadence_recording):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"breathing": {"smooth_s": 0.9}}))
        code, dumped, _ = run_cli(
            capsys, "run", cadence_recording.video_path,
            "--config", cfg_file, "--smooth-s", "0.2", "--dump-config",
        )
        assert code == 0
        assert json.loads(dumped)["breathing"]["smooth_s"] == 0.2

    def test_flag_fixes_bad_config_value(self, capsys, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"schedule": {"window_s": 1.0}}))
        code, dumped, err = run_cli(capsys, "run", "whatever.gray8", "--config", cfg_file,
                                    "--window-s", "20", "--dump-config")
        assert code == 0, err
        assert json.loads(dumped)["schedule"]["window_s"] == 20.0
        # synth reads its config through the same rule
        cfg_file.write_text(json.dumps({"noise_sigma": -1, "duration_s": 1.0}))
        code, out, err = run_cli(capsys, "synth", tmp_path / "rec", "--config", cfg_file,
                                 "--noise-sigma", "2", "--pixel-format", "GRAY8")
        assert code == 0, err
        assert "wrote 30 frames" in out

    def test_bad_config_value_no_flag_overrides_exits_1(self, capsys, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"schedule": {"window_s": 1.0}}))
        code, out, err = run_cli(capsys, "run", "whatever.gray8", "--config", cfg_file,
                                 "--reest-s", "5", "--dump-config")
        assert code == 1
        assert out == ""
        assert "error: window_s must be at least 2*step_s" in err

    def test_bad_config_key_exits_1(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"no_such_section": {}}))
        code, _, err = run_cli(capsys, "run", "whatever.gray8", "--config", cfg_file,
                               "--dump-config")
        assert code == 1
        assert "unknown config key" in err


class TestSynthCommand:
    def test_default_recording(self, capsys, tmp_path):
        out = tmp_path / "rec"
        code, stdout, _ = run_cli(capsys, "synth", out, "--duration-s", "1",
                                  "--pixel-format", "GRAY8")
        assert code == 0
        assert (out / "meta.json").is_file()
        assert (out / "video.gray8").is_file()
        assert (out / "ground_truth.csv").is_file()
        assert (out / "landmarks.csv").is_file()
        assert "wrote 30 frames" in stdout

    def test_invalid_rr_exits_1(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "synth", tmp_path / "rec", "--rr-segments", "0:60")
        assert code == 1
        assert "error" in err

    def test_negative_noise_exits_1_before_disk(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "synth", tmp_path / "rec", "--noise-sigma", "-1")
        assert code == 1
        assert out == ""
        assert "error: noise_sigma must be >= 0" in err
        assert not (tmp_path / "rec").exists()

    def test_duration_of_no_frame_exits_1_before_disk(self, capsys, tmp_path):
        # 0.3 frames at 30 fps: a recording of no frame, which `run` would refuse
        code, out, err = run_cli(capsys, "synth", tmp_path / "rec", "--duration-s", "0.01")
        assert code == 1
        assert out == ""
        assert "error: duration_s of 0.01 s at 30.0 fps gives no frame" in err
        assert not (tmp_path / "rec").exists()

    @pytest.mark.parametrize("segments", ["15", "0:15:3", "a:15", "0:15,"])
    def test_malformed_rr_segments_exit_1(self, capsys, tmp_path, segments):
        code, out, err = run_cli(capsys, "synth", tmp_path / "rec", "--rr-segments", segments)
        assert code == 1
        assert "error: --rr-segments must be START:BPM pairs" in err
        assert not (tmp_path / "rec").exists()

    def test_seeded_reruns_are_identical(self, capsys, tmp_path):
        for name in ("a", "b"):
            code, _, _ = run_cli(
                capsys, "synth", tmp_path / name, "--duration-s", "1",
                "--pixel-format", "GRAY8", "--texture-seed", "5",
            )
            assert code == 0
        assert (tmp_path / "a/video.gray8").read_bytes() == (tmp_path / "b/video.gray8").read_bytes()

    def test_corpus_recipe_matches_generate(self, capsys, tmp_path):
        # the README's corpus loop: each flag must land on its SynthConfig field
        code, _, _ = run_cli(
            capsys, "synth", tmp_path / "cli", "--width", "160", "--height", "120",
            "--fps", "20", "--duration-s", "1", "--rr-segments", "0:12",
            "--noise-sigma", "6", "--pixel-format", "GRAY8", "--texture-seed", "3",
        )
        assert code == 0
        generate(SynthConfig(width=160, height=120, fps=20.0, duration_s=1.0,
                             rr_segments=[(0.0, 12.0)], noise_sigma=6.0,
                             pixel_format="GRAY8", texture_seed=3), tmp_path / "api")
        names = ["ground_truth.csv", "landmarks.csv", "meta.json", "video.gray8"]
        assert sorted(p.name for p in (tmp_path / "cli").iterdir()) == names
        for name in names:
            assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "api" / name).read_bytes()

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "s.json"
        cfg.write_text(json.dumps({"duration_s": 1.0, "pixel_format": "GRAY8",
                                   "rr_segments": [[0.0, 12.0]]}))
        code, _, _ = run_cli(capsys, "synth", tmp_path / "rec", "--config", cfg)
        assert code == 0
        gt = (tmp_path / "rec/ground_truth.csv").read_text()
        assert "12.0" in gt


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_eval")
    make_recording(root / "rec", duration_s=25.0, texture_seed=30)
    manifest = root / "manifest.json"
    manifest.write_text(json.dumps([{
        "video_path": "rec/video.gray8",
        "ground_truth_path": "rec/ground_truth.csv",
        "landmarks_path": "rec/landmarks.csv",
    }]))
    return manifest


class TestEvalCommand:
    def test_four_cell_table(self, capsys, manifest):
        code, out, _ = run_cli(capsys, "eval", manifest)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("profile,fraction,mae,sr2")
        assert {l.split(",")[0] for l in lines[1:]} == {"full_roi", "edges"}

    def test_single_cell(self, capsys, manifest):
        code, out, _ = run_cli(capsys, "eval", manifest, "--single-cell", "edges,0.30")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("edges,0.30")

    @pytest.mark.parametrize(
        "cell, message",
        [
            ("foo,0.30", "unknown profile_mode 'foo'"),
            ("edges,0.07", "group_frac must divide top_frac"),
            ("edges", "--single-cell must be MODE,FRACTION"),
            ("edges,x", "--single-cell must be MODE,FRACTION"),
            ("edges,0.30,1", "--single-cell must be MODE,FRACTION"),
        ],
    )
    def test_bad_single_cell_is_a_configuration_error(self, capsys, manifest, cell, message):
        code, out, err = run_cli(capsys, "eval", manifest, "--single-cell", cell)
        assert code == 1
        assert out == ""
        assert f"error: {message}" in err

    def test_config_with_no_group_exits_1_before_any_pass(self, capsys, manifest, monkeypatch):
        def no_pass(*args):
            raise AssertionError("a recording was run")

        monkeypatch.setattr(evaluate, "run_recording", no_pass)
        code, out, err = run_cli(capsys, "eval", manifest, "--canonical-len", "19")
        assert code == 1
        assert out == ""
        assert "error: too few rows for group_frac 0.05: 19" in err

    @pytest.mark.parametrize("value", ["nan", "abc"])
    def test_bad_ground_truth_value_fails_cell_exit_2(self, capsys, tmp_path, manifest, value):
        rec = manifest.parent / "rec"
        gt = tmp_path / "gt.csv"
        gt.write_text(f"t,rr_bpm\n0,15\n10,{value}\n")
        bad = tmp_path / "m.json"
        bad.write_text(json.dumps([{
            "video_path": str(rec / "video.gray8"),
            "ground_truth_path": str(gt),
            "landmarks_path": str(rec / "landmarks.csv"),
        }]))
        code, out, _ = run_cli(capsys, "eval", bad, "--single-cell", "edges,0.30")
        assert code == 2
        assert f"failed: malformed ground-truth row at {gt}:3" in out

    def test_missing_ground_truth_fails_cell_exit_2(self, capsys, tmp_path):
        ds = make_recording(tmp_path / "rec", duration_s=25.0, texture_seed=31)
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([{
            "video_path": "rec/video.gray8",
            "ground_truth_path": "rec/missing.csv",
            "landmarks_path": "rec/landmarks.csv",
        }]))
        code, out, _ = run_cli(capsys, "eval", manifest, "--single-cell", "edges,0.30")
        assert code == 2
        assert "failed" in out

    # each ablation cell sets profile_mode and top_frac, so eval would silently ignore them
    PER_CELL = ("error: eval sets profile_mode and top_frac per cell; "
                "use --single-cell MODE,FRACTION")

    @pytest.mark.parametrize("flags", [["--top-frac", "0.2"], ["--profile-mode", "full_roi"]])
    def test_per_cell_flag_exits_1(self, capsys, manifest, flags):
        code, out, err = run_cli(capsys, "eval", manifest, *flags)
        assert code == 1
        assert out == ""
        assert self.PER_CELL in err

    @pytest.mark.parametrize("config", [{"profile_mode": "full_roi"},
                                        {"breathing": {"top_frac": 0.2}}])
    def test_per_cell_config_key_exits_1(self, capsys, tmp_path, manifest, config):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "eval", manifest, "--config", cfg_file)
        assert code == 1
        assert out == ""
        assert self.PER_CELL in err

    def test_fixed_roi_in_config_exits_1(self, capsys, tmp_path, manifest):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"fixed_roi": [0, 0, 8, 8]}))
        code, out, err = run_cli(capsys, "eval", manifest, "--config", cfg_file)
        assert code == 1
        assert out == ""
        assert "error: config: unknown config key fixed_roi" in err

    def test_out_file_holds_the_stdout_table(self, capsys, tmp_path, manifest):
        table = tmp_path / "table.csv"
        code, out, _ = run_cli(capsys, "eval", manifest, "--single-cell", "edges,0.30",
                               "--out", table)
        assert code == 0
        assert table.read_text(encoding="utf-8") == out

    def test_cell_without_valid_predictions_says_so(self, capsys, tmp_path):
        make_recording(tmp_path / "rec", duration_s=25.0, amplitude_px=0.0, noise_sigma=0.0)
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([{
            "video_path": "rec/video.gray8",
            "ground_truth_path": "rec/ground_truth.csv",
            "landmarks_path": "rec/landmarks.csv",
        }]))
        code, out, err = run_cli(capsys, "eval", manifest, "--single-cell", "edges,0.30")
        assert code == 0
        assert out.splitlines()[1] == "edges,0.30,,,0,6,,ok"
        assert "# edges/0.30: no valid predictions (6 invalid)\n" in err

    def test_summary_follows_group_fraction_and_sr_bound(self, capsys, manifest):
        code, _, err = run_cli(capsys, "eval", manifest, "--group-frac", "0.1",
                               "--single-cell", "edges,0.30")
        assert code == 0
        assert "5%" not in err
        assert f"|error| <= {SR_BOUND_BPM} BPM" in err
        assert "best group below the first in " in err

    def test_non_object_manifest_entry_exits_1(self, capsys, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text('["x"]')
        code, _, err = run_cli(capsys, "eval", manifest)
        assert code == 1
        assert "error: recording 'x'" in err

    @pytest.mark.parametrize("roi", [[1, 2], 5], ids=["two_values", "scalar"])
    def test_malformed_fixed_roi_exits_1(self, capsys, tmp_path, roi):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([{
            "video_path": "rec/video.gray8", "ground_truth_path": "rec/gt.csv", "fixed_roi": roi,
        }]))
        code, out, err = run_cli(capsys, "eval", manifest)
        assert code == 1
        assert out == ""
        assert "fixed_roi must be a list of four integers" in err

    def test_empty_manifest_exits_1(self, capsys, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text("[]")
        code, _, err = run_cli(capsys, "eval", manifest)
        assert code == 1
        assert "error" in err


@pytest.mark.parametrize("argv", [
    ["run", "v.gray8", "--window-s", "abc"],
    ["eval", "m.json", "--profile-mode", "bogus"],
    ["run", "v.gray8", "--no-such-flag"],
    [],
], ids=["bad_value", "bad_choice", "unknown_flag", "no_subcommand"])
def test_usage_error_exits_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: rrvision") and err.count("\n") == 1


def test_console_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "rrvision.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "run" in proc.stdout and "synth" in proc.stdout and "eval" in proc.stdout


def _parser_options(command):
    from rrvision.cli import build_parser

    sub = next(a for a in build_parser()._actions if hasattr(a, "choices") and a.choices)
    return sorted(o for a in sub.choices[command]._actions for o in a.option_strings)


_RUN_CONFIG_OPTIONS = [
    "--canonical-len", "--config", "--cycles-per-peak", "--dilation-radius", "--group-frac",
    "--help", "--high", "--k-h", "--k-top", "--k-w", "--low", "--min-peaks", "--profile-mode",
    "--prominence-factor", "--reest-s", "--rr-max", "--rr-min", "--sigma", "--smooth-s",
    "--step-s", "--top-frac", "--window-s", "-h",
]


class TestGeneratedFlags:
    @pytest.mark.parametrize(
        "command, options",
        [
            ("run", _RUN_CONFIG_OPTIONS + ["--dump-config", "--fixed-roi", "--landmarks",
                                           "--out", "--timing-json"]),
            ("eval", _RUN_CONFIG_OPTIONS + ["--out", "--single-cell"]),
            ("synth", ["--amplitude-px", "--config", "--container", "--duration-s", "--fps",
                       "--height", "--help", "--noise-sigma", "--pixel-format",
                       "--roi-jump-at-s", "--rr-segments", "--texture-seed", "--width", "-h"]),
        ],
    )
    def test_option_strings_are_unchanged(self, command, options):
        assert _parser_options(command) == sorted(options)

    @pytest.mark.parametrize(
        "flag, key, value",
        [
            ("--window-s", "schedule.window_s", 30.0),
            ("--step-s", "schedule.step_s", 2.0),
            ("--reest-s", "schedule.reest_s", 10.0),
            ("--sigma", "canny.sigma", 1.2),
            ("--low", "canny.low", 40.0),
            ("--high", "canny.high", 90.0),
            ("--dilation-radius", "canny.dilation_radius", 1),
            ("--k-w", "geometry.k_w", 1.2),
            ("--k-top", "geometry.k_top", 0.4),
            ("--k-h", "geometry.k_h", 1.3),
            ("--top-frac", "breathing.top_frac", 0.2),
            ("--group-frac", "breathing.group_frac", 0.1),
            ("--smooth-s", "breathing.smooth_s", 0.5),
            ("--rr-min", "breathing.rr_min", 5.0),
            ("--rr-max", "breathing.rr_max", 40.0),
            ("--prominence-factor", "breathing.prominence_factor", 0.2),
            ("--min-peaks", "breathing.min_peaks", 4),
            ("--cycles-per-peak", "breathing.cycles_per_peak", 0.5),
            ("--profile-mode", "profile_mode", "full_roi"),
            ("--canonical-len", "canonical_len", 50),
        ],
    )
    def test_flag_sets_exactly_its_field(self, capsys, flag, key, value):
        def flat(d, prefix=""):
            out = {}
            for k, v in d.items():
                out.update(flat(v, f"{prefix}{k}.") if isinstance(v, dict) else {prefix + k: v})
            return out

        _, default, _ = run_cli(capsys, "run", "v.gray8", "--dump-config")
        code, dumped, _ = run_cli(capsys, "run", "v.gray8", flag, str(value), "--dump-config")
        assert code == 0
        before, after = flat(json.loads(default)), flat(json.loads(dumped))
        assert {k for k in after if after[k] != before[k]} == {key}
        assert after[key] == value and type(after[key]) is type(value)


class TestConfigTypeChecks:
    @pytest.mark.parametrize(
        "config",
        [
            '{"breathing": 5}',
            '{"breathing": {"top_frac": "x"}}',
            '{"schedule": {"reest_s": null}}',
            '{"schedule": {"window_s": Infinity}}',
            '{"canny": {"sigma": NaN}}',
            '{"canny": {"dilation_radius": true}}',
            '{"canonical_len": 2.5}',
            '{"profile_mode": 1}',
            '[1]',
        ],
    )
    def test_bad_run_config_value_exits_1(self, capsys, tmp_path, config):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(config)
        code, out, err = run_cli(capsys, "run", "v.gray8", "--config", cfg_file, "--dump-config")
        assert code == 1
        assert out == ""
        assert err.startswith("error: config: ")

    @pytest.mark.parametrize(
        "flags",
        [["--window-s", "inf"], ["--step-s", "nan"], ["--k-w=-inf"], ["--top-frac", "nan"]],
    )
    def test_non_finite_run_flag_exits_1(self, capsys, tmp_path, flags):
        code, out, err = run_cli(capsys, "run", "v.gray8", *flags)
        assert code == 1
        assert out == ""
        assert err.startswith("error: flags: ") and "must be a finite number" in err

    @pytest.mark.parametrize(
        "config",
        [
            '{"rr_segments": 5}',
            '{"rr_segments": [[0, "x"]]}',
            '{"rr_segments": [[0, 15, 1]]}',
            '{"width": "abc"}',
            '{"fps": Infinity}',
            '{"roi_jump_at_s": "soon"}',
            '{"container": null}',
        ],
    )
    def test_bad_synth_config_value_exits_1(self, capsys, tmp_path, config):
        cfg_file = tmp_path / "s.json"
        cfg_file.write_text(config)
        code, _, err = run_cli(capsys, "synth", tmp_path / "rec", "--config", cfg_file)
        assert code == 1
        assert err.startswith("error: config: ")
        assert not (tmp_path / "rec").exists()

    @pytest.mark.parametrize(
        "flags",
        [["--fps", "inf"], ["--duration-s", "nan"], ["--roi-jump-at-s", "nan"],
         ["--amplitude-px", "inf"]],
    )
    def test_non_finite_synth_flag_exits_1(self, capsys, tmp_path, flags):
        code, _, err = run_cli(capsys, "synth", tmp_path / "rec", *flags)
        assert code == 1
        assert err.startswith("error: flags: ") and "finite number" in err
        assert not (tmp_path / "rec").exists()

    @pytest.mark.parametrize("key", ["band_px", "chest_contrast", "quiet_margin_px", "jump_dy_px"])
    def test_scene_constants_are_not_synth_config_keys(self, capsys, tmp_path, key):
        cfg_file = tmp_path / "s.json"
        cfg_file.write_text(json.dumps({key: 5}))
        code, _, err = run_cli(capsys, "synth", tmp_path / "rec", "--config", cfg_file)
        assert code == 1
        assert f"error: config: unknown config key {key}" in err

    def test_synth_flags_override_config_file(self, capsys, tmp_path):
        cfg_file = tmp_path / "s.json"
        cfg_file.write_text(json.dumps({"duration_s": 5.0, "pixel_format": "GRAY8", "fps": 10}))
        code, out, _ = run_cli(capsys, "synth", tmp_path / "rec", "--config", cfg_file,
                               "--duration-s", "1")
        assert code == 0
        assert "wrote 10 frames" in out


def test_manifest_with_infinite_fps_exits_1(capsys, tmp_path):
    ds = make_recording(tmp_path / "rec", duration_s=1.0)
    meta = json.loads((ds.out_dir / "meta.json").read_text())
    (ds.out_dir / "meta.json").write_text(json.dumps({**meta, "fps": float("inf")}))
    code, out, err = run_cli(capsys, "run", ds.video_path)
    assert code == 1
    assert out == ""
    assert "error: fps must be a finite number, not inf" in err


def test_non_string_landmarks_path_exits_1(capsys, tmp_path):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps([{
        "video_path": "rec/video.gray8", "ground_truth_path": "rec/gt.csv", "landmarks_path": 5,
    }]))
    code, out, err = run_cli(capsys, "eval", manifest)
    assert code == 1
    assert out == ""
    assert "error: recording " in err and "string landmarks_path" in err


class TestCountingRule:
    """A duration becomes a count by one rule, and a position is clamped before it is rounded.

    So every setting that passes the type check either runs or exits with one error line.
    """

    UNCOUNTABLE = "{} of 1e+308 s at 30.0/s gives no finite count"
    # sizes past any 57-bit address space: the allocation fails before a page is touched
    TOO_LARGE = ("a window of canonical_len {} rows by window_s {} s at 30.0/s "
                 "is too large to allocate")
    OFF_FRAME = "ROI smaller than 8x8 after clamping to frame"

    @staticmethod
    def argv(command, manifest, out_path):
        """run on the eval fixture's 25 s recording, or synth a 2 s clip; the flags follow."""
        if command == "run":
            return ["run", manifest.parent / "rec" / "video.gray8", "--out", out_path]
        return ["synth", out_path, "--duration-s", "2", "--pixel-format", "GRAY8"]

    @pytest.mark.parametrize("command, flags, message", [
        ("run", ["--window-s", "1e308"], UNCOUNTABLE.format("window_s")),
        ("run", ["--reest-s", "1e308"], UNCOUNTABLE.format("reest_s")),
        ("run", ["--smooth-s", "1e308"], UNCOUNTABLE.format("smooth_s")),
        ("run", ["--k-top", "1e308"], OFF_FRAME),
        # the box's bottom edge is -inf + inf, which lands on the frame's top
        ("run", ["--k-top=-1e308", "--k-h", "1e308"], OFF_FRAME),
        ("synth", ["--duration-s", "1e308"], UNCOUNTABLE.format("duration_s")),
        ("run", ["--window-s", "1e14"], TOO_LARGE.format(100, 100000000000000.0)),
        ("run", ["--window-s", "1e300"], TOO_LARGE.format(100, 1e300)),
        ("run", ["--canonical-len", "100000000000000"], TOO_LARGE.format(10**14, 20.0)),
    ], ids=["window_s", "reest_s", "smooth_s", "k_top", "k_top_and_k_h", "duration_s",
            "window_s_past_memory", "window_s_past_every_dimension", "canonical_len"])
    def test_uncountable_setting_exits_1_with_one_error_line(self, capsys, tmp_path, manifest,
                                                            command, flags, message):
        out_path = tmp_path / "out"
        code, out, err = run_cli(capsys, *self.argv(command, manifest, out_path), *flags)
        assert code == 1
        assert out == ""
        assert err.splitlines() == [f"error: {message}"]
        assert not out_path.exists()

    @pytest.mark.parametrize("command, flags, same_as", [
        ("run", ["--k-w", "1e308"], ["--k-w", "1e6"]),
        ("run", ["--k-h", "1e308"], ["--k-h", "1e6"]),
        ("run", ["--dilation-radius", "1000000000"], ["--dilation-radius", "200"]),
        ("run", ["--rr-min", "0", "--rr-max", "1e-306"], ["--rr-min", "0", "--rr-max", "1"]),
        ("run", ["--smooth-s", "1e300"], ["--smooth-s", "100"]),
        ("synth", ["--roi-jump-at-s", "1e308"], ["--roi-jump-at-s", "5"]),
    ], ids=["k_w", "k_h", "dilation_radius", "rr_max", "smooth_s", "roi_jump_at_s"])
    def test_setting_past_the_data_equals_one_that_covers_it(self, capsys, tmp_path, manifest,
                                                             command, flags, same_as):
        def written(name, flags):
            out_path = tmp_path / name
            assert run_cli(capsys, *self.argv(command, manifest, out_path), *flags)[0] == 0
            if command == "run":
                return out_path.read_bytes()
            return {p.name: p.read_bytes() for p in sorted(out_path.iterdir())}

        reference = written("reference", same_as)
        if command == "synth":
            assert len(reference) == 4  # frames, meta.json, ground truth and landmarks
        assert written("extreme", flags) == reference

    def test_sigma_without_a_finite_blur_radius_exits_1_before_any_read(self, capsys, manifest,
                                                                       monkeypatch):
        def no_read(*args):
            raise AssertionError("a recording was opened")

        monkeypatch.setattr(pipeline, "open_source", no_read)
        monkeypatch.setattr(evaluate, "run_recording", no_read)
        video = manifest.parent / "rec" / "video.gray8"
        for argv in (["run", video, "--dump-config"], ["eval", manifest]):
            code, out, err = run_cli(capsys, *argv, "--sigma", "1e308")
            assert code == 1
            assert out == ""
            assert err == ("error: sigma must be positive, "
                           "with a finite blur radius ceil(3*sigma)\n")

    @pytest.mark.parametrize("flags, message", [
        (["--smooth-s", "1e308"], UNCOUNTABLE.format("smooth_s")),
        (["--window-s", "1e14"], TOO_LARGE.format(100, 100000000000000.0)),
    ], ids=["smooth_s", "window_s"])
    def test_eval_fails_every_cell_on_an_uncountable_smoothing_window(self, capsys, manifest,
                                                                      flags, message):
        code, out, _ = run_cli(capsys, "eval", manifest, *flags)
        assert code == 2
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 4
        assert all(r.endswith(",failed: " + message) for r in rows)
