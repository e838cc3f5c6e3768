import dataclasses
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import pytest

from rrvision.config import BreathingConfig, RunConfig, apply_overrides
from rrvision.synth import SynthConfig


class TestApplyOverrides:
    def test_int_passes_for_a_float_field(self):
        cfg = RunConfig.from_dict({"schedule": {"window_s": 30}})
        assert cfg.schedule.window_s == 30

    @pytest.mark.parametrize(
        "d",
        [
            {"canonical_len": True},
            {"canonical_len": 2.0},
            {"schedule": {"window_s": 10**400}},
            {"schedule": {"window_s": False}},
            {"profile_mode": None},
            {"geometry": None},
        ],
    )
    def test_value_must_fit_the_default_type(self, d):
        with pytest.raises(ValueError, match="^where: "):
            apply_overrides(RunConfig(), d, "where")

    def test_unknown_section_key_names_its_path(self):
        with pytest.raises(ValueError, match="unknown config key canny.sigmaa"):
            RunConfig.from_dict({"canny": {"sigmaa": 1.0}})

    def test_none_default_takes_null_or_a_number(self):
        scfg = SynthConfig()
        apply_overrides(scfg, {"roi_jump_at_s": 12}, "config")
        assert scfg.roi_jump_at_s == 12
        apply_overrides(scfg, {"roi_jump_at_s": None}, "config")
        assert scfg.roi_jump_at_s is None

    def test_rr_segments_become_tuples(self):
        scfg = SynthConfig()
        apply_overrides(scfg, {"rr_segments": [[0, 12.0], [30.0, 20]]}, "config")
        assert scfg.rr_segments == [(0, 12.0), (30.0, 20)]

    @pytest.mark.parametrize("segments", [[[0.0, float("nan")]], [[0.0]], [(0.0, True)], "0:15"])
    def test_rr_segments_must_be_finite_pairs(self, segments):
        with pytest.raises(ValueError, match="a list of finite \\[start, bpm\\] pairs"):
            apply_overrides(SynthConfig(), {"rr_segments": segments}, "config")

    def test_rejected_value_leaves_the_field_unchanged(self):
        cfg = RunConfig()
        with pytest.raises(ValueError):
            apply_overrides(cfg, {"canny": {"sigma": 2.0, "low": "x"}}, "config")
        assert cfg.canny.low == 50.0


class TestValidate:
    def test_no_group_at_canonical_len_rejected(self):
        cfg = RunConfig(canonical_len=19)  # groups of 0.95 rows
        with pytest.raises(ValueError, match="too few rows for group_frac 0.05: 19"):
            cfg.validate()

    def test_group_count_must_be_whole_for_the_written_decimals(self):
        # 0.3 / 0.09999999999 is 3.0000000003: whole within a float tolerance of 1e-9
        cfg = RunConfig.from_dict({"breathing": {"top_frac": 0.3, "group_frac": 0.09999999999}})
        with pytest.raises(ValueError, match="group_frac must divide top_frac"):
            cfg.validate()

    def test_groups_follow_rational_arithmetic_on_the_written_decimals(self):
        fracs = [1e-05, 0.01, 0.02, 0.05, 0.07, 0.1, 0.15, 0.29, 0.3, 0.333, 0.57, 0.58, 1.0]
        for group_frac in fracs:
            group = Fraction(str(group_frac))
            for top_frac in (f for f in fracs if f >= group_frac):
                cfg = BreathingConfig(top_frac=top_frac, group_frac=group_frac)
                n_groups = Fraction(str(top_frac)) / group
                for n_rows in range(1, 301):
                    size = math.floor(n_rows * group)
                    if n_groups.denominator != 1 or size < 1:
                        with pytest.raises(ValueError):
                            cfg.groups(n_rows)
                    else:
                        assert cfg.groups(n_rows) == (size, int(n_groups))

    @pytest.mark.parametrize("d, message", [
        ({"rr_min": -1.0, "rr_max": 0.0}, "need 0 <= rr_min < rr_max"),
        ({"smooth_s": -1.0}, "smooth_s must be >= 0"),
        ({"prominence_factor": -0.1}, "prominence_factor must be >= 0"),
    ])
    def test_negative_breathing_values_rejected(self, d, message):
        with pytest.raises(ValueError, match=message):
            RunConfig.from_dict({"breathing": d}).validate()

    @pytest.mark.parametrize("d", [{"rr_min": 0.0}, {"smooth_s": 0.0}, {"prominence_factor": 0.0}])
    def test_zero_breathing_values_accepted(self, d):
        RunConfig.from_dict({"breathing": d}).validate()

    @pytest.mark.parametrize("step_s", [0.0, -1.0])
    def test_non_positive_step_rejected(self, step_s):
        with pytest.raises(ValueError, match="^step_s must be positive$"):
            RunConfig.from_dict({"schedule": {"step_s": step_s}}).validate()

    @pytest.mark.parametrize("d", [{"k_w": 0.0}, {"k_w": -1.0}, {"k_h": 0.0}, {"k_h": -1.0}])
    def test_non_positive_roi_size_factor_rejected(self, d):
        with pytest.raises(ValueError, match="^k_w and k_h must be positive$"):
            RunConfig.from_dict({"geometry": d}).validate()

    @pytest.mark.parametrize("k_top", [0.0, -0.5])
    def test_k_top_is_free(self, k_top):
        RunConfig.from_dict({"geometry": {"k_top": k_top}}).validate()


class TestDocumentedDefaults:
    def test_readme_json_block_is_the_run_config_defaults(self):
        # the README states the defaults once, in its one json block
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"^```json\n(.*?)^```$", readme, re.M | re.S)
        assert len(blocks) == 1
        assert json.loads(blocks[0]) == dataclasses.asdict(RunConfig())
