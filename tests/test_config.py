import pytest

from rrvision.config import RunConfig, apply_overrides
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
