"""Unit tests for repro.survey.plan — the survey configuration value."""

import pytest

from repro.astro.source import NoiseSource
from repro.errors import ValidationError
from repro.survey import SurveyPlan


class TestValidation:
    def test_defaults_are_valid(self):
        plan = SurveyPlan()
        assert plan.scenario == "giant_pulse_train"
        assert plan.n_beams == 8

    def test_rejects_non_positive_beams(self):
        with pytest.raises(ValidationError, match="n_beams"):
            SurveyPlan(n_beams=0)

    def test_rejects_negative_signal_radius(self):
        with pytest.raises(ValidationError, match="signal_radius"):
            SurveyPlan(signal_radius=-1)

    @pytest.mark.parametrize("attenuation", (0.0, 1.5, -0.2))
    def test_rejects_out_of_range_attenuation(self, attenuation):
        with pytest.raises(ValidationError, match="adjacent_attenuation"):
            SurveyPlan(adjacent_attenuation=attenuation)

    def test_rejects_non_positive_dm_override(self):
        with pytest.raises(ValidationError, match="n_dms"):
            SurveyPlan(n_dms=0)
        # Both columns pin a configuration tiling 12 DMs per work-group.
        with pytest.raises(ValidationError, match="multiple of 12"):
            SurveyPlan(setup="high", n_dms=64)
        plan = SurveyPlan(setup="high", n_dms=60).column().plan()
        assert plan.grid.n_dms == 60

    def test_beam_sources_must_cover_every_beam(self):
        with pytest.raises(ValidationError, match="one source per beam"):
            SurveyPlan(n_beams=4, beam_sources=(NoiseSource(),) * 3)

    def test_unknown_setup_key_is_rejected(self):
        with pytest.raises(ValidationError):
            SurveyPlan(setup="ultra").column()


class TestColumn:
    def test_default_uses_column_grid(self):
        plan = SurveyPlan(setup="low")
        assert plan.column().grid.n_dms == 12

    def test_n_dms_override_keeps_first_and_step(self):
        base = SurveyPlan(setup="low").column().grid
        grid = SurveyPlan(setup="low", n_dms=24).column().grid
        assert grid.n_dms == 24
        assert grid.first == base.first
        assert grid.step == base.step


class TestSignalBeams:
    def test_neighbourhood_is_centre_plus_minus_radius(self):
        assert SurveyPlan(n_beams=8, signal_radius=1).signal_beams() == (
            3, 4, 5,
        )

    def test_radius_zero_is_centre_only(self):
        assert SurveyPlan(n_beams=8, signal_radius=0).signal_beams() == (4,)

    def test_neighbourhood_clamps_to_valid_beams(self):
        assert SurveyPlan(n_beams=2, signal_radius=3).signal_beams() == (0, 1)


class TestIdentity:
    def test_identity_pins_resume_relevant_fields(self):
        identity = SurveyPlan(scenario="rfi_storm", n_beams=8).identity()
        assert identity["scenario"] == "rfi_storm"
        assert identity["n_beams"] == 8
        assert identity["n_dms"] == 12
        assert identity["backend"] == "auto"
        assert identity["explicit_sources"] is False

    def test_different_plans_have_different_identities(self):
        a = SurveyPlan(n_beams=8).identity()
        b = SurveyPlan(n_beams=12).identity()
        assert a != b

    def test_explicit_sources_blank_the_scenario(self):
        plan = SurveyPlan(
            n_beams=2, beam_sources=(NoiseSource(), NoiseSource())
        )
        identity = plan.identity()
        assert identity["scenario"] == ""
        assert identity["explicit_sources"] is True
