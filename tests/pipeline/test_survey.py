"""End-to-end tests of the multi-beam survey pipeline, ``run_survey``."""

from repro.astro.signal_gen import SyntheticPulsar
from repro.astro.source import CompositeSource, NoiseSource, PulsarSource
from repro.survey import SurveyPlan, run_survey


def survey_with_host_beam(**kwargs):
    """An empty beam beside a beam hosting a DM-8 pulsar."""
    host = CompositeSource((
        NoiseSource(sigma=0.8),
        PulsarSource(SyntheticPulsar(0.2, dm=8.0, amplitude=1.2)),
    ))
    plan = SurveyPlan(
        n_beams=2,
        beam_sources=(NoiseSource(sigma=0.8), host),
        n_chunks=2,
        **kwargs,
    )
    return run_survey(plan)


class TestSurveyPipeline:
    def test_finds_pulsar_leaves_empty_beam_quiet(self):
        report = survey_with_host_beam()
        assert len(report.beams) == 2
        empty, host = report.beams
        assert host.accepted
        assert abs(host.accepted[0]["best"]["dm"] - 8.0) <= 1.0
        assert not empty.accepted

    def test_rfi_does_not_create_candidates(self):
        # Sidelobe RFI reaches every beam; the cross-beam veto removes it.
        report = run_survey(
            SurveyPlan(scenario="rfi_storm", setup="high", n_beams=8)
        )
        assert report.score.n_vetoed > 0
        assert report.score.post_false_positives == 0

    def test_report_summary_readable(self):
        text = survey_with_host_beam().summary()
        assert "explicit beam sources" in text and "setup 'low'" in text

    def test_realtime_flag(self):
        report = survey_with_host_beam()
        assert report.realtime  # a toy problem on a simulated HD7970
