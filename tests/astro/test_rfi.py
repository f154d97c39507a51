"""Unit tests for repro.astro.rfi."""

import numpy as np
import pytest

from repro.astro.rfi import (
    _inject_broadband_rfi,
    _inject_narrowband_rfi,
    mask_noisy_channels,
    zero_dm_filter,
)
from repro.astro.source import BroadbandRFISource, NarrowbandRFISource
from repro.errors import ValidationError
from repro.utils.rng import RandomStreams
from tests.conftest import observe


@pytest.fixture
def noise(rng):
    return rng.normal(size=(16, 1000)).astype(np.float32)


def add_rfi(source, data, setup):
    """Inject ``source`` into ``data``; returns its one truth component."""
    (component,) = source.add_to(data, setup, RandomStreams(0)).components
    return component


class TestInjection:
    def test_broadband_hits_all_channels(self, noise, toy_low):
        before = noise.copy()
        event = add_rfi(
            BroadbandRFISource(n_events=1, amplitude=10.0, width=1),
            noise,
            toy_low,
        )
        (t,) = event.time_samples
        assert np.all(noise[:, t] - before[:, t] == pytest.approx(10.0))

    def test_broadband_width(self, noise, toy_low):
        event = add_rfi(
            BroadbandRFISource(n_events=1, amplitude=10.0, width=5),
            noise,
            toy_low,
        )
        (t,) = event.time_samples
        assert noise[0, t:t + 5].mean() > 5
        assert noise[0, t + 6] < 5

    def test_broadband_bounds_checked(self, noise):
        with pytest.raises(ValidationError):
            _inject_broadband_rfi(noise, [5000])

    def test_narrowband_raises_one_channel(self, noise, toy_low):
        event = add_rfi(
            NarrowbandRFISource(n_channels=1, amplitude=5.0), noise, toy_low
        )
        variances = noise.var(axis=1)
        assert event.channels == (int(np.argmax(variances)),)

    def test_narrowband_bounds_checked(self, noise):
        with pytest.raises(ValidationError):
            _inject_narrowband_rfi(noise, [99])


class TestChannelMask:
    def test_masks_contaminated_channel(self, noise, toy_low):
        event = add_rfi(
            NarrowbandRFISource(n_channels=1, amplitude=8.0), noise, toy_low
        )
        (channel,) = event.channels
        mask = mask_noisy_channels(noise)
        assert not mask.mask[channel]
        assert mask.n_masked == 1
        assert np.all(noise[channel] == 0.0)

    def test_clean_data_untouched(self, noise):
        mask = mask_noisy_channels(noise, sigma_threshold=8.0)
        assert mask.n_masked == 0

    def test_multiple_channels(self, noise, toy_low):
        event = add_rfi(
            NarrowbandRFISource(n_channels=2, amplitude=8.0), noise, toy_low
        )
        assert len(event.channels) == 2
        mask = mask_noisy_channels(noise)
        assert not mask.mask[list(event.channels)].any()

    def test_rejects_1d(self):
        with pytest.raises(ValidationError):
            mask_noisy_channels(np.zeros(16))


class TestZeroDMFilter:
    def test_kills_broadband_rfi(self, noise, toy_low):
        event = add_rfi(
            BroadbandRFISource(n_events=1, amplitude=20.0, width=2),
            noise,
            toy_low,
        )
        (t,) = event.time_samples
        zero_dm_filter(noise)
        # The undispersed spike is annihilated to the noise level.
        assert abs(float(noise[:, t].mean())) < 1e-4

    def test_band_mean_zero_afterwards(self, noise):
        zero_dm_filter(noise)
        assert np.allclose(noise.mean(axis=0), 0.0, atol=1e-4)

    def test_dispersed_pulse_mostly_survives(self, toy_low):
        # A dispersed pulse occupies few channels per sample, so the filter
        # keeps most of its energy — while an *undispersed* pulse of the
        # same shape is annihilated.
        from repro.astro.signal_gen import SyntheticPulsar
        from repro.astro.source import NoiseSource, PulsarSource

        def filtered_energy(dm: float) -> tuple[float, float]:
            pulsar = SyntheticPulsar(
                period_seconds=0.5, dm=dm, amplitude=2.0
            )
            data = observe(
                toy_low,
                1.0,
                (NoiseSource(sigma=0.0), PulsarSource(pulsar)),
                seed=0,
                max_dm=8.0,
            )
            before = float((data ** 2).sum())
            zero_dm_filter(data)
            return float((data ** 2).sum()), before

        dispersed_after, dispersed_before = filtered_energy(8.0)
        flat_after, flat_before = filtered_energy(0.0)
        assert dispersed_after > 0.5 * dispersed_before
        assert flat_after < 0.05 * flat_before

    def test_detection_robust_to_rfi_with_filter(self, toy_low, rng):
        # The survey-grade workflow: RFI in, filter, dedisperse, detect the
        # true pulsar rather than the DM-0 interference.
        from repro.astro.dm_trials import DMTrialGrid
        from repro.astro.signal_gen import SyntheticPulsar
        from repro.astro.source import NoiseSource, PulsarSource
        from repro.astro.snr import detect_dm
        from repro.baselines.cpu_reference import dedisperse_vectorized

        grid = DMTrialGrid(16, step=1.0)
        pulsar = SyntheticPulsar(period_seconds=0.25, dm=9.0, amplitude=1.5)
        data = observe(
            toy_low,
            1.0,
            (
                NoiseSource(),
                PulsarSource(pulsar),
                BroadbandRFISource(n_events=3, amplitude=8.0, width=3),
            ),
            seed=12345,
            max_dm=grid.last,
        )
        # Without mitigation the brightest candidate sits at DM ~0.
        raw = dedisperse_vectorized(data.copy(), toy_low, grid, 400)
        contaminated = detect_dm(raw, grid.values)
        assert contaminated.dm <= 1.0

        # After the filter, search above DM 0 (the DM-0 series of filtered
        # data is identically null — see zero_dm_filter's docstring).
        zero_dm_filter(data)
        search_grid = DMTrialGrid(15, first=1.0, step=1.0)
        clean = dedisperse_vectorized(data, toy_low, search_grid, 400)
        detection = detect_dm(clean, search_grid.values)
        assert abs(detection.dm - 9.0) <= 1.0
