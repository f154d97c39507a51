"""Unit tests for repro.core.dedisperse — the one-call API."""

import numpy as np
import pytest

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.signal_gen import SyntheticPulsar
from repro.astro.source import NoiseSource, PulsarSource
from repro.astro.snr import detect_dm
from repro.baselines.cpu_reference import dedisperse_vectorized
from repro.core.dedisperse import dedisperse
from repro.errors import ValidationError
from repro.hardware.catalog import gtx680
from repro.run import ExecutionRequest, execute
from tests.conftest import make_input, observe


class TestDedisperse:
    def test_matches_reference(self, toy_low, toy_grid, rng):
        data = make_input(toy_low, toy_grid, rng)
        out, plan = dedisperse(data, toy_low, toy_grid, samples=400)
        ref = dedisperse_vectorized(data, toy_low, toy_grid, 400)
        np.testing.assert_allclose(out, ref, rtol=1e-5)
        assert plan.samples == 400

    def test_infers_samples_from_input(self, toy_low, toy_grid, rng):
        data = make_input(toy_low, toy_grid, rng, samples=400)
        out, plan = dedisperse(data, toy_low, toy_grid)
        assert out.shape == (toy_grid.n_dms, 400)

    def test_device_selectable(self, toy_low, toy_grid, rng):
        data = make_input(toy_low, toy_grid, rng)
        _, plan = dedisperse(
            data, toy_low, toy_grid, device=gtx680(), samples=400
        )
        assert plan.device.name == "GTX 680"

    def test_rejects_wrong_shape(self, toy_low, toy_grid):
        with pytest.raises(ValidationError):
            dedisperse(
                np.zeros((3, 1000), dtype=np.float32), toy_low, toy_grid
            )

    def test_rejects_too_short_input(self, toy_low, rng):
        grid = DMTrialGrid(n_dms=8, step=5.0)  # huge delays
        data = rng.normal(size=(toy_low.channels, 100)).astype(np.float32)
        with pytest.raises(ValidationError, match="too short"):
            dedisperse(data, toy_low, grid)

    def test_plan_reusable_for_next_batch(self, toy_low, toy_grid, rng):
        data = make_input(toy_low, toy_grid, rng)
        out1, plan = dedisperse(data, toy_low, toy_grid, samples=400)
        data2 = make_input(toy_low, toy_grid, rng)
        out2 = execute(ExecutionRequest(data=data2, plan=plan)).output
        assert out2.shape == out1.shape
        assert not np.array_equal(out1, out2)


class TestEndToEndRecovery:
    def test_recovers_injected_dm(self, toy_low):
        grid = DMTrialGrid(n_dms=8, step=1.0)
        true_dm = 4.0
        pulsar = SyntheticPulsar(
            period_seconds=0.25, dm=true_dm, amplitude=1.5
        )
        data = observe(
            toy_low,
            1.0,
            (NoiseSource(), PulsarSource(pulsar)),
            seed=3,
            max_dm=grid.last,
        )
        out, _ = dedisperse(data, toy_low, grid, samples=400)
        detection = detect_dm(out, grid.values)
        assert abs(detection.dm - true_dm) <= grid.step
        assert detection.snr > 5.0
