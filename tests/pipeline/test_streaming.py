"""Unit tests for repro.pipeline.streaming."""

import numpy as np
import pytest

from repro.astro.signal_gen import SyntheticPulsar
from repro.astro.telescope import StreamChunk, Telescope
from repro.core.config import KernelConfiguration
from repro.core.plan import DedispersionPlan
from repro.errors import PipelineError
from repro.hardware.catalog import hd7970
from repro.pipeline.streaming import StreamingDedispersion
from repro.run import ExecutionRequest, execute


@pytest.fixture
def plan(toy_low, toy_grid):
    return DedispersionPlan.create(
        toy_low,
        toy_grid,
        hd7970(),
        config=KernelConfiguration(16, 4, 5, 2),
        samples=toy_low.samples_per_second,
    )


@pytest.fixture
def telescope(toy_low):
    return Telescope(setup=toy_low, noise_sigma=0.5, seed=9)


class TestProcess:
    def test_chunk_result_fields(self, plan, telescope, toy_grid):
        beam = telescope.add_beam()
        chunk = next(iter(telescope.stream(beam, 1, toy_grid)))
        stream = StreamingDedispersion(plan)
        result = stream.process(chunk)
        assert result.beam_index == beam.index
        assert result.sequence == 0
        assert result.output.shape == (toy_grid.n_dms, plan.samples)
        assert result.simulated_seconds > 0
        assert stream.processed == 1

    def test_streaming_equals_batch(self, plan, telescope, toy_grid, toy_low):
        # Concatenated chunk outputs must be bit-identical to dedispersing
        # the whole observation at once.
        beam = telescope.add_beam(
            pulsars=(SyntheticPulsar(period_seconds=0.3, dm=2.0),)
        )
        n_chunks = 3
        chunks = list(telescope.stream(beam, n_chunks, toy_grid))
        stream = StreamingDedispersion(plan)
        outputs = [stream.process(c).output for c in chunks]
        streamed = np.concatenate(outputs, axis=1)

        # Rebuild the full observation from chunk payloads + final overlap.
        payload = np.concatenate(
            [c.data[:, : c.samples] for c in chunks], axis=1
        )
        tail = chunks[-1].data[:, chunks[-1].samples :]
        full = np.concatenate([payload, tail], axis=1)

        batch_outputs = []
        for i in range(n_chunks):
            start = i * plan.samples
            stop = start + plan.samples + chunks[0].overlap
            request = ExecutionRequest(data=full[:, start:stop], plan=plan)
            batch_outputs.append(execute(request).output)
        batch = np.concatenate(batch_outputs, axis=1)
        np.testing.assert_array_equal(streamed, batch)

    def test_process_stream_orders_results(self, plan, telescope, toy_grid):
        beam = telescope.add_beam()
        results = StreamingDedispersion(plan).process_stream(
            telescope.stream(beam, 4, toy_grid)
        )
        assert [r.sequence for r in results] == [0, 1, 2, 3]


class TestValidation:
    def test_rejects_wrong_payload(self, plan, toy_low):
        bad = StreamChunk(
            beam_index=0,
            sequence=0,
            data=np.zeros((toy_low.channels, 300), dtype=np.float32),
            samples=200,
            overlap=100,
        )
        with pytest.raises(PipelineError, match="does not match"):
            StreamingDedispersion(plan).process(bad)

    def test_rejects_insufficient_overlap(self, plan, toy_low):
        s = plan.samples
        bad = StreamChunk(
            beam_index=0,
            sequence=0,
            data=np.zeros((toy_low.channels, s + 1), dtype=np.float32),
            samples=s,
            overlap=1,
        )
        with pytest.raises(PipelineError, match="overlap"):
            StreamingDedispersion(plan).process(bad)
