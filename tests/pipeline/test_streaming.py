"""Streaming a tuned plan over chunks through ``repro.run.execute``."""

import numpy as np
import pytest

from repro.astro.signal_gen import SyntheticPulsar
from repro.astro.telescope import StreamChunk, Telescope
from repro.core.config import KernelConfiguration
from repro.core.plan import DedispersionPlan
from repro.errors import PipelineError
from repro.hardware.catalog import hd7970
from repro.run import ExecutionRequest, execute
from repro.search.detect import MatchedFilterDetector


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


def chunked_requests(plan, chunk):
    """One streaming and one fused request for the same single chunk."""
    return (
        ExecutionRequest(plan=plan, chunks=(chunk,)),
        ExecutionRequest(
            plan=plan,
            chunks=(chunk,),
            detector=MatchedFilterDetector.for_samples(plan.samples),
        ),
    )


class TestProcess:
    def test_chunk_result_fields(self, plan, telescope, toy_grid):
        beam = telescope.add_beam()
        chunk = next(iter(telescope.stream(beam, 1, toy_grid)))
        result = execute(ExecutionRequest(plan=plan, chunks=(chunk,)))
        (chunk_result,) = result.chunk_results
        assert chunk_result.beam_index == beam.index
        assert chunk_result.sequence == 0
        assert chunk_result.output.shape == (toy_grid.n_dms, plan.samples)
        assert chunk_result.simulated_seconds > 0
        assert chunk_result.candidates == ()
        assert result.launches == 1

    def test_streaming_equals_batch(self, plan, telescope, toy_grid, toy_low):
        # Concatenated chunk outputs must be bit-identical to dedispersing
        # the whole observation at once.
        beam = telescope.add_beam(
            pulsars=(SyntheticPulsar(period_seconds=0.3, dm=2.0),)
        )
        n_chunks = 3
        chunks = list(telescope.stream(beam, n_chunks, toy_grid))
        streamed = execute(
            ExecutionRequest(plan=plan, chunks=tuple(chunks))
        ).output

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

    def test_chunk_results_in_stream_order(self, plan, telescope, toy_grid):
        beam = telescope.add_beam()
        result = execute(
            ExecutionRequest(
                plan=plan, chunks=telescope.stream(beam, 4, toy_grid)
            )
        )
        assert [r.sequence for r in result.chunk_results] == [0, 1, 2, 3]


class TestValidation:
    """Both chunked modes check every chunk against the plan."""

    def test_rejects_wrong_payload(self, plan, toy_low):
        bad = StreamChunk(
            beam_index=0,
            sequence=0,
            data=np.zeros((toy_low.channels, 300), dtype=np.float32),
            samples=200,
            overlap=100,
        )
        for request in chunked_requests(plan, bad):
            with pytest.raises(PipelineError, match="does not match"):
                execute(request)

    def test_rejects_insufficient_overlap(self, plan, toy_low):
        s = plan.samples
        bad = StreamChunk(
            beam_index=0,
            sequence=0,
            data=np.zeros((toy_low.channels, s + 1), dtype=np.float32),
            samples=s,
            overlap=1,
        )
        for request in chunked_requests(plan, bad):
            with pytest.raises(PipelineError, match="overlap"):
                execute(request)
