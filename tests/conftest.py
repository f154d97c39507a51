"""Shared fixtures: laptop-scale setups and devices for functional tests.

The paper-scale setups (1,024 channels x 20,000+ samples) are fine for the
analytic model but too slow for the functional NumPy kernel in unit tests,
so most functional tests run on the toy setups below.  The toy "low" setup
mirrors LOFAR's regime (low frequencies, strong dispersion), the toy
"high" setup mirrors Apertif's (high frequencies, heavy reuse).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import ObservationSetup
from repro.hardware.catalog import (
    gtx680,
    gtx_titan,
    hd7970,
    k20,
    xeon_e5_2620,
    xeon_phi_5110p,
)


@pytest.fixture(autouse=True)
def _obs_snapshot_in_tmp(tmp_path, monkeypatch):
    """Keep CLI observability snapshots out of the working directory."""
    monkeypatch.setenv("REPRO_OBS_PATH", str(tmp_path / "obs-snapshot.json"))


@pytest.fixture
def toy_low() -> ObservationSetup:
    """A small, LOFAR-like setup: low frequencies, strong dispersion."""
    return ObservationSetup(
        name="toy-low",
        channels=16,
        lowest_frequency=140.0,
        channel_bandwidth=0.2,
        samples_per_second=400,
        samples_per_batch=400,
    )


@pytest.fixture
def toy_high() -> ObservationSetup:
    """A small, Apertif-like setup: high frequencies, heavy reuse."""
    return ObservationSetup(
        name="toy-high",
        channels=32,
        lowest_frequency=1420.0,
        channel_bandwidth=2.0,
        samples_per_second=480,
        samples_per_batch=480,
    )


@pytest.fixture
def toy_grid() -> DMTrialGrid:
    """A small DM grid matching the toy setups."""
    return DMTrialGrid(n_dms=8, first=0.0, step=1.0)


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for reproducible test data."""
    return np.random.default_rng(12345)


@pytest.fixture(params=["hd7970", "xeon_phi", "gtx680", "k20", "titan"])
def any_accelerator(request):
    """Parametrised over the five accelerators of Table I."""
    return {
        "hd7970": hd7970,
        "xeon_phi": xeon_phi_5110p,
        "gtx680": gtx680,
        "k20": k20,
        "titan": gtx_titan,
    }[request.param]()


@pytest.fixture
def cpu_device():
    """The CPU baseline device."""
    return xeon_e5_2620()


def make_input(
    setup: ObservationSetup,
    grid: DMTrialGrid,
    rng: np.random.Generator,
    samples: int | None = None,
) -> np.ndarray:
    """Random channelised input long enough for the grid's maximum DM."""
    from repro.astro.dispersion import max_delay_samples

    s = samples or setup.samples_per_batch
    t = s + max_delay_samples(setup, grid.last)
    return rng.normal(size=(setup.channels, t)).astype(np.float32)


def launch(kernel, data, delay_table, **kwargs) -> np.ndarray:
    """Dedisperse ``data`` through ``kernel`` via the :mod:`repro.run` facade.

    Keyword arguments (``out=``, ``backend=``) pass through to the
    :class:`~repro.run.ExecutionRequest`; returns its output matrix.
    """
    from repro.run import ExecutionRequest, execute

    request = ExecutionRequest(
        data=data, kernel=kernel, delay_table=delay_table, **kwargs
    )
    return execute(request).output


def observe(
    setup: ObservationSetup,
    seconds: float,
    sources,
    seed: int,
    max_dm: float | None = None,
) -> np.ndarray:
    """``seconds`` of ``setup`` data composed from ``sources``.

    Generated through the seeded :class:`~repro.astro.source.SignalSource`
    API; ``max_dm`` appends the maximum dispersion delay so every output
    sample of a dedispersion up to that DM has valid input.
    """
    from repro.astro.dispersion import max_delay_samples
    from repro.astro.source import CompositeSource
    from repro.utils.rng import RandomStreams

    n_samples = int(round(seconds * setup.samples_per_second))
    if max_dm is not None:
        n_samples += max_delay_samples(setup, max_dm)
    data, _ = CompositeSource(tuple(sources)).generate(
        setup, n_samples, RandomStreams(seed)
    )
    return data


def staged_search(plan, chunks, detector, policy=None, backend=None):
    """The staged reference of a fused search, built from public calls.

    Each chunk's whole plane is materialised with
    ``execute(...chunks=(chunk,)).output``, charged to a fresh
    :class:`~repro.run.MemoryAccount` and searched with
    :meth:`~repro.search.detect.MatchedFilterDetector.detect`; the pooled
    detections are sifted once at the end.  Returns ``(per_chunk,
    sifted, peaks)``: each chunk's raw candidates, the
    :class:`~repro.search.sift.SiftResult` of them all, and each chunk's
    metered peak working-set bytes.
    """
    from repro.run import ExecutionRequest, MemoryAccount, execute
    from repro.search.sift import SiftPolicy, sift_candidates

    per_chunk, peaks = [], []
    for chunk in chunks:
        output = execute(
            ExecutionRequest(plan=plan, chunks=(chunk,), backend=backend)
        ).output
        account = MemoryAccount()
        account.charge(output.nbytes)
        per_chunk.append(
            detector.detect(
                output,
                plan.grid.values,
                time_offset=chunk.sequence * plan.samples,
                beam=chunk.beam_index,
                account=account,
            )
        )
        peaks.append(account.peak_bytes)
    sifted = sift_candidates(
        [c for found in per_chunk for c in found],
        plan.grid.values,
        policy or SiftPolicy(),
    )
    return per_chunk, sifted, peaks
