"""High-level dedispersion entry point.

:func:`dedisperse` is the one-call API: channelised data in, DM-trial
matrix out, auto-tuned under the hood.  The sequential Algorithm 1
oracles it is tested against live in :mod:`repro.baselines.cpu_reference`.
"""

from __future__ import annotations

import numpy as np

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import ObservationSetup
from repro.core.config import KernelConfiguration
from repro.core.plan import DedispersionPlan
from repro.errors import ValidationError
from repro.hardware.catalog import hd7970
from repro.hardware.device import DeviceSpec


def dedisperse(
    input_data: np.ndarray,
    setup: ObservationSetup,
    grid: DMTrialGrid,
    device: DeviceSpec | None = None,
    config: KernelConfiguration | None = None,
    samples: int | None = None,
) -> tuple[np.ndarray, DedispersionPlan]:
    """Dedisperse one batch of channelised data for every trial DM.

    ``input_data`` has shape ``(channels, t)``; the output batch length is
    ``samples`` (default: as many output samples as the input length and
    the grid's maximum delay allow, capped at the setup batch).  When no
    ``config`` is given the kernel is auto-tuned for ``device`` (default:
    the paper's best performer, the AMD HD7970).

    Returns ``(output, plan)`` — the ``(n_dms, samples)`` matrix plus the
    plan, so callers can reuse the tuned kernel for subsequent batches.
    """
    input_data = np.asarray(input_data)
    if input_data.ndim != 2 or input_data.shape[0] != setup.channels:
        raise ValidationError(
            f"input must have shape (channels={setup.channels}, t), "
            f"got {input_data.shape}"
        )
    device = device or hd7970()
    if samples is None:
        from repro.astro.dispersion import max_delay_samples

        available = input_data.shape[1] - max_delay_samples(setup, grid.last)
        if available <= 0:
            raise ValidationError(
                "input too short to dedisperse at the grid's maximum DM"
            )
        samples = min(available, setup.samples_per_batch)
    plan = DedispersionPlan.create(
        setup, grid, device, config=config, samples=samples
    )
    from repro.run import ExecutionRequest, execute

    result = execute(ExecutionRequest(data=input_data, plan=plan))
    return result.output, plan

