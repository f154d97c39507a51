"""One stream chunk through a tuned plan: the chunk engine of ``repro.run``.

Streaming and fused requests both drive :func:`run_chunk` once per
:class:`~repro.astro.telescope.StreamChunk`.  Each chunk carries an
overlap region — the plan's maximum dispersion delay — so its final
output samples need no future data, and concatenating the per-chunk
planes is bit-identical to dedispersing the whole observation at once.

Without a detector the chunk's full ``(n_dms, samples)`` plane is
dedispersed in one launch and returned.  With a
:class:`~repro.search.detect.MatchedFilterDetector` the chunk is instead
dedispersed one *DM-tile slab* at a time, and each freshly-computed
slab is folded through
:meth:`~repro.search.detect.MatchedFilterDetector.detect_slabs` and
dropped before the next is produced.  The candidate list is
bit-identical to detecting on the whole plane (dedispersion is
independent per DM row; every detector statistic is row-local), but the
peak working set is one slab's, not the plane's.

Slabs are cut along the trial-DM axis in multiples of the
configuration's ``tile_dms`` — the NDRange of
:mod:`repro.opencl_sim.ndrange` requires exact work-group tiling, and
every plan's DM grid is already a whole number of tiles, so any
tile-multiple slab size launches cleanly.

The fused pass meters its peak working-set bytes with a
:class:`~repro.run.peak.MemoryAccount`; they land in
:attr:`ChunkResult.peak_bytes` and the
``repro_run_peak_bytes{path="fused"}`` histogram.  Every chunk counts
toward ``repro_pipeline_chunks_total`` and sets the
``repro_pipeline_realtime_margin`` gauge.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.errors import PipelineError, ValidationError
from repro.obs import get_registry, span
from repro.run.peak import MemoryAccount


@dataclass(frozen=True)
class ChunkResult:
    """What one stream chunk produced.

    ``output`` is the chunk's dedispersed ``(n_dms, samples)`` plane, or
    ``None`` when a detector was folded in — not materialising it is the
    point.  ``candidates`` are the fused pass's detections (already
    shifted onto the global stream timeline and labelled with the beam;
    empty without a detector); ``peak_bytes`` is the metered high-water
    working set of that pass and ``detect_seconds`` its measured
    detection wall time.  ``launches`` counts kernel launches (one per
    slab when fused).  ``simulated_seconds`` / ``realtime`` carry the
    plan's modelled dedispersion cost against the chunk's duration.
    """

    beam_index: int
    sequence: int
    simulated_seconds: float
    realtime: bool
    launches: int
    output: np.ndarray | None = None
    candidates: tuple = ()
    detect_seconds: float = 0.0
    peak_bytes: int = 0


def resolve_dm_tile(n_dms: int, tile_dms: int, dm_tile: int | None) -> int:
    """The slab height (trial DMs) a fused pass cuts the grid into.

    Must be a positive multiple of the configuration's ``tile_dms`` so
    every slab launches with exact work-group tiling.  The default aims
    for roughly sixteen slabs — small enough that the slab working set
    is a fraction of the plane's, large enough that per-slab Python and
    launch overhead stays negligible — rounded up to a tile multiple.
    """
    if dm_tile is None:
        target = max(1, -(-n_dms // 16))
        return tile_dms * max(1, -(-target // tile_dms))
    tile = int(dm_tile)
    if tile <= 0 or tile % tile_dms != 0:
        raise ValidationError(
            f"dm_tile must be a positive multiple of the configuration's "
            f"tile_dms={tile_dms}, got {dm_tile}"
        )
    return tile


def run_chunk(
    plan,
    chunk,
    backend: str | None = None,
    detector=None,
    dm_tile: int | None = None,
) -> ChunkResult:
    """Dedisperse one stream chunk, searching it slab-by-slab if fused.

    ``plan`` is a tuned :class:`~repro.core.plan.DedispersionPlan` and
    ``chunk`` a :class:`~repro.astro.telescope.StreamChunk`.  The payload
    length must equal the plan batch and the overlap must cover the
    plan's maximum delay, checked per chunk so a misconfigured
    front-end fails loudly rather than producing silently wrong tails.
    """
    if chunk.samples != plan.samples:
        raise PipelineError(
            f"chunk payload of {chunk.samples} samples does not match "
            f"the plan batch of {plan.samples}"
        )
    max_delay = int(plan.delays.max(initial=0))
    if chunk.overlap < max_delay:
        raise PipelineError(
            f"chunk overlap {chunk.overlap} < required maximum delay "
            f"{max_delay}"
        )
    labels = {"device": plan.device.name, "setup": plan.setup.name}
    if detector is None:
        with span(
            "pipeline.dedisperse",
            beam=chunk.beam_index,
            sequence=chunk.sequence,
            **labels,
        ):
            output = plan.kernel._execute(
                chunk.data, plan.delays, backend=backend
            )
        stage = "dedisperse"
        detail = {"output": output, "launches": 1}
    else:
        stage = "fused"
        detail = _fused_pass(plan, chunk, detector, backend, dm_tile, labels)

    seconds = plan.predict().seconds
    chunk_seconds = plan.samples / plan.setup.samples_per_second
    registry = get_registry()
    registry.counter("repro_pipeline_chunks_total", **labels).inc()
    if seconds > 0.0:
        registry.gauge(
            "repro_pipeline_realtime_margin", stage=stage, **labels
        ).set(chunk_seconds / seconds)
    return ChunkResult(
        beam_index=chunk.beam_index,
        sequence=chunk.sequence,
        simulated_seconds=seconds,
        realtime=seconds <= chunk_seconds,
        **detail,
    )


def _fused_pass(plan, chunk, detector, backend, dm_tile, labels) -> dict:
    """Dedisperse and detect ``chunk`` one DM-tile slab at a time."""
    n_dms = plan.delays.shape[0]
    tile = resolve_dm_tile(n_dms, plan.config.tile_dms, dm_tile)
    account = MemoryAccount()
    launches = 0
    produce_s = 0.0

    def slabs():
        """Yield float32 DM-tile slabs, each dropped before the next."""
        nonlocal launches, produce_s
        for d0 in range(0, n_dms, tile):
            start = time.perf_counter()
            slab = plan.kernel._execute(
                chunk.data, plan.delays[d0 : d0 + tile], backend=backend
            )
            produce_s += time.perf_counter() - start
            launches += 1
            account.charge(slab.nbytes)
            yield slab
            account.release(slab.nbytes)

    with span(
        "run.fused_chunk",
        beam=chunk.beam_index,
        sequence=chunk.sequence,
        **labels,
    ):
        start = time.perf_counter()
        candidates = detector.detect_slabs(
            slabs(),
            plan.grid.values,
            time_offset=chunk.sequence * plan.samples,
            beam=chunk.beam_index,
            account=account,
        )
        detect_s = time.perf_counter() - start - produce_s

    get_registry().histogram("repro_run_peak_bytes", path="fused").observe(
        float(account.peak_bytes)
    )
    return {
        "candidates": tuple(candidates),
        "detect_seconds": max(detect_s, 0.0),
        "peak_bytes": account.peak_bytes,
        "launches": launches,
    }


__all__ = ["ChunkResult", "resolve_dm_tile", "run_chunk"]
