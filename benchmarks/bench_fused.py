"""Benchmark the fused dedisperse→detect search against a staged one.

The fused execution mode (:mod:`repro.run.fused`) interleaves
dedispersion and matched-filter detection over DM-tile slabs so the
chunk's full DM×time plane never exists in memory.  Both sides are
composed from public calls (:func:`composed_search`): one ``execute``
request per chunk — with the detector folded in, or materialising the
plane for ``MatchedFilterDetector.detect`` — then one
``sift_candidates`` over the stream.  This benchmark pins the three
numbers that justify fusing, per setup and per kernel backend:

* **peak working set** — the metered per-chunk high-water bytes
  (:class:`repro.run.MemoryAccount`, the same accounting rules on
  both paths).  The acceptance number: the fused path must hold at
  least a 4x reduction at the Apertif scale.
* **wall time** — seconds to search the same chunks, measured after
  the parity runs have warmed every code path; fused must be no slower
  than staged beyond a small tolerance (it does the same arithmetic,
  just tiled).
* **candidate parity** — accepted/vetoed candidate lists must be
  bit-identical across fused/staged/``search_stream`` *and* across the
  tiled/vectorized/channel_tile executors; any divergence fails the
  run.

::

    PYTHONPATH=src python benchmarks/bench_fused.py
    PYTHONPATH=src python benchmarks/bench_fused.py --smoke

``--smoke`` shrinks the streams so CI finishes in seconds; the emitted
``BENCH_fused.json`` marks itself accordingly.
"""

import argparse
import json
import time
from dataclasses import replace
from pathlib import Path

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import apertif, lofar
from repro.astro.signal_gen import SyntheticPulsar
from repro.astro.telescope import Telescope
from repro.core.plan import DedispersionPlan
from repro.hardware.catalog import hd7970
from repro.run import ExecutionRequest, MemoryAccount, execute
from repro.search import (
    MatchedFilterDetector,
    SearchConfig,
    search_stream,
    sift_candidates,
)

DEFAULT_OUT = Path(__file__).resolve().parents[1] / "BENCH_fused.json"

#: (scale label, setup factory, chunk samples, n_dms, DM step, chunks).
#: Mirrors bench_search.py, but the Apertif grid is taller (256 trials):
#: Apertif's tuned configuration tiles 32 DMs per work group, so a
#: plane-scale peak advantage needs a grid several work-group tiles
#: high — which is also the realistic regime (the paper's Apertif runs
#: search thousands of trials).
SCALES = [
    ("lofar", lofar, 20_000, 16, 1.0, 4),
    ("apertif", apertif, 1_000, 256, 1.0, 3),
]
SMOKE_SCALES = [
    ("lofar", lofar, 4_000, 16, 1.0, 2),
    ("apertif", apertif, 500, 16, 1.0, 2),
]

#: Every kernel executor must produce the same candidates either way.
BACKENDS = ("tiled", "vectorized", "channel_tile")

#: Fused may not be slower than staged by more than this factor (same
#: arithmetic, tiled differently; the slack absorbs timer noise).
WALL_TOLERANCE = 1.25

#: Required peak-memory advantage of the fused path at Apertif scale.
APERTIF_MIN_PEAK_RATIO = 4.0


def _signature(sifted):
    """A comparable, exact value of everything the search found."""
    return (sifted.accepted, sifted.vetoed)


def composed_search(plan, chunks, config, backend, fused):
    """One public call per layer and chunk; returns ``(sift, peak)``.

    Fused, each chunk is one ``execute`` request with the detector
    folded in.  Staged, each chunk's whole plane comes from ``execute``
    and is searched by ``MatchedFilterDetector.detect``.  Both sides
    pay the same per-chunk facade cost and end in one
    ``sift_candidates``, so the timing compares fusing with staging
    alone.  ``peak`` is the largest per-chunk working set, metered by
    the same :class:`~repro.run.MemoryAccount` rules on both sides.
    """
    detector = MatchedFilterDetector(
        snr_threshold=config.snr_threshold, widths=config.widths
    )
    raw, peak = [], 0
    for chunk in chunks:
        if fused:
            result = execute(
                ExecutionRequest(
                    plan=plan,
                    chunks=(chunk,),
                    backend=backend,
                    detector=detector,
                )
            )
            raw.extend(result.candidates)
            peak = max(peak, result.peak_bytes)
            continue
        output = execute(
            ExecutionRequest(plan=plan, chunks=(chunk,), backend=backend)
        ).output
        account = MemoryAccount()
        account.charge(output.nbytes)
        raw.extend(
            detector.detect(
                output,
                plan.grid.values,
                time_offset=chunk.sequence * plan.samples,
                beam=chunk.beam_index,
                account=account,
            )
        )
        peak = max(peak, account.peak_bytes)
    sifted = sift_candidates(raw, plan.grid.values, config.sift_policy)
    return sifted, peak


def bench_scale(label, setup_factory, samples, n_dms, dm_step, n_chunks,
                repeats):
    setup = replace(setup_factory(), samples_per_batch=samples)
    grid = DMTrialGrid(n_dms=n_dms, first=dm_step, step=dm_step)
    plan = DedispersionPlan.create(setup, grid, hd7970())
    chunk_seconds = plan.samples / setup.samples_per_second

    true_dm = float(grid.values[n_dms // 2])
    telescope = Telescope(setup=setup, noise_sigma=1.0, seed=42)
    beam = telescope.add_beam(
        pulsars=(
            SyntheticPulsar(
                n_chunks * chunk_seconds / 3.0, dm=true_dm, amplitude=0.5
            ),
        )
    )
    chunks = list(
        telescope.stream(beam, n_chunks, grid, chunk_seconds=chunk_seconds)
    )

    config = SearchConfig()
    # Parity runs first, so every code path is warm before any timing.
    reference = None
    for backend in BACKENDS:
        report = search_stream(plan, iter(chunks), config, backend=backend)
        found = {
            "search_stream": report.result,
            "fused": composed_search(plan, chunks, config, backend, True)[0],
            "staged": composed_search(plan, chunks, config, backend, False)[0],
        }
        for path, sifted in found.items():
            if reference is None:
                reference = _signature(sifted)
            if _signature(sifted) != reference:
                raise SystemExit(
                    f"{label}: candidates diverged on backend={backend} "
                    f"path={path}"
                )

    # Best of ``repeats``, alternating the sides so that a slow spell on
    # a shared host hits both.
    seconds = {True: [], False: []}
    peaks = {}
    for _ in range(repeats):
        for fused in (True, False):
            start = time.perf_counter()
            _, peaks[fused] = composed_search(
                plan, chunks, config, "vectorized", fused
            )
            seconds[fused].append(time.perf_counter() - start)
    fused_s, staged_s = min(seconds[True]), min(seconds[False])
    fused_peak, staged_peak = peaks[True], peaks[False]

    peak_ratio = staged_peak / fused_peak
    return {
        "scale": label,
        "setup": setup.name,
        "channels": setup.channels,
        "n_dms": n_dms,
        "chunk_samples": samples,
        "chunks": n_chunks,
        "fused_seconds": round(fused_s, 6),
        "staged_seconds": round(staged_s, 6),
        "fused_peak_bytes": int(fused_peak),
        "staged_peak_bytes": int(staged_peak),
        "peak_ratio": round(peak_ratio, 2),
        "wall_ratio": round(fused_s / staged_s, 3),
        "verdict_fused": report.verdict,
        "candidates_accepted": len(report.result.accepted),
        "candidates_vetoed": len(report.result.vetoed),
        "parity_backends": list(BACKENDS),
        "parity": True,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny streams for CI; seconds instead of minutes",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=DEFAULT_OUT,
        help=f"output JSON path (default: {DEFAULT_OUT})",
    )
    args = parser.parse_args(argv)

    scales = SMOKE_SCALES if args.smoke else SCALES
    # Best of three even in smoke runs: one ~10 ms timing on a shared
    # host swings by tens of percent, more than the wall tolerance.
    repeats = 3
    rows = [bench_scale(*scale, repeats) for scale in scales]

    failures = []
    for row in rows:
        if row["wall_ratio"] > WALL_TOLERANCE:
            failures.append(
                f"{row['scale']}: fused {row['wall_ratio']}x slower than "
                f"staged (tolerance {WALL_TOLERANCE}x)"
            )
    if not args.smoke:
        apertif_row = next(r for r in rows if r["scale"] == "apertif")
        if apertif_row["peak_ratio"] < APERTIF_MIN_PEAK_RATIO:
            failures.append(
                f"apertif: peak reduction {apertif_row['peak_ratio']}x < "
                f"required {APERTIF_MIN_PEAK_RATIO}x"
            )

    report = {
        "benchmark": "fused",
        "smoke": args.smoke,
        "scales": rows,
        "failures": failures,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
