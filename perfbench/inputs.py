"""Seeded input generators: every input a workload needs, built before timing.

The program receives only what these functions return.  The same seed gives
byte-identical scenario chunks and the same request mix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import ObservationSetup, apertif, lofar
from repro.scenarios import RealizedScenario, scenario_by_name
from repro.survey import SurveyPlan

#: Device every search plan is tuned for (the paper's fastest accelerator).
SEARCH_DEVICE = "HD7970"
#: DM step of the search grids (pc cm^-3).
DM_STEP = 0.25


@dataclass(frozen=True)
class SearchSpec:
    """One single-beam search workload: setup, grid and scenario."""

    setup: Callable[[int], ObservationSetup]
    samples: int
    n_dms: int
    scenario: str
    n_chunks: int
    #: Also time the ``tiled`` executor (far too slow at Apertif scale).
    time_tiled: bool = False

    def observation(self) -> ObservationSetup:
        return self.setup(self.samples)

    def grid(self) -> DMTrialGrid:
        # The grid starts one step above DM 0: the RFI path's zero-DM
        # filter nulls the DM-0 series.
        return DMTrialGrid(n_dms=self.n_dms, first=DM_STEP, step=DM_STEP)


SEARCH_SPECS = {
    # 1,024 channels: heavy data reuse, dedispersion dominates host time.
    "apertif_search": SearchSpec(apertif, 2_000, 512, "giant_pulse_train", 8),
    # 32 channels: almost no reuse; detection and RFI masking dominate.
    "lofar_rfi_search": SearchSpec(
        lofar, 20_000, 64, "rfi_storm", 24, time_tiled=True
    ),
}

#: Beams of the survey workload; ``n_dms`` stays at the column default
#: (see README.md, "Known defect").
SURVEY_BEAMS = 16


def search_inputs(name: str, seed: int) -> RealizedScenario:
    """Scenario chunks and ground truth of one search workload."""
    spec = SEARCH_SPECS[name]
    scenario = replace(
        scenario_by_name(spec.scenario), n_chunks=spec.n_chunks
    )
    return scenario.realize(spec.observation(), spec.grid(), seed=seed)


def survey_plan(seed: int) -> SurveyPlan:
    """The survey workload: ``rfi_storm`` over the ``high`` column."""
    return SurveyPlan(
        scenario="rfi_storm", setup="high", n_beams=SURVEY_BEAMS, seed=seed
    )


# ----------------------------------------------------------------------
# The tuning request mix
# ----------------------------------------------------------------------
#: The paper's five accelerators (Table I).
TUNE_DEVICES = ("HD7970", "Xeon Phi 5110P", "GTX 680", "K20", "GTX Titan")
TUNE_SETUPS = ("apertif", "lofar")
#: The paper's instance ladder, 2 ... 4,096 trial DMs.
TUNE_N_DMS = tuple(2**k for k in range(1, 13))
TUNE_TENANTS = ("tenant-a", "tenant-b")
#: Requests per round, split evenly between the tenants; each tenant
#: introduces the 120 keys once and repeats seen keys otherwise.
TUNE_REQUESTS = 480
#: Exponent of the Zipf popularity of repeated keys.
ZIPF_EXPONENT = 1.1


def tune_mix(seed: int) -> list[tuple]:
    """``(tenant, device, setup, n_dms)`` tuples, request order.

    Each tenant introduces the 120 keys once, at its own seeded points of
    its stream, smallest ``n_dms`` first as a survey ramps up its DM range,
    with the ten device/setup families in its own seeded order within each
    rung.  So the two tenants sweep different keys at the same time, and a
    key one tenant has swept or is sweeping is a hit or a coalesced answer
    for the other.  Every other request repeats a key the tenant has seen,
    drawn by Zipf popularity over a seeded ranking.  The tenants' streams
    are interleaved request by request.
    """
    rng = random.Random(f"perfbench-tune-mix-{seed}")
    families = [(d, s) for d in TUNE_DEVICES for s in TUNE_SETUPS]
    popularity = [(d, s, n) for n in TUNE_N_DMS for d, s in families]
    rng.shuffle(popularity)
    weight = {
        key: 1.0 / (rank + 1) ** ZIPF_EXPONENT
        for rank, key in enumerate(popularity)
    }
    per_tenant = TUNE_REQUESTS // len(TUNE_TENANTS)
    streams = []
    for tenant in TUNE_TENANTS:
        ladder = []
        for n_dms in TUNE_N_DMS:
            rung = families[:]
            rng.shuffle(rung)
            ladder.extend((d, s, n_dms) for d, s in rung)
        new_at = {0} | set(rng.sample(range(1, per_tenant), len(ladder) - 1))
        seen: list[tuple] = []
        stream = []
        for i in range(per_tenant):
            if i in new_at:
                key = ladder[len(seen)]
                seen.append(key)
            else:
                key = rng.choices(seen, [weight[k] for k in seen])[0]
            stream.append((tenant, *key))
        streams.append(stream)
    return [request for turn in zip(*streams) for request in turn]
