"""Apertif-style multi-beam survey: streaming pipeline + deployment sizing.

The scenario from the paper's introduction: a telescope forms many beams,
each of which must be dedispersed for thousands of trial DMs in real time.
This example:

1. runs a laptop-scale functional replica of the survey — several beams
   streamed chunk by chunk through one tuned plan, with pulsars hidden in
   some beams — and reports the detections;
2. sizes the *real* Apertif deployment with the performance model,
   reproducing the paper's "50 GPUs instead of 1,800 CPUs" argument
   (Sec. V-D).

Run with::

    python examples/apertif_survey.py
"""

from repro import DMTrialGrid, ObservationSetup, SyntheticPulsar, hd7970
from repro.astro.snr import detect_dm
from repro.astro.telescope import Telescope
from repro.core.plan import DedispersionPlan
from repro.experiments.deployment import run_deployment
from repro.run import ExecutionRequest, execute


def survey_demo() -> list[str]:
    """A four-beam, laptop-scale survey; returns detection report lines."""
    # Apertif-like band geometry, scaled down ~100x in channels/rate.
    setup = ObservationSetup(
        name="mini-apertif",
        channels=64,
        lowest_frequency=142.0,  # scaled into the strongly-dispersed regime
        channel_bandwidth=0.1,
        samples_per_second=2000,
        samples_per_batch=2000,
    )
    grid = DMTrialGrid(n_dms=32, step=0.5)

    telescope = Telescope(setup=setup, noise_sigma=1.0, seed=1234)
    telescope.add_beam(label="B01 (empty)")
    telescope.add_beam(
        label="B02 (pulsar DM 4.0)",
        pulsars=(SyntheticPulsar(period_seconds=0.08, dm=4.0, amplitude=0.9),),
    )
    telescope.add_beam(label="B03 (empty)")
    telescope.add_beam(
        label="B04 (pulsar DM 11.5)",
        pulsars=(SyntheticPulsar(period_seconds=0.15, dm=11.5, amplitude=1.1),),
    )

    # One tuned plan serves every beam: same setup, same DM grid.
    plan = DedispersionPlan.create(setup, grid, hd7970())

    report: list[str] = []
    for beam in telescope.beams:
        chunks = telescope.stream(beam, n_chunks=2, grid=grid)
        streamed = execute(ExecutionRequest(plan=plan, chunks=chunks))
        best_snr, best_dm = 0.0, 0.0
        for result in streamed.chunk_results:
            detection = detect_dm(result.output, grid.values)
            if detection.snr > best_snr:
                best_snr, best_dm = detection.snr, detection.dm
        verdict = (
            f"candidate at DM {best_dm:.2f} (S/N {best_snr:.1f})"
            if best_snr >= 6.0
            else f"no candidate (best S/N {best_snr:.1f})"
        )
        report.append(f"{beam.label:22s} -> {verdict}")
    return report


def main() -> int:
    print("== mini-survey: 4 beams x 2 seconds, 32 trial DMs ==")
    for line in survey_demo():
        print(" ", line)

    print()
    print("== full-scale Apertif deployment (performance model) ==")
    print(run_deployment(n_dms=2000, n_beams=450).render())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
