"""Tests for the ablation experiment drivers."""

from pathlib import Path

import pytest

from repro.experiments import SweepCache
from repro.experiments.ablation import (
    run_ablation_coalescing,
    run_ablation_parameters,
    run_ablation_phi,
    run_ablation_staging,
    run_ablation_subband,
    run_ablation_tuner,
)

N_DMS = 256

ARCHIVE = (
    Path(__file__).resolve().parents[2] / "results" / "all_experiments.txt"
)


@pytest.fixture(scope="module")
def cache():
    return SweepCache()


class TestStagingAblation:
    def test_staging_never_hurts(self, cache):
        result = run_ablation_staging(cache=cache, n_dms=N_DMS)
        for row in result.rows:
            gain = float(row[4].rstrip("x"))
            assert gain >= 0.99

    def test_lofar_memory_bound_cases_gain(self, cache):
        result = run_ablation_staging(cache=cache, n_dms=N_DMS)
        lofar_gains = [
            float(row[4].rstrip("x"))
            for row in result.rows
            if row[0] == "LOFAR" and row[5] == "yes"
        ]
        assert lofar_gains and max(lofar_gains) > 1.2

    def test_emulated_devices_unaffected(self, cache):
        result = run_ablation_staging(cache=cache, n_dms=N_DMS)
        phi_rows = [r for r in result.rows if "Phi" in r[1]]
        assert all(float(r[4].rstrip("x")) == pytest.approx(1.0) for r in phi_rows)


class TestCoalescingAblation:
    def test_alignment_gain_small_but_real(self, cache):
        result = run_ablation_coalescing(cache=cache, n_dms=N_DMS)
        gains = [float(row[4].rstrip("x")) for row in result.rows]
        assert all(1.0 <= g < 1.5 for g in gains)
        assert any(g > 1.0 for g in gains)


class TestParameterAblation:
    def test_optimum_row_first(self, cache):
        result = run_ablation_parameters(cache=cache, n_dms=N_DMS)
        assert result.rows[0][0] == "(optimum)"
        assert result.rows[0][3] == "1.00"

    def test_no_perturbation_beats_optimum(self, cache):
        result = run_ablation_parameters(cache=cache, n_dms=N_DMS)
        for row in result.rows[1:]:
            assert float(row[3]) <= 1.0 + 1e-6

    def test_some_perturbation_hurts_materially(self, cache):
        result = run_ablation_parameters(cache=cache, n_dms=N_DMS)
        ratios = [float(row[3]) for row in result.rows[1:]]
        assert min(ratios) < 0.8


class TestTunerAblation:
    def test_table_shape(self):
        result = run_ablation_tuner(n_dms=N_DMS, budget=25)
        assert len(result.rows) == 2  # both setups on the HD7970
        for row in result.rows:
            assert row[2] > 100  # space size

    def test_archived_output_is_current(self):
        # Pins the seeded behaviour of the heuristic strategies: any change
        # to their draws or loop bounds must regenerate the archive.
        assert run_ablation_tuner().render() in ARCHIVE.read_text()


class TestPhiAblation:
    def test_openmp_projection_faster(self, cache):
        result = run_ablation_phi(cache=cache, instances=(64, 512))
        for row in result.rows:
            assert float(row[4].rstrip("x")) > 1.2

    def test_openmp_still_below_gpus(self, cache):
        result = run_ablation_phi(cache=cache, instances=(512,))
        apertif_row = next(r for r in result.rows if r[0] == "Apertif")
        openmp_gflops = float(apertif_row[3])
        from repro.astro.observation import apertif
        from repro.hardware.catalog import hd7970

        hd = cache.sweep(hd7970(), apertif(), 512).best.gflops
        assert openmp_gflops < hd


class TestSubbandAblation:
    def test_reduction_and_smearing_tradeoff(self):
        result = run_ablation_subband(n_dms=512)
        by_setup = {row[0]: row for row in result.rows}
        apertif_reduction = float(by_setup["Apertif"][4].rstrip("x"))
        assert apertif_reduction > 5.0
        # Apertif's high frequencies keep the extra smearing tiny.
        assert by_setup["Apertif"][5] < by_setup["LOFAR"][5]


class TestQuantizationAblation:
    def test_memory_bound_cases_gain(self, cache):
        from repro.experiments.ablation import run_ablation_quantization

        result = run_ablation_quantization(cache=cache, n_dms=N_DMS)
        gains = {
            (row[0], row[1]): float(row[4].rstrip("x")) for row in result.rows
        }
        # Compute-bound Apertif kernels are unchanged.
        assert gains[("Apertif", "HD7970")] == pytest.approx(1.0)
        # Memory-bound LOFAR kernels gain materially.
        assert gains[("LOFAR", "HD7970")] > 1.5
        # Nothing ever loses from narrower input.
        assert all(g >= 0.999 for g in gains.values())


class TestErrorSuppression:
    def test_infeasible_configs_are_skipped(self, caplog):
        import logging

        with caplog.at_level(logging.DEBUG, logger="repro.experiments.ablation"):
            result = run_ablation_parameters(n_dms=N_DMS)
        # Perturbations off the optimum that the library rejects are
        # simply absent rows, each one logged.
        assert result.rows

    def test_unexpected_errors_propagate(self, monkeypatch):
        # Only library (ReproError) failures mean "infeasible"; a model
        # bug must not vanish into a skipped table row.
        from repro.hardware.model import PerformanceModel

        def boom(self, config, samples=None, validate=True):
            raise RuntimeError("model bug")

        monkeypatch.setattr(PerformanceModel, "simulate", boom)
        with pytest.raises(RuntimeError, match="model bug"):
            run_ablation_parameters(n_dms=N_DMS)
