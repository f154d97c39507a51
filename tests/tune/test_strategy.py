"""Unit tests for repro.tune.strategy — the search-strategy interface."""

import pytest

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import apertif, lofar
from repro.core.tuner import AutoTuner
from repro.errors import TuningError
from repro.hardware.catalog import hd7970
from repro.tune import (
    STRATEGIES,
    BudgetedSearch,
    ExhaustiveSearch,
    HillClimb,
    ModelGuidedSearch,
    RandomSearch,
    SearchStrategy,
    SimulatedAnnealing,
    SuccessiveHalving,
    build_strategy,
    prior_scores,
    strategy_accepts,
)

DEVICE = hd7970()
GRID = DMTrialGrid(n_dms=64)


@pytest.fixture(scope="module")
def tuner():
    return AutoTuner(DEVICE, lofar())


@pytest.fixture(scope="module")
def exhaustive(tuner):
    return ExhaustiveSearch().search(tuner, GRID)


class TestExhaustiveSearch:
    def test_matches_the_plain_sweep(self, tuner, exhaustive):
        swept = tuner.tune(GRID)
        assert exhaustive.best.config == swept.best.config
        assert exhaustive.best.gflops == swept.best.gflops
        assert exhaustive.space_size == swept.n_configurations

    def test_cost_is_the_whole_space(self, exhaustive):
        assert exhaustive.evaluations == exhaustive.space_size
        assert exhaustive.measurements == exhaustive.space_size
        assert exhaustive.fraction_evaluated == 1.0

    def test_describe_mentions_strategy_and_cost(self, exhaustive):
        text = exhaustive.describe()
        assert "exhaustive" in text
        assert "GFLOP/s" in text


class TestModelGuidedSearch:
    def test_finds_the_optimum_cheaply(self, tuner, exhaustive):
        outcome = ModelGuidedSearch().search(tuner, GRID)
        assert outcome.best.gflops >= exhaustive.best.gflops - 1e-9
        assert outcome.fraction_evaluated < 0.15
        assert outcome.measurements < exhaustive.measurements

    def test_deterministic_across_runs(self, tuner):
        a = ModelGuidedSearch(seed=3).search(tuner, GRID)
        b = ModelGuidedSearch(seed=3).search(tuner, GRID)
        assert a.best.config == b.best.config
        assert a.evaluations == b.evaluations
        assert a.measurements == b.measurements

    def test_result_population_is_full_fidelity_only(self, tuner):
        outcome = ModelGuidedSearch().search(tuner, GRID)
        assert outcome.result.n_configurations == len(
            outcome.result.samples
        ) <= outcome.measurements

    def test_without_toggles_components(self):
        base = ModelGuidedSearch()
        assert base.components == ("prior", "surrogate", "ascent")
        ablated = base.without("prior")
        assert isinstance(ablated, ModelGuidedSearch)
        assert ablated.prior is False and base.prior is True

    def test_without_unknown_component_raises(self):
        with pytest.raises(TuningError, match="no ablatable component"):
            ModelGuidedSearch().without("telepathy")

    def test_still_searches_without_prior(self, tuner):
        outcome = ModelGuidedSearch().without("prior").search(tuner, GRID)
        assert outcome.measurements > 0
        assert outcome.result.best.gflops > 0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(TuningError):
            ModelGuidedSearch(fraction=0.0)
        with pytest.raises(TuningError):
            ModelGuidedSearch(min_measurements=1)


class TestSuccessiveHalving:
    def test_finds_the_optimum(self, tuner, exhaustive):
        outcome = SuccessiveHalving().search(tuner, GRID)
        assert outcome.best.gflops >= exhaustive.best.gflops - 1e-9
        assert outcome.evaluations < exhaustive.evaluations

    def test_subinstance_rungs_cost_fractionally(self, tuner):
        outcome = SuccessiveHalving().search(tuner, GRID)
        # More simulations ran than full-evaluation equivalents were
        # spent: the rungs were charged at n/n_dms each.
        assert outcome.evaluations < outcome.measurements

    def test_deterministic_without_prior(self, tuner):
        a = SuccessiveHalving(seed=7).without("prior").search(tuner, GRID)
        b = SuccessiveHalving(seed=7).without("prior").search(tuner, GRID)
        assert a.best.config == b.best.config
        assert a.evaluations == b.evaluations

    def test_racing_ablation_runs_entrants_at_full_fidelity(self, tuner):
        raced = SuccessiveHalving().search(tuner, GRID)
        unraced = SuccessiveHalving().without("racing").search(tuner, GRID)
        # Without racing every entrant is measured at full cost.
        assert unraced.evaluations > raced.evaluations

    def test_invalid_parameters_rejected(self):
        with pytest.raises(TuningError):
            SuccessiveHalving(eta=1)
        with pytest.raises(TuningError):
            SuccessiveHalving(entry_fraction=1.5)


class TestPrior:
    def test_prior_scores_cover_all_configs(self, tuner):
        configs = tuner.space(GRID).meaningful()
        scores = prior_scores(DEVICE, lofar(), GRID, configs)
        assert set(scores) == set(configs)
        assert all(value > 0 for value in scores.values())

    def test_prior_differs_from_full_model(self, tuner, exhaustive):
        # The degraded model is a prior, not the oracle: it must not
        # reproduce the full model's numbers exactly.
        configs = [s.config for s in exhaustive.result.samples]
        scores = prior_scores(DEVICE, lofar(), GRID, configs)
        full = {s.config: s.gflops for s in exhaustive.result.samples}
        assert any(
            abs(scores[c] - full[c]) > 1e-6 * max(full[c], 1.0)
            for c in configs
        )


class TestBuildStrategy:
    def test_known_names_resolve(self):
        for name, cls in STRATEGIES.items():
            strategy = build_strategy(name)
            assert isinstance(strategy, cls)
            assert strategy.name == name

    def test_kwargs_forwarded(self):
        strategy = build_strategy("model-guided", fraction=0.2, seed=5)
        assert strategy.fraction == 0.2
        assert strategy.seed == 5

    def test_instance_passthrough(self):
        original = SuccessiveHalving(eta=2)
        assert build_strategy(original) is original

    def test_instance_with_kwargs_rejected(self):
        with pytest.raises(TuningError):
            build_strategy(SuccessiveHalving(), eta=2)

    def test_unknown_name_rejected(self):
        with pytest.raises(TuningError, match="unknown search strategy"):
            build_strategy("gradient-descent")

    def test_bad_kwargs_rejected(self):
        with pytest.raises(TuningError, match="bad arguments"):
            build_strategy("exhaustive", fraction=0.1)

    def test_strategy_accepts(self):
        assert strategy_accepts("model-guided", "seed")
        assert not strategy_accepts("exhaustive", "seed")
        assert not strategy_accepts("nonsense", "seed")


class TestInstrumentation:
    def test_search_records_tune_metrics(self, tuner):
        from repro.obs import use_registry

        with use_registry() as registry:
            ModelGuidedSearch().search(tuner, GRID)
        names = {instrument.name for instrument in registry.series()}
        assert "repro_tune_searches_total" in names
        assert "repro_tune_measurements_total" in names
        assert "repro_tune_fraction_evaluated_ratio" in names
        assert "repro_tune_best_gflops" in names

    def test_strategy_is_abstract(self):
        with pytest.raises(TypeError):
            SearchStrategy()


class TestBudgetedHeuristics:
    @pytest.mark.parametrize(
        "cls", (RandomSearch, HillClimb, SimulatedAnnealing, BudgetedSearch)
    )
    def test_samples_score_at_the_requested_batch(self, cls):
        # Every heuristic sample must equal the exhaustive tuner's score
        # for the same config at the same sample count, not at the
        # setup's full batch.
        tuner = AutoTuner(DEVICE, apertif())
        grid = DMTrialGrid(n_dms=256)
        swept = {
            s.config: s.gflops for s in tuner.tune(grid, samples=5000).samples
        }
        outcome = cls(budget=20, seed=1).search(tuner, grid, samples=5000)
        for sample in outcome.result.samples:
            assert sample.gflops == swept[sample.config]
