"""Unit tests for the budgeted heuristic strategies in repro.tune."""

import pytest

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import apertif
from repro.core.tuner import AutoTuner
from repro.errors import TuningError, ValidationError
from repro.hardware.catalog import hd7970
from repro.tune import (
    BudgetedSearch,
    HillClimb,
    RandomSearch,
    SimulatedAnnealing,
)


GRID = DMTrialGrid(64)
HEURISTICS = (RandomSearch, HillClimb, SimulatedAnnealing, BudgetedSearch)


def search(cls, budget, seed=0, **kwargs):
    strategy = cls(budget=budget, seed=seed, **kwargs)
    return strategy.search(AutoTuner(hd7970(), apertif()), GRID)


@pytest.fixture(scope="module")
def exhaustive():
    return AutoTuner(hd7970(), apertif()).tune(GRID)


class TestRandomSearch:
    def test_respects_budget(self):
        outcome = search(RandomSearch, 20)
        assert outcome.measurements <= 20
        assert outcome.result.n_configurations == outcome.measurements

    def test_deterministic_given_seed(self):
        a = search(RandomSearch, 15, seed=3)
        b = search(RandomSearch, 15, seed=3)
        assert a.best.gflops == b.best.gflops

    def test_different_seeds_differ(self):
        a = search(RandomSearch, 10, seed=1)
        b = search(RandomSearch, 10, seed=2)
        assert {s.config for s in a.result.samples} != {
            s.config for s in b.result.samples
        }

    def test_never_beats_exhaustive(self, exhaustive):
        outcome = search(RandomSearch, 40)
        assert outcome.best.gflops <= exhaustive.best.gflops + 1e-9

    def test_budget_larger_than_space(self, exhaustive):
        outcome = search(RandomSearch, 10 ** 6)
        assert outcome.measurements == exhaustive.n_configurations
        assert outcome.best.gflops == pytest.approx(exhaustive.best.gflops)

    def test_rejects_zero_budget(self):
        with pytest.raises(ValidationError):
            RandomSearch(budget=0)


class TestHillClimb:
    def test_respects_budget(self):
        outcome = search(HillClimb, 25)
        assert outcome.measurements <= 25 + 8  # final neighbourhood overshoot
        assert outcome.best.gflops > 0

    def test_gets_stuck_in_local_optima(self, exhaustive):
        # The optimisation landscape is multimodal (Fig. 10), so greedy
        # ascent plateaus below the global optimum at small budgets —
        # supporting the paper's claim that the optimum "is difficult to
        # find manually" by local reasoning.
        hill = [search(HillClimb, 30, seed=s).best.gflops for s in range(5)]
        mean_hill = sum(hill) / len(hill)
        assert 0.5 * exhaustive.best.gflops < mean_hill < exhaustive.best.gflops

    def test_never_beats_exhaustive(self, exhaustive):
        outcome = search(HillClimb, 40)
        assert outcome.best.gflops <= exhaustive.best.gflops + 1e-9

    def test_large_budget_finds_near_optimum(self, exhaustive):
        outcome = search(HillClimb, 250, seed=0)
        assert outcome.best.gflops >= 0.9 * exhaustive.best.gflops

    def test_deterministic_given_seed(self):
        a = search(HillClimb, 20, seed=9)
        b = search(HillClimb, 20, seed=9)
        assert a.best.gflops == b.best.gflops


class TestSimulatedAnnealing:
    def test_respects_budget(self):
        outcome = search(SimulatedAnnealing, 25)
        assert outcome.measurements <= 25
        assert outcome.best.gflops > 0

    def test_deterministic_given_seed(self):
        a = search(SimulatedAnnealing, 20, seed=4)
        b = search(SimulatedAnnealing, 20, seed=4)
        assert a.best.gflops == b.best.gflops

    def test_never_beats_exhaustive(self, exhaustive):
        outcome = search(SimulatedAnnealing, 40)
        assert outcome.best.gflops <= exhaustive.best.gflops + 1e-9

    def test_escapes_local_optima_better_than_greedy(self, exhaustive):
        # Averaged over seeds at equal budget, annealing should not be
        # worse than greedy ascent on this multimodal space.
        anneal = [
            search(SimulatedAnnealing, 40, seed=s).best.gflops
            for s in range(6)
        ]
        greedy = [search(HillClimb, 40, seed=s).best.gflops for s in range(6)]
        assert sum(anneal) / len(anneal) >= 0.85 * sum(greedy) / len(greedy)

    def test_rejects_bad_temperature(self):
        with pytest.raises(TuningError):
            SimulatedAnnealing(initial_temperature=0.0)


class TestBudgetedTune:
    def test_respects_budget(self):
        outcome = search(BudgetedSearch, 24)
        assert outcome.measurements <= 24
        assert outcome.best.gflops > 0

    def test_deterministic_given_seed(self):
        a = search(BudgetedSearch, 20, seed=7)
        b = search(BudgetedSearch, 20, seed=7)
        assert a.best.gflops == b.best.gflops
        assert {s.config for s in a.result.samples} == {
            s.config for s in b.result.samples
        }

    def test_never_beats_exhaustive(self, exhaustive):
        outcome = search(BudgetedSearch, 40)
        assert outcome.best.gflops <= exhaustive.best.gflops + 1e-9

    def test_budget_larger_than_space_finds_optimum(self, exhaustive):
        outcome = search(BudgetedSearch, 10 ** 6)
        assert outcome.best.gflops == pytest.approx(exhaustive.best.gflops)

    def test_rejects_zero_budget(self):
        with pytest.raises(ValidationError):
            BudgetedSearch(budget=0)


class TestSpaceAccounting:
    def test_outcomes_report_space_size(self, exhaustive):
        for cls in HEURISTICS:
            outcome = search(cls, 10)
            assert outcome.space_size == exhaustive.n_configurations

    def test_fraction_evaluated(self):
        outcome = search(RandomSearch, 10)
        assert outcome.fraction_evaluated == pytest.approx(
            outcome.measurements / outcome.space_size
        )
        assert 0.0 < outcome.fraction_evaluated < 1.0

    def test_budgeted_search_reports_actual_evaluations(self):
        outcome = search(BudgetedSearch, 24)
        # The count must reflect configurations actually simulated, not
        # the requested budget.
        assert outcome.measurements == outcome.result.n_configurations
