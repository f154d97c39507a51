"""Self-tests of the benchmark.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import inputs  # noqa: E402
import workloads  # noqa: E402
from repro.survey.observation import realize_survey  # noqa: E402
from spans import SpanRecord, Tracer, self_times, tree_problems  # noqa: E402


def _chunk_bytes(chunks) -> list[tuple]:
    return [(c.beam_index, c.sequence, c.data.tobytes()) for c in chunks]


@pytest.mark.parametrize("name", sorted(inputs.SEARCH_SPECS))
def test_same_seed_gives_identical_chunks(name):
    first = inputs.search_inputs(name, 5)
    again = inputs.search_inputs(name, 5)
    other = inputs.search_inputs(name, 6)
    assert _chunk_bytes(first.chunks) == _chunk_bytes(again.chunks)
    assert _chunk_bytes(first.chunks) != _chunk_bytes(other.chunks)


def test_same_seed_gives_identical_survey_beams():
    def beams(seed):
        observation = realize_survey(inputs.survey_plan(seed))
        return [_chunk_bytes(b.chunks) for b in observation.beams]

    assert beams(5) == beams(5)
    assert beams(5) != beams(6)


def test_same_seed_gives_identical_request_mix():
    mix = inputs.tune_mix(5)
    assert mix == inputs.tune_mix(5)
    assert mix != inputs.tune_mix(6)
    keys = {entry[1:] for entry in mix}
    assert len(keys) == 120
    assert len(mix) == inputs.TUNE_REQUESTS


def _deterministic(outcome: workloads.Outcome, names) -> dict:
    return {name: outcome.metrics[name] for name in names}


@pytest.mark.parametrize(
    "run, names",
    [
        (
            lambda t: workloads.search_e2e("lofar_rfi_search", 3, 0, t),
            ("recall", "false_pos", "model_gflops", "peak_work_mib"),
        ),
        (
            lambda t: workloads.survey_e2e(3, 0, t),
            ("recall", "false_pos", "model_gflops"),
        ),
        (
            lambda t: workloads.tune_e2e(3, 0, t),
            ("model_gflops", "service.sweeps"),
        ),
    ],
    ids=["lofar_rfi_search", "survey_beams", "tune_mix"],
)
def test_deterministic_metrics_repeat_exactly(run, names):
    runs = []
    for _ in range(2):
        tally = workloads.Tally()
        runs.append(_deterministic(run(tally), names))
        assert tally.failed == 0, tally.problems
    assert runs[0] == runs[1]


def test_self_times_of_a_tree_sum_to_its_root():
    tracer = Tracer("test")
    with tracer.span("root"):
        time.sleep(0.002)
        with tracer.span("child"):
            time.sleep(0.002)
            with tracer.span("grandchild"):
                time.sleep(0.002)
        with tracer.span("child"):
            time.sleep(0.002)
    assert tree_problems(tracer.spans) == []
    own = self_times(tracer.spans)
    root = next(s for s in tracer.spans if s.parent is None)
    assert sum(own.values()) == pytest.approx(root.duration, abs=1e-9)
    assert all(value >= 0.0015 for value in own.values())


def test_tree_check_flags_a_child_outside_its_parent():
    spans = [
        SpanRecord(1, None, 1, "r", "root", 0.0, 1.0),
        SpanRecord(2, 1, 1, "r", "child", 0.5, 1.5),
    ]
    assert any("leaves its parent" in p for p in tree_problems(spans))


def test_traced_survey_spans_are_sound_and_agree_with_run_survey():
    tally = workloads.Tally()
    outcome = workloads.survey_traced(3, 0, tally, "test")
    assert tally.failed == 0, tally.problems
    assert outcome.spans
    assert tree_problems(outcome.spans) == []


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / HERE.name,
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "tune_mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
