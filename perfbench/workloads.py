"""The four workloads: an untimed generator, a timed run, output checks.

Each workload has two entry points.  ``e2e`` drives the public entry point
(``search_stream``, ``run_survey`` or ``TuningFleet.resolve``) with tracing
off and returns the end-to-end metrics.  ``traced`` composes the layers by
calling each public function in turn, with a benchmark-side span around
every call, and returns per-layer self times and counts.  Both count every
operation and every output check in a :class:`Tally`.

Two clocks are kept apart: ``*_s``/``*_ms`` host metrics are wall time of
the NumPy path that ran; ``model_gflops`` and ``hardware.*`` come from the
paper's performance model of the accelerator.
"""

from __future__ import annotations

import statistics
import threading
import time
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.rfi import mask_noisy_channels, zero_dm_filter
from repro.astro.telescope import StreamChunk
from repro.baselines import cpu_reference
from repro.core.constraints import validate_configuration
from repro.core.plan import DedispersionPlan
from repro.core.tuner import AutoTuner
from repro.errors import ConfigurationError
from repro.hardware import device_by_name
from repro.obs import MetricsRegistry
from repro.run import ExecutionRequest, execute
from repro.scenarios import RECALL_FLOOR, score_report
from repro.sched import ExecutionEngine
from repro.search import MatchedFilterDetector, search_stream, sift_candidates
from repro.service import TuneRequest, TuningFleet
from repro.survey import (
    DEFAULT_DEVICE_MEMORY,
    cluster_doc,
    cluster_from_doc,
    coincide,
    run_survey,
)
from repro.survey.observation import realize_survey

from inputs import (
    SEARCH_DEVICE,
    SEARCH_SPECS,
    search_inputs,
    survey_plan,
    tune_mix,
)
from spans import Tracer, self_time_by_trace

#: Plan / fleet constructions per batch, at least this many and at least
#: ``SETUP_MIN_SECONDS`` of them.  One batch runs before the timed
#: repetitions and one after; ``setup_s`` is the median of both.
SETUP_REPEATS = 7
SETUP_MIN_SECONDS = 0.25
#: Timed repeats of one chunk per executor in the executor comparison.
EXEC_REPEATS = 3
#: Service answer sources that are cache hits (everything else swept).
HIT_SOURCES = ("memory", "disk")
#: Fleet replicas of the tuning workload.
TUNE_REPLICAS = 2
#: Tuning rounds per run however long they take: a cold round sweeps all
#: 120 keys, ~10 s on a 2-vCPU host, and one round swings with host load.
TUNE_MIN_ROUNDS = 3


@dataclass
class Tally:
    """Operations attempted and failed, with a reason for each failure."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str, count: int = 1) -> bool:
        self.attempted += count
        if not ok:
            self.failed += count
            self.problems.append(what)
        return ok


@dataclass
class Outcome:
    """What one workload run measured.

    ``metrics`` holds every number; the runner gates those ``BENCHMARK.json``
    lists and prints the rest as reported only.
    """

    metrics: dict[str, float]
    repeats: int
    spans: list = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def _median(values) -> float:
    return float(statistics.median(values))


def _quantile(values, q: float) -> float:
    """Nearest-rank quantile of ``values`` (``q`` in (0, 1])."""
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, int(q * len(ordered)))])


def _timed_setup(build, times: list[float]):
    """One batch of builds, appending each one's seconds; the last result."""
    batch: list[float] = []
    result = None
    while len(batch) < SETUP_REPEATS or sum(batch) < SETUP_MIN_SECONDS:
        start = time.perf_counter()
        result = build()
        batch.append(time.perf_counter() - start)
    times.extend(batch)
    return result


def _keep_going(started: float, walls: list[float], seconds: float) -> bool:
    """Whether another repetition ends nearer ``seconds`` than stopping."""
    if not walls:
        return True
    elapsed = time.perf_counter() - started
    return elapsed + statistics.mean(walls) / 2 <= seconds


def _timed_chunks(chunks, out: list[float]):
    """Yield ``chunks``; append the host time the consumer spent on each."""
    for chunk in chunks:
        start = time.perf_counter()
        yield chunk
        out.append(time.perf_counter() - start)


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def check_algorithm1(plan, chunk, tally: Tally) -> np.ndarray:
    """One chunk through ``repro.run.execute`` against Algorithm 1.

    The whole plane must equal the row-slice loop bit for bit, and
    sampled cells must equal the paper's three nested loops.
    """
    output = execute(ExecutionRequest(plan=plan, chunks=(chunk,))).output
    reference = cpu_reference.dedisperse_vectorized(
        chunk.data, plan.setup, plan.grid, plan.samples
    )
    tally.record(
        np.array_equal(output, reference),
        "dedispersed plane differs from cpu_reference.dedisperse_vectorized",
    )
    values = plan.grid.values
    window = min(32, plan.samples)
    exact = True
    for row in sorted({0, len(values) // 2, len(values) - 1}):
        single = DMTrialGrid(n_dms=1, first=float(values[row]), step=0.0)
        naive = cpu_reference.dedisperse_naive(
            chunk.data, plan.setup, single, window
        )
        exact &= np.array_equal(naive[0], output[row, :window])
    tally.record(exact, "dedispersed plane differs from the three-loop oracle")
    return reference


def _check_recall(recall: float, tally: Tally) -> None:
    tally.record(
        recall >= RECALL_FLOOR,
        f"recall {recall:.3f} below the scenario floor {RECALL_FLOOR}",
    )


# ----------------------------------------------------------------------
# Single-beam search
# ----------------------------------------------------------------------
def _search_plan(realized) -> DedispersionPlan:
    return DedispersionPlan.create(
        realized.setup, realized.grid, device_by_name(SEARCH_DEVICE)
    )


def _search_config(realized):
    """The scenario's search config with room for the whole stream queued.

    The stream's virtual clock charges measured host detection time, and
    on a host slower than real time a bounded queue sheds chunks, so the
    candidates would depend on host speed.  Late chunks are still counted;
    backpressure is not measured.
    """
    return replace(
        realized.search_config, queue_capacity=len(realized.chunks)
    )


def search_e2e(name: str, seed: int, seconds: float, tally: Tally) -> Outcome:
    realized = search_inputs(name, seed)
    setup_times: list[float] = []
    plan = _timed_setup(lambda: _search_plan(realized), setup_times)
    check_algorithm1(plan, realized.chunks[0], tally)
    chunks = realized.chunks
    config = _search_config(realized)

    chunk_times: list[float] = []
    walls: list[float] = []
    report = None
    started = time.perf_counter()
    while _keep_going(started, walls, seconds):
        begin = time.perf_counter()
        report = search_stream(
            plan, _timed_chunks(chunks, chunk_times), config
        )
        walls.append(time.perf_counter() - begin)
    _timed_setup(lambda: _search_plan(realized), setup_times)
    tally.record(
        [r.sequence for r in report.records] == [c.sequence for c in chunks]
        and not report.missing_sequences
        and not report.duplicate_sequences,
        "the stream report does not account for every chunk once",
    )
    score = score_report(name, realized.truth, report)
    _check_recall(score.recall, tally)
    return Outcome(
        metrics={
            "setup_s": _median(setup_times),
            "ops_per_s": _median(len(chunks) / w for w in walls),
            "op_p50_ms": 1e3 * _median(chunk_times),
            "recall": score.recall,
            "model_gflops": plan.predict().gflops,
            "false_pos": score.n_false_positive,
            "peak_work_mib": report.peak_bytes / 2**20,
            "late_chunks": sum(
                not r.met_deadline(report.deadline_seconds)
                for r in report.records
            ),
        },
        repeats=len(walls),
    )


def _staged_search(plan, realized, tracer: Tracer):
    """The search path, one public call per layer; returns the sift."""
    config = realized.search_config
    detector = MatchedFilterDetector(
        snr_threshold=config.snr_threshold, widths=config.widths
    )
    raw = []
    with tracer.span("search.stream"):
        for chunk in realized.chunks:
            raw.extend(_staged_chunk(plan, chunk, config, detector, tracer))
            with tracer.span("hardware.model"):
                plan.predict()
        with tracer.span("search.sift"):
            sifted = sift_candidates(raw, plan.grid.values, config.sift_policy)
    return sifted


def _staged_chunk(plan, chunk, config, detector, tracer):
    if config.rfi_mitigation:
        with tracer.span("astro.rfi"):
            data = np.array(chunk.data, dtype=np.float32, copy=True)
            mask_noisy_channels(data)
            zero_dm_filter(data)
        chunk = StreamChunk(
            beam_index=chunk.beam_index,
            sequence=chunk.sequence,
            data=data,
            samples=chunk.samples,
            overlap=chunk.overlap,
        )
    with tracer.span("run.dedisperse"):
        output = execute(ExecutionRequest(plan=plan, chunks=(chunk,))).output
    with tracer.span("search.detect"):
        return detector.detect(
            output,
            plan.grid.values,
            time_offset=chunk.sequence * plan.samples,
            beam=chunk.beam_index,
        )


def _compare_runs(tracer: Tracer, untraced: Tracer, run_once, seconds):
    """Alternate untraced and traced repetitions; returns both wall lists."""
    walls_off: list[float] = []
    walls_on: list[float] = []
    started = time.perf_counter()
    while _keep_going(started, [a + b for a, b in zip(walls_off, walls_on)],
                      seconds):
        for which, walls in ((untraced, walls_off), (tracer, walls_on)):
            begin = time.perf_counter()
            result = run_once(which)
            walls.append(time.perf_counter() - begin)
    return walls_off, walls_on, result


def _layer_medians(spans, names) -> dict[str, float]:
    """Median over traces of each layer's summed self time."""
    per_trace = self_time_by_trace(spans).values()
    return {
        f"{name}_s": _median(t.get(name, 0.0) for t in per_trace)
        for name in names
    }


def _largest_note(layers: dict[str, float]) -> str:
    name = max(layers, key=layers.get)
    return (
        f"largest self time per repetition: {name} = {layers[name]:.4g} s"
    )


def _chunk_seconds(plan) -> float:
    return plan.samples / plan.setup.samples_per_second


def _common_layers(plan, chunks, layers, observed_s, walls_off, walls_on):
    """Dedispersion work, modelled clock and tracing overhead.

    Adds and bytes are computed from array sizes: one add per channel per
    output cell, each input chunk read once and the plane written once.
    """
    setup, grid = plan.setup, plan.grid
    adds = grid.n_dms * plan.samples * setup.channels * len(chunks)
    moved = 4 * sum(
        c.data.size + grid.n_dms * plan.samples for c in chunks
    )
    modelled = plan.predict()
    rtf_off = _median(observed_s / w for w in walls_off)
    rtf_on = _median(observed_s / w for w in walls_on)
    return {
        "run.host_gflops": adds / layers["run.dedisperse_s"] / 1e9,
        "run.ops_per_byte": adds / moved,
        "hardware.modelled_chunk_s": modelled.seconds,
        "hardware.modelled_rtf": _chunk_seconds(plan) / modelled.seconds,
        "trace.host_rtf_untraced": rtf_off,
        "trace.host_rtf_traced": rtf_on,
        "trace.overhead_rtf": rtf_off - rtf_on,
        "trace.overhead_s": _median(walls_on) - _median(walls_off),
    }


def _executor_times(plan, chunk, reference, tally, with_tiled: bool):
    """Host seconds of one chunk under each dedispersion executor."""
    def facade(backend):
        request = ExecutionRequest(plan=plan, chunks=(chunk,), backend=backend)
        return lambda: execute(request).output

    backends = ("vectorized", "channel_tile") + (("tiled",) if with_tiled else ())
    runners = {backend: facade(backend) for backend in backends}
    runners["row_slice"] = partial(
        cpu_reference.dedisperse_vectorized,
        chunk.data, plan.setup, plan.grid, plan.samples,
    )
    out = {}
    for name, run in runners.items():
        times = []
        for _ in range(EXEC_REPEATS):
            start = time.perf_counter()
            plane = run()
            times.append(time.perf_counter() - start)
        tally.record(
            np.array_equal(plane, reference),
            f"executor {name} differs from Algorithm 1",
        )
        out[f"run.exec_s.{name}"] = _median(times)
    return out


def search_traced(name: str, seed: int, seconds: float, tally: Tally,
                  run_id: str) -> Outcome:
    realized = search_inputs(name, seed)
    tracer = Tracer(run_id)
    untraced = Tracer(run_id, enabled=False)
    plan = None
    for _ in range(SETUP_REPEATS):
        with tracer.span("core.plan"):
            plan = _search_plan(realized)
    plan_spans = list(tracer.spans)
    tracer.spans.clear()
    reference = check_algorithm1(plan, realized.chunks[0], tally)

    report = search_stream(
        plan, iter(realized.chunks), _search_config(realized)
    )
    score = score_report(name, realized.truth, report)
    _check_recall(score.recall, tally)

    walls_off, walls_on, sifted = _compare_runs(
        tracer, untraced, lambda t: _staged_search(plan, realized, t), seconds
    )
    tally.record(
        sifted.accepted == report.result.accepted
        and sifted.vetoed == report.result.vetoed,
        "staged composition disagrees with the fused search_stream call",
    )
    spans = tracer.spans

    metrics = _layer_medians(
        spans,
        ("run.dedisperse", "astro.rfi", "search.detect", "search.sift",
         "hardware.model", "search.stream"),
    )
    notes = [_largest_note(metrics)]
    metrics["core.plan_s"] = _median(s.duration for s in plan_spans)
    observed_s = len(realized.chunks) * _chunk_seconds(plan)
    raw = sifted.n_raw
    metrics.update({
        **_common_layers(
            plan, realized.chunks, metrics, observed_s, walls_off, walls_on
        ),
        "run.peak_work_mib": report.peak_bytes / 2**20,
        "search.raw": raw,
        "search.accept_ratio": len(sifted.accepted) / raw if raw else 0.0,
        "search.false_pos": score.n_false_positive,
    })
    metrics.update(
        _executor_times(
            plan, realized.chunks[0], reference, tally,
            with_tiled=SEARCH_SPECS[name].time_tiled,
        )
    )
    return Outcome(metrics=metrics, repeats=len(walls_on),
                   spans=plan_spans + spans, notes=notes)


# ----------------------------------------------------------------------
# Multi-beam survey
# ----------------------------------------------------------------------
def survey_e2e(seed: int, seconds: float, tally: Tally) -> Outcome:
    plan = survey_plan(seed)
    column = plan.column()
    setup_times: list[float] = []
    dplan = _timed_setup(column.plan, setup_times)
    observation = realize_survey(plan)
    check_algorithm1(dplan, observation.beams[0].chunks[0], tally)
    beam_chunks = sum(len(b.chunks) for b in observation.beams)

    walls: list[float] = []
    report = None
    started = time.perf_counter()
    while _keep_going(started, walls, seconds):
        begin = time.perf_counter()
        report = run_survey(plan)
        walls.append(time.perf_counter() - begin)
        tally.record(
            report.verdict != "degraded", f"survey verdict {report.verdict}"
        )
    _timed_setup(column.plan, setup_times)
    _check_recall(report.score.recall, tally)
    return Outcome(
        metrics={
            "setup_s": _median(setup_times),
            "ops_per_s": _median(beam_chunks / w for w in walls),
            "op_p50_ms": 1e3 * _median(walls),
            "recall": report.score.recall,
            "model_gflops": dplan.predict().gflops,
            "false_pos": report.score.post_false_positives,
            "beam_chunks": beam_chunks,
        },
        repeats=len(walls),
    )


def _staged_survey(plan, tracer: Tracer):
    """The survey path, one public call per layer."""
    with tracer.span("survey.run"):
        with tracer.span("survey.realize"):
            observation = realize_survey(plan)
        column = plan.column()
        with tracer.span("core.plan"):
            dplan = column.plan()
        config = observation.search_config
        detector = MatchedFilterDetector(
            snr_threshold=config.snr_threshold, widths=config.widths
        )
        clusters = []
        raw_total = 0
        for beam in observation.beams:
            with tracer.span("survey.beam_search"):
                raw = []
                for chunk in beam.chunks:
                    raw.extend(
                        _staged_chunk(dplan, chunk, config, detector, tracer)
                    )
                with tracer.span("search.sift"):
                    sifted = sift_candidates(
                        raw, dplan.grid.values, config.sift_policy
                    )
                raw_total += len(raw)
                # run_survey hands coincidence the serialised clusters.
                clusters.extend(
                    cluster_from_doc(cluster_doc(c)) for c in sifted.accepted
                )
        duration_s = (
            max(len(b.chunks) for b in observation.beams)
            * observation.chunk_seconds
        )
        with tracer.span("sched.engine"):
            fleet = ExecutionEngine(
                [(device_by_name(column.device_name), plan.fleet_units,
                  DEFAULT_DEVICE_MEMORY)],
                observation.setup,
                observation.grid,
                plan.n_beams,
                duration_s=duration_s,
                seed=plan.seed,
                faults=plan.faults,
            ).run()
        with tracer.span("survey.coincide"):
            result = coincide(clusters, plan.n_beams, plan.coincidence)
    return result, fleet, raw_total, len(clusters), duration_s


def _fused_peak(dplan, observation) -> int:
    """Metered working set of one beam on the fused path ``run_survey`` takes."""
    config = observation.search_config
    detector = MatchedFilterDetector(
        snr_threshold=config.snr_threshold, widths=config.widths
    )
    return execute(
        ExecutionRequest(
            plan=dplan, chunks=observation.beams[0].chunks, detector=detector
        )
    ).peak_bytes


def _groups_doc(result) -> list:
    return [
        (g.classification, [cluster_doc(m) for m in g.members])
        for g in result.groups
    ]


def survey_traced(seed: int, seconds: float, tally: Tally,
                  run_id: str) -> Outcome:
    plan = survey_plan(seed)
    tracer = Tracer(run_id)
    untraced = Tracer(run_id, enabled=False)
    report = run_survey(plan)
    _check_recall(report.score.recall, tally)
    dplan = plan.column().plan()
    observation = realize_survey(plan)
    check_algorithm1(dplan, observation.beams[0].chunks[0], tally)

    walls_off, walls_on, staged = _compare_runs(
        tracer, untraced, lambda t: _staged_survey(plan, t), seconds
    )
    result, fleet, raw, accepted, observed_s = staged
    tally.record(
        _groups_doc(result) == _groups_doc(report.coincidence),
        "staged composition disagrees with the run_survey call",
    )
    metrics = _layer_medians(
        tracer.spans,
        ("core.plan", "survey.realize", "survey.beam_search",
         "survey.coincide", "sched.engine", "run.dedisperse",
         "search.detect", "search.sift", "survey.run"),
    )
    notes = [_largest_note(metrics)]
    chunks = [c for beam in observation.beams for c in beam.chunks]
    metrics.update({
        **_common_layers(
            dplan, chunks, metrics, observed_s, walls_off, walls_on
        ),
        "run.peak_work_mib": _fused_peak(dplan, observation) / 2**20,
        "search.raw": raw,
        "search.accept_ratio": accepted / raw if raw else 0.0,
        "search.false_pos": report.score.post_false_positives,
        "survey.vetoed": len(result.vetoed),
        "sched.makespan_s": fleet.makespan_s,
    })
    return Outcome(metrics=metrics, repeats=len(walls_on),
                   spans=tracer.spans, notes=notes)


# ----------------------------------------------------------------------
# Tuning service
# ----------------------------------------------------------------------
def _requests(seed: int) -> list[TuneRequest]:
    return [
        TuneRequest(setup=setup, n_dms=n_dms, device=device, tenant=tenant)
        for tenant, device, setup, n_dms in tune_mix(seed)
    ]


def _new_fleet() -> TuningFleet:
    return TuningFleet(replicas=TUNE_REPLICAS, registry=MetricsRegistry())


def _closed_loop(fleet, requests, tracer: Tracer | None = None):
    """Two client threads, one per tenant, each waiting for its answer.

    Returns ``(wall seconds, [(latency s, response or exception)])``.
    """
    answers: list = [None] * len(requests)
    clients = 2

    def client(offset: int) -> None:
        for i in range(offset, len(requests), clients):
            start = time.perf_counter()
            try:
                if tracer is None:
                    response = fleet.resolve(requests[i])
                else:
                    with tracer.span("fleet.resolve"):
                        response = fleet.resolve(requests[i])
            except Exception as exc:  # counted as a failed operation
                response = exc
            answers[i] = (time.perf_counter() - start, response)

    threads = [
        threading.Thread(target=client, args=(c,)) for c in range(clients)
    ]
    begin = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - begin, answers


def _check_answers(requests, answers, tally: Tally) -> dict:
    """Validate every answer; returns best GFLOP/s per valid instance."""
    best: dict = {}
    for request, (_, response) in zip(requests, answers):
        if isinstance(response, Exception):
            tally.record(False, f"{request.describe()}: {response!r}")
            continue
        if not tally.record(
            not response.degraded, f"{request.describe()}: degraded answer"
        ):
            continue
        try:
            validate_configuration(
                response.best.config,
                request.resolved_device(),
                request.resolved_setup(),
                request.resolved_grid(),
            )
        except ConfigurationError as exc:
            tally.record(False, f"{request.describe()}: {exc}")
            continue
        best[request.key()] = response.best.gflops
    return best


def _split_latencies(answers):
    hits, misses = [], []
    for latency, response in answers:
        if isinstance(response, Exception):
            continue
        (hits if response.source in HIT_SOURCES else misses).append(latency)
    return hits, misses


def tune_e2e(seed: int, seconds: float, tally: Tally) -> Outcome:
    requests = _requests(seed)
    distinct = {r.key() for r in requests}

    def build():
        fleet = _new_fleet()
        fleet.close()
        return fleet

    setup_times: list[float] = []
    _timed_setup(build, setup_times)
    walls: list[float] = []
    latencies: list[float] = []
    hits: list[float] = []
    misses: list[float] = []
    quality: list[float] = []
    recall: list[float] = []
    snapshot = None
    started = time.perf_counter()
    while len(walls) < TUNE_MIN_ROUNDS or _keep_going(started, walls, seconds):
        fleet = _new_fleet()  # a cold store every round
        try:
            wall, answers = _closed_loop(fleet, requests)
            snapshot = fleet.snapshot()
        finally:
            fleet.close()
        walls.append(wall)
        best = _check_answers(requests, answers, tally)
        latencies += [latency for latency, _ in answers]
        round_hits, round_misses = _split_latencies(answers)
        hits += round_hits
        misses += round_misses
        recall.append(len(best) / len(distinct))
        quality.append(statistics.mean(best.values()))
    _timed_setup(build, setup_times)
    return Outcome(
        metrics={
            "setup_s": _median(setup_times),
            "ops_per_s": _median(len(requests) / w for w in walls),
            "op_p50_ms": 1e3 * _median(latencies),
            "recall": min(recall),
            "model_gflops": _median(quality),
            "tune_miss_p50_ms": 1e3 * _median(misses),
            "tune_miss_p90_ms": 1e3 * _quantile(misses, 0.9),
            "tune_hit_p50_ms": 1e3 * _median(hits),
            "tune_hit_p99_ms": 1e3 * _quantile(hits, 0.99),
            "service.sweeps": snapshot.aggregate.sweeps,
        },
        repeats=len(walls),
    )


def _direct_sweeps(requests, tracer: Tracer):
    """``AutoTuner.tune`` once per distinct key, first-appearance order."""
    best: dict = {}
    evaluations = 0
    for request in requests:
        key = request.key()
        if key in best:
            continue
        with tracer.span("tune.sweep"):
            result = AutoTuner(
                request.resolved_device(), request.resolved_setup()
            ).tune(request.resolved_grid())
        best[key] = result.best.gflops
        evaluations += result.n_configurations
    return best, evaluations


def tune_traced(seed: int, seconds: float, tally: Tally,
                run_id: str) -> Outcome:
    requests = _requests(seed)
    tracer = Tracer(run_id)
    fleet = _new_fleet()
    try:
        _, answers = _closed_loop(fleet, requests, tracer)
        snapshot = fleet.snapshot()
    finally:
        fleet.close()
    served = _check_answers(requests, answers, tally)
    hits, misses = _split_latencies(answers)
    agg = snapshot.aggregate

    sweeps = Tracer(run_id)
    untraced = Tracer(run_id, enabled=False)
    begin = time.perf_counter()
    _direct_sweeps(requests, untraced)
    wall_off = time.perf_counter() - begin
    begin = time.perf_counter()
    exhaustive, evaluations = _direct_sweeps(requests, sweeps)
    wall_on = time.perf_counter() - begin
    tally.record(
        all(served[k] <= exhaustive[k] * (1 + 1e-9) for k in served),
        "the service returned a config faster than the exhaustive optimum",
    )
    return Outcome(
        metrics={
            "service.hit_ratio": agg.hits / agg.requests,
            "service.warm_ratio": agg.warm_starts / agg.sweeps,
            "service.coalesced": snapshot.coalesced,
            "service.sweeps": agg.sweeps,
            "service.degraded": agg.degradations,
            "service.hit_p50_ms": 1e3 * _median(hits),
            "service.hit_p99_ms": 1e3 * _quantile(hits, 0.99),
            "service.miss_p50_ms": 1e3 * _median(misses),
            "service.miss_p90_ms": 1e3 * _quantile(misses, 0.9),
            "service.answer_quality": statistics.mean(
                served[k] / exhaustive[k] for k in served
            ),
            "tune.sweep_s": sum(s.duration for s in sweeps.spans),
            "tune.evaluations": evaluations,
            "trace.overhead_s": wall_on - wall_off,
        },
        repeats=1,
        spans=tracer.spans + sweeps.spans,
    )


# ----------------------------------------------------------------------
#: Workload name -> (untraced run, traced run).
WORKLOADS = {
    **{
        name: (partial(search_e2e, name), partial(search_traced, name))
        for name in SEARCH_SPECS
    },
    "tune_mix": (tune_e2e, tune_traced),
    "survey_beams": (survey_e2e, survey_traced),
}
