"""The repository's benchmark: one command, four seeded workloads.

Run from the repository root::

    python3 perfbench/run.py --workload apertif_search --seed 1 --seconds 10 --trace 0

``--trace 0`` drives the public entry points with tracing off and prints the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` composes the layers
one public call at a time under benchmark-side spans and prints the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A failed output check makes the exit code 1.
Each run also writes its full record (environment, repeats, metrics and,
when traced, every span) to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCHEMA_VERSION = 1


def _git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _environment(seed: int) -> dict:
    import numpy

    return {
        "git_sha": _git_sha(),
        "host": platform.node(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(sorted(names))}", file=sys.stderr)
        return 2

    # The benchmark measures the in-tree sources with the executor the
    # program picks itself.
    os.environ.pop("REPRO_KERNEL_BACKEND", None)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    e2e, traced = workloads.WORKLOADS[args.workload]
    tally = workloads.Tally()
    run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
    started = time.perf_counter()
    try:
        if args.trace:
            outcome = traced(args.seed, args.seconds, tally, run_id)
        else:
            outcome = e2e(args.seed, args.seconds, tally)
    except Exception:
        traceback.print_exc()
        print(json.dumps({
            "correct": False,
            "attempted": tally.attempted + 1,
            "failed": tally.failed + 1,
            "metrics": {},
        }))
        return 1
    elapsed = time.perf_counter() - started

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    idle = []
    for metric in wanted:
        value = outcome.metrics.get(metric["name"])
        if value is None:
            if not args.trace:
                tally.record(False, f"metric {metric['name']} not measured")
                continue
            # A layer this workload does not exercise.
            idle.append(metric["name"])
            value = 0.0
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}, "
          f"{outcome.repeats} repeats in {elapsed:.1f} s")
    for name, entry in metrics.items():
        print(f"  {name:<28} {entry['value']:>14.6g} {entry['unit']}")
    extras = {k: v for k, v in outcome.metrics.items() if k not in metrics}
    for name, value in sorted(extras.items()):
        print(f"  {name:<28} {value:>14.6g}   (reported, not gated)")
    for note in outcome.notes:
        print(f"  {note}")
    if args.trace:
        print("  run.host_gflops and run.ops_per_byte are computed from "
              "array sizes, not measured by counters")
    if idle:
        print(f"  not exercised by this workload (printed as 0): "
              f"{', '.join(idle)}")
    for problem in tally.problems:
        print(f"  FAILED: {problem}")

    correct = tally.failed == 0
    record = {
        "benchmark": "perfbench",
        "schema_version": SCHEMA_VERSION,
        "env": _environment(args.seed),
        "repeats": outcome.repeats,
        "results": {
            "workload": args.workload,
            "trace": args.trace,
            "seconds": args.seconds,
            "correct": correct,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "problems": tally.problems,
            "metrics": metrics,
            "not_gated": extras,
            "spans": [s.__dict__ for s in outcome.spans],
        },
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    out_file.write_text(json.dumps(record) + "\n")

    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
