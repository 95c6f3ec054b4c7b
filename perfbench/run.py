"""Benchmark for pentachrome, run from the root of a checkout:

    python3 perfbench/run.py --workload cli-queries --seed 1 --seconds 30 --trace 0

Workloads: verify-cold, cli-queries, library-stream, or all three in turn.
With --trace 0 it times the workload for --seconds and prints the
end-to-end metrics; with --trace 1 it makes the traced per-module run and
prints the per-layer metrics.  Every output is checked against the oracles
in oracles.py.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  Results and traces are
written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import sys
from pathlib import Path

# One BLAS thread in this process and in every child: the package imports
# numpy, whose default thread pool competes for the CPUs the measured
# process needs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pentachrome"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("verify-cold", "cli-queries", "library-stream")


def end_to_end(bench, workload, seed, seconds):
    import warm
    import workloads

    rng = random.Random(f"{seed}:{workload}")
    setup = bench.setup_seconds()
    if workload == "verify-cold":
        tally = workloads.run_fresh(bench, seconds, lambda: [bench.verify_request()])
    elif workload == "cli-queries":
        tally = workloads.run_fresh(bench, seconds, lambda: bench.cli_round(rng))
    else:
        model, _ = warm.warm_library()
        tally = workloads.run_stream(bench, seconds, rng, model)
    metrics = {
        "latency_p50_ms": (1000.0 * statistics.median(tally.walls), "ms"),
        "throughput_ops_s": ((tally.attempted - tally.failed) / sum(tally.walls), "1/s"),
        "cpu_ms_per_op": (1000.0 * statistics.median(tally.cpus), "ms"),
        "peak_rss_mb": (statistics.median(tally.rss), "MB"),
        "setup_s": (setup, "s"),
    }
    notes = [f"{len(tally.walls)} latency samples"]
    if len(tally.walls) >= 100:  # at least ten samples beyond p90
        notes.append(f"latency_p90_ms {1000.0 * statistics.quantiles(tally.walls, n=10)[8]} ms")
    return metrics, tally.attempted, tally.failed, tally.correct, tally.problems, notes


def report(title, metrics, attempted, failed, correct, problems, notes=()):
    print(f"== {title}: attempted {attempted}, failed {failed}, correct {str(correct).lower()}")
    for name, (value, unit) in metrics.items():
        print(f"   {name:<44} {value:>16.6f} {unit}")
    for note in notes:
        print(f"   ({note})")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (PACKAGE / "cli.py").is_file():
        print(f"perfbench: no package source at {PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(PACKAGE.parent))
    import pentachrome

    if Path(pentachrome.__file__).resolve().parent != PACKAGE.resolve():
        print(f"perfbench: imported pentachrome from {pentachrome.__file__}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    if args.trace:
        bench = workloads.Bench(ROOT, OUT, "work-trace")
        rng = random.Random(f"{args.seed}:trace")
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        metrics, attempted, failed, correct, problems = tracing.traced_run(
            bench, rng, args.workload, trace_path
        )
        report(f"traced per-module run ({trace_path.name})", metrics, attempted, failed,
               correct, problems)
        results[args.workload] = (metrics, attempted, failed, correct)
    else:
        for name in names:
            bench = workloads.Bench(ROOT, OUT, f"work-{name}")
            metrics, attempted, failed, correct, problems, notes = end_to_end(
                bench, name, args.seed, args.seconds
            )
            report(name, metrics, attempted, failed, correct, problems, notes)
            results[name] = (metrics, attempted, failed, correct)

    prefix = len(results) > 1
    line = json.dumps({
        "correct": all(r[3] for r in results.values()),
        "attempted": sum(r[1] for r in results.values()),
        "failed": sum(r[2] for r in results.values()),
        "metrics": {
            (f"{name}/{metric}" if prefix else metric): {"value": value, "unit": unit}
            for name, r in results.items()
            for metric, (value, unit) in r[0].items()
        },
    })
    suffix = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{suffix}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
