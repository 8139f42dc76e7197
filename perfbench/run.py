"""Run one abmv benchmark workload and print its metrics.

    python3 perfbench/run.py --workload committees --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout: the package is imported from
`src/`. One process, one thread, closed loop: each instance is decided
before the next one starts. Times are the process's CPU time: the
solvers neither sleep nor wait on I/O, so this is their time to verdict
without the time a shared host takes the CPU away.

The workload's corpus is generated from the seed, each item just before
its timed call, so only the instance being solved is alive and every
timed call gets objects nothing has touched. Untraced (`--trace 0`), the
corpus is solved in whole passes until at least `--seconds` of timed
solving and `MIN_SAMPLES` instances have accumulated. Traced (`--trace 1`),
one untraced pass is followed by one traced pass of the same corpus,
and the ratio of their throughputs is the tracing overhead.

After timing, the corpus is generated once more and each outcome is
checked against a reference on those fresh objects. The last line of
standard output is one JSON object: `correct`, `attempted`, `failed`
and the end-to-end (untraced) or per-layer (traced) metrics. The lines
before it are a readable summary.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import process_time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = (
    "abmv",
    "abmv.core",
    "abmv.ipcore",
    "abmv.winners",
    "abmv.manipulation",
    "abmv.control",
    "abmv.reductions",
    "abmv.verification",
)
WORKLOADS = ("committees", "clones", "reductions", "agreement")
IMPORT_REPEATS = 5
# a full run times at least this many instances, so that ten lie beyond p95
MIN_SAMPLES = 200


class Failure:
    """An instance that raised, including a cap refusal."""

    def __init__(self, error):
        self.error = error


class Pass:
    def __init__(self, generate_s, latencies, outcomes):
        self.generate_s = generate_s
        self.latencies = latencies
        self.outcomes = outcomes


def import_abmv() -> float:
    """Import every abmv module into a clean module table; returns seconds."""
    for key in [k for k in sys.modules if k == "abmv" or k.startswith("abmv.")]:
        del sys.modules[key]
    start = process_time()
    for name in MODULES:
        importlib.import_module(name)
    return process_time() - start


def timed_items(items):
    """Yield (seconds spent generating it, item) for each item of a corpus."""
    while True:
        start = process_time()
        item = next(items, None)
        seconds = process_time() - start
        if item is None:
            return
        yield seconds, item
        del item  # the solved instance is freed before the next one is made


def run_pass(workload, seed, size, tracer=None) -> Pass:
    generate_s, latencies, outcomes = 0.0, [], []
    gc.collect()
    for i, (seconds, item) in enumerate(timed_items(workload.generate(seed, size))):
        generate_s += seconds
        start = process_time()
        try:
            if tracer is None:
                outcome = workload.solve(item)
            else:
                with tracer.instance(i, item.label):
                    outcome = workload.solve(item)
        except Exception as exc:  # counted as failed; the run goes on
            outcome = Failure(f"{item.label}: {exc!r}")
        latencies.append(process_time() - start)
        outcomes.append(outcome)
        del item
    return Pass(generate_s, latencies, outcomes)


def check_passes(workload, seed, size, passes):
    """Reference-check every outcome on freshly generated objects.

    Returns (failed, generate_s, messages): failed counts every instance
    that raised, hit a cap, or was wrong.
    """
    generate_s, failed, messages = 0.0, 0, []
    for i, (seconds, item) in enumerate(timed_items(workload.generate(seed, size))):
        generate_s += seconds
        results = [p.outcomes[i] for p in passes]
        solved = [r for r in results if not isinstance(r, Failure)]
        failed += len(results) - len(solved)
        messages += [r.error for r in results if isinstance(r, Failure)]
        if not solved:
            continue
        try:
            problem = workload.check(item, solved[0])
        except Exception as exc:
            problem = f"reference check raised {exc!r}"
        if problem is None and any(r != solved[0] for r in solved[1:]):
            problem = "outcome changed between passes"
        if problem is not None:
            failed += len(solved)
            messages.append(f"{item.label}: {problem}")
    return failed, generate_s, messages


def percentile(sorted_values, q):
    """Nearest-rank percentile, and how many samples lie beyond it."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument(
        "--size", default="full", choices=("full", "tiny"), help="tiny is the self-check's corpus"
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "abmv" / "__init__.py").is_file():
        print(f"abmv sources not found under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import_s = [import_abmv() for _ in range(IMPORT_REPEATS)]
    import abmv

    if Path(abmv.__file__).resolve().parent != SRC / "abmv":
        print(f"abmv was imported from {abmv.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    tracer = None
    if args.trace:
        passes = [run_pass(workload, args.seed, args.size)]
        tracer = spans.Tracer()
        tracer.install()
        try:
            passes.append(run_pass(workload, args.seed, args.size, tracer))
        finally:
            tracer.uninstall()
    else:
        passes = []
        min_samples = MIN_SAMPLES if args.size == "full" else 1
        while (
            sum(len(p.latencies) for p in passes) < min_samples
            or sum(sum(p.latencies) for p in passes) < args.seconds
        ):
            passes.append(run_pass(workload, args.seed, args.size))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    check_start = process_time()
    failed, check_generate_s, messages = check_passes(workload, args.seed, args.size, passes)
    check_s = process_time() - check_start
    for message in messages[:20]:
        print(f"FAILED {message}", file=sys.stderr)

    latencies = sorted(t for p in passes for t in p.latencies)
    attempted = len(latencies)
    rate = attempted / sum(latencies)
    p50 = statistics.median(latencies)
    p95, beyond = percentile(latencies, 0.95)
    setup_s = statistics.median(import_s) + statistics.median(
        [p.generate_s for p in passes] + [check_generate_s]
    )
    checked = getattr(workload, "bruteforce_checked", None)
    print(
        f"{args.workload} seed={args.seed} passes={len(passes)} samples={attempted} "
        f"beyond_p95={beyond} failed_share={failed / attempted:.4f} ratio "
        f"timed_s={sum(latencies):.1f} check_s={check_s:.1f}"
        + (f" bruteforce_checked={checked}" if checked is not None else "")
    )
    if args.trace:
        untraced, traced = passes  # the same corpus, so throughputs compare as times
        overhead = sum(untraced.latencies) / sum(traced.latencies)
        values = tracer.metrics(
            args.workload, workloads.REDUCTION_KINDS, workloads.AGREEMENT_FAMILIES, overhead
        )
        print(f"  trace_overhead={overhead:.4f} (traced over untraced instances_per_s)")
    else:
        values = {
            "setup_s": (setup_s, "s"),
            "instances_per_s": (rate, "1/s"),
            "latency_p50_ms": (p50 * 1000, "ms"),
            "latency_p95_ms": (p95 * 1000, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }
    for name, (value, unit) in values.items():
        if not args.trace or value:
            print(f"  {name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
