"""One benchmark worker process: runs a workload's passes and prints one
JSON line.  ``run.py`` starts workers one at a time, so the load comes
from a single process running one operation at a time (closed loop).

Untraced, it runs a warm-up pass (in-process workloads only), then timed
passes until the time budget is spent, never fewer than MIN_PASSES.  Every
pass must reproduce the first pass's outputs exactly.  After the timing,
a worker started with ``--check 1`` checks those outputs against the
oracles; the others report a digest of them, which must match.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time

import workloads

MIN_PASSES = 2
TRACED_PASSES = 3  # each side of the traced-minus-untraced overhead


def timed_passes(ops, seconds, reference, min_passes=MIN_PASSES, max_passes=None, run=None):
    """Pass durations and the number of passes whose outputs differ from the reference."""
    run = run or (lambda: [workloads.run_op(op) for op in ops])
    times, differing = [], 0
    start = time.perf_counter()
    while True:
        gc.collect()
        t0 = time.perf_counter()
        results = run()
        times.append(time.perf_counter() - t0)
        if reference is None:
            reference = results
        elif results != reference:
            differing += 1
        if len(times) == max_passes:
            break
        if len(times) >= min_passes and time.perf_counter() - start + statistics.median(times) > seconds:
            break
    return times, reference, differing


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", type=int, choices=(0, 1), default=1)
    args = parser.parse_args()

    ops = workloads.build(args.workload, args.seed)
    in_process = args.workload != "cli_figures"
    # warm-up: caches fill and lazy set-up finishes before timing
    reference = [workloads.run_op(op) for op in ops] if in_process else None
    warm = 1 if in_process else 0

    if not args.trace:
        times, reference, differing = timed_passes(ops, args.seconds, reference)
        passes = warm + len(times)
        usage = resource.getrusage(resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN)
        report = {"pass_s": times, "peak_rss_kib": usage.ru_maxrss}
    else:
        import tracing

        budget = args.seconds / 2
        plain, reference, differing = timed_passes(ops, budget, reference, min_passes=1, max_passes=TRACED_PASSES)
        tracer = tracing.Tracer()
        tracer.wrap_layers()
        traced, _, differing_traced = timed_passes(ops, budget, reference, min_passes=1, max_passes=TRACED_PASSES,
                                                   run=lambda: tracing.run_pass(tracer, args.workload, ops))
        differing += differing_traced
        passes = warm + len(plain) + len(traced)
        metrics = tracing.probe(tracer, args.seed, {args.workload})
        tracer.unwrap_layers()
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        self_times = tracer.self_times()
        os.makedirs(workloads.RESULTS_DIR, exist_ok=True)
        path = os.path.join(workloads.RESULTS_DIR, f"trace-{args.workload}-seed{args.seed}.json.gz")
        tracer.write(path, {"workload": args.workload, "seed": args.seed, "self_time_s": self_times,
                            "metrics": metrics})
        for layer, seconds in sorted(self_times.items(), key=lambda kv: -kv[1]):
            print(f"self time {layer:>12}: {seconds:9.4f} s", file=sys.stderr)
        print(f"spans written to {path}", file=sys.stderr)
        report = {"metrics": metrics}

    problems = [f"{differing} passes gave other outputs than the first"] if differing else []
    report.update(ops=len(ops), passes=passes, digest=hashlib.sha256(repr(reference).encode()).hexdigest(),
                  problems=problems)
    if args.check:
        failed, wrong = workloads.classify(ops, reference)
        report.update(failed_per_pass=failed, problems=problems + wrong)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
