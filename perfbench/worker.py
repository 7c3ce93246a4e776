"""Child process of run.py: set up one workload, then measure or trace it.

    python3 perfbench/worker.py {setup|run|trace} WORKLOAD SEED SECONDS OUT_DIR

The worker prints ``ready`` and the speed probes it took during set-up
as soon as the workload's set-up is done (in ``setup`` mode the parent
times interpreter start up to that line as one ``setup_s`` sample, and
the worker exits), and otherwise one JSON line with the raw results.  It
needs ``src/`` on PYTHONPATH.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import statistics
import sys
import time

from speed import PROBE_INTERVAL_S, SpeedClock


def measure(workload, seconds: float) -> dict:
    """Closed loop, one client: run units of work until the next one would
    end past ``seconds``.  The first unit always runs.  The reference loop
    probes the machine's speed every PROBE_INTERVAL_S while the work runs,
    here or in the child processes that serve the requests."""
    clock = SpeedClock()
    samples = []
    start = time.perf_counter()
    with clock.ticking(PROBE_INTERVAL_S) if workload.in_process else contextlib.nullcontext():
        while True:
            unit_start = time.perf_counter()
            samples.extend(workload.unit())
            now = time.perf_counter()
            if (now - start) + (now - unit_start) > seconds:
                break
    clock.add(workload.child_probes)
    latencies, wall = clock.measure([(begin, end) for begin, end, _ in samples])
    return {
        "latencies_s": latencies,
        "wall_latencies_s": wall,
        "probes": len(clock.probes),
        "errors": [error for _, _, error in samples if error],
        "item": workload.item,
        "items_per_sample": workload.items_per_sample,
        "peak_rss_mb": resource.getrusage(workload.served_by).ru_maxrss / 1024,
        "wall_s": time.perf_counter() - start,
    }


def trace(workload, seed: int, out_dir: str) -> dict:
    """Per-layer metrics: the workload's fixed pass once untraced and twice
    traced (their exact counts must agree), plus the layer battery."""
    import layers
    from tracer import chain_tag_tally

    metrics, battery_errors = layers.battery(seed)
    checks = {"battery": battery_errors}
    metrics.update(layers.field_metrics(workload.n, seed))
    metrics.update(layers.cli_probe_metrics())

    start = time.perf_counter()
    output = workload.fixed_work()
    untraced_s = time.perf_counter() - start
    checks["untraced pass"] = workload.check_fixed(output)
    metrics.update(workload.output_metrics(output))

    passes = []
    for i in range(2):
        start = time.perf_counter()
        tracer, output = layers.traced(workload.fixed_work)
        passes.append((tracer, time.perf_counter() - start))
        checks[f"traced pass {i + 1}"] = workload.check_fixed(output)
    first = passes[0][0]
    counts = [tracer.exact_counts() for tracer, _ in passes]
    checks["exact counts repeat"] = [
        f"{key}: {counts[0][key]} then {counts[1].get(key)}"
        for key in sorted(counts[0]) if counts[0][key] != counts[1].get(key)
    ]
    expected = workload.expected_chain_tags
    if expected is not None:
        tally = chain_tag_tally(first, first.arrays())
        checks["chain outcome tally"] = [] if tally == expected else [f"{tally} != {expected}"]

    metrics.update(layers.span_metrics(first, workload.fixed_b_values(), workload.field))
    metrics["trace.overhead_s"] = statistics.median(t for _, t in passes) - untraced_s
    metrics["trace.spans"] = first.span_count
    first.save(os.path.join(out_dir, f"spans-{workload.name}-seed{seed}.npz"))
    return {
        "metrics": metrics,
        "exact_counts": counts[0],
        "checks": len(checks),
        "errors": [f"{stage}: {e}" for stage, errs in checks.items() for e in errs[:3]],
        "failed_checks": sum(1 for errs in checks.values() if errs),
        "untraced_s": untraced_s,
        "traced_s": [t for _, t in passes],
    }


def main(argv: list[str]) -> int:
    mode, name, seed, seconds, out_dir = argv
    setup_clock = SpeedClock()
    with setup_clock.ticking(PROBE_INTERVAL_S):
        # numpy and the library are imported here, under the probes,
        # because set-up time includes their import.
        from workloads import WORKLOADS

        workload = WORKLOADS[name](int(seed))
        workload.setup()
    print("ready", json.dumps(setup_clock.probes), flush=True)
    if mode == "setup":
        return 0
    workload.prepare()
    if mode == "run":
        result = measure(workload, float(seconds))
    else:
        result = trace(workload, int(seed), out_dir)
    result["params"] = workload.params()
    result["numpy"] = sys.modules["numpy"].__version__
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
