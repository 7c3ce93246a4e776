"""Benchmark for diffspectrum.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; the library is imported from ``src/``.
With ``--trace 0`` it measures the end-to-end metrics of one workload
(see README.md); with ``--trace 1`` it reports the per-layer metrics and
the tracing overhead instead.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it holds the run environment and the details behind each
metric.  Raw results (and, for traced runs, the spans) are written to
``.perfbench/``.

This process imports neither numpy nor the library: every measurement
happens in worker processes (``worker.py``), so that ``setup_s`` can time
interpreter start, imports, ``Field()`` and the warm-up call as a user
pays them.  Timings are rescaled to the reference machine speed by a
reference loop that the workers run next to the work and the set-up
(``speed.py``); the wall-clock figures are in the details line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import List, Tuple

from speed import SpeedClock

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_FILE = "BENCHMARK.json"  # workloads, metric names and units

SETUP_SAMPLES = 5  # set-ups per run
WORKER_TIMEOUT_S = 170
OUT_DIR = ".perfbench"
ENV_BRUTEFORCE_BITS = "GF2_MAX_BRUTEFORCE_BITS"
# The tail is p90 when at least TAIL_BEYOND samples lie beyond it.  p99 was
# tried first: over five seeds of query-n4 its spread was 23% against 7%
# for the median, because a second-long slowdown of the shared machine
# fills the top percent on its own.
TAIL_PERCENTILE = 90
TAIL_BEYOND = 10


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def _worker(mode: str, args, env) -> Tuple[subprocess.Popen, Tuple[float, float], list]:
    """Start a worker and wait for its ``ready`` line; returns the process,
    the (start, end) of its set-up, from spawn to ready, and the speed
    probes it took meanwhile."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), mode, args.workload,
         str(args.seed), str(args.seconds), OUT_DIR],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    word, _, probes = proc.stdout.readline().partition(" ")
    end = time.perf_counter()
    if word != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker ({mode}) failed during set-up")
    return proc, (start, end), json.loads(probes)


def _reap(proc: subprocess.Popen) -> str:
    """Wait for a worker, killing it if it hangs; the rest of its stdout."""
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker still running after {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def _finish(proc: subprocess.Popen) -> dict:
    """The worker's JSON result line."""
    return json.loads(_reap(proc).strip().splitlines()[-1])


def tail(latencies: List[float]) -> Tuple[float, float]:
    """(value, percentile) of the tail: TAIL_PERCENTILE when at least
    TAIL_BEYOND samples lie beyond it, else the highest percentile that has
    TAIL_BEYOND beyond it; the maximum (percentile 100) below that."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    rank = min(math.ceil(TAIL_PERCENTILE / 100 * n), n - TAIL_BEYOND)
    return ordered[rank - 1], 100.0 * rank / n


def interquartile_mean(values: List[float]) -> float:
    """Mean of the middle half of the sorted values (all of them below 4)."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def end_to_end(result: dict, setups: List[float], wall_setups: List[float]) -> Tuple[dict, dict]:
    lat = result["latencies_s"]
    wall = result["wall_latencies_s"]
    tail_value, tail_pct = tail(lat)
    per_item = result["items_per_sample"] * len(lat)
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
        "items_per_s": per_item / sum(lat),
        "latency_iqm_ms": interquartile_mean(lat) * 1e3,
        "latency_tail_ms": tail_value * 1e3,
    }
    details = {
        "samples": len(lat),
        "tail_percentile": tail_pct,
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "item": result["item"],
        "setup_samples_s": setups,
        "wall_setup_samples_s": wall_setups,
        "measured_wall_s": result["wall_s"],
        "speed_probes": result["probes"],
        "wall_items_per_s": per_item / sum(wall),
        "wall_latency_iqm_ms": interquartile_mean(wall) * 1e3,
    }
    return metrics, details


def setup_samples(args, env) -> Tuple[List[float], List[float]]:
    """(rescaled, wall) seconds of SETUP_SAMPLES set-ups, each in a fresh
    worker that exits after its ``ready`` line; the worker's own speed
    probes rescale its set-up."""
    clock = SpeedClock()
    intervals = []
    for _ in range(SETUP_SAMPLES):
        proc, interval, probes = _worker("setup", args, env)
        _reap(proc)
        intervals.append(interval)
        clock.add(tuple(probe) for probe in probes)
    return clock.measure(intervals)


def _src_digest() -> str:
    digest = hashlib.sha256()
    for root, dirs, files in sorted(os.walk("src")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                digest.update(path.encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not os.path.isdir(".git"):
        return "none (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(args, result: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": result.get("numpy"),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": result.get("params"),
    }


def parse_args(argv, spec: dict):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args, spec: dict) -> Tuple[dict, dict]:
    """One run; returns the record (environment, details) and the result line."""
    if not os.path.isfile(os.path.join("src", "diffspectrum", "__init__.py")):
        raise BenchError("src/diffspectrum not found; run from the repository root")
    if ENV_BRUTEFORCE_BITS in os.environ:
        raise BenchError(
            f"{ENV_BRUTEFORCE_BITS} is set; it changes which sweeps the library "
            "allows, so results would not be comparable. Unset it and rerun.")
    os.makedirs(OUT_DIR, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p)

    if args.trace:
        proc, _, _ = _worker("trace", args, env)
        result = _finish(proc)
        metrics = result.pop("metrics")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        missing = [name for name in units if name not in metrics]
        if missing:
            raise BenchError(f"traced run did not produce {missing}")
        attempted, failed = result["checks"], result["failed_checks"]
        details = {"exact_counts": result["exact_counts"],
                   "untraced_s": result["untraced_s"], "traced_s": result["traced_s"]}
    else:
        setups, wall_setups = setup_samples(args, env)
        proc, _, _ = _worker("run", args, env)
        result = _finish(proc)
        metrics, details = end_to_end(result, setups, wall_setups)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        attempted = len(result["latencies_s"])
        failed = len(result["errors"])
        details["fail_ratio"] = failed / attempted

    record = {
        "env": environment(args, result),
        "details": details,
        "errors": result["errors"][:10],
    }
    final = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({**record, "result": final}, handle, indent=1)
    return record, final


def main(argv=None) -> int:
    try:
        with open(SPEC_FILE, encoding="utf-8") as handle:
            spec = json.load(handle)
    except OSError:
        print(f"error: {SPEC_FILE} not found; run from the repository root", file=sys.stderr)
        return 2
    args = parse_args(argv, spec)
    try:
        record, final = run(args, spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, metric in final["metrics"].items():
        print(f"{args.workload}  {name} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
