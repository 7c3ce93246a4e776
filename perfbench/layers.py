"""Per-layer metrics of the traced run, all measured from outside the library.

The layers are the package modules ``field``, ``subgroups``, ``solver``,
``spectrum`` and ``cli`` (``errors`` only holds exceptions).  Three
sources feed them:

* direct timings of single public calls and seeded microloops
  (``Field()``, ``primitive_element()``, the first
  ``trace_one_element(4n)``, ``ensure_tables()``, ``mul``/``pow``), plus
  fresh interpreters for ``cli.interp_ms`` and ``cli.import_ms``;
* spans and call counts that ``tracer.Tracer`` records while the
  workload's fixed pass runs;
* a small battery at n = 4 (and a verify at n = 2) that reaches every
  layer, for the metrics a workload's own pass does not produce.  The
  workload's own values win wherever it produces them.

Every per-layer metric is therefore present in every traced run; README.md
lists which source each one comes from on each workload.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Sequence

import numpy as np

from diffspectrum import Field, spectrum
from tracer import CASES, CHAIN_OK, Tracer, chain_tag_tally
import workloads


MICRO_MUL = 5000
MICRO_POW = 500
BATTERY_CLI_REQUESTS = 2
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import diffspectrum.cli; "
    "print(time.perf_counter() - t)"
)


def _timed(fn: Callable[[], object]) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


# ---------------------------------------------------------------------
# field: single calls and microloops
# ---------------------------------------------------------------------


def field_metrics(n: int, seed: int) -> Dict[str, float]:
    """Set-up calls at the workload's n; the trace-one scan, tables and the
    microloops always at n = 4 (the n = 6 scan takes minutes)."""
    out = {
        "field.build_ms": statistics.median(_timed(lambda: Field(n)) for _ in range(5)) * 1e3,
        "field.primitive_ms": statistics.median(
            _timed(Field(n).primitive_element) for _ in range(5)) * 1e3,
        "field.trace_one_ms": _timed(lambda: Field(4).trace_one_element(16)) * 1e3,
        "field.tables_ms": statistics.median(
            _timed(Field(4).ensure_tables) for _ in range(3)) * 1e3,
    }
    rng = random.Random(f"field:{seed}")
    f = Field(4)
    pairs = [(rng.randrange(1, f.size), rng.randrange(1, f.size)) for _ in range(MICRO_MUL)]
    bases = [rng.randrange(1, f.size) for _ in range(MICRO_POW)]
    for suffix in ("", "_table"):
        if suffix:
            f.ensure_tables()
        mul, pow_, d = f.mul, f.pow, f.d
        start = time.perf_counter()
        for a, b in pairs:
            mul(a, b)
        out[f"field.mul{suffix}_ns"] = (time.perf_counter() - start) / MICRO_MUL * 1e9
        start = time.perf_counter()
        for a in bases:
            pow_(a, d)
        out[f"field.pow_d{suffix}_us"] = (time.perf_counter() - start) / MICRO_POW * 1e6
    return out


# ---------------------------------------------------------------------
# cli: fresh interpreters
# ---------------------------------------------------------------------


def cli_probe_metrics() -> Dict[str, float]:
    interp = []
    imports = []
    for _ in range(3):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        interp.append(time.perf_counter() - start)
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True,
                              capture_output=True, text=True, timeout=60)
        imports.append(float(proc.stdout))
    return {"cli.interp_ms": statistics.median(interp) * 1e3,
            "cli.import_ms": statistics.median(imports) * 1e3}


# ---------------------------------------------------------------------
# spans and counts
# ---------------------------------------------------------------------


def span_metrics(tracer: Tracer, b_values: Sequence[int], field: Field) -> Dict[str, float]:
    """Metrics derivable from one traced pass; only those the pass reached.

    Call the function after the tracer is uninstalled: it uses the field.
    """
    cols = tracer.arrays()
    out: Dict[str, float] = {}

    def mean(mask: np.ndarray, col: str = "duration") -> float:
        return float(cols[col][mask].mean())

    def spans(name: str) -> np.ndarray:
        return tracer.name_mask(cols, name)

    aux = cols["aux"]
    n_b = len(b_values)
    outside = sum(1 for b in b_values if not field.in_subfield(b, 2 * field.n))
    chain = spans("solver.generic_intermediates")
    if chain.any() and outside:
        out["solver.chain_runs_per_b"] = int(chain.sum()) / outside
        ok = chain & (aux == CHAIN_OK)
        failed = chain & (aux >= 0) & (aux != CHAIN_OK)
        if ok.any():
            out["solver.chain_success_us"] = mean(ok, "self") / 1e3
        if failed.any():
            out["solver.chain_fail_us"] = mean(failed, "self") / 1e3
        tally = chain_tag_tally(tracer, cols)
        out["solver.succeed"] = tally.pop("ok")
        out.update({f"solver.fail.{tag}": count for tag, count in tally.items()})
    solve_t = spans("subgroups.solve_t_from_T")
    if n_b and chain.any():
        for method, cell in tracer.counts.items():
            out[f"field.{method}_calls_per_b"] = cell[0] / n_b
        out["subgroups.solve_t_from_T_calls_per_b"] = int(solve_t.sum()) / n_b
    if solve_t.any():
        out["subgroups.solve_t_from_T_us"] = mean(solve_t) / 1e3
    artin = spans("subgroups.solve_artin_schreier")
    if artin.any():
        out["subgroups.artin_schreier_us"] = mean(artin) / 1e3
    mu = CASES.index(workloads.CASE_MU)
    classify = spans("solver.classify") & (aux != mu)
    if classify.any():
        out["solver.classify_us"] = mean(classify) / 1e3
    solve = spans("solver.solve")
    if (solve & (aux != mu)).any():
        out["solver.solve_us"] = mean(solve & (aux != mu)) / 1e3
    if (solve & (aux == mu)).any():
        out["solver.mu_solve_ms"] = mean(solve & (aux == mu)) / 1e6
    for name, metric in (("spectrum.bruteforce_counts", "spectrum.tally_s"),
                         ("spectrum.ddt_row", "spectrum.ddt_row_s")):
        if spans(name).any():
            out[metric] = mean(spans(name)) / 1e9
    if spans("cli.main").any():
        out["cli.main_ms"] = mean(spans("cli.main")) / 1e6
    return out


def traced(fn: Callable[[], object]):
    tracer = Tracer()
    with tracer:
        output = fn()
    return tracer, output


def battery(seed: int) -> tuple[Dict[str, float], List[str]]:
    """Small passes at n <= 4 that reach every layer a workload may skip."""
    errors: List[str] = []
    out: Dict[str, float] = {}

    cli_w = workloads.CliN4(seed)
    cli_w.setup()
    cli_w.prepare()
    cli_w.trace_requests = cli_w.trace_requests[:BATTERY_CLI_REQUESTS]
    tracer, output = traced(cli_w.fixed_work)
    errors += cli_w.check_fixed(output)
    out.update(span_metrics(tracer, cli_w.fixed_b_values(), cli_w.field))

    f4 = Field(4)
    a = random.Random(f"battery:{seed}").randrange(1, f4.size)
    tracer, _ = traced(lambda: (spectrum.bruteforce_counts(f4),
                                spectrum.ddt_row(f4, a, method="bruteforce")))
    out.update(span_metrics(tracer, [], f4))

    query = workloads.QueryN4(seed)
    query.setup()
    query.prepare()
    tracer, output = traced(query.fixed_work)
    errors += query.check_fixed(output)
    out.update(span_metrics(tracer, query.fixed_b_values(), query.field))

    report = spectrum.verify_conjecture(Field(2))
    if not report.passed:
        errors.append("battery: verify at n = 2 failed")
    out.update(workloads.verify_phase_metrics(report))
    return out, errors
