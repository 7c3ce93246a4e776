"""The four workloads: seeded inputs, the timed unit of work, and its checks.

Each workload has the same life cycle, driven by ``worker.py``:

* ``setup()`` is what ``setup_s`` measures (after interpreter start and
  the imports above): ``Field(n)`` plus one warm-up call that fills the
  lazy caches the workload relies on;
* ``prepare()`` builds untimed inputs and reference answers;
* ``unit()`` is one step of the closed loop and returns timed samples,
  which ``worker.py`` rescales to the reference machine speed
  (``speed.py``);
* ``fixed_work()`` / ``check_fixed()`` are the fixed-size pass the traced
  run repeats, so that its counts repeat exactly for a seed.

Inputs come only from the seed; the library sees the generated b values,
directions and CLI arguments, never the seed itself.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import resource
import subprocess
import sys
import time
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from diffspectrum import Field, cli, solver, spectrum
from speed import PROBE_INTERVAL_S
from diffspectrum.solver import CASE_B_EQUALS_ONE, CASE_GENERIC_TWO, CASE_MU

# Library functions are called through their modules (``solver.solve``,
# not a name imported here), so the traced run's wrappers see every call.

# {solution count: number of b}, as printed in the paper's spectrum.
EXPECTED_HISTOGRAMS = {
    4: {256: 1, 240: 16, 2: 30720, 0: 34799},
    6: {4096: 1, 4032: 64, 2: 8257536, 0: 8519615},
}
# Chain outcome per distinct b outside GF(q^2) at n = 4 (verify-n4 only).
EXPECTED_CHAIN_TAGS_N4 = {
    "ok": 30720,
    "candidate_fails_equation": 30336,
    "delta_is_one": 3840,
    "alpha_plus_one_vanishes": 256,
    "z_denominator_vanishes": 128,
    "u_plus_u_squared_vanishes": 0,
    "t_trace_obstruction": 0,
    "lambda_ratio_degenerate": 0,
    "z_vanishes": 0,
    "ansatz_pole": 0,
}

QUERY_BLOCK = 200  # one b in every block comes from mu_(q+1) \ {1}
TRACE_QUERY_BLOCKS = 2
TRACE_CLI_REQUESTS = 8
CLI_TIMEOUT_S = 60
# What the ``diffspectrum`` console script runs, with speed probes
# (speed.py) every PROBE_INTERVAL_S while it runs, reported on stderr as
# "probe START END" lines.  The package is imported from the checkout's
# src/ through PYTHONPATH.
CLI_SHIM = f"""\
import sys
sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r})
from speed import SpeedClock
clock = SpeedClock()
try:
    with clock.ticking({PROBE_INTERVAL_S!r}):
        from diffspectrum.cli import entrypoint
        sys.argv[0] = "diffspectrum"
        entrypoint()
finally:
    for start, end in clock.probes:
        print("probe", repr(start), repr(end), file=sys.stderr)
"""
# x whose b = x^d + (x+1)^d is a two-solution b at n = 4; solving it runs
# the whole generic chain, including the trace-one witness scan.
WARM_X = 0x1234

Sample = Tuple[float, float, Optional[str]]  # (start, end, error or None)


# ---------------------------------------------------------------------
# Field arithmetic for input generation, independent of the library.
# ---------------------------------------------------------------------


def _gf_mul(a: int, b: int, modulus: int, degree: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> degree:
            a ^= modulus
    return r


def _gf_pow(a: int, e: int, modulus: int, degree: int) -> int:
    r = 1
    while e:
        if e & 1:
            r = _gf_mul(r, a, modulus, degree)
        a = _gf_mul(a, a, modulus, degree)
        e >>= 1
    return r


def derivative(x: int, n: int, modulus: int) -> int:
    """x^d + (x+1)^d for d = q^3 + q^2 + q - 1."""
    q, degree = 1 << n, 4 * n
    d = q**3 + q**2 + q - 1
    return _gf_pow(x, d, modulus, degree) ^ _gf_pow(x ^ 1, d, modulus, degree)


def mu_elements(n: int, modulus: int) -> List[int]:
    """The q elements of mu_(q+1) minus 1: the image of y -> y^((q^4-1)/(q+1))."""
    q, degree = 1 << n, 4 * n
    cofactor = ((1 << degree) - 1) // (q + 1)
    found = set()
    y = 2
    while len(found) < q:
        m = _gf_pow(y, cofactor, modulus, degree)
        if m != 1:
            found.add(m)
        y += 1
    return sorted(found)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _uniform_b(rng: random.Random, size: int, accept: Callable[[int], bool]) -> int:
    while True:
        b = rng.randrange(size)
        if accept(b):
            return b


def query_blocks(seed: int, n: int, modulus: int, counts: np.ndarray) -> Iterator[List[int]]:
    """Blocks of QUERY_BLOCK b values in seeded order: one from
    mu_(q+1) \\ {1}; the others uniform among the b with two solutions or
    none (by the exhaustive tally ``counts``), a fixed number of each, in
    the proportion the field has them.  The two kinds of query take ~4.5
    and ~3 ms, so the median lies between them; fixed shares keep the slow
    mu case and the mix of the two kinds from moving the figures between
    seeds."""
    rng = _rng("query", seed)
    size = 1 << (4 * n)
    two, none = int(np.count_nonzero(counts == 2)), int(np.count_nonzero(counts == 0))
    two_per_block = round((QUERY_BLOCK - 1) * two / (two + none))
    mu = mu_elements(n, modulus)
    while True:
        block = [_uniform_b(rng, size, lambda b: counts[b] == 2) for _ in range(two_per_block)]
        block += [_uniform_b(rng, size, lambda b: counts[b] == 0)
                  for _ in range(QUERY_BLOCK - 1 - two_per_block)]
        block.append(rng.choice(mu))
        rng.shuffle(block)
        yield block


# ---------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------


def histogram_of(counts: np.ndarray) -> dict:
    tallies = np.bincount(counts)
    return {int(c): int(m) for c, m in enumerate(tallies) if m}


def check_query(field: Field, b: int, answer, oracle: np.ndarray, mu: set) -> Optional[str]:
    """Classification and solution set of one query, against the tally."""
    classification, (solved_as, solutions) = answer
    if classification != solved_as:
        return f"b={b:#x}: classify {classification} but solve {solved_as}"
    if len(solutions) != classification.predicted_count:
        return f"b={b:#x}: {len(solutions)} roots, predicted {classification.predicted_count}"
    if classification.predicted_count != int(oracle[b]):
        return f"b={b:#x}: predicted {classification.predicted_count}, tally {int(oracle[b])}"
    if (b in mu) != (classification.case == CASE_MU):
        return f"b={b:#x}: case {classification.case}"
    if classification.case != CASE_B_EQUALS_ONE:
        for x in solutions:
            if not solver.verify_solution(field, x, b):
                return f"b={b:#x}: root {x:#x} fails the equation"
    return None


def verify_phase_metrics(report) -> dict:
    """The verifier's own phase timings (``VerificationReport.elapsed``)."""
    return {"spectrum.verify_tally_s": report.elapsed["bruteforce"],
            "spectrum.verify_per_b_s": report.elapsed["per_b_check"]}


def render_cli(field: Field, command: str, b: int) -> str:
    """The stdout the CLI must print for this request, from the library answer."""
    classification, solutions = solver.solve(field, b)
    if command == "classify":
        line = f"case={classification.case} count={classification.predicted_count}"
        if not field.in_subfield(b, 2 * field.n):
            line += f" s2={int(classification.case == CASE_GENERIC_TWO)}"
        return line + "\n"
    if classification.case == CASE_B_EQUALS_ONE:
        return f"count={len(solutions)} (all of GF({field.q ** 2}))\n"
    lines = [f"count={len(solutions)}"] + [field.encode_hex(x) for x in sorted(solutions)]
    return "\n".join(lines) + "\n"


def timed(call, check) -> Sample:
    """Time ``call()``; a raised exception or a failed ``check(result)``
    (a message, or None when the result is right) is the sample's error."""
    start = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # a raising library call is a failed operation
        return start, time.perf_counter(), f"raised {exc!r}"
    end = time.perf_counter()
    return start, end, check(result)


# ---------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------


class Workload:
    name = ""
    n = 4
    item = "request served"  # what one item of items_per_s is
    items_per_sample = 1  # items per timed sample
    # Chain outcome tally the traced pass must reproduce, if fixed by the paper.
    expected_chain_tags: Optional[dict] = None
    served_by = resource.RUSAGE_SELF  # whose peak RSS peak_rss_mb reports
    # The work runs in this process, which probes the speed while it runs;
    # otherwise the child processes doing it add their probes to child_probes.
    in_process = True

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.field: Field
        self.child_probes: List[Tuple[float, float]] = []

    def setup(self) -> None:
        self.field = Field(self.n)
        solver.solve(self.field, derivative(WARM_X, self.n, self.field.modulus))

    def prepare(self) -> None:
        pass

    def unit(self) -> List[Sample]:
        raise NotImplementedError

    def fixed_work(self):
        raise NotImplementedError

    def check_fixed(self, output) -> List[str]:
        raise NotImplementedError

    def fixed_b_values(self) -> List[int]:
        """The b values the fixed pass answers, for per-b ratios."""
        return []

    def output_metrics(self, output) -> dict:
        """Per-layer metrics the library reports itself in an untraced output."""
        return {}

    def params(self) -> dict:
        return {"n": self.n}


class VerifyN4(Workload):
    """verify_conjecture(Field(4)): all 65,536 b, the paper's headline check."""

    name = "verify-n4"
    item = "b verified"
    items_per_sample = 1 << 16
    expected_chain_tags = EXPECTED_CHAIN_TAGS_N4

    def setup(self) -> None:
        self.field = Field(self.n)
        self.field.ensure_tables()
        solver.solve(self.field, derivative(WARM_X, self.n, self.field.modulus))

    def unit(self) -> List[Sample]:
        return [timed(self.fixed_work, lambda report: "; ".join(self.check_fixed(report)) or None)]

    def fixed_work(self):
        return spectrum.verify_conjecture(self.field)

    def check_fixed(self, report) -> List[str]:
        expected = EXPECTED_HISTOGRAMS[self.n]
        errors = []
        if not report.passed:
            errors.append(f"verify report failed: {sorted(report.mismatches)}")
        for hist in (report.formula_histogram, report.bruteforce_histogram):
            if hist.entries != expected:
                errors.append(f"{hist.method} histogram {hist.entries}")
        return errors

    def fixed_b_values(self) -> List[int]:
        return list(range(1 << (4 * self.n)))

    def output_metrics(self, report) -> dict:
        return verify_phase_metrics(report)


class QueryN4(Workload):
    """A warm stream of classify(b) then solve(b), one b at a time."""

    name = "query-n4"
    item = "query answered"

    def prepare(self) -> None:
        self.oracle = spectrum.bruteforce_counts(Field(self.n))
        self.mu = set(mu_elements(self.n, self.field.modulus))
        self.blocks = query_blocks(self.seed, self.n, self.field.modulus, self.oracle)
        self.trace_blocks = [
            b for block, _ in zip(query_blocks(self.seed, self.n, self.field.modulus, self.oracle),
                                  range(TRACE_QUERY_BLOCKS))
            for b in block
        ]

    def unit(self) -> List[Sample]:
        return [
            timed(lambda: _classify_and_solve(self.field, b),
                  lambda answer: check_query(self.field, b, answer, self.oracle, self.mu))
            for b in next(self.blocks)
        ]

    def fixed_work(self):
        return [(b, _classify_and_solve(self.field, b)) for b in self.trace_blocks]

    def check_fixed(self, output) -> List[str]:
        errors = (check_query(self.field, b, ans, self.oracle, self.mu) for b, ans in output)
        return [e for e in errors if e]

    def fixed_b_values(self) -> List[int]:
        return self.trace_blocks

    def params(self) -> dict:
        return {"n": self.n, "block": QUERY_BLOCK, "mu_per_block": 1,
                "trace_queries": len(self.trace_blocks)}


def _classify_and_solve(field: Field, b: int):
    return solver.classify(field, b), solver.solve(field, b)


class SweepN6(Workload):
    """bruteforce_histogram(Field(6)) plus one seeded bruteforce DDT row."""

    name = "sweep-n6"
    n = 6
    item = "x tallied"
    items_per_sample = 1 << 24

    def setup(self) -> None:
        # The sweep's only lazy cache; a solve would run the n = 6
        # trace-one scan, which takes minutes.
        self.field = Field(self.n)
        self.field.primitive_element()

    def prepare(self) -> None:
        self.a = _rng(self.name, self.seed).randrange(1, 1 << (4 * self.n))

    def unit(self) -> List[Sample]:
        expected = EXPECTED_HISTOGRAMS[self.n]
        return [
            timed(lambda: spectrum.bruteforce_histogram(self.field).entries,
                  lambda hist: None if hist == expected else f"direction 1: {hist}"),
            timed(lambda: histogram_of(spectrum.ddt_row(self.field, self.a, method="bruteforce")),
                  lambda hist: None if hist == expected else f"direction {self.a:#x}: {hist}"),
        ]

    def fixed_work(self):
        return (spectrum.bruteforce_histogram(self.field).entries,
                spectrum.ddt_row(self.field, self.a, method="bruteforce"))

    def check_fixed(self, output) -> List[str]:
        expected = EXPECTED_HISTOGRAMS[self.n]
        hist_one, row = output
        errors = []
        if hist_one != expected:
            errors.append(f"direction 1: {hist_one}")
        if histogram_of(row) != expected:
            errors.append(f"direction {self.a:#x}: {histogram_of(row)}")
        return errors

    def params(self) -> dict:
        return {"n": self.n, "a": self.a}


class CliN4(Workload):
    """One fresh ``diffspectrum classify|solve --n 4 --b ...`` process per request."""

    name = "cli-n4"
    item = "CLI request served"
    served_by = resource.RUSAGE_CHILDREN
    in_process = False

    def prepare(self) -> None:
        self.requests = self._requests(_rng(self.name, self.seed))
        again = self._requests(_rng(self.name, self.seed))
        self.trace_requests = [next(again) for _ in range(TRACE_CLI_REQUESTS)]

    def _requests(self, rng: random.Random) -> Iterator[Tuple[str, int]]:
        excluded = set(mu_elements(self.n, self.field.modulus)) | {1}
        size = 1 << (4 * self.n)
        while True:
            yield rng.choice(("classify", "solve")), _uniform_b(
                rng, size, lambda b: b not in excluded)

    def _argv(self, command: str, b: int) -> List[str]:
        return [command, "--n", str(self.n), "--b", format(b, "#x")]

    def unit(self) -> List[Sample]:
        command, b = next(self.requests)
        return [timed(
            lambda: self._request(command, b),
            lambda proc: self._check(command, b, proc.returncode, proc.stdout),
        )]

    def _request(self, command: str, b: int) -> subprocess.CompletedProcess:
        proc = subprocess.run([sys.executable, "-c", CLI_SHIM, *self._argv(command, b)],
                              capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        for line in proc.stderr.splitlines():
            if line.startswith("probe "):
                _, start, end = line.split()
                self.child_probes.append((float(start), float(end)))
        return proc

    def _check(self, command: str, b: int, code: int, out: str) -> Optional[str]:
        if code != 0:
            return f"{command} {b:#x} exited {code}"
        if out != render_cli(self.field, command, b):
            return f"{command} {b:#x} printed {out!r}"
        return None

    def fixed_work(self):
        """The same requests through cli.main in this process."""
        results = []
        for command, b in self.trace_requests:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = cli.main(self._argv(command, b))
            results.append((command, b, code, buffer.getvalue()))
        return results

    def check_fixed(self, output) -> List[str]:
        errors = (self._check(*row) for row in output)
        return [e for e in errors if e]

    def fixed_b_values(self) -> List[int]:
        return [b for _, b in self.trace_requests]


WORKLOADS = {w.name: w for w in (VerifyN4, QueryN4, SweepN6, CliN4)}
