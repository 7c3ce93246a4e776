"""Run-time wrappers that record spans and call counts around the library.

The library is measured from outside: nothing under ``src/`` knows it is
traced.  ``Tracer.install`` replaces public functions with wrappers, and
it replaces every binding of each one.  That matters because several
modules import these names at import time:

* ``spectrum`` and ``cli`` import ``classify``, ``solve`` and
  ``verify_conjecture``/``bruteforce_histogram`` by name;
* ``solver`` imports ``solve_t_from_T`` by name;
* ``classify`` reaches ``generic_intermediates`` through ``is_in_s2`` via
  a module global, and ``solve_quadratic`` reaches
  ``solve_artin_schreier`` the same way.

Patching only the defining module would silently miss those call sites,
so every module of the package is scanned for attributes that *are* the
original function object.

A span is (name, start, end, parent, b, aux): ``b`` is the right-hand
side the span works on (inherited from the nearest ancestor that has
one, -1 if none) and ``aux`` is a small outcome code such as the chain's
failure tag.  Spans live in flat integer arrays while the workload runs
and are written out afterwards.  ``Field.mul``, ``Field.pow`` and
``Field.inv`` run millions of times per verify pass, so they are only
counted, not spanned.
"""

from __future__ import annotations

import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import diffspectrum
from diffspectrum import cli, field, solver, spectrum, subgroups

MODULES = (diffspectrum, field, subgroups, solver, spectrum, cli)

# Outcome codes stored in the span's aux column.
CASES = (
    solver.CASE_B_EQUALS_ONE,
    solver.CASE_MU,
    solver.CASE_GENERIC_TWO,
    solver.CASE_NO_SOLUTION,
)
FAIL_TAGS = (
    solver.FAIL_DELTA_ONE,
    solver.FAIL_ALPHA_ONE,
    solver.FAIL_U_DEGENERATE,
    solver.FAIL_T_SUBFIELD,
    solver.FAIL_LAMBDA,
    solver.FAIL_Z_DENOMINATOR,
    solver.FAIL_Z_ZERO,
    solver.FAIL_ANSATZ_POLE,
    solver.FAIL_UNVERIFIED,
)
CHAIN_OK = len(FAIL_TAGS)  # aux of a chain span that completed

COUNTED_METHODS = ("mul", "pow", "inv")


def _chain_outcome(result) -> int:
    if result.failure is None:
        return CHAIN_OK
    return FAIL_TAGS.index(result.failure)


def _case_of_classification(result) -> int:
    return CASES.index(result.case)


def _case_of_solve(result) -> int:
    return CASES.index(result[0].case)


# (module, function name, index of the b argument or None, outcome code)
SPANNED: Tuple[Tuple[object, str, Optional[int], Optional[Callable]], ...] = (
    (subgroups, "solve_t_from_T", None, None),
    (subgroups, "solve_artin_schreier", None, None),
    (solver, "generic_intermediates", 1, _chain_outcome),
    (solver, "classify", 1, _case_of_classification),
    (solver, "solve", 1, _case_of_solve),
    (spectrum, "bruteforce_counts", None, None),
    (spectrum, "bruteforce_histogram", None, None),
    (spectrum, "ddt_row", None, None),
    (spectrum, "verify_conjecture", None, None),
    (cli, "main", None, None),
)


class Tracer:
    """Spans and call counts for one traced pass; install, run, uninstall."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.name_col = array("q")
        self.start_col = array("q")
        self.end_col = array("q")
        self.parent_col = array("q")
        self.b_col = array("q")
        self.aux_col = array("q")
        self.counts: Dict[str, List[int]] = {m: [0] for m in COUNTED_METHODS}
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []

    # -- installation ------------------------------------------------

    def install(self) -> None:
        for module, name, b_arg, outcome in SPANNED:
            original = getattr(module, name)
            wrapper = self._span_wrapper(f"{module.__name__.split('.')[-1]}.{name}",
                                         original, b_arg, outcome)
            for mod in MODULES:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        for method in COUNTED_METHODS:
            original = getattr(field.Field, method)
            self._restore.append((field.Field, method, original))
            setattr(field.Field, method, self._count_wrapper(self.counts[method], original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- wrappers ----------------------------------------------------

    @staticmethod
    def _count_wrapper(cell: List[int], original):
        def counted(*args):
            cell[0] += 1
            return original(*args)

        return counted

    def _span_wrapper(self, name: str, original, b_arg, outcome):
        self.names.append(name)
        name_id = len(self.names) - 1
        names, starts, ends = self.name_col, self.start_col, self.end_col
        parents, bs, auxs = self.parent_col, self.b_col, self.aux_col
        stack = self._stack
        clock = time.perf_counter_ns

        def spanned(*args, **kwargs):
            idx = len(names)
            parent = stack[-1] if stack else -1
            b = bs[parent] if parent >= 0 else -1
            if b < 0 and b_arg is not None and len(args) > b_arg:
                b = args[b_arg]
            names.append(name_id)
            parents.append(parent)
            bs.append(b)
            auxs.append(-1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if outcome is not None:
                auxs[idx] = outcome(result)
            return result

        spanned.__wrapped__ = original
        return spanned

    # -- results -----------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.name_col)

    def arrays(self) -> Dict[str, np.ndarray]:
        """The spans as numpy columns, plus each span's self time in ns.

        Self time is the span's duration minus the summed duration of its
        direct children; spans of one thread never overlap, so the sum is
        the part of the interval the children cover.
        """
        cols = {
            key: np.array(col, dtype=np.int64)
            for key, col in (
                ("name", self.name_col),
                ("start", self.start_col),
                ("end", self.end_col),
                ("parent", self.parent_col),
                ("b", self.b_col),
                ("aux", self.aux_col),
            )
        }
        duration = cols["end"] - cols["start"]
        has_parent = cols["parent"] >= 0
        child_time = np.bincount(
            cols["parent"][has_parent],
            weights=duration[has_parent],
            minlength=len(duration),
        )
        cols["duration"] = duration
        cols["self"] = duration - child_time.astype(np.int64)
        return cols

    def save(self, path: str) -> None:
        """Write the spans and the name table to a compressed .npz file."""
        cols = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **cols)

    def exact_counts(self) -> Dict[str, int]:
        """Counts that must repeat exactly for a given seed and workload."""
        cols = self.arrays()
        out = {f"calls.{m}": cell[0] for m, cell in self.counts.items()}
        for name_id, name in enumerate(self.names):
            out[f"spans.{name}"] = int(np.count_nonzero(cols["name"] == name_id))
        for tag, count in chain_tag_tally(self, cols).items():
            out[f"tag.{tag}"] = count
        return out

    def name_mask(self, cols, name: str) -> np.ndarray:
        return cols["name"] == self.names.index(name)


def chain_tag_tally(tracer: Tracer, cols) -> Dict[str, int]:
    """How many distinct b ended in each chain outcome ("ok" or a tag).

    A b whose chain ran several times is counted once, with the outcome of
    its first run; every run of one b yields the same outcome.
    """
    mask = tracer.name_mask(cols, "solver.generic_intermediates")
    outcome_of_b: Dict[int, int] = {}
    for b, aux in zip(cols["b"][mask].tolist(), cols["aux"][mask].tolist()):
        outcome_of_b.setdefault(b, aux)
    tally = {"ok": 0, **{tag: 0 for tag in FAIL_TAGS}}
    for aux in outcome_of_b.values():
        if aux >= 0:  # -1: the chain raised, which the workload reports as a failure
            tally["ok" if aux == CHAIN_OK else FAIL_TAGS[aux]] += 1
    return tally
