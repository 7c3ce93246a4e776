"""What the traced benchmark run (``perfbench/run.py --trace 1``) relies on.

That run reports ``correct: false`` unless every b outside GF(q^2) reaches
``solver.generic_intermediates`` through the module with a fixed tally of
outcomes, two passes of the same work make the same ``Field.mul``/``pow``/
``inv`` calls, and every name ``perfbench/tracer.py`` wraps exists.
"""

import importlib.util
from collections import Counter
from pathlib import Path

from diffspectrum import solver
from diffspectrum.field import Field
from diffspectrum.spectrum import verify_conjecture

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# Outcome of the chain per b outside GF(q^2) at n = 4, "ok" when it completes.
CHAIN_TALLY_N4 = {
    "ok": 30720,
    "candidate_fails_equation": 30336,
    "delta_is_one": 3840,
    "alpha_plus_one_vanishes": 256,
    "z_denominator_vanishes": 128,
}


def test_verify_n4_runs_the_chain_once_per_b_with_the_pinned_tally(f4, monkeypatch):
    runs = Counter()
    outcomes = Counter()
    original = solver.generic_intermediates

    def recorded(field, b):
        chain = original(field, b)
        runs[b] += 1
        outcomes[chain.failure or "ok"] += 1
        return chain

    monkeypatch.setattr(solver, "generic_intermediates", recorded)
    assert verify_conjecture(f4).passed
    outside = [b for b in range(f4.size) if not f4.in_subfield(b, 2 * f4.n)]
    assert len(outside) == 65280
    assert runs == Counter(outside)
    assert outcomes == CHAIN_TALLY_N4


def test_warm_verify_passes_make_equal_arithmetic_calls(monkeypatch):
    field = Field(3)
    verify_conjecture(field)  # warm: builds the tables and fills the memos
    counts = Counter()
    for method in ("mul", "pow", "inv"):
        original = getattr(Field, method)

        def counted(self, *args, _method=method, _original=original):
            counts[_method] += 1
            return _original(self, *args)

        monkeypatch.setattr(Field, method, counted)
    passes = []
    for _ in range(2):
        counts.clear()
        assert verify_conjecture(field).passed
        passes.append(dict(counts))
    assert passes[0] == passes[1]
    assert passes[0]["pow"] > 0


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    originals = {
        (module, name): getattr(module, name)
        for module, name, _, _ in tracer_module.SPANNED
    }
    methods = {name: getattr(Field, name) for name in tracer_module.COUNTED_METHODS}
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for (module, name), original in originals.items():
            assert getattr(module, name) is not original, name
        for name, original in methods.items():
            assert getattr(Field, name) is not original, name
    finally:
        tracer.uninstall()
    for (module, name), original in originals.items():
        assert getattr(module, name) is original, name
    for name, original in methods.items():
        assert getattr(Field, name) is original, name
