"""The verifier: every claim cross-checked against brute force in one call.

For each sweepable field size this tallies the true solution count of every
b exhaustively, re-derives the count from the classifier, re-solves, and
re-verifies every root — then compares histograms and family cardinalities.
Run with:

    python demos/04_full_verification.py
"""

from diffspectrum import Field, verify_conjecture

# --- the default moduli, n = 1..3 ---------------------------------------
for n in (1, 2, 3):
    field = Field(n)
    report = verify_conjecture(field)
    total = sum(report.elapsed.values())
    print(f"n={n} (modulus {field.modulus:#x}): "
          f"pass={report.passed}  "
          f"s2 {report.s2_formula_count}=={report.s2_enumerated_count}  "
          f"[{total:.2f}s]")
print()

# --- nothing depends on the basis: swap the modulus, same numbers -------
for modulus in (0x11B, 0x11D):
    report = verify_conjecture(Field(2, modulus=modulus))
    print(f"modulus {modulus:#x}: pass={report.passed}, "
          f"histogram {report.bruteforce_histogram.to_text()}")
print()

# --- the report itself is machine-readable ------------------------------
report = verify_conjecture(Field(1))
print(report.to_json())
