"""Whole-field view: solution-count histograms and the difference table.

The number of b attaining each solution count follows a closed form —
one b with q^2, q with q^2 - q, q^3(q-1)/2 with 2, the rest with 0 — and
the exhaustive sweep reproduces it bit for bit.  Run with:

    python demos/03_spectrum_sweep.py
"""

import numpy as np

from diffspectrum import (
    Field,
    bruteforce_histogram,
    ddt_row,
    formula_histogram,
    s2_enumerate,
)

# --- closed form vs exhaustive sweep, n = 1..4 --------------------------
# The sweep runs up to the 24-bit cap (n = 6); n = 5 and 6 take longer.
for n in (1, 2, 3, 4):
    predicted = formula_histogram(n)
    swept = bruteforce_histogram(Field(n))
    marker = "==" if predicted.entries == swept.entries else "!="
    print(f"n={n}: formula {predicted.to_text()} {marker} sweep {swept.to_text()}")
print()

# The closed form needs no sweep, so it scales far past the cap.
big = formula_histogram(8)
print(f"n=8 (degree 32, formula only): {len(big.entries)} distinct counts, "
      f"top entry {max(big.entries)}:{big.entries[max(big.entries)]}")
print()

# --- the two-solution family, enumerated -------------------------------
field = Field(2)
count, members = s2_enumerate(field)
print(f"two-solution family at n=2: {count} members "
      f"(q^3(q-1)/2 = {field.q ** 3 * (field.q - 1) // 2})")
print(f"first few: {[field.encode_hex(b) for b in members[:6]]}")
print()

# --- rows of the difference table --------------------------------------
# Row a of the table counts, for each output b, the x with
# F(x) + F(x+a) = b where F(x) = x^d.  Row 1 is exactly the per-b solution
# count; every other row is the same multiset, relabelled by b -> a^d * b.
row_1 = ddt_row(field, 1)
row_7 = ddt_row(field, 7)
print(f"row a=0x1: max entry {int(row_1.max())} (= q^2), "
      f"zero entries {int((row_1 == 0).sum())}")
print(f"row a=0x7 is a relabelling of row a=0x1: "
      f"{np.array_equal(np.sort(row_7), np.sort(row_1))}")
scale = field.pow(7, field.d)
print(f"spot check: row_7[0x7^d * 0x9] == row_1[0x9] -> "
      f"{row_7[field.mul(scale, 0x9)] == row_1[0x9]}")
print()

# --- serialization ------------------------------------------------------
hist = bruteforce_histogram(Field(1))
print("text:", hist.to_text())
print("json:", hist.to_json())
print("csv:")
print(hist.to_csv(), end="")
