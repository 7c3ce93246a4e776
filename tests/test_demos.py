"""Every demo runs to completion and reports agreement."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = [
    "01_field_arithmetic.py",
    "02_solving_and_classification.py",
    "03_spectrum_sweep.py",
    "04_full_verification.py",
]
DEMO_TIMEOUT_S = 60

# Text a demo prints when a check it makes disagrees.
FAILURE_MARKERS = {
    "03_spectrum_sweep.py": "!=",
    "04_full_verification.py": "pass=False",
}


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=DEMO_TIMEOUT_S,
    )
    assert result.returncode == 0, result.stderr
    marker = FAILURE_MARKERS.get(demo)
    if marker is not None:
        assert marker not in result.stdout
