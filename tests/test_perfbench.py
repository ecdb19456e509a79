"""The benchmark harness still fits the package.

perfbench/ is frozen between benchmark changes, so a change under src/ can
break its tracer unseen: the span names it wraps, the 3-tuples of the
to_vector_* transforms, EngineBudget as a dataclass. Its self-test runs a
traced pass of every workload and checks each of these.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_selftest_passes():
    pytest.importorskip("numpy")  # the harness needs it
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
