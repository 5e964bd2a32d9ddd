"""Smoke runs of the scripts under ``tools/``."""

import subprocess
import sys
from pathlib import Path

import transducer_distill

TOOLS_DIR = Path(__file__).resolve().parents[1] / "tools"
SRC_DIR = Path(transducer_distill.__file__).resolve().parents[1]

# Calls each row of percall.py once, untimed.  It runs in a child process:
# importing percall pins the BLAS thread variables of the process that imports it.
PERCALL_ONCE = """
import sys
sys.path[:0] = sys.argv[1:3]
import percall
import transducer_distill as td
import transducer_distill.lattice
for name, _, fn in [*percall.layers(td), *percall.steps(td)]:
    fn()
    print(name)
"""


def test_percall_runs_every_row():
    result = subprocess.run(
        [sys.executable, "-c", PERCALL_ONCE, str(TOOLS_DIR), str(SRC_DIR)],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    rows = result.stdout.splitlines()
    assert len(rows) == len(set(rows)) == 23, rows
