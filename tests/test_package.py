"""The package runs from a copy of ``src/transducer_distill`` alone: it imports nothing
from the test suite (whose enumeration oracles in ``oracles.py`` are not package API)."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import transducer_distill

PACKAGE_DIR = Path(transducer_distill.__file__).parent


def test_package_runs_from_a_copy_of_src_alone(tmp_path):
    shutil.copytree(PACKAGE_DIR, tmp_path / "transducer_distill",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(tmp_path)
    # the star import fails on any name of ``__all__`` that the package lacks
    script = ("from transducer_distill import *\n"
              "import transducer_distill\n"
              f"assert transducer_distill.__file__.startswith({str(tmp_path)!r})\n")
    imported = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, text=True)
    assert imported.returncode == 0, imported.stderr
    helped = subprocess.run([sys.executable, "-m", "transducer_distill.cli", "--help"],
                            cwd=tmp_path, env=env, capture_output=True, text=True)
    assert helped.returncode == 0, helped.stderr
    assert "usage:" in helped.stdout
