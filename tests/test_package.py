"""The package runs from a copy of ``src/transducer_distill`` alone: it imports nothing
from the test suite (whose enumeration oracles in ``oracles.py`` are not package API).
Its settings have one source: ``cli.DEFAULT_CONFIG``."""

import inspect
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import transducer_distill
from transducer_distill import data, decode, distill, metrics, model

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


# (callable, parameter) for each library parameter whose value is a config key's:
# the caller passes it, so that DEFAULT_CONFIG alone holds its default
FROM_THE_CALLER = [
    (decode.greedy_decode, "max_symbols_per_frame"),
    (decode.beam_search, "max_symbols_per_frame"),
    (metrics.evaluate, "max_symbols_per_frame"),
    (data.mix_batches, "sup_fraction"),
    (data.mix_batches, "seed"),
    (model.SGD, "momentum"),
    (distill.DistillLossKind, "shift_n"),
    (distill.CombinedLossConfig, "weight_supervised_rnnt"),
    (distill.CombinedLossConfig, "weight_hard_on_pseudo"),
    (distill.CombinedLossConfig, "weight_distill"),
]


@pytest.mark.parametrize("fn, name", FROM_THE_CALLER,
                         ids=[f"{fn.__name__}.{name}" for fn, name in FROM_THE_CALLER])
def test_config_valued_parameter_has_no_default(fn, name):
    assert inspect.signature(fn).parameters[name].default is inspect.Parameter.empty
