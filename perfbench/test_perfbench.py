"""Tests of the benchmark itself, on tiny-step traced runs of each workload.

    python3 -m pytest -q perfbench
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import measure  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# fractions of the acceptance-suite step counts: a dozen steps per training
TINY = (0.02, 0.02)

COUNTS = [name for name in spans.PER_LAYER
          if name.endswith(".calls") or name in (
              "lattice.cells", "model.forwards_per_train_utt", "decode.advances_per_utt")]


def _traced(workload, root):
    result, record = measure.measure(workload, 0, 1, trace=1, root=root, scales=TINY)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    return result, record, values


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def traced(request, tmp_path_factory):
    root = tmp_path_factory.mktemp(request.param)
    return (request.param, *_traced(request.param, root))


def test_checks_pass_and_traced_outputs_match_untraced(traced):
    _, result, record, _ = traced
    assert result["correct"], record["problems"]
    assert result["failed"] == 0 and result["attempted"] > 0
    untraced, with_spans = record["digests"]
    assert untraced and untraced == with_spans
    assert any(name.endswith("pseudo_labels.jsonl") for name in untraced)
    assert any(name.endswith("student.ckpt") for name in untraced)


def test_every_per_layer_metric_is_reported(traced):
    _, result, _, _ = traced
    assert list(result["metrics"]) == list(spans.PER_LAYER)


def test_exercised_and_bypassed_counters(traced):
    workload, _, record, values = traced
    for name in ("lattice.forward_backward.calls", "lattice.cells", "model.forward.calls",
                 "model.backward.calls", "decode.beam_search.calls",
                 "metrics.edit_distance.calls", "decode.advances_per_utt"):
        assert values[name] > 0, name
    assert values["decode.failures"] == 0
    assert "decode.beam_search" not in record["stages"]["cli.distill"]["calls"]
    if workload == "causal_shift":
        assert values["distill.soft_kl.calls"] > 0
        assert values["distill.shift_teacher.calls"] > 0
        assert values["distill.teacher_lattices_per_unsup_utt"] > 0
    else:
        assert values["distill.soft_kl.calls"] == 0
        assert values["distill.shift_teacher.calls"] == 0
        assert values["distill.teacher_lattices_per_unsup_utt"] == 0
    if workload == "weak_teacher":
        # fsnorm runs one student pass per N-best hypothesis
        assert values["model.forwards_per_train_utt"] > 1.0


def test_layer_self_times_add_up_to_stage_wall_time(traced):
    _, _, record, _ = traced
    assert set(record["stages"]) == {"cli.setup", "cli.teacher", "cli.pseudo_label",
                                     "cli.distill"}
    for stage in record["stages"].values():
        assert sum(stage["layers"].values()) == pytest.approx(stage["wall_s"], rel=1e-6)


def test_counts_repeat_exactly(traced, tmp_path):
    workload, _, _, values = traced
    if workload != "weak_teacher":
        pytest.skip("one workload is enough to show the counts repeat")
    _, _, again = _traced(workload, tmp_path)
    assert {k: again[k] for k in COUNTS} == {k: values[k] for k in COUNTS}


def test_tracer_restores_every_binding():
    originals = [owner.__dict__[attr] for owner, attr, _ in spans.BINDINGS]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(owner.__dict__[attr] is not orig
                   for (owner, attr, _), orig in zip(spans.BINDINGS, originals))
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is orig
               for (owner, attr, _), orig in zip(spans.BINDINGS, originals))


def test_clock_probes_every_stage_and_restores_bindings(tmp_path):
    originals = [owner.__dict__[attr] for owner, attr in workloads.PROBED]
    result = workloads.run_pass("weak_teacher", 0, tmp_path, scales=TINY)
    assert [owner.__dict__[attr] for owner, attr in workloads.PROBED] == originals
    assert set(result["probes"]) == set(measure.STAGES)
    assert all(result["probes"][stage] for stage in measure.STAGES)
    assert result["train"]["pseudo_label"] == 0
    for stage in ("teacher", "distill"):
        assert 0 < result["train"][stage] < result["times"][stage]


def test_host_speed_is_mean_probe_over_fastest():
    passes = [{"probes": {"teacher": [2.0, 4.0], "pseudo_label": [1.0], "distill": [3.0]}},
              {"probes": {"teacher": [1.0], "pseudo_label": [2.0, 2.0], "distill": [1.5]}}]
    assert measure.host_speed(passes) == [
        {"teacher": 3.0, "pseudo_label": 1.0, "distill": 3.0},
        {"teacher": 1.0, "pseudo_label": 2.0, "distill": 1.5},
    ]


def test_fails_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "weak_teacher", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
