"""Benchmark workloads: configs generated from a seed, and one pass of the
pipeline gen-data -> train-teacher -> pseudo-label -> distill -> evaluate
driven through the ``cli`` layer's ``cmd_*`` functions, timed stage by stage.

The recipes copy the acceptance suite's criterion 7 and 9 settings; only the
step counts are scaled, per workload, so that a pass fits a benchmark run.
"""

import contextlib
import copy
import hashlib
import json
import math
import time
from pathlib import Path

from transducer_distill import cli, metrics

import speed


def _steps(steps, scale):
    return max(1, round(steps * scale))


def _weak_teacher_base(seed, teacher_scale):
    """Criterion 7 recipe: an S-width teacher on 30 %-corrupted labels."""
    return {
        "seed": seed,
        "data": {
            "vocab_size": 6, "feat_dim": 8, "frames_per_label": [2, 4],
            "noise_sigma": 0.25, "label_len_range": [3, 6],
            "num_supervised": 200, "num_unsupervised": 60, "num_eval": 100,
            "seed": seed,
        },
        "teacher": {
            "preset": None,
            "quality": {"size": "S", "supervised_fraction": 1.0, "label_noise_rate": 0.3},
            "encoder": {"causal": False, "left_context": 2, "right_context": 2, "subsample": 1},
        },
        "student": {
            "encoder": {"causal": False, "left_context": 2, "right_context": 2,
                        "subsample": 1, "hidden": 16},
        },
        "train": {"steps": _steps(600, teacher_scale), "batch_size": 8, "lr": 0.05,
                  "momentum": 0.9, "sup_fraction": 1.0},
        "decode": {"beam": 8, "nbest": 4, "max_symbols_per_frame": 5},
        "distill": {"kind": "hard", "nbest_size": 4,
                    "weights": {"supervised": 1.0, "hard": 1.0, "distill": 0.0}},
    }


def _weak_student_train(scale):
    return {"steps": _steps(700, scale), "batch_size": 24, "lr": 0.015,
            "momentum": 0.9, "sup_fraction": 0.1}


def _causal_base(seed, teacher_scale):
    """Criterion 9 recipe: a non-causal L teacher and a causal student."""
    return {
        "seed": seed,
        "data": {
            "vocab_size": 6, "feat_dim": 8, "frames_per_label": [3, 3],
            "noise_sigma": 1.0, "label_len_range": [3, 6],
            "num_supervised": 200, "num_unsupervised": 150, "num_eval": 80,
            "seed": seed,
        },
        "teacher": {
            "preset": None,
            "quality": {"size": "L", "supervised_fraction": 1.0, "label_noise_rate": 0.0},
            "encoder": {"causal": False, "left_context": 3, "right_context": 3, "subsample": 1},
        },
        "student": {
            "encoder": {"causal": True, "left_context": 4, "right_context": 0,
                        "subsample": 1, "hidden": 16},
        },
        "train": {"steps": _steps(700, teacher_scale), "batch_size": 8, "lr": 0.05,
                  "momentum": 0.9, "sup_fraction": 1.0},
        "decode": {"beam": 8, "nbest": 4, "max_symbols_per_frame": 5},
        "distill": {"kind": "soft_efficient", "shift_n": 0, "nbest_size": 4,
                    "weights": {"supervised": 1.0, "hard": 0.0, "distill": 0.3}},
    }


def _row(cfg, kind, weights, train):
    row = copy.deepcopy(cfg)
    row["train"] = train
    row["distill"]["kind"] = kind
    row["distill"]["weights"] = dict(zip(("supervised", "hard", "distill"), weights))
    return row


def _distill_rows(rows):
    """Distill stage for a list of (name, row config): train, then evaluate."""

    def stage(data_dir, teacher, pseudo, root, wers):
        for name, row_cfg in rows:
            ckpt = cli.cmd_distill(row_cfg, data_dir, teacher, pseudo, root=root)
            wers[name] = _wer(cli.cmd_evaluate(row_cfg, ckpt, data_dir, root=root))

    return stage


class Workload:
    """A named recipe: the pipeline config plus the distill stage it runs.

    ``scales`` are the fractions of the acceptance-suite step counts that the
    teacher and the students train for; ``pass_s`` is the nominal wall time
    of one pass on a 2-core Xeon, which sets how many passes a run makes.
    """

    def __init__(self, name, build, scales, pass_s):
        self.name = name
        self.scales = scales
        self.pass_s = pass_s
        self._build = build

    def plan(self, seed, scales=None):
        """(pipeline config, distill stage callable) for one seed."""
        cfg = cli.load_config()
        base, stage = self._build(seed, *(scales or self.scales))
        cfg.update(base)
        return cfg, stage


def _weak_teacher(seed, teacher_scale, student_scale):
    base = _weak_teacher_base(seed, teacher_scale)
    train = _weak_student_train(student_scale)
    return base, _distill_rows([
        ("hard", _row(base, "hard", (1.0, 1.0, 0.0), train)),
        ("fs_l1", _row(base, "fs_l1", (1.0, 0.0, 1.0), train)),
        ("fsnorm_l1", _row(base, "fsnorm_l1", (1.0, 0.0, 1.0), train)),
    ])


def _causal_shift(seed, teacher_scale, student_scale):
    base = _causal_base(seed, teacher_scale)
    sweep_cfg = copy.deepcopy(base)
    sweep_cfg["train"] = {"steps": _steps(500, student_scale), "batch_size": 16, "lr": 0.02,
                          "momentum": 0.9, "sup_fraction": 0.1}
    fs_cfg = _row(sweep_cfg, "fs_l1", (1.0, 1.0, 1.0), sweep_cfg["train"])

    def stage(data_dir, teacher, pseudo, root, wers):
        table = cli.cmd_sweep_shift(sweep_cfg, data_dir, teacher, pseudo,
                                    shifts=[0, 1, 2, 3], root=root)
        with open(table.parent / "shift_sweep.json", encoding="utf-8") as f:
            for row in json.load(f)["rows"]:
                wers[f"soft@{row['shift']}"] = row["wer"]
        _distill_rows([("fs_l1", fs_cfg)])(data_dir, teacher, pseudo, root, wers)

    return base, stage


# Why each workload is there: README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("weak_teacher", _weak_teacher, scales=(0.3, 0.06), pass_s=5.0),
        Workload("causal_shift", _causal_shift, scales=(0.3, 0.06), pass_s=7.0),
    )
}


def _wer(report_path):
    with open(report_path, encoding="utf-8") as f:
        return json.load(f)["sets"]["eval"]["wer"]


# After a call of one of these returns (a training step, or one utterance's
# decode or rescoring), the clock runs the speed probe if PROBE_EVERY_S have
# gone since the last probe.  (owner, attribute) as the callers resolve them.
PROBED = [
    (cli, "train_step"),
    (cli, "beam_search"),
    (cli, "rescore_nbest"),
    (metrics, "greedy_decode"),
]
PROBE_EVERY_S = 0.01


class Clock:
    """Per stage: its wall seconds without the probes (``times``), the
    seconds inside ``train_step`` (``train``) and the durations of the speed
    probes run during it (``probes``)."""

    def __init__(self):
        self.times = {}
        self.train = {}
        self.probes = {}
        self._stage = None
        self._next_probe = 0.0

    @contextlib.contextmanager
    def stage(self, name):
        self._stage = name
        self._next_probe = 0.0
        self.train[name] = 0.0
        probes = self.probes[name] = []
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.times[name] = time.perf_counter() - t0 - math.fsum(probes)
            self._stage = None

    def _wrap(self, attr, fn):
        train = attr == "train_step"

        def probed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                if train:
                    self.train[self._stage] += t1 - t0
                if t1 >= self._next_probe:
                    self.probes[self._stage].append(speed.probe())
                    self._next_probe = time.perf_counter() + PROBE_EVERY_S

        return probed

    @contextlib.contextmanager
    def install(self):
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr in PROBED]
        for owner, attr, fn in saved:
            setattr(owner, attr, self._wrap(attr, fn))
        try:
            yield
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)


def run_pass(workload, seed, root, scales=None, span=None):
    """One pipeline pass into ``root``: gen-data, then the timed stages.

    Returns, per stage, its wall seconds (``times``), its seconds in
    ``train_step`` (``train``) and its speed probes (``probes``; see
    ``Clock``), then each row's eval WER, each training run's log (keyed
    ``teacher`` or ``<kind>@<shift>``) and the output paths.
    ``span(name)`` is entered around each stage; it must not change outputs.
    A traced pass (one with ``span``) runs no probes, which would otherwise
    count as time outside every traced function.
    """
    cfg, distill_stage = WORKLOADS[workload].plan(seed, scales)
    clock = Clock()
    probing = clock.install() if span is None else contextlib.nullcontext()
    span = span or (lambda name: contextlib.nullcontext())
    wers, logs = {}, {}
    # cmd_sweep_shift reaches cmd_distill through the cli module, so this
    # rebinding also sees the sweep's training runs
    cmd_distill = cli.cmd_distill

    def logged_distill(row_cfg, *args, **kwargs):
        ckpt = cmd_distill(row_cfg, *args, **kwargs)
        d = row_cfg["distill"]
        logs[f"{d['kind']}@{d.get('shift_n', 0)}"] = ckpt.parent / "metrics.jsonl"
        return ckpt

    cli.cmd_distill = logged_distill
    try:
        with span("cli.setup"):
            data_dir = cli.cmd_gen_data(cfg, root=root)
        with probing:
            with clock.stage("teacher"), span("cli.teacher"):
                teacher = cli.cmd_train_teacher(cfg, data_dir, root=root)
                logs["teacher"] = teacher.parent / "train_log.jsonl"
                wers["teacher"] = _wer(cli.cmd_evaluate(cfg, teacher, data_dir, root=root))
            with clock.stage("pseudo_label"), span("cli.pseudo_label"):
                pseudo = cli.cmd_pseudo_label(cfg, teacher, data_dir, root=root)
            with clock.stage("distill"), span("cli.distill"):
                distill_stage(data_dir, teacher, pseudo, root, wers)
    finally:
        cli.cmd_distill = cmd_distill
    return {"times": clock.times, "train": clock.train, "probes": clock.probes,
            "wers": wers, "logs": logs,
            "data_dir": Path(data_dir), "pseudo": Path(pseudo)}


# ----- output checks -----


class Checks:
    """Counts operations (training steps, decoded utterances, output checks)
    and the ones that failed; ``problems`` says what failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def _finite(value):
    return isinstance(value, (int, float)) and math.isfinite(value)


def check_pass(result, checks, reference=None, tolerance=None):
    """Check one pass's outputs against ``reference`` ({"wer", "loss"} of its
    input seed, if there is one); returns the utterances that went through
    ``train_step``, the unsupervised utterances and each run's mean loss."""
    train_utts = 0
    losses = {}
    for row, log in sorted(result["logs"].items()):
        cfg = json.loads((log.parent / "config.json").read_text(encoding="utf-8"))
        totals = []
        with open(log, encoding="utf-8") as f:
            for line in f:
                rec = json.loads(line)
                totals.append(rec["total"])
                ok = _finite(rec["total"]) and all(_finite(v) for v in rec["terms"].values())
                checks.op(ok, f"{row}: non-finite loss at step {rec['step']}")
        checks.op(len(totals) == cfg["train"]["steps"],
                  f"{row}: {len(totals)} logged steps, {cfg['train']['steps']} configured")
        train_utts += len(totals) * cfg["train"]["batch_size"]
        losses[row] = math.fsum(totals) / max(1, len(totals))

    pseudo = result["pseudo"]
    with open(result["data_dir"] / "unsup.jsonl", encoding="utf-8") as f:
        unsup_ids = [json.loads(line)["utt_id"] for line in f]
    with open(pseudo, encoding="utf-8") as f:
        records = {rec["utt_id"]: rec for rec in map(json.loads, f)}
    for utt_id in unsup_ids:
        rec = records.get(utt_id)
        ok = rec is not None and any(e["labels"] == rec["labels"] for e in rec["nbest"])
        checks.op(ok, f"{utt_id}: no pseudo label, or top label missing from its N-best")
    checks.op(len(records) == len(unsup_ids),
              f"{len(records)} pseudo-label records for {len(unsup_ids)} utterances")
    checks.op(not (pseudo.parent / "decode_failures.jsonl").exists(),
              "decode_failures.jsonl was written")

    if reference is None:
        for row, wer in sorted(result["wers"].items()):
            checks.op(_finite(wer) and wer >= 0.0, f"{row}: WER {wer!r}")
    else:
        for row, wer in sorted(result["wers"].items()):
            want = reference["wer"].get(row)
            ok = want is not None and _finite(wer) and abs(wer - want) <= tolerance["wer"]
            checks.op(ok, f"{row}: WER {wer!r}, reference {want!r} +- {tolerance['wer']}")
        for row, loss in sorted(losses.items()):
            want = reference["loss"].get(row)
            ok = want is not None and abs(loss - want) <= tolerance["loss_rel"] * abs(want)
            checks.op(ok, f"{row}: mean training loss {loss!r}, reference {want!r}")
        checks.op(set(reference["wer"]) == set(result["wers"])
                  and set(reference["loss"]) == set(losses),
                  "the rows differ from the reference rows")
    return {"train_utts": train_utts, "unsup_utts": len(unsup_ids), "losses": losses}


def output_digest(root):
    """sha256 of every checkpoint and pseudo-label file, by relative path."""
    root = Path(root)
    files = sorted(list(root.rglob("*.ckpt")) + list(root.rglob("pseudo_labels.jsonl")))
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest() for p in files
    }
