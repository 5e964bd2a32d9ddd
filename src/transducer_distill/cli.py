"""Command-line pipeline: data generation, teacher training, pseudo
labeling, distillation, evaluation, and the teacher-shift sweep.

Every command is a pure function of its JSON config (plus referenced
artifacts); outputs land in a run directory named by the config hash and
the sha256 of the input files (and, for ``evaluate``, the set names), so
rerunning an identical config on identical inputs reproduces byte-identical
files.  Exit codes: 0 success, 1 config/validation error, 2 runtime failure.
"""

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

from . import data as data_mod
from . import metrics as metrics_mod
from .decode import (
    DEFAULT_MAX_SYMBOLS_PER_FRAME,
    DecodeError,
    beam_search,
    pseudo_label_record,
    rescore_nbest,
    read_pseudo_labels,
    write_pseudo_labels,
)
from .distill import (
    CombinedLossConfig,
    DistillLossKind,
    LossKind,
    make_loss_fn,
)
from .lattice import LatticeError
from .model import (
    SGD,
    EncoderConfig,
    TransducerModel,
    load_checkpoint,
    save_checkpoint,
    train_step,
)

RUN_ROOT_ENV = "TRANSDUCER_DISTILL_RUN_ROOT"

# how a corpus check names the config's ``data`` spec
DATA_SECTION = "config section data"

TEACHER_WIDTHS = {"S": 12, "M": 20, "L": 28}

# teacher presets: architecture size, fraction of the supervised corpus
# actually used, and label corruption applied to its training transcripts
TEACHER_PRESETS = {
    "L": {"size": "L", "supervised_fraction": 1.0, "label_noise_rate": 0.0},
    "S": {"size": "S", "supervised_fraction": 1.0, "label_noise_rate": 0.0},
    "M5": {"size": "M", "supervised_fraction": 0.5, "label_noise_rate": 0.10},
    "L5": {"size": "L", "supervised_fraction": 0.5, "label_noise_rate": 0.15},
    "S3": {"size": "S", "supervised_fraction": 0.3, "label_noise_rate": 0.30},
}

# the standard experiment grid: each row's overrides of the config
GRID_ROWS = {
    # the supervised-only baseline trains on pure supervised batches
    "student": {"distill": {"kind": "hard",
                            "weights": {"supervised": 1.0, "hard": 0.0, "distill": 0.0}},
                "train": {"sup_fraction": 1.0}},
    "hard": {"distill": {"kind": "hard",
                         "weights": {"supervised": 1.0, "hard": 1.0, "distill": 0.0}}},
    "hard_soft": {"distill": {"kind": "soft_efficient",
                              "weights": {"supervised": 1.0, "hard": 1.0, "distill": 1.0}}},
    "soft": {"distill": {"kind": "soft_efficient",
                         "weights": {"supervised": 1.0, "hard": 0.0, "distill": 1.0}}},
    "fs_l1": {"distill": {"kind": "fs_l1",
                          "weights": {"supervised": 1.0, "hard": 1.0, "distill": 1.0}}},
    "fsnorm_l1": {"distill": {"kind": "fsnorm_l1",
                              "weights": {"supervised": 1.0, "hard": 1.0, "distill": 1.0}}},
}

DEFAULT_CONFIG = {
    "schema_version": 1,
    "seed": 0,
    "data": {
        "vocab_size": 6,
        "feat_dim": 8,
        "frames_per_label": [2, 4],
        "noise_sigma": 0.4,
        "label_len_range": [3, 6],
        "num_supervised": 40,
        "num_unsupervised": 160,
        "num_eval": 80,
        "seed": 0,
    },
    "teacher": {
        # a named preset replaces ``quality``; null keeps it
        "preset": None,
        "quality": {"size": "L", "supervised_fraction": 1.0, "label_noise_rate": 0.0},
        # a null width is the width of the teacher's size
        "encoder": {"causal": False, "left_context": 2, "right_context": 2, "subsample": 1, "hidden": None},
    },
    "student": {
        "encoder": {"causal": False, "left_context": 2, "right_context": 2, "subsample": 1, "hidden": 16},
    },
    "train": {
        "steps": 300,
        "batch_size": 8,
        "lr": 0.15,
        "momentum": 0.9,
        "sup_fraction": 0.10,
    },
    "decode": {"beam": 8, "nbest": 4, "max_symbols_per_frame": DEFAULT_MAX_SYMBOLS_PER_FRAME},
    "distill": {
        "kind": "fs_l1",
        "shift_n": 0,
        "weights": {"supervised": 1.0, "hard": 1.0, "distill": 1.0},
    },
}

# the type of each key whose default is null
NULLABLE_TYPES = {"teacher.preset": str, "teacher.encoder.hidden": int}

# keys accepted and dropped; perfbench/workloads.py still sends this one
RETIRED_KEYS = {"distill.nbest_size"}


class ConfigError(ValueError):
    pass


# ----- config plumbing -----


def _deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def _fits(value, want: type) -> bool:
    """Whether ``value`` is a ``want``: a bool is no int, and an int is a float."""
    if isinstance(value, bool) or want is bool:
        return isinstance(value, bool) and want is bool
    return isinstance(value, (int, float) if want is float else want)


def _resolve(default: dict, value, prefix: str = "") -> dict:
    """``value`` merged over ``default``, checked against its keys and types."""
    if not isinstance(value, dict):
        where = f"key {prefix[:-1]}" if prefix else "root"
        raise ConfigError(f"config {where} must be an object, got {value!r}")
    unknown = sorted(k for k in value if k not in default and prefix + k not in RETIRED_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key {prefix}{unknown[0]}; valid: {sorted(default)}")
    out = {}
    for key, fallback in default.items():
        name = prefix + key
        v = value[key] if key in value else fallback
        if isinstance(fallback, dict):
            out[key] = _resolve(fallback, v, name + ".")
            continue
        want = NULLABLE_TYPES[name] if fallback is None else type(fallback)
        if isinstance(fallback, list):
            ok = isinstance(v, list) and all(_fits(e, type(fallback[0])) for e in v)
        else:
            ok = (v is None and fallback is None) or _fits(v, want)
        if not ok:
            like = " or null" if fallback is None else f" like {fallback!r}"
            raise ConfigError(f"config key {name} takes {want.__name__} values{like}, got {v!r}")
        out[key] = list(v) if isinstance(v, list) else v
    return out


def resolve_config(cfg: dict) -> dict:
    """``cfg`` merged over ``DEFAULT_CONFIG``: every key present, none
    unknown, each value of its default's type (``NULLABLE_TYPES`` where the
    default is null) and in its range (``_check_values``).  Raises
    ConfigError otherwise."""
    cfg = _resolve(DEFAULT_CONFIG, cfg)
    if cfg["schema_version"] != 1:
        raise ConfigError(f"unsupported schema_version {cfg['schema_version']!r}")
    _check_values(cfg)
    return cfg


def _check_values(cfg: dict) -> None:
    """Every range and cross-key check of a typed config, so that each
    command rejects a bad value before it reads any input.  The dataclasses
    own their sections' ranges; each error names the section or key."""
    preset = cfg["teacher"]["preset"]
    if preset is not None and preset not in TEACHER_PRESETS:
        raise ConfigError(f"unknown teacher.preset {preset!r}; valid: {sorted(TEACHER_PRESETS)}")
    quality = _teacher_quality(cfg)
    if quality["size"] not in TEACHER_WIDTHS:
        raise ConfigError(f"unknown teacher.quality.size {quality['size']!r}; "
                          f"valid: {sorted(TEACHER_WIDTHS)}")
    if not 0 < quality["supervised_fraction"] <= 1:
        raise ConfigError("teacher.quality.supervised_fraction must be in (0, 1]")
    if not 0 <= quality["label_noise_rate"] < 1:
        raise ConfigError("teacher.quality.label_noise_rate must be in [0, 1)")
    if cfg["distill"]["kind"] not in {k.value for k in LossKind}:
        raise ConfigError(f"unknown distill.kind {cfg['distill']['kind']!r}; "
                          f"valid: {[k.value for k in LossKind]}")
    for section, build in [("data", _data_spec),
                           ("teacher.encoder", lambda c: _encoder(c, "teacher")),
                           ("student.encoder", lambda c: _encoder(c, "student")),
                           ("distill", _distill_kind),
                           ("distill.weights", _combined_config)]:
        try:
            build(cfg)
        except ValueError as e:
            raise ConfigError(f"bad {section} config: {e}") from None
    # (key, low, high) of the keys that no dataclass owns; None is unbounded
    for key, low, high in [("seed", 0, None), ("data.seed", 0, None), ("data.num_eval", 1, None),
                           ("train.steps", 0, None), ("train.batch_size", 1, None),
                           ("train.sup_fraction", 0, 1),
                           *((f"decode.{name}", 1, None) for name in cfg["decode"])]:
        value = cfg
        for name in key.split("."):
            value = value[name]
        if value < low or (high is not None and value > high):
            bound = f">= {low}" if high is None else f"in [{low}, {high}]"
            raise ConfigError(f"config key {key} must be {bound}, got {value!r}")
    if LossKind(cfg["distill"]["kind"]).is_norm and cfg["decode"]["nbest"] < 2:
        raise ConfigError(
            "normalized full-sum distillation needs an N-best list: set "
            "decode.nbest >= 2 (a single hypothesis normalizes to a constant)"
        )


def load_config(path=None, overrides=()) -> dict:
    cfg = {}
    if path is not None:
        try:
            raw = Path(path).read_bytes()
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        place = f"config file {path}"
        cfg = data_mod.parse_json(raw, place, ConfigError)
        if not isinstance(cfg, dict):
            raise ConfigError(f"{place}: root must be a JSON object, not {type(cfg).__name__}")
    for item in overrides:
        cfg = _deep_merge(cfg, _override(item))
    return resolve_config(cfg)


def _override(item: str) -> dict:
    """``--set a.b=v`` as ``{"a": {"b": v}}``; ``v`` is JSON, else a string."""
    if "=" not in item:
        raise ConfigError(f"override {item!r} is not of the form key.path=value")
    dotted, raw = item.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    for key in reversed(dotted.split(".")):
        value = {key: value}
    return value


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:12]


def run_root(explicit=None) -> Path:
    if explicit:
        return Path(explicit)
    return Path(os.environ.get(RUN_ROOT_ENV, "runs"))


def make_run_dir(command: str, cfg: dict, root=None, inputs=()) -> Path:
    """``<command>-<config hash>``, then ``-<hash>`` of ``inputs`` when the
    command reads any: the sha256 of each input file, then any set names."""
    name = f"{command}-{config_hash(cfg)}"
    if inputs:
        name += "-" + config_hash(list(inputs))
    out = run_root(root) / name
    out.mkdir(parents=True, exist_ok=True)
    data_mod.write_json(out / "config.json", cfg)
    return out


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _data_spec(cfg: dict) -> data_mod.SyntheticSpec:
    return data_mod.SyntheticSpec(**{k: v for k, v in cfg["data"].items() if k != "num_eval"})


def _teacher_quality(cfg: dict) -> dict:
    """The teacher's size, supervised fraction and label noise: those of
    ``teacher.preset``, or ``teacher.quality`` where the preset is null."""
    preset = cfg["teacher"]["preset"]
    return cfg["teacher"]["quality"] if preset is None else TEACHER_PRESETS[preset]


def _encoder(cfg: dict, who: str) -> EncoderConfig:
    """The encoder of ``who``; a null width is that of the teacher's size."""
    enc = dict(cfg[who]["encoder"])
    if enc["hidden"] is None:
        enc["hidden"] = TEACHER_WIDTHS[_teacher_quality(cfg)["size"]]
    return EncoderConfig(**enc)


def _distill_kind(cfg: dict) -> DistillLossKind:
    return DistillLossKind(LossKind(cfg["distill"]["kind"]), cfg["distill"]["shift_n"])


def _combined_config(cfg: dict) -> CombinedLossConfig:
    w = cfg["distill"]["weights"]
    return CombinedLossConfig(w["supervised"], w["hard"], w["distill"])


# ----- corpus artifacts -----


# the corpus set parsed last, keyed by the sha256 of its files' bytes
_LAST_CORPORA = {}


def load_corpora(data_dir, models=()) -> tuple:
    """The parsed corpora of ``data_dir`` by split name, shared by every
    call that finds the same file bytes (their frame arrays are read-only),
    and the sha256 of the manifest and of each corpus file.  Each of
    ``models``, (name, model or data spec) pairs, must have the manifest's
    ``vocab_size`` and ``feat_dim``."""
    data_dir = Path(data_dir)
    manifest_path = data_dir / "manifest.json"
    if not manifest_path.exists():
        raise ConfigError(f"no corpus manifest at {manifest_path}")
    raw = manifest_path.read_bytes()
    manifest = data_mod.parse_json(raw, f"corpus manifest {manifest_path}", ConfigError)

    def section(key, names, want, what):
        value = manifest.get(key) if isinstance(manifest, dict) else None
        if not isinstance(value, dict) or not all(type(value.get(k)) is want for k in names):
            raise ConfigError(f"corpus manifest {manifest_path} must {what}")
        return value

    names = ("supervised", "unsupervised", "unsup_refs", "eval")
    files = section("files", names, str, f"name the files of {list(names)}")
    spec = section("spec", ("vocab_size", "feat_dim"), int,
                   "give the integers spec.vocab_size and spec.feat_dim")
    counts = section("counts", ("supervised", "unsupervised", "eval"), int,
                     "give the integer record counts of supervised, unsupervised and eval")
    for name, model in models:
        for dim in ("vocab_size", "feat_dim"):
            if getattr(model, dim) != spec[dim]:
                raise ConfigError(f"{name} has {dim} {getattr(model, dim)}, but corpus manifest "
                                  f"{manifest_path} has {spec[dim]}")
    paths = [data_dir / files[k] for k in names]
    key = (hashlib.sha256(raw).hexdigest(), *map(_sha256, paths))
    if key not in _LAST_CORPORA:
        _LAST_CORPORA.clear()
        vocab, feat = spec["vocab_size"], spec["feat_dim"]
        sup = data_mod.read_corpus(paths[0], "sup", vocab, feat, labelled=True)
        unsup = data_mod.read_corpus(paths[1], "unsup", vocab, feat)
        unsup.hidden_refs.update(data_mod.read_hidden_refs(paths[2], vocab))
        ev = data_mod.read_corpus(paths[3], "eval", vocab, feat, labelled=True)
        # a file cut at a line boundary still parses: only its count tells
        for path, parsed, split in zip(paths, (sup, unsup, unsup.hidden_refs, ev),
                                       ("supervised", "unsupervised", "unsupervised", "eval")):
            if len(parsed) != counts[split]:
                raise ConfigError(f"{path} holds {len(parsed)} records, but corpus manifest "
                                  f"{manifest_path} counts {counts[split]}")
        strays = set(unsup.hidden_refs).symmetric_difference(unsup.utt_ids())
        if strays:
            raise ConfigError(f"{paths[2]} and {paths[1]} name different utterances, "
                              f"{min(strays)!r} among them")
        for utt in sup.utterances + unsup.utterances + ev.utterances:
            utt.frames.flags.writeable = False
        _LAST_CORPORA[key] = {"sup": sup, "unsup": unsup, "eval": ev}
    return _LAST_CORPORA[key], key


# the pseudo-label file parsed last, keyed by the sha256 of its bytes and the vocab size
_LAST_PSEUDO_LABELS = {}


def load_pseudo_labels(path, vocab_size) -> dict:
    """``read_pseudo_labels(path, vocab_size)``, shared by every call that finds
    the same file bytes and vocab size (no caller changes the records)."""
    key = (_sha256(path), vocab_size)
    if key not in _LAST_PSEUDO_LABELS:
        _LAST_PSEUDO_LABELS.clear()
        _LAST_PSEUDO_LABELS[key] = read_pseudo_labels(path, vocab_size)
    return _LAST_PSEUDO_LABELS[key]


# ----- commands -----


def cmd_gen_data(cfg: dict, root=None) -> Path:
    cfg = resolve_config(cfg)
    spec = _data_spec(cfg)
    out = make_run_dir("gen-data", cfg, root)

    sup, unsup = data_mod.generate(spec)
    ev = data_mod.generate_split(spec, "eval", cfg["data"]["num_eval"], stream=3)
    data_mod.write_corpus(out / "sup.jsonl", sup)
    data_mod.write_corpus(out / "unsup.jsonl", unsup)
    data_mod.write_hidden_refs(out / "unsup_refs.jsonl", unsup)
    data_mod.write_corpus(out / "eval.jsonl", ev)
    data_mod.write_json(out / "manifest.json", {
        "schema_version": 1,
        "spec": cfg["data"],
        "files": {"supervised": "sup.jsonl", "unsupervised": "unsup.jsonl",
                  "unsup_refs": "unsup_refs.jsonl", "eval": "eval.jsonl"},
        "counts": {"supervised": len(sup), "unsupervised": len(unsup), "eval": len(ev)},
    })
    return out


def _train(model, sup, unsup, cfg, loss_fn, log_path) -> None:
    train = cfg["train"]
    stream = data_mod.mix_batches(
        sup, unsup, train["batch_size"], train["sup_fraction"], seed=cfg["seed"]
    )
    opt = SGD(lr=train["lr"], momentum=train["momentum"])

    def steps():  # each step's record is written before the next step runs
        for step in range(train["steps"]):
            loss, terms = train_step(model, next(stream), loss_fn, opt)
            yield {"step": step, "total": loss, "terms": terms}

    data_mod.write_records(log_path, steps())


def cmd_train_teacher(cfg: dict, data_dir, root=None) -> Path:
    cfg = resolve_config(cfg)
    spec = _data_spec(cfg)
    corpora, digests = load_corpora(data_dir, [(DATA_SECTION, spec)])
    quality = _teacher_quality(cfg)
    out = make_run_dir("train-teacher", cfg, root, digests)

    sup = corpora["sup"]
    if quality["supervised_fraction"] < 1.0:
        sup = data_mod.subsample_corpus(sup, quality["supervised_fraction"], seed=cfg["seed"] + 101)
    if quality["label_noise_rate"] > 0.0:
        sup = data_mod.corrupt_labels(
            sup, quality["label_noise_rate"], seed=cfg["seed"] + 202,
            vocab_size=spec.vocab_size,
        )

    model = TransducerModel(spec.vocab_size, spec.feat_dim, _encoder(cfg, "teacher"),
                            seed=cfg["seed"] + 7)
    loss_fn = make_loss_fn(
        DistillLossKind(LossKind.HARD), CombinedLossConfig(1.0, 0.0, 0.0)
    )
    # pure-supervised stream: mixer with fraction 1.0 never draws unsupervised
    empty = data_mod.Corpus(split="unused", utterances=[])
    _train(model, sup, empty, _deep_merge(cfg, {"train": {"sup_fraction": 1.0}}), loss_fn,
           out / "train_log.jsonl")

    ckpt = out / "teacher.ckpt"
    save_checkpoint(model, ckpt)
    return ckpt


def cmd_pseudo_label(cfg: dict, checkpoint, data_dir, root=None) -> Path:
    cfg = resolve_config(cfg)
    beam, nbest_size = cfg["decode"]["beam"], cfg["decode"]["nbest"]
    cap = cfg["decode"]["max_symbols_per_frame"]
    teacher = load_checkpoint(checkpoint)
    corpora, digests = load_corpora(data_dir, [(f"checkpoint {checkpoint}", teacher)])

    # the teacher decodes raw features: no dropout or augmentation exists
    # anywhere in this pipeline, matching the distillation protocol; a checked
    # corpus and checkpoint leave rescoring the one step that can still fail
    utts = corpora["unsup"].utterances
    records = []
    for utt, nbest in zip(utts, beam_search(teacher, [utt.frames for utt in utts], beam, cap)):
        try:
            rescored = rescore_nbest(teacher, utt.frames, nbest)
        except LatticeError as e:
            raise DecodeError(f"utterance {utt.utt_id}: {e}") from None
        records.append(pseudo_label_record(utt.utt_id, nbest, rescored, nbest_size))

    out = make_run_dir("pseudo-label", cfg, root, (*digests, teacher.checkpoint_sha256))
    path = out / "pseudo_labels.jsonl"
    write_pseudo_labels(path, records)
    return path


def _distill_inputs(cfg: dict, data_dir, teacher_checkpoint, pseudo_label_file) -> tuple:
    """Check every rule that the distill row ``cfg`` (resolved) puts on its
    inputs; each command calls this before it makes a run directory.
    Returns the teacher, the corpora, the pseudo labels and the input
    digests that name the run."""
    teacher = load_checkpoint(teacher_checkpoint)
    kind, sub = LossKind(cfg["distill"]["kind"]), teacher.encoder.subsample
    student_sub = cfg["student"]["encoder"]["subsample"]
    if kind.is_soft and sub != student_sub:
        raise ConfigError(
            f"soft distillation requires equal time subsampling, got teacher {sub} vs student "
            f"{student_sub}; use a sequence-level full-sum kind (fs_l1/fs_mse/fsnorm_l1/"
            f"fsnorm_mse), which does not depend on the time dimension")
    spec = _data_spec(cfg)
    corpora, digests = load_corpora(data_dir, [
        (DATA_SECTION, spec), (f"teacher checkpoint {teacher_checkpoint}", teacher)])
    # the batch mixer checks that each split it draws from holds an utterance
    data_mod.mix_batches(corpora["sup"], corpora["unsup"], cfg["train"]["batch_size"],
                         cfg["train"]["sup_fraction"])
    unsup, shift = corpora["unsup"].utterances, cfg["distill"]["shift_n"]
    if unsup:  # the shift must leave the shortest utterance a teacher frame
        short = min(unsup, key=lambda u: len(u.frames))
        frames = -(-len(short.frames) // sub)
        if shift >= frames:
            raise ConfigError(f"shift {shift} >= {frames} teacher frames of the shortest "
                              f"unsupervised utterance {short.utt_id}")
    pseudo = load_pseudo_labels(pseudo_label_file, spec.vocab_size)
    weights = cfg["distill"]["weights"]
    if weights["hard"] > 0 or weights["distill"] > 0:  # a term reads the pseudo labels
        missing = [u.utt_id for u in unsup if u.utt_id not in pseudo]
        if missing:
            raise ConfigError(f"{pseudo_label_file}: no record for {len(missing)} "
                              f"unsupervised utterances, e.g. {missing[0]}")
    if kind.is_norm:
        one_best = [r.utt_id for r in pseudo.values() if len(r.nbest) < 2]
        if one_best:
            raise ConfigError(
                f"{pseudo_label_file}: no N-best list (>=2 hypotheses) for {len(one_best)} "
                f"utterances, e.g. {one_best[0]}; regenerate with decode.nbest >= 2")
    return teacher, corpora, pseudo, (*digests, teacher.checkpoint_sha256,
                                      _sha256(pseudo_label_file))


def cmd_distill(cfg: dict, data_dir, teacher_checkpoint, pseudo_label_file, root=None,
                teacher_lattices=None) -> Path:
    """Train one student.  Rows that share a teacher and corpus may share
    one ``teacher_lattices`` memo; by default each call makes its own."""
    cfg = resolve_config(cfg)
    teacher, corpora, pseudo, digests = _distill_inputs(cfg, data_dir, teacher_checkpoint,
                                                        pseudo_label_file)
    out = make_run_dir("distill", cfg, root, digests)
    spec, kind = _data_spec(cfg), _distill_kind(cfg)
    model = TransducerModel(spec.vocab_size, spec.feat_dim, _encoder(cfg, "student"),
                            seed=cfg["seed"] + 13)
    loss_fn = make_loss_fn(kind, _combined_config(cfg), pseudo_labels=pseudo,
                           teacher_model=teacher if kind.kind.is_soft else None,
                           teacher_lattices={} if teacher_lattices is None else teacher_lattices)
    _train(model, corpora["sup"], corpora["unsup"], cfg, loss_fn, out / "metrics.jsonl")

    ckpt = out / "student.ckpt"
    save_checkpoint(model, ckpt)
    return ckpt


def run_rows(cfg: dict, rows: dict, data_dir, teacher_checkpoint, pseudo_label_file,
             root=None) -> dict:
    """Train and evaluate one student per row; a row is a name mapped to the
    overrides merged over ``cfg``.  The rows share one teacher-lattice memo.
    Returns each row's eval WER by name."""
    wers, teacher_lattices = {}, {}
    for name, overrides in rows.items():
        row_cfg = _deep_merge(cfg, overrides)
        # through the module global, which a caller may rebind to observe rows
        ckpt = cmd_distill(row_cfg, data_dir, teacher_checkpoint, pseudo_label_file, root=root,
                           teacher_lattices=teacher_lattices)
        report = cmd_evaluate(row_cfg, ckpt, data_dir, root=root)
        wers[name] = data_mod.parse_json(report.read_bytes(), str(report))["sets"]["eval"]["wer"]
    return wers


def _train_rows(command: str, cfg: dict, rows: dict, data_dir, teacher_checkpoint,
                pseudo_label_file, root) -> tuple:
    """What ``distill --grid`` and ``sweep-shift`` share: check the inputs of
    every row, make the run directory, then ``run_rows``.  Returns the run
    directory and each row's eval WER."""
    for overrides in rows.values():  # every row reads the same files: one digest names the run
        *_, digests = _distill_inputs(resolve_config(_deep_merge(cfg, overrides)), data_dir,
                                      teacher_checkpoint, pseudo_label_file)
    out = make_run_dir(command, cfg, root, digests)
    return out, run_rows(cfg, rows, data_dir, teacher_checkpoint, pseudo_label_file, root=out)


def cmd_distill_grid(cfg: dict, data_dir, teacher_checkpoint, pseudo_label_file, root=None) -> Path:
    """Train one student per ``GRID_ROWS`` row and evaluate each."""
    out, wers = _train_rows("distill-grid", resolve_config(cfg), GRID_ROWS, data_dir,
                            teacher_checkpoint, pseudo_label_file, root)
    data_mod.write_json(out / "grid_summary.json", wers)
    return out


def cmd_evaluate(cfg: dict, checkpoint, data_dir, sets=None, root=None) -> Path:
    """Score ``checkpoint`` on each corpus set named in ``sets`` (by default ``eval``)."""
    cfg = resolve_config(cfg)
    sets = ("eval",) if sets is None else tuple(sets)
    model = load_checkpoint(checkpoint)
    corpora, digests = load_corpora(data_dir, [(f"checkpoint {checkpoint}", model)])
    for name in sets:
        if name not in corpora or not corpora[name].utterances:
            raise ConfigError(f"no utterances in evaluation set {name!r}")
    out = make_run_dir("evaluate", cfg, root, (*digests, model.checkpoint_sha256, *sets))

    cap = cfg["decode"]["max_symbols_per_frame"]
    reports = {name: metrics_mod.evaluate(model, corpora[name], max_symbols_per_frame=cap)
               for name in sets}
    report_path = out / "report.json"
    metrics_mod.write_report(
        report_path,
        reports,
        metadata={
            "checkpoint": Path(checkpoint).name,
            "checkpoint_sha256": model.checkpoint_sha256,
            "distill_kind": cfg["distill"]["kind"],
            "shift_n": cfg["distill"]["shift_n"],
            "seed": cfg["seed"],
        },
    )
    return report_path


def cmd_sweep_shift(cfg: dict, data_dir, teacher_checkpoint, pseudo_label_file,
                    shifts=None, root=None) -> Path:
    """Train and evaluate one student per teacher shift of ``shifts`` (by
    default 0 to 3); return ``shift_sweep.json``, each shift's eval WER."""
    cfg = resolve_config(cfg)
    if not _distill_kind(cfg).kind.is_soft:
        raise ConfigError("sweep-shift requires a soft distillation kind")
    if not cfg["student"]["encoder"]["causal"]:
        raise ConfigError("sweep-shift expects a causal student encoder")
    shifts = list(range(4) if shifts is None else shifts)
    if any(type(n) is not int for n in shifts) or len(set(shifts)) != len(shifts):
        raise ConfigError(f"sweep-shift needs distinct integer shifts, got {shifts}")
    if not shifts or min(shifts) < 0:
        raise ConfigError(f"sweep-shift needs one or more shifts >= 0, got {shifts}; "
                          f"--max-shift must be >= 0")
    if load_checkpoint(teacher_checkpoint).encoder.causal:
        raise ConfigError("sweep-shift expects a non-causal teacher")

    out, wers = _train_rows("sweep-shift", cfg, {n: {"distill": {"shift_n": n}} for n in shifts},
                            data_dir, teacher_checkpoint, pseudo_label_file, root)
    table = out / "shift_sweep.json"
    data_mod.write_json(table, {"rows": [{"shift": n, "wer": w} for n, w in wers.items()]})
    return table


# ----- argparse surface -----


# each command: its help, its flags after COMMON_FLAGS and its cmd_* call of (args, config)
COMMON_FLAGS = {"--config": {"help": "JSON config file"},
                "--set": {"dest": "overrides", "action": "append", "default": [],
                          "metavar": "KEY.PATH=VALUE", "help": "override a config key"},
                "--run-root": {"help": f"output root (default ${RUN_ROOT_ENV} or ./runs)"}}
MODEL_INPUTS = dict.fromkeys(["--data-dir", "--checkpoint"], {"required": True})
TEACHER_INPUTS = dict.fromkeys(["--data-dir", "--teacher", "--pseudo-labels"], {"required": True})
COMMANDS = {
    "gen-data": ("generate synthetic corpora", {},
                 lambda a, cfg: cmd_gen_data(cfg, root=a.run_root)),
    "train-teacher": ("train a teacher on the supervised split", {
        "--data-dir": {"required": True}, "--preset": {"choices": sorted(TEACHER_PRESETS)}},
        lambda a, cfg: cmd_train_teacher(_deep_merge(cfg, {"teacher": {"preset": a.preset}})
                                         if a.preset else cfg, a.data_dir, root=a.run_root)),
    "pseudo-label": (
        "beam-decode the unsupervised split", MODEL_INPUTS,
        lambda a, cfg: cmd_pseudo_label(cfg, a.checkpoint, a.data_dir, root=a.run_root)),
    "distill": ("train a student against a teacher", {**TEACHER_INPUTS, "--grid": {
        "action": "store_true", "help": "run the standard experiment grid instead of one row"}},
        lambda a, cfg: (cmd_distill_grid if a.grid else cmd_distill)(
            cfg, a.data_dir, a.teacher, a.pseudo_labels, root=a.run_root)),
    "evaluate": (
        "score a checkpoint on held-out data", {**MODEL_INPUTS, "--sets": {"nargs": "+"}},
        lambda a, cfg: cmd_evaluate(cfg, a.checkpoint, a.data_dir, sets=a.sets, root=a.run_root)),
    "sweep-shift": (
        "sweep the teacher time shift", {**TEACHER_INPUTS, "--max-shift": {"type": int}},
        lambda a, cfg: cmd_sweep_shift(
            cfg, a.data_dir, a.teacher, a.pseudo_labels, root=a.run_root,
            shifts=None if a.max_shift is None else list(range(a.max_shift + 1)))),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="transducer-distill",
                                     description="Sequence-transducer distillation pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, flags, _) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for flag, options in {**COMMON_FLAGS, **flags}.items():
            p.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out = COMMANDS[args.command][2](args, load_config(args.config, args.overrides))
    except (ConfigError, ValueError, FileNotFoundError, IsADirectoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # runtime failure
        print(f"runtime failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
