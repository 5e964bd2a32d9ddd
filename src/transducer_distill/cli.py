"""Command-line pipeline: data generation, teacher training, pseudo
labeling, distillation, evaluation, and the teacher-shift sweep.

Every command is a pure function of its JSON config (plus referenced
artifacts); outputs land in a run directory named by the config hash, so
rerunning an identical config reproduces byte-identical files.  Exit codes:
0 success, 1 config/validation error, 2 runtime failure.
"""

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import metrics as metrics_mod
from .decode import (
    DecodeError,
    PseudoLabelRecord,
    beam_search,
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
    ModelError,
    TransducerModel,
    load_checkpoint,
    save_checkpoint,
    train_step,
)

RUN_ROOT_ENV = "TRANSDUCER_DISTILL_RUN_ROOT"

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

GRID_ROWS = {
    "student": ("hard", (1.0, 0.0, 0.0)),
    "hard": ("hard", (1.0, 1.0, 0.0)),
    "hard_soft": ("soft_efficient", (1.0, 1.0, 1.0)),
    "soft": ("soft_efficient", (1.0, 0.0, 1.0)),
    "fs_l1": ("fs_l1", (1.0, 1.0, 1.0)),
    "fsnorm_l1": ("fsnorm_l1", (1.0, 1.0, 1.0)),
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
    "decode": {"beam": 8, "nbest": 4, "max_symbols_per_frame": 5},
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
    default is null).  Raises ConfigError otherwise."""
    cfg = _resolve(DEFAULT_CONFIG, cfg)
    if cfg["schema_version"] != 1:
        raise ConfigError(f"unsupported schema_version {cfg['schema_version']!r}")
    return cfg


def load_config(path=None, overrides=()) -> dict:
    cfg = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as f:
                user = json.load(f)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file {path} is not valid JSON: {e}")
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
        cfg = user
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


def make_run_dir(command: str, cfg: dict, root=None) -> Path:
    out = run_root(root) / f"{command}-{config_hash(cfg)}"
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "config.json", "w", encoding="utf-8") as f:
        json.dump(cfg, f, indent=2, sort_keys=True)
        f.write("\n")
    return out


def _data_spec(cfg: dict) -> data_mod.SyntheticSpec:
    spec = {key: value for key, value in cfg["data"].items() if key != "num_eval"}
    try:
        return data_mod.SyntheticSpec(**spec)
    except data_mod.DataError as e:
        raise ConfigError(f"bad data section: {e}")


def _teacher_quality(cfg: dict) -> dict:
    """The teacher's size, supervised fraction and label noise: those of
    ``teacher.preset``, or ``teacher.quality`` where the preset is null."""
    preset = cfg["teacher"]["preset"]
    if preset is not None and preset not in TEACHER_PRESETS:
        raise ConfigError(f"unknown teacher preset {preset!r}; valid: {sorted(TEACHER_PRESETS)}")
    quality = cfg["teacher"]["quality"] if preset is None else TEACHER_PRESETS[preset]
    if quality["size"] not in TEACHER_WIDTHS:
        raise ConfigError(f"unknown teacher size {quality['size']!r}; valid: {sorted(TEACHER_WIDTHS)}")
    if not 0 < quality["supervised_fraction"] <= 1:
        raise ConfigError("teacher supervised_fraction must be in (0, 1]")
    if not 0 <= quality["label_noise_rate"] < 1:
        raise ConfigError("teacher label_noise_rate must be in [0, 1)")
    return quality


def _encoder_from(enc: dict, who: str) -> EncoderConfig:
    try:
        return EncoderConfig(**enc)
    except ValueError as e:
        raise ConfigError(f"bad {who} encoder config: {e}")


def _distill_kind(cfg: dict) -> DistillLossKind:
    d = cfg["distill"]
    try:
        kind = LossKind(d["kind"])
    except ValueError:
        raise ConfigError(
            f"unknown distillation kind {d['kind']!r}; valid: "
            f"{[k.value for k in LossKind]}"
        )
    try:
        return DistillLossKind(kind=kind, shift_n=d["shift_n"])
    except ValueError as e:
        raise ConfigError(str(e))


def _nbest_size(cfg: dict) -> int:
    """``decode.nbest``, the one N-best size; normalized kinds need >= 2."""
    nbest = cfg["decode"]["nbest"]
    if _distill_kind(cfg).kind.is_norm and nbest < 2:
        raise ConfigError(
            "normalized full-sum distillation needs an N-best list: set "
            "decode.nbest >= 2 (a single hypothesis normalizes to a constant)"
        )
    return nbest


def _combined_config(cfg: dict) -> CombinedLossConfig:
    w = cfg["distill"]["weights"]
    try:
        return CombinedLossConfig(w["supervised"], w["hard"], w["distill"])
    except ValueError as e:
        raise ConfigError(str(e))


def validate_distill_setup(cfg: dict, teacher_subsample: int) -> None:
    """Reject incompatible (kind, architecture) combinations before compute."""
    kind = _distill_kind(cfg)
    student_sub = cfg["student"]["encoder"]["subsample"]
    if kind.kind.is_soft and teacher_subsample != student_sub:
        raise ConfigError(
            f"soft distillation requires equal time subsampling, got teacher "
            f"{teacher_subsample} vs student {student_sub}; use a sequence-level "
            f"full-sum kind (fs_l1/fs_mse/fsnorm_l1/fsnorm_mse), which does not "
            f"depend on the time dimension"
        )
    _nbest_size(cfg)


# ----- corpus artifacts -----


def _write_manifest(out: Path, cfg: dict, counts: dict) -> None:
    manifest = {
        "schema_version": 1,
        "spec": cfg["data"],
        "files": {
            "supervised": "sup.jsonl",
            "unsupervised": "unsup.jsonl",
            "unsup_refs": "unsup_refs.jsonl",
            "eval": "eval.jsonl",
        },
        "counts": counts,
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


# the corpus set parsed last, keyed by the sha256 of its files' bytes
_LAST_CORPORA = {}


def load_corpora(data_dir) -> dict:
    """The parsed corpora of ``data_dir``, shared by every call that finds
    the same file bytes; their frame arrays are read-only."""
    data_dir = Path(data_dir)
    manifest_path = data_dir / "manifest.json"
    if not manifest_path.exists():
        raise ConfigError(f"no corpus manifest at {manifest_path}")
    raw = manifest_path.read_bytes()
    manifest = json.loads(raw)
    paths = [data_dir / manifest["files"][k]
             for k in ("supervised", "unsupervised", "unsup_refs", "eval")]
    key = (hashlib.sha256(raw).hexdigest(),
           *(hashlib.sha256(path.read_bytes()).hexdigest() for path in paths))
    if key not in _LAST_CORPORA:
        _LAST_CORPORA.clear()
        sup = data_mod.read_corpus(paths[0], "sup")
        unsup = data_mod.read_corpus(paths[1], "unsup")
        unsup.hidden_refs.update(data_mod.read_hidden_refs(paths[2]))
        ev = data_mod.read_corpus(paths[3], "eval")
        for utt in sup.utterances + unsup.utterances + ev.utterances:
            utt.frames.flags.writeable = False
        _LAST_CORPORA[key] = {"sup": sup, "unsup": unsup, "eval": ev}
    return _LAST_CORPORA[key]


# ----- commands -----


def cmd_gen_data(cfg: dict, root=None) -> Path:
    cfg = resolve_config(cfg)
    spec = _data_spec(cfg)
    num_eval = cfg["data"]["num_eval"]
    if num_eval < 1:
        raise ConfigError("num_eval must be >= 1")
    out = make_run_dir("gen-data", cfg, root)

    sup, unsup = data_mod.generate(spec)
    ev = data_mod.generate_split(spec, "eval", num_eval, stream=3)
    data_mod.write_corpus(out / "sup.jsonl", sup)
    data_mod.write_corpus(out / "unsup.jsonl", unsup)
    data_mod.write_hidden_refs(out / "unsup_refs.jsonl", unsup)
    data_mod.write_corpus(out / "eval.jsonl", ev)
    _write_manifest(out, cfg, {"supervised": len(sup), "unsupervised": len(unsup), "eval": len(ev)})
    return out


def _train(model, sup, unsup, cfg, loss_fn, log_path) -> None:
    train = cfg["train"]
    stream = data_mod.mix_batches(
        sup, unsup, train["batch_size"], train["sup_fraction"], seed=cfg["seed"]
    )
    opt = SGD(lr=train["lr"], momentum=train["momentum"])
    with open(log_path, "w", encoding="utf-8") as log:
        for step in range(train["steps"]):
            batch = next(stream)
            loss, terms = train_step(model, batch, loss_fn, opt)
            log.write(json.dumps({"step": step, "total": loss, "terms": terms}, sort_keys=True))
            log.write("\n")


def cmd_train_teacher(cfg: dict, data_dir, root=None) -> Path:
    cfg = resolve_config(cfg)
    corpora = load_corpora(data_dir)
    quality = _teacher_quality(cfg)
    enc = dict(cfg["teacher"]["encoder"])
    if enc["hidden"] is None:
        enc["hidden"] = TEACHER_WIDTHS[quality["size"]]
    encoder = _encoder_from(enc, "teacher")
    spec = _data_spec(cfg)
    out = make_run_dir("train-teacher", cfg, root)

    sup = corpora["sup"]
    if quality["supervised_fraction"] < 1.0:
        sup = data_mod.subsample_corpus(sup, quality["supervised_fraction"], seed=cfg["seed"] + 101)
    if quality["label_noise_rate"] > 0.0:
        sup = data_mod.corrupt_labels(
            sup, quality["label_noise_rate"], seed=cfg["seed"] + 202,
            vocab_size=spec.vocab_size,
        )

    model = TransducerModel(spec.vocab_size, spec.feat_dim, encoder, seed=cfg["seed"] + 7)
    loss_fn = make_loss_fn(
        DistillLossKind(LossKind.HARD), CombinedLossConfig(1.0, 0.0, 0.0)
    )
    # pure-supervised stream: mixer with fraction 1.0 never draws unsupervised
    empty = data_mod.Corpus(split="unused", utterances=[])
    train_cfg = dict(cfg)
    train_cfg["train"] = dict(cfg["train"])
    train_cfg["train"]["sup_fraction"] = 1.0
    _train(model, sup, empty, train_cfg, loss_fn, out / "train_log.jsonl")

    ckpt = out / "teacher.ckpt"
    save_checkpoint(model, ckpt)
    return ckpt


def cmd_pseudo_label(cfg: dict, checkpoint, data_dir, root=None) -> Path:
    cfg = resolve_config(cfg)
    beam = cfg["decode"]["beam"]
    nbest_size = _nbest_size(cfg)
    cap = cfg["decode"]["max_symbols_per_frame"]
    if beam < 1 or nbest_size < 1:
        raise ConfigError("beam and nbest must be >= 1")
    teacher = load_checkpoint(checkpoint)
    corpora = load_corpora(data_dir)
    out = make_run_dir("pseudo-label", cfg, root)

    # the teacher decodes raw features: no dropout or augmentation exists
    # anywhere in this pipeline, matching the distillation protocol
    records = []
    failures = []
    for utt in corpora["unsup"].utterances:
        try:
            nbest = beam_search(teacher, utt.frames, beam, cap)
            top = nbest.top()
            rescored = rescore_nbest(teacher, utt.frames, nbest)
            pairs = sorted(
                zip((h.labels for h in nbest.hypotheses), rescored),
                key=lambda e: (-e[1], e[0]),
            )
            # the stored list always retains the pseudo label itself
            top_pair = next(p for p in pairs if p[0] == top.labels)
            keep = pairs[:nbest_size]
            if top_pair not in keep:
                keep = keep[: nbest_size - 1] + [top_pair]
                keep.sort(key=lambda e: (-e[1], e[0]))
            records.append(
                PseudoLabelRecord(
                    utt_id=utt.utt_id,
                    labels=top.labels,
                    score=float(top_pair[1]),
                    nbest=[(labels, float(score)) for labels, score in keep],
                )
            )
        except (DecodeError, ModelError, LatticeError) as e:
            # an utterance the teacher cannot decode must not kill the run
            failures.append({"utt_id": utt.utt_id, "error": str(e)})

    path = out / "pseudo_labels.jsonl"
    write_pseudo_labels(path, records)
    if failures:
        with open(out / "decode_failures.jsonl", "w", encoding="utf-8") as f:
            for item in failures:
                f.write(json.dumps(item, sort_keys=True))
                f.write("\n")
    return path


def cmd_distill(cfg: dict, data_dir, teacher_checkpoint, pseudo_label_file, root=None,
                teacher_lattices=None) -> Path:
    """Train one student.  Rows that share a teacher and corpus may share
    one ``teacher_lattices`` memo; by default each call makes its own."""
    cfg = resolve_config(cfg)
    teacher = load_checkpoint(teacher_checkpoint)
    validate_distill_setup(cfg, teacher.encoder.subsample)
    kind = _distill_kind(cfg)
    weights = _combined_config(cfg)
    corpora = load_corpora(data_dir)
    pseudo = read_pseudo_labels(pseudo_label_file)
    if weights.weight_hard_on_pseudo > 0 or weights.weight_distill > 0:
        missing = [u.utt_id for u in corpora["unsup"].utterances if u.utt_id not in pseudo]
        if missing:
            raise ConfigError(
                f"pseudo-label file has no record for {len(missing)} unsupervised "
                f"utterances, e.g. {missing[0]}; see decode_failures.jsonl next to it"
            )
    if kind.kind.is_norm:
        short = [r.utt_id for r in pseudo.values() if len(r.nbest) < 2]
        if short:
            raise ConfigError(
                f"pseudo-label file lacks N-best lists (>=2 hypotheses) for "
                f"{len(short)} utterances, e.g. {short[0]}; regenerate with "
                f"decode.nbest >= 2"
            )

    spec = _data_spec(cfg)
    encoder = _encoder_from(cfg["student"]["encoder"], "student")
    out = make_run_dir("distill", cfg, root)

    model = TransducerModel(spec.vocab_size, spec.feat_dim, encoder, seed=cfg["seed"] + 13)

    needs_teacher = kind.kind.is_soft
    loss_fn = make_loss_fn(
        kind,
        weights,
        pseudo_labels=pseudo,
        teacher_model=teacher if needs_teacher else None,
        teacher_lattices={} if teacher_lattices is None else teacher_lattices,
    )
    _train(model, corpora["sup"], corpora["unsup"], cfg, loss_fn, out / "metrics.jsonl")

    ckpt = out / "student.ckpt"
    save_checkpoint(model, ckpt)
    return ckpt


def cmd_distill_grid(cfg: dict, data_dir, teacher_checkpoint, pseudo_label_file, root=None) -> Path:
    """Train one student per standard experiment row and evaluate each."""
    cfg = resolve_config(cfg)
    out = make_run_dir("distill-grid", cfg, root)
    summary, teacher_lattices = {}, {}
    for row, (kind_name, (w_sup, w_hard, w_distill)) in GRID_ROWS.items():
        row_cfg = json.loads(json.dumps(cfg))
        row_cfg["distill"]["kind"] = kind_name
        row_cfg["distill"]["weights"] = {
            "supervised": w_sup, "hard": w_hard, "distill": w_distill,
        }
        if w_hard == 0.0 and w_distill == 0.0:
            # the supervised-only baseline row trains on pure supervised batches
            row_cfg["train"]["sup_fraction"] = 1.0
        ckpt = cmd_distill(row_cfg, data_dir, teacher_checkpoint, pseudo_label_file, root=out,
                           teacher_lattices=teacher_lattices)
        report = cmd_evaluate(row_cfg, ckpt, data_dir, root=out)
        with open(report, encoding="utf-8") as f:
            summary[row] = json.load(f)["sets"]["eval"]["wer"]
    with open(out / "grid_summary.json", "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    return out


def cmd_evaluate(cfg: dict, checkpoint, data_dir, sets=("eval",), root=None) -> Path:
    cfg = resolve_config(cfg)
    model = load_checkpoint(checkpoint)
    corpora = load_corpora(data_dir)
    out = make_run_dir("evaluate", cfg, root)
    cap = cfg["decode"]["max_symbols_per_frame"]

    reports = {}
    for name in sets:
        corpus = corpora.get(name)
        if corpus is None or not corpus.utterances:
            raise ConfigError(f"no utterances in evaluation set {name!r}")
        reports[name] = metrics_mod.evaluate(model, corpus, decoder="greedy",
                                             max_symbols_per_frame=cap)
    report_path = out / "report.json"
    metrics_mod.write_report(
        report_path,
        reports,
        metadata={
            "checkpoint": str(checkpoint),
            "distill_kind": cfg["distill"]["kind"],
            "shift_n": cfg["distill"]["shift_n"],
            "seed": cfg["seed"],
        },
    )
    return report_path


def cmd_sweep_shift(cfg: dict, data_dir, teacher_checkpoint, pseudo_label_file,
                    shifts=None, root=None) -> Path:
    cfg = resolve_config(cfg)
    kind = _distill_kind(cfg)
    if not kind.kind.is_soft:
        raise ConfigError("sweep-shift requires a soft distillation kind")
    if not cfg["student"]["encoder"]["causal"]:
        raise ConfigError("sweep-shift expects a causal student encoder")
    teacher = load_checkpoint(teacher_checkpoint)
    if teacher.encoder.causal:
        raise ConfigError("sweep-shift expects a non-causal teacher")
    if shifts is None:
        shifts = list(range(0, 4))

    out = make_run_dir("sweep-shift", cfg, root)
    rows, teacher_lattices = [], {}
    for n in shifts:
        run_cfg = json.loads(json.dumps(cfg))
        run_cfg["distill"]["shift_n"] = int(n)
        ckpt = cmd_distill(run_cfg, data_dir, teacher_checkpoint, pseudo_label_file, root=out,
                           teacher_lattices=teacher_lattices)
        report = cmd_evaluate(run_cfg, ckpt, data_dir, root=out)
        with open(report, encoding="utf-8") as f:
            wer = json.load(f)["sets"]["eval"]["wer"]
        rows.append((int(n), wer))

    table = out / "shift_sweep.tsv"
    with open(table, "w", encoding="utf-8") as f:
        f.write("shift\twer\n")
        for n, wer in rows:
            f.write(f"{n}\t{wer!r}\n")
    with open(out / "shift_sweep.json", "w", encoding="utf-8") as f:
        json.dump({"rows": [{"shift": n, "wer": w} for n, w in rows]}, f,
                  indent=2, sort_keys=True)
        f.write("\n")
    return table


# ----- argparse surface -----


def _add_common(p):
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY.PATH=VALUE", help="override a config key")
    p.add_argument("--run-root", default=None,
                   help=f"output root (default ${RUN_ROOT_ENV} or ./runs)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transducer-distill",
        description="Sequence-transducer distillation pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate synthetic corpora")
    _add_common(p)

    p = sub.add_parser("train-teacher", help="train a teacher on the supervised split")
    _add_common(p)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--preset", default=None, choices=sorted(TEACHER_PRESETS))

    p = sub.add_parser("pseudo-label", help="beam-decode the unsupervised split")
    _add_common(p)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--checkpoint", required=True)

    p = sub.add_parser("distill", help="train a student against a teacher")
    _add_common(p)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--teacher", required=True)
    p.add_argument("--pseudo-labels", required=True)
    p.add_argument("--grid", action="store_true",
                   help="run the standard experiment grid instead of one row")

    p = sub.add_parser("evaluate", help="score a checkpoint on held-out data")
    _add_common(p)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--sets", nargs="+", default=["eval"])

    p = sub.add_parser("sweep-shift", help="sweep the teacher time shift")
    _add_common(p)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--teacher", required=True)
    p.add_argument("--pseudo-labels", required=True)
    p.add_argument("--max-shift", type=int, default=3)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides)
        if args.command == "gen-data":
            out = cmd_gen_data(cfg, root=args.run_root)
        elif args.command == "train-teacher":
            if args.preset:
                cfg["teacher"]["preset"] = args.preset
            out = cmd_train_teacher(cfg, args.data_dir, root=args.run_root)
        elif args.command == "pseudo-label":
            out = cmd_pseudo_label(cfg, args.checkpoint, args.data_dir, root=args.run_root)
        elif args.command == "distill":
            if args.grid:
                out = cmd_distill_grid(cfg, args.data_dir, args.teacher,
                                       args.pseudo_labels, root=args.run_root)
            else:
                out = cmd_distill(cfg, args.data_dir, args.teacher,
                                  args.pseudo_labels, root=args.run_root)
        elif args.command == "evaluate":
            out = cmd_evaluate(cfg, args.checkpoint, args.data_dir,
                               sets=tuple(args.sets), root=args.run_root)
        elif args.command == "sweep-shift":
            out = cmd_sweep_shift(cfg, args.data_dir, args.teacher,
                                  args.pseudo_labels,
                                  shifts=list(range(args.max_shift + 1)),
                                  root=args.run_root)
        else:  # pragma: no cover
            raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, ValueError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # runtime failure
        print(f"runtime failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
