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
        "preset": "L",
        "encoder": {"causal": False, "left_context": 2, "right_context": 2, "subsample": 1},
    },
    "student": {
        "encoder": {"causal": False, "left_context": 2, "right_context": 2, "subsample": 1, "hidden": 16},
        "init_checkpoint": None,
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
        "nbest_size": 4,
        "weights": {"supervised": 1.0, "hard": 1.0, "distill": 1.0},
        "reduction": "sum",
    },
}


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


def load_config(path=None, overrides=()) -> dict:
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
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
        cfg = _deep_merge(cfg, user)
    for item in overrides:
        cfg = _apply_override(cfg, item)
    if cfg.get("schema_version") != 1:
        raise ConfigError(f"unsupported schema_version {cfg.get('schema_version')!r}")
    return cfg


def _apply_override(cfg: dict, item: str) -> dict:
    if "=" not in item:
        raise ConfigError(f"override {item!r} is not of the form key.path=value")
    dotted, raw = item.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    keys = dotted.split(".")
    node = cfg
    for key in keys[:-1]:
        if not isinstance(node.get(key), dict):
            node[key] = {}
        node = node[key]
    node[keys[-1]] = value
    return cfg


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
    d = cfg["data"]
    try:
        return data_mod.SyntheticSpec(
            vocab_size=d["vocab_size"],
            feat_dim=d["feat_dim"],
            frames_per_label=tuple(d["frames_per_label"]),
            noise_sigma=d["noise_sigma"],
            label_len_range=tuple(d["label_len_range"]),
            num_supervised=d["num_supervised"],
            num_unsupervised=d["num_unsupervised"],
            seed=d["seed"],
        )
    except (KeyError, data_mod.DataError) as e:
        raise ConfigError(f"bad data section: {e}")


def _teacher_encoder(cfg: dict) -> EncoderConfig:
    t = cfg["teacher"]
    enc = dict(t["encoder"])
    if "hidden" not in enc:
        preset = t.get("preset")
        quality = TEACHER_PRESETS.get(preset, {}) if preset else {}
        size = t.get("quality", {}).get("size", quality.get("size", "M"))
        if size not in TEACHER_WIDTHS:
            raise ConfigError(f"unknown teacher size {size!r}")
        enc["hidden"] = TEACHER_WIDTHS[size]
    return _encoder_from(enc, "teacher")


def _teacher_quality(cfg: dict) -> dict:
    t = cfg["teacher"]
    preset = t.get("preset")
    if preset is not None:
        if preset not in TEACHER_PRESETS:
            raise ConfigError(
                f"unknown teacher preset {preset!r}; valid: {sorted(TEACHER_PRESETS)}"
            )
        quality = dict(TEACHER_PRESETS[preset])
    else:
        quality = {"size": "M", "supervised_fraction": 1.0, "label_noise_rate": 0.0}
    quality.update(t.get("quality", {}))
    if not 0 < quality["supervised_fraction"] <= 1:
        raise ConfigError("teacher supervised_fraction must be in (0, 1]")
    if not 0 <= quality["label_noise_rate"] < 1:
        raise ConfigError("teacher label_noise_rate must be in [0, 1)")
    return quality


def _student_encoder(cfg: dict) -> EncoderConfig:
    return _encoder_from(cfg["student"]["encoder"], "student")


def _encoder_from(enc: dict, who: str) -> EncoderConfig:
    try:
        return EncoderConfig(
            causal=enc["causal"],
            left_context=enc["left_context"],
            right_context=enc["right_context"],
            subsample=enc.get("subsample", 1),
            hidden=enc["hidden"],
        )
    except (KeyError, ValueError) as e:
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
        return DistillLossKind(
            kind=kind,
            shift_n=d.get("shift_n", 0),
            nbest_size=d.get("nbest_size", 1),
        )
    except ValueError as e:
        raise ConfigError(str(e))


def _combined_config(cfg: dict) -> CombinedLossConfig:
    w = cfg["distill"]["weights"]
    try:
        return CombinedLossConfig(
            weight_supervised_rnnt=w.get("supervised", 1.0),
            weight_hard_on_pseudo=w.get("hard", 0.0),
            weight_distill=w.get("distill", 0.0),
        )
    except ValueError as e:
        raise ConfigError(str(e))


def validate_distill_setup(cfg: dict, teacher_subsample: int) -> None:
    """Reject incompatible (kind, architecture) combinations before compute."""
    kind = _distill_kind(cfg)
    student_sub = cfg["student"]["encoder"].get("subsample", 1)
    if kind.kind.is_soft and teacher_subsample != student_sub:
        raise ConfigError(
            f"soft distillation requires equal time subsampling, got teacher "
            f"{teacher_subsample} vs student {student_sub}; use a sequence-level "
            f"full-sum kind (fs_l1/fs_mse/fsnorm_l1/fsnorm_mse), which does not "
            f"depend on the time dimension"
        )
    if kind.kind.is_norm and kind.nbest_size < 2:
        raise ConfigError(
            "normalized full-sum distillation needs nbest_size >= 2 "
            "(a single-hypothesis list makes the normalized score constant)"
        )
    if kind.shift_n > 0 and not kind.kind.is_soft:
        raise ConfigError("shift_n only applies to soft distillation")


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


def load_corpora(data_dir) -> dict:
    data_dir = Path(data_dir)
    manifest_path = data_dir / "manifest.json"
    if not manifest_path.exists():
        raise ConfigError(f"no corpus manifest at {manifest_path}")
    with open(manifest_path, encoding="utf-8") as f:
        manifest = json.load(f)
    files = manifest["files"]
    sup = data_mod.read_corpus(data_dir / files["supervised"], "sup")
    unsup = data_mod.read_corpus(data_dir / files["unsupervised"], "unsup")
    unsup.hidden_refs.update(data_mod.read_hidden_refs(data_dir / files["unsup_refs"]))
    ev = data_mod.read_corpus(data_dir / files["eval"], "eval")
    return {"sup": sup, "unsup": unsup, "eval": ev, "manifest": manifest}


# ----- commands -----


def cmd_gen_data(cfg: dict, root=None) -> Path:
    spec = _data_spec(cfg)
    num_eval = cfg["data"].get("num_eval", 50)
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
    opt = SGD(lr=train["lr"], momentum=train.get("momentum", 0.9))
    steps = train["steps"]
    # tail parameter averaging smooths the fixed-step-size SGD oscillation;
    # 0 keeps the final iterate
    tail = min(train.get("average_tail", 0), steps)
    tail_sum = None
    with open(log_path, "w", encoding="utf-8") as log:
        for step in range(steps):
            batch = next(stream)
            loss, terms = train_step(model, batch, loss_fn, opt)
            log.write(json.dumps({"step": step, "total": loss, "terms": terms}, sort_keys=True))
            log.write("\n")
            if tail and step >= steps - tail:
                if tail_sum is None:
                    tail_sum = {k: v.copy() for k, v in model.params.items()}
                else:
                    for k, v in model.params.items():
                        tail_sum[k] += v
    if tail_sum is not None:
        for k in model.params:
            model.params[k] = tail_sum[k] / tail


def cmd_train_teacher(cfg: dict, data_dir, root=None) -> Path:
    corpora = load_corpora(data_dir)
    quality = _teacher_quality(cfg)
    encoder = _teacher_encoder(cfg)
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
    decode_cfg = cfg["decode"]
    beam = decode_cfg.get("beam", 8)
    nbest_size = decode_cfg.get("nbest", 1)
    cap = decode_cfg.get("max_symbols_per_frame", 5)
    if beam < 1 or nbest_size < 1:
        raise ConfigError("beam and nbest must be >= 1")
    kind = _distill_kind(cfg)
    if kind.kind.is_norm and nbest_size < 2:
        raise ConfigError(
            "normalized full-sum distillation needs an N-best list: set "
            "decode.nbest >= 2 (a single hypothesis normalizes to a constant)"
        )
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


def cmd_distill(cfg: dict, data_dir, teacher_checkpoint, pseudo_label_file, root=None) -> Path:
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
    encoder = _student_encoder(cfg)
    out = make_run_dir("distill", cfg, root)

    init = cfg["student"].get("init_checkpoint")
    if init:
        model = load_checkpoint(init)
        if model.encoder != encoder:
            raise ConfigError(
                f"init checkpoint encoder {model.encoder} does not match the "
                f"configured student encoder {encoder}"
            )
    else:
        model = TransducerModel(spec.vocab_size, spec.feat_dim, encoder, seed=cfg["seed"] + 13)

    needs_teacher = kind.kind.is_soft
    loss_fn = make_loss_fn(
        kind,
        weights,
        pseudo_labels=pseudo,
        teacher_model=teacher if needs_teacher else None,
        reduction=cfg["distill"].get("reduction", "sum"),
    )
    _train(model, corpora["sup"], corpora["unsup"], cfg, loss_fn, out / "metrics.jsonl")

    ckpt = out / "student.ckpt"
    save_checkpoint(model, ckpt)
    return ckpt


def cmd_distill_grid(cfg: dict, data_dir, teacher_checkpoint, pseudo_label_file, root=None) -> Path:
    """Train one student per standard experiment row and evaluate each."""
    out = make_run_dir("distill-grid", cfg, root)
    summary = {}
    for row, (kind_name, (w_sup, w_hard, w_distill)) in GRID_ROWS.items():
        row_cfg = json.loads(json.dumps(cfg))
        row_cfg["distill"]["kind"] = kind_name
        row_cfg["distill"]["weights"] = {
            "supervised": w_sup, "hard": w_hard, "distill": w_distill,
        }
        if w_hard == 0.0 and w_distill == 0.0:
            # the supervised-only baseline row trains on pure supervised batches
            row_cfg["train"]["sup_fraction"] = 1.0
        ckpt = cmd_distill(row_cfg, data_dir, teacher_checkpoint, pseudo_label_file, root=out)
        report = cmd_evaluate(row_cfg, ckpt, data_dir, root=out)
        with open(report, encoding="utf-8") as f:
            summary[row] = json.load(f)["sets"]["eval"]["wer"]
    with open(out / "grid_summary.json", "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    return out


def cmd_evaluate(cfg: dict, checkpoint, data_dir, sets=("eval",), root=None) -> Path:
    model = load_checkpoint(checkpoint)
    corpora = load_corpora(data_dir)
    out = make_run_dir("evaluate", cfg, root)
    cap = cfg["decode"].get("max_symbols_per_frame", 5)

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
            "shift_n": cfg["distill"].get("shift_n", 0),
            "seed": cfg["seed"],
        },
    )
    return report_path


def cmd_sweep_shift(cfg: dict, data_dir, teacher_checkpoint, pseudo_label_file,
                    shifts=None, root=None) -> Path:
    kind = _distill_kind(cfg)
    if not kind.kind.is_soft:
        raise ConfigError("sweep-shift requires a soft distillation kind")
    if not cfg["student"]["encoder"].get("causal", False):
        raise ConfigError("sweep-shift expects a causal student encoder")
    teacher = load_checkpoint(teacher_checkpoint)
    if teacher.encoder.causal:
        raise ConfigError("sweep-shift expects a non-causal teacher")
    if shifts is None:
        shifts = list(range(0, 4))

    out = make_run_dir("sweep-shift", cfg, root)
    rows = []
    for n in shifts:
        run_cfg = json.loads(json.dumps(cfg))
        run_cfg["distill"]["shift_n"] = int(n)
        ckpt = cmd_distill(run_cfg, data_dir, teacher_checkpoint, pseudo_label_file, root=out)
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
