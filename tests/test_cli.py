import hashlib
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import transducer_distill
from transducer_distill.cli import (
    DEFAULT_CONFIG,
    GRID_ROWS,
    TEACHER_PRESETS,
    ConfigError,
    cmd_distill,
    cmd_distill_grid,
    cmd_evaluate,
    cmd_gen_data,
    cmd_pseudo_label,
    cmd_sweep_shift,
    cmd_train_teacher,
    config_hash,
    load_config,
    load_corpora,
    resolve_config,
)
from transducer_distill import cli
from transducer_distill import decode as decode_mod
from transducer_distill import distill as distill_mod
from transducer_distill.decode import DecodeError, read_pseudo_labels, write_pseudo_labels
from transducer_distill.lattice import LatticeError
from transducer_distill.model import (
    load_checkpoint, save_checkpoint, ModelError, TransducerModel, EncoderConfig,
)

from conftest import replace_header, rewrite_header, set_payload_value
from test_acceptance import RECIPES, workloads


SMOKE_OVERRIDES = [
    "data.vocab_size=3",
    "data.feat_dim=4",
    "data.num_supervised=6",
    "data.num_unsupervised=8",
    "data.num_eval=5",
    "data.label_len_range=[2,3]",
    "train.steps=5",
    "train.batch_size=4",
    "decode.beam=3",
    "decode.nbest=2",
    "student.encoder.hidden=6",
    "teacher.encoder.hidden=6",
]


SMOKE_SET_ARGS = [arg for item in SMOKE_OVERRIDES for arg in ("--set", item)]


def smoke_config(*extra):
    return load_config(overrides=SMOKE_OVERRIDES + list(extra))


# The directory that holds the package this test process imported. Child
# processes get it first on PYTHONPATH, as an absolute path, so they import
# the same package whatever their working directory.
SRC_DIR = Path(transducer_distill.__file__).resolve().parents[1]


def run_cli(*args, env=None, cwd=None):
    """Run ``python -m transducer_distill.cli *args`` in a child process."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "transducer_distill.cli", *args],
        capture_output=True, text=True, env=env, cwd=cwd,
    )


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One tiny end-to-end run shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("runs")
    cfg = smoke_config()
    data_dir = cmd_gen_data(cfg, root=root)
    teacher = cmd_train_teacher(cfg, data_dir, root=root)
    pseudo = cmd_pseudo_label(cfg, teacher, data_dir, root=root)
    return {"root": root, "cfg": cfg, "data_dir": data_dir,
            "teacher": teacher, "pseudo": pseudo}


class TestConfig:
    def test_defaults_load(self):
        cfg = load_config()
        assert cfg["schema_version"] == 1
        assert cfg["decode"]["beam"] == 8

    def test_override_paths(self):
        cfg = load_config(overrides=["train.lr=0.5", "distill.kind=soft_full"])
        assert cfg["train"]["lr"] == 0.5
        assert cfg["distill"]["kind"] == "soft_full"

    def test_file_merge(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"train": {"steps": 7}}))
        cfg = load_config(p)
        assert cfg["train"]["steps"] == 7
        assert cfg["train"]["lr"] == 0.15  # default preserved

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/cfg.json")

    def test_object_override_merges_like_a_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"distill": {"weights": {"supervised": 1.0}}}))
        from_set = load_config(overrides=['distill.weights={"supervised": 1.0}'])
        assert from_set == load_config(p)
        assert from_set["distill"]["weights"] == {"supervised": 1.0, "hard": 1.0, "distill": 1.0}

    def test_table_and_acceptance_configs_resolve(self):
        assert resolve_config(DEFAULT_CONFIG) == DEFAULT_CONFIG
        for name in RECIPES:
            recipe, _ = workloads.WORKLOADS[name].plan(0, scales=(1.0, 1.0))
            cfg = resolve_config(recipe)
            assert resolve_config(cfg) == cfg
            assert cfg["teacher"]["quality"] == recipe["teacher"]["quality"]

    def test_hash_is_stable_and_sensitive(self):
        a = load_config()
        b = load_config()
        assert config_hash(a) == config_hash(b)
        c = load_config(overrides=["seed=99"])
        assert config_hash(a) != config_hash(c)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="banana"):
            smoke_config("distill.kind=banana")

    def test_fsnorm_single_hypothesis_rejected(self):
        with pytest.raises(ConfigError, match="nbest"):
            smoke_config("distill.kind=fsnorm_l1", "decode.nbest=1")


class TestGenData:
    def test_writes_manifest_and_corpora(self, pipeline):
        data_dir = pipeline["data_dir"]
        manifest = json.loads((data_dir / "manifest.json").read_text())
        assert manifest["counts"] == {"supervised": 6, "unsupervised": 8, "eval": 5}
        for name in ("sup.jsonl", "unsup.jsonl", "unsup_refs.jsonl", "eval.jsonl"):
            assert (data_dir / name).exists()

    def test_rerun_is_byte_identical(self, pipeline):
        cfg = pipeline["cfg"]
        before = {
            p.name: p.read_bytes() for p in pipeline["data_dir"].iterdir()
        }
        again = cmd_gen_data(cfg, root=pipeline["root"])
        assert again == pipeline["data_dir"]
        for p in again.iterdir():
            assert p.read_bytes() == before[p.name]


class TestTrainTeacher:
    def test_zero_steps_equals_initialization(self, pipeline, tmp_path):
        cfg = smoke_config("train.steps=0")
        ckpt = cmd_train_teacher(cfg, pipeline["data_dir"], root=tmp_path)
        trained = load_checkpoint(ckpt)
        fresh = TransducerModel(
            trained.vocab_size, trained.feat_dim, trained.encoder, seed=cfg["seed"] + 7
        )
        import numpy as np

        for name in fresh.params:
            assert np.allclose(
                trained.params[name], fresh.params[name].astype("float32"), atol=1e-7
            )

    def test_preset_sets_width(self, pipeline, tmp_path):
        cfg = smoke_config()
        del cfg["teacher"]["encoder"]["hidden"]
        cfg["teacher"]["preset"] = "S"
        cfg["train"]["steps"] = 1
        ckpt = cmd_train_teacher(cfg, pipeline["data_dir"], root=tmp_path)
        assert load_checkpoint(ckpt).encoder.hidden == 12

    @pytest.mark.parametrize("overrides, hidden, quality", [
        ([], 28, TEACHER_PRESETS["L"]),
        (["teacher.preset=S"], 12, TEACHER_PRESETS["S"]),
        (["teacher.preset=S3"], 12, TEACHER_PRESETS["S3"]),
        (['teacher.quality={"size": "S", "label_noise_rate": 0.3}'], 12,
         {"size": "S", "supervised_fraction": 1.0, "label_noise_rate": 0.3}),
        (["teacher.preset=S", 'teacher.quality={"size": "L", "supervised_fraction": 0.5}'],
         12, TEACHER_PRESETS["S"]),
        (["teacher.encoder.hidden=6"], 6, TEACHER_PRESETS["L"]),
    ])
    def test_quality_and_width(self, pipeline, tmp_path, overrides, hidden, quality):
        """A named preset replaces ``teacher.quality``; a null encoder width
        is the width of the quality's size."""
        smoke = [o for o in SMOKE_OVERRIDES if not o.startswith("teacher.")]
        cfg = load_config(overrides=smoke + ["train.steps=0"] + overrides)
        assert cli._teacher_quality(cfg) == quality
        ckpt = cmd_train_teacher(cfg, pipeline["data_dir"], root=tmp_path)
        assert load_checkpoint(ckpt).encoder.hidden == hidden

    def test_subsample_and_label_noise_draw_their_own_seeds(self, pipeline, tmp_path,
                                                            monkeypatch):
        seeds = {}
        for name in ("subsample_corpus", "corrupt_labels"):
            def recording(*args, seed, real=getattr(cli.data_mod, name), name=name, **kwargs):
                seeds[name] = seed
                return real(*args, seed=seed, **kwargs)

            monkeypatch.setattr(cli.data_mod, name, recording)
        cfg = smoke_config("seed=5", "teacher.preset=S3", "train.steps=0")
        cmd_train_teacher(cfg, pipeline["data_dir"], root=tmp_path)
        assert seeds == {"subsample_corpus": 5 + 101, "corrupt_labels": 5 + 202}

    def test_unknown_preset_rejected(self, pipeline, tmp_path):
        cfg = smoke_config()
        cfg["teacher"]["preset"] = "XXL"
        with pytest.raises(ConfigError, match="XXL"):
            cmd_train_teacher(cfg, pipeline["data_dir"], root=tmp_path)


class TestTrainingLog:
    @pytest.mark.parametrize("command, log", [("train-teacher", "train_log.jsonl"),
                                              ("distill", "metrics.jsonl")])
    def test_failed_run_keeps_its_log_through_the_last_finished_step(
            self, pipeline, tmp_path, monkeypatch, command, log):
        real, results = cli.train_step, []

        def fails_at_step_3(*args):
            if len(results) == 3:
                raise RuntimeError("step 3 failed")
            results.append(real(*args))
            return results[-1]

        monkeypatch.setattr(cli, "train_step", fails_at_step_3)
        cfg = smoke_config("distill.kind=hard")
        with pytest.raises(RuntimeError, match="step 3 failed"):
            if command == "train-teacher":
                cmd_train_teacher(cfg, pipeline["data_dir"], root=tmp_path)
            else:
                cmd_distill(cfg, pipeline["data_dir"], pipeline["teacher"], pipeline["pseudo"],
                            root=tmp_path)
        [path] = tmp_path.glob(f"*/{log}")
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [sorted(r) for r in records] == [["step", "terms", "total"]] * 3
        assert [(r["step"], r["total"], r["terms"]) for r in records] == [
            (step, *result) for step, result in enumerate(results)]

    @pytest.mark.parametrize("command", ["train-teacher", "distill"])
    def test_each_step_reaches_combined_loss_through_its_module(self, pipeline, tmp_path,
                                                                monkeypatch, command):
        # a tracer times the loss by rebinding it in the distill module
        real, steps = distill_mod.combined_loss, []

        def counting(*args, **kwargs):
            steps.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(distill_mod, "combined_loss", counting)
        cfg = smoke_config("distill.kind=soft_efficient")
        if command == "train-teacher":
            cmd_train_teacher(cfg, pipeline["data_dir"], root=tmp_path)
        else:
            cmd_distill(cfg, pipeline["data_dir"], pipeline["teacher"], pipeline["pseudo"],
                        root=tmp_path)
        assert len(steps) == cfg["train"]["steps"] == 5
        assert all(len(batch) == cfg["train"]["batch_size"] for batch in steps)


class TestPseudoLabel:
    def test_covers_unsupervised_split(self, pipeline):
        records = read_pseudo_labels(pipeline["pseudo"])
        assert len(records) == 8
        for rec in records.values():
            assert 1 <= len(rec.nbest) <= 2
            assert 0 <= rec.target < len(rec.nbest)

    def test_rerun_is_byte_identical(self, pipeline):
        before = pipeline["pseudo"].read_bytes()
        again = cmd_pseudo_label(
            pipeline["cfg"], pipeline["teacher"], pipeline["data_dir"],
            root=pipeline["root"],
        )
        assert again.read_bytes() == before

    def test_fsnorm_requires_nbest(self, pipeline, tmp_path):
        cfg = smoke_config("distill.kind=fsnorm_l1")
        cfg["decode"]["nbest"] = 1  # a dict given straight to the command
        with pytest.raises(ConfigError, match="nbest"):
            cmd_pseudo_label(cfg, pipeline["teacher"], pipeline["data_dir"], root=tmp_path)
        assert not list(tmp_path.iterdir())

    def test_pseudo_label_is_the_beam_top_whatever_rescoring_prefers(self, pipeline, tmp_path,
                                                                     monkeypatch):
        lists, real = [], cli.beam_search

        def recording(*args):
            lists.extend(real(*args))
            return lists

        monkeypatch.setattr(cli, "beam_search", recording)
        # rescoring ranks the beam's hypotheses in reverse: the beam top scores 0
        monkeypatch.setattr(cli, "rescore_nbest",
                            lambda model, x, nbest: [float(i) for i in range(len(nbest))])
        records = read_pseudo_labels(cmd_pseudo_label(pipeline["cfg"], pipeline["teacher"],
                                                      pipeline["data_dir"], root=tmp_path))
        utts = load_corpora(pipeline["data_dir"])[0]["unsup"].utterances
        assert len(lists) == len(utts) and any(len(nbest) > 1 for nbest in lists)
        for utt, nbest in zip(utts, lists):
            rec = records[utt.utt_id]
            assert (rec.labels, rec.score) == (tuple(nbest[0][0]), 0.0)
            assert tuple(rec.nbest[0][0]) == tuple(nbest[-1][0])
            assert rec.nbest[0][1] == len(nbest) - 1

    def pseudo_label(self, pipeline, runs):
        return cli.main(["pseudo-label", "--data-dir", str(pipeline["data_dir"]),
                         "--checkpoint", str(pipeline["teacher"]), "--run-root", str(runs),
                         *SMOKE_SET_ARGS])

    @pytest.mark.parametrize("index", [0, 3])
    def test_rescoring_error_names_the_utterance(self, pipeline, tmp_path, monkeypatch, capsys,
                                                 index):
        bad = load_corpora(pipeline["data_dir"])[0]["unsup"].utterances[index]
        real = cli.rescore_nbest

        def failing(model, x, nbest):
            if np.array_equal(x, bad.frames):
                raise LatticeError("lattice holds non-finite values")
            return real(model, x, nbest)

        monkeypatch.setattr(cli, "rescore_nbest", failing)
        runs = tmp_path / "runs"
        assert self.pseudo_label(pipeline, runs) == 1
        assert capsys.readouterr().err == (
            f"error: utterance {bad.utt_id}: lattice holds non-finite values\n")
        assert not runs.exists()

    @pytest.mark.parametrize("error", [DecodeError, ModelError])
    @pytest.mark.parametrize("where", ["beam_search", "encode"])
    def test_decoder_error_exits_one(self, pipeline, tmp_path, monkeypatch, capsys, where, error):
        def failing(*args):
            raise error("cannot decode")

        if where == "beam_search":
            monkeypatch.setattr(cli, "beam_search", failing)
        else:
            monkeypatch.setattr(TransducerModel, "encode", failing)
        runs = tmp_path / "runs"
        assert self.pseudo_label(pipeline, runs) == 1
        assert capsys.readouterr().err == "error: cannot decode\n"
        assert not runs.exists()

    def test_program_error_is_not_swallowed(self, pipeline, tmp_path, monkeypatch):
        def broken(*args):
            raise TypeError("bug in the decoder")

        monkeypatch.setattr(cli, "beam_search", broken)
        with pytest.raises(TypeError, match="bug in the decoder"):
            cmd_pseudo_label(pipeline["cfg"], pipeline["teacher"],
                             pipeline["data_dir"], root=tmp_path)


class TestPseudoLabelParse:
    """Commands share the parse of a pseudo-label file while its bytes and the
    vocab size stay the same."""

    @pytest.fixture
    def parses(self, monkeypatch):
        monkeypatch.setattr(cli, "_LAST_PSEUDO_LABELS", {})
        calls = []
        real = decode_mod.read_records

        def counting(path, keys):
            calls.append(Path(path).name)
            return real(path, keys)

        monkeypatch.setattr(decode_mod, "read_records", counting)
        return calls

    def test_two_distill_runs_parse_once(self, pipeline, tmp_path, parses):
        for kind in ("hard", "fs_l1"):
            cmd_distill(smoke_config(f"distill.kind={kind}", "train.steps=1"),
                        pipeline["data_dir"], pipeline["teacher"], pipeline["pseudo"],
                        root=tmp_path)
        assert parses == ["pseudo_labels.jsonl"]

    def test_changed_file_is_parsed_again(self, pipeline, tmp_path, parses):
        records = cli.load_pseudo_labels(pipeline["pseudo"], 3)
        copy = tmp_path / "copy.jsonl"
        copy.write_bytes(pipeline["pseudo"].read_bytes())
        assert cli.load_pseudo_labels(copy, 3) is records
        assert len(parses) == 1
        first, *rest = records.values()
        write_pseudo_labels(copy, rest)
        assert set(cli.load_pseudo_labels(copy, 3)) == set(records) - {first.utt_id}
        assert len(parses) == 2
        cli.load_pseudo_labels(copy, 4)
        assert len(parses) == 3


# the types of a checkpoint header's encoder, as a message template gives them
ENCODER_TYPES = ("{{'causal': 'bool', 'left_context': 'int', 'right_context': 'int', "
                 "'subsample': 'int', 'hidden': 'int'}}")


class TestDistillAndEvaluate:
    @pytest.mark.parametrize("kind", ["hard", "fs_l1", "fsnorm_l1", "soft_efficient"])
    def test_kinds_run_end_to_end(self, pipeline, tmp_path, kind):
        cfg = smoke_config(f"distill.kind={kind}")
        ckpt = cmd_distill(cfg, pipeline["data_dir"], pipeline["teacher"],
                           pipeline["pseudo"], root=tmp_path)
        report = cmd_evaluate(cfg, ckpt, pipeline["data_dir"], root=tmp_path)
        payload = json.loads(report.read_text())
        assert "eval" in payload["sets"]
        assert payload["sets"]["eval"]["wer"] >= 0.0

    @pytest.mark.parametrize("weights", ["hard=1.0", "distill=1.0"])
    def test_missing_pseudo_label_rejected_before_training(self, pipeline, tmp_path,
                                                           monkeypatch, weights):
        records = read_pseudo_labels(pipeline["pseudo"])
        dropped = sorted(records)[-1]
        del records[dropped]
        partial = tmp_path / "partial.jsonl"
        write_pseudo_labels(partial, records.values())
        extra = ["distill.kind=fs_l1", "distill.weights.hard=0.0",
                 "distill.weights.distill=0.0", f"distill.weights.{weights}"]

        def no_training(*args):
            raise AssertionError("training started")

        monkeypatch.setattr(cli, "_train", no_training)
        with pytest.raises(ConfigError, match=f"no record for 1 unsupervised utterances, e.g. {dropped}"):
            cmd_distill(smoke_config(*extra), pipeline["data_dir"], pipeline["teacher"],
                        partial, root=tmp_path)
        assert not list(tmp_path.glob("distill-*"))
        exit_code = cli.main([
            "distill", "--data-dir", str(pipeline["data_dir"]),
            "--teacher", str(pipeline["teacher"]), "--pseudo-labels", str(partial),
            "--run-root", str(tmp_path), *SMOKE_SET_ARGS,
            *[arg for item in extra for arg in ("--set", item)],
        ])
        assert exit_code == 1

    def test_missing_pseudo_labels_allowed_without_pseudo_terms(self, pipeline, tmp_path):
        partial = tmp_path / "empty.jsonl"
        write_pseudo_labels(partial, [])
        cfg = smoke_config("distill.kind=hard", "distill.weights.hard=0.0",
                           "distill.weights.distill=0.0", "train.sup_fraction=1.0")
        assert cmd_distill(cfg, pipeline["data_dir"], pipeline["teacher"], partial,
                           root=tmp_path).exists()

    def test_soft_subsample_mismatch_rejected_before_training(self, pipeline, tmp_path):
        cfg = smoke_config("distill.kind=soft_efficient", "student.encoder.subsample=2")
        with pytest.raises(ConfigError, match="full-sum"):
            cmd_distill(cfg, pipeline["data_dir"], pipeline["teacher"],
                        pipeline["pseudo"], root=tmp_path)

    def test_fs_subsample_mismatch_runs(self, pipeline, tmp_path):
        cfg = smoke_config("distill.kind=fs_l1", "student.encoder.subsample=2")
        ckpt = cmd_distill(cfg, pipeline["data_dir"], pipeline["teacher"],
                           pipeline["pseudo"], root=tmp_path)
        assert ckpt.exists()

    def test_distill_rerun_reproduces_checkpoint(self, pipeline, tmp_path):
        cfg = smoke_config("distill.kind=hard")
        a = cmd_distill(cfg, pipeline["data_dir"], pipeline["teacher"],
                        pipeline["pseudo"], root=tmp_path)
        first = a.read_bytes()
        b = cmd_distill(cfg, pipeline["data_dir"], pipeline["teacher"],
                        pipeline["pseudo"], root=tmp_path)
        assert b.read_bytes() == first

    def test_evaluate_same_checkpoint_twice_identical(self, pipeline, tmp_path):
        cfg = smoke_config()
        r1 = cmd_evaluate(cfg, pipeline["teacher"], pipeline["data_dir"], root=tmp_path)
        first = r1.read_bytes()
        r2 = cmd_evaluate(cfg, pipeline["teacher"], pipeline["data_dir"], root=tmp_path)
        assert r2.read_bytes() == first

    def test_evaluate_run_dir_keyed_by_sets_and_checkpoint(self, pipeline, tmp_path):
        cfg, data_dir = smoke_config(), pipeline["data_dir"]
        unsup = cmd_evaluate(cfg, pipeline["teacher"], data_dir, sets=("unsup",), root=tmp_path)
        sup = cmd_evaluate(cfg, pipeline["teacher"], data_dir, sets=("sup",), root=tmp_path)
        assert unsup != sup
        assert list(json.loads(unsup.read_text())["sets"]) == ["unsup"]
        assert list(json.loads(sup.read_text())["sets"]) == ["sup"]

        model = load_checkpoint(pipeline["teacher"])
        model.params["out_b"][0] += 1.0
        other = tmp_path / "other.ckpt"
        save_checkpoint(model, other)
        first = cmd_evaluate(cfg, pipeline["teacher"], data_dir, sets=("unsup",), root=tmp_path)
        second = cmd_evaluate(cfg, other, data_dir, sets=("unsup",), root=tmp_path)
        assert first == unsup and second != first
        for report, ckpt in ((first, pipeline["teacher"]), (second, other)):
            metadata = json.loads(report.read_text())["metadata"]
            assert metadata["checkpoint"] == ckpt.name
            assert metadata["checkpoint_sha256"] == hashlib.sha256(ckpt.read_bytes()).hexdigest()
        assert len(list(tmp_path.glob("evaluate-*/report.json"))) == 3

    def test_report_bytes_do_not_depend_on_the_run_root(self, pipeline, tmp_path):
        cfg, data_dir = smoke_config(), pipeline["data_dir"]
        # the second run evaluates a copy of the checkpoint under its own root
        copy = tmp_path / "two" / pipeline["teacher"].name
        copy.parent.mkdir()
        shutil.copyfile(pipeline["teacher"], copy)
        reports = [cmd_evaluate(cfg, pipeline["teacher"], data_dir, root=tmp_path / "one"),
                   cmd_evaluate(cfg, copy, data_dir, root=tmp_path / "two")]
        assert reports[0] != reports[1]
        assert reports[0].read_bytes() == reports[1].read_bytes()

    def test_run_dirs_keyed_by_input_files(self, pipeline, tmp_path):
        cfg, data_dir = smoke_config(), pipeline["data_dir"]
        model = load_checkpoint(pipeline["teacher"])
        model.params["out_b"][0] += 1.0
        other = tmp_path / "other.ckpt"
        save_checkpoint(model, other)
        first = cmd_pseudo_label(cfg, pipeline["teacher"], data_dir, root=tmp_path)
        second = cmd_pseudo_label(cfg, other, data_dir, root=tmp_path)
        assert first.parent != second.parent
        assert first == cmd_pseudo_label(cfg, pipeline["teacher"], data_dir, root=tmp_path)
        assert len(list(tmp_path.glob("pseudo-label-*/pseudo_labels.jsonl"))) == 2

        hard = smoke_config("distill.kind=hard")
        a = cmd_distill(hard, data_dir, pipeline["teacher"], first, root=tmp_path)
        b = cmd_distill(hard, data_dir, pipeline["teacher"], second, root=tmp_path)
        assert a.parent != b.parent
        assert a == cmd_distill(hard, data_dir, pipeline["teacher"], first, root=tmp_path)

    def test_checkpoint_without_encoder_exits_one(self, pipeline, tmp_path):
        broken = tmp_path / "no-encoder.ckpt"
        broken.write_bytes(rewrite_header(pipeline["teacher"].read_bytes(),
                                          lambda header: header.pop("encoder")))
        with pytest.raises(ModelError, match="encoder"):
            load_checkpoint(broken)
        exit_code = cli.main([
            "evaluate", "--data-dir", str(pipeline["data_dir"]),
            "--checkpoint", str(broken), "--run-root", str(tmp_path), *SMOKE_SET_ARGS,
        ])
        assert exit_code == 1

    @pytest.mark.parametrize("command", ["evaluate", "pseudo-label", "distill"])
    @pytest.mark.parametrize("edit, message", [
        # the teacher's 334 float32 parameters
        (lambda raw: raw[:-6],
         "error: checkpoint {path}: payload holds 1330 bytes, not the 1336 of its header's model"),
        (lambda raw: raw + b"pad",
         "error: checkpoint {path}: payload holds 1339 bytes, not the 1336 of its header's model"),
        (lambda raw: raw[:-1] + bytes([raw[-1] ^ 1]),
         "error: checkpoint {path}: header and payload do not match the header's sha256"),
        # values that pass every byte check, sha256 included
        *((lambda raw, v=value: set_payload_value(raw, 7, v),
           "error: checkpoint {path}: payload holds a NaN or infinite value")
          for value in (float("nan"), float("inf"), -float("inf"))),
        # a value that changes no tensor's shape
        (lambda raw: rewrite_header(raw, lambda header: header["encoder"].update(subsample=2)),
         "error: checkpoint {path}: header and payload do not match the header's sha256"),
        (lambda raw: b"XXXXPT01" + raw[8:],
         "error: checkpoint {path}: not a checkpoint file (bad magic b'XXXXPT01')"),
        (lambda raw: raw[:10], "error: checkpoint {path}: header length field holds 2 of 4 bytes"),
        (lambda raw: rewrite_header(raw, lambda header: header.pop("sha256")),
         "error: checkpoint {path} header lacks the keys ['sha256']"),
        (lambda raw: rewrite_header(raw, lambda header: header.update(vocab_size="3")),
         "error: checkpoint {path} header: vocab_size must be an integer >= 1, got '3'"),
        (lambda raw: rewrite_header(raw, lambda header: header.update(vocab_size=3.0)),
         "error: checkpoint {path} header: vocab_size must be an integer >= 1, got 3.0"),
        (lambda raw: rewrite_header(raw, lambda header: header.update(feat_dim=0)),
         "error: checkpoint {path} header: feat_dim must be an integer >= 1, got 0"),
        (lambda raw: rewrite_header(raw, lambda header: header["encoder"].update(extra=1)),
         "error: checkpoint {path} header: encoder must be an object of types " + ENCODER_TYPES
         + ", got {{'causal': False, 'hidden': 6, 'left_context': 2, 'right_context': 2, "
         "'subsample': 1, 'extra': 1}}"),
        (lambda raw: rewrite_header(raw, lambda header: header.update(encoder="x")),
         "error: checkpoint {path} header: encoder must be an object of types " + ENCODER_TYPES
         + ", got 'x'"),
        (lambda raw: replace_header(raw, b"[1]"),
         "error: checkpoint {path} header must be a JSON object, not list"),
        # the first three equal 2 in Python but are not the integer 2; 1 is the retired format
        *((lambda raw, v=version: rewrite_header(raw, lambda header: header.update(
            format_version=v)),
           f"error: checkpoint {{path}} header: unsupported checkpoint version {version!r}")
          for version in (True, 2.0, "2", 1)),
    ], ids=["truncated", "padded", "flipped payload byte", "NaN value", "+inf value",
            "-inf value", "edited subsample", "bad magic",
            "short length field", "missing sha256", "string vocab_size", "float vocab_size",
            "zero feat_dim", "extra encoder key", "string encoder", "list header",
            "version true", "version 2.0", "version string 2", "version 1"])
    def test_damaged_checkpoint_exits_one(self, pipeline, tmp_path, capsys, command, edit,
                                          message):
        damaged = tmp_path / "damaged.ckpt"
        damaged.write_bytes(edit(pipeline["teacher"].read_bytes()))
        model_arg = ["--checkpoint"] if command != "distill" else [
            "--pseudo-labels", str(pipeline["pseudo"]), "--teacher"]
        exit_code = cli.main([command, "--data-dir", str(pipeline["data_dir"]), *model_arg,
                              str(damaged), "--run-root", str(tmp_path / "runs"),
                              *SMOKE_SET_ARGS])
        assert exit_code == 1
        assert capsys.readouterr().err.strip() == message.format(path=damaged)
        assert not (tmp_path / "runs").exists()

    def test_checkpoint_hash_is_of_the_parsed_bytes(self, pipeline):
        model = load_checkpoint(pipeline["teacher"])
        assert model.checkpoint_sha256 == hashlib.sha256(pipeline["teacher"].read_bytes()).hexdigest()

    def test_partial_config_takes_the_table_defaults(self, pipeline, tmp_path):
        """A partial dict given straight to ``cmd_*``: its distill section has
        no ``shift_n`` and still sends the retired ``nbest_size``."""
        full = smoke_config("distill.kind=hard")
        partial = dict(full)
        partial["distill"] = {"kind": "hard", "nbest_size": 2,
                              "weights": full["distill"]["weights"]}
        ckpt = cmd_distill(partial, pipeline["data_dir"], pipeline["teacher"],
                           pipeline["pseudo"], root=tmp_path)
        written = json.loads((ckpt.parent / "config.json").read_text())
        assert written == full
        assert written["distill"]["shift_n"] == DEFAULT_CONFIG["distill"]["shift_n"]
        assert ckpt == cmd_distill(full, pipeline["data_dir"], pipeline["teacher"],
                                   pipeline["pseudo"], root=tmp_path)
        report = cmd_evaluate(partial, ckpt, pipeline["data_dir"], root=tmp_path)
        assert json.loads(report.read_text())["metadata"]["shift_n"] == 0


class TestLoadCorpora:
    @staticmethod
    def copy_data(pipeline, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(pipeline["data_dir"], data)
        return data

    def test_same_bytes_share_one_parse_with_read_only_frames(self, pipeline, tmp_path):
        first, digests = load_corpora(pipeline["data_dir"])
        again, again_digests = load_corpora(self.copy_data(pipeline, tmp_path))
        assert again_digests == digests
        assert again is first
        utts = [u for name in ("sup", "unsup", "eval") for u in again[name].utterances]
        assert utts and not any(u.frames.flags.writeable for u in utts)
        with pytest.raises(ValueError, match="read-only"):
            utts[0].frames[0, 0] = 1.0

    @staticmethod
    def set_first_frame_value(path, value):
        """Rewrite the first frame value of the file's first record."""
        first, *rest = path.read_text().splitlines(keepends=True)
        record = json.loads(first)
        record["frames"][0][0] = value
        path.write_text("".join([json.dumps(record) + "\n", *rest]))

    def test_rewritten_file_is_parsed_again(self, pipeline, tmp_path):
        data = self.copy_data(pipeline, tmp_path)
        before, _ = load_corpora(data)
        self.set_first_frame_value(data / "eval.jsonl", 7.5)
        after, _ = load_corpora(data)
        assert after is not before
        assert after["eval"].utt_ids() == before["eval"].utt_ids()
        assert after["eval"].utterances[0].frames[0, 0] == 7.5
        assert before["eval"].utterances[0].frames[0, 0] != 7.5

    def test_rewritten_file_gets_a_new_run_dir(self, pipeline, tmp_path):
        data, runs, cfg = self.copy_data(pipeline, tmp_path), tmp_path / "runs", smoke_config()
        first = cmd_evaluate(cfg, pipeline["teacher"], data, root=runs)
        report = first.read_bytes()
        self.set_first_frame_value(data / "eval.jsonl", 7.5)
        second = cmd_evaluate(cfg, pipeline["teacher"], data, root=runs)
        assert second.parent != first.parent
        assert first.read_bytes() == report
        assert load_corpora(data)[0]["eval"].utterances[0].frames[0, 0] == 7.5

    @pytest.mark.parametrize("name, split", [("sup.jsonl", "supervised"),
                                             ("unsup.jsonl", "unsupervised"),
                                             ("unsup_refs.jsonl", "unsupervised"),
                                             ("eval.jsonl", "eval")])
    def test_file_cut_at_a_line_boundary_exits_one(self, pipeline, tmp_path, capsys, name,
                                                   split):
        data = self.copy_data(pipeline, tmp_path)
        path = data / name
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1]))
        exit_code = cli.main([
            "evaluate", "--data-dir", str(data), "--checkpoint", str(pipeline["teacher"]),
            "--run-root", str(tmp_path / "runs"), *SMOKE_SET_ARGS,
        ])
        assert exit_code == 1
        count = json.loads((data / "manifest.json").read_text())["counts"][split]
        assert count == len(lines)
        assert capsys.readouterr().err == (
            f"error: {path} holds {count - 1} records, but corpus manifest "
            f"{data / 'manifest.json'} counts {count}\n")
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("edit", [lambda m: m.pop("counts"),
                                      lambda m: m["counts"].pop("eval"),
                                      lambda m: m["counts"].update(supervised="6")],
                             ids=["no counts", "no eval count", "string count"])
    def test_manifest_without_a_count_exits_one(self, pipeline, tmp_path, capsys, edit):
        data = self.copy_data(pipeline, tmp_path)
        manifest = json.loads((data / "manifest.json").read_text())
        edit(manifest)
        (data / "manifest.json").write_text(json.dumps(manifest))
        exit_code = cli.main([
            "evaluate", "--data-dir", str(data), "--checkpoint", str(pipeline["teacher"]),
            "--run-root", str(tmp_path / "runs"), *SMOKE_SET_ARGS,
        ])
        assert exit_code == 1
        assert capsys.readouterr().err == (
            f"error: corpus manifest {data / 'manifest.json'} must give the integer record "
            f"counts of supervised, unsupervised and eval\n")
        assert not (tmp_path / "runs").exists()

    def test_truncated_file_exits_one(self, pipeline, tmp_path, capsys):
        data = self.copy_data(pipeline, tmp_path)
        load_corpora(data)
        path = data / "eval.jsonl"
        path.write_bytes(path.read_bytes()[:-10])  # cuts into the last record
        exit_code = cli.main([
            "evaluate", "--data-dir", str(data), "--checkpoint", str(pipeline["teacher"]),
            "--run-root", str(tmp_path / "runs"), *SMOKE_SET_ARGS,
        ])
        assert exit_code == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("drop", ["files", "eval"])
    def test_manifest_without_a_file_exits_one(self, pipeline, tmp_path, capsys, drop):
        data = self.copy_data(pipeline, tmp_path)
        manifest = json.loads((data / "manifest.json").read_text())
        del (manifest if drop == "files" else manifest["files"])[drop]
        (data / "manifest.json").write_text(json.dumps(manifest))
        exit_code = cli.main([
            "evaluate", "--data-dir", str(data), "--checkpoint", str(pipeline["teacher"]),
            "--run-root", str(tmp_path / "runs"), *SMOKE_SET_ARGS,
        ])
        assert exit_code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: corpus manifest") and "must name the files" in err, err


class TestEmptyUnsupervisedCorpus:
    @pytest.fixture
    def data(self, pipeline, tmp_path):
        """The pipeline's corpus with no unsupervised utterance."""
        data = tmp_path / "data"
        shutil.copytree(pipeline["data_dir"], data)
        for name in ("unsup.jsonl", "unsup_refs.jsonl"):
            (data / name).write_text("")
        manifest = json.loads((data / "manifest.json").read_text())
        manifest["counts"]["unsupervised"] = 0
        (data / "manifest.json").write_text(json.dumps(manifest))
        return data

    def distill(self, pipeline, data, tmp_path, *overrides):
        """``distill`` with each override set, or given as a flag where it is one."""
        return cli.main([
            "distill", "--data-dir", str(data), "--teacher", str(pipeline["teacher"]),
            "--pseudo-labels", str(pipeline["pseudo"]), "--run-root", str(tmp_path / "runs"),
            *SMOKE_SET_ARGS, *(a for item in overrides
                               for a in ([item] if item.startswith("--") else ["--set", item])),
        ])

    def test_supervised_only_student_trains(self, pipeline, data, tmp_path, capsys):
        exit_code = self.distill(pipeline, data, tmp_path, "train.sup_fraction=1.0",
                                 "distill.weights.hard=0", "distill.weights.distill=0")
        out, err = capsys.readouterr()
        assert exit_code == 0, err
        assert out.strip().endswith("student.ckpt")

    @pytest.mark.parametrize("overrides", [["distill.kind=soft_efficient"], ["--grid"]],
                             ids=["soft row", "grid"])
    def test_row_drawing_unsupervised_batches_exits_one(self, pipeline, data, tmp_path, capsys,
                                                        overrides):
        exit_code = self.distill(pipeline, data, tmp_path, *overrides)
        assert exit_code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unsupervised corpus is empty"), err
        assert not (tmp_path / "runs").exists()  # the grid's student row trains on sup alone


class TestDistillGrid:
    def test_grid_runs_each_row_and_summarizes_its_wer(self, pipeline, tmp_path, capsys):
        exit_code = cli.main([
            "distill", "--grid", "--data-dir", str(pipeline["data_dir"]),
            "--teacher", str(pipeline["teacher"]), "--pseudo-labels", str(pipeline["pseudo"]),
            "--run-root", str(tmp_path), *SMOKE_SET_ARGS,
        ])
        assert exit_code == 0
        out = Path(capsys.readouterr().out.strip())
        summary = json.loads((out / "grid_summary.json").read_text())
        assert sorted(summary) == sorted(GRID_ROWS)
        # a row's distill and evaluate directories are named by its config
        hashes = {name: config_hash(resolve_config(cli._deep_merge(pipeline["cfg"], overrides)))
                  for name, overrides in GRID_ROWS.items()}
        for name, row_hash in hashes.items():
            [report] = out.glob(f"evaluate-{row_hash}-*/report.json")
            assert summary[name] == json.loads(report.read_text())["sets"]["eval"]["wer"]
        [config] = out.glob(f"distill-{hashes['student']}-*/config.json")
        student = json.loads(config.read_text())
        assert student["train"]["sup_fraction"] == 1.0
        assert student["distill"]["weights"] == {"supervised": 1.0, "hard": 0.0, "distill": 0.0}


class TestSweepShift:
    def test_requires_soft_kind(self, pipeline, tmp_path):
        cfg = smoke_config("distill.kind=fs_l1")
        with pytest.raises(ConfigError, match="soft"):
            cmd_sweep_shift(cfg, pipeline["data_dir"], pipeline["teacher"],
                            pipeline["pseudo"], root=tmp_path)

    def test_emits_one_row_per_shift(self, pipeline, tmp_path):
        cfg = smoke_config(
            "distill.kind=soft_efficient",
            "student.encoder.causal=true",
            "student.encoder.right_context=0",
            "student.encoder.left_context=3",
        )
        table = cmd_sweep_shift(cfg, pipeline["data_dir"], pipeline["teacher"],
                                pipeline["pseudo"], shifts=[0, 1, 2], root=tmp_path)
        assert table.name == "shift_sweep.json"
        assert [row["shift"] for row in json.loads(table.read_text())["rows"]] == [0, 1, 2]

    def test_default_shifts_are_zero_to_three(self, pipeline, tmp_path, monkeypatch):
        rows = []
        monkeypatch.setattr(cli, "run_rows", lambda cfg, table, *args, **kwargs: (
            rows.append(table) or {n: 0.5 for n in table}))
        cfg = smoke_config("distill.kind=soft_efficient", "student.encoder.causal=true",
                           "student.encoder.right_context=0")
        table = cmd_sweep_shift(cfg, pipeline["data_dir"], pipeline["teacher"],
                                pipeline["pseudo"], root=tmp_path)
        assert rows == [{n: {"distill": {"shift_n": n}} for n in range(4)}]
        assert json.loads(table.read_text())["rows"] == [{"shift": n, "wer": 0.5} for n in range(4)]

    SOFT_CAUSAL = ["--set", "distill.kind=soft_efficient", "--set", "student.encoder.causal=true",
                   "--set", "student.encoder.right_context=0"]

    def shift_args(self, pipeline, tmp_path, command):
        return [command, "--data-dir", str(pipeline["data_dir"]),
                "--teacher", str(pipeline["teacher"]), "--pseudo-labels", str(pipeline["pseudo"]),
                "--run-root", str(tmp_path), *SMOKE_SET_ARGS, *self.SOFT_CAUSAL]

    @staticmethod
    def shortest_unsup(pipeline):
        utts = load_corpora(pipeline["data_dir"])[0]["unsup"].utterances
        return min(utts, key=lambda u: len(u.frames))

    @pytest.mark.parametrize("shifts", [[0, 1.5], [0, 1, 1], [True]])
    def test_duplicate_or_non_integer_shifts_rejected_before_training(
            self, pipeline, tmp_path, monkeypatch, shifts):
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(cli, "cmd_distill", no_training)
        cfg = smoke_config("distill.kind=soft_efficient", "student.encoder.causal=true",
                           "student.encoder.right_context=0")
        with pytest.raises(ConfigError, match="distinct integer shifts"):
            cmd_sweep_shift(cfg, pipeline["data_dir"], pipeline["teacher"],
                            pipeline["pseudo"], shifts=shifts, root=tmp_path)
        assert not list(tmp_path.iterdir())

    def test_negative_max_shift_exits_one(self, pipeline, tmp_path, capsys):
        args = self.shift_args(pipeline, tmp_path, "sweep-shift") + ["--max-shift", "-1"]
        assert cli.main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--max-shift" in err, err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["sweep-shift", "distill"])
    def test_shift_past_shortest_utterance_exits_one_before_training(
            self, pipeline, tmp_path, capsys, command):
        short = self.shortest_unsup(pipeline)
        frames = len(short.frames)  # the teacher does not subsample
        args = self.shift_args(pipeline, tmp_path, command)
        args += (["--max-shift", str(frames)] if command == "sweep-shift"
                 else ["--set", f"distill.shift_n={frames}"])
        assert cli.main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: shift {frames} >= {frames} teacher frames"), err
        assert short.utt_id in err
        assert not list(tmp_path.iterdir())

    def test_causal_teacher_exits_one_before_making_a_run_dir(self, pipeline, tmp_path, capsys):
        teacher, runs = tmp_path / "causal.ckpt", tmp_path / "runs"
        encoder = EncoderConfig(causal=True, left_context=2, right_context=0, subsample=1,
                                hidden=6)
        save_checkpoint(TransducerModel(vocab_size=3, feat_dim=4, encoder=encoder), teacher)
        args = self.shift_args(pipeline, runs, "sweep-shift")
        args[args.index("--teacher") + 1] = str(teacher)
        assert cli.main(args) == 1
        assert capsys.readouterr().err == "error: sweep-shift expects a non-causal teacher\n"
        assert not runs.exists()

    def test_shift_below_shortest_utterance_trains(self, pipeline, tmp_path, capsys):
        frames = len(self.shortest_unsup(pipeline).frames)
        args = self.shift_args(pipeline, tmp_path, "distill")
        assert cli.main(args + ["--set", f"distill.shift_n={frames - 1}"]) == 0
        assert capsys.readouterr().out.strip().endswith("student.ckpt")

    @pytest.mark.parametrize("command", ["grid", "sweep"])
    def test_builds_each_teacher_lattice_once(self, pipeline, tmp_path, monkeypatch, command):
        builds = Counter()
        real_load = cli.load_checkpoint

        def load(path):
            model = real_load(path)
            if Path(path) == Path(pipeline["teacher"]):
                build = model.build_lattice

                def counted(x, y):
                    builds[(np.asarray(x).tobytes(), tuple(y))] += 1
                    return build(x, y)

                model.build_lattice = counted
            return model

        monkeypatch.setattr(cli, "load_checkpoint", load)
        cfg = smoke_config(
            "distill.kind=soft_efficient",
            "student.encoder.causal=true",
            "student.encoder.right_context=0",
            "student.encoder.left_context=3",
        )
        if command == "grid":  # the rows hard_soft and soft are soft
            cmd_distill_grid(cfg, pipeline["data_dir"], pipeline["teacher"],
                             pipeline["pseudo"], root=tmp_path)
        else:
            cmd_sweep_shift(cfg, pipeline["data_dir"], pipeline["teacher"],
                            pipeline["pseudo"], shifts=[0, 1, 2], root=tmp_path)
        unsup = load_corpora(pipeline["data_dir"])[0]["unsup"].utterances
        built = [x for x, _ in builds]
        # 5 steps of about 4 unsupervised utterances per soft row visit each
        # of the 8 utterances several times; each lattice is built on the first
        assert set(builds.values()) == {1}
        assert len(set(built)) == len(built)
        assert set(built) <= {u.frames.tobytes() for u in unsup}


class TestRowsCheckedBeforeTheRunDir:
    """``distill --grid`` and ``sweep-shift`` check the inputs of every row
    before they make their run directory, so a row that cannot run stops the
    command before any student trains."""

    # case: (command, its overrides, the pseudo-label file's edit, what the error says)
    CASES = {
        "grid, nbest 1, 1-best labels": (["distill", "--grid"], ["decode.nbest=1"], "1-best",
                                         "decode.nbest >= 2"),
        "grid, 1-best labels": (["distill", "--grid"], [], "1-best",
                                "no N-best list (>=2 hypotheses) for 8 utterances"),
        "grid, a record missing": (["distill", "--grid"], [], "drop",
                                   "no record for 1 unsupervised utterances"),
        "sweep, student subsample 2": (
            ["sweep-shift"], ["distill.kind=soft_efficient", "student.encoder.causal=true",
                              "student.encoder.right_context=0", "student.encoder.subsample=2"],
            None, "soft distillation requires equal time subsampling, got teacher 1 vs student 2"),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_bad_row_exits_one_with_no_run_dir(self, pipeline, tmp_path, monkeypatch, capsys,
                                               case):
        command, overrides, edit, message = self.CASES[case]
        records = list(read_pseudo_labels(pipeline["pseudo"]).values())
        if edit == "1-best":
            records = [decode_mod.PseudoLabelRecord(r.utt_id, [(r.labels, r.score)], 0)
                       for r in records]
        elif edit == "drop":
            records = records[:-1]
        pseudo = tmp_path / "pseudo.jsonl"
        write_pseudo_labels(pseudo, records)

        def no_training(*args):
            raise AssertionError("training started")

        monkeypatch.setattr(cli, "_train", no_training)
        runs = tmp_path / "runs"
        exit_code = cli.main([
            *command, "--data-dir", str(pipeline["data_dir"]),
            "--teacher", str(pipeline["teacher"]), "--pseudo-labels", str(pseudo),
            "--run-root", str(runs), *SMOKE_SET_ARGS,
            *(a for item in overrides for a in ("--set", item))])
        err = capsys.readouterr().err
        assert exit_code == 1, err
        assert err.startswith("error:") and message in err, err
        assert not runs.exists()


class TestModelMatchesCorpus:
    """Each command checks the model it runs or builds against the corpus
    manifest's vocab_size and feat_dim before it makes its run directory."""

    # command: (its arguments, the mismatched source, the dimension and its value)
    CASES = {
        "evaluate": (["evaluate", "--checkpoint", "model"], "checkpoint", "feat_dim", 5),
        "pseudo-label": (["pseudo-label", "--checkpoint", "model"], "checkpoint", "vocab_size", 4),
        "train-teacher": (["train-teacher"], "config", "vocab_size", 4),
        "distill": (["distill", "--teacher", "model", "--pseudo-labels", "pseudo"],
                    "teacher checkpoint", "feat_dim", 5),
        "distill grid": (["distill", "--grid", "--teacher", "teacher", "--pseudo-labels",
                          "pseudo"], "config", "feat_dim", 5),
        "sweep-shift": (["sweep-shift", "--teacher", "model", "--pseudo-labels", "pseudo",
                         *TestSweepShift.SOFT_CAUSAL], "teacher checkpoint", "vocab_size", 4),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_mismatch_exits_one_before_making_a_run_dir(self, pipeline, tmp_path, capsys, case):
        args, source, dim, value = self.CASES[case]
        corpus = {"vocab_size": 3, "feat_dim": 4}
        model = tmp_path / "model.ckpt"
        encoder = EncoderConfig(causal=False, left_context=2, right_context=2, subsample=1,
                                hidden=6)
        save_checkpoint(TransducerModel(**{**corpus, dim: value}, encoder=encoder), model)
        files = {"model": str(model), "teacher": str(pipeline["teacher"]),
                 "pseudo": str(pipeline["pseudo"])}
        overrides = ["--set", f"data.{dim}={value}"] if source == "config" else []
        runs = tmp_path / "runs"
        exit_code = cli.main([*(files.get(a, a) for a in args), "--data-dir",
                              str(pipeline["data_dir"]), "--run-root", str(runs),
                              *SMOKE_SET_ARGS, *overrides])
        assert exit_code == 1
        name = "config section data" if source == "config" else f"{source} {model}"
        manifest = pipeline["data_dir"] / "manifest.json"
        assert capsys.readouterr().err == (
            f"error: {name} has {dim} {value}, but corpus manifest {manifest} has {corpus[dim]}\n")
        assert not runs.exists()


class TestCommandSurface:
    """Each argv form of each command, pinned to its parsed arguments and to
    the ``cmd_*`` call that ``main`` makes; stubs stand in for the commands."""

    COMMON = {"config": None, "overrides": [], "run_root": None}
    TEACHER_INPUTS = ["--data-dir", "D", "--teacher", "T", "--pseudo-labels", "P"]
    TEACHER_VARS = {"data_dir": "D", "teacher": "T", "pseudo_labels": "P"}

    # id: (argv, vars(args) beyond COMMON, the call: cmd_* name, positional
    # arguments after the config, keywords); in argv "SMOKE" stands for
    # SMOKE_SET_ARGS and "CONFIG" for the path of a config file
    SURFACE = {
        "gen-data": (["gen-data"], {}, ("cmd_gen_data", (), {"root": None})),
        "gen-data set": (["gen-data", "SMOKE", "--run-root", "R"], {},
                         ("cmd_gen_data", (), {"root": "R"})),
        "gen-data config": (["gen-data", "--config", "CONFIG"], {"config": "CONFIG"},
                            ("cmd_gen_data", (), {"root": None})),
        "train-teacher": (["train-teacher", "--data-dir", "D"], {"data_dir": "D"},
                          ("cmd_train_teacher", ("D",), {"root": None})),
        "train-teacher preset": (
            ["train-teacher", "--data-dir", "D", "--set", "teacher.preset=S3", "--run-root", "R",
             "SMOKE"], {"data_dir": "D"}, ("cmd_train_teacher", ("D",), {"root": "R"})),
        "pseudo-label": (["pseudo-label", "--data-dir", "D", "--checkpoint", "C"],
                         {"data_dir": "D", "checkpoint": "C"},
                         ("cmd_pseudo_label", ("C", "D"), {"root": None})),
        "pseudo-label set": (
            ["pseudo-label", "--checkpoint", "C", "--data-dir", "D", "--run-root", "R", "SMOKE"],
            {"data_dir": "D", "checkpoint": "C"}, ("cmd_pseudo_label", ("C", "D"), {"root": "R"})),
        "distill": (["distill", *TEACHER_INPUTS], {**TEACHER_VARS, "grid": False},
                    ("cmd_distill", ("D", "T", "P"), {"root": None})),
        "distill set": (["distill", *TEACHER_INPUTS, "--run-root", "R", "SMOKE"],
                        {**TEACHER_VARS, "grid": False},
                        ("cmd_distill", ("D", "T", "P"), {"root": "R"})),
        "distill grid": (["distill", "--grid", *TEACHER_INPUTS, "--run-root", "R", "SMOKE"],
                         {**TEACHER_VARS, "grid": True},
                         ("cmd_distill_grid", ("D", "T", "P"), {"root": "R"})),
        "evaluate": (["evaluate", "--data-dir", "D", "--checkpoint", "C"],
                     {"data_dir": "D", "checkpoint": "C", "sets": None},
                     ("cmd_evaluate", ("C", "D"), {"sets": None, "root": None})),
        "evaluate sets": (
            ["evaluate", "--data-dir", "D", "--checkpoint", "C", "SMOKE", "--sets", "unsup",
             "--run-root", "R"],
            {"data_dir": "D", "checkpoint": "C", "sets": ["unsup"]},
            ("cmd_evaluate", ("C", "D"), {"sets": ["unsup"], "root": "R"})),
        "evaluate two sets": (
            ["evaluate", "--data-dir", "D", "--checkpoint", "C", "--sets", "sup", "eval"],
            {"data_dir": "D", "checkpoint": "C", "sets": ["sup", "eval"]},
            ("cmd_evaluate", ("C", "D"), {"sets": ["sup", "eval"], "root": None})),
        "sweep-shift": (["sweep-shift", *TEACHER_INPUTS], {**TEACHER_VARS, "max_shift": None},
                        ("cmd_sweep_shift", ("D", "T", "P"), {"shifts": None, "root": None})),
        "sweep-shift max-shift": (
            ["sweep-shift", *TEACHER_INPUTS, "--run-root", "R", "SMOKE", "--max-shift", "1"],
            {**TEACHER_VARS, "max_shift": 1},
            ("cmd_sweep_shift", ("D", "T", "P"), {"shifts": [0, 1], "root": "R"})),
        "sweep-shift negative": (
            ["sweep-shift", *TEACHER_INPUTS, "--max-shift", "-1"], {**TEACHER_VARS, "max_shift": -1},
            ("cmd_sweep_shift", ("D", "T", "P"), {"shifts": [], "root": None})),
    }

    @pytest.mark.parametrize("case", list(SURFACE))
    def test_argv_maps_to_args_and_call(self, tmp_path, monkeypatch, capsys, case):
        argv, extra, (name, args, kwargs) = self.SURFACE[case]
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"train": {"steps": 7}}))
        argv = [a for arg in argv
                for a in (SMOKE_SET_ARGS if arg == "SMOKE" else [arg])]
        argv = [str(config) if a == "CONFIG" else a for a in argv]
        calls = []

        def stub(command):
            def record(*args, **kwargs):
                calls.append((command, args, kwargs))
                return Path("out")
            return record

        for command in ("cmd_gen_data", "cmd_train_teacher", "cmd_pseudo_label", "cmd_distill",
                        "cmd_distill_grid", "cmd_evaluate", "cmd_sweep_shift"):
            monkeypatch.setattr(cli, command, stub(command))
        parsed = vars(cli.build_parser().parse_args(argv))
        want = {**self.COMMON, "command": argv[0], **extra}
        want["overrides"] = [value for flag, value in zip(argv, argv[1:]) if flag == "--set"]
        if "--run-root" in argv:
            want["run_root"] = "R"
        if "config" in extra:
            want["config"] = str(config)
        assert parsed == want
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == "out\n"
        cfg = load_config(want["config"], want["overrides"])
        assert calls == [(name, (cfg, *args), kwargs)]


class TestExitCodes:
    def test_success_exit_zero(self, tmp_path):
        result = run_cli("gen-data", "--run-root", str(tmp_path), *SMOKE_SET_ARGS)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip()

    @pytest.mark.parametrize("args, key", [
        (["--set", "data.vocab_size=0"], "vocab_size"),
        (["--set", "train.stpes=999"], "train.stpes"),
        (["--set", "data.num_supervised=abc"], "data.num_supervised"),
        (["--set", "train.lr=fast"], "train.lr"),
        (["--set", "decode.beam=true"], "decode.beam"),
        (["--set", "teacher.encoder=5"], "teacher.encoder"),
        (["--sets", "manifest"], "manifest"),
    ], ids=["vocab_size=0", "stpes=999", "num_supervised=abc", "lr=fast", "beam=true",
            "encoder=5", "sets=manifest"])
    def test_validation_error_exit_one(self, pipeline, tmp_path, args, key):
        if args[0] == "--sets":  # evaluate a set that the corpora lack
            args = ["evaluate", "--data-dir", str(pipeline["data_dir"]),
                    "--checkpoint", str(pipeline["teacher"]), *SMOKE_SET_ARGS, *args]
        else:
            args = ["gen-data", *args]
        result = run_cli(*args, "--run-root", str(tmp_path))
        assert result.returncode == 1, result.stderr
        assert result.stderr.startswith("error:") and key in result.stderr, result.stderr
        assert not list(tmp_path.glob("evaluate-*"))

    # malformed input records: (command, edited file, edit of its first
    # record, what the message says after "<file>:1: ")
    BAD_RECORDS = {
        "pseudo label without nbest": (
            "distill", "pseudo", lambda r: r.pop("nbest"), "lacks the keys ['nbest']"),
        "pseudo label out of range": (
            "distill", "pseudo", lambda r: r.update(labels=[99]), "leave the range [0, 3)"),
        "non-finite score": (
            "distill", "pseudo", lambda r: r.update(score=float("nan")), "non-finite score"),
        "string score": (
            "distill", "pseudo", lambda r: r.update(score="-1.5"), "every score must be a number"),
        "score beyond the float range": (
            "distill", "pseudo", lambda r: r.update(score=10**400), "too large for a float"),
        "pseudo label utt_id not a string": (
            "distill", "pseudo", lambda r: r.update(utt_id=3), "utt_id must be a string, got 3"),
        "corpus utt_id not a string": (
            "train-teacher", "sup.jsonl", lambda r: r.update(utt_id=None),
            "utt_id must be a string, got None"),
        "pseudo label outside its N-best list": (
            "distill", "pseudo", lambda r: r.update(labels=[*r["labels"], 0, 0, 0]),
            "is not one of its N-best pairs"),
        "N-best list repeating a hypothesis": (
            "distill", "pseudo", lambda r: r["nbest"].append(r["nbest"][-1]),
            "the N-best list repeats a hypothesis"),
        "pseudo label's score off its N-best entry": (
            "distill", "pseudo", lambda r: r.update(score=r["score"] - 5),
            "is not one of its N-best pairs"),
        "N-best entry's score off the pseudo label's": (
            "distill", "pseudo", lambda r: [e.update(score=e["score"] - 3) for e in r["nbest"]
                                            if e["labels"] == r["labels"]],
            "is not one of its N-best pairs"),
        "corpus record without frames": (
            "train-teacher", "sup.jsonl", lambda r: r.pop("frames"), "lacks the keys ['frames']"),
        "frame row of width 5": (
            "train-teacher", "sup.jsonl", lambda r: r["frames"][0].append(0.5),
            "rows of 4 finite numbers"),
        "frames of width 5": (
            "train-teacher", "sup.jsonl", lambda r: [row.append(0.5) for row in r["frames"]],
            "rows of 4 finite numbers"),
        "no frames": ("train-teacher", "sup.jsonl", lambda r: r.update(frames=[]), "one or more rows"),
        "frame value beyond the float range": (
            "train-teacher", "sup.jsonl", lambda r: r["frames"][0].__setitem__(0, 10**400),
            "rows of 4 finite numbers"),
        "frame value true": (
            "train-teacher", "sup.jsonl", lambda r: r["frames"][0].__setitem__(0, True),
            "rows of 4 finite numbers"),
        "frame value a numeric string": (
            "train-teacher", "sup.jsonl", lambda r: r["frames"][0].__setitem__(0, "0.5"),
            "rows of 4 finite numbers"),
        "supervised record without labels": (
            "train-teacher", "sup.jsonl", lambda r: r.pop("labels"), "lacks the keys ['labels']"),
        "eval record without labels": (
            "train-teacher", "eval.jsonl", lambda r: r.pop("labels"), "lacks the keys ['labels']"),
        "unsupervised record with labels": (
            "train-teacher", "unsup.jsonl", lambda r: r.update(labels=[0]),
            "a record of the unlabelled unsup split holds labels"),
        "corpus label out of range": (
            "train-teacher", "sup.jsonl", lambda r: r.update(labels=[3]), "leave the range [0, 3)"),
        "reference labels not integers": (
            "train-teacher", "unsup_refs.jsonl", lambda r: r.update(labels=[1.5]),
            "labels must be a list of integers"),
    }

    @pytest.mark.parametrize("defect", sorted(BAD_RECORDS))
    def test_bad_record_exits_one_before_making_a_run_dir(self, pipeline, tmp_path, capsys,
                                                          defect):
        command, name, edit, message = self.BAD_RECORDS[defect]
        data = tmp_path / "data"
        shutil.copytree(pipeline["data_dir"], data)
        path = data / name
        if name == "pseudo":
            path = shutil.copyfile(pipeline["pseudo"], tmp_path / "pseudo.jsonl")
        first, *rest = path.read_text().splitlines(keepends=True)
        record = json.loads(first)
        edit(record)
        path.write_text("".join([json.dumps(record) + "\n", *rest]))
        inputs = (["--teacher", str(pipeline["teacher"]), "--pseudo-labels", str(path)]
                  if command == "distill" else [])
        runs = tmp_path / "runs"
        exit_code = cli.main([command, "--data-dir", str(data), *inputs,
                              "--run-root", str(runs), *SMOKE_SET_ARGS])
        assert exit_code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:1: ") and message in err, err
        assert not runs.exists()

    def test_config_root_not_an_object_exits_one(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("[1]")
        runs = tmp_path / "runs"
        exit_code = cli.main(["gen-data", "--config", str(config), "--run-root", str(runs)])
        assert exit_code == 1
        err = capsys.readouterr().err
        assert err == f"error: config file {config}: root must be a JSON object, not list\n", err
        assert not runs.exists()

    # (command and its extra arguments, file whose line 2 takes line 1's utt_id)
    REPEATED_IDS = {
        "pseudo-label": (["pseudo-label", "--checkpoint", "teacher"], "unsup.jsonl"),
        "evaluate unsup": (["evaluate", "--checkpoint", "teacher", "--sets", "unsup"],
                           "unsup.jsonl"),
        "evaluate eval": (["evaluate", "--checkpoint", "teacher"], "eval.jsonl"),
        "train-teacher sup": (["train-teacher"], "sup.jsonl"),
        "train-teacher refs": (["train-teacher"], "unsup_refs.jsonl"),
        "soft distill": (["distill", "--teacher", "teacher", "--pseudo-labels", "pseudo",
                          "--set", "distill.kind=soft_efficient"], "unsup.jsonl"),
        "distill pseudo labels": (["distill", "--teacher", "teacher", "--pseudo-labels",
                                   "pseudo"], "pseudo"),
        "grid pseudo labels": (["distill", "--grid", "--teacher", "teacher", "--pseudo-labels",
                                "pseudo"], "pseudo"),
        "sweep-shift pseudo labels": (["sweep-shift", "--teacher", "teacher", "--pseudo-labels",
                                       "pseudo", *TestSweepShift.SOFT_CAUSAL], "pseudo"),
    }

    @pytest.mark.parametrize("case", sorted(REPEATED_IDS))
    def test_repeated_utt_id_exits_one_before_making_a_run_dir(self, pipeline, tmp_path,
                                                               capsys, case):
        args, name = self.REPEATED_IDS[case]
        data = tmp_path / "data"
        shutil.copytree(pipeline["data_dir"], data)
        pseudo = shutil.copyfile(pipeline["pseudo"], tmp_path / "pseudo.jsonl")
        path = pseudo if name == "pseudo" else data / name
        first, second, *rest = path.read_text().splitlines(keepends=True)
        utt_id = json.loads(first)["utt_id"]
        record = dict(json.loads(second), utt_id=utt_id)
        path.write_text("".join([first, json.dumps(record) + "\n", *rest]))
        files = {"teacher": str(pipeline["teacher"]), "pseudo": str(pseudo)}
        runs = tmp_path / "runs"
        exit_code = cli.main([*(files.get(a, a) for a in args), "--data-dir", str(data),
                              "--run-root", str(runs), *SMOKE_SET_ARGS])
        assert exit_code == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}:2: utt_id {utt_id!r} repeats line 1\n", err
        assert not runs.exists()

    @pytest.mark.parametrize("args", [["train-teacher"],
                                      ["evaluate", "--checkpoint", "teacher", "--sets", "unsup"]],
                             ids=["train-teacher", "evaluate unsup"])
    def test_refs_naming_other_utterances_exit_one_before_making_a_run_dir(self, pipeline,
                                                                           tmp_path, capsys, args):
        data = tmp_path / "data"
        shutil.copytree(pipeline["data_dir"], data)
        path = data / "unsup_refs.jsonl"
        first, *rest = path.read_text().splitlines(keepends=True)
        record = json.loads(first)
        renamed = dict(record, utt_id=record["utt_id"] + "-renamed")
        path.write_text("".join([json.dumps(renamed) + "\n", *rest]))
        runs = tmp_path / "runs"
        exit_code = cli.main([*(str(pipeline["teacher"]) if a == "teacher" else a for a in args),
                              "--data-dir", str(data), "--run-root", str(runs), *SMOKE_SET_ARGS])
        assert exit_code == 1
        err = capsys.readouterr().err
        assert err == (f"error: {path} and {data / 'unsup.jsonl'} name different utterances, "
                       f"{record['utt_id']!r} among them\n"), err
        assert not runs.exists()

    # each input parsed as JSON: (command and its extra arguments, the file,
    # how errors name it); "teacher", "pseudo" and "config" are copies
    JSON_INPUTS = {
        "config": (["evaluate", "--checkpoint", "teacher", "--config", "config"], "config",
                   "config file {path}"),
        "manifest": (["evaluate", "--checkpoint", "teacher"], "manifest.json",
                     "corpus manifest {path}"),
        "corpus record": (["evaluate", "--checkpoint", "teacher"], "eval.jsonl", "{path}:1"),
        "pseudo-label record": (["distill", "--teacher", "teacher", "--pseudo-labels", "pseudo"],
                                "pseudo", "{path}:1"),
        "checkpoint header": (["evaluate", "--checkpoint", "teacher"], "teacher",
                              "checkpoint {path} header"),
    }

    @pytest.mark.parametrize("text", [b'{"seed": "\xff"}', b"{x"], ids=["bad UTF-8", "bad JSON"])
    @pytest.mark.parametrize("case", sorted(JSON_INPUTS))
    def test_unparsable_input_names_its_file(self, pipeline, tmp_path, capsys, case, text):
        args, name, place = self.JSON_INPUTS[case]
        data = tmp_path / "data"
        shutil.copytree(pipeline["data_dir"], data)
        files = {"teacher": shutil.copyfile(pipeline["teacher"], tmp_path / "teacher.ckpt"),
                 "pseudo": shutil.copyfile(pipeline["pseudo"], tmp_path / "pseudo.jsonl"),
                 "config": tmp_path / "config.json"}
        path = files.get(name, data / name)
        if name == "teacher":
            path.write_bytes(replace_header(path.read_bytes(), text))
        elif path.suffix == ".jsonl":  # the first record
            path.write_bytes(b"\n".join([text, *path.read_bytes().split(b"\n")[1:]]))
        else:
            path.write_bytes(text)
        runs = tmp_path / "runs"
        exit_code = cli.main([*(str(files.get(a, a)) for a in args), "--data-dir", str(data),
                              "--run-root", str(runs), *SMOKE_SET_ARGS])
        assert exit_code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {place.format(path=path)}: not valid JSON ("), err
        assert not runs.exists()

    # each command's arguments and input flags; no input it names exists
    COMMANDS = {
        "gen-data": (["gen-data"], []),
        "train-teacher": (["train-teacher"], ["--data-dir"]),
        "pseudo-label": (["pseudo-label"], ["--data-dir", "--checkpoint"]),
        "distill": (["distill"], ["--data-dir", "--teacher", "--pseudo-labels"]),
        "distill-grid": (["distill", "--grid"], ["--data-dir", "--teacher", "--pseudo-labels"]),
        "evaluate": (["evaluate"], ["--data-dir", "--checkpoint"]),
        "sweep-shift": (["sweep-shift"], ["--data-dir", "--teacher", "--pseudo-labels"]),
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("overrides, key", [
        (["data.vocab_size=0"], "vocab_size"),
        (["data.num_eval=0"], "data.num_eval"),
        (["seed=-1"], "config key seed must be >= 0"),
        (["data.seed=-1"], "config key data.seed must be >= 0"),
        (["teacher.preset=XXL"], "teacher.preset"),
        (["teacher.quality.size=XL"], "teacher.quality.size"),
        (["teacher.quality.supervised_fraction=0"], "teacher.quality.supervised_fraction"),
        (["teacher.quality.label_noise_rate=1"], "teacher.quality.label_noise_rate"),
        (["teacher.encoder.subsample=0"], "teacher.encoder"),
        (["student.encoder.causal=true"], "student.encoder"),
        (["distill.kind=banana"], "distill.kind"),
        (["distill.shift_n=1"], "shift_n"),
        (["distill.weights.hard=-1"], "distill.weights"),
        (["train.steps=-5"], "train.steps"),
        (["train.batch_size=0"], "train.batch_size"),
        (["train.sup_fraction=1.5"], "train.sup_fraction"),
        (["train.sup_fraction=-0.1"], "train.sup_fraction"),
        (["decode.beam=0"], "decode.beam"),
        (["decode.nbest=0"], "decode.nbest"),
        (["decode.max_symbols_per_frame=0"], "decode.max_symbols_per_frame"),
        (["distill.kind=fsnorm_l1", "decode.nbest=1"], "decode.nbest >= 2"),
        # the N-best list is cut from the beam's list
        (["decode.beam=1", "decode.nbest=4"], "decode.nbest must be <= decode.beam, got 4 > 1"),
        # a list key takes a list of its default's length
        (["data.frames_per_label=[3]"],
         "config key data.frames_per_label takes lists of 2 int values like [2, 4], got [3]"),
        (["data.frames_per_label=[2,3,4]"], "config key data.frames_per_label takes lists of 2"),
        (["data.label_len_range=[]"], "config key data.label_len_range takes lists of 2"),
        # a float key takes a number that converts to a finite float
        (["data.noise_sigma=1e400"], "data.noise_sigma"),
        (["data.noise_sigma=NaN"], "data.noise_sigma"),
        pytest.param([f"data.noise_sigma={10**400}"], "data.noise_sigma",
                     id="data.noise_sigma=10**400"),
        pytest.param([f"train.lr={10**400}"], "train.lr", id="train.lr=10**400"),
        (["train.lr=NaN"], "train.lr"),
        (["distill.weights.distill=Infinity"], "distill.weights.distill"),
        (["train.lr=-0.5"], "config key train.lr must be >= 0"),
        (["train.momentum=5"], "config key train.momentum must be in [0, 1]"),
        (["train.momentum=-1"], "config key train.momentum must be in [0, 1]"),
    ], ids=lambda v: ",".join(v) if isinstance(v, list) else None)
    def test_bad_value_exits_one_before_reading_input(self, tmp_path, capsys, monkeypatch,
                                                      command, overrides, key):
        # load_config checks as well; with it merging only, each command's
        # own check must fire, before it reads an input or makes a run dir
        def merge_only(path, items):
            cfg = {}
            for item in items:
                cfg = cli._deep_merge(cfg, cli._override(item))
            return cfg

        monkeypatch.setattr(cli, "load_config", merge_only)
        args, flags = self.COMMANDS[command]
        exit_code = cli.main([
            *args, *(a for flag in flags for a in (flag, str(tmp_path / "nope"))),
            "--run-root", str(tmp_path / "runs"), *(a for o in overrides for a in ("--set", o)),
        ])
        assert exit_code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err, err
        assert not list(tmp_path.iterdir())

    # a model size that numpy cannot build; asking for a terabyte-sized one instead
    # would allocate before it fails
    HUGE = "encoder.left_context=100000000000000000000"

    @pytest.mark.parametrize("args", [
        ["train-teacher", "--set", f"teacher.{HUGE}"],
        ["distill", "--teacher", "teacher", "--pseudo-labels", "pseudo", "--set", f"student.{HUGE}"],
        ["distill", "--grid", "--teacher", "teacher", "--pseudo-labels", "pseudo",
         "--set", f"student.{HUGE}"],
    ], ids=["train-teacher", "distill", "distill-grid"])
    def test_unbuildable_model_exits_one_before_making_a_run_dir(self, pipeline, tmp_path, capsys,
                                                                 args):
        files = {"teacher": str(pipeline["teacher"]), "pseudo": str(pipeline["pseudo"])}
        runs = tmp_path / "runs"
        exit_code = cli.main([*(files.get(a, a) for a in args), "--data-dir", str(pipeline["data_dir"]),
                              "--run-root", str(runs), *SMOKE_SET_ARGS])
        assert exit_code == 1
        assert capsys.readouterr().err.startswith(f"error: bad {args[-1].split('.')[0]}.encoder "
                                                  "config: ")
        assert not runs.exists()

    @pytest.mark.parametrize("command", ["pseudo-label", "evaluate"])
    @pytest.mark.parametrize("cap", [0, -3])
    def test_symbol_cap_below_one_exits_one_before_loading(self, tmp_path, capsys, command, cap):
        # neither input exists: a check after loading would report a missing file
        exit_code = cli.main([
            command, "--data-dir", str(tmp_path / "nope"),
            "--checkpoint", str(tmp_path / "nope.ckpt"), "--run-root", str(tmp_path / "runs"),
            "--set", f"decode.max_symbols_per_frame={cap}",
        ])
        assert exit_code == 1
        assert "max_symbols_per_frame must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_missing_artifact_exit_one(self, tmp_path):
        result = run_cli(
            "evaluate", "--run-root", str(tmp_path),
            "--data-dir", str(tmp_path / "nope"),
            "--checkpoint", str(tmp_path / "nope.ckpt"),
        )
        assert result.returncode == 1
        # A child that cannot import the package also exits 1; the CLI's own
        # validation message is what tells the two apart.
        assert result.stderr.startswith("error:"), result.stderr

    @pytest.mark.parametrize("flag", ["--checkpoint", "--pseudo-labels"])
    def test_directory_as_input_file_exits_one(self, pipeline, tmp_path, capsys, flag):
        if flag == "--checkpoint":
            args = ["evaluate", "--checkpoint", str(tmp_path)]
        else:
            args = ["distill", "--teacher", str(pipeline["teacher"]),
                    "--pseudo-labels", str(tmp_path), "--set", "distill.kind=fs_l1"]
        exit_code = cli.main([*args, "--data-dir", str(pipeline["data_dir"]),
                              "--run-root", str(tmp_path / "runs"), *SMOKE_SET_ARGS])
        assert exit_code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Is a directory" in err, err

    def test_env_var_controls_run_root(self, tmp_path):
        env = dict(os.environ)
        env["TRANSDUCER_DISTILL_RUN_ROOT"] = str(tmp_path / "envroot")
        result = run_cli("gen-data", *SMOKE_SET_ARGS, env=env, cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "envroot").exists()
