import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import transducer_distill
from transducer_distill.cli import (
    ConfigError,
    cmd_distill,
    cmd_evaluate,
    cmd_gen_data,
    cmd_pseudo_label,
    cmd_sweep_shift,
    cmd_train_teacher,
    config_hash,
    load_config,
    load_corpora,
    validate_distill_setup,
)
from transducer_distill import cli
from transducer_distill.decode import DecodeError, read_pseudo_labels, write_pseudo_labels
from transducer_distill.model import load_checkpoint, ModelError, TransducerModel, EncoderConfig

from conftest import rewrite_header


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
    "distill.nbest_size=2",
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

    def test_hash_is_stable_and_sensitive(self):
        a = load_config()
        b = load_config()
        assert config_hash(a) == config_hash(b)
        c = load_config(overrides=["seed=99"])
        assert config_hash(a) != config_hash(c)

    def test_unknown_kind_rejected(self):
        cfg = smoke_config("distill.kind=banana")
        with pytest.raises(ConfigError, match="banana"):
            validate_distill_setup(cfg, teacher_subsample=1)

    def test_soft_with_subsample_mismatch_rejected(self):
        cfg = smoke_config("distill.kind=soft_efficient", "student.encoder.subsample=2")
        with pytest.raises(ConfigError, match="full-sum"):
            validate_distill_setup(cfg, teacher_subsample=1)

    def test_fs_with_subsample_mismatch_allowed(self):
        cfg = smoke_config("distill.kind=fs_l1", "student.encoder.subsample=2")
        validate_distill_setup(cfg, teacher_subsample=1)

    def test_fsnorm_single_hypothesis_rejected(self):
        cfg = smoke_config("distill.kind=fsnorm_l1", "distill.nbest_size=1")
        with pytest.raises(ConfigError, match="nbest"):
            validate_distill_setup(cfg, teacher_subsample=1)


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

    def test_unknown_preset_rejected(self, pipeline, tmp_path):
        cfg = smoke_config()
        cfg["teacher"]["preset"] = "XXL"
        with pytest.raises(ConfigError, match="XXL"):
            cmd_train_teacher(cfg, pipeline["data_dir"], root=tmp_path)


class TestPseudoLabel:
    def test_covers_unsupervised_split(self, pipeline):
        records = read_pseudo_labels(pipeline["pseudo"])
        assert len(records) == 8
        for rec in records.values():
            assert 1 <= len(rec.nbest) <= 2
            assert rec.target_index() >= 0

    def test_rerun_is_byte_identical(self, pipeline):
        before = pipeline["pseudo"].read_bytes()
        again = cmd_pseudo_label(
            pipeline["cfg"], pipeline["teacher"], pipeline["data_dir"],
            root=pipeline["root"],
        )
        assert again.read_bytes() == before

    def test_fsnorm_requires_nbest(self, pipeline, tmp_path):
        cfg = smoke_config("distill.kind=fsnorm_l1", "decode.nbest=1")
        with pytest.raises(ConfigError, match="nbest"):
            cmd_pseudo_label(cfg, pipeline["teacher"], pipeline["data_dir"], root=tmp_path)

    def test_decode_error_skips_utterance(self, pipeline, tmp_path, monkeypatch):
        bad = load_corpora(pipeline["data_dir"])["unsup"].utterances[0]
        real = cli.beam_search

        def failing(model, x, *args):
            if np.array_equal(x, bad.frames):
                raise DecodeError("cannot decode")
            return real(model, x, *args)

        monkeypatch.setattr(cli, "beam_search", failing)
        path = cmd_pseudo_label(pipeline["cfg"], pipeline["teacher"],
                                pipeline["data_dir"], root=tmp_path)
        expected = set(read_pseudo_labels(pipeline["pseudo"])) - {bad.utt_id}
        assert set(read_pseudo_labels(path)) == expected
        failures = (path.parent / "decode_failures.jsonl").read_text().splitlines()
        assert [json.loads(line) for line in failures] == [
            {"utt_id": bad.utt_id, "error": "cannot decode"}
        ]

    def test_program_error_is_not_swallowed(self, pipeline, tmp_path, monkeypatch):
        def broken(*args):
            raise TypeError("bug in the decoder")

        monkeypatch.setattr(cli, "beam_search", broken)
        with pytest.raises(TypeError, match="bug in the decoder"):
            cmd_pseudo_label(pipeline["cfg"], pipeline["teacher"],
                             pipeline["data_dir"], root=tmp_path)


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
        lines = table.read_text().splitlines()
        assert lines[0] == "shift\twer"
        assert [int(l.split("\t")[0]) for l in lines[1:]] == [0, 1, 2]


class TestExitCodes:
    def test_success_exit_zero(self, tmp_path):
        result = run_cli("gen-data", "--run-root", str(tmp_path), *SMOKE_SET_ARGS)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip()

    def test_validation_error_exit_one(self, tmp_path):
        result = run_cli(
            "gen-data", "--run-root", str(tmp_path), "--set", "data.vocab_size=0"
        )
        assert result.returncode == 1
        assert "error" in result.stderr

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

    def test_env_var_controls_run_root(self, tmp_path):
        env = dict(os.environ)
        env["TRANSDUCER_DISTILL_RUN_ROOT"] = str(tmp_path / "envroot")
        result = run_cli("gen-data", *SMOKE_SET_ARGS, env=env, cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "envroot").exists()
