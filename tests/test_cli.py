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
    TEACHER_PRESETS,
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
    resolve_config,
    validate_distill_setup,
)
from transducer_distill import cli
from transducer_distill.decode import DecodeError, read_pseudo_labels, write_pseudo_labels
from transducer_distill.model import load_checkpoint, ModelError, TransducerModel, EncoderConfig

from conftest import rewrite_header
from test_acceptance import _causal_config, _weak_teacher_config


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
        for make in (_weak_teacher_config, _causal_config):
            cfg = resolve_config(make(0))
            assert resolve_config(cfg) == cfg
            assert cfg["teacher"]["quality"] == make(0)["teacher"]["quality"]

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
        cfg = smoke_config("distill.kind=fsnorm_l1", "decode.nbest=1")
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
        first = load_corpora(pipeline["data_dir"])
        again = load_corpora(self.copy_data(pipeline, tmp_path))
        assert again is first
        utts = [u for name in ("sup", "unsup", "eval") for u in again[name].utterances]
        assert utts and not any(u.frames.flags.writeable for u in utts)
        with pytest.raises(ValueError, match="read-only"):
            utts[0].frames[0, 0] = 1.0

    def test_rewritten_file_is_parsed_again(self, pipeline, tmp_path):
        data = self.copy_data(pipeline, tmp_path)
        before = load_corpora(data)
        path = data / "eval.jsonl"
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
        after = load_corpora(data)
        assert after is not before
        assert after["eval"].utt_ids() == before["eval"].utt_ids()[:-1]

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

    def test_builds_each_teacher_lattice_once(self, pipeline, tmp_path, monkeypatch):
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
        cmd_sweep_shift(cfg, pipeline["data_dir"], pipeline["teacher"],
                        pipeline["pseudo"], shifts=[0, 1, 2], root=tmp_path)
        unsup = load_corpora(pipeline["data_dir"])["unsup"].utterances
        built = [x for x, _ in builds]
        # 5 steps of about 4 unsupervised utterances per shift visit each of
        # the 8 utterances several times; each lattice is built on the first
        assert set(builds.values()) == {1}
        assert len(set(built)) == len(built)
        assert set(built) <= {u.frames.tobytes() for u in unsup}


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
