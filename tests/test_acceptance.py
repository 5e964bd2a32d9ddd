"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria 1-6 and 10-11 are exact numerical/behavioral gates; criteria 7-9
test whether the qualitative teacher-quality and causal/non-causal findings
replicate on the synthetic task across five seeds.  Criteria 7-9 run the
benchmark's recipes (``perfbench/workloads.py``) at full scale, so that one
table drives both.
"""

import json
import math
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from transducer_distill.cli import (
    ConfigError,
    cmd_distill,
    cmd_evaluate,
    cmd_gen_data,
    cmd_pseudo_label,
    cmd_train_teacher,
    load_config,
)
from transducer_distill.distill import (
    fs_distill,
    fs_norm_distill,
    soft_kl_efficient,
    soft_kl_full,
)
from transducer_distill.lattice import (
    Lattice,
    forward_backward,
    rnnt_loss,
    rnnt_loss_with_grad,
)
from transducer_distill.model import (
    SGD,
    EncoderConfig,
    TransducerModel,
    load_checkpoint,
    save_checkpoint,
    train_step,
)

from conftest import random_lattice
from oracles import brute_force_log_prob, path_mass

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

# criteria 7-9: the benchmark recipes they run, and each recipe's seeds
RECIPES = ("weak_teacher", "causal_shift")
SEEDS = range(5)
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num}: {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


class TestCriterion1:
    def test_lattice_oracle_equivalence(self):
        start = time.monotonic()
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(9000 + seed)
            T = int(rng.integers(1, 5))
            U = int(rng.integers(0, 4))
            K = int(rng.integers(1, 5))
            lat = random_lattice(rng, T, U, K)
            y = rng.integers(0, K, size=U)
            fb, _, _ = forward_backward(lat, y)
            worst = max(worst, abs(fb - brute_force_log_prob(lat, y)))
        elapsed = time.monotonic() - start
        report(
            1,
            worst < 1e-9 and elapsed < 5.0,
            f"forward-backward vs enumeration oracle: max |diff| = {worst:.2e} "
            f"over 100 seeded instances in {elapsed:.2f}s",
        )


def _fd_check(fn, x, grad, h=1e-6):
    """Max relative error of ``grad`` vs central differences of ``fn`` at x."""
    worst = 0.0
    flat = x.reshape(-1)
    gflat = np.asarray(grad).reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = fn()
        flat[i] = orig - h
        down = fn()
        flat[i] = orig
        fd = (up - down) / (2 * h)
        if abs(fd) < 1e-10 and abs(gflat[i]) < 1e-10:
            continue
        worst = max(worst, abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-8))
    return worst


class TestCriterion2:
    def test_gradient_suites(self):
        start = time.monotonic()
        worst = {}

        errs = []
        for seed in range(20):
            rng = np.random.default_rng(7100 + seed)
            T, U, K = int(rng.integers(2, 4)), int(rng.integers(1, 3)), int(rng.integers(2, 4))
            lat = random_lattice(rng, T, U, K)
            y = rng.integers(0, K, size=U)
            _, grad = rnnt_loss_with_grad(lat, y)
            errs.append(_fd_check(lambda: rnnt_loss(lat, y), lat.log_probs, grad))
        worst["rnnt_loss_grad"] = max(errs)

        errs = []
        for seed in range(20):
            rng = np.random.default_rng(7200 + seed)
            teacher = random_lattice(rng, 2, 1, 3)
            student = random_lattice(rng, 2, 1, 3)
            _, grad = soft_kl_full([teacher], [student])[0]
            errs.append(
                _fd_check(lambda: soft_kl_full([teacher], [student])[0][0], student.log_probs, grad)
            )
        worst["soft_kl_full"] = max(errs)

        errs = []
        for seed in range(20):
            rng = np.random.default_rng(7300 + seed)
            teacher = random_lattice(rng, 2, 2, 3)
            student = random_lattice(rng, 2, 2, 3)
            y = rng.integers(0, 3, size=2)
            _, grad = soft_kl_efficient([teacher], [student], [y])[0]
            errs.append(
                _fd_check(lambda: soft_kl_efficient([teacher], [student], [y])[0][0],
                          student.log_probs, grad)
            )
        worst["soft_kl_efficient"] = max(errs)

        errs = []
        for seed in range(20):
            rng = np.random.default_rng(7400 + seed)
            t_nll = float(rng.uniform(0.5, 6.0))
            s = np.array([rng.uniform(0.5, 6.0)])
            kind = "l1" if seed % 2 == 0 else "mse"
            if kind == "l1" and abs(s[0] - t_nll) < 1e-2:
                s[0] += 0.05  # keep L1 away from its kink
            _, grad = fs_distill(t_nll, s[0], kind)
            errs.append(_fd_check(lambda: fs_distill(t_nll, s[0], kind)[0], s, [grad]))
        worst["fs_distill"] = max(errs)

        errs = []
        for seed in range(20):
            rng = np.random.default_rng(7500 + seed)
            n = int(rng.integers(2, 6))
            t = -rng.uniform(0.5, 5.0, size=n)
            s = -rng.uniform(0.5, 5.0, size=n)
            idx = int(rng.integers(0, n))
            kind = "l1" if seed % 2 == 0 else "mse"
            _, grad = fs_norm_distill(t, s, idx, kind)
            if kind == "l1":
                t_norm = t[idx] - (np.log(np.sum(np.exp(t))))
                s_norm = s[idx] - (np.log(np.sum(np.exp(s))))
                if abs(s_norm - t_norm) < 1e-2:
                    continue
            errs.append(_fd_check(lambda: fs_norm_distill(t, s, idx, kind)[0], s, grad))
        worst["fs_norm_distill"] = max(errs)

        # whole-model parameter gradients on the micro model
        cfg = EncoderConfig(causal=True, left_context=1, right_context=0, subsample=1, hidden=3)
        m = TransducerModel(vocab_size=3, feat_dim=2, encoder=cfg, seed=11)
        rng = np.random.default_rng(7600)
        x = rng.normal(size=(3, 2))
        y = [1, 2]
        lat, cache = m.forward(x, y)
        _, g_lat = rnnt_loss_with_grad(lat, y)
        m.zero_grad()
        m.backward(cache, g_lat)
        model_err = 0.0
        for name, p in m.params.items():
            model_err = max(
                model_err,
                _fd_check(lambda: rnnt_loss(m.build_lattice(x, y), y), p, m.grads[name]),
            )
        worst["model_params"] = model_err

        elapsed = time.monotonic() - start
        loss_ok = all(v < 1e-4 for k, v in worst.items() if k != "model_params")
        ok = loss_ok and worst["model_params"] < 1e-3 and elapsed < 30.0
        detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
        report(2, ok, f"finite-difference gradient suites in {elapsed:.1f}s: {detail}")


class TestCriterion3:
    def test_kl_properties(self):
        min_full = min_eff = np.inf
        max_violation = -np.inf
        for seed in range(100):
            rng = np.random.default_rng(7700 + seed)
            T, U, K = int(rng.integers(1, 4)), int(rng.integers(0, 3)), int(rng.integers(2, 5))
            teacher = random_lattice(rng, T, U, K)
            student = random_lattice(rng, T, U, K)
            y = rng.integers(0, K, size=U)
            full, _ = soft_kl_full([teacher], [student])[0]
            eff, _ = soft_kl_efficient([teacher], [student], [y])[0]
            min_full = min(min_full, full)
            min_eff = min(min_eff, eff)
            max_violation = max(max_violation, eff - full)
        same = random_lattice(np.random.default_rng(1), 3, 2, 3)
        zero_full, _ = soft_kl_full([same], [Lattice(same.log_probs.copy())])[0]
        zero_eff, _ = soft_kl_efficient([same], [Lattice(same.log_probs.copy())], [[0, 1]])[0]
        ok = (
            min_full >= 0.0
            and min_eff >= 0.0
            and max_violation < 1e-9
            and abs(zero_full) < 1e-12
            and abs(zero_eff) < 1e-12
        )
        report(
            3,
            ok,
            f"KL >= 0 (min full {min_full:.2e}, min 3-class {min_eff:.2e}), zero at "
            f"teacher==student, coarsening slack max(eff-full) = {max_violation:.2e}",
        )


class TestCriterion4:
    def test_fs_norm_shift_invariance(self):
        rng = np.random.default_rng(431)
        teacher = -rng.uniform(0.5, 5.0, size=6)
        student = -rng.uniform(0.5, 5.0, size=6)
        worst = 0.0
        for kind in ("l1", "mse"):
            base, _ = fs_norm_distill(teacher, student, 2, kind)
            for c in (-5.0, 0.1, 7.0):
                for mode in ("teacher", "student", "both"):
                    t = teacher + c if mode in ("teacher", "both") else teacher
                    s = student + c if mode in ("student", "both") else student
                    shifted, _ = fs_norm_distill(t, s, 2, kind)
                    worst = max(worst, abs(shifted - base))
        report(4, worst < 1e-9, f"normalized full-sum shift invariance: max |delta| = {worst:.2e}")


class TestCriterion5:
    def test_overfit_sanity(self):
        from transducer_distill.lattice import rnnt_loss_with_grad as _lg

        start = time.monotonic()
        cfg = EncoderConfig(causal=False, left_context=1, right_context=1, subsample=1, hidden=16)
        m = TransducerModel(vocab_size=4, feat_dim=4, encoder=cfg, seed=3)
        rng = np.random.default_rng(20240)
        x = rng.normal(size=(6, 4))
        y = [0, 2, 1]

        def loss_fn(model, batch):
            total = 0.0
            for xx, yy in batch:
                lat, cache = model.forward(xx, yy)
                loss, g = _lg(lat, yy)
                model.backward(cache, g)
                total += loss
            return total, {}

        opt = SGD(lr=0.1, momentum=0.9)
        loss = math.inf
        for _ in range(200):
            loss, _ = train_step(m, [(x, y)], loss_fn, opt)
        elapsed = time.monotonic() - start
        report(
            5,
            loss < 0.1 and elapsed < 10.0,
            f"single-utterance memorization: loss {loss:.4f} after 200 steps in {elapsed:.1f}s",
        )


class TestCriterion6:
    def test_path_mass_bound(self):
        worst_excess = -np.inf
        monotone = True
        for seed in range(20):
            rng = np.random.default_rng(7800 + seed)
            T = int(rng.integers(1, 4))
            K = int(rng.integers(1, 4))
            lat = random_lattice(rng, T, 4, K)
            values = [path_mass(lat, m) for m in range(5)]
            for lo, hi in zip(values, values[1:]):
                if hi < lo - 1e-12:
                    monotone = False
            worst_excess = max(worst_excess, values[-1] - 1.0)
        report(
            6,
            monotone and worst_excess <= 1e-9,
            f"path mass monotone over 20 seeded lattices, max excess over 1 = {worst_excess:.2e}",
        )


def _wer_of(report_path):
    with open(report_path, encoding="utf-8") as f:
        return json.load(f)["sets"]["eval"]["wer"]


def run_recipe(name, seed, root):
    """One seed of the benchmark recipe ``name`` at full scale, under
    ``root``: gen-data, the teacher, its pseudo labels and its evaluate,
    then the recipe's distill rows.  Returns each row's eval WER by name."""
    cfg, distill_stage = workloads.WORKLOADS[name].plan(seed, scales=(1.0, 1.0))
    data_dir = cmd_gen_data(cfg, root=root)
    teacher = cmd_train_teacher(cfg, data_dir, root=root)
    pseudo = cmd_pseudo_label(cfg, teacher, data_dir, root=root)
    wers = {"teacher": _wer_of(cmd_evaluate(cfg, teacher, data_dir, root=root))}
    distill_stage(data_dir, teacher, pseudo, root, wers)
    return wers


@pytest.fixture(scope="module")
def recipe_runs(tmp_path_factory):
    """``(start, wers)``: the monotonic time of first use, and
    ``wers(name, seed)``, ``run_recipe``'s result for that job.  Each
    (recipe, seed) job runs under its own directory.  With one usable core,
    a job runs in this process when it is asked for.  Otherwise every job
    starts at first use in one process pool of a worker per core, each
    worker with BLAS pinned to one thread."""
    root = tmp_path_factory.mktemp("recipes")
    jobs = {(name, seed): root / f"{name}-{seed}" for name in RECIPES for seed in SEEDS}
    workers = min(len(jobs), len(os.sched_getaffinity(0)))
    start = time.monotonic()
    if workers == 1:
        yield start, lambda name, seed: run_recipe(name, seed, jobs[name, seed])
        return
    with pytest.MonkeyPatch.context() as env, ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        for var in BLAS_THREADS:  # read by each worker's BLAS as it loads
            env.setenv(var, "1")
        futures = {job: pool.submit(run_recipe, *job, path) for job, path in jobs.items()}
        try:
            yield start, lambda name, seed: futures[name, seed].result()
        finally:
            pool.shutdown(cancel_futures=True)


@pytest.fixture(scope="module")
def weak_teacher_wers(recipe_runs):
    """Criteria 7 and 8 share one recipe: per seed, an S3-analog teacher (S
    width, 30 %-corrupted labels), its pseudo labels, then hard / FS-L1 /
    FS-Norm-L1 students.  Also the seconds from the pool's first use until
    every seed's WERs are in."""
    start, wers = recipe_runs
    seeds = [wers("weak_teacher", seed) for seed in SEEDS]
    return seeds, time.monotonic() - start


class TestCriterion7:
    def test_fs_beats_hard_under_weak_teacher(self, weak_teacher_wers):
        seeds, elapsed = weak_teacher_wers
        wins = sum(w["fs_l1"] <= w["hard"] for w in seeds)
        pairs = ", ".join(
            f"seed{i}: teacher={w['teacher']:.3f} hard={w['hard']:.3f} fs={w['fs_l1']:.3f}"
            for i, w in enumerate(seeds)
        )
        # the wall time on a line of its own, so that the same code prints
        # the same ACCEPTANCE line on every run
        print(f"\ncriterion 7 fixture wall time: {elapsed:.0f}s (bound 600s)")
        report(
            7,
            wins >= 4 and elapsed < 600.0,
            f"weak-teacher replication: FS-L1 <= hard in {wins}/5 seeds ({pairs})",
        )


class TestCriterion8:
    def test_norm_improves_fs(self, weak_teacher_wers):
        seeds, _ = weak_teacher_wers
        wins = sum(w["fsnorm_l1"] <= w["fs_l1"] for w in seeds)
        pairs = ", ".join(
            f"seed{i}: teacher={w['teacher']:.3f} fs={w['fs_l1']:.3f} "
            f"fsnorm={w['fsnorm_l1']:.3f}"
            for i, w in enumerate(seeds)
        )
        report(
            8,
            wins >= 3,
            f"N-best normalization replication: FS-Norm-L1 <= FS-L1 in {wins}/5 seeds ({pairs})",
        )


@pytest.fixture(scope="module")
def causal_sweep_wers(recipe_runs):
    """Criterion 9's recipe, per seed: a non-causal teacher, its pseudo
    labels, then causal students by soft distillation at teacher shifts 0-3
    and one unshifted FS-L1 student."""
    _, wers = recipe_runs
    return [wers("causal_shift", seed) for seed in SEEDS]


class TestCriterion9:
    def test_shift_sweep_and_fs_robustness(self, causal_sweep_wers):
        shape_wins = 0
        fs_wins = 0
        lines = []
        for seed, w in enumerate(causal_sweep_wers):
            at_zero = w["soft@0"]
            best_shifted = min(w[f"soft@{n}"] for n in (1, 2, 3))
            fs = w["fs_l1"]
            shape_wins += at_zero > best_shifted
            fs_wins += fs < at_zero
            lines.append(
                f"seed{seed}: teacher={w['teacher']:.3f} soft@0={at_zero:.3f} "
                f"best-shifted={best_shifted:.3f} fs={fs:.3f}"
            )
        report(
            9,
            shape_wins >= 4 and fs_wins >= 4,
            f"causal/non-causal replication: soft@N=0 worse than best shifted N in "
            f"{shape_wins}/5 seeds, unshifted FS-L1 beats soft@N=0 in {fs_wins}/5 "
            f"({'; '.join(lines)})",
        )


class TestCriterion10:
    def test_subsampling_capability(self, tmp_path):
        overrides = [
            "data.vocab_size=3", "data.feat_dim=4", "data.num_supervised=6",
            "data.num_unsupervised=6", "data.num_eval=4", "data.label_len_range=[2,3]",
            "train.steps=4", "train.batch_size=4", "decode.beam=2", "decode.nbest=2",
            "teacher.encoder.hidden=6", "student.encoder.hidden=6",
            "teacher.encoder.subsample=1", "student.encoder.subsample=2",
        ]
        cfg = load_config(overrides=overrides + ["distill.kind=fs_l1"])
        data_dir = cmd_gen_data(cfg, root=tmp_path)
        teacher = cmd_train_teacher(cfg, data_dir, root=tmp_path)
        pseudo = cmd_pseudo_label(cfg, teacher, data_dir, root=tmp_path)
        student = cmd_distill(cfg, data_dir, teacher, pseudo, root=tmp_path)
        fs_ok = student.exists()

        soft_cfg = load_config(overrides=overrides + ["distill.kind=soft_efficient"])
        try:
            cmd_distill(soft_cfg, data_dir, teacher, pseudo, root=tmp_path)
            soft_rejected = False
        except ConfigError:
            soft_rejected = True
        report(
            10,
            fs_ok and soft_rejected,
            "full-sum distillation runs teacher subsample 1 -> student subsample 2; "
            "soft distillation on the same pair rejected at validation",
        )


class TestCriterion11:
    def test_serialization_and_rerun_determinism(self, tmp_path):
        overrides = [
            "data.vocab_size=3", "data.feat_dim=4", "data.num_supervised=6",
            "data.num_unsupervised=6", "data.num_eval=4", "data.label_len_range=[2,3]",
            "train.steps=4", "train.batch_size=4", "decode.beam=3", "decode.nbest=2",
            "teacher.encoder.hidden=6", "student.encoder.hidden=6",
        ]
        cfg = load_config(overrides=overrides)

        data_dir = cmd_gen_data(cfg, root=tmp_path)
        corpus_bytes = {p.name: p.read_bytes() for p in sorted(data_dir.iterdir())}
        teacher = cmd_train_teacher(cfg, data_dir, root=tmp_path)
        teacher_bytes = teacher.read_bytes()
        pseudo = cmd_pseudo_label(cfg, teacher, data_dir, root=tmp_path)
        pseudo_bytes = pseudo.read_bytes()

        # checkpoint read -> write round trip is bit-exact
        reread = tmp_path / "reread.ckpt"
        save_checkpoint(load_checkpoint(teacher), reread)
        ckpt_ok = reread.read_bytes() == teacher_bytes

        # rerunning every command with the identical config reproduces bytes
        data_dir2 = cmd_gen_data(cfg, root=tmp_path)
        data_ok = all(
            p.read_bytes() == corpus_bytes[p.name] for p in sorted(data_dir2.iterdir())
        )
        teacher2 = cmd_train_teacher(cfg, data_dir, root=tmp_path)
        teacher_ok = teacher2.read_bytes() == teacher_bytes
        pseudo2 = cmd_pseudo_label(cfg, teacher, data_dir, root=tmp_path)
        pseudo_ok = pseudo2.read_bytes() == pseudo_bytes

        # pseudo-label records re-read value-exactly
        from transducer_distill.decode import read_pseudo_labels, write_pseudo_labels

        records = read_pseudo_labels(pseudo)
        rewritten = tmp_path / "pl.jsonl"
        write_pseudo_labels(rewritten, list(records.values()))
        pl_roundtrip_ok = rewritten.read_bytes() == pseudo_bytes

        ok = ckpt_ok and data_ok and teacher_ok and pseudo_ok and pl_roundtrip_ok
        report(
            11,
            ok,
            f"bit-exact round trips: checkpoint={ckpt_ok}, corpus rerun={data_ok}, "
            f"teacher rerun={teacher_ok}, pseudo-label rerun={pseudo_ok}, "
            f"pseudo-label rewrite={pl_roundtrip_ok}",
        )
