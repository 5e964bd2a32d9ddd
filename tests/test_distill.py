import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transducer_distill import distill
from transducer_distill.cli import GRID_ROWS
from transducer_distill.data import Utterance
from transducer_distill.distill import (
    CombinedLossConfig,
    DistillError,
    DistillLossKind,
    LossKind,
    combined_loss,
    fs_distill,
    fs_norm_distill,
    shift_teacher,
    soft_kl_efficient,
    soft_kl_full,
)
from transducer_distill.decode import PseudoLabelRecord
from transducer_distill.lattice import (
    Lattice,
    LatticeError,
    LatticeShapeError,
    forward_backward,
    logsumexp,
    rnnt_loss_with_grad,
)
from transducer_distill.model import EncoderConfig, NonFiniteLossError, TransducerModel

from conftest import random_lattice
from test_decode import stacked_products_are_per_row
from test_model import assert_rel_close, reference_backward, reference_forward


def lattice_from_probs(probs) -> Lattice:
    return Lattice(np.log(np.asarray(probs, dtype=np.float64)))


def reference_three_class_log(lat, y):
    """The looped form of ``soft_kl_efficient``'s three-class collapse for one
    lattice: the rest-mass accumulates label by label with ``logaddexp``."""
    lp = lat.log_probs
    T, U1, K1 = lp.shape
    blank = K1 - 1
    log_tgt = np.full((T, U1), -np.inf)
    for u in range(len(y)):
        log_tgt[:, u] = lp[:, u, y[u]]
    log_rest = np.full((T, U1), -np.inf)
    for k in range(blank):
        col = lp[:, :, k]
        hit = np.flatnonzero(y == k)
        if hit.size:
            col = col.copy()
            col[:, hit] = -np.inf
        log_rest = np.logaddexp(log_rest, col)
    return log_tgt, lp[:, :, blank], log_rest


def reference_soft_kl_full(teacher, student):
    """``soft_kl_full`` of one pair, on its own lattices rather than the batch's
    stacked nodes: each node's KL summed over labels, then over the nodes."""
    t_lp, s_lp = teacher.log_probs, student.log_probs
    t_p = np.exp(t_lp)
    return float(np.sum(t_p * (t_lp - s_lp), axis=-1).sum()), -t_p


def reference_soft_kl_efficient(teacher, student, labels):
    """The looped form of ``soft_kl_efficient`` for one pair."""
    y = np.asarray(labels, dtype=np.int64)
    t_classes = reference_three_class_log(teacher, y)
    s_classes = reference_three_class_log(student, y)
    kl = 0.0
    for t_c, s_c in zip(t_classes, s_classes):
        term = np.zeros_like(t_c)
        mask = t_c > -np.inf
        term[mask] = np.exp(t_c[mask]) * (t_c[mask] - s_c[mask])
        kl = kl + term
    loss = float(kl.sum())
    t_tgt, t_blank, t_rest = t_classes
    s_rest = s_classes[2]
    s_lp = student.log_probs
    blank = student.blank
    gview = np.zeros_like(s_lp)
    rest_weight = np.where(t_rest > -np.inf, np.exp(t_rest), 0.0)
    safe_rest = np.where(s_rest > -np.inf, s_rest, 0.0)
    for k in range(blank):
        inside = np.exp(s_lp[:, :, k] - safe_rest)
        gview[:, :, k] = -rest_weight * np.where(s_rest > -np.inf, inside, 0.0)
    for u in range(len(y)):
        gview[:, u, y[u]] = -np.exp(t_tgt[:, u])
    gview[:, :, blank] = -np.exp(t_blank)
    return loss, gview


class TestSoftKlFull:
    def test_zero_at_equality(self, rng):
        lat = random_lattice(rng, T=3, U=2, K=3)
        loss, grad = soft_kl_full([lat], [Lattice(lat.log_probs.copy())])[0]
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(grad, -np.exp(lat.log_probs))

    def test_single_node_value(self):
        teacher = lattice_from_probs([[[0.7, 0.2, 0.1]]])
        student = lattice_from_probs([[[0.6, 0.2, 0.2]]])
        expected = 0.7 * math.log(0.7 / 0.6) + 0.1 * math.log(0.1 / 0.2)
        loss, _ = soft_kl_full([teacher], [student])[0]
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_non_negative_on_random_pairs(self):
        for seed in range(100):
            rng = np.random.default_rng(3000 + seed)
            teacher = random_lattice(rng, T=2, U=1, K=3)
            student = random_lattice(rng, T=2, U=1, K=3)
            loss, _ = soft_kl_full([teacher], [student])[0]
            assert loss >= 0.0

    def test_dimension_mismatch_names_both_shapes(self, rng):
        teacher = random_lattice(rng, T=3, U=1, K=2)
        student = random_lattice(rng, T=2, U=1, K=2)
        with pytest.raises(LatticeShapeError) as exc:
            soft_kl_full([teacher], [student])[0]
        assert "(3, 2, 3)" in str(exc.value) and "(2, 2, 3)" in str(exc.value)

    def test_gradient_matches_finite_differences(self, rng):
        teacher = random_lattice(rng, T=2, U=1, K=3)
        student = random_lattice(rng, T=2, U=1, K=3)
        _, grad = soft_kl_full([teacher], [student])[0]
        h = 1e-6
        for idx in np.ndindex(student.log_probs.shape):
            student.log_probs[idx] += h
            up, _ = soft_kl_full([teacher], [student])[0]
            student.log_probs[idx] -= 2 * h
            down, _ = soft_kl_full([teacher], [student])[0]
            student.log_probs[idx] += h
            fd = (up - down) / (2 * h)
            assert fd == pytest.approx(grad[idx], rel=1e-4, abs=1e-8)


class TestSoftKlEfficient:
    def test_zero_at_equality(self, rng):
        lat = random_lattice(rng, T=3, U=2, K=4)
        loss, _ = soft_kl_efficient([lat], [Lattice(lat.log_probs.copy())], [[0, 1]])[0]
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_three_class_value(self):
        # teacher (target .7, blank .1, rest .2) vs student (.6, .2, .2);
        # the u=U row is identical on both sides so only node (0,0) counts
        teacher = lattice_from_probs([[[0.7, 0.2, 0.1], [0.3, 0.3, 0.4]]])
        student = lattice_from_probs([[[0.6, 0.2, 0.2], [0.3, 0.3, 0.4]]])
        expected = 0.7 * math.log(7.0 / 6.0) + 0.1 * math.log(0.5)
        loss, _ = soft_kl_efficient([teacher], [student], [[0]])[0]
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_never_exceeds_full_kl(self):
        for seed in range(100):
            rng = np.random.default_rng(4000 + seed)
            T = int(rng.integers(1, 4))
            U = int(rng.integers(0, 3))
            K = int(rng.integers(2, 5))
            teacher = random_lattice(rng, T, U, K)
            student = random_lattice(rng, T, U, K)
            y = rng.integers(0, K, size=U)
            eff, _ = soft_kl_efficient([teacher], [student], [y])[0]
            full, _ = soft_kl_full([teacher], [student])[0]
            assert eff <= full + 1e-9
            assert eff >= 0.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(51)
        teacher = random_lattice(rng, T=2, U=2, K=3)
        student = random_lattice(rng, T=2, U=2, K=3)
        y = [2, 0]
        _, grad = soft_kl_efficient([teacher], [student], [y])[0]
        h = 1e-6
        for idx in np.ndindex(student.log_probs.shape):
            student.log_probs[idx] += h
            up, _ = soft_kl_efficient([teacher], [student], [y])[0]
            student.log_probs[idx] -= 2 * h
            down, _ = soft_kl_efficient([teacher], [student], [y])[0]
            student.log_probs[idx] += h
            fd = (up - down) / (2 * h)
            assert fd == pytest.approx(grad[idx], rel=1e-4, abs=1e-8)


    # (T, labels, K, shift): repeated labels, U = 0, K = 1 (an empty rest
    # class below the u = U row), and shifted pairs
    REFERENCE_CASES = [
        (5, [0, 2, 1], 3, 0),
        (4, [1, 1, 1, 0], 3, 0),
        (6, [], 4, 0),
        (3, [0, 0], 1, 0),
        (1, [2, 0], 3, 0),
        (7, [1, 2, 2], 3, 2),
        (6, [0], 1, 5),
        (5, [], 2, 3),
    ]

    @pytest.mark.parametrize("T, y, K, shift", REFERENCE_CASES)
    def test_matches_looped_reference(self, T, y, K, shift):
        for seed in range(5):
            rng = np.random.default_rng(700 + seed)
            teacher, student = shift_teacher(random_lattice(rng, T, len(y), K),
                                             random_lattice(rng, T, len(y), K), shift)
            loss, grad = soft_kl_efficient([teacher], [student], [y])[0]
            want_loss, want_grad = reference_soft_kl_efficient(teacher, student, y)
            # the same float operations in the same order: equal bit for bit
            assert loss == want_loss
            assert np.array_equal(grad, want_grad)


def scaled_lattice(rng, T, U, K, scale):
    """``random_lattice`` with its logits multiplied by ``scale``: at 30 most
    of a node's mass sits on one label and the rest underflows."""
    logits = scale * rng.normal(size=(T, U + 1, K + 1))
    return Lattice(logits - logsumexp(logits, axis=-1)[..., None])


def assert_batch_equals_references(teachers, students, label_seqs):
    """Both batched soft KLs give each pair the bits of its looped reference."""
    efficient = soft_kl_efficient(teachers, students, label_seqs)
    full = soft_kl_full(teachers, students)
    assert len(efficient) == len(full) == len(teachers)
    for t, s, y, eff, kl in zip(teachers, students, label_seqs, efficient, full):
        for (loss, grad), (want_loss, want_grad) in [
                (eff, reference_soft_kl_efficient(t, s, y)), (kl, reference_soft_kl_full(t, s))]:
            assert loss == want_loss
            assert grad.shape == want_grad.shape and grad.tobytes() == want_grad.tobytes()


@st.composite
def soft_batches(draw):
    """A batch of 1 to 6 (teacher, student, labels) triples of mixed T, U and
    shift, sharing K."""
    K = draw(st.integers(1, 5))
    scale = draw(st.sampled_from([1.0, 3.0, 30.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    batch = []
    for _ in range(draw(st.integers(1, 6))):
        T, y = draw(st.integers(1, 8)), draw(st.lists(st.integers(0, K - 1), max_size=4))
        teacher, student = shift_teacher(scaled_lattice(rng, T, len(y), K, scale),
                                         scaled_lattice(rng, T, len(y), K, scale),
                                         draw(st.integers(0, T - 1)))
        batch.append((teacher, student, y))
    return batch


class TestSoftKlBatch:
    @pytest.mark.parametrize("scale", [1.0, 3.0, 30.0])
    @pytest.mark.parametrize("K", [1, 2, 6])
    def test_mixed_batch_equals_looped_references(self, K, scale):
        """Every shift from 0 to T - 1 for T = 1, 3 and 7, U = 0 to 3 (K = 1
        leaves the rest class empty below the u = U row)."""
        rng = np.random.default_rng(int(10 * K + scale))
        teachers, students, label_seqs = [], [], []
        for T in (1, 3, 7):
            for shift in range(T):
                y = [int(k) for k in rng.integers(0, K, size=(T + shift) % 4)]
                teacher, student = shift_teacher(scaled_lattice(rng, T, len(y), K, scale),
                                                 scaled_lattice(rng, T, len(y), K, scale), shift)
                teachers.append(teacher)
                students.append(student)
                label_seqs.append(y)
        assert_batch_equals_references(teachers, students, label_seqs)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(soft_batches())
    def test_batches_of_mixed_shapes_equal_looped_references(self, batch):
        assert_batch_equals_references(*zip(*batch))

    def test_empty_batch(self):
        assert soft_kl_efficient([], [], []) == [] and soft_kl_full([], []) == []

    SHAPE_MESSAGE = ("teacher/student lattices differ in shape: (3, 2, 3) vs (2, 2, 3); "
                     "frame-local soft distillation requires identical T', U, K "
                     "(sequence-level full-sum distillation has no such constraint)")
    LABEL_MESSAGE = "label sequence of length 2 does not match lattice with 2 label rows"

    @pytest.mark.parametrize("kernel,bad", [("efficient", "shape"), ("efficient", "labels"),
                                            ("full", "shape")])
    def test_bad_entry_mid_batch_raises_the_per_lattice_error(self, rng, kernel, bad):
        """The entry's own error, as a batch of one raises it, whatever its
        neighbours (the full KL reads no labels)."""
        teachers = [random_lattice(rng, 3, 1, 2) for _ in range(3)]
        students = [random_lattice(rng, 3, 1, 2) for _ in range(3)]
        label_seqs = [[0], [1], [1]]
        if bad == "shape":
            students[1] = random_lattice(rng, 2, 1, 2)
        else:
            label_seqs[1] = [1, 0]
        message = self.SHAPE_MESSAGE if bad == "shape" else self.LABEL_MESSAGE

        def call(ts, ss, ys):
            return soft_kl_efficient(ts, ss, ys) if kernel == "efficient" else soft_kl_full(ts, ss)

        with pytest.raises(LatticeShapeError) as alone:
            call([teachers[1]], [students[1]], [label_seqs[1]])
        with pytest.raises(LatticeShapeError) as mid_batch:
            call(teachers, students, label_seqs)
        assert str(alone.value) == str(mid_batch.value) == message
        assert alone.value.shapes == mid_batch.value.shapes

    @pytest.mark.parametrize("label", [2, -1], ids=["K", "minus one"])
    def test_label_outside_the_vocab_raises(self, rng, label):
        """K = 2: label K is blank's index, and -1 is the u = U row's "no target"."""
        teachers = [random_lattice(rng, 3, 1, 2) for _ in range(2)]
        students = [random_lattice(rng, 3, 1, 2) for _ in range(2)]
        with pytest.raises(LatticeError, match="label out of range for vocab of size 2"):
            soft_kl_efficient(teachers, students, [[0], [label]])


class TestShiftTeacher:
    @pytest.mark.parametrize("shift", [0, 2, 4])
    def test_returns_views_of_the_overlap(self, rng, shift):
        """Teacher frames [0, T - n) and student frames [n, T), no copy."""
        teacher, student = random_lattice(rng, T=5, U=1, K=2), random_lattice(rng, T=5, U=1, K=2)
        t, s = shift_teacher(teacher, student, shift)
        assert np.shares_memory(t.log_probs, teacher.log_probs)
        assert np.shares_memory(s.log_probs, student.log_probs)
        assert np.array_equal(t.log_probs, teacher.log_probs[: 5 - shift])
        assert np.array_equal(s.log_probs, student.log_probs[shift:])

    def test_shifts_compose(self, rng):
        teacher, student = random_lattice(rng, T=6, U=1, K=2), random_lattice(rng, T=6, U=1, K=2)
        twice = shift_teacher(*shift_teacher(teacher, student, 1), 2)
        once = shift_teacher(teacher, student, 3)
        for a, b in zip(twice, once, strict=True):
            assert a.log_probs.shape == b.log_probs.shape == (3, 2, 3)
            assert np.array_equal(a.log_probs, b.log_probs)

    @pytest.mark.parametrize("shift", [-1, 3, 4])
    def test_shift_outside_the_lattice_rejected(self, rng, shift):
        lat = random_lattice(rng, T=3, U=0, K=2)
        with pytest.raises(DistillError, match="shift"):
            shift_teacher(lat, lat, shift)

    def test_soft_loss_covers_only_the_overlap(self, rng):
        teacher = random_lattice(rng, T=4, U=1, K=2)
        student = random_lattice(rng, T=4, U=1, K=2)
        t, s = shift_teacher(teacher, student, 2)
        loss, grad = soft_kl_full([t], [s])[0]
        # direct computation over the overlapping frames only
        manual = float(
            np.sum(
                np.exp(teacher.log_probs[:2])
                * (teacher.log_probs[:2] - student.log_probs[2:])
            )
        )
        assert loss == pytest.approx(manual, abs=1e-12)
        assert np.array_equal(grad, -np.exp(teacher.log_probs[:2]))


class TestFsDistill:
    def test_equal_inputs_zero(self):
        loss, grad = fs_distill(3.2, 3.2, "l1")
        assert loss == 0.0 and grad == 0.0
        loss, grad = fs_distill(3.2, 3.2, "mse")
        assert loss == 0.0 and grad == 0.0

    def test_l1_case(self):
        loss, grad = fs_distill(2.0, 5.0, "l1")
        assert loss == pytest.approx(3.0) and grad == pytest.approx(1.0)

    def test_mse_case(self):
        loss, grad = fs_distill(2.0, 5.0, "mse")
        assert loss == pytest.approx(9.0) and grad == pytest.approx(6.0)

    def test_symmetric_as_a_function(self):
        for kind in ("l1", "mse"):
            a, _ = fs_distill(1.3, 4.1, kind)
            b, _ = fs_distill(4.1, 1.3, kind)
            assert a == pytest.approx(b)

    def test_non_finite_identifies_side(self):
        with pytest.raises(DistillError, match="teacher"):
            fs_distill(float("nan"), 1.0)
        with pytest.raises(DistillError, match="student"):
            fs_distill(1.0, float("inf"))


class TestFsNormDistill:
    def test_equal_scores_zero(self):
        scores = [-1.0, -2.5, -4.0]
        loss, grad = fs_norm_distill(scores, scores, 0, "l1")
        assert loss == pytest.approx(0.0, abs=1e-12)
        loss, _ = fs_norm_distill(scores, scores, 1, "mse")
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_two_hypothesis_l1_value(self):
        # normalized teacher/student log-probs computed independently
        t_norm = -1.0 - math.log(math.exp(-1.0) + math.exp(-2.0))
        s_norm = -1.5 - math.log(2 * math.exp(-1.5))
        expected = abs(s_norm - t_norm)
        loss, _ = fs_norm_distill([-1.0, -2.0], [-1.5, -1.5], 0, "l1")
        assert loss == pytest.approx(expected, abs=1e-12)
        assert loss == pytest.approx(0.3798854930417225, abs=1e-12)

    @pytest.mark.parametrize("c", [-5.0, 0.1, 7.0])
    def test_global_shift_invariance(self, c):
        teacher = [-1.0, -2.0, -0.5]
        student = [-1.5, -1.5, -2.5]
        base, _ = fs_norm_distill(teacher, student, 1, "mse")
        t_shift, _ = fs_norm_distill([x + c for x in teacher], student, 1, "mse")
        s_shift, _ = fs_norm_distill(teacher, [x + c for x in student], 1, "mse")
        both, _ = fs_norm_distill(
            [x + c for x in teacher], [x + c for x in student], 1, "mse"
        )
        assert abs(t_shift - base) < 1e-9
        assert abs(s_shift - base) < 1e-9
        assert abs(both - base) < 1e-9

    @pytest.mark.parametrize("kind", ["l1", "mse"])
    def test_gradient_matches_finite_differences(self, kind):
        rng = np.random.default_rng(8)
        teacher = -rng.uniform(0.5, 4.0, size=5)
        student = -rng.uniform(0.5, 4.0, size=5)
        _, grad = fs_norm_distill(teacher, student, 2, kind)
        h = 1e-6
        for i in range(5):
            student[i] += h
            up, _ = fs_norm_distill(teacher, student, 2, kind)
            student[i] -= 2 * h
            down, _ = fs_norm_distill(teacher, student, 2, kind)
            student[i] += h
            fd = (up - down) / (2 * h)
            assert fd == pytest.approx(grad[i], rel=1e-4, abs=1e-8)

    def test_errors(self):
        with pytest.raises(DistillError):
            fs_norm_distill([], [], 0)
        with pytest.raises(DistillError):
            fs_norm_distill([-1.0], [-1.0, -2.0], 0)
        with pytest.raises(DistillError):
            fs_norm_distill([-1.0], [-1.0], 3)


class TestDistillLossKind:
    def test_shift_only_for_soft(self):
        DistillLossKind(LossKind.SOFT_FULL, shift_n=3)
        with pytest.raises(DistillError):
            DistillLossKind(LossKind.FS_L1, shift_n=3)


class TestCombinedLoss:
    @staticmethod
    def build(seed=0, subsample=1, hidden=6, vocab=3):
        cfg = EncoderConfig(
            causal=False, left_context=1, right_context=1,
            subsample=subsample, hidden=hidden,
        )
        return TransducerModel(vocab_size=vocab, feat_dim=2, encoder=cfg, seed=seed)

    @staticmethod
    def batch(rng, vocab=3):
        sup = Utterance("s-0", rng.normal(size=(4, 2)), labels=(0, 1))
        unsup = Utterance("u-0", rng.normal(size=(4, 2)), labels=None)
        return [sup, unsup]

    def test_supervised_only_weights(self, rng):
        model = self.build()
        batch = self.batch(rng)
        cfg = CombinedLossConfig(1.0, 0.0, 0.0)
        total, terms = combined_loss(
            model, batch, DistillLossKind(LossKind.HARD, 0), cfg
        )
        assert terms["hard_on_pseudo"] == 0.0 and terms["distill"] == 0.0
        assert total == pytest.approx(terms["supervised_rnnt"])

    def test_hard_distillation_uses_pseudo_labels(self, rng):
        model = self.build()
        batch = self.batch(rng)
        pseudo = {"u-0": PseudoLabelRecord("u-0", [((2,), -1.0)], 0)}
        cfg = CombinedLossConfig(1.0, 1.0, 0.0)
        total, terms = combined_loss(
            model, batch, DistillLossKind(LossKind.HARD, 0), cfg, pseudo_labels=pseudo
        )
        assert terms["hard_on_pseudo"] > 0.0
        assert total == pytest.approx(
            terms["supervised_rnnt"] + terms["hard_on_pseudo"]
        )

    def test_missing_pseudo_label_raises(self, rng):
        model = self.build()
        batch = self.batch(rng)
        cfg = CombinedLossConfig(1.0, 1.0, 0.0)
        with pytest.raises(DistillError, match="u-0"):
            combined_loss(model, batch, DistillLossKind(LossKind.HARD, 0), cfg)

    def test_self_distillation_reduces_to_supervised(self, rng):
        # teacher == student and pseudo == truth: soft KL and FS terms vanish
        model = self.build(seed=5)
        x = rng.normal(size=(4, 2))
        sup = Utterance("s-0", x, labels=(0, 1))
        unsup = Utterance("u-0", x.copy(), labels=None)
        lat = model.build_lattice(x, [0, 1])
        exact, _, _ = forward_backward(lat, [0, 1])
        pseudo = {"u-0": PseudoLabelRecord("u-0", [((0, 1), float(exact))], 0)}

        cfg = CombinedLossConfig(1.0, 0.0, 1.0)
        total, terms = combined_loss(
            model, [sup, unsup], DistillLossKind(LossKind.SOFT_FULL, 0), cfg,
            pseudo_labels=pseudo, teacher_model=model,
        )
        assert terms["distill"] == pytest.approx(0.0, abs=1e-12)
        assert total == pytest.approx(terms["supervised_rnnt"], abs=1e-12)

        total, terms = combined_loss(
            model, [sup, unsup], DistillLossKind(LossKind.FS_L1, 0), cfg,
            pseudo_labels=pseudo,
        )
        assert terms["distill"] == pytest.approx(0.0, abs=1e-9)

    def test_fs_allows_subsample_mismatch(self, rng):
        teacher = self.build(seed=1, subsample=1)
        student = self.build(seed=2, subsample=2)
        x = rng.normal(size=(6, 2))
        unsup = Utterance("u-0", x, labels=None)
        t_lat = teacher.build_lattice(x, [1])
        t_score, _, _ = forward_backward(t_lat, [1])
        pseudo = {"u-0": PseudoLabelRecord("u-0", [((1,), float(t_score))], 0)}
        cfg = CombinedLossConfig(0.0, 0.0, 1.0)
        total, terms = combined_loss(
            student, [unsup], DistillLossKind(LossKind.FS_L1, 0), cfg, pseudo_labels=pseudo
        )
        assert np.isfinite(total)
        assert terms["distill"] >= 0.0

    def test_soft_rejects_subsample_mismatch(self, rng):
        teacher = self.build(seed=1, subsample=1)
        student = self.build(seed=2, subsample=2)
        x = rng.normal(size=(6, 2))
        unsup = Utterance("u-0", x, labels=None)
        pseudo = {"u-0": PseudoLabelRecord("u-0", [((1,), -1.0)], 0)}
        cfg = CombinedLossConfig(0.0, 0.0, 1.0)
        with pytest.raises(LatticeShapeError):
            combined_loss(
                student, [unsup], DistillLossKind(LossKind.SOFT_EFFICIENT, 0), cfg,
                pseudo_labels=pseudo, teacher_model=teacher,
            )

    @pytest.mark.parametrize("kind", [LossKind.SOFT_FULL, LossKind.SOFT_EFFICIENT])
    def test_soft_requires_the_teacher_model(self, rng, kind):
        student = self.build(seed=2)
        sup = Utterance("s-0", rng.normal(size=(4, 2)), labels=(0, 1))
        unsup = Utterance("u-0", rng.normal(size=(4, 2)), labels=None)
        pseudo = {"u-0": PseudoLabelRecord("u-0", [((1,), -1.0)], 0)}
        student.zero_grad()
        with pytest.raises(DistillError, match="soft distillation requires the teacher model"):
            combined_loss(student, [sup, unsup], DistillLossKind(kind, 0),
                          CombinedLossConfig(1.0, 0.0, 1.0), pseudo_labels=pseudo)
        # the check runs before any term of the run adds a gradient
        assert not any(np.any(g) for g in student.grads.values())

    def test_fsnorm_needs_a_real_list(self, rng):
        student = self.build(seed=2)
        unsup = Utterance("u-0", rng.normal(size=(4, 2)), labels=None)
        pseudo = {"u-0": PseudoLabelRecord("u-0", [((1,), -1.0)], 0)}
        cfg = CombinedLossConfig(0.0, 0.0, 1.0)
        with pytest.raises(DistillError, match="N-best"):
            combined_loss(
                student, [unsup], DistillLossKind(LossKind.FSNORM_L1, 0),
                cfg, pseudo_labels=pseudo,
            )

    def test_gradients_flow_into_model(self, rng):
        teacher = self.build(seed=1)
        student = self.build(seed=2)
        x = rng.normal(size=(5, 2))
        unsup = Utterance("u-0", x, labels=None)
        nbest = []
        for labels in [(1, 0), (1,), ()]:
            lat = teacher.build_lattice(x, list(labels))
            s, _, _ = forward_backward(lat, list(labels))
            nbest.append((labels, float(s)))
        nbest.sort(key=lambda e: -e[1])
        pseudo = {"u-0": PseudoLabelRecord("u-0", nbest, [l for l, _ in nbest].index((1, 0)))}

        for kind in [
            DistillLossKind(LossKind.SOFT_FULL, 0),
            DistillLossKind(LossKind.SOFT_EFFICIENT, 0),
            DistillLossKind(LossKind.FS_L1, 0),
            DistillLossKind(LossKind.FS_MSE, 0),
            DistillLossKind(LossKind.FSNORM_L1, 0),
            DistillLossKind(LossKind.FSNORM_MSE, 0),
        ]:
            student.zero_grad()
            cfg = CombinedLossConfig(0.0, 0.0, 1.0)
            total, _ = combined_loss(
                student, [unsup], kind, cfg,
                pseudo_labels=pseudo, teacher_model=teacher,
            )
            assert np.isfinite(total)
            grad_norm = sum(float(np.abs(g).sum()) for g in student.grads.values())
            assert grad_norm > 0.0


class TestNonFiniteLoss:
    # (kernel -> the utterance whose terms it poisons, distillation kind, the
    # utterance the error names): the soft KL of a run is computed before its
    # terms run, yet an earlier utterance's non-finite term is still named first
    CASES = [
        ({"rnnt": "s-1"}, "hard", "s-1"),
        ({"rnnt": "u-3"}, "soft_efficient", "u-3"),
        ({"fs": "u-2"}, "fs_l1", "u-2"),
        ({"soft": "u-4"}, "soft_efficient", "u-4"),
        ({"soft": "u-5", "rnnt": "s-1"}, "soft_efficient", "s-1"),
        ({"soft": "u-1", "rnnt": "u-4"}, "soft_efficient", "u-1"),
        ({"fs": "u-2", "rnnt": "u-5"}, "fs_l1", "u-2"),
    ]

    @pytest.mark.parametrize("poison,kind,named", CASES, ids=[
        "+".join(f"{kernel}@{utt}" for kernel, utt in poison.items()) + f"-{kind}"
        for poison, kind, _ in CASES])
    def test_names_the_first_non_finite_term_in_plan_order(self, monkeypatch, poison, kind,
                                                           named):
        student, teacher, batch, pseudo, kind = _random_step(3, 12, kind)
        frames_of = {u.frames.tobytes(): u.utt_id for u in batch}
        score_of = {-r.score: utt_id for utt_id, r in pseudo.items()}
        owners = []  # (student lattice, its utterance)
        real_forward = student.forward
        real_rnnt, real_fs = distill.rnnt_losses_with_grad, distill.fs_distill
        real_soft = distill.soft_kl_efficient

        def forward(x, y, **shared):
            lat, cache = real_forward(x, y, **shared)
            owners.append((lat, frames_of[x.tobytes()]))
            return lat, cache

        def owner(lat):  # a student lattice, or the slice of one that a soft term reads
            return next(utt for full, utt in owners
                        if np.shares_memory(full.log_probs, lat.log_probs))

        def rnnt(lattices, label_seqs):
            return [(np.inf, g) if owner(lat) == poison.get("rnnt") else (nll, g)
                    for lat, (nll, g) in zip(lattices, real_rnnt(lattices, label_seqs))]

        def soft(teachers, students, label_seqs):
            return [(np.inf, g) if owner(lat) == poison.get("soft") else (loss, g)
                    for lat, (loss, g) in zip(students, real_soft(teachers, students, label_seqs))]

        def fs(teacher_nll, student_nll, flavor="l1"):
            loss, grad = real_fs(teacher_nll, student_nll, flavor)
            return (np.inf if score_of[teacher_nll] == poison.get("fs") else loss), grad

        student.forward = forward
        monkeypatch.setattr(distill, "rnnt_losses_with_grad", rnnt)
        monkeypatch.setattr(distill, "soft_kl_efficient", soft)
        monkeypatch.setattr(distill, "fs_distill", fs)
        with pytest.raises(NonFiniteLossError) as exc:
            combined_loss(student, batch, kind, CombinedLossConfig(1.0, 1.0, 1.0),
                          pseudo_labels=pseudo, teacher_model=teacher)
        assert exc.value.utt_id == named and exc.value.value == np.inf


class TestCombinedLossConfig:
    def test_needs_a_positive_weight(self):
        with pytest.raises(DistillError):
            CombinedLossConfig(0.0, 0.0, 0.0)

    def test_rejects_negative(self):
        with pytest.raises(DistillError):
            CombinedLossConfig(-1.0, 0.0, 1.0)


# ----- combined_loss against the per-term code it replaced -----
#
# The reference runs its own student forward (and full-sum loss) for every
# term and builds the teacher lattice at every call; combined_loss shares
# them.  Forward passes are pure, so the two must agree bit for bit.


def reference_fs_norm_distill(teacher_scores, student_scores, target_index, kind):
    t = np.asarray(teacher_scores, dtype=np.float64)
    s = np.asarray(student_scores, dtype=np.float64)
    diff = (s[target_index] - logsumexp(s)) - (t[target_index] - logsumexp(t))
    if kind == "l1":
        loss, dnorm = abs(diff), float(np.sign(diff))
    else:
        loss, dnorm = diff * diff, 2.0 * diff
    grad = -np.exp(s - logsumexp(s))
    grad[target_index] += 1.0
    return float(loss), dnorm * grad


def reference_rnnt_term(model, x, y, weight):
    lat, cache = model.forward(x, y)
    loss, g = rnnt_loss_with_grad(lat, y)
    if weight != 0.0:
        model.backward(cache, weight * g)
    return loss


def reference_soft_term(model, teacher_model, x, y, kind, weight):
    student_lat, cache = model.forward(x, y)
    teacher_lat, overlap = shift_teacher(teacher_model.build_lattice(x, y), student_lat,
                                         kind.shift_n)
    if kind.kind == LossKind.SOFT_FULL:
        loss, g = soft_kl_full([teacher_lat], [overlap])[0]
    else:
        loss, g = soft_kl_efficient([teacher_lat], [overlap], [y])[0]
    grad = np.zeros_like(student_lat.log_probs)
    grad[kind.shift_n:] = g
    if weight != 0.0:
        model.backward(cache, weight * grad)
    return loss


def reference_fs_term(model, x, record, kind, weight):
    if kind.kind.is_norm:
        teacher_scores = [score for _, score in record.nbest]
        student_scores, caches, grads = [], [], []
        for labels, _ in record.nbest:
            lat, cache = model.forward(x, list(labels))
            nll, g = rnnt_loss_with_grad(lat, list(labels))
            student_scores.append(-nll)
            caches.append(cache)
            grads.append(g)
        loss, dscores = reference_fs_norm_distill(
            teacher_scores, student_scores, record.target, kind.kind.fs_flavor
        )
        if weight != 0.0:
            for dscore, cache, g in zip(dscores, caches, grads):
                model.backward(cache, (-dscore * weight) * g)
        return loss
    y = list(record.labels)
    lat, cache = model.forward(x, y)
    student_nll, g = rnnt_loss_with_grad(lat, y)
    loss, dstudent = fs_distill(-record.score, student_nll, kind.kind.fs_flavor)
    if weight != 0.0:
        model.backward(cache, (dstudent * weight) * g)
    return loss


def reference_combined_loss(model, batch, kind, config, pseudo_labels, teacher_model):
    sums = {"supervised_rnnt": 0.0, "hard_on_pseudo": 0.0, "distill": 0.0}
    counts = {"supervised_rnnt": 0, "hard_on_pseudo": 0, "distill": 0}
    n_sup = max(sum(1 for u in batch if u.labels is not None), 1)
    n_unsup = max(sum(1 for u in batch if u.labels is None), 1)
    for utt in batch:
        if utt.labels is not None:
            if config.weight_supervised_rnnt > 0:
                sums["supervised_rnnt"] += reference_rnnt_term(
                    model, utt.frames, list(utt.labels), config.weight_supervised_rnnt / n_sup)
                counts["supervised_rnnt"] += 1
            continue
        record = pseudo_labels[utt.utt_id]
        if config.weight_hard_on_pseudo > 0:
            sums["hard_on_pseudo"] += reference_rnnt_term(
                model, utt.frames, list(record.labels), config.weight_hard_on_pseudo / n_unsup)
            counts["hard_on_pseudo"] += 1
        if config.weight_distill > 0 and kind.kind != LossKind.HARD:
            weight = config.weight_distill / n_unsup
            if kind.kind.is_soft:
                sums["distill"] += reference_soft_term(
                    model, teacher_model, utt.frames, list(record.labels), kind, weight)
            else:
                sums["distill"] += reference_fs_term(model, utt.frames, record, kind, weight)
            counts["distill"] += 1
    terms = {name: (sums[name] / counts[name] if counts[name] else 0.0) for name in sums}
    total = (config.weight_supervised_rnnt * terms["supervised_rnnt"]
             + config.weight_hard_on_pseudo * terms["hard_on_pseudo"]
             + config.weight_distill * terms["distill"])
    return total, terms


def _sharing_setup(seed=0):
    """A student, a teacher, two supervised and three unsupervised
    utterances, and pseudo labels with N-best lists of 3 or 4 hypotheses
    whose target is not always first (and, for one, the empty sequence)."""
    rng = np.random.default_rng(seed)
    enc = EncoderConfig(causal=False, left_context=1, right_context=1, subsample=1, hidden=6)
    student = TransducerModel(vocab_size=3, feat_dim=2, encoder=enc, seed=seed + 1)
    teacher = TransducerModel(vocab_size=3, feat_dim=2, encoder=enc, seed=seed + 2)
    batch = [Utterance("s-0", rng.normal(size=(6, 2)), labels=(0, 1)),
             Utterance("s-1", rng.normal(size=(5, 2)), labels=(2,))]
    pseudo = {}
    for i, target in enumerate([(1, 0), (2,), ()]):
        x = rng.normal(size=(6, 2))
        batch.append(Utterance(f"u-{i}", x, labels=None))
        nbest = []
        for labels in [(1, 0), (2,), (), (0, 2, 1)][: 3 + (i == 0)]:
            score, _, _ = forward_backward(teacher.build_lattice(x, list(labels)), list(labels))
            nbest.append((labels, float(score)))
        nbest.sort(key=lambda e: (-e[1], e[0]))
        pseudo[f"u-{i}"] = PseudoLabelRecord(f"u-{i}", nbest, [l for l, _ in nbest].index(target))
    return student, teacher, batch, pseudo


def _loss_and_grads(fn, model, *args, **kwargs):
    model.zero_grad()
    total, terms = fn(model, *args, **kwargs)
    return total, terms, {name: g.copy() for name, g in model.grads.items()}


KIND_CASES = [(kind, shift) for kind in LossKind
              for shift in ((0, 2) if kind.is_soft else (0,))]


class TestCombinedLossSharing:
    @pytest.mark.parametrize("kind,shift", KIND_CASES,
                             ids=[f"{k.value}@{s}" for k, s in KIND_CASES])
    @pytest.mark.parametrize("row", sorted(GRID_ROWS))
    def test_equals_per_term_reference(self, kind, shift, row):
        student, teacher, batch, pseudo = _sharing_setup()
        kind = DistillLossKind(kind, shift_n=shift)
        w = GRID_ROWS[row]["distill"]["weights"]
        config = CombinedLossConfig(w["supervised"], w["hard"], w["distill"])
        want = _loss_and_grads(reference_combined_loss, student, batch, kind, config,
                               pseudo, teacher)
        memo = {}
        # the second step reads every teacher lattice from the memo
        for _ in range(2):
            got = _loss_and_grads(combined_loss, student, batch, kind, config,
                                  pseudo_labels=pseudo, teacher_model=teacher,
                                  teacher_lattices=memo)
            assert got[0] == want[0]
            assert got[1] == want[1]
            assert got[2].keys() == want[2].keys()
            for name in want[2]:
                assert np.array_equal(got[2][name], want[2][name]), name
        if kind.kind.is_soft and config.weight_distill > 0:
            assert sorted(memo) == [(f"u-{i}", labels)
                                    for i, labels in enumerate([(1, 0), (2,), ()])]
        else:
            assert memo == {}

    @pytest.mark.parametrize("kind,forwards_per_unsup", [
        ("hard", 1), ("fs_l1", 1), ("soft_efficient", 1), ("fsnorm_l1", None),
    ])
    def test_one_student_pass_per_label_sequence(self, monkeypatch, kind, forwards_per_unsup):
        student, teacher, batch, pseudo = _sharing_setup()
        forwards, losses = Counter(), Counter()
        real_forward, real_losses = student.forward, distill.rnnt_losses_with_grad

        def forward(x, y, **shared):
            forwards[(x.tobytes(), tuple(y))] += 1
            return real_forward(x, y, **shared)

        def batched_losses(lattices, label_seqs):
            for lat, y in zip(lattices, label_seqs):
                losses[(lat.log_probs.tobytes(), tuple(y))] += 1
            return real_losses(lattices, label_seqs)

        student.forward = forward
        monkeypatch.setattr(distill, "rnnt_losses_with_grad", batched_losses)
        combined_loss(student, batch, DistillLossKind(LossKind(kind), 0),
                      CombinedLossConfig(1.0, 1.0, 1.0), pseudo_labels=pseudo,
                      teacher_model=teacher)
        assert set(forwards.values()) == {1}
        sup = [u for u in batch if u.labels is not None]
        unsup = [u for u in batch if u.labels is None]
        if forwards_per_unsup is None:  # one pass per N-best hypothesis
            assert len(forwards) == len(sup) + sum(len(pseudo[u.utt_id].nbest) for u in unsup)
        else:
            assert len(forwards) == len(sup) + forwards_per_unsup * len(unsup)
        # one full-sum per (utterance, label sequence): with the hard term on,
        # a full-sum term reads every sequence that a forward pass ran for
        assert set(losses.values()) == {1}
        assert len(losses) == len(forwards)


# ----- combined_loss against the one-lattice-at-a-time loop references -----
#
# A step runs its encoder once per utterance, its predictor states side by
# side and its predictor backward side by side, in call order.  Each sum
# keeps the order of test_model's loop references, so the step must give
# their bits wherever stacked products round row by row.


def stacked_matrix_vector_products_are_per_row():
    """Whether this numpy/BLAS build computes each row of a stacked
    matrix-vector product ``(H, H) @ (n, H, 1)`` as the lone product of that
    row, as the predictor backward's recurrence needs; the decoders' probe
    covers the vector-matrix stacks of the predictor forward."""
    rng = np.random.default_rng(0)
    for n, h in [(1, 8), (9, 16), (40, 28), (13, 12), (17, 5)]:
        a, w = rng.normal(size=(n, h)), rng.normal(size=(h, h))
        if not np.array_equal((w.T @ a[:, :, None])[:, :, 0], np.array([w.T @ row for row in a])):
            return False
    return True


EXACT = stacked_products_are_per_row() and stacked_matrix_vector_products_are_per_row()


class ReferenceStudent:
    """``model`` whose forward and backward are test_model's loop references,
    one lattice at a time."""

    def __init__(self, model):
        self.model, self.grads, self.zero_grad = model, model.grads, model.zero_grad

    def forward(self, x, y):
        log_probs, cache = reference_forward(self.model, x, y)
        return Lattice(log_probs), cache

    def backward(self, cache, dloss_dlogp):
        grads = reference_backward(self.model, cache, dloss_dlogp, self.model.grads)
        for name, g in grads.items():
            self.model.grads[name][...] = g


def _random_step(seed, hidden, kind):
    """A student, a teacher and a batch of 2 supervised and 7 unsupervised
    utterances whose N-best lists hold 2 to 4 hypotheses, among them the
    empty one; random windows and subsampling, trained-size weights."""
    rng = np.random.default_rng(seed)
    causal, subsample = bool(rng.integers(2)), int(rng.integers(1, 3))
    enc = EncoderConfig(causal=causal, left_context=int(rng.integers(0, 3)),
                        right_context=0 if causal else int(rng.integers(0, 3)),
                        subsample=subsample, hidden=hidden)
    student = TransducerModel(vocab_size=4, feat_dim=3, encoder=enc, seed=seed)
    teacher = TransducerModel(vocab_size=4, feat_dim=3, encoder=enc, seed=seed + 1)
    for v in student.params.values():
        v *= rng.uniform(1.0, 10.0)

    def labels(low):
        return tuple(int(k) for k in rng.integers(0, 4, size=int(rng.integers(low, 6))))

    batch = [Utterance(f"s-{i}", rng.normal(size=(int(rng.integers(4, 12)), 3)), labels(0))
             for i in range(2)]
    pseudo = {}
    for i in range(7):
        utt_id = f"u-{i}"
        batch.append(Utterance(utt_id, rng.normal(size=(int(rng.integers(4, 12)), 3)), None))
        hyps = list(dict.fromkeys([labels(1), (), labels(0), labels(1)]))[: int(rng.integers(2, 5))]
        nbest = [(h, -float(rng.uniform(1.0, 20.0))) for h in hyps]
        pseudo[utt_id] = PseudoLabelRecord(utt_id, nbest, int(rng.integers(len(nbest))))
    shift = int(rng.integers(0, 2)) if LossKind(kind).is_soft else 0
    return student, teacher, batch, pseudo, DistillLossKind(LossKind(kind), shift_n=shift)


STEP_CASES = [(kind, hidden, seed) for kind in ("hard", "fs_l1", "fsnorm_l1", "soft_efficient")
              for hidden in (12, 16, 28) for seed in range(3)]


class TestCombinedLossAgainstLoopReference:
    # weights (1, 1, 1): the hard and the distillation term read the same
    # pseudo label, and fs_l1 backpropagates its lattice a second time with
    # another scale, as the causal_shift fs row does
    @pytest.mark.parametrize("kind,hidden,seed", STEP_CASES)
    def test_step_equals_loop_reference(self, kind, hidden, seed):
        student, teacher, batch, pseudo, kind = _random_step(100 * hidden + seed, hidden, kind)
        config = CombinedLossConfig(1.0, 1.0, 1.0)
        want = _loss_and_grads(reference_combined_loss, ReferenceStudent(student), batch,
                               kind, config, pseudo, teacher)
        got = _loss_and_grads(combined_loss, student, batch, kind, config,
                              pseudo_labels=pseudo, teacher_model=teacher)
        if EXACT:
            assert got[0] == want[0] and got[1] == want[1]
        else:
            assert got[0] == pytest.approx(want[0], rel=1e-12)
            assert got[1] == pytest.approx(want[1], rel=1e-12)
        for name in want[2]:
            if EXACT:
                assert np.array_equal(got[2][name], want[2][name]), name
            else:
                assert_rel_close(got[2][name], want[2][name])

    @pytest.mark.parametrize("bound", [1, 5, 1000])
    @pytest.mark.parametrize("kind", ["hard", "fsnorm_l1", "soft_efficient"])
    def test_groups_of_full_sums_keep_the_bits(self, monkeypatch, kind, bound):
        """Splitting a step into runs of other sizes changes no bit; each run
        makes one batched full-sum and leaves no predictor work queued."""
        student, teacher, batch, pseudo, kind = _random_step(7, 16, kind)
        args = (student, batch, kind, CombinedLossConfig(1.0, 1.0, 1.0))
        want = _loss_and_grads(combined_loss, *args, pseudo_labels=pseudo, teacher_model=teacher)
        calls, queues = [], []
        real_losses, real_backward = distill.rnnt_losses_with_grad, student.backward

        def batched_losses(lattices, label_seqs):
            calls.append(len(lattices))
            return real_losses(lattices, label_seqs)

        def backward(cache, grad, queue=None):
            queues.append(queue)
            real_backward(cache, grad, queue)

        monkeypatch.setattr(distill, "RUN_LATTICES", bound)
        monkeypatch.setattr(distill, "rnnt_losses_with_grad", batched_losses)
        student.backward = backward
        got = _loss_and_grads(combined_loss, *args, pseudo_labels=pseudo, teacher_model=teacher)
        assert got[0] == want[0] and got[1] == want[1]
        for name in want[2]:
            assert np.array_equal(got[2][name], want[2][name]), name
        # runs close once they hold ``bound`` (utterance, label sequence) pairs
        sizes = [1 if u.labels is not None or not kind.kind.is_norm else len(pseudo[u.utt_id].nbest)
                 for u in batch]
        runs, held = 0, 0
        for i, size in enumerate(sizes):
            held += size
            if held >= bound or i == len(sizes) - 1:
                runs, held = runs + 1, 0
        assert len(calls) == runs
        # every backward queued its predictor share, and each run ran its queue
        assert queues and all(q == [] for q in queues)

    @pytest.mark.parametrize("bound", [1, 5, 32])
    @pytest.mark.parametrize("kind,kernel", [("soft_efficient", "soft_kl_efficient"),
                                             ("soft_full", "soft_kl_full")])
    def test_one_soft_kl_per_run_keeps_the_bits(self, monkeypatch, kind, kernel, bound):
        """A soft step makes one soft-KL call per run that holds a soft term,
        over that run's terms, and gives the bits of one term at a time."""
        student, teacher, batch, pseudo, kind = _random_step(11, 16, kind)
        config = CombinedLossConfig(1.0, 1.0, 1.0)
        want = _loss_and_grads(reference_combined_loss, student, batch, kind, config, pseudo,
                               teacher)
        calls, real_kernel = [], getattr(distill, kernel)

        def batched_kl(teachers, students, *label_seqs):
            calls.append(len(teachers))
            return real_kernel(teachers, students, *label_seqs)

        monkeypatch.setattr(distill, "RUN_LATTICES", bound)
        monkeypatch.setattr(distill, kernel, batched_kl)
        got = _loss_and_grads(combined_loss, student, batch, kind, config,
                              pseudo_labels=pseudo, teacher_model=teacher)
        assert got[0] == want[0] and got[1] == want[1]
        for name in want[2]:
            assert np.array_equal(got[2][name], want[2][name]), name
        # each utterance reads one label sequence, so a run closes every
        # ``bound`` utterances; the runs of supervised utterances alone make none
        runs = [batch[start:start + bound] for start in range(0, len(batch), bound)]
        assert calls == [n for n in (sum(u.labels is None for u in run) for run in runs) if n]

    def test_fsnorm_step_gradient_matches_finite_differences(self):
        """Three unsupervised utterances: each N-best list holds the empty
        hypothesis, and the hard term shares the pseudo label's lattice."""
        rng = np.random.default_rng(7)
        enc = EncoderConfig(causal=False, left_context=1, right_context=1, subsample=1, hidden=4)
        student = TransducerModel(vocab_size=3, feat_dim=2, encoder=enc, seed=3)
        batch, pseudo = [], {}
        for i, nbest in enumerate([[((0, 1), -2.0), ((), -3.0), ((1,), -4.0)],
                                   [((2,), -1.5), ((), -2.5)],
                                   [((1, 1, 0), -3.0), ((1, 0), -3.5), ((), -6.0)]]):
            batch.append(Utterance(f"u-{i}", rng.normal(size=(4 + i, 2)), None))
            pseudo[f"u-{i}"] = PseudoLabelRecord(f"u-{i}", nbest, len(nbest) - 1 if i == 2 else 0)
        kind, config = DistillLossKind(LossKind.FSNORM_MSE, 0), CombinedLossConfig(0.0, 0.5, 1.0)

        def loss():
            return combined_loss(student, batch, kind, config, pseudo_labels=pseudo)[0]

        student.zero_grad()
        loss()
        analytic = {name: g.copy() for name, g in student.grads.items()}
        h, worst = 1e-6, 0.0
        for name, p in student.params.items():
            flat, gflat = p.reshape(-1), analytic[name].reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = loss()
                flat[i] = orig - h
                down = loss()
                flat[i] = orig
                fd = (up - down) / (2 * h)
                worst = max(worst, abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-8))
        assert worst < 1e-4
