"""Distillation losses for sequence transducers.

Frame-local losses (soft distillation) match teacher and student posterior
distributions at every lattice node; sequence-level losses (full-sum
distillation) match sequence log-probabilities and therefore tolerate
teachers and students with different time resolutions.  All losses return
their gradient w.r.t. the student side; the teacher is a frozen constant.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .lattice import Lattice, LatticeShapeError, logsumexp, rnnt_loss_with_grad
from .model import NonFiniteLossError


class DistillError(ValueError):
    pass


class LossKind(str, Enum):
    HARD = "hard"
    SOFT_FULL = "soft_full"
    SOFT_EFFICIENT = "soft_efficient"
    FS_L1 = "fs_l1"
    FS_MSE = "fs_mse"
    FSNORM_L1 = "fsnorm_l1"
    FSNORM_MSE = "fsnorm_mse"

    @property
    def is_soft(self) -> bool:
        return self in (LossKind.SOFT_FULL, LossKind.SOFT_EFFICIENT)

    @property
    def is_norm(self) -> bool:
        return self in (LossKind.FSNORM_L1, LossKind.FSNORM_MSE)

    @property
    def fs_flavor(self) -> str:
        return "mse" if self in (LossKind.FS_MSE, LossKind.FSNORM_MSE) else "l1"


@dataclass(frozen=True)
class DistillLossKind:
    """A distillation loss selection plus its knobs.

    ``shift_n`` shifts the teacher lattice right in time (soft variants
    only).  The normalized sequence variants use the pseudo-label record's
    whole N-best list, whose length is set when decoding.
    """

    kind: LossKind
    shift_n: int = 0

    def __post_init__(self):
        if self.shift_n < 0:
            raise DistillError("shift_n must be >= 0")
        if self.shift_n > 0 and not self.kind.is_soft:
            raise DistillError("shift_n only applies to soft distillation")


@dataclass(frozen=True)
class CombinedLossConfig:
    weight_supervised_rnnt: float = 1.0
    weight_hard_on_pseudo: float = 0.0
    weight_distill: float = 0.0

    def __post_init__(self):
        weights = (
            self.weight_supervised_rnnt,
            self.weight_hard_on_pseudo,
            self.weight_distill,
        )
        if any(w < 0 for w in weights):
            raise DistillError("loss weights must be non-negative")
        if not any(w > 0 for w in weights):
            raise DistillError("at least one loss weight must be positive")


def _check_same_shape(teacher: Lattice, student: Lattice) -> None:
    if teacher.log_probs.shape != student.log_probs.shape:
        raise LatticeShapeError(
            "teacher/student lattices differ in shape: "
            f"{teacher.log_probs.shape} vs {student.log_probs.shape}; "
            "frame-local soft distillation requires identical T', U, K "
            "(sequence-level full-sum distillation has no such constraint)",
            teacher.log_probs.shape,
            student.log_probs.shape,
        )


def soft_kl_full(teacher: Lattice, student: Lattice):
    """KL(teacher || student) summed over every lattice node and label.

    Returns ``(loss, grad)`` with the gradient taken w.r.t. the student
    log-probabilities (simply -teacher_probs at included positions).
    """
    _check_same_shape(teacher, student)
    skip = max(teacher.excluded_frames, student.excluded_frames)

    t_lp = teacher.log_probs[skip:]
    s_lp = student.log_probs[skip:]
    t_p = np.exp(t_lp)
    node_kl = np.sum(t_p * (t_lp - s_lp), axis=-1)

    grad = np.zeros_like(student.log_probs)
    grad[skip:] = -t_p
    return float(node_kl.sum()), grad


def _three_class_log(lp: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Collapse each node of ``lp`` (..., T, U+1, K+1) to log-masses of
    (target, blank, rest), stacked on a new leading axis of size 3.

    Working entirely in log space keeps the masses finite even where the
    linear probabilities underflow: the rest-mass is a log-add over the
    non-target labels, in label order.  Structurally empty classes (the
    target at the u=U row, the rest when K = 1 below it) are -inf and carry
    zero teacher weight.
    """
    blank = lp.shape[-1] - 1
    rows = np.arange(len(y))
    classes = np.full((3,) + lp.shape[:-1], -np.inf)
    classes[0][..., rows] = lp[..., rows, y]
    classes[1] = lp[..., blank]
    rest = lp[..., :blank].copy()
    rest[..., rows, y] = -np.inf  # the target label is not part of "rest"
    classes[2] = np.logaddexp.reduce(rest, axis=-1)
    return classes


def _kl_term(log_p, log_q):
    """Elementwise exp(log_p) * (log_p - log_q), zero where log_p = -inf."""
    out = np.zeros_like(log_p)
    mask = log_p > -np.inf
    out[mask] = np.exp(log_p[mask]) * (log_p[mask] - log_q[mask])
    return out


def soft_kl_efficient(teacher: Lattice, student: Lattice, labels):
    """Three-class soft distillation: match (target, blank, rest) at each node.

    The coarsened KL never exceeds the full KL (log-sum inequality).
    """
    _check_same_shape(teacher, student)
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    if len(y) + 1 != teacher.num_label_rows:
        raise LatticeShapeError(
            f"label sequence of length {len(y)} does not match lattice with "
            f"{teacher.num_label_rows} label rows",
            teacher.log_probs.shape,
            (len(y),),
        )
    skip = max(teacher.excluded_frames, student.excluded_frames)

    # classes[c, 0] is the teacher's, classes[c, 1] the student's mass
    classes = _three_class_log(np.stack((teacher.log_probs[skip:], student.log_probs[skip:])), y)
    (t_tgt, _), (t_blank, _), (t_rest, s_rest) = classes
    class_kl = _kl_term(classes[:, 0], classes[:, 1])
    kl = class_kl[0] + class_kl[1] + class_kl[2]
    loss = float(kl.sum())

    # gradient w.r.t. student log-probabilities via the class masses:
    # d/dlogp(target) = -exp(t_tgt), d/dlogp(blank) = -exp(t_blank),
    # d/dlogp(k in rest) = -exp(t_rest) * softmax of logp(k) within rest
    s_lp = student.log_probs[skip:]
    blank = student.blank

    grad = np.zeros_like(student.log_probs)
    gview = grad[skip:]
    rest_weight = np.where(t_rest > -np.inf, np.exp(t_rest), 0.0)
    has_rest = s_rest > -np.inf
    inside = np.exp(s_lp[:, :, :blank] - np.where(has_rest, s_rest, 0.0)[..., None])
    gview[:, :, :blank] = -rest_weight[..., None] * np.where(has_rest[..., None], inside, 0.0)
    rows = np.arange(len(y))
    gview[:, rows, y] = -np.exp(t_tgt[:, rows])
    gview[:, :, blank] = -np.exp(t_blank)
    return loss, grad


def shift_teacher(teacher: Lattice, shift: int) -> Lattice:
    """Move the teacher lattice ``shift`` frames to the right in time.

    Output node (t, u) holds teacher node (t - shift, u); the first
    ``shift`` frames carry no teacher evidence and are flagged excluded so
    soft losses skip them rather than matching invented distributions.
    """
    if shift < 0:
        raise DistillError("shift must be >= 0")
    if shift >= teacher.num_frames:
        raise DistillError(
            f"shift {shift} >= lattice length {teacher.num_frames}"
        )
    if shift == 0:
        return Lattice(teacher.log_probs.copy(), excluded_frames=teacher.excluded_frames)
    shifted = np.empty_like(teacher.log_probs)
    shifted[shift:] = teacher.log_probs[: teacher.num_frames - shift]
    # excluded region: placeholder uniform rows, never read by the losses
    shifted[:shift] = -np.log(teacher.log_probs.shape[2])
    return Lattice(shifted, excluded_frames=shift + teacher.excluded_frames)


def _check_fs_input(value: float, side: str) -> float:
    value = float(value)
    if not np.isfinite(value):
        raise DistillError(f"non-finite {side} loss value: {value!r}")
    return value


def fs_distill(teacher_nll: float, student_nll: float, kind: str = "l1"):
    """Sequence-level distillation on full-sum losses of the pseudo label.

    Both inputs are -log P(Y|X); the teacher value is a constant.  Returns
    ``(loss, d loss / d student_nll)``.
    """
    t = _check_fs_input(teacher_nll, "teacher")
    s = _check_fs_input(student_nll, "student")
    diff = s - t
    if kind == "l1":
        return abs(diff), float(np.sign(diff))
    if kind == "mse":
        return diff * diff, 2.0 * diff
    raise DistillError(f"unknown full-sum flavor {kind!r}")


def fs_norm_distill(teacher_scores, student_scores, target_index: int, kind: str = "l1"):
    """Full-sum distillation on N-best-normalized sequence log-probabilities.

    Scores are log P(Y'|X) over a shared hypothesis list; both sides are
    normalized by their logsumexp, which cancels any constant offset.
    Returns ``(loss, gradient w.r.t. student_scores)``.
    """
    t = np.asarray(teacher_scores, dtype=np.float64).reshape(-1)
    s = np.asarray(student_scores, dtype=np.float64).reshape(-1)
    if t.size == 0:
        raise DistillError("empty hypothesis list")
    if t.size != s.size:
        raise DistillError(
            f"teacher/student score lists differ in length: {t.size} vs {s.size}"
        )
    if not 0 <= target_index < t.size:
        raise DistillError(f"target index {target_index} outside list of {t.size}")
    if not np.all(np.isfinite(t)):
        raise DistillError("non-finite teacher score")
    if not np.all(np.isfinite(s)):
        raise DistillError("non-finite student score")

    t_norm = t[target_index] - logsumexp(t)
    s_norm = s[target_index] - logsumexp(s)
    # the L1 or squared distance of the normalized scores, as in fs_distill
    loss, dnorm = fs_distill(t_norm, s_norm, kind)

    # s_norm = s[i] - logsumexp(s): d s_norm / d s_j = [j == i] - softmax(s)_j
    softmax = np.exp(s - logsumexp(s))
    grad = -softmax
    grad[target_index] += 1.0
    return float(loss), dnorm * grad


# ----- batch-level combination -----
#
# Each term returns its loss and the (scale, forward cache, lattice gradient)
# triples to backpropagate, weighted by the term's weight.


class _StudentPasses:
    """The student's forward pass and full-sum loss per label sequence of one
    utterance, each run at most once however many terms read it.  A forward
    pass depends only on the parameters, which no term changes, so every
    term sees the values that a pass of its own would give."""

    def __init__(self, model, x):
        self.model, self.x, self._passes = model, x, {}

    def forward(self, labels):
        """``[lattice, forward cache, (NLL, lattice gradient) or None]``."""
        key = tuple(labels)
        if key not in self._passes:
            self._passes[key] = [*self.model.forward(self.x, list(key)), None]
        return self._passes[key]

    def loss(self, labels):
        """``(NLL, lattice gradient, forward cache)``."""
        entry = self.forward(labels)
        if entry[2] is None:
            entry[2] = rnnt_loss_with_grad(entry[0], list(labels))
        return (*entry[2], entry[1])


def _rnnt_term(student, y):
    nll, g, cache = student.loss(y)
    return nll, [(1.0, cache, g)]


def _soft_term(student, teacher_model, teacher_lattices: dict, utt_id: str, y,
               kind: DistillLossKind):
    student_lat, cache, _ = student.forward(y)
    key = (utt_id, tuple(y))
    if key not in teacher_lattices:
        teacher_lattices[key] = teacher_model.build_lattice(student.x, list(y))
        teacher_lattices[key].log_probs.flags.writeable = False
    teacher_lat = teacher_lattices[key]
    if kind.shift_n > 0:
        teacher_lat = shift_teacher(teacher_lat, kind.shift_n)
    if kind.kind == LossKind.SOFT_FULL:
        loss, g = soft_kl_full(teacher_lat, student_lat)
    else:
        loss, g = soft_kl_efficient(teacher_lat, student_lat, list(y))
    return loss, [(1.0, cache, g)]


def _fs_term(student, record, kind: DistillLossKind):
    if not kind.kind.is_norm:
        nll, g, cache = student.loss(record.labels)
        loss, dnll = fs_distill(-record.score, nll, kind.kind.fs_flavor)
        return loss, [(dnll, cache, g)]
    if len(record.nbest) < 2:
        raise DistillError(
            f"normalized full-sum distillation needs an N-best list with "
            f">= 2 hypotheses, got {len(record.nbest)} for {record.utt_id}"
        )
    passes = [student.loss(labels) for labels, _ in record.nbest]
    loss, dscores = fs_norm_distill(
        [score for _, score in record.nbest], [-nll for nll, _, _ in passes],
        record.target_index(), kind.kind.fs_flavor,
    )
    # score = -NLL, so d score / d lattice = -d NLL / d lattice
    return loss, [(-dscore, cache, g) for dscore, (_, g, cache) in zip(dscores, passes)]


def combined_loss(model, batch, kind: DistillLossKind, config: CombinedLossConfig,
                  pseudo_labels=None, teacher_model=None, teacher_lattices=None):
    """Weighted sum of supervised, hard-pseudo, and distillation terms.

    ``batch`` is a list of corpus utterances; those with ground-truth labels
    form the supervised slice, the rest must have a pseudo-label record.
    Per-term means are reported separately for logging.  Gradients are
    accumulated into ``model.grads`` scaled by the term weights, with one
    ``model.backward`` per term and lattice.  The terms of an utterance
    share one student forward pass and full-sum loss per label sequence.
    ``teacher_lattices`` memoizes the frozen teacher's lattices by
    (utt_id, label sequence); one dict may serve every call that uses the
    same teacher and corpus.
    """
    teacher_lattices = {} if teacher_lattices is None else teacher_lattices
    sums = {"supervised_rnnt": 0.0, "hard_on_pseudo": 0.0, "distill": 0.0}
    counts = {"supervised_rnnt": 0, "hard_on_pseudo": 0, "distill": 0}
    n_sup = max(sum(1 for u in batch if u.labels is not None), 1)
    n_unsup = max(sum(1 for u in batch if u.labels is None), 1)

    def add(name, weight, utt_id, term):
        loss, parts = term
        if not np.isfinite(loss):
            raise NonFiniteLossError(utt_id, loss)
        if weight != 0.0:
            for scale, cache, g in parts:
                model.backward(cache, (scale * weight) * g)
        sums[name] += loss
        counts[name] += 1

    for utt in batch:
        student = _StudentPasses(model, utt.frames)
        if utt.labels is not None:
            if config.weight_supervised_rnnt > 0:
                add("supervised_rnnt", config.weight_supervised_rnnt / n_sup, utt.utt_id,
                    _rnnt_term(student, utt.labels))
            continue

        record = (pseudo_labels or {}).get(utt.utt_id)
        if record is None:
            if config.weight_hard_on_pseudo > 0 or config.weight_distill > 0:
                raise DistillError(f"no pseudo label for utterance {utt.utt_id}")
            continue
        if config.weight_hard_on_pseudo > 0:
            add("hard_on_pseudo", config.weight_hard_on_pseudo / n_unsup, utt.utt_id,
                _rnnt_term(student, record.labels))
        if config.weight_distill > 0 and kind.kind != LossKind.HARD:
            if not kind.kind.is_soft:
                term = _fs_term(student, record, kind)
            elif teacher_model is None:
                raise DistillError("soft distillation requires the teacher model")
            else:
                term = _soft_term(student, teacher_model, teacher_lattices, utt.utt_id,
                                  record.labels, kind)
            add("distill", config.weight_distill / n_unsup, utt.utt_id, term)

    terms = {
        name: (sums[name] / counts[name] if counts[name] else 0.0) for name in sums
    }
    total = (
        config.weight_supervised_rnnt * terms["supervised_rnnt"]
        + config.weight_hard_on_pseudo * terms["hard_on_pseudo"]
        + config.weight_distill * terms["distill"]
    )
    return total, terms


def make_loss_fn(kind, config, pseudo_labels=None, teacher_model=None, teacher_lattices=None):
    """Bind a ``combined_loss`` closure usable with ``model.train_step``."""

    def loss_fn(model, batch):
        return combined_loss(model, batch, kind, config, pseudo_labels, teacher_model,
                             teacher_lattices=teacher_lattices)

    return loss_fn
