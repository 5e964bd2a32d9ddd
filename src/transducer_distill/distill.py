"""Distillation losses for sequence transducers.

Frame-local losses (soft distillation) match teacher and student posterior
distributions node for node over two lattices of equal shape; a teacher that
runs ahead of the student in time is compared on the overlap, a slice of each
lattice (``shift_teacher``).  Sequence-level losses (full-sum distillation)
match sequence log-probabilities and therefore tolerate teachers and
students with different time resolutions.  All losses return
their gradient w.r.t. the student side; the teacher is a frozen constant.
"""

from dataclasses import dataclass
from enum import Enum
from functools import reduce

import numpy as np

from .lattice import (Lattice, LatticeShapeError, check_labels, logsumexp, rnnt_losses_with_grad,
                      rnnt_loss_with_grad)  # noqa: F401  (kept for callers that rebind it)
from .model import NonFiniteLossError

RUN_LATTICES = 32  # (utterance, label sequence) pairs per run; bounds the passes held at once


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
    shift_n: int

    def __post_init__(self):
        if self.shift_n < 0:
            raise DistillError("shift_n must be >= 0")
        if self.shift_n > 0 and not self.kind.is_soft:
            raise DistillError("shift_n only applies to soft distillation")


@dataclass(frozen=True)
class CombinedLossConfig:
    weight_supervised_rnnt: float
    weight_hard_on_pseudo: float
    weight_distill: float

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


def _flat_nodes(teachers, students, label_seqs=None):
    """Check each pair of a batch, and its labels if given, in order; stack the
    nodes of both sides, pair by pair in (t, u) order, as ``(2, rows, K+1)``
    log-probabilities (teacher first), with each pair's (start row, end row)
    and, given labels, each row's target (-1 on the u = U row)."""
    spans, targets, end = [], [], 0
    for i, (teacher, student) in enumerate(zip(teachers, students, strict=True)):
        _check_same_shape(teacher, student)
        if label_seqs is not None:
            y = check_labels(label_seqs[i], teacher.vocab_size).tolist()
            if len(y) + 1 != teacher.num_label_rows:
                raise LatticeShapeError(f"label sequence of length {len(y)} does not match lattice "
                                        f"with {teacher.num_label_rows} label rows",
                                        teacher.log_probs.shape, (len(y),))
            targets += (y + [-1]) * teacher.num_frames
        spans.append((end, end + teacher.num_frames * teacher.num_label_rows))
        end = spans[-1][1]
    lp = np.concatenate([lat.log_probs.reshape(-1, lat.log_probs.shape[2])
                         for lattices in (teachers, students) for lat in lattices])
    return lp.reshape(2, end, lp.shape[1]), spans, np.array(targets, dtype=np.int64)


def _per_pair(students, spans, node_kl, grad) -> list:
    """``(loss, grad)`` of each pair: the sum of its own slice of ``node_kl``, in the
    order of one lattice alone, and its rows of ``grad`` in its lattice's shape."""
    return [(float(node_kl[start:end].sum()), grad[start:end].reshape(student.log_probs.shape))
            for student, (start, end) in zip(students, spans)]


def soft_kl_full(teachers, students) -> list:
    """KL(teacher || student) of each (teacher, student) pair, summed over every
    node and label: ``[(loss, grad)]``, each gradient taken w.r.t. the student
    log-probabilities (simply -teacher_probs)."""
    if not teachers:
        return []
    (t_lp, s_lp), spans, _ = _flat_nodes(teachers, students)
    t_p = np.exp(t_lp)
    return _per_pair(students, spans, np.sum(t_p * (t_lp - s_lp), axis=-1), -t_p)


def _kl_term(log_p, log_q):
    """Elementwise exp(log_p) * (log_p - log_q), zero where log_p = -inf."""
    out = np.zeros_like(log_p)
    mask = log_p > -np.inf
    out[mask] = np.exp(log_p[mask]) * (log_p[mask] - log_q[mask])
    return out


def soft_kl_efficient(teachers, students, label_seqs) -> list:
    """Three-class soft distillation of each (teacher, student, labels) triple:
    match (target, blank, rest) at each node; ``[(loss, grad)]``.

    The coarsened KL never exceeds the full KL (log-sum inequality).  The
    batch's nodes collapse at once in log space, so the masses stay finite
    where the probabilities underflow.  Structurally empty classes (the target
    at the u=U row, the rest when K = 1 below it) carry zero teacher weight.
    """
    if not teachers:
        return []
    lp, spans, targets = _flat_nodes(teachers, students, label_seqs)
    blank = lp.shape[2] - 1
    rows = np.flatnonzero(targets >= 0)
    y = targets[rows]
    # classes[c, 0] is the teacher's, classes[c, 1] the student's mass
    classes = np.full((3,) + lp.shape[:2], -np.inf)
    classes[0][:, rows] = lp[:, rows, y]
    classes[1] = lp[:, :, blank]
    rest = lp[:, :, :blank].copy()
    rest[:, rows, y] = -np.inf  # the target label is not part of "rest"
    classes[2] = reduce(np.logaddexp, np.moveaxis(rest, -1, 0))  # label by label
    (t_tgt, _), (t_blank, _), (t_rest, s_rest) = classes
    class_kl = _kl_term(classes[:, 0], classes[:, 1])

    # gradient w.r.t. student log-probabilities via the class masses:
    # d/dlogp(target) = -exp(t_tgt), d/dlogp(blank) = -exp(t_blank),
    # d/dlogp(k in rest) = -exp(t_rest) * softmax of logp(k) within rest
    grad = np.empty_like(lp[1])
    rest_weight = np.where(t_rest > -np.inf, np.exp(t_rest), 0.0)
    has_rest = s_rest > -np.inf
    inside = np.exp(lp[1, :, :blank] - np.where(has_rest, s_rest, 0.0)[:, None])
    grad[:, :blank] = -rest_weight[:, None] * np.where(has_rest[:, None], inside, 0.0)
    grad[rows, y] = -np.exp(t_tgt[rows])
    grad[:, blank] = -np.exp(t_blank)
    return _per_pair(students, spans, class_kl[0] + class_kl[1] + class_kl[2], grad)


def shift_teacher(teacher: Lattice, student: Lattice, shift: int) -> tuple:
    """The pair that a soft loss compares when the teacher runs ``shift``
    frames ahead of the student: teacher frames [0, T - shift) against
    student frames [shift, T), as views of the two lattices.  The student's
    first ``shift`` frames have no teacher frame and take no part."""
    if shift < 0:
        raise DistillError("shift must be >= 0")
    if shift >= teacher.num_frames:
        raise DistillError(
            f"shift {shift} >= lattice length {teacher.num_frames}"
        )
    return (Lattice(teacher.log_probs[: teacher.num_frames - shift]),
            Lattice(student.log_probs[shift:]))


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
# A loss term of an utterance is data: ``(log name, weight, label sequences)``
# (``_terms``).  The run loop picks each term's kernel in one place: the supervised
# and hard terms read their pass's full-sum, a soft distill term takes its result of
# the run's one soft-KL call (``_soft_kl``) and a full-sum distill term is
# ``_fs_term``.  Each gives its loss and the (scale, forward cache, lattice gradient)
# triples to backpropagate.


def _soft_kl(kind: DistillLossKind, teacher_model, teacher_lattices: dict, inputs) -> list:
    """``(loss, backward parts)`` of each soft term's ``(utterance, labels, student
    pass)`` in ``inputs``, from one soft-KL call: each teacher lattice is built once
    into ``teacher_lattices`` and shifted against its student lattice, and each
    gradient takes its student lattice's shape, zero on the first ``kind.shift_n``
    frames."""
    if not inputs:
        return []
    if teacher_model is None:
        raise DistillError("soft distillation requires the teacher model")
    pairs = []
    for utt, y, (student_lat, _, _) in inputs:
        key = (utt.utt_id, tuple(y))
        if key not in teacher_lattices:
            teacher_lattices[key] = teacher_model.build_lattice(utt.frames, list(y))
            teacher_lattices[key].log_probs.flags.writeable = False
        pairs.append(shift_teacher(teacher_lattices[key], student_lat, kind.shift_n))
    teachers, students = zip(*pairs)
    kls = (soft_kl_full(teachers, students) if kind.kind == LossKind.SOFT_FULL
           else soft_kl_efficient(teachers, students, [list(y) for _, y, _ in inputs]))
    out = []
    for (loss, g), (_, _, (_, cache, _)) in zip(kls, inputs):
        grad = np.zeros((kind.shift_n + len(g), *g.shape[1:]))
        grad[kind.shift_n:] = g
        out.append((loss, [(1.0, cache, grad)]))
    return out


def _fs_term(passes, record, kind: DistillLossKind):
    if not kind.kind.is_norm:
        ((_, cache, (nll, g)),) = passes
        loss, dnll = fs_distill(-record.score, nll, kind.kind.fs_flavor)
        return loss, [(dnll, cache, g)]
    if len(passes) < 2:
        raise DistillError(
            f"normalized full-sum distillation needs an N-best list with "
            f">= 2 hypotheses, got {len(passes)} for {record.utt_id}"
        )
    loss, dscores = fs_norm_distill(
        [score for _, score in record.nbest], [-nll for _, _, (nll, _) in passes],
        record.target, kind.kind.fs_flavor,
    )
    # score = -NLL, so d score / d lattice = -d NLL / d lattice
    return loss, [(-dscore, cache, g) for dscore, (_, cache, (_, g)) in zip(dscores, passes)]


def _terms(utt, record, kind: DistillLossKind, config: CombinedLossConfig, n_sup, n_unsup):
    """``(log name, weight, label sequences)`` of each loss term of ``utt``, whose
    pseudo-label record is ``record`` (None for none)."""
    if utt.labels is not None:
        weight = config.weight_supervised_rnnt
        return [("supervised_rnnt", weight / n_sup, [utt.labels])] if weight > 0 else []
    if record is None:
        if config.weight_hard_on_pseudo > 0 or config.weight_distill > 0:
            raise DistillError(f"no pseudo label for utterance {utt.utt_id}")
        return []
    terms = []
    if config.weight_hard_on_pseudo > 0:
        terms.append(("hard_on_pseudo", config.weight_hard_on_pseudo / n_unsup, [record.labels]))
    if config.weight_distill > 0 and kind.kind != LossKind.HARD:
        seqs = [labels for labels, _ in record.nbest] if kind.kind.is_norm else [record.labels]
        terms.append(("distill", config.weight_distill / n_unsup, seqs))
    return terms


def _run_passes(model, run, predicted, kind: DistillLossKind) -> list:
    """Per ``(utterance, record, terms)`` entry of ``run``, its label sequences'
    passes ``(lattice, forward cache, (NLL, lattice gradient) or None if only a
    soft term reads it)``: one encoder pass per utterance, one batched full-sum."""
    passes, keys = [], []
    for i, (utt, _, terms) in enumerate(run):
        encoded = model.encoder_pass(utt.frames) if terms else None
        passes.append({y: model.forward(utt.frames, list(y), encoded=encoded,
                                        predicted=predicted[y])
                       for y in dict.fromkeys(tuple(y) for _, _, ys in terms for y in ys)})
        keys.extend(dict.fromkeys((i, tuple(y)) for name, _, ys in terms
                                  if name != "distill" or not kind.kind.is_soft for y in ys))
    losses = dict(zip(keys, rnnt_losses_with_grad([passes[i][y][0] for i, y in keys],
                                                  [y for _, y in keys])))
    return [{y: (*fwd, losses.get((i, y))) for y, fwd in p.items()} for i, p in enumerate(passes)]


def combined_loss(model, batch, kind: DistillLossKind, config: CombinedLossConfig,
                  pseudo_labels=None, teacher_model=None, teacher_lattices=None):
    """Weighted sum of supervised, hard-pseudo, and distillation terms.

    ``batch`` is a list of corpus utterances; those with ground-truth labels
    form the supervised slice, the rest must have a pseudo-label record.
    Per-term means are reported separately for logging.  Gradients are
    accumulated into ``model.grads`` scaled by the term weights, with one
    ``model.backward`` per term and lattice.  Each utterance's terms are a
    table (``_terms``).  The step's predictor states run side by side once;
    then each run of utterances that read ``RUN_LATTICES`` or more (utterance,
    label sequence) pairs gets its passes (``_run_passes``) and one soft-KL
    call over its soft terms (``_soft_kl``), then its terms' backwards in table
    order and one ``predictor_backward``.
    ``teacher_lattices`` memoizes the frozen teacher's lattices by
    (utt_id, label sequence); one dict may serve every call that uses the
    same teacher and corpus.  Only a soft kind reads ``teacher_model``.
    """
    teacher_lattices = {} if teacher_lattices is None else teacher_lattices
    sums = {"supervised_rnnt": 0.0, "hard_on_pseudo": 0.0, "distill": 0.0}
    counts = {"supervised_rnnt": 0, "hard_on_pseudo": 0, "distill": 0}
    n_sup = max(sum(1 for u in batch if u.labels is not None), 1)
    n_unsup = max(sum(1 for u in batch if u.labels is None), 1)
    records = [(pseudo_labels or {}).get(utt.utt_id) for utt in batch]
    plan = [(utt, record, _terms(utt, record, kind, config, n_sup, n_unsup))
            for utt, record in zip(batch, records)]
    seqs = list(dict.fromkeys(tuple(y) for *_, terms in plan for _, _, ys in terms for y in ys))
    predicted = dict(zip(seqs, model.predictor_states(seqs)))
    run, held, queue = [], 0, []
    for i, (utt, record, terms) in enumerate(plan):
        run.append((utt, record, terms))
        held += len({tuple(y) for _, _, ys in terms for y in ys})
        if held < RUN_LATTICES and i < len(plan) - 1:
            continue
        by_seq = _run_passes(model, run, predicted, kind)
        work = [(utt, record, name, weight, ys, [by_seq[j][tuple(y)] for y in ys])
                for j, (utt, record, terms) in enumerate(run) for name, weight, ys in terms]
        soft = iter(_soft_kl(kind, teacher_model, teacher_lattices,
                             [(utt, ys[0], passes[0]) for utt, _, name, _, ys, passes in work
                              if name == "distill" and kind.kind.is_soft]))
        for utt, record, name, weight, _, passes in work:
            if name != "distill":
                ((_, cache, (loss, g)),) = passes
                parts = [(1.0, cache, g)]
            elif kind.kind.is_soft:
                loss, parts = next(soft)
            else:
                loss, parts = _fs_term(passes, record, kind)
            if not np.isfinite(loss):
                raise NonFiniteLossError(utt.utt_id, loss)
            for scale, cache, g in parts:
                model.backward(cache, (scale * weight) * g, queue)
            sums[name] += loss
            counts[name] += 1
        model.predictor_backward(queue)
        run, held = [], 0

    terms = {
        name: (sums[name] / counts[name] if counts[name] else 0.0) for name in sums
    }
    total = (
        config.weight_supervised_rnnt * terms["supervised_rnnt"]
        + config.weight_hard_on_pseudo * terms["hard_on_pseudo"]
        + config.weight_distill * terms["distill"]
    )
    return total, terms
