"""Distillation losses for sequence transducers.

Frame-local losses (soft distillation) match teacher and student posterior
distributions at every lattice node; sequence-level losses (full-sum
distillation) match sequence log-probabilities and therefore tolerate
teachers and students with different time resolutions.  All losses return
their gradient w.r.t. the student side; the teacher is a frozen constant.
"""

from dataclasses import dataclass
from enum import Enum
from functools import partial, reduce

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


def _flat_nodes(teachers, students, label_seqs=None):
    """Check each pair of a batch, and its labels if given, in order; stack the
    nodes both sides include, pair by pair in (t, u) order, as ``(2, rows, K+1)``
    log-probabilities (teacher first), with each pair's (start row, end row,
    skipped frames) and, given labels, each row's target (-1 on the u = U row)."""
    spans, targets, end = [], [], 0
    for i, (teacher, student) in enumerate(zip(teachers, students, strict=True)):
        _check_same_shape(teacher, student)
        skip = max(teacher.excluded_frames, student.excluded_frames)
        if label_seqs is not None:
            y = check_labels(label_seqs[i], teacher.vocab_size).tolist()
            if len(y) + 1 != teacher.num_label_rows:
                raise LatticeShapeError(f"label sequence of length {len(y)} does not match lattice "
                                        f"with {teacher.num_label_rows} label rows",
                                        teacher.log_probs.shape, (len(y),))
            targets += (y + [-1]) * (teacher.num_frames - skip)
        spans.append((end, end + (teacher.num_frames - skip) * teacher.num_label_rows, skip))
        end = spans[-1][1]
    lp = np.concatenate([lat.log_probs[skip:].reshape(-1, lat.log_probs.shape[2])
                         for lattices in (teachers, students)
                         for lat, (_, _, skip) in zip(lattices, spans)])
    return lp.reshape(2, end, lp.shape[1]), spans, np.array(targets, dtype=np.int64)


def _per_pair(students, spans, node_kl, grad) -> list:
    """``(loss, grad)`` of each pair: the sum of its own slice of ``node_kl``, in the
    order of one lattice alone, and its rows of ``grad``, zero on skipped frames."""
    out = []
    for student, (start, end, skip) in zip(students, spans):
        g = np.zeros_like(student.log_probs)
        g[skip:] = grad[start:end].reshape(g[skip:].shape)
        out.append((float(node_kl[start:end].sum()), g))
    return out


def soft_kl_full(teachers, students) -> list:
    """KL(teacher || student) of each (teacher, student) pair, summed over every
    included node and label: ``[(loss, grad)]``, each gradient taken w.r.t. the
    student log-probabilities (simply -teacher_probs at included positions)."""
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
# Each term reads the student's passes of its label sequences and returns its loss
# and the (scale, forward cache, lattice gradient) triples to backpropagate; a soft
# term returns its inputs to the one soft-KL call of its run (``_soft_kl``).


def _rnnt_term(passes, seqs):
    ((_, cache, (nll, g)),) = passes
    return nll, [(1.0, cache, g)]


def _soft_term(passes, seqs, teacher_model, teacher_lattices: dict, utt,
               kind: DistillLossKind):
    if teacher_model is None:
        raise DistillError("soft distillation requires the teacher model")
    (y,), ((student_lat, cache, _),) = seqs, passes
    key = (utt.utt_id, tuple(y))
    if key not in teacher_lattices:
        teacher_lattices[key] = teacher_model.build_lattice(utt.frames, list(y))
        teacher_lattices[key].log_probs.flags.writeable = False
    teacher_lat = teacher_lattices[key]
    if kind.shift_n > 0:
        teacher_lat = shift_teacher(teacher_lat, kind.shift_n)
    return teacher_lat, student_lat, list(y), cache


def _soft_kl(kind: DistillLossKind, inputs) -> list:
    """Each soft term's ``(loss, backward parts)``, from one soft-KL call over their inputs."""
    if not inputs:
        return []
    teachers, students, label_seqs, caches = zip(*inputs)
    kls = (soft_kl_full(teachers, students) if kind.kind == LossKind.SOFT_FULL
           else soft_kl_efficient(teachers, students, label_seqs))
    return [(loss, [(1.0, cache, g)]) for (loss, g), cache in zip(kls, caches)]


def _fs_term(passes, seqs, record, kind: DistillLossKind):
    if not kind.kind.is_norm:
        ((_, cache, (nll, g)),) = passes
        loss, dnll = fs_distill(-record.score, nll, kind.kind.fs_flavor)
        return loss, [(dnll, cache, g)]
    if len(seqs) < 2:
        raise DistillError(
            f"normalized full-sum distillation needs an N-best list with "
            f">= 2 hypotheses, got {len(seqs)} for {record.utt_id}"
        )
    loss, dscores = fs_norm_distill(
        [score for _, score in record.nbest], [-nll for _, _, (nll, _) in passes],
        record.target, kind.kind.fs_flavor,
    )
    # score = -NLL, so d score / d lattice = -d NLL / d lattice
    return loss, [(-dscore, cache, g) for dscore, (_, cache, (_, g)) in zip(dscores, passes)]


def _utterance_terms(utt, kind: DistillLossKind, config: CombinedLossConfig, n_sup, n_unsup,
                     pseudo_labels, teacher_model, teacher_lattices):
    """``(log name, weight, label sequences, full_sum, term)`` of each loss
    term of ``utt``; ``term(passes, seqs)`` reads the student's pass of each
    of those sequences, and its full-sum where ``full_sum`` (all but soft)."""
    if utt.labels is not None:
        weight = config.weight_supervised_rnnt
        return [("supervised_rnnt", weight / n_sup, [utt.labels], True, _rnnt_term)] if weight > 0 else []
    record = (pseudo_labels or {}).get(utt.utt_id)
    if record is None:
        if config.weight_hard_on_pseudo > 0 or config.weight_distill > 0:
            raise DistillError(f"no pseudo label for utterance {utt.utt_id}")
        return []
    terms = []
    if config.weight_hard_on_pseudo > 0:
        terms.append(("hard_on_pseudo", config.weight_hard_on_pseudo / n_unsup, [record.labels],
                      True, _rnnt_term))
    if config.weight_distill > 0 and kind.kind != LossKind.HARD:
        seqs = [labels for labels, _ in record.nbest] if kind.kind.is_norm else [record.labels]
        term = (partial(_soft_term, teacher_model=teacher_model, teacher_lattices=teacher_lattices,
                        utt=utt, kind=kind)
                if kind.kind.is_soft else partial(_fs_term, record=record, kind=kind))
        terms.append(("distill", config.weight_distill / n_unsup, seqs, not kind.kind.is_soft, term))
    return terms


def _sequences(terms, full_sum=False) -> list:
    """The distinct label sequences that ``terms`` read, in order; with
    ``full_sum``, those that full-sum terms read."""
    return list(dict.fromkeys(tuple(y) for _, _, ys, fs, _ in terms if fs or not full_sum
                              for y in ys))


def _run_passes(model, run, predicted) -> list:
    """Per ``(utterance, terms)`` entry of ``run``, its label sequences' passes
    ``(lattice, forward cache, (NLL, lattice gradient) or None if no full-sum
    term reads it)``: one encoder pass per utterance, one batched full-sum."""
    passes = []
    for utt, terms in run:
        encoded = model.encoder_pass(utt.frames) if terms else None
        passes.append({y: model.forward(utt.frames, list(y), encoded=encoded,
                                        predicted=predicted[y]) for y in _sequences(terms)})
    keys = [(i, y) for i, (_, terms) in enumerate(run) for y in _sequences(terms, full_sum=True)]
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
    ``model.backward`` per term and lattice.  The step's predictor states run
    side by side once; then each run of utterances that read ``RUN_LATTICES``
    or more (utterance, label sequence) pairs gets its passes (``_run_passes``)
    and one soft-KL call, then its terms' backwards in plan order and one
    ``predictor_backward``.
    ``teacher_lattices`` memoizes the frozen teacher's lattices by
    (utt_id, label sequence); one dict may serve every call that uses the
    same teacher and corpus.
    """
    teacher_lattices = {} if teacher_lattices is None else teacher_lattices
    sums = {"supervised_rnnt": 0.0, "hard_on_pseudo": 0.0, "distill": 0.0}
    counts = {"supervised_rnnt": 0, "hard_on_pseudo": 0, "distill": 0}
    n_sup = max(sum(1 for u in batch if u.labels is not None), 1)
    n_unsup = max(sum(1 for u in batch if u.labels is None), 1)
    plan = [(utt, _utterance_terms(utt, kind, config, n_sup, n_unsup, pseudo_labels,
                                   teacher_model, teacher_lattices)) for utt in batch]
    seqs = list(dict.fromkeys(y for _, terms in plan for y in _sequences(terms)))
    predicted = dict(zip(seqs, model.predictor_states(seqs)))
    run, held, queue = [], 0, []
    for i, (utt, terms) in enumerate(plan):
        run.append((utt, terms))
        held += len(_sequences(terms))
        if held < RUN_LATTICES and i < len(plan) - 1:
            continue
        work = [(utt, name, weight, ys, full_sum, term, [passes[tuple(y)] for y in ys])
                for (utt, terms), passes in zip(run, _run_passes(model, run, predicted))
                for name, weight, ys, full_sum, term in terms]
        soft = iter(_soft_kl(kind, [term(passes, ys) for *_, ys, full_sum, term, passes in work
                                    if not full_sum]))
        for utt, name, weight, ys, full_sum, term, passes in work:
            loss, parts = term(passes, ys) if full_sum else next(soft)
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


def make_loss_fn(kind, config, pseudo_labels=None, teacher_model=None, teacher_lattices=None):
    """Bind a ``combined_loss`` closure usable with ``model.train_step``."""

    def loss_fn(model, batch):
        return combined_loss(model, batch, kind, config, pseudo_labels, teacher_model,
                             teacher_lattices=teacher_lattices)

    return loss_fn
