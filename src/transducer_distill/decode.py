"""Greedy and beam-search decoding, and full-sum N-best rescoring.

The decoders take a list of utterances and return a result per utterance.
Each utterance's search is a generator that yields requests ``(parent state,
new label or None, first frame, frame count)`` and is sent ``(state, rows)``:
the parent's predictor state advanced by the label, and that state's joint
rows for those frames.  ``_lockstep`` serves the requests of ``RUN_UTTERANCES``
searches per round with one stacked ``predictor_advance`` and one stacked
``joint_log_probs`` over runs of the model's ``encode(x)`` frames (projected
into joint space), all as stacks of vector-matrix products, which round each
row as the lone product does: a row is the same whatever shares its call.
The lattice path (``forward``, ``lattices``) keeps one matrix product over all
frames, whose last bits differ, so that training keeps its float trajectory.
Ties go to the lexicographically smaller label sequence, so decoding is
deterministic.
"""

import heapq
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .data import RecordError, read_records, record_labels, write_records
from .lattice import forward_backward

RUN_UTTERANCES = 16  # searches stepped together: 8 to 150 measured (README, Decoding)


class DecodeError(ValueError):
    pass


def _lockstep(model, xs, search, *args) -> list:
    """The result of ``search(frame count, start state, blank, *args)`` for each
    utterance of ``xs``, the searches stepped ``RUN_UTTERANCES`` at a time."""
    start, results = model.predictor_start(), [None] * len(xs)
    waiting, live = list(enumerate(xs))[::-1], []  # live: [utterance, frames, search, reply]
    while waiting or live:
        while waiting and len(live) < RUN_UTTERANCES:
            i, x = waiting.pop()
            frames = model.encode(x)
            live.append([i, frames, search(len(frames), start, model.vocab_size, *args), None])
        requests, running = [], []
        for entry in live:
            try:
                requests.append(entry[2].send(entry[3]))
                running.append(entry)
            except StopIteration as done:
                results[entry[0]] = done.value
        live = running
        if not live:
            continue
        states, labels, firsts, counts = zip(*requests)
        states = np.array(states)
        grown = [j for j, k in enumerate(labels) if k is not None]
        if grown:
            states[grown] = model.predictor_advance(states[grown], [labels[j] for j in grown])
        rows = model.joint_log_probs([e[1][t : t + n] for e, t, n in zip(live, firsts, counts)],
                                     states).tolist()
        for entry, state, n, end in zip(live, states, counts, accumulate(counts)):
            entry[3] = state, rows[end - n : end]
    return results


def _greedy(n_frames, state, blank, cap):
    """One utterance's greedy search, as ``_lockstep`` runs it."""
    (state, rows), t0 = (yield state, None, 0, 1), 0  # rows of state, from frame t0
    labels, score = [], 0.0
    for t in range(n_frames):
        if t - t0 == len(rows):  # the state outlived its frame: rows for the rest
            (state, rows), t0 = (yield state, None, t, n_frames - t), t
        for _ in range(cap):
            logp = rows[t - t0]
            k = logp.index(max(logp))
            score += logp[k]
            if k == blank:
                break
            labels.append(k)
            (state, rows), t0 = (yield state, k, t, 1), t
        else:
            # cap hit: advance time, accounting for the blank we force
            score += rows[t - t0][blank]
    return tuple(labels), score


def greedy_decode(model, xs, max_symbols_per_frame: int) -> list:
    """Frame-synchronous argmax decoding; returns a (labels, score) pair per
    utterance of ``xs``.

    Emits the argmax label while it beats blank (capped per frame), then
    advances time; the score accumulates the chosen log-probabilities.
    """
    if max_symbols_per_frame < 1:
        raise DecodeError("max_symbols_per_frame must be >= 1")
    return _lockstep(model, xs, _greedy, max_symbols_per_frame)


def _beam(n_frames, start, blank, beam, cap):
    """One utterance's beam search, as ``_lockstep`` runs it."""
    states = {(): start}  # label prefix -> predictor state
    rows: dict[tuple, tuple] = {}  # label prefix -> (t0, joint rows of frames t0.. as lists)

    kept = [((), 0.0)]
    for t in range(n_frames):
        # entries (-score, labels, push order, symbols emitted this frame):
        # exact ties go to the hypothesis pushed first
        heap = [(-score, labels, i, 0) for i, (labels, score) in enumerate(kept)]
        heapq.heapify(heap)
        pushed = len(heap)
        merged: dict[tuple, float] = {}
        while heap:
            neg_score, labels, _, emitted = heapq.heappop(heap)
            score = -neg_score
            entry = rows.get(labels)
            if entry is None:
                parent, label = (labels, None) if labels in states else (labels[:-1], labels[-1])
                states[labels], got = yield states[parent], label, t, n_frames - t
                entry = rows[labels] = (t, got)
            logp = entry[1][t - entry[0]]

            # blank terminates the frame for this hypothesis; merge
            blank_score = score + logp[blank]
            existing = merged.get(labels)
            merged[labels] = (
                blank_score if existing is None else float(np.logaddexp(existing, blank_score))
            )

            if emitted < cap:
                for k, lp in enumerate(logp[:blank]):
                    heapq.heappush(heap, (-(score + lp), labels + (k,), pushed, emitted + 1))
                    pushed += 1

            # fewer than ``beam`` merged scores cannot count ``beam`` above the frontier
            if heap and len(merged) >= beam:
                frontier = -heap[0][0]
                if sum(1 for s in merged.values() if s > frontier) >= beam:
                    break
        kept = sorted(merged.items(), key=lambda e: (-e[1], e[0]))[:beam]
        rows = {labels: rows[labels] for labels in merged}  # this frame's pops
    return kept


def beam_search(model, xs, beam: int, max_symbols_per_frame: int) -> list:
    """Time-synchronous transducer beam search with hypothesis merging; returns
    at most ``beam`` (labels, score) pairs, best first, per utterance of ``xs``.

    Hypotheses carrying identical label sequences are merged by log-adding
    their scores, so with a beam wide enough to avoid pruning the scores
    converge to the exact full-sum sequence log-probabilities.

    Each frame pops hypotheses best-first from a heap; a popped hypothesis
    pushes its label extensions with their scores only.  A prefix's predictor
    state is kept for the utterance and its rows for frames t..T'-1 (from a pop
    at frame t) while it is popped frame after frame: both depend on its labels.
    """
    if beam < 1 or max_symbols_per_frame < 1:
        raise DecodeError("beam and max_symbols_per_frame must be >= 1")
    return _lockstep(model, xs, _beam, beam, max_symbols_per_frame)


def rescore_nbest(model, x, nbest: list) -> list:
    """Exact full-sum log P(Y'|X) of every (labels, score) pair's labels,
    from one encoder pass."""
    label_seqs = [list(labels) for labels, _ in nbest]
    return [float(forward_backward(lat, labels)[0])
            for lat, labels in zip(model.lattices(x, label_seqs), label_seqs)]


# ----- pseudo-label records -----


@dataclass
class PseudoLabelRecord:
    """Teacher output for one unsupervised utterance: ``nbest`` holds distinct
    (labels, full-sum rescored log probability) pairs, and ``nbest[target]``
    is the pseudo label and its score."""

    utt_id: str
    nbest: list
    target: int

    labels = property(lambda self: self.nbest[self.target][0])
    score = property(lambda self: self.nbest[self.target][1])


def pseudo_label_record(utt_id: str, beam: list, rescored: list, size: int) -> PseudoLabelRecord:
    """A record from a ``beam_search`` list and its ``rescore_nbest`` scores: the
    ``size`` best pairs by rescored score (ties to the smaller labels), the beam's
    best (the pseudo label) replacing the last pair when it ranks below them."""
    pairs = sorted(zip((labels for labels, _ in beam), rescored), key=lambda e: (-e[1], e[0]))
    target, keep = (beam[0][0], rescored[0]), pairs[:size]
    if target not in keep:
        keep[-1] = target
    return PseudoLabelRecord(utt_id, keep, keep.index(target))


def write_pseudo_labels(path, records) -> None:
    write_records(path, ({"utt_id": rec.utt_id, "labels": list(rec.labels), "score": rec.score,
                          "nbest": [{"labels": list(l), "score": s} for l, s in rec.nbest]}
                         for rec in records))


def read_pseudo_labels(path, vocab_size=None) -> dict:
    """Read a pseudo-label file, checking each record's keys and types, that
    its scores are finite, its N-best hypotheses distinct, its (labels, score)
    an N-best pair and, with ``vocab_size``, its labels in [0, vocab_size)."""
    records = {}
    for place, obj in read_records(path, ("utt_id", "labels", "score", "nbest")):
        nbest = obj["nbest"]
        if not isinstance(nbest, list) or not all(
                isinstance(e, dict) and {"labels", "score"} <= e.keys() for e in nbest):
            raise RecordError(f"{place}: nbest must be a list of {{labels, score}} objects")
        scores = [obj["score"], *(e["score"] for e in nbest)]
        if not all(type(v) in (int, float) for v in scores):
            raise RecordError(f"{place}: every score must be a number")
        try:
            scores = [float(v) for v in scores]
        except OverflowError:  # a JSON integer beyond the float range
            raise RecordError(f"{place}: a score is too large for a float") from None
        labels = record_labels(obj["labels"], place, vocab_size)
        pairs = [(record_labels(e["labels"], place, vocab_size), score)
                 for e, score in zip(nbest, scores[1:])]
        if not np.all(np.isfinite(scores)):
            raise RecordError(f"{place}: non-finite score in {scores}")
        if len({hyp for hyp, _ in pairs}) < len(pairs):
            raise RecordError(f"{place}: the N-best list repeats a hypothesis")
        try:
            target = pairs.index((labels, scores[0]))
        except ValueError:
            raise RecordError(f"{place}: pseudo label {list(labels)} with score {scores[0]!r} "
                              f"is not one of its N-best pairs") from None
        records[obj["utt_id"]] = PseudoLabelRecord(obj["utt_id"], pairs, target)
    return records
