"""Synthetic corpora with controllable difficulty.

Each label owns a fixed random template vector; an utterance emits a few
noisy copies of each label's template in order.  Task difficulty is the
single noise scale.  All randomness flows from named seeds, so identical
specs reproduce identical corpora, batches, and corruptions.
"""

import json
from dataclasses import dataclass, field
from itertools import chain

import numpy as np


class DataError(ValueError):
    pass


@dataclass(frozen=True)
class SyntheticSpec:
    vocab_size: int
    feat_dim: int
    frames_per_label: tuple
    noise_sigma: float
    label_len_range: tuple
    num_supervised: int
    num_unsupervised: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "frames_per_label", tuple(self.frames_per_label))
        object.__setattr__(self, "label_len_range", tuple(self.label_len_range))
        a, b = self.frames_per_label
        if a < 1 or b < a:
            raise DataError(f"bad frames_per_label range {self.frames_per_label}")
        lo, hi = self.label_len_range
        if lo < 1 or hi < lo:
            raise DataError(f"bad label_len_range {self.label_len_range}")
        if self.num_supervised < 1 or self.num_unsupervised < 1:
            raise DataError("corpus sizes must be >= 1")
        if self.vocab_size < 1 or self.feat_dim < 1:
            raise DataError("vocab_size and feat_dim must be >= 1")
        if self.noise_sigma < 0:
            raise DataError("noise_sigma must be >= 0")


@dataclass
class Utterance:
    utt_id: str
    frames: np.ndarray
    labels: tuple | None = None


@dataclass
class Corpus:
    split: str
    utterances: list
    hidden_refs: dict = field(default_factory=dict, repr=False)

    def __len__(self):
        return len(self.utterances)

    def utt_ids(self):
        return [u.utt_id for u in self.utterances]

    def references(self) -> dict:
        """Ground truth for evaluation, by utterance id; reaches hidden
        references of unsupervised splits that training code must never see."""
        visible = {u.utt_id: u.labels for u in self.utterances if u.labels is not None}
        return {**self.hidden_refs, **visible}


def label_templates(spec: SyntheticSpec) -> np.ndarray:
    """Per-label feature templates, a function of the spec seed only."""
    rng = np.random.default_rng(spec.seed)
    return rng.normal(size=(spec.vocab_size, spec.feat_dim))


def _sample_utterance(spec, templates, rng, utt_id: str) -> tuple:
    lo, hi = spec.label_len_range
    length = int(rng.integers(lo, hi + 1))
    labels = tuple(int(v) for v in rng.integers(0, spec.vocab_size, size=length))
    a, b = spec.frames_per_label
    repeats, noise = [], []
    for _ in labels:  # the RNG draws stay label by label
        repeats.append(int(rng.integers(a, b + 1)))
        noise.append(rng.normal(size=(repeats[-1], spec.feat_dim)))
    # the same product and sum per element as scaling each label's noise alone
    frames = templates[np.repeat(labels, repeats)] + np.concatenate(noise) * spec.noise_sigma
    frames = np.round(frames, 9)
    return Utterance(utt_id=utt_id, frames=frames, labels=labels), labels


def generate_split(spec: SyntheticSpec, tag: str, size: int, stream: int,
                   visible_labels: bool = True) -> Corpus:
    """One corpus split; ``stream`` decouples the utterance randomness from
    the template randomness so different splits share label templates."""
    templates = label_templates(spec)
    rng = np.random.default_rng([spec.seed, stream])
    utterances = []
    hidden = {}
    for i in range(size):
        utt_id = f"{tag}-{i:05d}"
        utt, labels = _sample_utterance(spec, templates, rng, utt_id)
        if not visible_labels:
            hidden[utt_id] = labels
            utt.labels = None
        utterances.append(utt)
    return Corpus(split=tag, utterances=utterances, hidden_refs=hidden)


def generate(spec: SyntheticSpec):
    """Supervised and unsupervised corpora; ground truth of the unsupervised
    split is retained as hidden references for evaluation only."""
    supervised = generate_split(spec, "sup", spec.num_supervised, stream=1)
    unsupervised = generate_split(
        spec, "unsup", spec.num_unsupervised, stream=2, visible_labels=False
    )
    return supervised, unsupervised


def corrupt_labels(corpus: Corpus, rate: float, seed: int, vocab_size: int) -> Corpus:
    """Randomly substitute / delete / insert labels (0.8 / 0.1 / 0.1 of the
    corruption rate respectively), deterministic per seed."""
    if not 0 <= rate < 1:
        raise DataError(f"corruption rate {rate} outside [0, 1)")
    rng = np.random.default_rng(seed)
    out = []
    for utt in corpus.utterances:
        if utt.labels is None:
            raise DataError("corrupt_labels needs a supervised corpus")
        new = []
        for lab in utt.labels:
            draw = rng.random()
            if draw < rate * 0.8:
                shift = int(rng.integers(1, vocab_size)) if vocab_size > 1 else 0
                new.append((lab + shift) % vocab_size)
            elif draw < rate * 0.9:
                continue  # deletion
            else:
                new.append(lab)
                if draw < rate:
                    new.append(int(rng.integers(0, vocab_size)))
        out.append(Utterance(utt.utt_id, utt.frames, tuple(new)))
    return Corpus(split=corpus.split, utterances=out, hidden_refs=dict(corpus.hidden_refs))


def subsample_corpus(corpus: Corpus, fraction: float, seed: int) -> Corpus:
    """Keep a deterministic random fraction of the utterances (>= 1)."""
    if not 0 < fraction <= 1:
        raise DataError(f"fraction {fraction} outside (0, 1]")
    rng = np.random.default_rng(seed)
    n = max(1, int(round(fraction * len(corpus.utterances))))
    idx = sorted(rng.permutation(len(corpus.utterances))[:n])
    utts = [corpus.utterances[i] for i in idx]
    return Corpus(split=corpus.split, utterances=utts, hidden_refs=dict(corpus.hidden_refs))


def mix_batches(supervised: Corpus, unsupervised: Corpus, batch_size: int,
                sup_fraction: float, seed: int):
    """Endless stream of batches mixing the two corpora.

    Each batch holds round(batch_size * sup_fraction) supervised utterances
    (stochastically rounded so the long-run fraction is exact) and the rest
    unsupervised, drawn from independently reshuffled epochs.
    """
    if batch_size < 1:
        raise DataError("batch_size must be >= 1")
    if not 0 <= sup_fraction <= 1:
        raise DataError(f"sup_fraction {sup_fraction} outside [0, 1]")
    if sup_fraction > 0 and not supervised.utterances:
        raise DataError("supervised corpus is empty but sup_fraction > 0")
    if sup_fraction < 1 and not unsupervised.utterances:
        raise DataError("unsupervised corpus is empty but sup_fraction < 1")
    return _batch_stream(supervised, unsupervised, batch_size, sup_fraction, seed)


def _batch_stream(supervised, unsupervised, batch_size, sup_fraction, seed):
    rng = np.random.default_rng(seed)

    def cycler(utts):
        while True:
            order = rng.permutation(len(utts))
            for i in order:
                yield utts[i]

    sup_iter = cycler(supervised.utterances) if supervised.utterances else None
    unsup_iter = cycler(unsupervised.utterances) if unsupervised.utterances else None

    exact = batch_size * sup_fraction
    base = int(np.floor(exact))
    frac = exact - base
    while True:
        n_sup = base + (1 if frac > 0 and rng.random() < frac else 0)
        n_sup = min(n_sup, batch_size)
        batch = [next(sup_iter) for _ in range(n_sup)]
        batch += [next(unsup_iter) for _ in range(batch_size - n_sup)]
        yield batch


# ----- corpus files -----


def write_corpus(path, corpus: Corpus) -> None:
    """Line-delimited records {utt_id, frames, labels?}; frame values are
    rounded to 9 decimals once per utterance, so files re-read value-exactly.
    ``np.round(v, 9)`` is a fixed point of ``round(v, 9)`` on generated
    frames, so this writes the bytes of a per-value ``round``."""
    write_records(path, ({"utt_id": utt.utt_id, "frames": np.round(utt.frames, 9).tolist(),
                          **({} if utt.labels is None else {"labels": list(utt.labels)})}
                         for utt in corpus.utterances))


def write_records(path, records) -> None:
    """A JSON-lines file: one ``json.dumps(rec, sort_keys=True)`` line per
    record, each written before the next record is drawn."""
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(rec, sort_keys=True))
            f.write("\n")


def write_json(path, obj) -> None:
    """A JSON document: indented by 2, keys sorted, then a newline."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def parse_json(raw: bytes, place: str, error=DataError):
    """The JSON value of UTF-8 ``raw``; bad UTF-8 or JSON raises ``error`` naming ``place``."""
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise error(f"{place}: not valid JSON ({e})") from None


class RecordError(DataError):
    """A malformed record of a JSON-lines file; the message names the file and line."""


def read_records(path, keys):
    """``(place, record)`` of each line of a JSON-lines file, where ``place``
    is ``"<path>:<line>"`` and each record is an object holding ``keys`` and
    a string ``utt_id`` that no other line of the file holds."""
    lines = {}  # utt_id -> the line that holds it
    with open(path, "rb") as f:
        for number, line in enumerate(f, 1):
            place = f"{path}:{number}"
            obj = parse_json(line, place, RecordError)
            if not isinstance(obj, dict):
                raise RecordError(f"{place}: not a JSON object")
            missing = [k for k in keys if k not in obj]
            if missing:
                raise RecordError(f"{place}: record lacks the keys {missing}")
            utt_id = obj["utt_id"]
            if not isinstance(utt_id, str):
                raise RecordError(f"{place}: utt_id must be a string, got {utt_id!r}")
            if utt_id in lines:
                raise RecordError(f"{place}: utt_id {utt_id!r} repeats line {lines[utt_id]}")
            lines[utt_id] = number
            yield place, obj


def record_labels(value, place: str, vocab_size=None) -> tuple:
    """A record's label list as a tuple of integers, each in [0, vocab_size) if given."""
    if not isinstance(value, list) or not all(type(k) is int for k in value):
        raise RecordError(f"{place}: labels must be a list of integers, got {value!r}")
    if vocab_size is not None and not all(0 <= k < vocab_size for k in value):
        raise RecordError(f"{place}: labels {value} leave the range [0, {vocab_size})")
    return tuple(value)


def _record_frames(value, place: str, feat_dim=None) -> np.ndarray:
    try:
        frames = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):  # ragged rows, non-numbers, or huge integers
        frames = np.empty(0)
    # numpy reads a bool or a numeric string as a number; JSON numbers are int or float
    if (frames.ndim != 2 or frames.shape[0] < 1 or feat_dim not in (None, frames.shape[1])
            or not np.all(np.isfinite(frames))
            or not {float, int}.issuperset(map(type, chain.from_iterable(value)))):
        raise RecordError(f"{place}: frames must be one or more rows of "
                          f"{feat_dim or 'equally many'} finite numbers")
    return frames


def read_corpus(path, split: str, vocab_size=None, feat_dim=None, labelled=False) -> Corpus:
    """Read a corpus file, checking each record: frames of ``feat_dim``
    columns and labels in [0, ``vocab_size``), where given, and labels on
    every record where ``labelled``, on none where not."""
    utterances = []
    for place, obj in read_records(path, ("utt_id", "frames") + ("labels",) * labelled):
        if not labelled and "labels" in obj:  # hidden references stay out of training
            raise RecordError(f"{place}: a record of the unlabelled {split} split holds labels")
        utterances.append(
            Utterance(
                utt_id=obj["utt_id"],
                frames=_record_frames(obj["frames"], place, feat_dim),
                labels=record_labels(obj["labels"], place, vocab_size) if labelled else None,
            )
        )
    return Corpus(split=split, utterances=utterances)


def write_hidden_refs(path, corpus: Corpus) -> None:
    write_records(path, ({"utt_id": utt.utt_id, "labels": list(ref)} for utt in corpus.utterances
                         if (ref := corpus.hidden_refs.get(utt.utt_id)) is not None))


def read_hidden_refs(path, vocab_size=None) -> dict:
    return {obj["utt_id"]: record_labels(obj["labels"], place, vocab_size)
            for place, obj in read_records(path, ("utt_id", "labels"))}
