import json

import numpy as np
import pytest

from transducer_distill import data as data_mod
from transducer_distill.data import (
    Corpus,
    DataError,
    SyntheticSpec,
    Utterance,
    corrupt_labels,
    generate,
    generate_split,
    label_templates,
    mix_batches,
    read_corpus,
    read_hidden_refs,
    subsample_corpus,
    write_corpus,
    write_hidden_refs,
)


def spec(**overrides):
    base = dict(
        vocab_size=4,
        feat_dim=3,
        frames_per_label=(2, 3),
        noise_sigma=0.2,
        label_len_range=(2, 5),
        num_supervised=10,
        num_unsupervised=20,
        seed=7,
    )
    base.update(overrides)
    return SyntheticSpec(**base)


class TestGenerate:
    def test_sizes_and_split_tags(self):
        sup, unsup = generate(spec())
        assert len(sup) == 10 and len(unsup) == 20
        assert sup.split == "sup" and unsup.split == "unsup"

    def test_five_percent_structural_split(self):
        sup, unsup = generate(spec(num_supervised=50, num_unsupervised=950))
        assert len(sup) == 50 and len(unsup) == 950

    def test_deterministic(self):
        a_sup, a_unsup = generate(spec())
        b_sup, b_unsup = generate(spec())
        for a, b in zip(a_sup.utterances + a_unsup.utterances,
                        b_sup.utterances + b_unsup.utterances):
            assert a.utt_id == b.utt_id
            assert np.array_equal(a.frames, b.frames)
            assert a.labels == b.labels
        assert a_unsup.hidden_refs == b_unsup.hidden_refs

    def test_zero_noise_single_frame_features_are_templates(self):
        s = spec(noise_sigma=0.0, frames_per_label=(1, 1))
        templates = label_templates(s)
        sup, _ = generate(s)
        for utt in sup.utterances:
            assert utt.frames.shape[0] == len(utt.labels)
            for row, lab in zip(utt.frames, utt.labels):
                assert np.allclose(row, templates[lab], atol=1e-9)

    def test_unsupervised_labels_hidden(self):
        _, unsup = generate(spec())
        for utt in unsup.utterances:
            assert utt.labels is None
        # truth is reachable only through the evaluation interface
        first = unsup.utterances[0].utt_id
        ref = unsup.references()[first]
        assert isinstance(ref, tuple) and len(ref) >= 2

    def test_split_disjointness(self):
        sup, unsup = generate(spec())
        assert not set(sup.utt_ids()) & set(unsup.utt_ids())

    def test_eval_split_shares_templates(self):
        s = spec(noise_sigma=0.0, frames_per_label=(1, 1))
        ev = generate_split(s, "eval", 5, stream=3)
        templates = label_templates(s)
        for utt in ev.utterances:
            for row, lab in zip(utt.frames, utt.labels):
                assert np.allclose(row, templates[lab], atol=1e-9)


class TestCorruptLabels:
    def test_zero_rate_is_identity(self):
        s = spec()
        sup, _ = generate(s)
        out = corrupt_labels(sup, 0.0, seed=3, vocab_size=s.vocab_size)
        for a, b in zip(sup.utterances, out.utterances):
            assert a.labels == b.labels

    def test_deterministic(self):
        s = spec()
        sup, _ = generate(s)
        a = corrupt_labels(sup, 0.3, seed=3, vocab_size=s.vocab_size)
        b = corrupt_labels(sup, 0.3, seed=3, vocab_size=s.vocab_size)
        for x, y in zip(a.utterances, b.utterances):
            assert x.labels == y.labels

    def test_empirical_rate(self):
        s = spec(num_supervised=600, label_len_range=(8, 12))
        sup, _ = generate(s)
        rate = 0.3
        out = corrupt_labels(sup, rate, seed=11, vocab_size=s.vocab_size)
        from transducer_distill.metrics import edit_distance

        errors = 0
        total = 0
        for a, b in zip(sup.utterances, out.utterances):
            rep = edit_distance(a.labels, b.labels)
            errors += rep.errors
            total += len(a.labels)
        assert abs(errors / total - rate) < 0.02

    def test_requires_labels(self):
        s = spec()
        _, unsup = generate(s)
        with pytest.raises(DataError):
            corrupt_labels(unsup, 0.1, seed=0, vocab_size=s.vocab_size)


class TestSubsample:
    def test_fraction_keeps_expected_count(self):
        sup, _ = generate(spec(num_supervised=40))
        out = subsample_corpus(sup, 0.25, seed=1)
        assert len(out) == 10
        kept = set(out.utt_ids())
        assert kept <= set(sup.utt_ids())

    def test_full_fraction_keeps_all(self):
        sup, _ = generate(spec())
        assert subsample_corpus(sup, 1.0, seed=1).utt_ids() == sup.utt_ids()


class TestMixBatches:
    def test_ten_percent_composition(self):
        sup, unsup = generate(spec())
        stream = mix_batches(sup, unsup, batch_size=10, sup_fraction=0.10, seed=5)
        for _ in range(20):
            batch = next(stream)
            n_sup = sum(1 for u in batch if u.labels is not None)
            assert n_sup == 1
            assert len(batch) == 10

    def test_supervised_count_is_exact_when_integral(self):
        sup, unsup = generate(spec())
        stream = mix_batches(sup, unsup, batch_size=10, sup_fraction=0.10, seed=5)
        total_sup = sum(
            sum(1 for u in next(stream) if u.labels is not None) for _ in range(1000)
        )
        assert total_sup == 1000

    def test_pure_supervised_stream(self):
        sup, unsup = generate(spec())
        stream = mix_batches(sup, unsup, batch_size=4, sup_fraction=1.0, seed=5)
        batch = next(stream)
        assert all(u.labels is not None for u in batch)

    def test_deterministic(self):
        sup, unsup = generate(spec())
        a = mix_batches(sup, unsup, 6, 0.5, seed=9)
        b = mix_batches(sup, unsup, 6, 0.5, seed=9)
        for _ in range(10):
            assert [u.utt_id for u in next(a)] == [u.utt_id for u in next(b)]

    def test_empty_corpus_rejected(self):
        sup, unsup = generate(spec())
        empty = Corpus(split="sup", utterances=[])
        with pytest.raises(DataError):
            mix_batches(empty, unsup, 4, 0.5, seed=0)


class TestCorpusFiles:
    def test_round_trip_value_exact(self, tmp_path):
        sup, _ = generate(spec())
        path = tmp_path / "sup.jsonl"
        write_corpus(path, sup)
        loaded = read_corpus(path, "sup", labelled=True)
        for a, b in zip(sup.utterances, loaded.utterances):
            assert a.utt_id == b.utt_id
            assert np.array_equal(a.frames, b.frames)
            assert a.labels == b.labels

    def test_rewrite_is_byte_identical(self, tmp_path):
        sup, _ = generate(spec())
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_corpus(p1, sup)
        write_corpus(p2, read_corpus(p1, "sup", labelled=True))
        assert p1.read_bytes() == p2.read_bytes()

    def test_hidden_refs_round_trip(self, tmp_path):
        _, unsup = generate(spec())
        path = tmp_path / "refs.jsonl"
        write_hidden_refs(path, unsup)
        refs = read_hidden_refs(path)
        assert refs == unsup.hidden_refs

    def test_unsupervised_file_has_no_labels(self, tmp_path):
        _, unsup = generate(spec())
        path = tmp_path / "unsup.jsonl"
        write_corpus(path, unsup)
        assert b'"labels"' not in path.read_bytes()

    @staticmethod
    def edited(path, line, **changes):
        """Rewrite record ``line`` (1-based) of a JSON-lines file with ``changes``."""
        lines = path.read_text().splitlines(keepends=True)
        record = json.loads(lines[line - 1])
        record.update(changes)
        lines[line - 1] = json.dumps(record) + "\n"
        path.write_text("".join(lines))

    @pytest.mark.parametrize("refs", [False, True], ids=["corpus", "refs"])
    def test_repeated_utt_id_rejected(self, tmp_path, refs):
        _, unsup = generate(spec())
        path = tmp_path / "unsup.jsonl"
        (write_hidden_refs if refs else write_corpus)(path, unsup)
        first = unsup.utterances[0].utt_id
        self.edited(path, 3, utt_id=first)
        with pytest.raises(data_mod.RecordError) as e:
            (read_hidden_refs(path) if refs else read_corpus(path, "unsup"))
        assert str(e.value) == f"{path}:3: utt_id {first!r} repeats line 1"

    @pytest.mark.parametrize("utt_id", [7, None, ["a"]])
    def test_non_string_utt_id_rejected(self, tmp_path, utt_id):
        sup, _ = generate(spec())
        path = tmp_path / "sup.jsonl"
        write_corpus(path, sup)
        self.edited(path, 2, utt_id=utt_id)
        with pytest.raises(data_mod.RecordError,
                           match=f"^{path}:2: utt_id must be a string, got "):
            read_corpus(path, "sup", labelled=True)


def reference_split(s, tag, size, stream):
    """(utt_id, labels, frames) of each utterance, drawn and summed label by
    label the way the generator did before it summed once per utterance."""
    templates = data_mod.label_templates(s)
    rng = np.random.default_rng([s.seed, stream])
    out = []
    for i in range(size):
        lo, hi = s.label_len_range
        length = int(rng.integers(lo, hi + 1))
        labels = tuple(int(v) for v in rng.integers(0, s.vocab_size, size=length))
        a, b = s.frames_per_label
        rows = []
        for lab in labels:
            repeats = int(rng.integers(a, b + 1))
            noise = rng.normal(size=(repeats, s.feat_dim)) * s.noise_sigma
            rows.append(templates[lab] + noise)
        out.append((f"{tag}-{i:05d}", labels, np.round(np.concatenate(rows, axis=0), 9)))
    return out


def reference_write(path, corpus):
    """The per-value writer: Python's ``round(v, 9)`` on every frame value."""
    with open(path, "w", encoding="utf-8") as f:
        for utt in corpus.utterances:
            rec = {"utt_id": utt.utt_id,
                   "frames": [[round(float(v), 9) for v in row] for row in utt.frames]}
            if utt.labels is not None:
                rec["labels"] = list(utt.labels)
            f.write(json.dumps(rec, sort_keys=True))
            f.write("\n")


SPECS = {
    "default": {},
    "noise 0": {"noise_sigma": 0.0},
    "equal frame bounds": {"frames_per_label": (3, 3), "noise_sigma": 1.0},
    "unequal frame bounds": {"frames_per_label": (1, 5), "feat_dim": 8, "seed": 2000},
    "small noise": {"noise_sigma": 3e-6, "seed": 3},
    "large noise": {"noise_sigma": 700.0, "seed": 4},
}


class TestPerUtteranceRounding:
    """The generator sums and the writer rounds once per utterance; both
    keep the values, and the files the bytes, of the per-label forms."""

    @pytest.mark.parametrize("large_templates", [False, True], ids=["templates", "large templates"])
    @pytest.mark.parametrize("overrides", SPECS.values(), ids=SPECS.keys())
    def test_write_corpus_bytes_equal_per_value_writer(self, tmp_path, monkeypatch,
                                                       overrides, large_templates):
        if large_templates:
            templates = data_mod.label_templates
            monkeypatch.setattr(data_mod, "label_templates", lambda s: templates(s) * 1e3)
        sup, unsup = generate(spec(**overrides))
        for corpus in (sup, unsup):
            ours, ref = tmp_path / "ours.jsonl", tmp_path / "ref.jsonl"
            write_corpus(ours, corpus)
            reference_write(ref, corpus)
            assert ours.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("overrides", SPECS.values(), ids=SPECS.keys())
    def test_generate_split_equals_per_label_generator(self, overrides):
        s = spec(**overrides)
        corpus = generate_split(s, "eval", 12, stream=3)
        want = reference_split(s, "eval", 12, stream=3)
        assert len(corpus) == len(want)
        for utt, (utt_id, labels, frames) in zip(corpus.utterances, want):
            assert (utt.utt_id, utt.labels) == (utt_id, labels)
            assert utt.frames.shape == frames.shape
            assert (utt.frames == frames).all()

    def test_unrounded_frames_reread_value_exactly(self, tmp_path):
        rng = np.random.default_rng(11)
        frames = [rng.normal(size=(5, 3)) * 10.0 ** e for e in range(-7, 5)]
        corpus = Corpus("sup", [Utterance(f"u{i}", x, (1,)) for i, x in enumerate(frames)])
        path = tmp_path / "c.jsonl"
        write_corpus(path, corpus)
        again = tmp_path / "again.jsonl"
        loaded = read_corpus(path, "sup", labelled=True)
        write_corpus(again, loaded)
        assert again.read_bytes() == path.read_bytes()
        for x, utt in zip(frames, loaded.utterances):
            assert not np.array_equal(utt.frames, x)
            assert np.array_equal(utt.frames, np.round(x, 9))
            assert np.abs(utt.frames - x).max() < 6e-10


class TestSpecValidation:
    def test_bad_frames_range(self):
        with pytest.raises(DataError):
            spec(frames_per_label=(0, 2))

    def test_bad_sizes(self):
        with pytest.raises(DataError):
            spec(num_supervised=0)
