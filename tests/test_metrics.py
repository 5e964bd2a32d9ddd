import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transducer_distill.data import Corpus, Utterance
from transducer_distill.metrics import (
    EvalReport,
    MetricsError,
    WerReport,
    edit_distance,
    evaluate,
    macro_average,
    write_report,
)


label_lists = st.lists(st.integers(0, 3), max_size=8)


class TestEditDistance:
    @settings(max_examples=100, deadline=None)
    @given(a=label_lists, b=label_lists)
    def test_identities(self, a, b):
        assert edit_distance(a, a).errors == 0
        ab, ba = edit_distance(a, b), edit_distance(b, a)
        assert ab.errors == ba.errors
        assert abs(len(a) - len(b)) <= ab.errors <= max(len(a), len(b))
        # each reference label is kept, substituted or deleted, and each
        # hypothesis label is kept, substituted or inserted
        assert ab.reference_length == len(a)
        assert len(a) - ab.deletions == len(b) - ab.insertions

    def test_identical_sequences(self):
        rep = edit_distance([1, 2, 3], [1, 2, 3])
        assert rep.wer == 0.0 and rep.errors == 0

    def test_single_substitution(self):
        rep = edit_distance(["a", "b", "c"], ["a", "x", "c"])
        assert (rep.substitutions, rep.deletions, rep.insertions) == (1, 0, 0)
        assert rep.wer == pytest.approx(1 / 3)

    def test_all_deletions(self):
        rep = edit_distance(["a", "b"], [])
        assert rep.deletions == 2 and rep.wer == pytest.approx(1.0)

    def test_empty_reference_flagged(self):
        rep = edit_distance([], ["a", "b"])
        assert rep.empty_reference
        assert rep.insertions == 2
        assert rep.wer == pytest.approx(2.0)  # I / max(1, ref_len)

    def test_substitution_preferred_over_insert_delete(self):
        rep = edit_distance([1], [2])
        assert (rep.substitutions, rep.deletions, rep.insertions) == (1, 0, 0)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            a = list(rng.integers(0, 4, size=rng.integers(0, 8)))
            b = list(rng.integers(0, 4, size=rng.integers(0, 8)))
            c = list(rng.integers(0, 4, size=rng.integers(0, 8)))
            ab = edit_distance(a, b).errors
            bc = edit_distance(b, c).errors
            ac = edit_distance(a, c).errors
            assert ac <= ab + bc

    def test_swap_symmetry(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            a = list(rng.integers(0, 3, size=rng.integers(1, 7)))
            b = list(rng.integers(0, 3, size=rng.integers(1, 7)))
            fwd = edit_distance(a, b)
            rev = edit_distance(b, a)
            assert fwd.errors == rev.errors
            assert fwd.substitutions == rev.substitutions
            assert fwd.deletions == rev.insertions
            assert fwd.insertions == rev.deletions


class _FixedDecoder:
    """Model stub returning a canned hypothesis per utterance id."""

    def __init__(self, outputs):
        self.outputs = outputs
        self.vocab_size = 8

    def encode(self, x):
        return x

    def predictor_start(self):
        return 0

    def predictor_advance(self, state, label):
        return state

    def joint_log_probs(self, enc_frame, state):  # pragma: no cover
        raise NotImplementedError


class TestEvaluate:
    def test_pooled_corpus_wer(self, monkeypatch):
        # utterance A: 1 error / 4 refs, utterance B: 0 / 6 -> pooled 0.1
        corpus = Corpus(
            split="eval",
            utterances=[
                Utterance("A", np.zeros((1, 1)), labels=(1, 2, 3, 4)),
                Utterance("B", np.zeros((1, 1)), labels=(1, 2, 3, 4, 5, 6)),
            ],
        )
        hyps = {"A": (1, 2, 3, 7), "B": (1, 2, 3, 4, 5, 6)}

        import transducer_distill.metrics as metrics_mod

        class Hyp:
            def __init__(self, labels):
                self.labels = labels

        monkeypatch.setattr(
            metrics_mod, "greedy_decode",
            lambda model, x, cap: Hyp(hyps[model.current]),
        )

        class Switchable:
            current = None

        model = Switchable()

        # route utterance ids through the stub
        def decode(model_, x, cap):
            for utt in corpus.utterances:
                if utt.frames is x:
                    return Hyp(hyps[utt.utt_id])
            raise AssertionError

        monkeypatch.setattr(metrics_mod, "greedy_decode", decode)
        report = evaluate(model, corpus)
        assert report.wer == pytest.approx(0.1)
        assert set(report.per_utterance) == {"A", "B"}

    def test_empty_corpus_rejected(self):
        with pytest.raises(MetricsError):
            evaluate(None, Corpus(split="eval", utterances=[]))

    def test_macro_average(self):
        a = EvalReport(total=WerReport(substitutions=1, reference_length=10))
        b = EvalReport(total=WerReport(substitutions=3, reference_length=10))
        assert macro_average([a, b]) == pytest.approx(0.2)

    def test_report_file(self, tmp_path):
        a = EvalReport(total=WerReport(substitutions=1, reference_length=10))
        path = tmp_path / "report.json"
        write_report(path, {"dev": a}, metadata={"teacher": "L"})
        import json

        payload = json.loads(path.read_text())
        assert payload["sets"]["dev"]["wer"] == pytest.approx(0.1)
        assert payload["metadata"]["teacher"] == "L"
