import math
from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transducer_distill.decode import (
    DecodeError,
    Hypothesis,
    NBestList,
    beam_search,
    greedy_decode,
    read_pseudo_labels,
    rescore_nbest,
    write_pseudo_labels,
    PseudoLabelRecord,
)
from transducer_distill.lattice import forward_backward
from transducer_distill.model import EncoderConfig, TransducerModel


class TableModel:
    """Decoder stub: joint distribution looked up by (frame, labels so far)."""

    def __init__(self, table):
        # table[t][u] = probability vector over K labels + blank
        self.table = table
        self.vocab_size = len(table[0][0]) - 1

    def encode(self, x):
        return np.arange(len(self.table), dtype=np.float64)[:, None]

    def predictor_start(self):
        return 0

    def predictor_advance(self, state, label):
        return state + 1

    def joint_log_probs(self, enc_frame, state):
        t = int(enc_frame[0])
        row = self.table[t][min(state, len(self.table[t]) - 1)]
        return np.log(np.asarray(row, dtype=np.float64))


def blank_heavy_table(T, K=2, p_blank=0.95):
    rest = (1.0 - p_blank) / K
    return [[[rest] * K + [p_blank]] for _ in range(T)]


def peaked_table(rng, T, U_max, K, p_top=0.92):
    """Random dominant symbol at each (t, u); blank dominates once u = U_max."""
    table = []
    for t in range(T):
        rows = []
        for u in range(U_max + 1):
            dom = K if u == U_max else int(rng.integers(0, K + 1))
            row = np.full(K + 1, (1.0 - p_top) / K)
            row[dom] = p_top
            rows.append(row / row.sum())
        table.append(rows)
    return table


def reference_beam_search(model, x, beam, max_symbols_per_frame=5):
    """Eager form of ``beam_search``: every pop advances the predictor for
    all K labels, and the open list is scanned with ``min``."""
    enc = model.encode(x)
    blank = model.vocab_size

    def key(h):
        return (-h[1], h[0])

    # hypotheses are [labels, score, state, symbols emitted this frame]
    kept = [[(), 0.0, model.predictor_start(), 0]]
    for t in range(enc.shape[0]):
        open_hyps = [[labels, score, state, 0] for labels, score, state, _ in kept]
        merged = {}
        while open_hyps:
            best = min(open_hyps, key=key)
            open_hyps.remove(best)
            labels, score, state, emitted = best
            logp = model.joint_log_probs(enc[t], state)
            blank_score = score + float(logp[blank])
            if labels in merged:
                merged[labels][1] = float(np.logaddexp(merged[labels][1], blank_score))
            else:
                merged[labels] = [labels, blank_score, state, 0]
            if emitted < max_symbols_per_frame:
                for k in range(model.vocab_size):
                    open_hyps.append([labels + (k,), score + float(logp[k]),
                                      model.predictor_advance(state, k), emitted + 1])
            if open_hyps:
                frontier = min(open_hyps, key=key)[1]
                if sum(1 for h in merged.values() if h[1] > frontier) >= beam:
                    break
        kept = sorted(merged.values(), key=key)[:beam]
    return [(labels, score) for labels, score, _, _ in kept]


class CountingModel:
    """Wraps a decoder model and counts ``predictor_advance`` per label prefix.

    The predictor state is replaced by (labels so far, wrapped state), so the
    counter can tell which prefix each advance extends.
    """

    def __init__(self, model):
        self.model = model
        self.vocab_size = model.vocab_size
        self.advances = Counter()

    def encode(self, x):
        return self.model.encode(x)

    def predictor_start(self):
        return ((), self.model.predictor_start())

    def predictor_advance(self, state, label):
        labels, inner = state
        self.advances[labels + (label,)] += 1
        return labels + (label,), self.model.predictor_advance(inner, label)

    def joint_log_probs(self, enc_frame, state):
        return self.model.joint_log_probs(enc_frame, state[1])


def tiny_model(seed=0, vocab=2, hidden=4, T_feat=2):
    cfg = EncoderConfig(causal=False, left_context=1, right_context=1, subsample=1, hidden=hidden)
    return TransducerModel(vocab_size=vocab, feat_dim=3, encoder=cfg, seed=seed)


class TestGreedy:
    def test_blank_dominant_model_emits_nothing(self):
        m = TableModel(blank_heavy_table(T=4))
        hyp = greedy_decode(m, x=None)
        assert hyp.labels == ()
        assert hyp.score == pytest.approx(4 * math.log(0.95))

    def test_forced_single_label(self):
        # 'a' (=0) dominates at (0,0); blank everywhere else
        a_first = [
            [[0.8, 0.1, 0.1], [0.05, 0.05, 0.9]],
            [[0.05, 0.05, 0.9], [0.05, 0.05, 0.9]],
        ]
        hyp = greedy_decode(TableModel(a_first), x=None)
        assert hyp.labels == (0,)
        assert hyp.score == pytest.approx(math.log(0.8) + 2 * math.log(0.9))

    def test_cap_limits_symbols_per_frame(self):
        # a label always dominates, so only the cap stops emission
        label_heavy = [[[0.9, 0.05, 0.05]] for _ in range(3)]
        hyp = greedy_decode(TableModel(label_heavy), x=None, max_symbols_per_frame=1)
        assert len(hyp.labels) <= 3
        assert hyp.labels == (0, 0, 0)

    def test_cap_must_be_positive(self):
        with pytest.raises(DecodeError):
            greedy_decode(TableModel(blank_heavy_table(2)), None, max_symbols_per_frame=0)


class TestBeamSearch:
    def test_respects_beam_size_and_sorting(self, rng):
        m = tiny_model(seed=4)
        x = rng.normal(size=(4, 3))
        nbest = beam_search(m, x, beam=8)
        assert len(nbest) <= 8
        scores = [h.score for h in nbest.hypotheses]
        assert scores == sorted(scores, reverse=True)
        assert len({h.labels for h in nbest.hypotheses}) == len(nbest)

    def test_beam_one_equals_greedy_on_peaked_model(self, rng):
        for seed in range(10):
            table = peaked_table(np.random.default_rng(seed), T=4, U_max=3, K=3)
            m = TableModel(table)
            greedy = greedy_decode(m, None)
            top = beam_search(m, None, beam=1).top()
            assert top.labels == greedy.labels

    def test_beam_monotonicity(self, rng):
        m = tiny_model(seed=7)
        x = rng.normal(size=(5, 3))
        best = [beam_search(m, x, beam=b).top().score for b in (1, 2, 4, 8)]
        for lo, hi in zip(best, best[1:]):
            assert hi >= lo - 1e-12

    def test_unpruned_beam_matches_full_sum(self, rng):
        # beam wide enough that nothing is pruned: merged scores must equal
        # the exact full-sum sequence log-probabilities
        m = tiny_model(seed=11, vocab=2)
        x = rng.normal(size=(2, 3))
        nbest = beam_search(m, x, beam=200, max_symbols_per_frame=3)
        scored = {h.labels: h.score for h in nbest.hypotheses}
        for labels in [(), (0,), (1,), (0, 1), (1, 0), (0, 0), (1, 1),
                       (0, 0, 0), (0, 1, 0), (1, 1, 1), (1, 0, 1)]:
            lat = m.build_lattice(x, list(labels))
            exact, _, _ = forward_backward(lat, list(labels))
            assert scored[labels] == pytest.approx(exact, abs=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), T=st.integers(1, 3), vocab=st.integers(1, 2),
           cap=st.integers(1, 2))
    def test_unpruned_beam_scores_are_rescored_full_sums(self, seed, T, vocab, cap):
        # every alignment of at most ``cap`` labels keeps within the per-frame
        # cap, so without pruning the merged score of such a hypothesis is
        # its full-sum log-probability
        m = tiny_model(seed=seed, vocab=vocab)
        x = np.random.default_rng(seed).normal(size=(T, 3))
        nbest = beam_search(m, x, beam=10_000, max_symbols_per_frame=cap)
        exact = rescore_nbest(m, x, nbest)
        short = [i for i, h in enumerate(nbest.hypotheses) if len(h.labels) <= cap]
        every = {labels for n in range(cap + 1) for labels in product(range(vocab), repeat=n)}
        assert {nbest.hypotheses[i].labels for i in short} == every
        for i in short:
            assert nbest.hypotheses[i].score == pytest.approx(exact[i], abs=1e-9)

    def test_beam_must_be_positive(self, rng):
        with pytest.raises(DecodeError):
            beam_search(tiny_model(), rng.normal(size=(2, 3)), beam=0)

    @pytest.mark.parametrize("beam", [1, 3, 8])
    @pytest.mark.parametrize("cap", [1, 2, 5])
    def test_equals_eager_reference_on_random_models(self, beam, cap):
        for seed in range(4):
            rng = np.random.default_rng(100 * beam + 10 * cap + seed)
            m = tiny_model(seed=seed, vocab=int(rng.integers(2, 5)), hidden=5)
            x = rng.normal(size=(int(rng.integers(2, 7)), 3))
            nbest = beam_search(m, x, beam=beam, max_symbols_per_frame=cap)
            got = [(h.labels, h.score) for h in nbest.hypotheses]
            assert got == reference_beam_search(m, x, beam, cap)

    @pytest.mark.parametrize("beam", [1, 3, 8])
    @pytest.mark.parametrize("cap", [1, 2, 5])
    def test_equals_eager_reference_on_table_models(self, beam, cap):
        for seed in range(4):
            rng = np.random.default_rng(1000 + 100 * beam + 10 * cap + seed)
            table = peaked_table(rng, T=5, U_max=4, K=int(rng.integers(2, 5)),
                                 p_top=float(rng.uniform(0.4, 0.95)))
            m = TableModel(table)
            nbest = beam_search(m, None, beam=beam, max_symbols_per_frame=cap)
            got = [(h.labels, h.score) for h in nbest.hypotheses]
            assert got == reference_beam_search(m, None, beam, cap)

    def test_exact_score_ties_match_eager_reference(self):
        # dyadic probabilities make hypotheses tie exactly on score, so the
        # pruning break depends on the lexicographic tie-break
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = TableModel([[rng.permutation([0.25, 0.25, 0.5]) for _ in range(4)]
                            for _ in range(4)])
            for beam in (1, 2, 3, 5):
                for cap in (1, 2):
                    nbest = beam_search(m, None, beam=beam, max_symbols_per_frame=cap)
                    got = [(h.labels, h.score) for h in nbest.hypotheses]
                    assert got == reference_beam_search(m, None, beam, cap)

    @pytest.mark.parametrize("beam", [1, 4, 8])
    def test_advances_each_label_prefix_at_most_once(self, rng, beam):
        m = CountingModel(tiny_model(seed=3, vocab=3, hidden=5))
        x = rng.normal(size=(6, 3))
        nbest = beam_search(m, x, beam=beam)
        assert m.advances
        assert max(m.advances.values()) == 1
        for hyp in nbest.hypotheses:
            for u in range(1, len(hyp.labels) + 1):
                assert m.advances[hyp.labels[:u]] == 1


class TestRescore:
    def test_singleton_equals_forward_backward(self, rng):
        m = tiny_model(seed=2)
        x = rng.normal(size=(3, 3))
        nbest = NBestList([Hypothesis(labels=(1, 0), score=-3.0)], beam_size=1)
        (score,) = rescore_nbest(m, x, nbest)
        lat = m.build_lattice(x, [1, 0])
        exact, _, _ = forward_backward(lat, [1, 0])
        assert score == pytest.approx(exact, abs=1e-12)

    def test_empty_hypothesis_scores_blank_row(self, rng):
        m = tiny_model(seed=2)
        x = rng.normal(size=(3, 3))
        nbest = NBestList([Hypothesis(labels=(), score=-1.0)], beam_size=1)
        (score,) = rescore_nbest(m, x, nbest)
        lat = m.build_lattice(x, [])
        expected = float(np.sum(lat.log_probs[:, 0, m.vocab_size]))
        assert score == pytest.approx(expected, abs=1e-12)

    def test_matches_oracle_on_micro_model(self, rng):
        m = tiny_model(seed=5)
        x = rng.normal(size=(3, 3))
        nbest = beam_search(m, x, beam=4)
        scores = rescore_nbest(m, x, nbest)
        from transducer_distill.lattice import brute_force_log_prob

        for hyp, s in zip(nbest.hypotheses, scores):
            lat = m.build_lattice(x, list(hyp.labels))
            assert s == pytest.approx(brute_force_log_prob(lat, list(hyp.labels)), abs=1e-9)


class TestNBestInvariants:
    def test_rejects_duplicates(self):
        with pytest.raises(DecodeError):
            NBestList(
                [Hypothesis((0,), -1.0), Hypothesis((0,), -2.0)], beam_size=4
            )

    def test_rejects_unsorted(self):
        with pytest.raises(DecodeError):
            NBestList(
                [Hypothesis((0,), -2.0), Hypothesis((1,), -1.0)], beam_size=4
            )


class TestPseudoLabelFile:
    def test_round_trip(self, tmp_path):
        records = [
            PseudoLabelRecord(
                utt_id="u-0",
                labels=(1, 2),
                score=-3.25,
                nbest=[((1, 2), -3.25), ((1,), -4.5)],
            ),
            PseudoLabelRecord(utt_id="u-1", labels=(), score=-0.125, nbest=[((), -0.125)]),
        ]
        path = tmp_path / "pl.jsonl"
        write_pseudo_labels(path, records)
        loaded = read_pseudo_labels(path)
        assert set(loaded) == {"u-0", "u-1"}
        assert loaded["u-0"].labels == (1, 2)
        assert loaded["u-0"].nbest == [((1, 2), -3.25), ((1,), -4.5)]
        assert loaded["u-0"].target_index() == 0
        # byte-identical rewrite
        second = tmp_path / "pl2.jsonl"
        write_pseudo_labels(second, list(loaded.values()))
        assert path.read_bytes() == second.read_bytes()

    def test_scores_reread_value_exact(self, tmp_path):
        score = -math.pi * 1.7182818
        rec = PseudoLabelRecord("u", (0,), score, [((0,), score)])
        path = tmp_path / "pl.jsonl"
        write_pseudo_labels(path, [rec])
        assert read_pseudo_labels(path)["u"].score == score
