import json
import math
import weakref
from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transducer_distill import decode
from transducer_distill.decode import (
    DecodeError,
    beam_search,
    greedy_decode,
    read_pseudo_labels,
    rescore_nbest,
    write_pseudo_labels,
    PseudoLabelRecord,
)
from transducer_distill.lattice import forward_backward
from transducer_distill.model import EncoderConfig, TransducerModel


def stacked_products_are_per_row():
    """Whether this numpy/BLAS build rounds each row of a stacked
    ``(n, 1, H) @ (H, H')`` product as the lone vector-matrix product of that
    row.  The decoders' bit-for-bit equality with a per-frame decoder rests on
    it; it held with numpy 2.4.6 on OpenBLAS 0.3.31 (scipy-openblas64) on an
    x86-64 Xeon, and matrix-product dispatch is not a numpy guarantee."""
    rng = np.random.default_rng(0)
    for n, h, h_out in [(1, 8, 8), (9, 16, 16), (40, 28, 7), (13, 5, 33)]:
        a, w = rng.normal(size=(n, h)), rng.normal(size=(h_out, h))
        if not np.array_equal((a[:, None, :] @ w.T)[:, 0], np.array([row @ w.T for row in a])):
            return False
    return True


per_row_products = pytest.mark.skipif(
    not stacked_products_are_per_row(),
    reason="this numpy/BLAS build rounds a stacked vector-matrix product unlike "
    "per-row products, so bitwise equality with a per-frame decoder does not hold",
)


class TableModel:
    """Decoder stub: joint distribution looked up by (utterance, frame, labels
    so far).  Utterance i is ``x = i``, decoded under ``tables[i]``."""

    def __init__(self, *tables):
        # tables[i][t][u] = probability vector over K labels + blank
        self.tables = tables
        self.vocab_size = len(tables[0][0][0]) - 1

    def encode(self, x):
        return np.array([(x, t) for t in range(len(self.tables[x]))], dtype=np.float64)

    def predictor_start(self):
        return 0

    def predictor_advance(self, states, labels):
        return states + 1

    def joint_log_probs(self, runs, states):
        rows = [self.tables[i][t][min(u, len(self.tables[i][t]) - 1)]
                for run, u in zip(runs, states) for i, t in run.astype(int)]
        return np.log(np.asarray(rows, dtype=np.float64))


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
    """Eager form of ``beam_search`` on one utterance: every pop advances the
    predictor for all K labels, one state per call, and the open list is
    scanned with ``min``."""
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
            logp = model.joint_log_probs([enc[t : t + 1]], np.array([state]))[0]
            blank_score = score + float(logp[blank])
            if labels in merged:
                merged[labels][1] = float(np.logaddexp(merged[labels][1], blank_score))
            else:
                merged[labels] = [labels, blank_score, state, 0]
            if emitted < max_symbols_per_frame:
                for k in range(model.vocab_size):
                    open_hyps.append([labels + (k,), score + float(logp[k]),
                                      model.predictor_advance(np.array([state]), [k])[0],
                                      emitted + 1])
            if open_hyps:
                frontier = min(open_hyps, key=key)[1]
                if sum(1 for h in merged.values() if h[1] > frontier) >= beam:
                    break
        kept = sorted(merged.values(), key=key)[:beam]
    return [(labels, score) for labels, score, _, _ in kept]


class CountingModel:
    """Wraps a decoder model, counts ``predictor_advance`` per label prefix and
    records the number of runs of each joint call.

    It tells which prefix an advance extends by the bytes of the state it is
    given, so it fits one utterance of a model whose prefixes' states differ.
    """

    def __init__(self, model):
        self.model = model
        self.vocab_size = model.vocab_size
        self.advances = Counter()
        self.prefixes = {}
        self.widths = []

    def encode(self, x):
        return self.model.encode(x)

    def predictor_start(self):
        state = self.model.predictor_start()
        self.prefixes[state.tobytes()] = ()
        return state

    def predictor_advance(self, states, labels):
        new = self.model.predictor_advance(states, labels)
        for state, label, row in zip(states, labels, new):
            prefix = self.prefixes[state.tobytes()] + (label,)
            self.advances[prefix] += 1
            self.prefixes[row.tobytes()] = prefix
        return new

    def joint_log_probs(self, runs, states):
        self.widths.append(len(runs))
        return self.model.joint_log_probs(runs, states)


class RowList(list):
    """Joint rows from one ``tolist()``; each slice of them is a ``RowList``
    whose freeing ``owner`` counts, as a run's rows handed to a search."""

    def __getitem__(self, index):
        item = super().__getitem__(index)
        if isinstance(index, slice):
            item = RowList(item)
            item.owner = self.owner
            self.owner.live += 1
            weakref.finalize(item, self.owner.free)
        return item


class TrackedRows(np.ndarray):
    """Joint rows whose ``tolist()`` is a ``RowList`` owned by ``owner``."""

    def tolist(self):
        rows = RowList(self.view(np.ndarray).tolist())
        rows.owner = self.owner
        return rows


class RowTrackingModel:
    """Wraps a decoder model and records each run of each joint call on one
    utterance as (first frame, frames asked for, run rows handed out and
    still alive)."""

    def __init__(self, model):
        self.model = model
        self.vocab_size = model.vocab_size
        self.live = 0
        self.calls = []

    def free(self):
        self.live -= 1

    def encode(self, x):
        self.frames = self.model.encode(x)
        return self.frames

    def predictor_start(self):
        return self.model.predictor_start()

    def predictor_advance(self, states, labels):
        return self.model.predictor_advance(states, labels)

    def joint_log_probs(self, runs, states):
        for run in runs:
            t0 = int(np.flatnonzero((self.frames == run[0]).all(axis=1))[0])
            self.calls.append((t0, len(run), self.live))
        rows = self.model.joint_log_probs(runs, states).view(TrackedRows)
        rows.owner = self
        return rows


class PerFrameReference:
    """A decoder model computed from the raw parameters one frame at a time:
    ``joint`` is ``enc[t] @ joint_enc.T + state @ joint_pred.T + joint_b``
    through tanh, the output layer and a log-softmax, for one encoder frame."""

    def __init__(self, model):
        self.p = model.params
        self.cfg = model.encoder
        self.vocab_size = model.vocab_size

    def encode(self, x):
        """Encoder states (not projected), windows gathered frame by frame."""
        c, F = self.cfg, x.shape[1]
        xw = np.zeros((-(-x.shape[0] // c.subsample), c.window * F))
        for t in range(xw.shape[0]):
            first = (t + 1) * c.subsample - 1 - c.left_context
            for j in range(c.window):
                if 0 <= first + j < x.shape[0]:
                    xw[t, j * F : (j + 1) * F] = x[first + j]
        return np.tanh(xw @ self.p["enc_w"].T + self.p["enc_b"])

    def predictor_start(self):
        p = self.p
        return np.tanh(p["embed"][self.vocab_size] @ p["pred_w"].T + p["pred_b"])

    def advance(self, state, label):
        p = self.p
        return np.tanh(p["embed"][label] @ p["pred_w"].T + state @ p["pred_r"].T + p["pred_b"])

    def joint(self, enc_frame, state):
        p = self.p
        a = np.tanh(enc_frame @ p["joint_enc"].T + state @ p["joint_pred"].T + p["joint_b"])
        z = a @ p["out_w"].T + p["out_b"]
        m = z.max()
        return z - (np.log(np.exp(z - m).sum()) + m)

    def predictor_advance(self, states, labels):
        return np.array([self.advance(state, k) for state, k in zip(states, labels)])

    def joint_log_probs(self, runs, states):
        return np.array([self.joint(frame, state) for run, state in zip(runs, states)
                         for frame in run])


def reference_greedy(model, x, max_symbols_per_frame):
    """Frame-synchronous argmax decoding with one joint call per (frame, state)."""
    enc = model.encode(x)
    blank = model.vocab_size
    state = model.predictor_start()
    labels, score = [], 0.0
    for t in range(enc.shape[0]):
        for _ in range(max_symbols_per_frame):
            logp = model.joint(enc[t], state)
            k = int(np.argmax(logp))
            score += float(logp[k])
            if k == blank:
                break
            labels.append(k)
            state = model.advance(state, k)
        else:
            score += float(model.joint(enc[t], state)[blank])
    return tuple(labels), score


def random_model(seed, hidden, subsample, causal, vocab=4, feat_dim=3):
    cfg = EncoderConfig(causal=causal, left_context=2, right_context=0 if causal else 1,
                        subsample=subsample, hidden=hidden)
    m = TransducerModel(vocab_size=vocab, feat_dim=feat_dim, encoder=cfg, seed=seed)
    rng = np.random.default_rng(seed)
    for value in m.params.values():  # weights large enough to make labels win
        value *= rng.uniform(5.0, 15.0)
    return m


def cap_hit_model():
    """A model whose labels beat blank everywhere, so every frame hits the
    cap; two labels keep the search small."""
    m = random_model(3, 8, 1, False, vocab=2)
    m.params["out_b"][m.blank] = -50.0
    return m


MODEL_SHAPES = [(hidden, subsample, causal) for hidden in (8, 16, 28)
                for subsample in (1, 2) for causal in (False, True)]


def tiny_model(seed=0, vocab=2, hidden=4, T_feat=2):
    cfg = EncoderConfig(causal=False, left_context=1, right_context=1, subsample=1, hidden=hidden)
    return TransducerModel(vocab_size=vocab, feat_dim=3, encoder=cfg, seed=seed)


class TestGreedy:
    def test_blank_dominant_model_emits_nothing(self):
        m = TableModel(blank_heavy_table(T=4))
        [(labels, score)] = greedy_decode(m, [0])
        assert labels == ()
        assert score == pytest.approx(4 * math.log(0.95))

    def test_forced_single_label(self):
        # 'a' (=0) dominates at (0,0); blank everywhere else
        a_first = [
            [[0.8, 0.1, 0.1], [0.05, 0.05, 0.9]],
            [[0.05, 0.05, 0.9], [0.05, 0.05, 0.9]],
        ]
        [(labels, score)] = greedy_decode(TableModel(a_first), [0])
        assert labels == (0,)
        assert score == pytest.approx(math.log(0.8) + 2 * math.log(0.9))

    def test_cap_limits_symbols_per_frame(self):
        # a label always dominates, so only the cap stops emission
        label_heavy = [[[0.9, 0.05, 0.05]] for _ in range(3)]
        [(labels, _)] = greedy_decode(TableModel(label_heavy), [0], max_symbols_per_frame=1)
        assert len(labels) <= 3
        assert labels == (0, 0, 0)

    def test_cap_must_be_positive(self):
        with pytest.raises(DecodeError):
            greedy_decode(TableModel(blank_heavy_table(2)), [0], max_symbols_per_frame=0)

    @pytest.mark.parametrize("cap", [1, 3, 5])
    def test_rows_grow_with_labels_plus_frames_per_surviving_state(self, cap):
        # after an advance greedy asks for its frame's row alone; it asks for
        # the frames that remain only once a state outlives its frame
        m = RowTrackingModel(cap_hit_model())
        n_frames = 8
        [(labels, _)] = greedy_decode(m, [np.random.default_rng(3).normal(size=(n_frames, 3))], cap)
        assert len(labels) == cap * n_frames
        assert all(n == 1 or t0 + n == n_frames for t0, n, _ in m.calls)
        rows = sum(n for _, n, _ in m.calls)
        assert rows == 1 + len(labels) + n_frames * (n_frames - 1) // 2


class TestBeamSearch:
    def test_respects_beam_size_and_sorting(self, rng):
        m = tiny_model(seed=4)
        x = rng.normal(size=(4, 3))
        [nbest] = beam_search(m, [x], beam=8)
        assert len(nbest) <= 8
        scores = [score for _, score in nbest]
        assert scores == sorted(scores, reverse=True)
        assert len({labels for labels, _ in nbest}) == len(nbest)

    def test_beam_one_equals_greedy_on_peaked_model(self, rng):
        m = TableModel(*(peaked_table(np.random.default_rng(seed), T=4, U_max=3, K=3)
                         for seed in range(10)))
        greedy = greedy_decode(m, range(10))
        assert [top[0] for [top] in beam_search(m, range(10), beam=1)] == [g[0] for g in greedy]

    def test_beam_monotonicity(self, rng):
        m = tiny_model(seed=7)
        x = rng.normal(size=(5, 3))
        best = [beam_search(m, [x], beam=b)[0][0][1] for b in (1, 2, 4, 8)]
        for lo, hi in zip(best, best[1:]):
            assert hi >= lo - 1e-12

    def test_unpruned_beam_matches_full_sum(self, rng):
        # beam wide enough that nothing is pruned: merged scores must equal
        # the exact full-sum sequence log-probabilities
        m = tiny_model(seed=11, vocab=2)
        x = rng.normal(size=(2, 3))
        [nbest] = beam_search(m, [x], beam=200, max_symbols_per_frame=3)
        scored = dict(nbest)
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
        [nbest] = beam_search(m, [x], beam=10_000, max_symbols_per_frame=cap)
        exact = rescore_nbest(m, x, nbest)
        short = [i for i, (labels, _) in enumerate(nbest) if len(labels) <= cap]
        every = {labels for n in range(cap + 1) for labels in product(range(vocab), repeat=n)}
        assert {nbest[i][0] for i in short} == every
        for i in short:
            assert nbest[i][1] == pytest.approx(exact[i], abs=1e-9)

    def test_beam_must_be_positive(self, rng):
        with pytest.raises(DecodeError):
            beam_search(tiny_model(), [rng.normal(size=(2, 3))], beam=0)

    @pytest.mark.parametrize("cap", [0, -3])
    def test_cap_must_be_positive(self, rng, cap):
        with pytest.raises(DecodeError, match="max_symbols_per_frame"):
            beam_search(tiny_model(), [rng.normal(size=(2, 3))], beam=4,
                        max_symbols_per_frame=cap)

    @per_row_products
    @pytest.mark.parametrize("beam", [1, 3, 8])
    @pytest.mark.parametrize("cap", [1, 2, 5])
    def test_equals_eager_reference_on_random_models(self, beam, cap):
        for seed in range(4):
            rng = np.random.default_rng(100 * beam + 10 * cap + seed)
            m = tiny_model(seed=seed, vocab=int(rng.integers(2, 5)), hidden=5)
            xs = [rng.normal(size=(int(rng.integers(2, 7)), 3)) for _ in range(3)]
            nbests = beam_search(m, xs, beam=beam, max_symbols_per_frame=cap)
            assert nbests == [reference_beam_search(m, x, beam, cap) for x in xs]

    @pytest.mark.parametrize("beam", [1, 3, 8])
    @pytest.mark.parametrize("cap", [1, 2, 5])
    def test_equals_eager_reference_on_table_models(self, beam, cap):
        # each seed decodes a run of tables of one vocabulary and mixed lengths
        for seed in range(4):
            rng = np.random.default_rng(1000 + 100 * beam + 10 * cap + seed)
            K = int(rng.integers(2, 5))
            m = TableModel(*(peaked_table(rng, T=int(rng.integers(1, 7)), U_max=4, K=K,
                                          p_top=float(rng.uniform(0.4, 0.95)))
                             for _ in range(3)))
            nbests = beam_search(m, range(3), beam=beam, max_symbols_per_frame=cap)
            assert nbests == [reference_beam_search(m, i, beam, cap) for i in range(3)]

    def test_exact_score_ties_match_eager_reference(self):
        # dyadic probabilities make hypotheses tie exactly on score, so the
        # pruning break depends on the lexicographic tie-break; the 20 tables
        # decode as one run
        rng = np.random.default_rng(7)
        m = TableModel(*([[rng.permutation([0.25, 0.25, 0.5]) for _ in range(4)]
                          for _ in range(4)] for _ in range(20)))
        for beam in (1, 2, 3, 5):
            for cap in (1, 2):
                nbests = beam_search(m, range(20), beam=beam, max_symbols_per_frame=cap)
                assert nbests == [reference_beam_search(m, i, beam, cap) for i in range(20)]

    @pytest.mark.parametrize("beam", [1, 4, 8])
    def test_advances_each_label_prefix_at_most_once(self, rng, beam):
        m = CountingModel(tiny_model(seed=3, vocab=3, hidden=5))
        x = rng.normal(size=(6, 3))
        [nbest] = beam_search(m, [x], beam=beam)
        assert m.advances
        assert max(m.advances.values()) == 1
        for labels, _ in nbest:
            for u in range(1, len(labels) + 1):
                assert m.advances[labels[:u]] == 1

    def test_rows_alive_do_not_grow_with_utterance_length(self):
        # rows are kept only for the prefixes popped in the frame before, so
        # on a model whose frames all look alike the rows alive at any joint
        # call stay flat as the utterance grows, while the calls grow with it
        def run(n_frames, beam):
            m = RowTrackingModel(TableModel([[[0.3, 0.25, 0.2, 0.25]]] * n_frames))
            beam_search(m, [0], beam, 3)
            return len(m.calls), max(live for _, _, live in m.calls)

        for beam in (4, 8):
            (calls_short, live_short), (calls_long, live_long) = run(20, beam), run(80, beam)
            assert calls_long > 2 * calls_short
            assert live_long <= live_short


@per_row_products
class TestPerFrameEquality:
    """The decoders read joint rows from stacked calls over label prefixes and
    utterances; their labels and scores equal a per-frame decoder's, bit for bit."""

    @pytest.mark.parametrize("hidden, subsample, causal", MODEL_SHAPES)
    def test_joint_rows_equal_per_frame_formula(self, hidden, subsample, causal):
        m = random_model(hidden, hidden, subsample, causal)
        ref = PerFrameReference(m)
        x = np.random.default_rng(hidden).normal(size=(9, 3))
        frames, enc = m.encode(x), ref.encode(x)
        assert np.array_equal(frames, np.array([e @ m.params["joint_enc"].T for e in enc]))
        start = ref.predictor_start()
        states = m.predictor_advance(np.array([start, start, start]), [1, 0, 3])
        assert np.array_equal(states, [ref.advance(start, k) for k in (1, 0, 3)])
        for t0 in range(frames.shape[0]):
            # runs of the frames from t0, of frame t0 alone and of all frames
            rows = m.joint_log_probs([frames[t0:], frames[t0 : t0 + 1], frames], states)
            expected = [ref.joint(e, state) for run, state in zip(
                (enc[t0:], enc[t0 : t0 + 1], enc), states) for e in run]
            assert np.array_equal(rows, expected)

    @pytest.mark.parametrize("hidden, subsample, causal", MODEL_SHAPES)
    def test_greedy_equals_per_frame_reference(self, hidden, subsample, causal):
        for seed in range(4):
            m = random_model(seed, hidden, subsample, causal)
            rng = np.random.default_rng(seed)
            xs = [rng.normal(size=(int(5 + 2 * seed + n), 3)) for n in (0, -4, 3)]
            for cap in (1, 3, 5):
                ref = PerFrameReference(m)
                assert greedy_decode(m, xs, cap) == [reference_greedy(ref, x, cap) for x in xs]

    @pytest.mark.parametrize("hidden, subsample, causal", MODEL_SHAPES)
    def test_beam_search_equals_per_frame_reference(self, hidden, subsample, causal):
        for seed in range(2):
            m = random_model(seed, hidden, subsample, causal)
            rng = np.random.default_rng(seed)
            xs = [rng.normal(size=(int(4 + 3 * seed + n), 3)) for n in (0, -3)]
            for beam, cap in product((1, 4, 8), (1, 3, 5)):
                nbests = beam_search(m, xs, beam, cap)
                ref = PerFrameReference(m)
                assert nbests == [reference_beam_search(ref, x, beam, cap) for x in xs]

    @pytest.mark.parametrize("cap", [1, 3, 5])
    def test_cap_hit_on_every_frame(self, cap):
        # no hypothesis is pruned before its frame's cap
        m = cap_hit_model()
        x = np.random.default_rng(3).normal(size=(6, 3))
        ref = PerFrameReference(m)
        hyps = greedy_decode(m, [x, x[:2]], cap)
        assert len(hyps[0][0]) == cap * 6
        assert hyps == [reference_greedy(ref, x, cap), reference_greedy(ref, x[:2], cap)]
        for beam in (1, 4, 8):
            nbests = beam_search(m, [x, x[:2]], beam, cap)
            assert nbests == [reference_beam_search(ref, x, beam, cap),
                              reference_beam_search(ref, x[:2], beam, cap)]


@per_row_products
class TestLockstep:
    """A run of utterances decodes as each utterance alone would, however many
    searches share a round."""

    @pytest.mark.parametrize("run", [1, 5, 100])
    def test_mixed_lengths_equal_per_frame_reference(self, monkeypatch, run):
        monkeypatch.setattr(decode, "RUN_UTTERANCES", run)
        m = random_model(2, 8, 2, False)
        ref = PerFrameReference(m)
        rng = np.random.default_rng(run)
        xs = [rng.normal(size=(int(T), 3)) for T in rng.permutation(np.arange(1, 13))]
        counting = CountingModel(m)
        assert greedy_decode(counting, xs, 3) == [reference_greedy(ref, x, 3) for x in xs]
        assert max(counting.widths) == min(run, len(xs))
        assert beam_search(m, xs, 4, 3) == [reference_beam_search(ref, x, 4, 3) for x in xs]

    def test_no_utterances(self):
        assert greedy_decode(tiny_model(), []) == []
        assert beam_search(tiny_model(), [], 4) == []


class TestRescore:
    @pytest.mark.parametrize("hidden, subsample, causal", MODEL_SHAPES)
    def test_rescore_equals_forward_backward_of_each_lattice(self, hidden, subsample, causal):
        m = random_model(5, hidden, subsample, causal)
        x = np.random.default_rng(5).normal(size=(8, 3))
        [nbest] = beam_search(m, [x], 8, 3)
        assert len(nbest) > 1
        expected = [float(forward_backward(m.build_lattice(x, list(labels)), list(labels))[0])
                    for labels, _ in nbest]
        assert rescore_nbest(m, x, nbest) == expected

    def test_singleton_equals_forward_backward(self, rng):
        m = tiny_model(seed=2)
        x = rng.normal(size=(3, 3))
        (score,) = rescore_nbest(m, x, [((1, 0), -3.0)])
        lat = m.build_lattice(x, [1, 0])
        exact, _, _ = forward_backward(lat, [1, 0])
        assert score == pytest.approx(exact, abs=1e-12)

    def test_empty_hypothesis_scores_blank_row(self, rng):
        m = tiny_model(seed=2)
        x = rng.normal(size=(3, 3))
        (score,) = rescore_nbest(m, x, [((), -1.0)])
        lat = m.build_lattice(x, [])
        expected = float(np.sum(lat.log_probs[:, 0, m.vocab_size]))
        assert score == pytest.approx(expected, abs=1e-12)

    def test_matches_oracle_on_micro_model(self, rng):
        m = tiny_model(seed=5)
        x = rng.normal(size=(3, 3))
        [nbest] = beam_search(m, [x], beam=4)
        scores = rescore_nbest(m, x, nbest)
        from oracles import brute_force_log_prob

        for (labels, _), s in zip(nbest, scores):
            lat = m.build_lattice(x, list(labels))
            assert s == pytest.approx(brute_force_log_prob(lat, list(labels)), abs=1e-9)


class TestPseudoLabelFile:
    def test_round_trip(self, tmp_path):
        records = [
            PseudoLabelRecord(utt_id="u-0", nbest=[((1,), -4.5), ((1, 2), -3.25)], target=1),
            PseudoLabelRecord(utt_id="u-1", nbest=[((), -0.125)], target=0),
        ]
        path = tmp_path / "pl.jsonl"
        write_pseudo_labels(path, records)
        loaded = read_pseudo_labels(path)
        assert set(loaded) == {"u-0", "u-1"}
        assert loaded["u-0"] == records[0] and loaded["u-1"] == records[1]
        assert (loaded["u-0"].labels, loaded["u-0"].score) == ((1, 2), -3.25)
        # byte-identical rewrite
        second = tmp_path / "pl2.jsonl"
        write_pseudo_labels(second, list(loaded.values()))
        assert path.read_bytes() == second.read_bytes()

    def test_scores_reread_value_exact(self, tmp_path):
        score = -math.pi * 1.7182818
        rec = PseudoLabelRecord("u", [((0,), score)], 0)
        path = tmp_path / "pl.jsonl"
        write_pseudo_labels(path, [rec])
        assert read_pseudo_labels(path)["u"].score == score

    def test_integer_score_beyond_int64_loads_as_float(self, tmp_path):
        path = tmp_path / "pl.jsonl"
        entry = {"labels": [0], "score": 2**70}
        path.write_text(json.dumps({"utt_id": "u", **entry, "nbest": [entry]}) + "\n")
        record = read_pseudo_labels(path)["u"]
        assert record.score == 1.1805916207174113e21 and type(record.score) is float
        assert record.nbest == [((0,), 1.1805916207174113e21)]
