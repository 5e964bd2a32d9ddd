"""Per-call cost of the transducer_distill layers at one fixed shape.

    python3 tools/percall.py [--src DIR]

Prints, for each layer, the best over ``BLOCKS`` blocks of the mean cost
of one call, in microseconds, at T=14 input frames, U=5 labels, K=6 labels
plus blank and hidden width H=16 (a 5-frame window over 8 features).  The
model is an untrained one, so beam search pops many hypotheses per frame.
The decoding rows decode one utterance, then a run of ``RUN`` utterances of
the same shape: one utterance per call, and all of them in one lockstep call;
every decoder caps the labels per frame at ``CAP``.  The soft KL rows run
``soft_kl_efficient`` over the lattices of ``SOFT`` utterances of 9 to 18
frames and 0 to 6 labels, each teacher lattice shifted by 0 to 3 frames (the
overlap's views from ``shift_teacher``): one lattice per call, then all of
them in one call.  The predictor_states row runs the predictor over 30 label
sequences of 0 to 7 labels side by side, as a training step does.  The
write_corpus row writes a generated 100-utterance corpus (3 to 6 labels of
2 to 4 frames each) to ``os.devnull``.  The step rows time one
``combined_loss`` step, gradients included, at the benchmark's weak_teacher
shapes on utterances generated the same way: the hard and fsnorm_l1 student
steps on 2 supervised and 22 unsupervised utterances, whose pseudo labels are
their references with 4-best lists of edited copies, and the teacher step on
8 supervised utterances at H=12.  The full-sum rows time
``rnnt_losses_with_grad`` on the lattices of the hard step (24: the labels
and pseudo labels) and of the fsnorm step (90: the labels and every N-best
hypothesis), next to ``forward_backward`` over the same lattices one by one.
The full-sum and step rows also print the ``tracemalloc`` peak of one more,
untimed call: the most memory the call holds at once beyond what exists
before it (numpy reports its arrays to ``tracemalloc``).
``--src`` names the directory that holds the ``transducer_distill`` package
(default: this repository's ``src``), so two trees can be timed with the
same script.  BLAS is pinned to one thread.
"""

import argparse
import os
import sys
import time
import tracemalloc
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

T, U, K, H, FEAT = 14, 5, 6, 16, 8
RUN = 32
SOFT = 16
BLOCKS = 30
CAP = 5  # max_symbols_per_frame, as in DEFAULT_CONFIG


def best_us(fn, calls):
    """Best over ``BLOCKS`` of the mean seconds of ``calls`` calls, in µs."""
    fn()
    best = float("inf")
    for _ in range(BLOCKS):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, (time.perf_counter() - t0) / calls)
    return best * 1e6


def peak_kib(fn):
    """The ``tracemalloc`` peak of one call of ``fn``, in KiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()


def layers(td):
    """(name, calls per block, zero-argument callable) for each layer."""
    import numpy as np

    cfg = td.EncoderConfig(causal=False, left_context=2, right_context=2, subsample=1, hidden=H)
    model = td.TransducerModel(vocab_size=K, feat_dim=FEAT, encoder=cfg, seed=0)
    teacher = td.TransducerModel(vocab_size=K, feat_dim=FEAT, encoder=cfg, seed=1)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(T, FEAT))
    y = [int(k) for k in rng.integers(0, K, size=U)]
    lat, cache = model.forward(x, y)
    t_lat = teacher.build_lattice(x, y)
    _, grad = td.lattice.rnnt_loss_with_grad(lat, y)
    xs = [rng.normal(size=(T, FEAT)) for _ in range(RUN)]
    seqs = [[int(k) for k in rng.integers(0, K, size=n)] for n in rng.integers(0, 8, size=30)]

    def soft_kl(teacher, student, labels):
        return td.soft_kl_efficient([teacher], [student], [labels])[0]

    triples = []
    for frames, labels, shift in zip(rng.integers(9, 19, size=SOFT), rng.integers(0, 7, size=SOFT),
                                     rng.integers(0, 4, size=SOFT)):
        x_soft = rng.normal(size=(int(frames), FEAT))
        y_soft = [int(k) for k in rng.integers(0, K, size=labels)]
        triples.append((*td.shift_teacher(teacher.build_lattice(x_soft, y_soft),
                                          model.build_lattice(x_soft, y_soft), int(shift)), y_soft))
    soft_batch = [list(side) for side in zip(*triples)]

    four = td.beam_search(model, [x], 8, CAP)[0][:4]
    spec = td.SyntheticSpec(vocab_size=K, feat_dim=FEAT, frames_per_label=(2, 4),
                            noise_sigma=0.4, label_len_range=(3, 6),
                            num_supervised=100, num_unsupervised=1, seed=0)
    corpus, _ = td.generate(spec)
    return [
        ("forward", 200, lambda: model.forward(x, y)),
        ("predictor_states, 30 sequences", 100, lambda: model.predictor_states(seqs)),
        ("forward_backward", 200, lambda: td.forward_backward(lat, y)),
        ("rnnt_loss_with_grad", 200, lambda: td.lattice.rnnt_loss_with_grad(lat, y)),
        ("backward", 200, lambda: model.backward(cache, grad)),
        ("soft_kl_efficient", 200, lambda: soft_kl(t_lat, lat, y)),
        (f"soft KL, {SOFT} lattices one by one", 20, lambda: [soft_kl(*t) for t in triples]),
        (f"soft KL, {SOFT} lattices batched", 20, lambda: td.soft_kl_efficient(*soft_batch)),
        ("greedy decoding", 50, lambda: td.greedy_decode(model, [x], CAP)),
        ("beam search, beam 8", 5, lambda: td.beam_search(model, [x], 8, CAP)),
        (f"greedy, {RUN} utts one by one", 2,
         lambda: [td.greedy_decode(model, [x], CAP) for x in xs]),
        (f"greedy, {RUN} utts lockstep", 2, lambda: td.greedy_decode(model, xs, CAP)),
        (f"beam 8, {RUN} utts one by one", 1,
         lambda: [td.beam_search(model, [x], 8, CAP) for x in xs]),
        (f"beam 8, {RUN} utts lockstep", 1, lambda: td.beam_search(model, xs, 8, CAP)),
        ("rescoring of a 4-best list", 50, lambda: td.rescore_nbest(model, x, four)),
        ("write_corpus, 100 utterances", 3, lambda: td.data.write_corpus(os.devnull, corpus)),
    ]


def steps(td):
    """(name, calls per block, zero-argument callable) for each training step."""
    import numpy as np

    spec = td.SyntheticSpec(vocab_size=K, feat_dim=FEAT, frames_per_label=(2, 4),
                            noise_sigma=0.25, label_len_range=(3, 6),
                            num_supervised=8, num_unsupervised=22, seed=0)
    sup, unsup = td.generate(spec)
    pseudo = {}
    for utt in unsup.utterances:
        ref = tuple(unsup.hidden_refs[utt.utt_id])
        hyps = dict.fromkeys([ref, ref[:-1], ref[1:], ref + (ref[0],)])
        pseudo[utt.utt_id] = td.decode.PseudoLabelRecord(
            utt.utt_id, [(labels, -5.0 - i) for i, labels in enumerate(hyps)], 0)
    batch = sup.utterances[:2] + unsup.utterances

    def step(hidden, utts, kind, weights):
        cfg = td.EncoderConfig(causal=False, left_context=2, right_context=2, subsample=1,
                               hidden=hidden)
        model = td.TransducerModel(vocab_size=K, feat_dim=FEAT, encoder=cfg, seed=0)
        kind, weights = td.DistillLossKind(td.LossKind(kind), 0), td.CombinedLossConfig(*weights)
        return lambda: td.combined_loss(model, utts, kind, weights, pseudo_labels=pseudo)

    cfg = td.EncoderConfig(causal=False, left_context=2, right_context=2, subsample=1, hidden=H)
    model = td.TransducerModel(vocab_size=K, feat_dim=FEAT, encoder=cfg, seed=0)

    def full_sums(nbest):
        pairs = [(u.frames, list(y)) for u in batch for y in (
            [u.labels] if u.labels is not None else
            [labels for labels, _ in pseudo[u.utt_id].nbest] if nbest else [pseudo[u.utt_id].labels])]
        lattices, label_seqs = [model.build_lattice(x, y) for x, y in pairs], [y for _, y in pairs]
        return [
            (f"full-sum + grad, {len(pairs)} batched", 20,
             lambda: td.lattice.rnnt_losses_with_grad(lattices, label_seqs)),
            (f"forward_backward, {len(pairs)} one by one", 5,
             lambda: [td.forward_backward(lat, y) for lat, y in zip(lattices, label_seqs)]),
        ]

    return [
        *full_sums(nbest=False),
        *full_sums(nbest=True),
        ("hard step, 2+22 utterances", 20, step(H, batch, "hard", (1.0, 1.0, 0.0))),
        ("fsnorm step, 2+22, 4-best", 5, step(H, batch, "fsnorm_l1", (1.0, 0.0, 1.0))),
        ("teacher step, 8 utterances", 50, step(12, sup.utterances, "hard", (1.0, 0.0, 0.0))),
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    default_src = Path(__file__).resolve().parents[1] / "src"
    parser.add_argument("--src", default=str(default_src),
                        help="directory holding the transducer_distill package")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    import transducer_distill as td
    import transducer_distill.lattice  # noqa: F401  (td.lattice)

    print(f"# {td.__file__}: T={T} U={U} K={K} H={H}, best of {BLOCKS} blocks")
    for name, calls, fn in layers(td):
        print(f"{name:32s} {best_us(fn, calls):10.1f} us")
    for name, calls, fn in steps(td):
        print(f"{name:32s} {best_us(fn, calls):10.1f} us {peak_kib(fn):10.1f} KiB peak")
    return 0


if __name__ == "__main__":
    sys.exit(main())
