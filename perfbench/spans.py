"""Span tracing of the transducer_distill layers, applied from outside the
package by rebinding each public function under every name its callers
resolve at call time, and the per-layer metrics derived from the spans.

A span is (name, start, end, parent).  The process is single-threaded, so
spans nest strictly and a span's self time is its duration minus the
durations of its direct children.
"""

import contextlib
import time
from array import array

import numpy as np

from transducer_distill import cli, data, decode, distill, lattice, metrics, model

# (owner, attribute, span name).  A function imported into another module by
# name is looked up there at call time, so each such binding is listed.
BINDINGS = [
    (lattice, "forward_backward", "lattice.forward_backward"),
    (decode, "forward_backward", "lattice.forward_backward"),
    (distill, "rnnt_loss_with_grad", "lattice.loss_grad"),
    (distill, "soft_kl_full", "distill.soft_kl"),
    (distill, "soft_kl_efficient", "distill.soft_kl"),
    (distill, "shift_teacher", "distill.shift_teacher"),
    (distill, "fs_distill", "distill.fs"),
    (distill, "fs_norm_distill", "distill.fs"),
    (distill, "combined_loss", "distill.combined_loss"),
    (model.TransducerModel, "forward", "model.forward"),
    (model.TransducerModel, "backward", "model.backward"),
    (model.TransducerModel, "build_lattice", "model.build_lattice"),
    (model.TransducerModel, "encode", "model.encode"),
    (model.TransducerModel, "predictor_start", "model.predictor_start"),
    (model.TransducerModel, "predictor_advance", "model.predictor_advance"),
    (model.TransducerModel, "joint_log_probs", "model.joint_log_probs"),
    (model.SGD, "step", "model.sgd"),
    (cli, "train_step", "model.train_step"),
    (cli, "save_checkpoint", "model.checkpoint"),
    (cli, "load_checkpoint", "model.checkpoint"),
    (cli, "beam_search", "decode.beam_search"),
    (cli, "rescore_nbest", "decode.rescore"),
    (metrics, "greedy_decode", "decode.greedy"),
    (metrics, "beam_search", "decode.beam_search"),
    (metrics, "evaluate", "metrics.evaluate"),
    (metrics, "edit_distance", "metrics.edit_distance"),
    (data, "generate", "data.generate"),
    (data, "generate_split", "data.generate"),
    (data, "write_corpus", "data.io"),
    (data, "read_corpus", "data.io"),
    (data, "write_hidden_refs", "data.io"),
    (data, "read_hidden_refs", "data.io"),
]

# span name -> work read from the call's arguments
WORK = {
    # lattice cells T' x (U+1) of forward_backward(lat, labels)
    "lattice.forward_backward": lambda args: args[0].num_frames * args[0].num_label_rows,
    # (batch utterances, unsupervised ones) of train_step(model, batch, ...)
    "model.train_step": lambda args: (len(args[1]), sum(u.labels is None for u in args[1])),
}

# per-layer metric name -> unit, in report order
PER_LAYER = {
    "lattice.forward_backward.calls": "count",
    "lattice.forward_backward.self_s": "s",
    "lattice.cells": "count",
    "lattice.ns_per_cell": "ns",
    "lattice.loss_grad.self_s": "s",
    "model.forward.calls": "count",
    "model.forward.self_s": "s",
    "model.backward.calls": "count",
    "model.backward.self_s": "s",
    "model.forwards_per_train_utt": "ratio",
    "model.train_step.ms_p50": "ms",
    "model.train_step.ms_p90": "ms",
    "model.sgd.self_s": "s",
    "model.checkpoint.self_s": "s",
    "model.encode.self_s": "s",
    "model.incremental.self_s": "s",
    "distill.soft_kl.calls": "count",
    "distill.soft_kl.self_s": "s",
    "distill.shift_teacher.calls": "count",
    "distill.teacher_lattices_per_unsup_utt": "ratio",
    "distill.fs.self_s": "s",
    "distill.combined_loss.self_s": "s",
    "decode.beam_search.calls": "count",
    "decode.beam_search.self_s": "s",
    "decode.beam_search.ms_p50": "ms",
    "decode.beam_search.ms_p90": "ms",
    "decode.advances_per_utt": "ratio",
    "decode.pops_per_advance": "ratio",
    "decode.rescore.self_s": "s",
    "decode.greedy.self_s": "s",
    "decode.failures": "count",
    "data.generate_s": "s",
    "data.io_s": "s",
    "metrics.edit_distance.calls": "count",
    "metrics.evaluate.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """In-memory span recorder; ``install`` rebinds, ``uninstall`` restores."""

    def __init__(self):
        self.names = []
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.failed = set()
        self.work = {}
        self._stack = [-1]
        self._saved = []

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, name_id):
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        name_id = self._name_id(name)
        measure = WORK.get(name)
        open_, close, work = self._open, self._close, self.work

        def traced(*args, **kwargs):
            if measure is not None:
                work[len(self.start)] = measure(args)
            idx = open_(name_id)
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.failed.add(idx)
                raise
            finally:
                close(idx)

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """A span around a block of the benchmark's own code."""
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def install(self):
        for owner, attr, name in BINDINGS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def save(self, path):
        """Write the spans out, one array entry per span."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
        )


def layer_of(name):
    return name.split(".", 1)[0]


def analyse(tracer):
    """Per-layer metrics (without ``trace.overhead_frac``) and, per stage
    span, its wall time, the self time of each layer inside it and the
    number of spans of each name inside it."""
    ids = {name: i for i, name in enumerate(tracer.names)}
    nm = np.frombuffer(tracer.name, dtype=np.uint16)
    start = np.frombuffer(tracer.start, dtype=np.float64)
    dur = np.frombuffer(tracer.end, dtype=np.float64) - start
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    n = len(nm)
    nested = parent >= 0
    self_t = dur - np.bincount(parent[nested], weights=dur[nested], minlength=n)

    # ancestry in one pass: a parent is always recorded before its children
    train_step = ids.get("model.train_step", -1)
    beam = ids.get("decode.beam_search", -1)
    build = ids.get("model.build_lattice", -1)
    root = np.arange(n)
    in_step = np.zeros(n, dtype=bool)
    in_beam = np.zeros(n, dtype=bool)
    in_build = np.zeros(n, dtype=bool)
    par, names = parent.tolist(), nm.tolist()
    for i in range(n):
        p = par[i]
        if p >= 0:
            root[i] = root[p]
            in_step[i] = in_step[p] or names[p] == train_step
            in_beam[i] = in_beam[p] or names[p] == beam
            in_build[i] = in_build[p] or names[p] == build

    def mask(*span_names):
        return np.isin(nm, [ids[s] for s in span_names if s in ids])

    def calls(*span_names, where=None):
        m = mask(*span_names)
        return int(np.count_nonzero(m if where is None else m & where))

    def self_s(*span_names):
        return float(self_t[mask(*span_names)].sum())

    def ms_pct(span_name, q):
        d = dur[mask(span_name)]
        return float(np.percentile(d, q) * 1e3) if d.size else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    steps = [tracer.work[i] for i in np.flatnonzero(mask("model.train_step")).tolist()]
    batch_utts = sum(b for b, _ in steps)
    unsup_utts = sum(u for _, u in steps)
    fb = np.flatnonzero(mask("lattice.forward_backward")).tolist()
    cells = sum(tracer.work[i] for i in fb)
    advances = calls("model.predictor_advance", where=in_beam)
    decode_ops = np.flatnonzero(mask("decode.beam_search", "decode.rescore")).tolist()

    out = {
        "lattice.forward_backward.calls": len(fb),
        "lattice.forward_backward.self_s": self_s("lattice.forward_backward"),
        "lattice.cells": cells,
        "lattice.ns_per_cell": ratio(self_s("lattice.forward_backward") * 1e9, cells),
        "lattice.loss_grad.self_s": self_s("lattice.loss_grad"),
        "model.forward.calls": calls("model.forward"),
        "model.forward.self_s": self_s("model.forward"),
        "model.backward.calls": calls("model.backward"),
        "model.backward.self_s": self_s("model.backward"),
        "model.forwards_per_train_utt": ratio(
            calls("model.forward", where=in_step & ~in_build), batch_utts),
        "model.train_step.ms_p50": ms_pct("model.train_step", 50),
        "model.train_step.ms_p90": ms_pct("model.train_step", 90),
        "model.sgd.self_s": self_s("model.sgd"),
        "model.checkpoint.self_s": self_s("model.checkpoint"),
        "model.encode.self_s": self_s("model.encode"),
        "model.incremental.self_s": self_s(
            "model.predictor_start", "model.predictor_advance", "model.joint_log_probs"),
        "distill.soft_kl.calls": calls("distill.soft_kl"),
        "distill.soft_kl.self_s": self_s("distill.soft_kl"),
        "distill.shift_teacher.calls": calls("distill.shift_teacher"),
        "distill.teacher_lattices_per_unsup_utt": ratio(
            calls("model.build_lattice", where=in_step), unsup_utts),
        "distill.fs.self_s": self_s("distill.fs"),
        "distill.combined_loss.self_s": self_s("distill.combined_loss"),
        "decode.beam_search.calls": calls("decode.beam_search"),
        "decode.beam_search.self_s": self_s("decode.beam_search"),
        "decode.beam_search.ms_p50": ms_pct("decode.beam_search", 50),
        "decode.beam_search.ms_p90": ms_pct("decode.beam_search", 90),
        "decode.advances_per_utt": ratio(advances, calls("decode.beam_search")),
        "decode.pops_per_advance": ratio(
            calls("model.joint_log_probs", where=in_beam), advances),
        "decode.rescore.self_s": self_s("decode.rescore"),
        "decode.greedy.self_s": self_s("decode.greedy"),
        "decode.failures": sum(1 for i in decode_ops if i in tracer.failed),
        "data.generate_s": self_s("data.generate"),
        "data.io_s": self_s("data.io"),
        "metrics.edit_distance.calls": calls("metrics.edit_distance"),
        "metrics.evaluate.self_s": self_s("metrics.evaluate"),
        "cli.self_s": float(self_t[parent < 0].sum()),
    }

    layers = sorted({layer_of(name) for name in tracer.names})
    layer = np.array([layers.index(layer_of(name)) for name in tracer.names], dtype=np.int64)[nm]
    stages = {}
    for r in np.flatnonzero(parent < 0).tolist():
        inside = root == r
        per_layer = np.bincount(layer[inside], weights=self_t[inside], minlength=len(layers))
        per_name = np.bincount(nm[inside], minlength=len(tracer.names))
        stages[tracer.names[nm[r]]] = {
            "wall_s": float(dur[r]),
            "layers": {name: float(s) for name, s in zip(layers, per_layer) if s},
            "calls": {name: int(c) for name, c in zip(tracer.names, per_name) if c},
        }
    return out, stages
