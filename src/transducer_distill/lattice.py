"""Exact log-space transducer sequence probabilities over a T x (U+1) lattice.

A lattice node (t, u) holds a normalized log-distribution over K real labels
plus blank (blank is the last index, K).  A complete path starts at (0, 0),
emits the label y[u] at (t, u) to move to (t, u+1) or blank to move to
(t+1, u), and terminates with the blank emitted at (T-1, U).  Every complete
path therefore contains exactly T blanks and U labels.
"""

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

NEG_INF = -math.inf


class LatticeError(ValueError):
    """Base class for lattice-level failures."""


class LatticeShapeError(LatticeError):
    """Shapes of lattice/labels (or two lattices) do not agree."""

    def __init__(self, message: str, *shapes):
        super().__init__(message)
        self.shapes = shapes


class NonFiniteLatticeError(LatticeError):
    """A lattice entry is NaN or infinite; carries the offending index."""

    def __init__(self, index):
        self.index = tuple(int(i) for i in index)
        super().__init__(f"non-finite lattice entry at (t, u, k) = {self.index}")


def logsumexp(x: np.ndarray, axis=None) -> np.ndarray:
    """Numerically stable log(sum(exp(x))) along ``axis``."""
    m = np.max(x, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    out = np.log(np.sum(np.exp(x - m), axis=axis, keepdims=True)) + m
    if axis is None:
        return float(out.reshape(()))
    return np.squeeze(out, axis=axis)


@dataclass
class Lattice:
    """Dense per-node log posteriors ``log_probs[t, u, k]`` of shape T x (U+1) x (K+1)."""

    log_probs: np.ndarray

    def __post_init__(self):
        self.log_probs = np.asarray(self.log_probs, dtype=np.float64)
        if self.log_probs.ndim != 3:
            raise LatticeShapeError(
                f"lattice must be 3-dimensional (T, U+1, K+1), got shape "
                f"{self.log_probs.shape}",
                self.log_probs.shape,
            )
        if self.num_frames < 1 or self.num_label_rows < 1 or self.vocab_size < 1:
            raise LatticeShapeError(
                f"degenerate lattice shape {self.log_probs.shape}",
                self.log_probs.shape,
            )

    @property
    def num_frames(self) -> int:
        return self.log_probs.shape[0]

    @property
    def num_label_rows(self) -> int:
        return self.log_probs.shape[1]

    @property
    def vocab_size(self) -> int:
        """Number of real labels K; blank is the extra index K."""
        return self.log_probs.shape[2] - 1

    @property
    def blank(self) -> int:
        return self.log_probs.shape[2] - 1


def _check_finite(log_probs: np.ndarray) -> None:
    if not np.all(np.isfinite(log_probs)):
        bad = np.argwhere(~np.isfinite(log_probs))[0]
        raise NonFiniteLatticeError(bad)


def check_labels(labels, vocab_size: int) -> np.ndarray:
    """Validate a label sequence: integer indices in [0, vocab_size)."""
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    if y.size and (y.min() < 0 or y.max() >= vocab_size):
        raise LatticeError(
            f"label out of range for vocab of size {vocab_size}: {labels}"
        )
    return y


def _check_pair(lat: Lattice, labels) -> np.ndarray:
    y = check_labels(labels, lat.vocab_size)
    if lat.num_label_rows != len(y) + 1:
        raise LatticeShapeError(
            f"lattice has {lat.num_label_rows} label rows but needs "
            f"U+1 = {len(y) + 1} for a {len(y)}-label sequence",
            lat.log_probs.shape,
            (len(y),),
        )
    _check_finite(lat.log_probs)
    return y


def forward_backward(lat: Lattice, labels):
    """Full-sum log P(Y|X) with forward/backward occupancies.

    Returns ``(log_prob, alpha, beta)`` where ``alpha[t, u]`` is the log-mass
    of partial paths reaching node (t, u) and ``beta[t, u]`` the log-mass of
    completing from (t, u) inclusive of the emission at (t, u).  For every
    anti-diagonal t + u = c, logsumexp of ``alpha + beta`` equals the
    returned log-probability.
    """
    y = _check_pair(lat, labels)
    T, U = lat.num_frames, len(y)
    # the only entries on any path: blank at every node, y[u] at row u
    blank_lp = lat.log_probs[:, :, lat.blank].tolist()
    label_lp = lat.log_probs[:, np.arange(U), y].tolist()
    exp, log1p = math.exp, math.log1p

    # every entry is finite (checked above), so every alpha and beta is too
    # and the inlined log-add needs no -inf case
    alpha = [[0.0] * (U + 1) for _ in range(T)]
    row = alpha[0]
    for u in range(U):
        row[u + 1] = row[u] + label_lp[0][u]
    for t in range(1, T):
        prev, row = row, alpha[t]
        stay, emit = blank_lp[t - 1], label_lp[t]
        row[0] = prev[0] + stay[0]
        for u in range(1, U + 1):
            a = prev[u] + stay[u]
            b = row[u - 1] + emit[u - 1]
            if a < b:
                a, b = b, a
            row[u] = a + log1p(exp(b - a))

    beta = [[0.0] * (U + 1) for _ in range(T)]
    row = beta[T - 1]
    row[U] = blank_lp[T - 1][U]
    emit = label_lp[T - 1]
    for u in range(U - 1, -1, -1):
        row[u] = emit[u] + row[u + 1]
    for t in range(T - 2, -1, -1):
        nxt, row = row, beta[t]
        stay, emit = blank_lp[t], label_lp[t]
        row[U] = stay[U] + nxt[U]
        for u in range(U - 1, -1, -1):
            a = stay[u] + nxt[u]
            b = emit[u] + row[u + 1]
            if a < b:
                a, b = b, a
            row[u] = a + log1p(exp(b - a))

    log_prob = alpha[T - 1][U] + blank_lp[T - 1][U]
    alpha, beta = (np.fromiter(chain.from_iterable(m), np.float64, T * (U + 1)).reshape(T, U + 1)
                   for m in (alpha, beta))
    return log_prob, alpha, beta


def rnnt_loss(lat: Lattice, labels) -> float:
    """Negative log sequence posterior, the full-sum training loss."""
    log_prob, _, _ = forward_backward(lat, labels)
    return -log_prob


def rnnt_loss_with_grad(lat: Lattice, labels) -> tuple[float, np.ndarray]:
    """Loss and lattice gradient of one pair: ``rnnt_losses_with_grad``'s batch of one."""
    return rnnt_losses_with_grad([lat], [labels])[0]


def _check_batch(lattices, label_seqs) -> list:
    """``_check_pair``'s labels of each pair, its checks run once over the batch;
    on a failure the pairs are checked in order, to raise what it raises."""
    ys = [np.asarray(y, dtype=np.int64).reshape(-1) for _, y in zip(lattices, label_seqs, strict=True)]
    labels = np.concatenate(ys)
    vocab = np.repeat([lat.vocab_size for lat in lattices], [len(y) for y in ys])
    if ([lat.num_label_rows for lat in lattices] != [len(y) + 1 for y in ys]
            or np.any((labels < 0) | (labels >= vocab))
            or not np.isfinite(np.concatenate([lat.log_probs for lat in lattices], axis=None)).all()):
        for lat, y in zip(lattices, label_seqs):
            _check_pair(lat, y)
    return ys


def rnnt_losses_with_grad(lattices, label_seqs) -> list:
    """``(NLL, lattice gradient)`` of each pair, bit for bit as ``forward_backward``
    and the occupancy gradient give them one pair at a time: one scan over the
    anti-diagonals t + u = c, rows ``:B`` alpha and rows ``B:`` beta on the
    time- and label-reversed lattices.  Cell (t, u) sits at [t + 1, u + 1]
    behind a -inf row and column, so a diagonal and its predecessors are
    strided views.  ``np.logaddexp`` makes the recursion's scalar libm calls,
    and a -inf operand leaves the other one exact."""
    if not lattices:
        return []
    ys = _check_batch(lattices, label_seqs)
    B, Ts, Us = len(ys), [lat.num_frames for lat in lattices], [len(y) for y in ys]
    Tm, Um, S = max(Ts), max(Us), max(Us) + 2
    # the weight of the step into each cell, kept at the cell: ``down`` from the
    # cell above (a blank), ``right`` from the cell to the left (a label); alpha's
    # step emits at the cell it leaves, reversed beta's at the cell it enters
    down, right, scan = (np.full((2 * B, Tm + rows, S), NEG_INF) for rows in (2, 1, 1))
    for b, (lat, y, T, U) in enumerate(zip(lattices, ys, Ts, Us)):
        blank, label = lat.log_probs[:, :, lat.blank], lat.log_probs[:, np.arange(U), y]
        down[b, 2 : T + 2, 1 : U + 2], down[B + b, 1 : T + 1, 1 : U + 2] = blank, blank[::-1, ::-1]
        right[b, 1 : T + 1, 2 : U + 2], right[B + b, 1 : T + 1, 2 : U + 2] = label, label[::-1, ::-1]
    # alpha(0, 0) = 0, beta(T-1, U) = its blank; for the gradient beta(T, U) = 0, beta(T, u<U) = -inf
    scan[:B, 1, 1], scan[B:, 1, 1], scan[B:, 0, 1] = 0.0, down[B:, 1, 1], 0.0
    # [b, c, t] -> flat entry offset + c + t (S - 1) of row b: cell (t, c - t) at offset S + 1
    cur, up, left, w_down, w_right = (np.lib.stride_tricks.as_strided(
        a.reshape(2 * B, -1)[:, offset:], (2 * B, Tm + Um, Tm), (a.strides[0], 8, 8 * (S - 1)))
        for a, offset in ((scan, S + 1), (scan, 1), (scan, S), (down, S + 1), (right, S + 1)))
    via_down, via_right = np.empty((2, 2 * B, Tm))
    for c in range(1, Tm + Um):
        lo, hi = max(0, c - Um), min(Tm, c + 1)
        d, r = via_down[:, : hi - lo], via_right[:, : hi - lo]
        np.add(up[:, c, lo:hi], w_down[:, c, lo:hi], out=d)
        np.add(left[:, c, lo:hi], w_right[:, c, lo:hi], out=r)
        np.logaddexp(d, r, out=cur[:, c, lo:hi])

    alpha, beta = scan[:B, 1:, 1:], np.full((B, Tm + 1, S), NEG_INF)
    for b, (T, U) in enumerate(zip(Ts, Us)):
        beta[b, : T + 1, : U + 2] = scan[B + b, T::-1, U + 1 :: -1]
    log_prob = (scan[np.arange(B), Ts, np.add(Us, 1)] + down[B:, 1, 1])[:, None, None]
    # occupancies: alpha + emission + beta of the next node (t+1, u) or (t, u+1)
    occ_blank = alpha + down[:B, 2:, 1:] - log_prob + beta[:, 1:, :-1]
    occ_label = alpha[:, :, :-1] + right[:B, 1:, 2:] + beta[:, :-1, 1:-1] - log_prob
    grad_blank, grad_label = -np.exp(occ_blank), -np.exp(occ_label)
    out = []
    for b, (lat, y, T, U) in enumerate(zip(lattices, ys, Ts, Us)):
        grad = np.zeros_like(lat.log_probs)
        grad[:, :, lat.blank], grad[:, np.arange(U), y] = grad_blank[b, :T, : U + 1], grad_label[b, :T, :U]
        out.append((-float(log_prob[b, 0, 0]), grad))
    return out
