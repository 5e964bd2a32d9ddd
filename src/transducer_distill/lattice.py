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

# brute-force enumeration refuses anything larger than this many path steps
ENUMERATION_LIMIT = 24


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


class EnumerationLimitError(LatticeError):
    """Requested brute-force enumeration exceeds the size guard."""


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
    """Dense per-node log posteriors ``log_probs[t, u, k]`` of shape T x (U+1) x (K+1).

    ``excluded_frames`` marks the first frames as carrying no usable evidence
    (produced by time-shifting a teacher lattice); frame-local losses skip
    positions with t < excluded_frames.
    """

    log_probs: np.ndarray
    excluded_frames: int = 0

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
        if not 0 <= self.excluded_frames <= self.num_frames:
            raise LatticeError(
                f"excluded_frames={self.excluded_frames} outside [0, T={self.num_frames}]"
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

    def validate(self, atol: float = 1e-6) -> None:
        """Check that every node is a normalized log-distribution.

        The producer (the model's log-softmax) is responsible for
        normalization; this is the assertion of that contract.
        """
        _check_finite(self.log_probs)
        norms = logsumexp(self.log_probs, axis=-1)
        worst = np.max(np.abs(norms))
        if worst > atol:
            idx = np.unravel_index(np.argmax(np.abs(norms)), norms.shape)
            raise LatticeError(
                f"node {idx} is not normalized: logsumexp = {norms[idx]:.3e}"
            )
        if np.max(self.log_probs) > atol:
            raise LatticeError("lattice holds log-probabilities > 0")


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
    """Loss and its lattice gradient from a single forward-backward pass.

    Occupancy form: only entries for blank and the next target label are on
    any path, all other entries get exactly zero.
    """
    log_prob, alpha, beta = forward_backward(lat, labels)  # validates the pair
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    T, U = lat.num_frames, len(y)
    blank = lat.blank
    lp = lat.log_probs

    grad = np.zeros_like(lp)
    # occupancy of the blank arc at (t, u): alpha + emission + beta of (t+1, u)
    occ_blank = alpha + lp[:, :, blank] - log_prob
    occ_blank[: T - 1] += beta[1:]
    occ_blank[T - 1, :U] = NEG_INF  # blanks at (T-1, u<U) fall off the lattice
    grad[:, :, blank] = -np.exp(occ_blank)
    # occupancy of the label arc at (t, u): alpha + emission + beta of (t, u+1)
    rows = np.arange(U)
    occ_label = alpha[:, :U] + lp[:, rows, y] + beta[:, 1:] - log_prob
    grad[:, rows, y] = -np.exp(occ_label)
    return -log_prob, grad


def _iter_paths(num_blanks: int, num_labels: int):
    """Yield all orderings of blank (True) / label (False) steps whose final
    step is the terminating blank."""

    def rec(prefix, b, l):
        # last step must be the terminal blank from (T-1, U)
        if b == 1 and l == 0:
            yield prefix + (True,)
            return
        if b > 1:
            yield from rec(prefix + (True,), b - 1, l)
        if l > 0:
            yield from rec(prefix + (False,), b, l - 1)

    yield from rec((), num_blanks, num_labels)


def brute_force_log_prob(lat: Lattice, labels) -> float:
    """Enumeration oracle for ``forward_backward``: logsumexp over every
    alignment path, summed step by step.  Deliberately shares no code with
    the dynamic-programming recursion.
    """
    y = _check_pair(lat, labels)
    T, U = lat.num_frames, len(y)
    if T + U > ENUMERATION_LIMIT:
        raise EnumerationLimitError(
            f"refusing to enumerate T+U = {T + U} > {ENUMERATION_LIMIT} steps"
        )
    lp = lat.log_probs
    blank = lat.blank

    path_logps = []
    for steps in _iter_paths(T, U):
        t = u = 0
        total = 0.0
        for is_blank in steps:
            if is_blank:
                total += lp[t, u, blank]
                t += 1
            else:
                total += lp[t, u, y[u]]
                u += 1
        path_logps.append(total)
    return logsumexp(np.asarray(path_logps))


def path_mass(lat: Lattice, max_labels: int) -> float:
    """Total probability of all label sequences with length <= ``max_labels``.

    Normalization sanity probe: monotone in ``max_labels`` and bounded by 1
    for a lattice of normalized node distributions.
    """
    T = lat.num_frames
    K = lat.vocab_size
    if max_labels < 0:
        raise LatticeError("max_labels must be >= 0")
    if T + max_labels > ENUMERATION_LIMIT or K ** max(max_labels, 1) > 200_000:
        raise EnumerationLimitError(
            f"path_mass enumeration too large: T={T}, K={K}, max_labels={max_labels}"
        )

    full = lat.log_probs
    total = 0.0
    for length in range(max_labels + 1):
        sub = Lattice(full[:, : length + 1, :])
        for labels in _all_label_seqs(K, length):
            total += float(np.exp(brute_force_log_prob(sub, labels)))
    return total


def _all_label_seqs(vocab_size: int, length: int):
    if length == 0:
        yield ()
        return
    for head in range(vocab_size):
        for tail in _all_label_seqs(vocab_size, length - 1):
            yield (head,) + tail
