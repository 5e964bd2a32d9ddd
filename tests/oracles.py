"""Enumeration oracles for the lattice recursion: the ground truth of the suite.

Brute force over every alignment path of a ``transducer_distill.lattice.Lattice``,
sharing nothing with the dynamic-programming recursion except the lattice type,
its input checks and ``logsumexp``.  Test-only: the package never imports this.
"""

import numpy as np

from transducer_distill.lattice import Lattice, LatticeError, _check_finite, _check_pair, logsumexp

# brute-force enumeration refuses anything larger than this many path steps
ENUMERATION_LIMIT = 24


class EnumerationLimitError(LatticeError):
    """Requested brute-force enumeration exceeds the size guard."""


def validate_lattice(lat: Lattice, atol: float = 1e-6) -> None:
    """Check that every node of ``lat`` is a normalized log-distribution.

    The producer (the model's log-softmax) is responsible for
    normalization; this is the assertion of that contract.
    """
    _check_finite(lat.log_probs)
    norms = logsumexp(lat.log_probs, axis=-1)
    worst = np.max(np.abs(norms))
    if worst > atol:
        idx = np.unravel_index(np.argmax(np.abs(norms)), norms.shape)
        raise LatticeError(
            f"node {idx} is not normalized: logsumexp = {norms[idx]:.3e}"
        )
    if np.max(lat.log_probs) > atol:
        raise LatticeError("lattice holds log-probabilities > 0")


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
