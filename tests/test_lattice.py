import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transducer_distill.lattice import (
    Lattice,
    LatticeError,
    LatticeShapeError,
    NonFiniteLatticeError,
    forward_backward,
    logsumexp,
    rnnt_loss,
    rnnt_loss_with_grad,
    rnnt_losses_with_grad,
)

from conftest import random_lattice, uniform_lattice
from oracles import (
    ENUMERATION_LIMIT,
    EnumerationLimitError,
    brute_force_log_prob,
    path_mass,
    validate_lattice,
)


def blank_dominant_lattice(T, U, K, p_blank=0.9):
    lp = np.full((T, U + 1, K + 1), math.log((1.0 - p_blank) / K))
    lp[:, :, K] = math.log(p_blank)
    return Lattice(lp)


def _logadd(a, b):
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


def reference_forward_backward(lat, labels):
    """The branchy form of ``forward_backward``: one scalar log-add call per
    lattice cell, with the boundary cases handled inside the loops."""
    y = [int(k) for k in labels]
    T, U, blank = lat.num_frames, len(y), lat.blank
    lp = lat.log_probs.tolist()
    alpha = [[-math.inf] * (U + 1) for _ in range(T)]
    alpha[0][0] = 0.0
    for t in range(T):
        for u in range(U + 1):
            if t == 0 and u == 0:
                continue
            from_blank = alpha[t - 1][u] + lp[t - 1][u][blank] if t > 0 else -math.inf
            from_label = alpha[t][u - 1] + lp[t][u - 1][y[u - 1]] if u > 0 else -math.inf
            alpha[t][u] = _logadd(from_blank, from_label)
    beta = [[-math.inf] * (U + 1) for _ in range(T)]
    beta[T - 1][U] = lp[T - 1][U][blank]
    for t in range(T - 1, -1, -1):
        for u in range(U, -1, -1):
            if t == T - 1 and u == U:
                continue
            via_blank = lp[t][u][blank] + beta[t + 1][u] if t + 1 < T else -math.inf
            via_label = lp[t][u][y[u]] + beta[t][u + 1] if u < U else -math.inf
            beta[t][u] = _logadd(via_blank, via_label)
    log_prob = alpha[T - 1][U] + lp[T - 1][U][blank]
    return log_prob, np.asarray(alpha), np.asarray(beta)


def reference_loss_grad(lat, labels):
    """``rnnt_loss_with_grad`` with its label occupancies filled row by row."""
    log_prob, alpha, beta = reference_forward_backward(lat, labels)
    y = np.asarray(labels, dtype=np.int64)
    T, U, blank, lp = lat.num_frames, len(y), lat.blank, lat.log_probs
    grad = np.zeros_like(lp)
    occ_blank = alpha + lp[:, :, blank] - log_prob
    occ_blank[: T - 1] += beta[1:]
    occ_blank[T - 1, :U] = -math.inf
    grad[:, :, blank] = -np.exp(occ_blank)
    for u in range(U):
        occ_label = alpha[:, u] + lp[:, u, y[u]] + beta[:, u + 1] - log_prob
        grad[:, u, y[u]] = -np.exp(occ_label)
    return -log_prob, grad


def far_apart_lattice(rng, T, U, K):
    """Normalized lattice whose entries reach about -700, so that exp of
    the log-add's difference underflows to zero on many cells."""
    logits = rng.normal(size=(T, U + 1, K + 1)) * 300.0
    logits -= logits.max(axis=-1, keepdims=True)
    return Lattice(logits - logsumexp(logits, axis=-1)[..., None])


def scaled_lattice(rng, T, U, K, scale):
    """Normalized lattice from normal logits times ``scale``."""
    logits = rng.normal(size=(T, U + 1, K + 1)) * scale
    return Lattice(logits - logsumexp(logits, axis=-1)[..., None])


def logaddexp_is_scalar_logadd():
    """Whether this numpy build's ``np.logaddexp(a, b)`` is, bit for bit,
    ``forward_backward``'s inlined log-add ``a + log1p(exp(b - a))`` for
    a >= b, on equal operands and with a -inf operand too.  The batched
    full-sum's equality with the scalar recursion rests on it; it held with
    numpy 2.4.6 on an x86-64 Xeon, whose logaddexp calls the scalar libm exp
    and log1p, and elementwise dispatch is not a numpy guarantee."""
    rng = np.random.default_rng(0)
    a = rng.normal(size=4000) * np.repeat([1.0, 30.0, 300.0, 1000.0], 1000)
    b = a + rng.normal(size=4000) * np.tile([0.0, 1e-3, 1.0, 40.0, 800.0], 800)
    want = [hi + math.log1p(math.exp(lo - hi)) for hi, lo in zip(np.maximum(a, b).tolist(),
                                                               np.minimum(a, b).tolist())]
    return (np.array_equal(np.logaddexp(a, b), want)
            and np.array_equal(np.logaddexp(a, -np.inf), a)
            and np.array_equal(np.logaddexp(-np.inf, a), a))


BITWISE = logaddexp_is_scalar_logadd()


def assert_same(got, want):
    """Bit for bit where ``np.logaddexp`` is the scalar log-add, else within 1e-12."""
    if BITWISE:
        assert np.array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


class TestReferenceEquivalence:
    """The peeled, inlined recursion does the same float operations as the
    branchy one, so alpha, beta and the gradient are equal bit for bit."""

    # (T, U, labels): repeated labels, U = 0, T = 1
    CASES = [(5, 3, [0, 2, 1]), (4, 4, [1, 1, 1, 0]), (6, 0, []), (1, 3, [2, 2, 0]),
             (1, 0, []), (7, 5, [0, 1, 0, 1, 2])]

    @pytest.mark.parametrize("T, U, y", CASES)
    @pytest.mark.parametrize("make", [random_lattice, far_apart_lattice])
    def test_equals_reference(self, T, U, y, make):
        for seed in range(5):
            lat = make(np.random.default_rng(900 + seed), T, U, 3)
            got, want = forward_backward(lat, y), reference_forward_backward(lat, y)
            assert got[0] == want[0]
            assert np.array_equal(got[1], want[1])
            assert np.array_equal(got[2], want[2])
            loss, grad = rnnt_loss_with_grad(lat, y)
            want_loss, want_grad = reference_loss_grad(lat, y)
            assert_same(loss, want_loss)
            assert_same(grad, want_grad)

    def test_far_apart_entries_underflow_and_stay_finite(self):
        lat = far_apart_lattice(np.random.default_rng(3), 6, 4, 3)
        assert lat.log_probs.min() < -600.0
        log_prob, alpha, beta = forward_backward(lat, [0, 1, 2, 0])
        assert np.isfinite(log_prob)
        assert np.all(np.isfinite(alpha)) and np.all(np.isfinite(beta))


def mixed_batch(rng, size, max_labels=8):
    """``size`` random (lattice, labels) pairs of mixed T, U, K and logit
    scale, among them far-apart lattices; lists or arrays of labels."""
    lattices, label_seqs = [], []
    for _ in range(size):
        T, U, K = int(rng.integers(1, 10)), int(rng.integers(0, max_labels + 1)), int(rng.integers(1, 6))
        kind = int(rng.integers(3))
        lat = (far_apart_lattice(rng, T, U, K) if kind == 0 else
               scaled_lattice(rng, T, U, K, float(rng.choice([1.0, 10.0, 100.0, 1000.0]))))
        y = rng.integers(0, K, size=U)
        lattices.append(lat)
        label_seqs.append(y if kind == 1 else y.tolist())
    return lattices, label_seqs


class TestBatchedLossGrad:
    """``rnnt_losses_with_grad`` against ``forward_backward`` and the
    reference recursion, one lattice at a time."""

    @pytest.mark.parametrize("seed", range(12))
    def test_equals_one_by_one(self, seed):
        rng = np.random.default_rng(4000 + seed)
        size = [1, 2, 24, 5, 90][seed % 5]
        lattices, label_seqs = mixed_batch(rng, size, max_labels=30 if seed % 3 == 0 else 8)
        got = rnnt_losses_with_grad(lattices, label_seqs)
        assert len(got) == size
        for lat, y, (loss, grad) in zip(lattices, label_seqs, got):
            want_loss, want_grad = reference_loss_grad(lat, y)
            assert isinstance(loss, float)
            assert_same(loss, want_loss)
            assert_same(loss, -forward_backward(lat, y)[0])
            assert_same(grad, want_grad)

    @pytest.mark.parametrize("T, U", [(1, 0), (1, 5), (7, 0), (1, 30), (12, 30)])
    def test_edge_shapes_in_one_batch(self, T, U):
        rng = np.random.default_rng(T * 100 + U)
        lattices = [scaled_lattice(rng, T, U, 4, 1000.0), far_apart_lattice(rng, T, U, 2),
                    random_lattice(rng, 3, 2, 3)]
        label_seqs = [rng.integers(0, 4, size=U), rng.integers(0, 2, size=U), [2, 2]]
        for lat, y, (loss, grad) in zip(lattices, label_seqs,
                                        rnnt_losses_with_grad(lattices, label_seqs)):
            want_loss, want_grad = reference_loss_grad(lat, y)
            assert_same(loss, want_loss)
            assert_same(grad, want_grad)

    def test_empty_batch(self):
        assert rnnt_losses_with_grad([], []) == []

    def test_inputs_untouched(self, rng):
        lattices, label_seqs = mixed_batch(rng, 6)
        before = [lat.log_probs.copy() for lat in lattices]
        rnnt_losses_with_grad(lattices, label_seqs)
        for lat, old in zip(lattices, before):
            assert np.array_equal(lat.log_probs, old)


def _spoil(kind, lattices, label_seqs, i):
    """Make pair ``i`` fail one of ``_check_pair``'s checks."""
    if kind == "non-finite":
        lattices[i].log_probs[-1, 0, 0] = np.nan
    elif kind == "label":
        label_seqs[i] = [lattices[i].vocab_size] * len(label_seqs[i])
    else:
        label_seqs[i] = list(label_seqs[i]) + [0]


SPOILS = ["non-finite", "label", "rows"]


class TestBatchedLossGradErrors:
    """A failing pair raises what the single-lattice path raises for it; of
    two pairs that fail in different ways, the first one does."""

    @pytest.mark.parametrize("kind", SPOILS)
    @pytest.mark.parametrize("bad", [(0,), (4,), (2, 5), (5, 1)])
    def test_same_exception_as_single_path(self, kind, bad):
        rng = np.random.default_rng(17)
        lattices, label_seqs = [], []
        for _ in range(6):
            U = int(rng.integers(1, 4))
            lattices.append(random_lattice(rng, int(rng.integers(1, 5)), U, 3))
            label_seqs.append(rng.integers(0, 3, size=U).tolist())
        spoils = dict(zip(bad, [kind, SPOILS[(SPOILS.index(kind) + 1) % 3]]))
        for i, spoil in spoils.items():
            _spoil(spoil, lattices, label_seqs, i)
        first = min(bad)
        with pytest.raises(LatticeError) as single:
            rnnt_loss_with_grad(lattices[first], label_seqs[first])
        with pytest.raises(LatticeError) as batched:
            rnnt_losses_with_grad(lattices, label_seqs)
        assert type(batched.value) is type(single.value)
        assert str(batched.value) == str(single.value)
        if spoils[first] == "non-finite":
            assert batched.value.index == (lattices[first].num_frames - 1, 0, 0)
        with pytest.raises(type(single.value)) as scalar:
            forward_backward(lattices[first], label_seqs[first])
        assert str(scalar.value) == str(single.value)

    def test_count_mismatch(self, rng):
        lat = random_lattice(rng, 2, 1, 2)
        with pytest.raises(ValueError):
            rnnt_losses_with_grad([lat, lat], [[0]])


@st.composite
def lattice_and_labels(draw):
    T = draw(st.integers(1, 8))
    U = draw(st.integers(0, min(6, ENUMERATION_LIMIT - T)))
    K = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_lattice(rng, T, U, K), rng.integers(0, K, size=U)


class TestForwardBackwardProperties:
    @settings(max_examples=50, deadline=None)
    @given(lattice_and_labels())
    def test_matches_enumeration(self, case):
        lat, y = case
        log_prob, _, _ = forward_backward(lat, y)
        assert log_prob == pytest.approx(brute_force_log_prob(lat, y), abs=1e-9)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.lists(lattice_and_labels(), min_size=1, max_size=4))
    def test_batched_scan_matches_enumeration(self, batch):
        """The scan that training runs, on a batch of mixed shapes, against the oracle."""
        lattices, label_seqs = zip(*batch)
        for (nll, _), lat, y in zip(rnnt_losses_with_grad(lattices, label_seqs), lattices,
                                    label_seqs):
            assert nll == pytest.approx(-brute_force_log_prob(lat, y), abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(lattice_and_labels())
    def test_every_anti_diagonal_carries_the_total(self, case):
        lat, y = case
        log_prob, alpha, beta = forward_backward(lat, y)
        T, U = lat.num_frames, len(y)
        for c in range(T + U):
            cut = [alpha[t, c - t] + beta[t, c - t] for t in range(T) if 0 <= c - t <= U]
            assert logsumexp(np.asarray(cut)) == pytest.approx(log_prob, abs=1e-9)


class TestForwardBackward:
    def test_all_blank_path(self):
        # U=0: single path, probability 0.9 * 0.9
        lat = blank_dominant_lattice(T=2, U=0, K=2, p_blank=0.9)
        log_prob, _, _ = forward_backward(lat, [])
        assert log_prob == pytest.approx(2 * math.log(0.9), abs=1e-12)

    def test_uniform_two_frames_one_label(self):
        # two complete paths (label-blank-blank, blank-label-blank), the
        # final step is always the terminating blank; each path (1/3)^3
        lat = uniform_lattice(T=2, U=1, K=2)
        log_prob, _, _ = forward_backward(lat, [0])
        assert log_prob == pytest.approx(math.log(2.0 / 27.0), abs=1e-12)

    def test_matches_enumeration_oracle(self, rng):
        lat = random_lattice(rng, T=4, U=3, K=4)
        y = [0, 2, 1]
        fb, _, _ = forward_backward(lat, y)
        oracle = brute_force_log_prob(lat, y)
        assert fb == pytest.approx(oracle, abs=1e-9)

    def test_oracle_equivalence_sweep(self):
        # quantified over 100 seeded instances across small shapes
        count = 0
        seed = 0
        while count < 100:
            rng = np.random.default_rng(1000 + seed)
            seed += 1
            T = int(rng.integers(1, 5))
            U = int(rng.integers(0, 4))
            K = int(rng.integers(1, 5))
            lat = random_lattice(rng, T, U, K)
            y = rng.integers(0, K, size=U)
            fb, _, _ = forward_backward(lat, y)
            assert fb == pytest.approx(brute_force_log_prob(lat, y), abs=1e-9)
            count += 1

    def test_anti_diagonal_cuts(self, rng):
        lat = random_lattice(rng, T=4, U=3, K=3)
        y = [1, 0, 2]
        log_prob, alpha, beta = forward_backward(lat, y)
        T, U = 4, 3
        combined = alpha + beta
        for c in range(T + U):
            cut = [combined[t, c - t] for t in range(T) if 0 <= c - t <= U]
            assert logsumexp(np.asarray(cut)) == pytest.approx(log_prob, abs=1e-9)
        assert np.all(combined <= log_prob + 1e-9)

    def test_dimension_mismatch(self, rng):
        lat = random_lattice(rng, T=3, U=2, K=3)
        with pytest.raises(LatticeShapeError):
            forward_backward(lat, [0])  # needs U=2

    def test_non_finite_entry_named(self, rng):
        lat = random_lattice(rng, T=3, U=1, K=2)
        lat.log_probs[1, 0, 2] = np.nan
        with pytest.raises(NonFiniteLatticeError) as exc:
            forward_backward(lat, [0])
        assert exc.value.index == (1, 0, 2)

    def test_permutation_sensitivity(self, rng):
        # generic lattice: permuting y changes the value
        lat = random_lattice(rng, T=3, U=2, K=3)
        a, _, _ = forward_backward(lat, [0, 1])
        b, _, _ = forward_backward(lat, [1, 0])
        assert abs(a - b) > 1e-9
        # lattice symmetric under swapping labels 0 and 1: value is invariant
        sym = lat.log_probs.copy()
        sym[:, :, 1] = sym[:, :, 0]
        sym -= logsumexp(sym, axis=-1)[..., None]
        sym_lat = Lattice(sym)
        a, _, _ = forward_backward(sym_lat, [0, 1])
        b, _, _ = forward_backward(sym_lat, [1, 0])
        assert a == pytest.approx(b, abs=1e-12)


class TestBruteForce:
    def test_single_path_when_no_labels(self, rng):
        lat = random_lattice(rng, T=4, U=0, K=3)
        expected = float(np.sum(lat.log_probs[np.arange(4), 0, 3]))
        assert brute_force_log_prob(lat, []) == pytest.approx(expected, abs=1e-12)

    def test_label_out_of_range(self, rng):
        lat = random_lattice(rng, T=2, U=1, K=2)
        with pytest.raises(LatticeError):
            brute_force_log_prob(lat, [5])

    def test_enumeration_guard(self):
        lat = uniform_lattice(T=20, U=8, K=2)
        with pytest.raises(EnumerationLimitError):
            brute_force_log_prob(lat, [0] * 8)


class TestRnntLoss:
    def test_uniform_case(self):
        lat = uniform_lattice(T=2, U=1, K=2)
        assert rnnt_loss(lat, [0]) == pytest.approx(math.log(27.0 / 2.0), abs=1e-12)

    def test_sure_path_has_zero_loss(self):
        # probability ~1 on the unique path label(0,0) -> blank(0,1) -> blank(1,1)
        lp = np.full((2, 2, 3), -1e4)
        lp[0, 0, 0] = 0.0
        lp[0, 1, 2] = 0.0
        lp[1, 1, 2] = 0.0
        lat = Lattice(lp)
        assert rnnt_loss(lat, [0]) == pytest.approx(0.0, abs=1e-6)

    def test_cross_checked_by_oracle(self):
        rng = np.random.default_rng(77)
        lat = random_lattice(rng, T=3, U=2, K=3)
        y = [2, 0]
        assert rnnt_loss(lat, y) == pytest.approx(
            -brute_force_log_prob(lat, y), abs=1e-9
        )
        assert rnnt_loss(lat, y) >= 0.0


class TestRnntLossGrad:
    def test_off_path_entries_exactly_zero(self, rng):
        lat = random_lattice(rng, T=3, U=2, K=4)
        y = [1, 3]
        grad = rnnt_loss_with_grad(lat, y)[1]
        for t in range(3):
            for u in range(3):
                on_path = {4, y[u]} if u < 2 else {4}
                for k in range(5):
                    if k not in on_path:
                        assert grad[t, u, k] == 0.0

    def test_no_labels_blank_grad_is_minus_one(self, rng):
        lat = random_lattice(rng, T=4, U=0, K=3)
        grad = rnnt_loss_with_grad(lat, [])[1]
        assert np.allclose(grad[:, 0, 3], -1.0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(500 + seed)
        T = int(rng.integers(2, 4))
        U = int(rng.integers(1, 3))
        K = int(rng.integers(2, 4))
        lat = random_lattice(rng, T, U, K)
        y = rng.integers(0, K, size=U)
        grad = rnnt_loss_with_grad(lat, y)[1]
        assert np.all(np.isfinite(grad))

        h = 1e-5
        worst = 0.0
        for t in range(T):
            for u in range(U + 1):
                for k in range(K + 1):
                    if grad[t, u, k] == 0.0:
                        continue
                    lat.log_probs[t, u, k] += h
                    up = rnnt_loss(lat, y)
                    lat.log_probs[t, u, k] -= 2 * h
                    down = rnnt_loss(lat, y)
                    lat.log_probs[t, u, k] += h
                    fd = (up - down) / (2 * h)
                    rel = abs(fd - grad[t, u, k]) / max(abs(fd), 1e-8)
                    worst = max(worst, rel)
        assert worst < 1e-4


class TestPathMass:
    def test_zero_labels_is_blank_path(self, rng):
        lat = random_lattice(rng, T=3, U=3, K=2)
        expected = float(np.exp(np.sum(lat.log_probs[np.arange(3), 0, 2])))
        assert path_mass(lat, 0) == pytest.approx(expected, abs=1e-12)

    def test_monotone_and_bounded(self, rng):
        lat = random_lattice(rng, T=3, U=4, K=2)
        values = [path_mass(lat, m) for m in range(5)]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - 1e-12
        assert values[-1] <= 1.0 + 1e-9

    def test_uniform_value_against_combinatorial_formula(self):
        # independent derivation: sequences of length L contribute
        # K^L * C(T+L-1, L) paths, each with probability (1/(K+1))^(T+L)
        T, K, max_labels = 2, 2, 4
        lat = uniform_lattice(T=T, U=max_labels, K=K)
        expected = sum(
            K**L * math.comb(T + L - 1, L) * (1.0 / (K + 1)) ** (T + L)
            for L in range(max_labels + 1)
        )
        got = path_mass(lat, max_labels)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got <= 1.0 + 1e-9

    def test_guard(self):
        lat = uniform_lattice(T=22, U=4, K=2)
        with pytest.raises(EnumerationLimitError):
            path_mass(lat, 4)


class TestLatticeType:
    def test_validate_accepts_normalized(self, rng):
        validate_lattice(random_lattice(rng, T=2, U=1, K=3))

    def test_validate_rejects_unnormalized(self, rng):
        lat = random_lattice(rng, T=2, U=1, K=3)
        lat.log_probs[0, 0, 0] += 0.5
        with pytest.raises(LatticeError):
            validate_lattice(lat)

    def test_rejects_bad_rank(self):
        with pytest.raises(LatticeShapeError):
            Lattice(np.zeros((2, 3)))
