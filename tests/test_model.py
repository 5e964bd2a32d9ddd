import json
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from transducer_distill.lattice import LatticeError, logsumexp, rnnt_loss, rnnt_loss_with_grad
from transducer_distill.model import (
    CHECKPOINT_MAGIC,
    SGD,
    EncoderConfig,
    ModelError,
    TransducerModel,
    load_checkpoint,
    save_checkpoint,
    train_step,
)

from conftest import rewrite_header, set_payload_value
from oracles import validate_lattice


def micro_model(causal=True, subsample=1, hidden=3, vocab=3, feat=2, seed=1):
    cfg = EncoderConfig(
        causal=causal,
        left_context=1,
        right_context=0 if causal else 1,
        subsample=subsample,
        hidden=hidden,
    )
    return TransducerModel(vocab_size=vocab, feat_dim=feat, encoder=cfg, seed=seed)


def supervised_loss_fn(model, batch):
    total = 0.0
    for x, y in batch:
        lat, cache = model.forward(x, y)
        loss, g = rnnt_loss_with_grad(lat, y)
        model.backward(cache, g)
        total += loss
    return total / len(batch), {"rnnt": total / len(batch)}


def reference_forward(model, x, y):
    """The loop form of ``TransducerModel.forward``: the predictor takes one
    vector-matrix product per label."""
    p = model.params
    xw = model._windows(np.asarray(x, dtype=np.float64))
    enc = np.tanh(xw @ p["enc_w"].T + p["enc_b"])
    inputs = np.concatenate(([model.blank], np.asarray(y, dtype=np.int64)))
    pred = np.zeros((len(inputs), model.encoder.hidden))
    h = np.zeros(model.encoder.hidden)
    for u, idx in enumerate(inputs):
        h = np.tanh(p["embed"][idx] @ p["pred_w"].T + h @ p["pred_r"].T + p["pred_b"])
        pred[u] = h
    joint = np.tanh(
        (enc @ p["joint_enc"].T)[:, None, :]
        + (pred @ p["joint_pred"].T)[None, :, :]
        + p["joint_b"]
    )
    logits = joint @ p["out_w"].T + p["out_b"]
    m = logits.max(axis=-1, keepdims=True)
    log_probs = logits - (np.log(np.sum(np.exp(logits - m), axis=-1, keepdims=True)) + m)
    cache = {"xw": xw, "enc": enc, "pred": pred, "inputs": inputs, "joint": joint,
             "probs": np.exp(log_probs)}
    return log_probs, cache


def reference_backward(model, cache, dloss_dlogp, grads):
    """The per-step form of ``TransducerModel.backward``: one einsum per
    joint projection, and the predictor weights update at every label.
    Accumulates into a copy of ``grads`` and returns it."""
    p = model.params
    g = {name: v.copy() for name, v in grads.items()}
    enc, pred, joint = cache["enc"], cache["pred"], cache["joint"]
    dz = dloss_dlogp - cache["probs"] * dloss_dlogp.sum(axis=-1, keepdims=True)
    g["out_w"] += np.einsum("tuk,tuh->kh", dz, joint)
    g["out_b"] += dz.sum(axis=(0, 1))
    da = (dz @ p["out_w"]) * (1.0 - joint**2)
    g["joint_enc"] += np.einsum("tuh,tg->hg", da, enc)
    g["joint_pred"] += np.einsum("tuh,ug->hg", da, pred)
    g["joint_b"] += da.sum(axis=(0, 1))
    denc = np.einsum("tuh,hg->tg", da, p["joint_enc"])
    dpred = np.einsum("tuh,hg->ug", da, p["joint_pred"])
    dpre = denc * (1.0 - enc**2)
    g["enc_w"] += dpre.T @ cache["xw"]
    g["enc_b"] += dpre.sum(axis=0)
    inputs = cache["inputs"]
    carry = np.zeros(model.encoder.hidden)
    for u in range(len(inputs) - 1, -1, -1):
        dzu = (dpred[u] + carry) * (1.0 - pred[u] ** 2)
        g["pred_b"] += dzu
        g["pred_w"] += np.outer(dzu, p["embed"][inputs[u]])
        h_prev = pred[u - 1] if u > 0 else np.zeros_like(pred[0])
        g["pred_r"] += np.outer(dzu, h_prev)
        g["embed"][inputs[u]] += p["pred_w"].T @ dzu
        carry = p["pred_r"].T @ dzu
    return g


def assert_rel_close(got, want, rel=1e-12):
    """``got`` equals ``want`` to ``rel`` of the largest magnitude in ``want``."""
    scale = max(float(np.max(np.abs(want), initial=0.0)), 1e-300)
    assert float(np.max(np.abs(got - want), initial=0.0)) <= rel * scale


class TestEncoderConfig:
    def test_causal_requires_no_right_context(self):
        with pytest.raises(ModelError):
            EncoderConfig(causal=True, left_context=2, right_context=1, subsample=1, hidden=4)

    def test_subsample_positive(self):
        with pytest.raises(ModelError):
            EncoderConfig(causal=True, left_context=0, right_context=0, subsample=0, hidden=4)


class TestEncode:
    def test_output_length_no_subsampling(self, rng):
        m = micro_model(subsample=1)
        assert m.encode(rng.normal(size=(5, 2))).shape == (5, m.encoder.hidden)

    def test_output_length_subsample_two(self, rng):
        m = micro_model(subsample=2)
        assert m.encode(rng.normal(size=(5, 2))).shape == (3, m.encoder.hidden)

    @pytest.mark.parametrize("subsample", [1, 2, 3])
    def test_causal_perturbation(self, rng, subsample):
        m = micro_model(causal=True, subsample=subsample, hidden=4)
        x = rng.normal(size=(9, 2))
        base = m.encode(x)
        for t in range(9):
            pert = x.copy()
            pert[t] += 1.0
            out = m.encode(pert)
            unaffected = t // subsample
            assert np.array_equal(out[:unaffected], base[:unaffected])
            # the frame that covers t must actually change
            anchored = [
                to for to in range(base.shape[0])
                if (to + 1) * subsample - 1 - m.encoder.left_context <= t <= (to + 1) * subsample - 1
            ]
            for to in anchored:
                assert not np.array_equal(out[to], base[to])

    @pytest.mark.parametrize("causal", [True, False])
    @pytest.mark.parametrize("subsample", [1, 2, 3])
    def test_windows_equal_loop_gather(self, rng, causal, subsample):
        for left, right, T in [(0, 0, 1), (1, 0, 4), (2, 2, 5), (3, 1, 7), (1, 3, 2)]:
            right = 0 if causal else right
            cfg = EncoderConfig(causal, left, right, subsample, hidden=3)
            m = TransducerModel(vocab_size=3, feat_dim=2, encoder=cfg)
            x = rng.normal(size=(T, 2))
            T_out = -(-T // subsample)
            expected = np.zeros((T_out, cfg.window, 2))
            for t_out in range(T_out):
                anchor = (t_out + 1) * subsample - 1
                for j, t_in in enumerate(range(anchor - left, anchor + right + 1)):
                    if 0 <= t_in < T:
                        expected[t_out, j] = x[t_in]
            assert m._windows(x).tobytes() == expected.reshape(T_out, -1).tobytes()

    def test_dimension_mismatch(self, rng):
        m = micro_model()
        with pytest.raises(ModelError):
            m.encode(rng.normal(size=(5, 7)))

    def test_non_finite_features_rejected(self):
        m = micro_model()
        x = np.zeros((3, 2))
        x[1, 0] = np.inf
        with pytest.raises(ModelError):
            m.encode(x)


class TestBuildLattice:
    def test_nodes_are_normalized(self, rng):
        m = micro_model(hidden=5)
        lat = m.build_lattice(rng.normal(size=(4, 2)), [0, 2])
        validate_lattice(lat, atol=1e-6)
        norms = logsumexp(lat.log_probs, axis=-1)
        assert np.max(np.abs(norms)) < 1e-10

    def test_empty_label_sequence(self, rng):
        m = micro_model()
        lat = m.build_lattice(rng.normal(size=(3, 2)), [])
        assert lat.log_probs.shape == (3, 1, 4)

    @pytest.mark.parametrize("label", [3, -1])
    def test_label_outside_vocab_rejected(self, rng, label):
        # the lattice's label check: K = 3 labels take the indices 0 to 2
        with pytest.raises(LatticeError, match="label out of range for vocab of size 3"):
            micro_model(vocab=3).forward(rng.normal(size=(3, 2)), [0, label])

    def test_deterministic(self, rng):
        m = micro_model()
        x = rng.normal(size=(4, 2))
        a = m.build_lattice(x, [1]).log_probs
        b = m.build_lattice(x, [1]).log_probs
        assert np.array_equal(a, b)

    def test_subsampled_shape(self, rng):
        m = micro_model(subsample=2)
        lat = m.build_lattice(rng.normal(size=(5, 2)), [0])
        assert lat.log_probs.shape == (3, 2, 4)


class TestBackward:
    def test_whole_model_gradient_matches_finite_differences(self, rng):
        m = micro_model(causal=True, hidden=3, vocab=3, feat=2, seed=11)
        x = rng.normal(size=(3, 2))
        y = [1, 2]
        lat, cache = m.forward(x, y)
        _, g_lat = rnnt_loss_with_grad(lat, y)
        m.zero_grad()
        m.backward(cache, g_lat)

        h = 1e-6
        worst = 0.0
        for name, p in m.params.items():
            flat = p.reshape(-1)
            gflat = m.grads[name].reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = rnnt_loss(m.build_lattice(x, y), y)
                flat[i] = orig - h
                down = rnnt_loss(m.build_lattice(x, y), y)
                flat[i] = orig
                fd = (up - down) / (2 * h)
                denom = max(abs(fd), abs(gflat[i]), 1e-8)
                worst = max(worst, abs(fd - gflat[i]) / denom)
        assert worst < 1e-3

    # (causal, subsample, T, labels): repeated labels take the np.add.at
    # path, [] is U = 0, T = 1 a single frame. The kernels form the
    # reference's products and add them in its order; the 1e-12 bound
    # leaves room for a BLAS that rounds a stack of vector-matrix products
    # differently from the same products one at a time.
    REFERENCE_CASES = [
        (True, 1, 6, [0, 2, 1]),
        (True, 1, 5, [1, 1, 1, 0]),
        (False, 1, 4, []),
        (False, 1, 1, [2, 2]),
        (True, 2, 7, [0, 0, 2]),
        (False, 2, 5, [1]),
        (True, 3, 1, []),
    ]

    @pytest.mark.parametrize("causal, subsample, T, y", REFERENCE_CASES)
    def test_forward_and_backward_match_reference(self, causal, subsample, T, y):
        for seed in range(5):
            rng = np.random.default_rng(300 + seed)
            m = micro_model(causal=causal, subsample=subsample, hidden=5, vocab=3,
                            feat=2, seed=seed)
            # trained-size weights, so the tanh units are not all linear
            for v in m.params.values():
                v *= 10.0
            x = rng.normal(size=(T, 2))
            lat, cache = m.forward(x, y)
            want_lp, want_cache = reference_forward(m, x, y)
            assert_rel_close(lat.log_probs, want_lp)
            for key in ("enc", "pred", "joint", "probs"):
                assert_rel_close(cache[key], want_cache[key])
            assert np.array_equal(cache["inputs"], want_cache["inputs"])

            # accumulate onto nonzero gradients, as a batch does
            for g in m.grads.values():
                g[...] = rng.normal(size=g.shape)
            dlogp = rng.normal(size=lat.log_probs.shape)
            want = reference_backward(m, cache, dlogp, m.grads)
            m.backward(cache, dlogp)
            for name in m.params:
                assert_rel_close(m.grads[name], want[name])

    def test_predictor_states_equal_decode_steps(self, rng):
        """Training's predictor states are the decoder's start and advance
        states, bit for bit, for sequences of lengths 0 to 7 side by side."""
        m = micro_model(hidden=16, vocab=6, seed=3)
        for v in m.params.values():
            v *= 10.0
        seqs = [list(rng.integers(0, 6, size=n)) for n in rng.integers(0, 8, size=30)]
        for (states, inputs), y in zip(m.predictor_states(seqs), seqs):
            stepped = [m.predictor_start()]
            for k in y:
                stepped.append(m.predictor_advance(stepped[-1][None, :], [k])[0])
            assert np.array_equal(inputs, [m.blank, *y])
            assert states.tobytes() == np.array(stepped).tobytes()

    def test_gradient_buffers_match_param_shapes(self):
        m = micro_model()
        assert set(m.params) == set(m.grads)
        for name in m.params:
            assert m.params[name].shape == m.grads[name].shape


class TestTrainStep:
    def test_zero_gradient_leaves_parameters_unchanged(self, rng):
        m = micro_model()
        before = {k: v.copy() for k, v in m.params.items()}

        def zero_loss(model, batch):
            return 0.5, {}

        train_step(m, [], zero_loss, SGD(lr=0.5, momentum=0.9))
        for name in before:
            assert np.array_equal(m.params[name], before[name])

    def test_overfits_single_utterance(self, rng):
        cfg = EncoderConfig(causal=False, left_context=1, right_context=1, subsample=1, hidden=16)
        m = TransducerModel(vocab_size=4, feat_dim=4, encoder=cfg, seed=3)
        x = rng.normal(size=(6, 4))
        y = [0, 2, 1]
        opt = SGD(lr=0.1, momentum=0.9)
        loss = None
        for _ in range(200):
            loss, _ = train_step(m, [(x, y)], supervised_loss_fn, opt)
        assert loss < 0.1

    def test_momentum_carries_the_first_gradient_into_the_second_step(self):
        m = micro_model()
        before = m.params["out_b"].copy()
        lr, momentum = 0.5, 0.9
        g1, g2 = np.arange(1.0, 1.0 + m.vocab_size + 1), np.full(m.vocab_size + 1, -0.25)
        opt = SGD(lr=lr, momentum=momentum)
        for g in (g1, g2):
            m.zero_grad()
            m.grads["out_b"][:] = g
            opt.step(m)
        # the velocity after step 2 is momentum * g1 + g2
        assert np.array_equal(m.params["out_b"], before - lr * g1 - lr * (momentum * g1 + g2))
        assert np.allclose(before - m.params["out_b"], lr * (g1 + g2 + momentum * g1))

    def test_training_is_reproducible(self, rng):
        x = rng.normal(size=(5, 2))
        y = [0, 1]

        def run():
            m = micro_model(hidden=4, seed=9)
            opt = SGD(lr=0.05, momentum=0.9)
            for _ in range(20):
                train_step(m, [(x, y)], supervised_loss_fn, opt)
            return {k: v.copy() for k, v in m.params.items()}

        a, b = run(), run()
        for name in a:
            assert np.array_equal(a[name], b[name])


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        m = micro_model(hidden=5, seed=42)
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(m, p1)
        loaded = load_checkpoint(p1)
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert loaded.encoder == m.encoder
        assert loaded.vocab_size == m.vocab_size

    def test_loaded_model_evaluates_close_to_original(self, tmp_path, rng):
        m = micro_model(hidden=5, seed=42)
        save_checkpoint(m, tmp_path / "m.ckpt")
        loaded = load_checkpoint(tmp_path / "m.ckpt")
        x = rng.normal(size=(4, 2))
        a = m.build_lattice(x, [1]).log_probs
        b = loaded.build_lattice(x, [1]).log_probs
        # parameters pass through float32 storage
        assert np.allclose(a, b, atol=1e-5)

    def test_bad_magic_rejected(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"NOTACKPT" + b"\x00" * 16)
        with pytest.raises(ModelError):
            load_checkpoint(bad)

    def _saved(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(micro_model(hidden=5, seed=42), path)
        return path, path.read_bytes()

    # the micro model's 179 float32 parameters
    PAYLOAD = 716

    def test_truncated_payload_rejected(self, tmp_path):
        path, data = self._saved(tmp_path)
        path.write_bytes(data[:-3])
        with pytest.raises(ModelError, match=f"payload holds {self.PAYLOAD - 3} bytes, "
                                             f"not the {self.PAYLOAD} of its header's model"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path, data = self._saved(tmp_path)
        path.write_bytes(data + b"\x00\x01")
        with pytest.raises(ModelError, match=f"payload holds {self.PAYLOAD + 2} bytes, "
                                             f"not the {self.PAYLOAD} of its header's model"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["encoder", "vocab_size", "feat_dim", "sha256"])
    def test_header_missing_key_rejected(self, tmp_path, key):
        path, data = self._saved(tmp_path)
        path.write_bytes(rewrite_header(data, lambda header: header.pop(key)))
        with pytest.raises(ModelError, match=f"header lacks the keys \\['{key}'\\]"):
            load_checkpoint(path)

    @pytest.mark.parametrize("index", [0, 100, 178])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_value_rejected(self, tmp_path, index, value):
        path, data = self._saved(tmp_path)
        path.write_bytes(set_payload_value(data, index, value))
        with pytest.raises(ModelError, match=re.escape(
                f"checkpoint {path}: payload holds a NaN or infinite value")):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [1e39, -1e39, float("nan"), float("inf")])
    def test_value_not_finite_as_float32_refused_before_writing(self, tmp_path, value):
        m = micro_model(hidden=5, seed=42)
        m.params["out_b"][0] = value
        path = tmp_path / "m.ckpt"
        with pytest.raises(ModelError, match=re.escape(
                f"checkpoint {path}: parameter out_b holds a value that is not finite as float32")):
            save_checkpoint(m, path)
        assert not path.exists()

    def test_finite_value_with_its_sha256_loads(self, tmp_path):
        """The edit above passes every other check: with a finite value, it loads."""
        path, data = self._saved(tmp_path)
        path.write_bytes(set_payload_value(data, 0, 0.5))
        assert load_checkpoint(path).params["enc_w"][0, 0] == 0.5  # the payload's first value

    def test_large_claim_rejected_before_the_model_is_built(self, tmp_path):
        """A model of the claimed vocab holds 17.6 MB of parameters and gradients."""
        path, data = self._saved(tmp_path)
        path.write_bytes(rewrite_header(data, lambda header: header.update(vocab_size=100_000)))
        tracemalloc.start()
        try:
            with pytest.raises(ModelError, match=f"payload holds {self.PAYLOAD} bytes, "
                                                 "not the 4400584 of its header's model"):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000, peak

    @staticmethod
    def same_header_values(saved: bytes, damaged: bytes) -> bool:
        """Whether ``damaged`` differs from ``saved`` only inside the header, which
        still parses to the same JSON value."""
        start = len(CHECKPOINT_MAGIC) + 4
        end = start + struct.unpack("<I", saved[len(CHECKPOINT_MAGIC):start])[0]
        if damaged[:start] != saved[:start] or damaged[end:] != saved[end:]:
            return False
        try:
            return json.loads(damaged[start:end].decode("utf-8")) == json.loads(saved[start:end])
        except ValueError:
            return False

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(damage=st.sampled_from(["truncate", "append", "flip"]), at=st.integers(0, 10_000),
           mask=st.integers(1, 255), tail=st.binary(min_size=1, max_size=8))
    # the space after '"encoder":' becomes a tab; subsample 1 becomes 2, tensors unchanged
    @example(damage="flip", at=23, mask=0x29, tail=b"\x00")
    @example(damage="flip", at=106, mask=0x03, tail=b"\x00")
    def test_damaged_file_rejected_unless_its_values_are_kept(self, tmp_path, damage, at, mask,
                                                              tail):
        """Truncated at any offset, extended, or with any one byte flipped, a
        checkpoint fails to load with an error that names it; only a header flip
        that keeps every JSON value (a whitespace byte) loads, and loads the same."""
        path, saved = self._saved(tmp_path)
        original = load_checkpoint(path)
        at %= len(saved)
        damaged = {"truncate": saved[:at], "append": saved + tail,
                   "flip": saved[:at] + bytes([saved[at] ^ mask]) + saved[at + 1:]}[damage]
        path.write_bytes(damaged)
        if damage == "flip" and self.same_header_values(saved, damaged):
            loaded = load_checkpoint(path)
            assert all(np.array_equal(loaded.params[k], v) for k, v in original.params.items())
        else:
            with pytest.raises(ModelError, match=re.escape(f"checkpoint {path}")):
                load_checkpoint(path)

    def test_short_header_rejected(self, tmp_path):
        path, data = self._saved(tmp_path)
        path.write_bytes(data[:10])
        with pytest.raises(ModelError, match="length field holds 2 of 4 bytes"):
            load_checkpoint(path)
        path.write_bytes(data[:20])
        with pytest.raises(ModelError, match=r"header holds 8 of \d+ bytes"):
            load_checkpoint(path)
