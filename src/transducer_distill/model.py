"""Tiny trainable transducer: windowed feed-forward encoder, recurrent
label predictor, and a joint network producing normalized log posteriors.

All computation runs in double precision; parameters are serialized as
32-bit floats in the checkpoint container.  Forward evaluation is read-only
on parameters; ``train_step`` is the single mutation point.
"""

import json
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .lattice import Lattice

CHECKPOINT_MAGIC = b"TDCKPT01"


class ModelError(ValueError):
    pass


class NonFiniteLossError(RuntimeError):
    """Training loss became NaN/inf; carries the offending utterance id."""

    def __init__(self, utt_id, value):
        self.utt_id = utt_id
        self.value = value
        super().__init__(f"non-finite loss {value!r} on utterance {utt_id!r}")


@dataclass(frozen=True)
class EncoderConfig:
    causal: bool
    left_context: int
    right_context: int
    subsample: int
    hidden: int

    def __post_init__(self):
        if self.causal and self.right_context != 0:
            raise ModelError("causal encoder must have right_context = 0")
        if self.left_context < 0 or self.right_context < 0:
            raise ModelError("context sizes must be non-negative")
        if self.subsample < 1:
            raise ModelError("subsample must be >= 1")
        if self.hidden < 1:
            raise ModelError("hidden width must be >= 1")

    @property
    def window(self) -> int:
        return self.left_context + 1 + self.right_context


class TransducerModel:
    """Parameter container with analytic forward/backward passes.

    Parameters and gradients live in parallel name -> array dicts with
    identical shapes.  The blank label index is ``vocab_size`` (the last
    output); the predictor reuses it as the begin-of-sequence input.
    """

    def __init__(self, vocab_size: int, feat_dim: int, encoder: EncoderConfig, seed: int = 0):
        if vocab_size < 1:
            raise ModelError("vocab_size must be >= 1")
        if feat_dim < 1:
            raise ModelError("feat_dim must be >= 1")
        self.vocab_size = vocab_size
        self.feat_dim = feat_dim
        self.encoder = encoder

        H = encoder.hidden
        K1 = vocab_size + 1
        shapes = [
            ("enc_w", (H, encoder.window * feat_dim)),
            ("enc_b", (H,)),
            ("embed", (K1, H)),
            ("pred_w", (H, H)),
            ("pred_r", (H, H)),
            ("pred_b", (H,)),
            ("joint_enc", (H, H)),
            ("joint_pred", (H, H)),
            ("joint_b", (H,)),
            ("out_w", (K1, H)),
            ("out_b", (K1,)),
        ]
        rng = np.random.default_rng(seed)
        self.params = {
            name: rng.uniform(-0.1, 0.1, size=shape) for name, shape in shapes
        }
        self.grads = {name: np.zeros(shape) for name, shape in shapes}

    @property
    def blank(self) -> int:
        return self.vocab_size

    def zero_grad(self) -> None:
        for g in self.grads.values():
            g.fill(0.0)

    # ----- forward -----

    def _windows(self, x: np.ndarray) -> np.ndarray:
        """Gather per-output-frame input windows, zero-padded at the edges.

        Output frame t' anchors at input index (t'+1)*subsample - 1, so a
        causal encoder sees only inputs with index < (t'+1)*subsample.
        """
        cfg = self.encoder
        T = x.shape[0]
        T_out = -(-T // cfg.subsample)
        # row t' of ``index`` holds the input indices of window t', shifted
        # by left_context into ``padded``
        anchors = np.arange(1, T_out + 1) * cfg.subsample - 1
        index = anchors[:, None] + np.arange(cfg.window)
        left = cfg.left_context
        padded = np.zeros((left + T_out * cfg.subsample + cfg.right_context, self.feat_dim))
        padded[left : left + T] = x
        return padded[index].reshape(T_out, cfg.window * self.feat_dim)

    def _encoder_states(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Input windows and encoder states, shape (ceil(T / subsample), hidden)."""
        xw = self._windows(self._check_features(x))
        return xw, np.tanh(xw @ self.params["enc_w"].T + self.params["enc_b"])

    def encode(self, x) -> np.ndarray:
        """Encoder states projected into joint space, each row rounded as ``enc[t] @ joint_enc.T``."""
        _, enc = self._encoder_states(x)
        return (enc[:, None, :] @ self.params["joint_enc"].T)[:, 0]

    def _check_features(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.feat_dim:
            raise ModelError(
                f"features must have shape (T, {self.feat_dim}), got {x.shape}"
            )
        if x.shape[0] < 1:
            raise ModelError("feature sequence is empty")
        if not np.all(np.isfinite(x)):
            raise ModelError("features contain non-finite values")
        return x

    def _check_labels(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=np.int64).reshape(-1)
        if y.size and (y.min() < 0 or y.max() >= self.vocab_size):
            raise ModelError(f"label out of range for vocab {self.vocab_size}")
        return y

    def _predict_states(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Recurrent predictor states for BOS + y; returns (states, inputs)."""
        p = self.params
        inputs = np.concatenate(([self.blank], y))
        # a stack of vector-matrix products is computed as the same products
        # one by one, so the states match a per-label loop bit for bit
        states = (p["embed"][inputs][:, None, :] @ p["pred_w"].T)[:, 0]
        h = np.zeros(self.encoder.hidden)
        for row in states:
            row += h @ p["pred_r"].T
            row += p["pred_b"]
            h = np.tanh(row, out=row)
        return states, inputs

    def _label_pass(self, enc_proj: np.ndarray, y):
        """Lattice log posteriors of ``y`` over projected frames, and their activations."""
        y = self._check_labels(y)
        p = self.params
        pred, inputs = self._predict_states(y)
        joint = enc_proj[:, None, :] + (pred @ p["joint_pred"].T)[None, :, :]
        joint += p["joint_b"]
        np.tanh(joint, out=joint)
        log_probs = _log_softmax(joint @ p["out_w"].T + p["out_b"])
        return log_probs, {"pred": pred, "inputs": inputs, "joint": joint}

    def forward(self, x, y):
        """Build the output lattice and keep activations for ``backward``."""
        xw, enc = self._encoder_states(x)
        log_probs, cache = self._label_pass(enc @ self.params["joint_enc"].T, y)
        cache.update(xw=xw, enc=enc, probs=np.exp(log_probs))
        return Lattice(log_probs), cache

    def build_lattice(self, x, y) -> Lattice:
        """Normalized log posteriors P(k|t,u) of shape T' x (U+1) x (K+1)."""
        return self.forward(x, y)[0]

    def lattices(self, x, label_seqs) -> list:
        """``build_lattice`` of each label sequence, from one encoder pass."""
        enc_proj = self._encoder_states(x)[1] @ self.params["joint_enc"].T
        return [Lattice(self._label_pass(enc_proj, y)[0]) for y in label_seqs]

    # ----- backward -----

    def backward(self, cache, dloss_dlogp: np.ndarray) -> None:
        """Accumulate parameter gradients from a lattice-level gradient."""
        p, g = self.params, self.grads
        enc, pred, joint = cache["enc"], cache["pred"], cache["joint"]

        # through log-softmax
        dz = dloss_dlogp - cache["probs"] * dloss_dlogp.sum(axis=-1, keepdims=True)
        g["out_w"] += np.einsum("tuk,tuh->kh", dz, joint)
        g["out_b"] += dz.sum(axis=(0, 1))

        da = (dz @ p["out_w"]) * (1.0 - joint**2)
        # row (t, u) of the joint gradient meets enc[t] and pred[u]; one einsum
        # over the rows sums both projections' terms in (t, u) order
        T, U1, H = da.shape
        pairs = np.empty((T, U1, 2 * H))
        pairs[:, :, :H] = enc[:, None, :]
        pairs[:, :, H:] = pred
        d_proj = np.einsum("rh,rg->hg", da.reshape(T * U1, H), pairs.reshape(T * U1, 2 * H))
        g["joint_enc"] += d_proj[:, :H]
        g["joint_pred"] += d_proj[:, H:]
        g["joint_b"] += da.sum(axis=(0, 1))

        denc = np.einsum("tuh,hg->tg", da, p["joint_enc"])
        dpred = np.einsum("tuh,hg->ug", da, p["joint_pred"])

        dpre = denc * (1.0 - enc**2)
        g["enc_w"] += dpre.T @ cache["xw"]
        g["enc_b"] += dpre.sum(axis=0)

        inputs = cache["inputs"]
        # dpred becomes the predictor pre-activation gradient, row by row
        dzs = dpred
        carry = np.zeros(H)
        for row, slope in zip(dzs[::-1], 1.0 - pred[::-1] ** 2):
            row += carry
            row *= slope
            carry = p["pred_r"].T @ row
        # step u adds dzs[u] times [1, embed[inputs[u]], pred[u - 1]] to
        # [pred_b | pred_w | pred_r]; one reduction takes the steps in the
        # order u = U..0 of a per-step update, so the sums match it bit for bit
        right = np.zeros((U1, 1 + 2 * H))
        right[:, 0], right[:, 1 : H + 1], right[1:, H + 1 :] = 1.0, p["embed"][inputs], pred[:-1]
        acc = np.concatenate((g["pred_b"][:, None], g["pred_w"], g["pred_r"]), axis=1)
        terms = np.concatenate((acc[None], dzs[::-1, :, None] * right[::-1, None, :]))
        total = np.add.reduce(terms, axis=0)
        g["pred_b"][:] = total[:, 0]
        g["pred_w"][:], g["pred_r"][:] = total[:, 1 : H + 1], total[:, H + 1 :]
        np.add.at(g["embed"], inputs[::-1], (p["pred_w"].T @ dzs[:, :, None])[::-1, :, 0])

    # ----- incremental evaluation for decoding -----

    def predictor_start(self) -> np.ndarray:
        p = self.params
        return np.tanh(p["embed"][self.blank] @ p["pred_w"].T + p["pred_b"])

    def predictor_advance(self, state: np.ndarray, label: int) -> np.ndarray:
        p = self.params
        return np.tanh(
            p["embed"][label] @ p["pred_w"].T + state @ p["pred_r"].T + p["pred_b"]
        )

    def joint_log_probs(self, frames: np.ndarray, pred_state: np.ndarray) -> np.ndarray:
        """Log posteriors (n, K+1) of n projected frames under one predictor state."""
        p = self.params
        a = np.tanh(frames + pred_state @ p["joint_pred"].T + p["joint_b"])
        return _log_softmax((a[:, None, :] @ p["out_w"].T)[:, 0] + p["out_b"])


def _log_softmax(z: np.ndarray) -> np.ndarray:
    m = z.max(axis=-1, keepdims=True)
    return z - (np.log(np.exp(z - m).sum(axis=-1, keepdims=True)) + m)


class SGD:
    """Plain SGD with momentum and a fixed step size."""

    def __init__(self, lr: float, momentum: float = 0.9):
        self.lr = lr
        self.momentum = momentum
        self._velocity: dict[str, np.ndarray] = {}

    def step(self, model: TransducerModel) -> None:
        for name, grad in model.grads.items():
            v = self._velocity.get(name)
            if v is None:
                v = np.zeros_like(grad)
                self._velocity[name] = v
            v *= self.momentum
            v += grad
            model.params[name] -= self.lr * v


def train_step(model: TransducerModel, batch, loss_fn, optimizer) -> tuple[float, dict]:
    """One optimization step; returns the pre-update loss and its term breakdown.

    ``loss_fn(model, batch) -> (loss, terms)`` must accumulate lattice-level
    gradients into ``model.grads`` (the model routes them through the joint,
    predictor, and encoder analytically).
    """
    model.zero_grad()
    loss, terms = loss_fn(model, batch)
    if not np.isfinite(loss):
        raise NonFiniteLossError("<batch>", loss)
    optimizer.step(model)
    return float(loss), terms


# ----- checkpoint container -----


def save_checkpoint(model: TransducerModel, path) -> None:
    """Versioned binary container: header magic, JSON metadata, then named
    parameter tensors as little-endian float32 in header order."""
    names = sorted(model.params)
    header = {
        "format_version": 1,
        "vocab_size": model.vocab_size,
        "feat_dim": model.feat_dim,
        "encoder": asdict(model.encoder),
        "params": [
            {"name": n, "shape": list(model.params[n].shape)} for n in names
        ],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        for n in names:
            f.write(np.ascontiguousarray(model.params[n], dtype="<f4").tobytes())


def _read_exact(f, size: int, what: str) -> bytes:
    raw = f.read(size)
    if len(raw) != size:
        raise ModelError(f"checkpoint {what} holds {len(raw)} of {size} bytes")
    return raw


def load_checkpoint(path) -> TransducerModel:
    with open(path, "rb") as f:
        magic = f.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ModelError(f"not a checkpoint file (bad magic {magic!r})")
        (hlen,) = struct.unpack("<I", _read_exact(f, 4, "header length field"))
        header = json.loads(_read_exact(f, hlen, "header").decode("utf-8"))
        if header.get("format_version") != 1:
            raise ModelError(f"unsupported checkpoint version {header.get('format_version')}")
        missing = [k for k in ("encoder", "vocab_size", "feat_dim", "params") if k not in header]
        if missing:
            raise ModelError(f"checkpoint header lacks the keys {missing}")
        encoder = EncoderConfig(**header["encoder"])
        model = TransducerModel(header["vocab_size"], header["feat_dim"], encoder)
        for entry in header["params"]:
            missing = [k for k in ("name", "shape") if k not in entry]
            if missing:
                raise ModelError(f"checkpoint params entry {entry} lacks the keys {missing}")
            shape = tuple(entry["shape"])
            count = int(np.prod(shape)) if shape else 1
            raw = _read_exact(f, count * 4, f"tensor {entry['name']!r}")
            arr = np.frombuffer(raw, dtype="<f4").reshape(shape)
            model.params[entry["name"]] = arr.astype(np.float64)
        trailing = len(f.read())
        if trailing:
            raise ModelError(f"checkpoint has {trailing} trailing bytes after the last tensor")
        model.zero_grad()
    return model
