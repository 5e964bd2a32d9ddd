"""Tiny trainable transducer: windowed feed-forward encoder, recurrent
label predictor, and a joint network producing normalized log posteriors.

All computation runs in double precision; parameters are serialized as
32-bit floats in the checkpoint container.  Forward evaluation is read-only
on parameters; ``train_step`` is the single mutation point.
"""

import hashlib
import io
import json
import math
import struct
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .data import parse_json
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


def param_shapes(vocab_size: int, feat_dim: int, encoder: EncoderConfig) -> list:
    """(name, shape) of each parameter, in the order of the initial random draws."""
    for name, n in [("vocab_size", vocab_size), ("feat_dim", feat_dim)]:
        if type(n) is not int or n < 1:
            raise ModelError(f"{name} must be an integer >= 1, got {n!r}")
    H, K1 = encoder.hidden, vocab_size + 1
    return [
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


class TransducerModel:
    """Parameter container with analytic forward/backward passes.

    Parameters and gradients live in parallel name -> array dicts with
    identical shapes.  The blank label index is ``vocab_size`` (the last
    output); the predictor reuses it as the begin-of-sequence input.
    """

    def __init__(self, vocab_size: int, feat_dim: int, encoder: EncoderConfig, seed: int = 0):
        shapes = param_shapes(vocab_size, feat_dim, encoder)
        self.vocab_size = vocab_size
        self.feat_dim = feat_dim
        self.encoder = encoder
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

    def encoder_pass(self, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Input windows, encoder states and their projection ``enc @ joint_enc.T``."""
        xw, enc = self._encoder_states(x)
        return xw, enc, enc @ self.params["joint_enc"].T

    def predictor_states(self, label_seqs) -> list:
        """(states, inputs) of the predictor over BOS + y for each y, side by side:
        stacked vector-matrix products round as the same products one by one."""
        inputs = [np.concatenate(([self.blank], self._check_labels(y))) for y in label_seqs]
        padded = np.full((len(inputs), max(map(len, inputs), default=0)), self.blank)
        for row, seq in zip(padded, inputs):
            row[: len(seq)] = seq
        states = np.empty(padded.shape + (self.encoder.hidden,))
        h = np.zeros((len(inputs), self.encoder.hidden))
        for u in range(padded.shape[1]):
            h = states[:, u] = self._predictor_step(h, padded[:, u])
        return [(rows[: len(seq)], seq) for rows, seq in zip(states, inputs)]

    def _label_pass(self, enc_proj: np.ndarray, pred: np.ndarray):
        """Lattice log posteriors of projected frames and predictor states, and the joint."""
        p = self.params
        joint = enc_proj[:, None, :] + (pred @ p["joint_pred"].T)[None, :, :]
        joint += p["joint_b"]
        np.tanh(joint, out=joint)
        return _log_softmax(joint @ p["out_w"].T + p["out_b"]), joint

    def forward(self, x, y, encoded=None, predicted=None):
        """Build the output lattice and keep activations for ``backward``; lattices
        may share x's ``encoder_pass`` and y's ``predictor_states`` entry."""
        xw, enc, enc_proj = self.encoder_pass(x) if encoded is None else encoded
        pred, inputs = self.predictor_states([y])[0] if predicted is None else predicted
        log_probs, joint = self._label_pass(enc_proj, pred)
        return Lattice(log_probs), {"xw": xw, "enc": enc, "pred": pred, "inputs": inputs,
                                    "joint": joint, "probs": np.exp(log_probs)}

    def build_lattice(self, x, y) -> Lattice:
        """Normalized log posteriors P(k|t,u) of shape T' x (U+1) x (K+1)."""
        return self.lattices(x, [y])[0]

    def lattices(self, x, label_seqs) -> list:
        """The lattice of each label sequence, from one encoder pass."""
        enc_proj = self.encoder_pass(x)[2]
        return [Lattice(self._label_pass(enc_proj, pred)[0])
                for pred, _ in self.predictor_states(label_seqs)]

    # ----- backward -----

    def backward(self, cache, dloss_dlogp: np.ndarray, queue=None) -> None:
        """Accumulate parameter gradients from a lattice-level gradient.  The
        predictor's share joins ``queue`` for a later ``predictor_backward``,
        which the caller runs; without a queue it runs at once."""
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

        # each denc[t] sums over (u, h) in the order of einsum("tuh,hg->tg")
        denc = np.einsum("rt,rg->tg", da.reshape(T, U1 * H).T, np.tile(p["joint_enc"], (U1, 1)))
        dpred = np.einsum("tuh,hg->ug", da, p["joint_pred"])

        dpre = denc * (1.0 - enc**2)
        g["enc_w"] += dpre.T @ cache["xw"]
        g["enc_b"] += dpre.sum(axis=0)

        if queue is None:
            self.predictor_backward([(dpred, pred, cache["inputs"])])
        else:
            queue.append((dpred, pred, cache["inputs"]))

    def predictor_backward(self, queue) -> None:
        """Run the predictor's share of ``backward`` for the queued lattices side
        by side, and empty ``queue``.  Step j of item i is its step u = U_i - j;
        the sums take the items in order, each from u = U down to 0."""
        if not queue:
            return
        p, g, H = self.params, self.grads, self.encoder.hidden
        lengths = np.array([len(inputs) for _, _, inputs in queue])
        # one padding step past u = 0 holds that step's zero previous state
        dzs, states = (np.zeros((len(queue), lengths.max() + pad, H)) for pad in (0, 1))
        for i, (dpred, pred, _) in enumerate(queue):
            dzs[i, : len(pred)], states[i, : len(pred)] = dpred[::-1], pred[::-1]
        # dzs becomes the predictor pre-activation gradient, step by step
        carry = np.zeros((len(queue), H))
        for row, slope in zip(dzs.transpose(1, 0, 2), 1.0 - states[:, :-1].transpose(1, 0, 2) ** 2):
            row += carry
            row *= slope
            carry = (p["pred_r"].T @ row[:, :, None])[:, :, 0]
        valid = np.arange(dzs.shape[1]) < lengths[:, None]
        dz = dzs[valid]
        inputs = np.concatenate([inputs[::-1] for _, _, inputs in queue])
        # step u adds dz times [1, embed[inputs[u]], pred[u - 1]] to
        # [pred_b | pred_w | pred_r]; one reduction takes the steps in order
        right = np.column_stack((np.ones(len(dz)), p["embed"][inputs], states[:, 1:][valid]))
        terms = np.empty((1 + len(dz), H, 1 + 2 * H))
        terms[0] = np.concatenate((g["pred_b"][:, None], g["pred_w"], g["pred_r"]), axis=1)
        np.multiply(dz[:, :, None], right[:, None, :], out=terms[1:])
        total = np.add.reduce(terms, axis=0)
        g["pred_b"][:], g["pred_w"][:] = total[:, 0], total[:, 1 : H + 1]
        g["pred_r"][:] = total[:, H + 1 :]
        np.add.at(g["embed"], inputs, (p["pred_w"].T @ dz[:, :, None])[:, :, 0])
        queue.clear()

    # ----- incremental evaluation for decoding -----

    def predictor_start(self) -> np.ndarray:
        """The predictor state after BOS: the zero state advanced by blank."""
        return self._predictor_step(np.zeros((1, self.encoder.hidden)), [self.blank])[0]

    def predictor_advance(self, states: np.ndarray, labels) -> np.ndarray:
        """Predictor states (n, H): row i advances state i by label i."""
        return self._predictor_step(states, labels)

    def _predictor_step(self, states: np.ndarray, labels) -> np.ndarray:
        """The one predictor recurrence tanh(embed[y] W_p + h R_p + b_p), row by row;
        the decode entry points above and ``predictor_states`` all take it."""
        p = self.params
        return np.tanh((p["embed"][labels][:, None, :] @ p["pred_w"].T)[:, 0]
                       + (states[:, None, :] @ p["pred_r"].T)[:, 0] + p["pred_b"])

    def joint_log_probs(self, runs, pred_states: np.ndarray) -> np.ndarray:
        """Log posteriors (n, K+1) of runs of projected frames, run i under
        predictor state i, stacked in run order."""
        p = self.params
        proj = (pred_states[:, None, :] @ p["joint_pred"].T)[:, 0]  # once per run
        a = np.tanh(np.concatenate(runs) + np.repeat(proj, list(map(len, runs)), 0) + p["joint_b"])
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
    """Format 2: the magic, the header's length, a JSON header that describes the
    model and holds its ``_digest``, then the payload: every tensor as
    little-endian float32, in ``param_shapes`` order.  A value that is not
    finite as float32 raises ModelError before anything is written, since
    ``load_checkpoint`` rejects it."""
    tensors = []
    for name, _ in param_shapes(model.vocab_size, model.feat_dim, model.encoder):
        with np.errstate(over="ignore"):  # beyond the float32 range casts to inf
            tensors.append(np.ascontiguousarray(model.params[name], dtype="<f4"))
        if not np.isfinite(tensors[-1]).all():
            raise ModelError(f"checkpoint {path}: parameter {name} holds a value "
                             f"that is not finite as float32")
    payload = b"".join(t.tobytes() for t in tensors)
    header = {"format_version": 2, "vocab_size": model.vocab_size, "feat_dim": model.feat_dim,
              "encoder": asdict(model.encoder)}
    header["sha256"] = _digest(header, payload)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    Path(path).write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", len(blob)) + blob + payload)


def _digest(header: dict, payload: bytes) -> str:
    """The sha256 of the header's other keys, as sorted JSON, then the payload: a
    changed value anywhere changes it, and a change of JSON whitespace does not."""
    described = json.dumps({k: v for k, v in header.items() if k != "sha256"}, sort_keys=True)
    return hashlib.sha256(described.encode("utf-8") + payload).hexdigest()


def _read_exact(f, size: int, what: str) -> bytes:
    raw = f.read(size)
    if len(raw) != size:
        raise ModelError(f"{what} holds {len(raw)} of {size} bytes")
    return raw


def _check_header(where: str, header) -> tuple:
    """A format 2 header's vocab size, feature dimension and encoder, checked for
    type and range, and the (name, shape) list of their model's tensors."""
    if not isinstance(header, dict):
        raise ModelError(f"{where} must be a JSON object, not {type(header).__name__}")
    version = header.get("format_version")
    if type(version) is not int or version != 2:  # not True or 2.0, which equal 2
        raise ModelError(f"{where}: unsupported checkpoint version {version!r}")
    missing = [k for k in ("encoder", "vocab_size", "feat_dim", "sha256") if k not in header]
    if missing:
        raise ModelError(f"{where} lacks the keys {missing}")
    dims = (header["vocab_size"], header["feat_dim"])
    enc, want = header["encoder"], {f.name: f.type.__name__ for f in fields(EncoderConfig)}
    if not isinstance(enc, dict) or {k: type(v).__name__ for k, v in enc.items()} != want:
        raise ModelError(f"{where}: encoder must be an object of types {want}, got {enc!r}")
    try:
        encoder = EncoderConfig(**enc)
        return (*dims, encoder, param_shapes(*dims, encoder))
    except ModelError as e:
        raise ModelError(f"{where}: {e}") from None


def load_checkpoint(path) -> TransducerModel:
    """The model saved at ``path``, read once: ``checkpoint_sha256`` hashes the
    bytes parsed.  The header, the payload's length, the sha256 of both and the
    finiteness of every value are checked before the model is built, so no
    header makes it allocate more than the file holds."""
    data = Path(path).read_bytes()
    ckpt = f"checkpoint {path}"
    where = f"{ckpt} header"
    with io.BytesIO(data) as f:
        magic = f.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ModelError(f"{ckpt}: not a checkpoint file (bad magic {magic!r})")
        (hlen,) = struct.unpack("<I", _read_exact(f, 4, f"{ckpt}: header length field"))
        header = parse_json(_read_exact(f, hlen, where), where, ModelError)
        payload = f.read()
    vocab_size, feat_dim, encoder, shapes = _check_header(where, header)
    sizes = [math.prod(shape) for _, shape in shapes]
    if len(payload) != 4 * sum(sizes):
        raise ModelError(f"{ckpt}: payload holds {len(payload)} bytes, "
                         f"not the {4 * sum(sizes)} of its header's model")
    if _digest(header, payload) != header["sha256"]:
        raise ModelError(f"{ckpt}: header and payload do not match the header's sha256")
    values = np.frombuffer(payload, dtype="<f4")
    if not np.isfinite(values).all():  # a model that no input could run
        raise ModelError(f"{ckpt}: payload holds a NaN or infinite value")
    model = TransducerModel(vocab_size, feat_dim, encoder)
    tensors = np.split(values, np.cumsum(sizes)[:-1])
    for (name, shape), tensor in zip(shapes, tensors):
        model.params[name] = tensor.reshape(shape).astype(np.float64)
    model.checkpoint_sha256 = hashlib.sha256(data).hexdigest()
    return model
