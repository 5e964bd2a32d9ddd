import json
import struct

import numpy as np
import pytest

from transducer_distill.lattice import Lattice
from transducer_distill.model import CHECKPOINT_MAGIC, _digest


def random_lattice(rng: np.random.Generator, T: int, U: int, K: int) -> Lattice:
    """Random normalized lattice of shape T x (U+1) x (K+1)."""
    logits = rng.normal(size=(T, U + 1, K + 1))
    logp = logits - np.log(np.sum(np.exp(logits), axis=-1, keepdims=True))
    return Lattice(logp)


def uniform_lattice(T: int, U: int, K: int) -> Lattice:
    return Lattice(np.full((T, U + 1, K + 1), -np.log(K + 1)))


def replace_header(data: bytes, blob: bytes) -> bytes:
    """A checkpoint's bytes with the header bytes ``blob`` in place of its own."""
    start = len(CHECKPOINT_MAGIC) + 4
    (hlen,) = struct.unpack("<I", data[len(CHECKPOINT_MAGIC):start])
    return data[:len(CHECKPOINT_MAGIC)] + struct.pack("<I", len(blob)) + blob + data[start + hlen:]


def rewrite_header(data: bytes, edit) -> bytes:
    """A checkpoint's bytes with ``edit`` applied to its parsed JSON header."""
    start = len(CHECKPOINT_MAGIC) + 4
    (hlen,) = struct.unpack("<I", data[len(CHECKPOINT_MAGIC):start])
    header = json.loads(data[start:start + hlen])
    edit(header)
    return replace_header(data, json.dumps(header).encode("utf-8"))


def set_payload_value(data: bytes, index: int, value: float) -> bytes:
    """A checkpoint's bytes with its ``index``-th float32 set to ``value`` and
    the header's sha256 recomputed, so that the file passes every byte check."""
    start = len(CHECKPOINT_MAGIC) + 4
    (hlen,) = struct.unpack("<I", data[len(CHECKPOINT_MAGIC):start])
    header, payload = json.loads(data[start:start + hlen]), bytearray(data[start + hlen:])
    payload[4 * index:4 * index + 4] = struct.pack("<f", value)
    header["sha256"] = _digest(header, bytes(payload))
    return replace_header(data[:start + hlen] + payload, json.dumps(header).encode("utf-8"))


@pytest.fixture
def rng():
    return np.random.default_rng(20240)
