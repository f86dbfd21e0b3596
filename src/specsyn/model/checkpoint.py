"""Binary checkpoint format.

Layout, all integers little-endian u32:
    magic "SPSY" | version | vocab count | (token byte length, utf-8 bytes)*
    tensor count | (name length, name, ndim, dims*, row-major float64 data)*

Tensors are written in sorted name order so identical models serialize to
identical bytes. The attention head count travels as the extra tensor
"meta/num_heads", which must hold a whole number; every other
configuration value is recovered from shapes, and every tensor's name and
shape must match the parameters of that configuration.
"""

import struct

import numpy as np

from ..files import write_output
from .network import Model, ModelConfig, ModelError, param_shapes
from .vocab import Vocab

MAGIC = b"SPSY"
VERSION = 1


class CheckpointError(ModelError):
    """Unreadable or incompatible checkpoint file."""


def _u32(value: int) -> bytes:
    return struct.pack("<I", value)


def _str(text: str) -> bytes:
    data = text.encode("utf-8")
    return _u32(len(data)) + data


def save_checkpoint(model: Model, path) -> None:
    tensors = dict(model.params)
    tensors["meta/num_heads"] = np.asarray(float(model.config.heads))
    parts = [MAGIC, _u32(VERSION), _u32(len(model.vocab))]
    parts += map(_str, model.vocab.tokens)
    parts.append(_u32(len(tensors)))
    for name in sorted(tensors):
        tensor = np.ascontiguousarray(tensors[name], dtype="<f8")
        parts += [_str(name), _u32(tensor.ndim), *map(_u32, tensor.shape), tensor.tobytes()]
    write_output(path, b"".join(parts))


class _Reader:
    def __init__(self, stream):
        self._stream = stream

    def bytes(self, n: int) -> bytes:
        data = self._stream.read(n)
        if len(data) != n:
            raise CheckpointError("truncated checkpoint")
        return data

    def u32(self) -> int:
        return struct.unpack("<I", self.bytes(4))[0]

    def str(self) -> str:
        data = self.bytes(self.u32())
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError("corrupt string in checkpoint") from exc


def _meta_int(tensors: dict[str, np.ndarray], name: str) -> int:
    value = float(tensors.pop(name).reshape(-1)[0])
    if not value.is_integer():  # also rejects NaN and the infinities
        raise CheckpointError(f"checkpoint {name} is {value}, expected a whole number")
    return int(value)


def load_checkpoint(path) -> Model:
    with open(path, "rb") as stream:
        reader = _Reader(stream)
        if reader.bytes(4) != MAGIC:
            raise CheckpointError("not a specsyn checkpoint (bad magic)")
        version = reader.u32()
        if version != VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        vocab = Vocab(reader.str() for _ in range(reader.u32()))
        tensors: dict[str, np.ndarray] = {}
        for _ in range(reader.u32()):
            name = reader.str()
            shape = tuple(reader.u32() for _ in range(reader.u32()))
            count = int(np.prod(shape, dtype=np.int64)) if shape else 1
            data = np.frombuffer(reader.bytes(count * 8), dtype="<f8")
            tensors[name] = data.reshape(shape).copy()

    try:
        config = ModelConfig(
            d_model=tensors["pool/w1"].shape[0],
            blocks=sum(1 for n in tensors if n.endswith("/attn/wq")),
            heads=_meta_int(tensors, "meta/num_heads"),
            max_len=tensors["embed/positions"].shape[0],
        )
        expected = param_shapes(config, len(vocab))
        for name in sorted(expected.keys() | tensors.keys()):
            got = tensors[name].shape if name in tensors else "absent"
            want = expected.get(name, "absent")
            if got != want:
                raise CheckpointError(f"checkpoint tensor {name}: shape {got}, expected {want}")
        return Model(config, vocab, tensors)
    except (KeyError, IndexError) as exc:
        raise CheckpointError(f"checkpoint is missing tensor data: {exc}") from exc
