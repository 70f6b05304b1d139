"""Binary checkpoint serialization for sentence encoders.

Layout (all integers little-endian):

    magic    5 bytes  b"XDST1"
    version  u32      currently 1
    cfg_len  u64      length of the config JSON blob
    cfg      bytes    canonical JSON (sorted keys) of EncoderConfig
    count    u64      number of named tensors
    per tensor:
        name_len u64, name bytes (UTF-8)
        rank     u64, then rank × u64 dims
        payload  float32 little-endian, C order

Tensors are stored in registry order. Payloads are pinned to float32: a
float64 encoder is downcast on save, so bitwise round-trip identity holds at
float32 width.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .encoder import EncoderConfig, SentenceEncoder, expected_param_shapes
from .errors import ConfigError, FormatError

MAGIC = b"XDST1"
VERSION = 1


def save_checkpoint(encoder: SentenceEncoder, path) -> None:
    """Serialize `encoder` to `path` atomically.

    The bytes go to a temp file in the same directory, are synced, and only
    then replace `path`; a failed write keeps the previous file intact and
    removes the temp file.
    """
    chunks: list[bytes] = [MAGIC, struct.pack("<I", VERSION)]
    cfg_blob = json.dumps(encoder.config.to_dict(), sort_keys=True).encode("utf-8")
    chunks.append(struct.pack("<Q", len(cfg_blob)))
    chunks.append(cfg_blob)
    chunks.append(struct.pack("<Q", len(encoder.params)))
    for name, p in encoder.params.items():
        name_bytes = name.encode("utf-8")
        chunks.append(struct.pack("<Q", len(name_bytes)))
        chunks.append(name_bytes)
        chunks.append(struct.pack("<Q", p.ndim))
        chunks.append(struct.pack(f"<{p.ndim}Q", *p.shape))
        payload = np.ascontiguousarray(p.data, dtype="<f4")
        chunks.append(payload.tobytes())
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(b"".join(chunks))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.blob):
            raise FormatError(
                f"truncated checkpoint while reading {what}", offset=self.pos
            )
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what: str) -> int:
        return struct.unpack("<Q", self.take(8, what))[0]


def load_checkpoint(path) -> SentenceEncoder:
    """Parse and validate a checkpoint; any malformation, a non-finite weight
    included, raises with the offset."""
    reader = _Reader(Path(path).read_bytes())

    magic_offset = reader.pos
    if reader.take(len(MAGIC), "magic") != MAGIC:
        raise FormatError(f"bad magic, expected {MAGIC!r}", offset=magic_offset)
    version_offset = reader.pos
    version = reader.u32("version")
    if version != VERSION:
        raise FormatError(f"unsupported version {version}", offset=version_offset)

    cfg_len = reader.u64("config length")
    cfg_offset = reader.pos
    try:
        config = EncoderConfig.from_dict(json.loads(reader.take(cfg_len, "config")))
    except (ConfigError, ValueError, TypeError, RecursionError) as exc:
        raise FormatError(f"invalid config blob: {exc}", offset=cfg_offset) from None

    expected = expected_param_shapes(config)
    count_offset = reader.pos
    count = reader.u64("tensor count")
    if count != len(expected):
        raise FormatError(
            f"config expects {len(expected)} tensors but header declares {count}",
            offset=count_offset,
        )

    params: dict[str, Tensor] = {}
    for name, shape in expected.items():
        header_offset = reader.pos
        name_len = reader.u64("tensor name length")
        try:
            raw_name = reader.take(name_len, "tensor name").decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError("tensor name is not UTF-8", offset=header_offset) from None
        if raw_name != name:
            raise FormatError(
                f"tensor {raw_name!r} out of order, expected {name!r}",
                offset=header_offset,
            )
        rank = reader.u64("tensor rank")
        dims = tuple(
            struct.unpack(f"<{rank}Q", reader.take(8 * rank, "tensor dims"))
        ) if rank else ()
        if dims != shape:
            raise FormatError(
                f"tensor {name!r} has dims {dims} but the config requires {shape}",
                offset=header_offset,
            )
        n_elems = int(np.prod(dims, dtype=np.int64)) if dims else 1
        payload_offset = reader.pos
        payload = reader.take(4 * n_elems, f"payload of {name!r}")
        data = np.frombuffer(payload, dtype="<f4").reshape(shape).copy()
        finite = np.isfinite(data).reshape(-1)
        if not finite.all():
            first = int(finite.argmin())
            raise FormatError(
                f"tensor {name!r} holds a non-finite value at element {first}",
                offset=payload_offset + 4 * first,
            )
        params[name] = Tensor(data, requires_grad=True)

    if reader.pos != len(reader.blob):
        raise FormatError(
            f"{len(reader.blob) - reader.pos} trailing byte(s) after last tensor",
            offset=reader.pos,
        )
    return SentenceEncoder(config, params)
