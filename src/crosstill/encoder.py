"""Transformer sentence encoders: the assistant and the bottlenecked,
parameter-recurrent student.

Architecture: token embedding (full V×H table, or V×B lookup plus B→H
projection when bottlenecked) + learned positional embedding + layer norm,
then M distinct post-norm transformer blocks applied r times in sequence
(the same parameter tensors on every repeat), and a masked mean over
positions as the sentence embedding.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, asdict, dataclass, fields, replace
from functools import partial

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError
from .rng import stream

INIT_STD = 0.02
ATTN_MASK_BIAS = -1e9
# BERT's layer-norm epsilon (Devlin et al. 2019): the embedding norm and both norms of each layer
LAYERNORM_EPS = 1e-12
# Tokens (rows × framed width) from which a forward-only batch runs as two
# row halves on two threads. Handing a half to the helper costs about 3 ms
# of a forward whatever its size, so small batches lose. Toy models, one
# forward against two halves, medians of 40-60 interleaved runs on a 2-CPU
# x86-64 VM with OpenBLAS on one thread, in ms:
#
#   rows × width   tokens   student        assistant
#   16 × 8          128     2.09 → 4.51    2.11 → 4.63
#   64 × 8          512     5.30 → 5.98    5.15 → 5.77
#   64 × 10         640     6.32 → 6.22    6.34 → 6.33
#   80 × 8          640     6.24 → 6.25    6.25 → 6.04
#   64 × 11         704     6.91 → 6.45    6.97 → 6.49
#   44 × 16         704     6.97 → 6.59    6.99 → 6.66
#   88 × 8          704     6.79 → 6.37    6.76 → 6.37
#   64 × 12         768     7.32 → 6.56    7.44 → 6.63
#   64 × 16        1024     9.85 → 7.55    9.76 → 7.37
#   128 × 10       1280    11.95 → 8.31   11.89 → 8.07
#
# At 640 tokens the two are even; every size from 704 up was faster split.
SPLIT_MIN_TOKENS = 704


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int
    hidden: int
    ffn_size: int
    heads: int
    distinct_layers: int
    recurrence_count: int = 1
    bottleneck_size: int | None = None
    max_positions: int = 16

    def __post_init__(self):
        if self.vocab_size < 1 or self.hidden < 1 or self.ffn_size < 1:
            raise ConfigError("vocab_size, hidden and ffn_size must be positive")
        if self.heads < 1 or self.hidden % self.heads != 0:
            raise ConfigError(
                f"hidden {self.hidden} must divide evenly into {self.heads} heads"
            )
        if self.distinct_layers < 1 or self.recurrence_count < 1:
            raise ConfigError("distinct_layers and recurrence_count must be at least 1")
        if self.max_positions < 3:
            raise ConfigError("max_positions must be at least 3")
        if self.bottleneck_size is not None and self.bottleneck_size < 1:
            raise ConfigError("bottleneck_size must be positive, or null for no bottleneck")

    @property
    def bottleneck_enabled(self) -> bool:
        """Whether tokens pass through the V×B table and B→H projection."""
        return self.bottleneck_size is not None

    @property
    def effective_depth(self) -> int:
        return self.distinct_layers * self.recurrence_count

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw) -> "EncoderConfig":
        return config_from_dict(cls, raw, kind="encoder config")


_JSON_TYPES = {
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "None": lambda v: v is None,
}


def config_from_dict(cls, raw, where: str = "", nested=None, kind: str = "config"):
    """Build the config dataclass `cls` from a parsed JSON object.

    The dataclass fields are the schema. Fields named in `nested` are
    sections, each parsed by `nested[name](value, path)`; every other field
    must hold a JSON scalar of its annotated type (a bool never passes as an
    int). A non-object, an unknown or missing field, a mistyped scalar, a
    NaN or infinity in any field, or a TypeError/ValueError from
    `__post_init__` raises ConfigError naming the section path `where` ("" for
    the root).
    """
    nested = nested or {}
    label = where or "config"
    if not isinstance(raw, dict):
        raise ConfigError(f"{label} must be a JSON object, got {type(raw).__name__}")
    schema = {f.name: f for f in fields(cls)}
    unknown = set(raw) - set(schema)
    if unknown:
        at = f" in {where}" if where else ""
        raise ConfigError(f"unknown {kind} fields{at}: {sorted(unknown)}")
    missing = [
        name for name, f in schema.items()
        if name not in raw and f.default is MISSING and f.default_factory is MISSING
    ]
    if missing:
        raise ConfigError(f"{label} missing required fields: {missing}")
    values = {}
    for name, value in raw.items():
        path = f"{where}.{name}" if where else name
        if name in nested:
            values[name] = nested[name](value, path)
            continue
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{path} must be finite, got {value}")
        annotation = schema[name].type  # a string, e.g. "int | None": annotations are postponed
        if not any(_JSON_TYPES[t.strip()](value) for t in annotation.split("|")):
            raise ConfigError(f"{path} must be {annotation}, got {type(value).__name__}")
        values[name] = value
    try:
        return cls(**values)
    except (ConfigError, TypeError, ValueError) as exc:
        raise ConfigError(f"{label}: {exc}") from None


def expected_param_shapes(cfg: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Canonical registry: name -> shape, in construction order."""
    h, f = cfg.hidden, cfg.ffn_size
    shapes: dict[str, tuple[int, ...]] = {}
    if cfg.bottleneck_enabled:
        shapes["embedding.factor"] = (cfg.vocab_size, cfg.bottleneck_size)
        shapes["embedding.proj"] = (cfg.bottleneck_size, h)
    else:
        shapes["embedding.word"] = (cfg.vocab_size, h)
    shapes["embedding.position"] = (cfg.max_positions, h)
    shapes["embedding.ln.scale"] = (h,)
    shapes["embedding.ln.shift"] = (h,)
    for j in range(1, cfg.distinct_layers + 1):
        for name in ("q", "k", "v", "o"):
            shapes[f"layer{j}.attn.{name}.w"] = (h, h)
            shapes[f"layer{j}.attn.{name}.b"] = (h,)
        shapes[f"layer{j}.ln1.scale"] = (h,)
        shapes[f"layer{j}.ln1.shift"] = (h,)
        shapes[f"layer{j}.ffn.w1"] = (h, f)
        shapes[f"layer{j}.ffn.b1"] = (f,)
        shapes[f"layer{j}.ffn.w2"] = (f, h)
        shapes[f"layer{j}.ffn.b2"] = (h,)
        shapes[f"layer{j}.ln2.scale"] = (h,)
        shapes[f"layer{j}.ln2.shift"] = (h,)
    return shapes


def _init_value(name: str, shape: tuple[int, ...], rng, dtype) -> np.ndarray:
    if name.endswith(".scale"):
        return np.ones(shape, dtype=dtype)
    if name.endswith((".shift", ".b", ".b1", ".b2")):
        return np.zeros(shape, dtype=dtype)
    return (rng.standard_normal(shape) * INIT_STD).astype(dtype)


class SentenceEncoder:
    """Named-parameter transformer encoder with recurrent layer reuse."""

    def __init__(self, config: EncoderConfig, params: dict[str, Tensor]):
        expected = expected_param_shapes(config)
        if list(params.keys()) != list(expected.keys()):
            missing = set(expected) - set(params)
            extra = set(params) - set(expected)
            raise ContractError(
                f"parameter registry mismatch: missing {sorted(missing)}, "
                f"unexpected {sorted(extra)}"
            )
        for name, shape in expected.items():
            if params[name].shape != shape:
                raise ContractError(
                    f"parameter {name!r} has shape {params[name].shape}, expected {shape}"
                )
        self.config = config
        self.params = params

    # -- construction ------------------------------------------------------

    @staticmethod
    def init(config: EncoderConfig, seed: int = 0, dtype=np.float32) -> "SentenceEncoder":
        rng = stream(seed, "encoder-init")
        return _build(config, lambda name, shape: _init_value(name, shape, rng, dtype))

    # -- parameter management ---------------------------------------------

    @property
    def dtype(self):
        return next(iter(self.params.values())).dtype

    def n_params(self) -> int:
        return sum(p.size for p in self.params.values())

    def freeze(self) -> "SentenceEncoder":
        for p in self.params.values():
            p.requires_grad = False
        return self

    def checksum(self) -> str:
        digest = hashlib.sha256()
        digest.update(json.dumps(self.config.to_dict(), sort_keys=True).encode("utf-8"))
        for name, p in self.params.items():
            digest.update(name.encode("utf-8"))
            digest.update(p.data.tobytes())
        return digest.hexdigest()

    # -- forward -----------------------------------------------------------

    def _check_inputs(self, ids: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ids = np.asarray(ids, dtype=np.int64)
        mask = np.asarray(mask)
        if ids.ndim != 2 or mask.shape != ids.shape:
            raise ContractError(
                f"ids and mask must be equal-shape N×L matrices, got {ids.shape} and {mask.shape}"
            )
        if ids.size == 0:
            raise ContractError(f"empty batch: ids of shape {ids.shape}")
        if ids.shape[1] > self.config.max_positions:
            raise ContractError(
                f"sequence length {ids.shape[1]} exceeds max_positions "
                f"{self.config.max_positions}"
            )
        if ids.min() < 0 or ids.max() >= self.config.vocab_size:
            raise ContractError("token id outside vocabulary")
        if (mask.sum(axis=1) == 0).any():
            raise ContractError("a batch row is entirely masked")
        return ids, mask.astype(self.dtype)

    def _embed_tokens(self, ids: np.ndarray) -> Tensor:
        if self.config.bottleneck_enabled:
            narrow = ad.gather_rows(self.params["embedding.factor"], ids)
            return narrow @ self.params["embedding.proj"]
        return ad.gather_rows(self.params["embedding.word"], ids)

    def _embed(self, ids: np.ndarray) -> Tensor:
        pos = ad.gather_rows(self.params["embedding.position"], np.arange(ids.shape[1]))
        return ad.add_layer_norm(
            self._embed_tokens(ids),
            pos,
            self.params["embedding.ln.scale"],
            self.params["embedding.ln.shift"],
            LAYERNORM_EPS,
        )

    def _layer(self, j: int, x: Tensor, key_bias: np.ndarray) -> Tensor:
        # the registry lists a layer's tensors in the order encoder_layer takes them
        prefix = f"layer{j}."
        params = [p for name, p in self.params.items() if name.startswith(prefix)]
        return ad.encoder_layer(x, params, key_bias, self.config.heads, LAYERNORM_EPS)

    def _pool(self, x: Tensor, mask: np.ndarray) -> Tensor:
        weights = Tensor(mask[:, :, None])
        counts = Tensor(mask.sum(axis=1, keepdims=True))
        return ad.tsum(x * weights, axis=1) / counts

    def encode(self, ids, mask) -> Tensor:
        """Mean-pooled sentence embeddings, differentiable end to end.

        A forward-only batch (no parameter needs a gradient) of at least
        `SPLIT_MIN_TOKENS` tokens runs as two row halves through
        `autodiff.concurrently` when a second thread is free. Rows do not
        depend on each other and both halves keep the batch's width, so the
        output is bitwise the one-thread output.
        """
        ids, mask = self._check_inputs(ids, mask)
        half = ids.shape[0] // 2
        if (
            half
            and ids.size >= SPLIT_MIN_TOKENS
            and not any(p.requires_grad for p in self.params.values())
            and ad.second_thread_free()
        ):
            top, bottom = ad.concurrently(
                partial(self._forward, ids[:half], mask[:half]),
                partial(self._forward, ids[half:], mask[half:]),
            )
            return Tensor(np.concatenate((top.data, bottom.data)))
        return self._forward(ids, mask)

    def _forward(self, ids: np.ndarray, mask: np.ndarray) -> Tensor:
        x = self._embed(ids)
        # One N×heads×L×L bias for every layer and repeat: adding it to the
        # scores is one pass, where an N×1×1×L bias broadcasts a row at a time.
        key_bias = np.empty((ids.shape[0], self.config.heads) + ids.shape[1:] * 2, self.dtype)
        key_bias[...] = (1.0 - mask)[:, None, None, :] * ATTN_MASK_BIAS
        for _ in range(self.config.recurrence_count):
            for j in range(1, self.config.distinct_layers + 1):
                x = self._layer(j, x, key_bias)
        return self._pool(x, mask)

    def embedding_output(self, ids, mask) -> Tensor:
        """Mean-pooled token states straight after the embedding stack (projection + norm).

        This is the tap point the second distillation stage aligns.
        """
        ids, mask = self._check_inputs(ids, mask)
        return self._pool(self._embed(ids), mask)


def _build(config: EncoderConfig, value) -> SentenceEncoder:
    """An encoder of `config` whose parameters, trainable, are `value(name, shape)`
    for each registry entry, in registry order."""
    params = {
        name: Tensor(value(name, shape), requires_grad=True)
        for name, shape in expected_param_shapes(config).items()
    }
    return SentenceEncoder(config, params)


def check_student_fits(a_cfg: EncoderConfig, student_cfg: EncoderConfig) -> None:
    """ConfigError unless a student of `student_cfg` can copy an assistant of `a_cfg`."""
    if student_cfg.hidden != a_cfg.hidden:
        raise ConfigError(
            f"student hidden {student_cfg.hidden} must equal assistant hidden {a_cfg.hidden}"
        )
    if student_cfg.ffn_size != a_cfg.ffn_size or student_cfg.heads != a_cfg.heads:
        raise ConfigError("student ffn_size and heads must match the assistant's")
    if student_cfg.distinct_layers > a_cfg.distinct_layers:
        raise ConfigError(
            f"student needs {student_cfg.distinct_layers} distinct layers but the "
            f"assistant has only {a_cfg.distinct_layers}"
        )
    if student_cfg.max_positions > a_cfg.max_positions:
        raise ConfigError("student max_positions cannot exceed the assistant's")
    if not student_cfg.bottleneck_enabled and student_cfg.vocab_size != a_cfg.vocab_size:
        raise ConfigError("sharing the word table requires equal vocab sizes")


def init_student_from_assistant(
    assistant: SentenceEncoder, student_cfg: EncoderConfig, seed: int = 0
) -> SentenceEncoder:
    """Build a student whose distinct layers copy the assistant's first M layers.

    The bottleneck tables (when enabled) start fresh; everything copied is a
    deep copy, so later training never mutates the assistant.
    """
    check_student_fits(assistant.config, student_cfg)
    rng = stream(seed, "student-init")

    def value(name: str, shape: tuple[int, ...]) -> np.ndarray:
        if name in ("embedding.factor", "embedding.proj"):
            return _init_value(name, shape, rng, assistant.dtype)
        # the position table keeps the assistant's first rows; every other
        # copied tensor has the assistant's shape
        return assistant.params[name].data[: shape[0]].copy()

    return _build(student_cfg, value)


def unroll(encoder: SentenceEncoder) -> SentenceEncoder:
    """Physically distinct, trainable copy with recurrence flattened into M·r layers.

    Forward arithmetic is identical order, so outputs match the recurrent
    encoder bitwise at equal width.
    """
    cfg = encoder.config

    def value(name: str, shape: tuple[int, ...]) -> np.ndarray:
        if name.startswith("layer"):
            head, rest = name.split(".", 1)
            source_index = (int(head[len("layer"):]) - 1) % cfg.distinct_layers + 1
            name = f"layer{source_index}.{rest}"
        return encoder.params[name].data.copy()

    flat_cfg = replace(cfg, distinct_layers=cfg.effective_depth, recurrence_count=1)
    return _build(flat_cfg, value)
