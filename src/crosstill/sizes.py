"""Closed-form parameter accounting for embedding and encoder blocks.

Counts are exact integers; the rendered two-decimal "millions" strings follow
the source tables, which round the embedding column half-up but truncate the
encoder column (42,527,232 prints as 42.52M, not 42.53M). Presets differ in
which embedding-side terms they count, again following the tables: the wide
models include positional, token-type and layer-norm parameters, the narrow
bottleneck presets count only the factorized lookup and projection.

`encoder_size` and `embedding_size` are the only counting code; no encoder is
built. The tests hold them to a live encoder's `n_params()`, including the two
toy presets, which describe the models `pipeline.toy_config` trains.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from decimal import ROUND_FLOOR, ROUND_HALF_UP, Decimal

from .errors import ContractError


@dataclass(frozen=True)
class SizePreset:
    name: str
    vocab_size: int
    hidden: int
    ffn_size: int
    max_positions: int
    token_type_count: int
    layers: int
    bottleneck: int | None = None
    # count positional, token-type and embedding layer-norm parameters
    include_embedding_extras: bool = True

    def __post_init__(self):
        for field_name in ("vocab_size", "hidden", "ffn_size", "layers"):
            if getattr(self, field_name) < 1:
                raise ContractError(f"{field_name} must be positive")
        if self.max_positions < 0 or self.token_type_count < 0:
            raise ContractError("counts must be non-negative")
        if self.bottleneck is not None and self.bottleneck < 1:
            raise ContractError("bottleneck must be positive when set")


@dataclass(frozen=True)
class SizeReport:
    name: str
    embedding_params: int
    encoder_params: int
    embedding_rendered: str
    encoder_rendered: str

    def tsv_row(self) -> str:
        return (
            f"{self.name}\t{self.embedding_params}\t{self.encoder_params}\t"
            f"{self.embedding_rendered}\t{self.encoder_rendered}"
        )


def render_millions(count: int, mode: str) -> str:
    """Format an exact count as a 2-decimal millions string like '42.52M'."""
    rounding = {"half-up": ROUND_HALF_UP, "floor": ROUND_FLOOR}.get(mode)
    if rounding is None:
        raise ContractError(f"unknown rounding mode {mode!r}")
    quantized = (Decimal(count) / Decimal(1_000_000)).quantize(
        Decimal("0.01"), rounding=rounding
    )
    return f"{quantized}M"


def encoder_size(hidden: int, ffn_size: int, distinct_layers: int) -> int:
    """Transformer-stack parameters: QKVO with bias, FFN with bias, two norms.

    Linear in the distinct layer count and independent of recurrence, since
    repeats reuse the same tensors.
    """
    if hidden < 1 or ffn_size < 1 or distinct_layers < 1:
        raise ContractError("encoder_size needs positive dimensions")
    h, f = hidden, ffn_size
    per_layer = 4 * (h * h + h) + (h * f + f) + (f * h + h) + 2 * (2 * h)
    return distinct_layers * per_layer


def embedding_size(preset: SizePreset) -> int:
    """Embedding-side parameters under the preset's counting flag.

    V·B + B·H with a bottleneck of width B (ALBERT's factorized lookup and
    projection), V·H without one; plus (P + T + 2)·H for the positional and
    token-type tables and the layer-norm scale and shift when the preset
    counts the extras.
    """
    v, h, b = preset.vocab_size, preset.hidden, preset.bottleneck
    lookup = v * h if b is None else v * b + b * h
    if not preset.include_embedding_extras:
        return lookup
    return lookup + (preset.max_positions + preset.token_type_count + 2) * h


def model_report(preset: SizePreset) -> SizeReport:
    """Formula counts for a preset, with the rendered millions strings."""
    emb = embedding_size(preset)
    enc = encoder_size(preset.hidden, preset.ffn_size, preset.layers)
    return SizeReport(
        name=preset.name,
        embedding_params=emb,
        encoder_params=enc,
        embedding_rendered=render_millions(emb, "half-up"),
        encoder_rendered=render_millions(enc, "floor"),
    )


def _family_grid(base: SizePreset, bottlenecks: dict[str, int | None],
                 extras_with_bottleneck: bool) -> dict[str, SizePreset]:
    out: dict[str, SizePreset] = {}
    for tag, b in bottlenecks.items():
        for layers in (12, 6, 3):
            name = f"{base.name}-{tag}-ru{layers}"
            out[name] = replace(
                base, name=name, layers=layers, bottleneck=b,
                include_embedding_extras=b is None or extras_with_bottleneck,
            )
    return out


_XLMR_BASE = SizePreset(
    name="xlmr", vocab_size=250002, hidden=768, ffn_size=3072,
    max_positions=512, token_type_count=1, layers=12,
)
_MINILM_BASE = SizePreset(
    name="minilm", vocab_size=250002, hidden=384, ffn_size=1536,
    max_positions=512, token_type_count=1, layers=12,
)
_TOY_ASSISTANT = SizePreset(
    name="toy-assistant", vocab_size=1028, hidden=64, ffn_size=128,
    max_positions=16, token_type_count=0, layers=4,
)
_TOY_STUDENT = replace(
    _TOY_ASSISTANT, name="toy-student", layers=2, bottleneck=16,
)

PRESETS: dict[str, SizePreset] = {
    **_family_grid(_XLMR_BASE, {"full": None, "b128": 128, "b256": 256},
                   extras_with_bottleneck=True),
    **_family_grid(_MINILM_BASE, {"full": None, "b128": 128, "b256": 256},
                   extras_with_bottleneck=False),
    "toy-assistant": _TOY_ASSISTANT,
    "toy-student": _TOY_STUDENT,
}
