"""Closed-form parameter accounting for embedding and encoder blocks.

Counts are exact integers; the rendered two-decimal "millions" strings follow
the source tables, which round the embedding column half-up but truncate the
encoder column (42,527,232 prints as 42.52M, not 42.53M). Presets differ in
which embedding-side terms they count, again following the tables: the wide
models include positional, token-type and layer-norm parameters, the narrow
bottleneck presets count only the factorized lookup and projection.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from decimal import ROUND_FLOOR, ROUND_HALF_UP, Decimal

from .encoder import EncoderConfig, SentenceEncoder
from .errors import AuditError, ContractError


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


def _embedding_terms(preset: SizePreset) -> dict[str, int]:
    h = preset.hidden
    terms: dict[str, int] = {}
    if preset.bottleneck is not None:
        terms["embedding.factor"] = preset.vocab_size * preset.bottleneck
        terms["embedding.proj"] = preset.bottleneck * h
    else:
        terms["embedding.word"] = preset.vocab_size * h
    if preset.include_embedding_extras:
        terms["embedding.position"] = preset.max_positions * h
        terms["embedding.token_type"] = preset.token_type_count * h
        terms["embedding.ln.scale"] = h
        terms["embedding.ln.shift"] = h
    return terms


def embedding_size(preset: SizePreset) -> int:
    """Embedding-side parameters under the preset's counting flag."""
    return sum(_embedding_terms(preset).values())


def _layer_terms(preset: SizePreset) -> dict[str, int]:
    h, f = preset.hidden, preset.ffn_size
    terms: dict[str, int] = {}
    for j in range(1, preset.layers + 1):
        for proj in ("q", "k", "v", "o"):
            terms[f"layer{j}.attn.{proj}.w"] = h * h
            terms[f"layer{j}.attn.{proj}.b"] = h
        terms[f"layer{j}.ln1.scale"] = h
        terms[f"layer{j}.ln1.shift"] = h
        terms[f"layer{j}.ffn.w1"] = h * f
        terms[f"layer{j}.ffn.b1"] = f
        terms[f"layer{j}.ffn.w2"] = f * h
        terms[f"layer{j}.ffn.b2"] = h
        terms[f"layer{j}.ln2.scale"] = h
        terms[f"layer{j}.ln2.shift"] = h
    return terms


def preset_from_config(cfg: EncoderConfig, name: str = "live") -> SizePreset:
    """Counting preset matching a live encoder's registry exactly."""
    return SizePreset(
        name=name,
        vocab_size=cfg.vocab_size,
        hidden=cfg.hidden,
        ffn_size=cfg.ffn_size,
        max_positions=cfg.max_positions,
        token_type_count=0,
        layers=cfg.distinct_layers,
        bottleneck=cfg.bottleneck_size,
    )


def audit_registry(encoder: SentenceEncoder, preset: SizePreset | None = None) -> None:
    """Check a live registry tensor-by-tensor against the formula decomposition."""
    preset = preset or preset_from_config(encoder.config)
    expected = {**_embedding_terms(preset), **_layer_terms(preset)}
    expected = {k: v for k, v in expected.items() if v > 0}
    actual = {name: p.size for name, p in encoder.params.items()}
    offenders = []
    for name in sorted(set(expected) | set(actual)):
        want = expected.get(name)
        have = actual.get(name)
        if want != have:
            offenders.append(f"{name} (formula {want}, registry {have})")
    if offenders:
        raise AuditError(
            "registry disagrees with size formulas: " + "; ".join(offenders)
        )


def model_report(
    preset: SizePreset, encoder: SentenceEncoder | None = None
) -> SizeReport:
    """Formula counts for a preset; audits the live registry when one is given."""
    if encoder is not None:
        audit_registry(encoder, preset)
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
