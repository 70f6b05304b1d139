"""Training objectives for the four-stage distillation pipeline.

All losses are built from autodiff primitives so their gradients come out of
the same backward pass as the encoder's. Squared-difference terms between
embeddings are averaged over the embedding coordinates, not summed, so loss
magnitudes are comparable across hidden sizes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, as_tensor
from .errors import ConfigError, ContractError

# Squared row norms below this floor are clamped before the square root, so
# zero vectors produce a finite cosine of 0 instead of a division blowup.
NORM_FLOOR_SQ = 1e-24


@dataclass
class LossValue:
    """Scalar objective plus a per-term breakdown that sums to the total."""

    value: Tensor
    components: dict[str, float] = field(default_factory=dict)

    def item(self) -> float:
        return self.value.item()


@dataclass
class CeLossConfig:
    """Temperature and teacher-weight handling for the cross-entropy variant."""

    temperature: float = 0.05
    teacher_weight_mode: str = "literal"

    def __post_init__(self):
        if self.temperature <= 0:
            raise ConfigError(f"temperature must be positive, got {self.temperature}")
        if self.teacher_weight_mode not in ("literal", "softmax-normalized"):
            raise ConfigError(
                f"teacher_weight_mode must be 'literal' or 'softmax-normalized', "
                f"got {self.teacher_weight_mode!r}"
            )


_clamp_count = 0  # near-zero vectors whose cosine denominator was clamped since the last reset


def clamp_warning_count() -> int:
    return _clamp_count


def reset_clamp_warnings() -> None:
    global _clamp_count
    _clamp_count = 0


def _register_clamps(n: int) -> None:
    global _clamp_count
    if n > 0:
        _clamp_count += n
        warnings.warn(
            f"cosine: clamped denominator for {n} near-zero vector(s)", RuntimeWarning,
            stacklevel=3,
        )


def _row_normalize(x: Tensor) -> Tensor:
    sumsq = ad.tsum(x * x, axis=-1, keepdims=True)
    _register_clamps(int((sumsq.data < NORM_FLOOR_SQ).sum()))
    return x / ad.tsqrt(ad.clip_min(sumsq, NORM_FLOOR_SQ))


def cosine_matrix(a: Tensor, b: Tensor) -> Tensor:
    """Differentiable N×M grid of cosines between rows of `a` and rows of `b`."""
    a = as_tensor(a)
    b = as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ContractError("cosine_matrix expects 2-D inputs")
    if a.shape[1] != b.shape[1]:
        raise ContractError(
            f"cosine_matrix dimension mismatch: {a.shape[1]} vs {b.shape[1]}"
        )
    return _row_normalize(a) @ ad.transpose(_row_normalize(b))


def cosine_self_matrix(x: Tensor) -> Tensor:
    """Cosine grid of rows of `x` against themselves.

    The diagonal is the constant 1 by identity; pinning it keeps round-off
    noise out of gradients that are analytically zero.
    """
    x = as_tensor(x)
    if x.ndim != 2:
        raise ContractError("cosine_self_matrix expects a 2-D input")
    xn = _row_normalize(x)
    grid = xn @ ad.transpose(xn)
    eye = np.eye(x.shape[0], dtype=x.data.dtype)
    return grid * Tensor(1.0 - eye) + Tensor(eye)


def _check_batch(name: str, *tensors: Tensor) -> None:
    shapes = {t.shape for t in tensors}
    if len(shapes) > 1:
        raise ContractError(f"{name}: inputs must share one shape, got {sorted(shapes)}")
    if tensors[0].ndim != 2:
        raise ContractError(f"{name}: inputs must be N×D matrices, got {tensors[0].shape}")


def _mse(a: Tensor, b: Tensor) -> Tensor:
    diff = a - b
    return ad.tmean(diff * diff)


def loss_anchor_align(anchor_src: Tensor, out_src: Tensor, out_tgt: Tensor) -> LossValue:
    """Pull both language outputs toward the same source-side anchor rows."""
    anchor_src, out_src, out_tgt = map(as_tensor, (anchor_src, out_src, out_tgt))
    _check_batch("loss_anchor_align", anchor_src, out_src, out_tgt)
    src_term = _mse(anchor_src, out_src)
    tgt_term = _mse(anchor_src, out_tgt)
    return LossValue(
        value=src_term + tgt_term,
        components={"source": src_term.item(), "target": tgt_term.item()},
    )


def loss_pairwise_align(
    ref_src: Tensor, out_src: Tensor, ref_tgt: Tensor, out_tgt: Tensor
) -> LossValue:
    """Match outputs to per-language reference rows (source to source, target to target)."""
    ref_src, out_src, ref_tgt, out_tgt = map(as_tensor, (ref_src, out_src, ref_tgt, out_tgt))
    _check_batch("loss_pairwise_align", ref_src, out_src, ref_tgt, out_tgt)
    src_term = _mse(ref_src, out_src)
    tgt_term = _mse(out_tgt, ref_tgt)
    return LossValue(
        value=src_term + tgt_term,
        components={"source": src_term.item(), "target": tgt_term.item()},
    )


def loss_mcl(teacher_src: Tensor, student_src: Tensor, student_tgt: Tensor) -> LossValue:
    """Match the student's cross-lingual cosine grid to the teacher's source grid.

    The full N×N grid enters the average, diagonal included: the i=j term
    pulls each parallel pair toward the teacher self-similarity of 1.
    """
    teacher_src, student_src, student_tgt = map(
        as_tensor, (teacher_src, student_src, student_tgt)
    )
    _check_batch("loss_mcl(student)", student_src, student_tgt)
    if teacher_src.ndim != 2 or teacher_src.shape[0] != student_src.shape[0]:
        raise ContractError(
            f"loss_mcl: teacher batch {teacher_src.shape} does not match "
            f"student batch {student_src.shape}"
        )
    teacher_grid = cosine_self_matrix(teacher_src)
    student_grid = cosine_matrix(student_src, student_tgt)
    diff = teacher_grid - student_grid
    return LossValue(value=ad.tmean(diff * diff))


def loss_bool(parallel_labels, student_src: Tensor, student_tgt: Tensor) -> LossValue:
    """Hard-label variant: the target grid is 1 on parallel pairs, 0 elsewhere."""
    student_src, student_tgt = map(as_tensor, (student_src, student_tgt))
    _check_batch("loss_bool(student)", student_src, student_tgt)
    n = student_src.shape[0]
    if parallel_labels is None:
        labels = np.eye(n, dtype=student_src.data.dtype)
    else:
        labels = np.asarray(
            parallel_labels.data if isinstance(parallel_labels, Tensor) else parallel_labels
        )
        if labels.shape != (n, n):
            raise ContractError(
                f"loss_bool: labels must be {n}×{n}, got {labels.shape}"
            )
    diff = Tensor(labels.astype(student_src.data.dtype)) - cosine_matrix(student_src, student_tgt)
    return LossValue(value=ad.tmean(diff * diff))


def loss_ce(
    teacher_src: Tensor,
    student_src: Tensor,
    student_tgt: Tensor,
    cfg: CeLossConfig | None = None,
) -> LossValue:
    """Temperature-scaled cross-entropy over the student grid, weighted by teacher cosines.

    Literal mode uses raw teacher cosines as row weights; softmax-normalized
    mode turns each teacher row into a distribution at the same temperature
    first. The sum runs over all N² grid cells with no batch normalizer.
    """
    cfg = cfg or CeLossConfig()
    teacher_src, student_src, student_tgt = map(
        as_tensor, (teacher_src, student_src, student_tgt)
    )
    _check_batch("loss_ce(student)", student_src, student_tgt)
    if teacher_src.ndim != 2 or teacher_src.shape[0] != student_src.shape[0]:
        raise ContractError(
            f"loss_ce: teacher batch {teacher_src.shape} does not match "
            f"student batch {student_src.shape}"
        )
    inv_tau = 1.0 / cfg.temperature
    teacher_grid = cosine_self_matrix(teacher_src)
    weights = (
        ad.softmax_last(teacher_grid * inv_tau)
        if cfg.teacher_weight_mode == "softmax-normalized"
        else teacher_grid
    )
    z = cosine_matrix(student_src, student_tgt) * inv_tau
    # log-softmax via a detached row max: the shift cancels in the gradient.
    shifted = z - Tensor(z.data.max(axis=-1, keepdims=True))
    log_norm = ad.tlog(ad.tsum(ad.texp(shifted), axis=-1, keepdims=True))
    log_probs = shifted - log_norm
    return LossValue(value=-ad.tsum(weights * log_probs))


# the contrastive halves stage 4 can pair with distillation; "none" means kd only
STAGE4_VARIANTS = ("mcl", "bool", "ce", "none")


def loss_stage4(
    teacher_src: Tensor, student_src: Tensor, student_tgt: Tensor, variant: str = "mcl"
) -> LossValue:
    """Contrastive term plus distillation term, as an unweighted sum.

    `variant` picks the contrastive half: "mcl" (default), "bool", "ce" (at
    `CeLossConfig()`'s temperature), or "none" (distillation only). The
    distillation half always pulls both student outputs toward the
    teacher's source embeddings, which requires matching dimensions.
    """
    teacher_src, student_src, student_tgt = map(
        as_tensor, (teacher_src, student_src, student_tgt)
    )
    if teacher_src.shape != student_src.shape:
        raise ContractError(
            f"loss_stage4: teacher shape {teacher_src.shape} must equal student "
            f"shape {student_src.shape} for the distillation term"
        )
    if variant == "mcl":
        contrastive = loss_mcl(teacher_src, student_src, student_tgt).value
    elif variant == "bool":
        contrastive = loss_bool(None, student_src, student_tgt).value
    elif variant == "ce":
        contrastive = loss_ce(teacher_src, student_src, student_tgt).value
    elif variant == "none":
        contrastive = None
    else:
        raise ConfigError(f"unknown contrastive variant {variant!r}")
    kd = loss_anchor_align(teacher_src, student_src, student_tgt).value
    total = kd if contrastive is None else contrastive + kd
    return LossValue(
        value=total,
        components={
            "contrastive": 0.0 if contrastive is None else contrastive.item(),
            "kd": kd.item(),
        },
    )
