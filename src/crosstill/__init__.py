"""Desk-scale staged cross-lingual distillation of compact sentence encoders.

A seeded token-cipher corpus and a Gaussian concept table stand in for real
bilingual data and a pretrained teacher, so every training and evaluation
claim is checkable on a CPU in minutes. The stack is built on a small
reverse-mode tensor engine: encoders with recurrent (weight-tied) layers and
a factorized embedding bottleneck, alignment and contrastive losses, AdamW
with linear warmup, a four-stage distillation driver, rank-correlation and
retrieval scoring, exact parameter accounting, and binary checkpoints.

Importing the package on glibc raises malloc's mmap and trim thresholds for
the whole process, so memory a batch frees is reused by the next batch
instead of being faulted in again (see `crosstill.autodiff`).
"""

from .autodiff import Tensor, backward, zero_grads
from .corpus import (
    OracleSemantics,
    ParallelBatch,
    ParallelPair,
    StsExample,
    VocabSpec,
    gen_parallel_corpus,
    gen_sts_set,
    oracle_embed,
    oracle_embed_batch,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .encoder import (
    EncoderConfig,
    SentenceEncoder,
    init_student_from_assistant,
    unroll,
)
from .errors import (
    AuditError,
    ConfigError,
    ContractError,
    CrosstillError,
    FormatError,
    NumericError,
    ParseError,
)
from .evaluate import (
    EvalReport,
    retrieval_accuracy,
    spearman,
    sts_evaluate,
)
from .gradcheck import finite_diff_check
from .losses import (
    CeLossConfig,
    LossValue,
    loss_anchor_align,
    loss_bool,
    loss_ce,
    loss_mcl,
    loss_pairwise_align,
    loss_stage4,
)
from .optim import AdamW
from .pipeline import (
    DepthPoint,
    MetricsLog,
    OptimizerPlan,
    PipelineConfig,
    PipelineResult,
    StagePlan,
    default_stage_plans,
    depth_sweep,
    resume_stage,
    run_pipeline,
    run_single_stage,
    run_stage,
    toy_config,
)
from .rng import stream
from .sizes import PRESETS, SizePreset, SizeReport, audit_registry, model_report
from .validation import validate_corpus_dir, validate_run_artifacts

__version__ = "0.1.0"

__all__ = [
    "AdamW",
    "AuditError",
    "CeLossConfig",
    "ConfigError",
    "ContractError",
    "CrosstillError",
    "DepthPoint",
    "EncoderConfig",
    "EvalReport",
    "FormatError",
    "LossValue",
    "MetricsLog",
    "NumericError",
    "OptimizerPlan",
    "OracleSemantics",
    "ParallelBatch",
    "ParallelPair",
    "ParseError",
    "PipelineConfig",
    "PipelineResult",
    "PRESETS",
    "SentenceEncoder",
    "SizePreset",
    "SizeReport",
    "StagePlan",
    "StsExample",
    "Tensor",
    "VocabSpec",
    "audit_registry",
    "backward",
    "default_stage_plans",
    "depth_sweep",
    "finite_diff_check",
    "gen_parallel_corpus",
    "gen_sts_set",
    "init_student_from_assistant",
    "load_checkpoint",
    "loss_anchor_align",
    "loss_bool",
    "loss_ce",
    "loss_mcl",
    "loss_pairwise_align",
    "loss_stage4",
    "model_report",
    "oracle_embed",
    "oracle_embed_batch",
    "resume_stage",
    "retrieval_accuracy",
    "run_pipeline",
    "run_single_stage",
    "run_stage",
    "save_checkpoint",
    "spearman",
    "stream",
    "sts_evaluate",
    "toy_config",
    "unroll",
    "validate_corpus_dir",
    "validate_run_artifacts",
    "zero_grads",
    "__version__",
]
