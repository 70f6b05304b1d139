"""Staged distillation driver.

A run builds a small bilingual student in four stages: the assistant learns
the teacher's space on anchor sentences (1), the student's embedding path
learns to mimic the assistant's embedding layer (2), the whole student
imitates the assistant (3), and finally the student trains against the
teacher with a contrastive plus distillation objective (4). Single-stage
baselines reuse the same machinery for comparison runs.

Every random draw flows from the run seed through labeled streams, so a
config plus seed pins the final checkpoint bytes on one platform.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from .autodiff import Tensor, backward, zero_grads
from .checkpoint import load_checkpoint, save_checkpoint
from .corpus import (
    SPLIT_NAMES,
    OracleSemantics,
    ParallelBatch,
    ParallelPair,
    VocabSpec,
    batch_pairs,
    load_sts_tsv,
    oracle_embed_batch,
    read_parallel_tsv,
)
from .encoder import EncoderConfig, SentenceEncoder, config_from_dict, init_student_from_assistant
from .errors import ConfigError, ContractError, NumericError, ParseError
from .evaluate import EvalReport, retrieval_accuracy, sts_evaluate
from .losses import CeLossConfig, loss_anchor_align, loss_pairwise_align, loss_stage4
from .optim import AdamW
from .rng import stream

# parameters the embedding-alignment stage is allowed to move
EMBEDDING_PATH_KEYS = (
    "embedding.word",
    "embedding.factor",
    "embedding.proj",
    "embedding.ln.scale",
    "embedding.ln.shift",
)


def derive_seed(seed: int, label: str) -> int:
    """Stable sub-seed for one named purpose within a run."""
    return int(stream(seed, label).integers(0, 2**31 - 1))


@dataclass(frozen=True)
class OptimizerPlan:
    lr: float = 2e-3
    weight_decay: float = 0.01
    warmup_fraction: float = 0.1

    def __post_init__(self):
        if self.lr <= 0:
            raise ConfigError("lr must be positive")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be non-negative")
        if not 0.0 <= self.warmup_fraction <= 1.0:
            raise ConfigError("warmup_fraction must lie in [0, 1]")


@dataclass(frozen=True)
class StagePlan:
    """One stage's schedule. Roles and loss come from the stage table."""

    stage: int
    epochs: int
    batch_size: int = 64
    optimizer: OptimizerPlan = field(default_factory=OptimizerPlan)

    def __post_init__(self):
        if self.stage not in (1, 2, 3, 4):
            raise ConfigError(f"stage must be 1..4, got {self.stage}")
        if self.epochs < 0:
            raise ConfigError("epochs must be non-negative")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be positive")


# section parsers, called with (value, section path)
_encoder_section = partial(config_from_dict, EncoderConfig, kind="encoder config")
_stage_section = partial(
    config_from_dict, StagePlan, nested={"optimizer": partial(config_from_dict, OptimizerPlan)}
)


def _stage_list(raw, where: str) -> tuple[StagePlan, ...]:
    if not isinstance(raw, list):
        raise ConfigError(f"{where} must be a JSON list, got {type(raw).__name__}")
    return tuple(_stage_section(p, f"{where}[{i}]") for i, p in enumerate(raw))


@dataclass
class PipelineConfig:
    """Everything a run needs: data locations, model shapes, and schedules."""

    corpus_dir: str
    out_dir: str
    assistant: EncoderConfig
    student: EncoderConfig
    sts_path: str | None = None
    seed: int = 0
    teacher_dim: int = 64
    teacher_seed: int = 0
    max_seq_len: int = 16
    variant: str = "mcl"
    ce_temperature: float = 0.05
    stages: tuple[StagePlan, ...] = ()
    eval_every_epoch: bool = True

    def __post_init__(self):
        if not self.stages:
            self.stages = default_stage_plans()
        self.stages = tuple(self.stages)
        if [p.stage for p in self.stages] != [1, 2, 3, 4]:
            raise ConfigError("stages must cover 1, 2, 3, 4 exactly once, in order")
        if self.variant not in ("mcl", "bool", "ce", "none"):
            raise ConfigError(f"unknown contrastive variant {self.variant!r}")
        if self.ce_temperature <= 0:
            raise ConfigError("ce_temperature must be positive")
        if self.teacher_dim != self.assistant.hidden:
            raise ConfigError(
                f"teacher_dim {self.teacher_dim} must equal assistant hidden "
                f"{self.assistant.hidden} so alignment losses compare like with like"
            )
        if self.student.hidden != self.assistant.hidden:
            raise ConfigError("student and assistant hidden sizes must match")
        if self.max_seq_len > min(self.assistant.max_positions, self.student.max_positions):
            raise ConfigError("max_seq_len exceeds an encoder's position table")

    def plan(self, stage: int) -> StagePlan:
        return self.stages[stage - 1]

    def to_dict(self) -> dict:
        return {**asdict(self), "stages": [asdict(p) for p in self.stages]}

    @classmethod
    def from_dict(cls, raw) -> "PipelineConfig":
        return config_from_dict(cls, raw, nested={
            "assistant": _encoder_section, "student": _encoder_section, "stages": _stage_list,
        })


def default_stage_plans(
    epochs: tuple[int, int, int, int] = (5, 5, 5, 15),
    batch_size: int = 64,
    lr: float = 2e-3,
) -> tuple[StagePlan, ...]:
    """Desk-scale schedule keeping the 1:3 ratio of early-stage to final-stage epochs."""
    opt = OptimizerPlan(lr=lr)
    return tuple(
        StagePlan(stage=k, epochs=epochs[k - 1], batch_size=batch_size, optimizer=opt)
        for k in (1, 2, 3, 4)
    )


def toy_config(corpus_dir, out_dir, sts_path=None, seed: int = 42) -> PipelineConfig:
    """Default small-world setup used by the end-to-end checks."""
    vocab_size = 4 + 2 * 512
    assistant = EncoderConfig(
        vocab_size=vocab_size, hidden=64, ffn_size=128, heads=4,
        distinct_layers=4, recurrence_count=1, max_positions=16,
    )
    student = EncoderConfig(
        vocab_size=vocab_size, hidden=64, ffn_size=128, heads=4,
        distinct_layers=2, recurrence_count=2,
        bottleneck_enabled=True, bottleneck_size=16, max_positions=16,
    )
    return PipelineConfig(
        corpus_dir=str(corpus_dir), out_dir=str(out_dir),
        assistant=assistant, student=student,
        sts_path=None if sts_path is None else str(sts_path),
        seed=seed, teacher_dim=64, teacher_seed=0,
    )


# -- metrics ----------------------------------------------------------------


class MetricsLog:
    """Append-only line-delimited JSON training log.

    One record per (stage, epoch); epoch numbers strictly increase within a
    stage. Records carry no wall-clock fields so identical runs write
    identical files.
    """

    def __init__(self, path):
        """Start a new log at `path`, truncating any file already there."""
        self._start(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text("", encoding="utf-8")

    def _start(self, path) -> None:
        self.path = Path(path)
        self.records: list[dict] = []
        self._last_epoch: dict = {}

    def _admit(self, record: dict) -> None:
        stage, epoch = record["stage"], record["epoch"]
        last = self._last_epoch.get(stage)
        if last is not None and epoch <= last:
            raise ContractError(
                f"metrics for stage {stage!r} must advance: epoch {epoch} after {last}"
            )
        self._last_epoch[stage] = epoch
        self.records.append(record)

    def append(
        self, stage, epoch: int, loss: float,
        loss_components: dict | None = None, eval_snapshot: dict | None = None,
    ) -> dict:
        record = {
            "stage": stage,
            "epoch": epoch,
            "loss": float(loss),
            "loss_components": dict(loss_components or {}),
            "eval": eval_snapshot,
        }
        self._admit(record)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        return record

    def stage_losses(self, stage) -> list[float]:
        return [r["loss"] for r in self.records if r["stage"] == stage]

    @classmethod
    def read(cls, path) -> "MetricsLog":
        """Load an existing log without modifying its file; a malformed line raises ParseError."""
        log = cls.__new__(cls)
        log._start(path)
        for line_no, line in enumerate(Path(path).read_bytes().splitlines(), start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line.decode("utf-8"))
            except (ValueError, RecursionError):
                record = None
            if not (isinstance(record, dict) and type(record.get("stage")) in (int, str)
                    and type(record.get("epoch")) is int
                    and type(record.get("loss")) in (int, float)):
                raise ParseError("not a UTF-8 JSON object with a string or integer stage, "
                                 "an integer epoch and a numeric loss", line_no, path)
            log._admit(record)
        return log


# -- data loading -----------------------------------------------------------


@dataclass
class CorpusBundle:
    """Loaded data world: vocabulary, teacher table, splits, and similarity set."""

    vocab: VocabSpec
    oracle: OracleSemantics
    train_pairs: list[ParallelPair]
    dev_pairs: list[ParallelPair]
    test_pairs: list[ParallelPair]
    sts_examples: list | None


def read_corpus_dir(corpus_dir) -> tuple[VocabSpec, dict[str, list[ParallelPair]]]:
    """The vocabulary manifest and every split of a generated corpus directory."""
    corpus_dir = Path(corpus_dir)
    manifest = corpus_dir / "vocab.json"
    if not manifest.exists():
        raise ConfigError(f"no vocabulary manifest at {manifest}")
    vocab = VocabSpec.from_manifest(manifest)
    splits = {}
    for name in SPLIT_NAMES:
        path = corpus_dir / f"{name}.tsv"
        if not path.exists():
            raise ConfigError(f"missing corpus split {path}")
        splits[name] = read_parallel_tsv(path, vocab)
    return vocab, splits


def load_corpus(cfg: PipelineConfig) -> CorpusBundle:
    vocab, splits = read_corpus_dir(cfg.corpus_dir)
    if vocab.vocab_size != cfg.assistant.vocab_size:
        raise ConfigError(
            f"corpus vocabulary has {vocab.vocab_size} ids but the assistant "
            f"expects {cfg.assistant.vocab_size}"
        )
    oracle = OracleSemantics.create(vocab, dim=cfg.teacher_dim, seed=cfg.teacher_seed)
    sts = None
    if cfg.sts_path is not None:
        sts = load_sts_tsv(cfg.sts_path, vocab)
    return CorpusBundle(
        vocab=vocab, oracle=oracle,
        train_pairs=splits["train"], dev_pairs=splits["dev"],
        test_pairs=splits["test"], sts_examples=sts,
    )


# -- stage table ------------------------------------------------------------


def _teacher_anchor(batch: ParallelBatch, oracle: OracleSemantics, dtype) -> Tensor:
    vectors = oracle_embed_batch(batch.source_ids, batch.source_mask, oracle)
    return Tensor(vectors.astype(dtype))


def _both_sides(forward, batch: ParallelBatch):
    return (
        forward(batch.source_ids, batch.source_mask),
        forward(batch.target_ids, batch.target_mask),
    )


# Row losses share one signature: the trainable model, the frozen assistant
# (None when no other model is in play), the batch, the teacher, the config.
# They look the loss functions up when called, so a patched module name takes.


def _anchor_loss(model, reference, batch, oracle, cfg):
    """Direct teacher alignment: stage 1, and the student in the baselines."""
    anchor = _teacher_anchor(batch, oracle, model.dtype)
    return loss_anchor_align(anchor, *_both_sides(model.encode, batch))


def _imitate(reference_forward, forward, batch):
    ref_src, ref_tgt = _both_sides(reference_forward, batch)
    out_src, out_tgt = _both_sides(forward, batch)
    return loss_pairwise_align(ref_src, out_src, ref_tgt, out_tgt)


def _embedding_loss(model, reference, batch, oracle, cfg):
    """Stage 2: the student's embedding layer mimics the assistant's."""
    return _imitate(reference.embedding_output, model.embedding_output, batch)


def _imitation_loss(model, reference, batch, oracle, cfg):
    """Stage 3: the whole student imitates the assistant."""
    return _imitate(reference.encode, model.encode, batch)


def _stage4_loss(model, reference, batch, oracle, cfg):
    """Stage 4: contrastive plus distillation loss against the teacher."""
    anchor = _teacher_anchor(batch, oracle, model.dtype)
    out_src, out_tgt = _both_sides(model.encode, batch)
    ce_cfg = CeLossConfig(temperature=cfg.ce_temperature)
    return loss_stage4(anchor, out_src, out_tgt, variant=cfg.variant, ce_cfg=ce_cfg)


@dataclass(frozen=True)
class StageSpec:
    """One row of a training table: what a `run_stage` call trains, and how.

    `stage` picks the config plan that supplies batch size and optimizer; its
    epoch count is used unless `epochs_from` names the plans to sum instead.
    `init` says where the trained model comes from: "fresh" draws it from
    `seed`, "assistant" builds the student from the assistant in play, and
    "continue" keeps the model the previous row trained (or, when a table is
    entered at this row, loads the last checkpoint an earlier row wrote).
    `params` limits training to those parameter names; None trains all.
    """

    stage: int
    role: str
    loss: Callable
    label: int | str
    checkpoint: str
    init: str = "continue"
    seed: str | None = None
    epochs_from: tuple[int, ...] = ()
    params: tuple[str, ...] | None = None

    def plan(self, cfg: PipelineConfig) -> StagePlan:
        plan = cfg.plan(self.stage)
        if self.epochs_from:
            plan = replace(plan, epochs=sum(cfg.plan(k).epochs for k in self.epochs_from))
        return plan


# The staged curriculum; `resume_stage(k)` enters it at row k.
STAGES = (
    StageSpec(1, "assistant", _anchor_loss, 1, "stage1.xdst", init="fresh", seed="assistant-init"),
    StageSpec(
        2, "student", _embedding_loss, 2, "stage2.xdst",
        init="assistant", seed="student-init", params=EMBEDDING_PATH_KEYS,
    ),
    StageSpec(3, "student", _imitation_loss, 3, "stage3.xdst"),
    StageSpec(4, "student", _stage4_loss, 4, "stage4.xdst"),
)

# Baseline: the student starts from the trained assistant (entered at row 2
# when stage1.xdst already exists), imitates it for the stage-2 plus stage-3
# budget, then aligns directly to the teacher.
PRE_DISTILL = (
    replace(STAGES[0], label="pre_distill:assistant"),
    StageSpec(
        3, "student", _imitation_loss, "pre_distill:imitate", "single_predistill.xdst",
        init="assistant", seed="student-init", epochs_from=(2, 3),
    ),
    StageSpec(4, "student", _anchor_loss, "pre_distill:align", "single_predistill.xdst"),
)


# Baseline: a fresh student aligns to the teacher for the whole epoch budget.
RANDOM_INIT = (
    StageSpec(
        4, "student", _anchor_loss, "random_init", "single_random.xdst",
        init="fresh", seed="single-random-init", epochs_from=(1, 2, 3, 4),
    ),
)


# log names of the staged curriculum: a full run, and one resumed stage
METRICS_LOG = "metrics.jsonl"
STAGE_LOG = "metrics_stage{}.jsonl"


# -- training core ----------------------------------------------------------


def _tensor_digests(encoder: SentenceEncoder, names) -> dict[str, bytes]:
    return {name: encoder.params[name].data.tobytes() for name in names}


def _eval_snapshot(model: SentenceEncoder, bundle: CorpusBundle) -> dict | None:
    snapshot = {}
    if len(bundle.dev_pairs) >= 64:
        snapshot["retrieval_acc"] = retrieval_accuracy(model, bundle.dev_pairs)
    if bundle.sts_examples:
        snapshot["spearman"] = sts_evaluate(model, bundle.sts_examples).spearman_rho
    return snapshot or None


def run_stage(
    cfg: PipelineConfig,
    spec: StageSpec,
    models: dict,
    bundle: CorpusBundle,
    log: MetricsLog,
) -> SentenceEncoder:
    """Train one table row in place and append per-epoch records.

    The row's model changes; every other model in play is frozen, and every
    parameter outside the row's trainable set is verified bitwise unchanged
    afterward. The row's checkpoint is rewritten after each epoch, so on a
    numeric abort the file still holds the last finite state.
    """
    plan = spec.plan(cfg)
    trainable = models[spec.role]
    out_path = Path(cfg.out_dir) / spec.checkpoint
    out_path.parent.mkdir(parents=True, exist_ok=True)

    subset = {
        k: v for k, v in trainable.params.items() if spec.params is None or k in spec.params
    }
    if not subset:
        raise ContractError(f"stage {spec.label} found no parameters to train")
    held_names = [k for k in trainable.params if k not in subset]
    held_before = _tensor_digests(trainable, held_names)
    frozen = {role: model for role, model in models.items() if role != spec.role}
    frozen_before = {role: model.checksum() for role, model in frozen.items()}
    for model in frozen.values():
        model.freeze()
    reference = frozen.get("assistant")

    save_checkpoint(trainable, out_path)
    if plan.epochs > 0:
        n_batches = (len(bundle.train_pairs) + plan.batch_size - 1) // plan.batch_size
        optimizer = AdamW(
            params=subset,
            lr=plan.optimizer.lr,
            weight_decay=plan.optimizer.weight_decay,
            warmup_fraction=plan.optimizer.warmup_fraction,
            total_steps=plan.epochs * n_batches,
        )
        all_params = list(trainable.params.values())
        for epoch in range(1, plan.epochs + 1):
            shuffle_seed = derive_seed(cfg.seed, f"shuffle-{spec.label}-epoch{epoch}")
            batches = batch_pairs(
                bundle.train_pairs, cfg.max_seq_len, plan.batch_size, shuffle_seed
            )
            total, total_components = 0.0, {}
            for batch in batches:
                loss = spec.loss(trainable, reference, batch, bundle.oracle, cfg)
                value = loss.item()
                if not np.isfinite(value):
                    raise NumericError(
                        f"stage {spec.label} epoch {epoch}: non-finite loss {value}; "
                        f"last good checkpoint retained at {out_path}"
                    )
                backward(loss.value, params=list(subset.values()))
                optimizer.step()
                zero_grads(all_params)
                total += value * batch.size
                for key, part in loss.components.items():
                    total_components[key] = total_components.get(key, 0.0) + part * batch.size
            n = len(bundle.train_pairs)
            snapshot = _eval_snapshot(trainable, bundle) if cfg.eval_every_epoch else None
            log.append(
                stage=spec.label, epoch=epoch, loss=total / n,
                loss_components={k: v / n for k, v in total_components.items()},
                eval_snapshot=snapshot,
            )
            save_checkpoint(trainable, out_path)

    held_after = _tensor_digests(trainable, held_names)
    changed = [k for k in held_names if held_before[k] != held_after[k]]
    if changed:
        raise ContractError(
            f"stage {spec.label} moved parameters outside its trainable set: {changed}"
        )
    for role, checksum in frozen_before.items():
        if models[role].checksum() != checksum:
            raise ContractError(f"stage {spec.label} modified frozen role {role!r}")
    return trainable


# -- run entry points -------------------------------------------------------


@dataclass
class PipelineResult:
    student: SentenceEncoder
    checkpoint_path: Path
    log: MetricsLog
    sts_report: EvalReport | None = None
    retrieval_report: EvalReport | None = None


def _check_checkpoint_config(
    path: Path, role: str, found: EncoderConfig, expected: EncoderConfig
) -> None:
    """A checkpoint loaded for `role` must hold the model the run's config describes."""
    differing = [
        f"{name} {getattr(found, name)!r} in the file, {getattr(expected, name)!r} in the config"
        for name in asdict(expected) if getattr(found, name) != getattr(expected, name)
    ]
    if differing:
        raise ConfigError(
            f"checkpoint {path} does not match the {role} config: {'; '.join(differing)}"
        )


def _run_table(
    cfg: PipelineConfig, table: tuple[StageSpec, ...], log_name: str, start: int = 0
) -> PipelineResult:
    """Train `table[start:]` in order; rows before `start` supply checkpoints.

    The result holds the model the last row trained, scored on the test
    split and the similarity set when that model is the student.
    """
    bundle = load_corpus(cfg)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    models = {}
    # each role resumes from the last checkpoint a skipped row wrote for it
    for role, name in dict((s.role, s.checkpoint) for s in table[:start]).items():
        path = out_dir / name
        if not path.exists():
            raise ConfigError(
                f"stage {table[start].stage} needs the checkpoint {path} from the previous stage"
            )
        models[role] = load_checkpoint(path)
        _check_checkpoint_config(path, role, models[role].config, getattr(cfg, role))
    log = MetricsLog(out_dir / log_name)
    for spec in table[start:]:
        if spec.init == "fresh":
            models[spec.role] = SentenceEncoder.init(
                getattr(cfg, spec.role), seed=derive_seed(cfg.seed, spec.seed)
            )
        elif spec.init == "assistant":
            models[spec.role] = init_student_from_assistant(
                models["assistant"], getattr(cfg, spec.role), seed=derive_seed(cfg.seed, spec.seed)
            )
        run_stage(cfg, spec, models, bundle, log)

    last = table[-1]
    trained = models[last.role]
    result = PipelineResult(student=trained, checkpoint_path=out_dir / last.checkpoint, log=log)
    if last.role != "student":
        return result
    if bundle.sts_examples:
        result.sts_report = sts_evaluate(trained, bundle.sts_examples)
    if len(bundle.test_pairs) >= 64:
        result.retrieval_report = EvalReport(
            task="retrieval", n_examples=len(bundle.test_pairs),
            retrieval_accuracy=retrieval_accuracy(trained, bundle.test_pairs),
            config=trained.config.to_dict(),
        )
    return result


def run_pipeline(cfg: PipelineConfig) -> PipelineResult:
    """Stages 1 to 4 in order, fresh models, one checkpoint per stage."""
    return _run_table(cfg, STAGES, METRICS_LOG)


def resume_stage(cfg: PipelineConfig, stage: int) -> PipelineResult:
    """Run one numbered stage, loading its prerequisites from earlier checkpoints."""
    if stage not in (1, 2, 3, 4):
        raise ConfigError(f"stage must be 1..4, got {stage}")
    return _run_table(cfg, STAGES[:stage], STAGE_LOG.format(stage), start=stage - 1)


def run_single_stage(cfg: PipelineConfig, mode: str) -> PipelineResult:
    """Comparison baselines that skip the staged curriculum.

    "random_init": a freshly initialized student trains directly against the
    teacher for the full epoch budget of all four stages. "pre_distill": the
    student starts from the trained assistant (running stage 1 first if its
    checkpoint is absent), imitates the assistant, then aligns to the teacher.
    """
    if mode not in ("random_init", "pre_distill"):
        raise ConfigError(f"unknown single-stage mode {mode!r}")
    table = RANDOM_INIT if mode == "random_init" else PRE_DISTILL
    start = 0
    if mode == "pre_distill" and (Path(cfg.out_dir) / PRE_DISTILL[0].checkpoint).exists():
        start = 1
    return _run_table(cfg, table, f"metrics_{mode}.jsonl", start)


@dataclass
class DepthPoint:
    """Sweep sample: one trained baseline at a given layer count."""

    depth: int
    sts: EvalReport
    retrieval: EvalReport


def depth_sweep(cfg: PipelineConfig, depths: list[int]) -> list[DepthPoint]:
    """Train the direct-distillation baseline at each depth and score both tasks.

    Each depth trains the `random_init` row on an otherwise identical student
    with that many distinct layers, no recurrence and no bottleneck (the
    classic direct cross-lingual distillation shape) under `cfg.seed`, then
    reports monolingual STS and cross-lingual retrieval. Depth d writes
    `single_random_d{d}.xdst` and `metrics_random_init_d{d}.jsonl`.
    """
    if not depths:
        raise ContractError("depth_sweep needs at least one depth")
    points = []
    for depth in depths:
        flat = replace(cfg, student=replace(
            cfg.student, distinct_layers=depth, recurrence_count=1,
            bottleneck_enabled=False, bottleneck_size=None,
        ))
        row = replace(RANDOM_INIT[0], checkpoint=f"single_random_d{depth}.xdst")
        result = _run_table(flat, (row,), f"metrics_random_init_d{depth}.jsonl")
        points.append(
            DepthPoint(depth=depth, sts=result.sts_report, retrieval=result.retrieval_report)
        )
    return points
