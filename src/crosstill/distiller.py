"""Estimator-style facade over the staged distillation pipeline.

MultiStageDistiller follows the scikit-learn parameter protocol: the
constructor only records hyperparameters, `fit` trains the four stages on a
generated corpus directory, and fitted state lives in trailing-underscore
attributes. `transform` embeds token-id sentences with the trained student.
"""

from __future__ import annotations

import inspect
from dataclasses import replace
from pathlib import Path

import numpy as np

from .encoder import EncoderConfig
from .errors import ConfigError, ContractError
from .evaluate import embed_sentences
from .pipeline import PipelineConfig, default_stage_plans, run_pipeline, toy_config


class MultiStageDistiller:
    """Train a compact bilingual student encoder with the staged curriculum.

    `corpus_dir` must hold a generated corpus (train/dev/test TSVs plus
    vocab.json). `assistant_config`/`student_config` accept EncoderConfig
    instances or their dict form; when omitted, the small-world defaults are
    used, which expect the default 512-tokens-per-language corpus.
    """

    def __init__(
        self,
        corpus_dir=None,
        out_dir=None,
        sts_path=None,
        seed: int = 42,
        variant: str = "mcl",
        epochs: tuple = (5, 5, 5, 15),
        batch_size: int = 64,
        lr: float = 2e-3,
        teacher_dim: int = 64,
        teacher_seed: int = 0,
        max_seq_len: int = 16,
        assistant_config=None,
        student_config=None,
        eval_every_epoch: bool = True,
    ):
        self.corpus_dir = corpus_dir
        self.out_dir = out_dir
        self.sts_path = sts_path
        self.seed = seed
        self.variant = variant
        self.epochs = epochs
        self.batch_size = batch_size
        self.lr = lr
        self.teacher_dim = teacher_dim
        self.teacher_seed = teacher_seed
        self.max_seq_len = max_seq_len
        self.assistant_config = assistant_config
        self.student_config = student_config
        self.eval_every_epoch = eval_every_epoch

    # -- scikit-learn parameter protocol -----------------------------------

    @classmethod
    def _param_names(cls) -> list[str]:
        return list(inspect.signature(cls.__init__).parameters)[1:]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params) -> "MultiStageDistiller":
        names = self._param_names()
        for name, value in params.items():
            if name not in names:
                raise ConfigError(
                    f"unknown parameter {name!r}; valid: {', '.join(names)}"
                )
            setattr(self, name, value)
        return self

    # -- configuration ------------------------------------------------------

    @staticmethod
    def _coerce_encoder(value) -> EncoderConfig | None:
        if value is None or isinstance(value, EncoderConfig):
            return value
        if isinstance(value, dict):
            return EncoderConfig.from_dict(value)
        raise ConfigError("encoder config must be an EncoderConfig or a dict")

    def build_config(self) -> PipelineConfig:
        if self.corpus_dir is None:
            raise ConfigError("corpus_dir is required; generate a corpus first")
        if len(self.epochs) != 4:
            raise ConfigError("epochs must list one count per stage, e.g. (5, 5, 5, 15)")
        out_dir = Path(self.corpus_dir) / "run" if self.out_dir is None else self.out_dir
        base = toy_config(self.corpus_dir, out_dir, sts_path=self.sts_path, seed=self.seed)
        return replace(
            base,
            assistant=self._coerce_encoder(self.assistant_config) or base.assistant,
            student=self._coerce_encoder(self.student_config) or base.student,
            teacher_dim=self.teacher_dim,
            teacher_seed=self.teacher_seed,
            max_seq_len=self.max_seq_len,
            variant=self.variant,
            stages=default_stage_plans(
                epochs=tuple(self.epochs), batch_size=self.batch_size, lr=self.lr
            ),
            eval_every_epoch=self.eval_every_epoch,
        )

    # -- estimator surface ---------------------------------------------------

    def fit(self, X=None, y=None) -> "MultiStageDistiller":
        """Run all four stages. `X` may name a corpus directory, overriding
        the constructor's `corpus_dir`; `y` is ignored."""
        if X is not None:
            self.corpus_dir = X
        self.config_ = self.build_config()
        self.result_ = run_pipeline(self.config_)
        self.student_ = self.result_.student
        return self

    def _require_fitted(self):
        if not hasattr(self, "student_"):
            raise ContractError("this distiller is not fitted; call fit first")

    def transform(self, X) -> np.ndarray:
        """Embed sentences (sequences of token ids) with the trained student."""
        self._require_fitted()
        sentences = [np.asarray(s, dtype=np.int64) for s in X]
        return embed_sentences(self.student_, sentences)

    def fit_transform(self, X=None, y=None, sentences=None) -> np.ndarray:
        self.fit(X, y)
        if sentences is None:
            raise ConfigError("fit_transform needs `sentences` to embed after training")
        return self.transform(sentences)

    def score(self, X=None, y=None) -> float:
        """Held-out cross-lingual retrieval accuracy of the trained student."""
        self._require_fitted()
        report = self.result_.retrieval_report
        if report is None:
            raise ContractError(
                "no retrieval report: the test split is smaller than one block"
            )
        return report.retrieval_accuracy

    def sts_rho(self) -> float:
        """Spearman correlation on the configured similarity set."""
        self._require_fitted()
        if self.result_.sts_report is None:
            raise ContractError("no similarity report: configure sts_path before fit")
        return self.result_.sts_report.spearman_rho
