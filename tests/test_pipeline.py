"""Staged-training driver tests at micro scale.

The fixture world is deliberately tiny (vocab 48 per language, hidden 16,
one-epoch schedules) so every structural property of the driver is exercised
in seconds; the full-scale end-to-end properties live in the acceptance
suite.
"""

import json
import multiprocessing
import os
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crosstill.autodiff import Tensor, second_thread_free
from crosstill.checkpoint import load_checkpoint
from crosstill.corpus import OracleSemantics, VocabSpec, batch_pairs, gen_parallel_corpus, gen_sts_set
from crosstill.encoder import EncoderConfig, SentenceEncoder, init_student_from_assistant
from crosstill.errors import ConfigError, ContractError, NumericError, ParseError
from crosstill.losses import LossValue
import crosstill.pipeline
from crosstill.pipeline import (
    EMBEDDING_PATH_KEYS,
    PRE_DISTILL,
    RANDOM_INIT,
    STAGES,
    CorpusBundle,
    MetricsLog,
    PipelineConfig,
    StagePlan,
    default_stage_plans,
    depth_sweep,
    derive_seed,
    load_corpus,
    resume_stage,
    run_pipeline,
    run_single_stage,
    run_stage,
    toy_config,
)

K = 48
VOCAB_SIZE = 4 + 2 * K


def micro_assistant() -> EncoderConfig:
    return EncoderConfig(
        vocab_size=VOCAB_SIZE, hidden=16, ffn_size=32, heads=2,
        distinct_layers=2, recurrence_count=1, max_positions=12,
    )


def micro_student() -> EncoderConfig:
    return EncoderConfig(
        vocab_size=VOCAB_SIZE, hidden=16, ffn_size=32, heads=2,
        distinct_layers=1, recurrence_count=2,
        bottleneck_size=8, max_positions=12,
    )


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("micro-corpus")
    vocab = VocabSpec.create(tokens_per_language=K, seed=3)
    gen_parallel_corpus(
        seed=3, n_pairs=500, vocab=vocab, out_dir=root,
        length_range=(5, 5), splits=(0.5, 0.2, 0.3),
    )
    oracle = OracleSemantics.create(vocab, dim=16, seed=0)
    gen_sts_set(seed=4, n_examples=40, oracle=oracle, out_path=root / "sts.tsv",
                length_range=(5, 5))
    return root


def micro_cfg(corpus_dir, out_dir, **overrides) -> PipelineConfig:
    base = dict(
        corpus_dir=str(corpus_dir), out_dir=str(out_dir),
        assistant=micro_assistant(), student=micro_student(),
        sts_path=str(corpus_dir / "sts.tsv"), seed=11,
        stages=default_stage_plans(epochs=(1, 1, 1, 1), batch_size=50),
    )
    base.update(overrides)
    return PipelineConfig(**base)


class TestPlans:
    def test_roles_and_losses_fixed_by_stage(self):
        assert [s.stage for s in STAGES] == [1, 2, 3, 4]
        assert [s.role for s in STAGES] == ["assistant", "student", "student", "student"]
        assert [s.init for s in STAGES] == ["fresh", "assistant", "continue", "continue"]
        assert [s.params for s in STAGES] == [None, EMBEDDING_PATH_KEYS, None, None]
        assert [s.checkpoint for s in STAGES] == [f"stage{k}.xdst" for k in (1, 2, 3, 4)]
        assert len({s.loss for s in STAGES}) == 4
        # the baselines reuse stage 1's direct alignment and stage 3's imitation
        assert [s.loss for s in PRE_DISTILL] == [STAGES[0].loss, STAGES[2].loss, STAGES[0].loss]
        assert RANDOM_INIT[0].loss is STAGES[0].loss

    def test_default_epoch_ratio(self):
        plans = default_stage_plans()
        assert [p.epochs for p in plans] == [5, 5, 5, 15]
        assert plans[3].epochs == 3 * plans[0].epochs

    def test_plan_validation(self):
        with pytest.raises(ConfigError, match="epochs"):
            StagePlan(epochs=-1)
        with pytest.raises(ConfigError, match="batch_size"):
            StagePlan(epochs=1, batch_size=0)

    def test_plan_round_trip(self, corpus_dir, tmp_path):
        stages = list(default_stage_plans(epochs=(1, 1, 1, 1), batch_size=50))
        stages[1] = StagePlan(epochs=7, batch_size=16)
        cfg = micro_cfg(corpus_dir, tmp_path, stages=tuple(stages))
        again = PipelineConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again.plan(2) == stages[1]


def _set(path, value):
    def edit(raw):
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return raw
    return edit


def _drop(key):
    def edit(raw):
        del raw[key]
        return raw
    return edit


# (edit of a valid config dict, section path the ConfigError must name)
MALFORMED_CONFIGS = [
    # every stage trains with the same AdamW settings; there is no optimizer section
    pytest.param(_set(("stages", 0, "optimizer"), {"momentum": 0.9}),
                 "unknown config fields in stages[0]: ['optimizer']", id="unknown-optimizer-key"),
    pytest.param(_set(("stages", 0, "optimizer"), {"lr": float("nan")}),
                 "unknown config fields in stages[0]: ['optimizer']", id="lr-nan"),
    pytest.param(_set(("stages", 1, "optimizer"), {"weight_decay": float("nan")}),
                 "unknown config fields in stages[1]: ['optimizer']", id="weight-decay-nan"),
    pytest.param(_set(("stages", 3, "optimizer"), {"warmup_fraction": -5}),
                 "unknown config fields in stages[3]: ['optimizer']", id="warmup-fraction-negative"),
    pytest.param(_set(("stages", 0, "epochs"), "five"), "stages[0].epochs", id="epochs-string"),
    pytest.param(_set(("stages", 3, "epoch"), 30), "stages[3]", id="unknown-stage-key"),
    pytest.param(_set(("student", "hidden"), "64"), "student.hidden", id="hidden-string"),
    pytest.param(_set(("stages",), [1, 2, 3, 4]), "stages[0]", id="stages-of-ints"),
    pytest.param(lambda raw: [raw], "config", id="top-level-list"),
    pytest.param(_set(("student",), None), "student", id="student-null"),
    pytest.param(_set(("seed",), "x"), "seed", id="seed-string"),
    pytest.param(_set(("seed",), True), "seed", id="seed-bool"),
    pytest.param(_set(("stages",), {}), "stages", id="stages-object"),
    pytest.param(_drop("assistant"), "missing required fields: ['assistant']", id="missing-assistant"),
    pytest.param(_set(("stages", 2, "batch_size"), 0), "stages[2]: batch_size",
                 id="post-init-check"),
    # JSON's NaN and Infinity parse as floats; in an int field they name the field
    pytest.param(_set(("stages", 0, "epochs"), float("nan")), "stages[0].epochs must be finite",
                 id="epochs-nan"),
    pytest.param(_set(("seed",), float("inf")), "seed must be finite", id="seed-inf"),
    # the layer-norm epsilon and the CE temperature are constants, not fields
    pytest.param(_set(("student", "layernorm_eps"), float("nan")),
                 "unknown encoder config fields in student: ['layernorm_eps']",
                 id="layernorm-eps-nan"),
    pytest.param(_set(("ce_temperature",), float("inf")),
                 "unknown config fields: ['ce_temperature']", id="ce-temperature-inf"),
    pytest.param(_set(("stages",), []), "config: stages must hold exactly four plans",
                 id="stages-empty"),
    # settings derived from other fields: teacher width, sequence length, stage number
    pytest.param(_set(("teacher_dim",), 64), "unknown config fields: ['teacher_dim']",
                 id="teacher-dim-field"),
    # the teacher is the one the similarity sets are scored by
    pytest.param(_set(("teacher_seed",), 0), "unknown config fields: ['teacher_seed']",
                 id="teacher-seed-field"),
    pytest.param(_set(("max_seq_len",), 16), "unknown config fields: ['max_seq_len']",
                 id="max-seq-len-field"),
    pytest.param(_set(("stages", 0, "stage"), 1), "unknown config fields in stages[0]: ['stage']",
                 id="stage-number-field"),
    pytest.param(_set(("student", "bottleneck_enabled"), True),
                 "unknown encoder config fields in student: ['bottleneck_enabled']",
                 id="bottleneck-enabled-field"),
    # per-epoch evaluation is always on
    pytest.param(_set(("eval_every_epoch",), False), "unknown config fields: ['eval_every_epoch']",
                 id="eval-every-epoch-field"),
]


class TestPipelineConfig:
    def test_stage_order_enforced(self, corpus_dir, tmp_path):
        plans = default_stage_plans()
        for wrong in (plans[:3], plans + plans[:1]):
            with pytest.raises(ConfigError, match="exactly four plans"):
                micro_cfg(corpus_dir, tmp_path, stages=wrong)
        # position k-1 is stage k
        cfg = micro_cfg(corpus_dir, tmp_path, stages=plans[::-1])
        assert [cfg.plan(k).epochs for k in (1, 2, 3, 4)] == [15, 5, 5, 5]

    def test_variant_checked(self, corpus_dir, tmp_path):
        with pytest.raises(ConfigError, match="variant"):
            micro_cfg(corpus_dir, tmp_path, variant="smooth")

    def test_round_trip_and_unknown_fields(self, corpus_dir, tmp_path):
        cfg = micro_cfg(corpus_dir, tmp_path)
        again = PipelineConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg
        bad = cfg.to_dict()
        bad["warp_factor"] = 9
        with pytest.raises(ConfigError, match="unknown config fields"):
            PipelineConfig.from_dict(bad)
        bad2 = cfg.to_dict()
        bad2["student"]["extra_knob"] = 1
        with pytest.raises(ConfigError, match="unknown encoder config fields"):
            PipelineConfig.from_dict(bad2)

    def test_toy_config_shape(self, tmp_path):
        cfg = toy_config(tmp_path / "c", tmp_path / "o")
        assert cfg.student.bottleneck_enabled
        assert cfg.student.effective_depth == 4
        assert cfg.assistant.distinct_layers == 4
        assert cfg.seed == 42
        assert cfg.max_seq_len == 16

    def test_toy_config_json_is_pinned(self):
        text = json.dumps(toy_config("c", "o", sts_path="s.tsv").to_dict(), indent=2)
        assert text == TOY_CONFIG_JSON

    @pytest.mark.parametrize("edit, where", MALFORMED_CONFIGS)
    def test_malformed_config_raises_config_error(self, edit, where):
        raw = edit(toy_config("c", "o").to_dict())
        with pytest.raises(ConfigError, match=re.escape(where)):
            PipelineConfig.from_dict(raw)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_FIELD_NAMES = sorted({
    f.name for cls in (PipelineConfig, EncoderConfig, StagePlan) for f in fields(cls)
})
# (operation, which section, which key, key to insert, new value)
_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["delete", "insert", "swap"]),
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=50),
        st.sampled_from(_FIELD_NAMES) | st.text(max_size=4),
        _JSON_VALUES,
    ),
    min_size=1, max_size=4,
)


def _sections(node) -> list:
    """Every object and list in a config tree, root first."""
    found = [node]
    for child in node.values() if isinstance(node, dict) else node:
        if isinstance(child, (dict, list)):
            found.extend(_sections(child))
    return found


@settings(max_examples=300, deadline=None)
@given(edits=_EDITS)
def test_fuzzed_config_builds_or_raises_config_error(edits):
    raw = toy_config("c", "o", sts_path="s.tsv").to_dict()
    for op, which, index, key, value in edits:
        sections = _sections(raw)
        node = sections[which % len(sections)]
        if op == "insert":
            if isinstance(node, dict):
                node[key] = value
            else:
                node.insert(index % (len(node) + 1), value)
        elif node:
            keys = list(node) if isinstance(node, dict) else range(len(node))
            chosen = keys[index % len(keys)]
            if op == "delete":
                del node[chosen]
            else:
                node[chosen] = value
    try:
        PipelineConfig.from_dict(raw)
    except ConfigError:
        pass


TOY_CONFIG_JSON = """\
{
  "corpus_dir": "c",
  "out_dir": "o",
  "assistant": {
    "vocab_size": 1028,
    "hidden": 64,
    "ffn_size": 128,
    "heads": 4,
    "distinct_layers": 4,
    "recurrence_count": 1,
    "bottleneck_size": null,
    "max_positions": 16
  },
  "student": {
    "vocab_size": 1028,
    "hidden": 64,
    "ffn_size": 128,
    "heads": 4,
    "distinct_layers": 2,
    "recurrence_count": 2,
    "bottleneck_size": 16,
    "max_positions": 16
  },
  "sts_path": "s.tsv",
  "seed": 42,
  "variant": "mcl",
  "stages": [
    {
      "epochs": 5,
      "batch_size": 64
    },
    {
      "epochs": 5,
      "batch_size": 64
    },
    {
      "epochs": 5,
      "batch_size": 64
    },
    {
      "epochs": 15,
      "batch_size": 64
    }
  ]
}"""


class TestMetricsLog:
    def test_append_read_round_trip(self, tmp_path):
        log = MetricsLog(tmp_path / "m.jsonl")
        log.append(stage=1, epoch=1, loss=0.5, loss_components={"source": 0.3},
                   eval_snapshot={"retrieval_acc": 0.1})
        log.append(stage=1, epoch=2, loss=0.4)
        log.append(stage=2, epoch=1, loss=0.9)
        back = MetricsLog.read(tmp_path / "m.jsonl")
        assert back.records == log.records
        assert back.stage_losses(1) == [0.5, 0.4]

    def test_records_carry_no_clock(self, tmp_path):
        log = MetricsLog(tmp_path / "m.jsonl")
        record = log.append(stage=1, epoch=1, loss=0.5)
        assert set(record) == {"stage", "epoch", "loss", "loss_components", "eval"}

    def test_duplicate_epoch_rejected(self, tmp_path):
        log = MetricsLog(tmp_path / "m.jsonl")
        log.append(stage=1, epoch=1, loss=0.5)
        with pytest.raises(ContractError, match="advance"):
            log.append(stage=1, epoch=1, loss=0.4)

    def test_backward_epoch_rejected(self, tmp_path):
        log = MetricsLog(tmp_path / "m.jsonl")
        log.append(stage=1, epoch=3, loss=0.5)
        with pytest.raises(ContractError, match="advance"):
            log.append(stage=1, epoch=2, loss=0.4)

    @pytest.mark.parametrize("line", [
        "not json", '{"epoch": 1}', "[1]", "\udcff",
        '{"stage": 1, "epoch": 2, "loss": NaN}', '{"stage": 1, "epoch": 2, "loss": -Infinity}',
    ], ids=["not-json", "missing-keys", "list", "not-utf8", "nan-loss", "infinite-loss"])
    def test_malformed_line_raises_parse_error(self, tmp_path, line):
        path = tmp_path / "m.jsonl"
        path.write_bytes(
            b'{"stage": 1, "epoch": 1, "loss": 0.5}\n'
            + line.encode("utf-8", "surrogateescape") + b"\n"
        )
        with pytest.raises(ParseError) as info:
            MetricsLog.read(path)
        assert info.value.line == 2
        assert str(info.value).startswith(f"{path}: line 2: ")

    @pytest.mark.parametrize("line", [
        '{"stage": 1, "epoch": 2, "loss": 0.5, "loss_components": {"source": NaN}}',
        '{"stage": 1, "epoch": 2, "loss": 0.5, "eval": {"spearman": -Infinity}}',
        '{"stage": 1, "epoch": 2, "loss": 0.5, "eval": {"retrieval_acc": 1e999}}',
    ], ids=["nan-component", "infinite-eval", "overflowing-eval"])
    def test_non_finite_number_anywhere_raises_parse_error(self, tmp_path, line):
        path = tmp_path / "m.jsonl"
        path.write_text('{"stage": 1, "epoch": 1, "loss": 0.5}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match="non-finite") as info:
            MetricsLog.read(path)
        assert info.value.line == 2

    @pytest.mark.parametrize("record", [
        dict(loss=float("nan")),
        dict(loss=0.5, loss_components={"source": float("inf")}),
        dict(loss=0.5, eval_snapshot={"spearman": float("-inf")}),
    ], ids=["nan-loss", "infinite-component", "infinite-eval"])
    def test_non_finite_value_rejected_before_writing(self, tmp_path, record):
        path = tmp_path / "m.jsonl"
        log = MetricsLog(path)
        log.append(stage=1, epoch=1, loss=0.5)
        before = path.read_bytes()
        with pytest.raises(ContractError, match="non-finite"):
            log.append(stage=1, epoch=2, **record)
        assert path.read_bytes() == before and len(log.records) == 1
        log.append(stage=1, epoch=2, loss=0.4)
        assert MetricsLog.read(path).records == log.records

    def test_fresh_truncates(self, tmp_path):
        path = tmp_path / "m.jsonl"
        MetricsLog(path).append(stage=1, epoch=1, loss=0.5)
        log = MetricsLog(path)
        assert log.records == []
        assert path.read_text() == ""


class TestLoadCorpus:
    def test_loads_splits_and_sts(self, corpus_dir, tmp_path):
        bundle = load_corpus(micro_cfg(corpus_dir, tmp_path))
        assert len(bundle.train_pairs) == 250
        assert len(bundle.dev_pairs) == 100
        assert len(bundle.test_pairs) == 150
        assert len(bundle.sts_examples) == 40
        assert bundle.oracle.dim == 16

    def test_missing_manifest(self, tmp_path):
        cfg = micro_cfg(tmp_path, tmp_path / "out", sts_path=None)
        with pytest.raises(ConfigError, match="manifest"):
            load_corpus(cfg)

    def test_vocab_size_mismatch(self, corpus_dir, tmp_path):
        wrong = replace(micro_assistant(), vocab_size=4 + 2 * 50)
        cfg = micro_cfg(corpus_dir, tmp_path, assistant=wrong,
                        student=replace(micro_student(), vocab_size=4 + 2 * 50))
        with pytest.raises(ConfigError, match="vocabulary"):
            load_corpus(cfg)

    def test_vocab_size_mismatch_found_before_splits_are_read(self, corpus_dir, tmp_path):
        corrupt = tmp_path / "corrupt"
        corrupt.mkdir()
        for name in ("vocab.json", "dev.tsv", "test.tsv"):
            (corrupt / name).write_bytes((corpus_dir / name).read_bytes())
        (corrupt / "train.tsv").write_bytes(b"l1_1\t\xff\n")
        with pytest.raises(ParseError, match="train.tsv"):
            load_corpus(micro_cfg(corrupt, tmp_path / "out", sts_path=None))
        wrong = replace(micro_assistant(), vocab_size=4 + 2 * 50)
        cfg = micro_cfg(corrupt, tmp_path / "out", sts_path=None, assistant=wrong,
                        student=replace(micro_student(), vocab_size=4 + 2 * 50))
        with pytest.raises(ConfigError, match="vocabulary"):
            load_corpus(cfg)

    def test_missing_split(self, corpus_dir, tmp_path):
        partial = tmp_path / "partial"
        partial.mkdir()
        (partial / "vocab.json").write_bytes((corpus_dir / "vocab.json").read_bytes())
        (partial / "train.tsv").write_bytes((corpus_dir / "train.tsv").read_bytes())
        cfg = micro_cfg(partial, tmp_path / "out", sts_path=None)
        with pytest.raises(ConfigError, match="split"):
            load_corpus(cfg)


class TestRunStage:
    def test_zero_epochs_changes_nothing(self, corpus_dir, tmp_path):
        cfg = micro_cfg(corpus_dir, tmp_path)
        bundle = load_corpus(cfg)
        assistant = SentenceEncoder.init(cfg.assistant, seed=1)
        before = assistant.checksum()
        log = MetricsLog(tmp_path / "m.jsonl")
        cfg = replace(cfg, stages=default_stage_plans(epochs=(0, 1, 1, 1), batch_size=50))
        run_stage(cfg, STAGES[0], {"assistant": assistant}, bundle, log)
        assert assistant.checksum() == before
        assert log.records == []
        saved = load_checkpoint(tmp_path / "stage1.xdst")
        assert saved.checksum() == before

    def test_stage3_exact_copy_is_fixed_point(self, corpus_dir, tmp_path):
        cfg = micro_cfg(corpus_dir, tmp_path)
        bundle = load_corpus(cfg)
        assistant = SentenceEncoder.init(cfg.assistant, seed=5)
        twin_cfg = replace(cfg.assistant)
        student = init_student_from_assistant(assistant, twin_cfg, seed=6)
        batch = batch_pairs(bundle.train_pairs[:32], cfg.max_seq_len, 32)[0]
        loss = STAGES[2].loss(student, assistant.freeze(), batch, bundle.oracle, cfg)
        assert loss.item() == 0.0

    def test_stage2_moves_only_embedding_path(self, corpus_dir, tmp_path):
        cfg = micro_cfg(corpus_dir, tmp_path)
        bundle = load_corpus(cfg)
        assistant = SentenceEncoder.init(cfg.assistant, seed=7).freeze()
        student = init_student_from_assistant(assistant, cfg.student, seed=8)
        before = {k: p.data.copy() for k, p in student.params.items()}
        assistant_sum = assistant.checksum()
        log = MetricsLog(tmp_path / "m.jsonl")
        run_stage(cfg, STAGES[1], {"assistant": assistant, "student": student}, bundle, log)
        for name, old in before.items():
            changed = not np.array_equal(old, student.params[name].data)
            assert changed == (name in EMBEDDING_PATH_KEYS), name
        assert assistant.checksum() == assistant_sum

    def test_nan_loss_aborts_and_keeps_checkpoint(self, corpus_dir, tmp_path, monkeypatch):
        cfg = micro_cfg(corpus_dir, tmp_path)
        bundle = load_corpus(cfg)
        assistant = SentenceEncoder.init(cfg.assistant, seed=9)
        before = assistant.checksum()
        log = MetricsLog(tmp_path / "m.jsonl")

        def poisoned(anchor, out_src, out_tgt):
            return LossValue(value=Tensor(np.float32(np.nan)), components={})

        monkeypatch.setattr(crosstill.pipeline, "loss_anchor_align", poisoned)
        with pytest.raises(NumericError, match="non-finite"):
            run_stage(cfg, STAGES[0], {"assistant": assistant}, bundle, log)
        retained = load_checkpoint(tmp_path / "stage1.xdst")
        assert retained.checksum() == before

    def test_eval_snapshot_recorded_when_enabled(self, corpus_dir, tmp_path):
        cfg = micro_cfg(corpus_dir, tmp_path)
        bundle = load_corpus(cfg)
        assistant = SentenceEncoder.init(cfg.assistant, seed=10)
        log = MetricsLog(tmp_path / "m.jsonl")
        run_stage(cfg, STAGES[0], {"assistant": assistant}, bundle, log)
        snapshot = log.records[0]["eval"]
        assert 0.0 <= snapshot["retrieval_acc"] <= 1.0
        assert -1.0 <= snapshot["spearman"] <= 1.0


class TestRunPipeline:
    def test_artifacts_and_log(self, corpus_dir, tmp_path):
        cfg = micro_cfg(corpus_dir, tmp_path)
        result = run_pipeline(cfg)
        for k in (1, 2, 3, 4):
            assert (tmp_path / f"stage{k}.xdst").exists()
        assert (tmp_path / "metrics.jsonl").exists()
        stages = [r["stage"] for r in result.log.records]
        assert stages == [1, 2, 3, 4]
        assert all(np.isfinite(r["loss"]) for r in result.log.records)
        reloaded = load_checkpoint(result.checkpoint_path)
        assert reloaded.checksum() == result.student.checksum()
        assert result.sts_report is not None
        # the 150 test pairs hold two full 64-pair blocks; only those are scored
        assert result.retrieval_report.n_examples == 128

    def test_assistant_untouched_after_stage1(self, corpus_dir, tmp_path):
        cfg = micro_cfg(corpus_dir, tmp_path)
        run_pipeline(cfg)
        stage1_assistant = load_checkpoint(tmp_path / "stage1.xdst")
        fresh = SentenceEncoder.init(
            cfg.assistant, seed=derive_seed(cfg.seed, "assistant-init")
        )
        assert stage1_assistant.checksum() != fresh.checksum()

    def test_identical_runs_identical_checkpoints(self, corpus_dir, tmp_path):
        a = run_pipeline(micro_cfg(corpus_dir, tmp_path / "a"))
        b = run_pipeline(micro_cfg(corpus_dir, tmp_path / "b"))
        assert a.student.checksum() == b.student.checksum()
        assert (tmp_path / "a/stage4.xdst").read_bytes() == (tmp_path / "b/stage4.xdst").read_bytes()

    def test_variant_none_total_is_distillation_only(self, corpus_dir, tmp_path):
        cfg = micro_cfg(corpus_dir, tmp_path, variant="none")
        result = run_pipeline(cfg)
        final = [r for r in result.log.records if r["stage"] == 4][-1]
        assert final["loss_components"]["contrastive"] == 0.0
        assert final["loss"] == pytest.approx(final["loss_components"]["kd"], rel=1e-6)


class TestSideWorker:
    """The side worker a training run forks never outlives the run."""

    @staticmethod
    def assert_no_child_left():
        assert multiprocessing.active_children() == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.fixture
    def started(self, monkeypatch):
        """The side workers started, counted; on two CPUs at least one must."""
        workers = []

        class Counted(crosstill.pipeline._SideWorker):
            def __init__(self, configs):
                super().__init__(configs)
                workers.append(self)

        monkeypatch.setattr(crosstill.pipeline, "_SideWorker", Counted)
        yield workers
        if second_thread_free():
            assert workers

    def test_no_child_outlives_a_run(self, corpus_dir, tmp_path, started):
        result = run_pipeline(micro_cfg(corpus_dir, tmp_path))
        assert result.retrieval_report is not None
        self.assert_no_child_left()
        # one worker for the whole run
        assert len(started) == (1 if second_thread_free() else 0)

    def test_no_child_outlives_a_single_stage_run(self, corpus_dir, tmp_path, started):
        run_single_stage(micro_cfg(corpus_dir, tmp_path), "random_init")
        self.assert_no_child_left()

    def test_no_child_outlives_a_non_finite_loss(self, corpus_dir, tmp_path, started,
                                                 monkeypatch):
        cfg = micro_cfg(corpus_dir, tmp_path)
        calls = []

        def poisoned_on_the_third_step(anchor, out_src, out_tgt):
            calls.append(None)
            return LossValue(value=Tensor(np.float32(np.nan if len(calls) == 3 else 0.5)))

        monkeypatch.setattr(crosstill.pipeline, "loss_anchor_align", poisoned_on_the_third_step)
        with pytest.raises(NumericError, match="non-finite loss.*last good checkpoint retained"):
            run_pipeline(cfg)
        self.assert_no_child_left()
        # the stage's first checkpoint, written before its first step
        fresh = SentenceEncoder.init(cfg.assistant, seed=derive_seed(cfg.seed, "assistant-init"))
        assert load_checkpoint(tmp_path / "stage1.xdst").checksum() == fresh.checksum()

    def test_no_child_outlives_an_interrupt(self, corpus_dir, tmp_path, started, monkeypatch):
        steps = []
        step = crosstill.pipeline.AdamW.step

        def interrupted_on_the_fourth_step(optimizer):
            steps.append(None)
            if len(steps) == 4:
                raise KeyboardInterrupt
            return step(optimizer)

        monkeypatch.setattr(crosstill.pipeline.AdamW, "step", interrupted_on_the_fourth_step)
        with pytest.raises(KeyboardInterrupt):
            run_pipeline(micro_cfg(corpus_dir, tmp_path))
        self.assert_no_child_left()


class TestResumeStage:
    def test_missing_prerequisite_rejected(self, corpus_dir, tmp_path):
        cfg = micro_cfg(corpus_dir, tmp_path)
        with pytest.raises(ConfigError, match="previous stage"):
            resume_stage(cfg, 3)

    def test_single_numbered_stage_runs(self, corpus_dir, tmp_path):
        cfg = micro_cfg(corpus_dir, tmp_path)
        resume_stage(cfg, 1)
        result2 = resume_stage(cfg, 2)
        assert (tmp_path / "stage2.xdst").exists()
        assert [r["stage"] for r in result2.log.records] == [2]
        result3 = resume_stage(cfg, 3)
        assert result3.student.config.bottleneck_enabled

    def test_resume_chain_equals_one_run(self, corpus_dir, tmp_path):
        epochs = default_stage_plans(epochs=(1, 2, 1, 2), batch_size=50)
        full = run_pipeline(micro_cfg(corpus_dir, tmp_path / "full", stages=epochs))
        chain = micro_cfg(corpus_dir, tmp_path / "chain", stages=epochs)
        records = []
        for k in (1, 2, 3, 4):
            records += resume_stage(chain, k).log.records
            name = f"stage{k}.xdst"
            assert (tmp_path / "chain" / name).read_bytes() == (tmp_path / "full" / name).read_bytes()
        assert records == full.log.records

    def test_bad_stage_number(self, corpus_dir, tmp_path):
        with pytest.raises(ConfigError, match="1..4"):
            resume_stage(micro_cfg(corpus_dir, tmp_path), 5)


class TestRunSingleStage:
    def test_unknown_mode(self, corpus_dir, tmp_path):
        with pytest.raises(ConfigError, match="mode"):
            run_single_stage(micro_cfg(corpus_dir, tmp_path), "shortcut")

    def test_zero_epoch_pre_distill_equals_student_init(self, corpus_dir, tmp_path):
        cfg = micro_cfg(corpus_dir, tmp_path,
                        stages=default_stage_plans(epochs=(0, 0, 0, 0), batch_size=50))
        result = run_single_stage(cfg, "pre_distill")
        assistant = SentenceEncoder.init(
            cfg.assistant, seed=derive_seed(cfg.seed, "assistant-init")
        )
        expected = init_student_from_assistant(
            assistant, cfg.student, seed=derive_seed(cfg.seed, "student-init")
        )
        assert result.student.checksum() == expected.checksum()

    def test_pre_distill_from_scratch_schedule(self, corpus_dir, tmp_path):
        cfg = micro_cfg(corpus_dir, tmp_path,
                        stages=default_stage_plans(epochs=(1, 2, 1, 2), batch_size=50))
        result = run_single_stage(cfg, "pre_distill")
        labels = [(r["stage"], r["epoch"]) for r in result.log.records]
        assert labels == (
            [("pre_distill:assistant", 1)]
            + [("pre_distill:imitate", e) for e in (1, 2, 3)]
            + [("pre_distill:align", e) for e in (1, 2)]
        )
        assert result.checkpoint_path == tmp_path / "single_predistill.xdst"
        assert load_checkpoint(result.checkpoint_path).checksum() == result.student.checksum()

    def test_random_init_uses_full_epoch_budget(self, corpus_dir, tmp_path):
        cfg = micro_cfg(corpus_dir, tmp_path,
                        stages=default_stage_plans(epochs=(1, 1, 1, 2), batch_size=50))
        result = run_single_stage(cfg, "random_init")
        labels = [(r["stage"], r["epoch"]) for r in result.log.records]
        assert labels == [("random_init", e) for e in range(1, 6)]
        assert result.checkpoint_path.name == "single_random.xdst"

    def test_pre_distill_reuses_existing_stage1(self, corpus_dir, tmp_path):
        cfg = micro_cfg(corpus_dir, tmp_path)
        resume_stage(cfg, 1)
        stage1_sum = load_checkpoint(tmp_path / "stage1.xdst").checksum()
        result = run_single_stage(cfg, "pre_distill")
        assert load_checkpoint(tmp_path / "stage1.xdst").checksum() == stage1_sum
        labels = {r["stage"] for r in result.log.records}
        assert "pre_distill:assistant" not in labels


def sweep_cfg(corpus_dir, out_dir, **overrides) -> PipelineConfig:
    return micro_cfg(corpus_dir, out_dir,
                     stages=default_stage_plans(epochs=(0, 0, 0, 1), batch_size=50), **overrides)


class TestDepthSweep:
    def test_sweep_returns_point_per_depth(self, corpus_dir, tmp_path):
        results = depth_sweep(sweep_cfg(corpus_dir, tmp_path, seed=5), [1, 2])
        assert [r.student.config.distinct_layers for r in results] == [1, 2]
        assert [r.checkpoint_path.name for r in results] == [
            "single_random_d1.xdst", "single_random_d2.xdst",
        ]
        for r in results:
            assert r.retrieval_report.retrieval_accuracy is not None
            assert r.sts_report.spearman_rho is not None

    def test_sweep_deterministic(self, corpus_dir, tmp_path):
        cfg = sweep_cfg(corpus_dir, tmp_path)
        pa = depth_sweep(replace(cfg, seed=5, out_dir=str(tmp_path / "a")), [1])
        pb = depth_sweep(replace(cfg, seed=5, out_dir=str(tmp_path / "b")), [1])
        assert (pa[0].retrieval_report.retrieval_accuracy
                == pb[0].retrieval_report.retrieval_accuracy)
        assert pa[0].sts_report.spearman_rho == pb[0].sts_report.spearman_rho

    def test_sweep_follows_config_seed(self, corpus_dir, tmp_path):
        cfg = sweep_cfg(corpus_dir, tmp_path)
        digests = set()
        for seed in (5, 6):
            out = tmp_path / f"seed{seed}"
            depth_sweep(replace(cfg, seed=seed, out_dir=str(out)), [1])
            digests.add((out / "single_random_d1.xdst").read_bytes())
        assert len(digests) == 2

    def test_sweep_file_names(self, corpus_dir, tmp_path):
        depth_sweep(sweep_cfg(corpus_dir, tmp_path), [1, 2])
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "metrics_random_init_d1.jsonl", "metrics_random_init_d2.jsonl",
            "single_random_d1.xdst", "single_random_d2.xdst",
        ]

    def test_sweep_flattens_student(self, corpus_dir, tmp_path):
        depth_sweep(sweep_cfg(corpus_dir, tmp_path), [2])
        scfg = load_checkpoint(tmp_path / "single_random_d2.xdst").config
        assert scfg.distinct_layers == 2
        assert scfg.recurrence_count == 1
        assert not scfg.bottleneck_enabled

    def test_empty_depths_rejected(self, corpus_dir, tmp_path):
        with pytest.raises(ContractError, match="at least one depth"):
            depth_sweep(micro_cfg(corpus_dir, tmp_path), [])

    def test_repeated_depth_rejected_before_training(self, corpus_dir, tmp_path):
        # a repeat would train over the same checkpoint and metrics log twice
        with pytest.raises(ContractError, match=r"repeated depths \[1\]"):
            depth_sweep(sweep_cfg(corpus_dir, tmp_path), [1, 2, 1])
        assert list(tmp_path.iterdir()) == []

    def test_invalid_depth_rejected_before_training(self, corpus_dir, tmp_path):
        with pytest.raises(ConfigError, match="at least 1"):
            depth_sweep(sweep_cfg(corpus_dir, tmp_path), [1, 0])
        assert list(tmp_path.iterdir()) == []
