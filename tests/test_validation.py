"""Artifact validator tests."""

import json

import pytest

from crosstill.corpus import VocabSpec, gen_parallel_corpus
from crosstill.errors import ConfigError, ContractError
from crosstill.pipeline import default_stage_plans, run_pipeline
from crosstill.validation import validate_corpus_dir, validate_run_artifacts

from test_pipeline import micro_cfg

K = 48


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    corpus = tmp_path_factory.mktemp("val-corpus")
    vocab = VocabSpec.create(tokens_per_language=K, seed=3)
    gen_parallel_corpus(seed=3, n_pairs=300, vocab=vocab, out_dir=corpus,
                        length_range=(4, 6), splits=(0.6, 0.2, 0.2))
    run_dir = tmp_path_factory.mktemp("val-run")
    cfg = micro_cfg(corpus, run_dir, sts_path=None,
                    stages=default_stage_plans(epochs=(1, 0, 0, 1), batch_size=60))
    run_pipeline(cfg)
    return corpus, run_dir


class TestCorpusValidation:
    def test_clean_corpus_passes(self, world):
        corpus, _ = world
        summary = validate_corpus_dir(corpus)
        assert summary["vocab_size"] == 4 + 2 * K
        assert sum(summary["pairs"].values()) == 300
        assert summary["length_range"] == (4, 6)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ConfigError, match="manifest"):
            validate_corpus_dir(tmp_path)

    def test_duplicate_across_splits_caught(self, world, tmp_path):
        corpus, _ = world
        clone = tmp_path / "clone"
        clone.mkdir()
        for name in ("vocab.json", "train.tsv", "dev.tsv", "test.tsv"):
            (clone / name).write_bytes((corpus / name).read_bytes())
        first_line = (clone / "train.tsv").read_text().splitlines()[0]
        dev_text = (clone / "dev.tsv").read_text()
        (clone / "dev.tsv").write_text(first_line + "\n" + dev_text)
        with pytest.raises(ContractError, match="disjoint"):
            validate_corpus_dir(clone)

    def test_broken_cipher_caught(self, world, tmp_path):
        corpus, _ = world
        clone = tmp_path / "clone"
        clone.mkdir()
        for name in ("vocab.json", "train.tsv", "dev.tsv", "test.tsv"):
            (clone / name).write_bytes((corpus / name).read_bytes())
        lines = (clone / "test.tsv").read_text().splitlines()
        src, tgt = lines[0].split("\t")
        tokens = tgt.split()
        tokens[0], tokens[1] = tokens[1], tokens[0]
        lines[0] = src + "\t" + " ".join(tokens)
        (clone / "test.tsv").write_text("\n".join(lines) + "\n")
        with pytest.raises(ContractError, match="cipher image"):
            validate_corpus_dir(clone)


class TestRunValidation:
    def test_clean_run_passes(self, world):
        _, run_dir = world
        summary = validate_run_artifacts(run_dir)
        assert set(summary["checkpoints"]) == {"stage1", "stage2", "stage3", "stage4"}
        assert summary["per_stage"] == {1: 1, 4: 1}

    def test_missing_checkpoint(self, world, tmp_path):
        with pytest.raises(ConfigError, match="missing checkpoint"):
            validate_run_artifacts(tmp_path)

    def test_non_finite_loss_caught(self, world, tmp_path):
        _, run_dir = world
        clone = tmp_path / "clone"
        clone.mkdir()
        for path in run_dir.iterdir():
            (clone / path.name).write_bytes(path.read_bytes())
        records = [json.loads(l) for l in (clone / "metrics.jsonl").read_text().splitlines()]
        records[0]["loss"] = float("nan")
        (clone / "metrics.jsonl").write_text(
            "\n".join(json.dumps(r) for r in records) + "\n"
        )
        with pytest.raises(ContractError, match="non-finite"):
            validate_run_artifacts(clone)

    def test_stage_logs_all_required_without_full_log(self, world, tmp_path):
        _, run_dir = world
        clone = tmp_path / "clone"
        clone.mkdir()
        for path in run_dir.iterdir():
            if path.name != "metrics.jsonl":
                (clone / path.name).write_bytes(path.read_bytes())
        with pytest.raises(ConfigError, match="missing metrics log .*metrics_stage1.jsonl"):
            validate_run_artifacts(clone)
