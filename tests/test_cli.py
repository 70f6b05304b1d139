"""Command-line interface tests.

Handlers are exercised in-process through parse_and_dispatch so exit codes
and stream separation are observable; one test drives the installed module
entry point end to end.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from crosstill.checkpoint import save_checkpoint
from crosstill.cli import apply_overrides, build_parser, parse_and_dispatch
from crosstill.corpus import OracleSemantics, VocabSpec, gen_parallel_corpus, gen_sts_set
from crosstill.encoder import SentenceEncoder
from crosstill.errors import ConfigError, FormatError
from crosstill.pipeline import PipelineConfig, default_stage_plans
from crosstill.validation import validate_run_artifacts

from test_pipeline import micro_assistant, micro_student

EXPECTED_COMMANDS = {
    "gen-corpus", "gen-sts", "train", "eval", "count-params", "grad-check", "sweep-depth",
}


def run_cli(*argv):
    return parse_and_dispatch(list(argv))


@pytest.fixture(scope="module")
def cli_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-corpus")
    vocab = VocabSpec.create(tokens_per_language=48, seed=3)
    gen_parallel_corpus(
        seed=3, n_pairs=400, vocab=vocab, out_dir=root,
        length_range=(5, 5), splits=(0.5, 0.2, 0.3),
    )
    oracle = OracleSemantics.create(vocab, dim=16, seed=0)
    gen_sts_set(seed=4, n_examples=30, oracle=oracle, out_path=root / "sts.tsv",
                length_range=(5, 5))
    return root


@pytest.fixture()
def config_path(cli_corpus, tmp_path):
    cfg = PipelineConfig(
        corpus_dir=str(cli_corpus), out_dir=str(tmp_path / "run"),
        assistant=micro_assistant(), student=micro_student(),
        sts_path=str(cli_corpus / "sts.tsv"), seed=11,
        teacher_dim=16, teacher_seed=0, max_seq_len=12,
        stages=default_stage_plans(epochs=(1, 1, 1, 1), batch_size=50),
        eval_every_epoch=False,
    )
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_dict(), sort_keys=True), encoding="utf-8")
    return path


class TestParserSurface:
    def test_all_subcommands_present(self):
        parser = build_parser()
        sub = parser._subparsers._group_actions[0]
        assert set(sub.choices) == EXPECTED_COMMANDS

    def test_every_flag_documented(self):
        sub = build_parser()._subparsers._group_actions[0]
        for name, subparser in sub.choices.items():
            for action in subparser._actions:
                assert action.help, f"{name} flag {action.option_strings} lacks help text"

    def test_help_exits_zero(self, capsys):
        assert run_cli("--help") == 0
        assert run_cli("train", "--help") == 0
        out = capsys.readouterr().out
        assert "--config" in out

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run_cli("frobnicate") == 2

    def test_unknown_flag_rejected(self, cli_corpus, capsys):
        code = run_cli("gen-corpus", "--out", str(cli_corpus), "--frob", "1")
        assert code == 2
        assert "unknown flag" in capsys.readouterr().err


class TestOverrides:
    def test_nested_and_list_paths(self):
        raw = {"student": {"hidden": 16}, "stages": [{"epochs": 5}], "seed": 1}
        out = apply_overrides(
            raw, ["--student.hidden", "32", "--stages.0.epochs=2", "--seed", "9"]
        )
        assert out["student"]["hidden"] == 32
        assert out["stages"][0]["epochs"] == 2
        assert out["seed"] == 9

    def test_strings_survive_json_fallback(self):
        raw = {"variant": "mcl"}
        assert apply_overrides(raw, ["--variant", "none"])["variant"] == "none"

    def test_missing_section_rejected(self):
        with pytest.raises(ConfigError, match="no config section"):
            apply_overrides({"a": {}}, ["--b.c", "1"])

    def test_missing_value_rejected(self):
        with pytest.raises(FormatError, match="needs a value"):
            apply_overrides({}, ["--a.b"])

    def test_bad_list_index_rejected(self):
        with pytest.raises(ConfigError, match="list index"):
            apply_overrides({"stages": [{}]}, ["--stages.9.epochs", "1"])

    def test_path_through_a_scalar_rejected(self):
        with pytest.raises(ConfigError, match="not a section"):
            apply_overrides({"seed": 1}, ["--seed.x", "1"])
        with pytest.raises(ConfigError, match="not a section"):
            apply_overrides({"seed": 1}, ["--seed.x.y", "1"])


class TestGenerators:
    def test_gen_corpus_writes_and_reports(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        code = run_cli("gen-corpus", "--out", str(out), "--seed", "5",
                       "--pairs", "100", "--tokens-per-language", "32",
                       "--min-len", "4", "--max-len", "6")
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["train"] + payload["dev"] + payload["test"] == 100
        assert payload["vocab_size"] == 4 + 64
        for name in ("train.tsv", "dev.tsv", "test.tsv", "vocab.json"):
            assert (out / name).exists()

    def test_gen_corpus_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("gen-corpus", "--out", str(a), "--seed", "5", "--pairs", "50",
                "--tokens-per-language", "32")
        run_cli("gen-corpus", "--out", str(b), "--seed", "5", "--pairs", "50",
                "--tokens-per-language", "32")
        assert (a / "train.tsv").read_bytes() == (b / "train.tsv").read_bytes()

    def test_seed_env_var_used(self, tmp_path, capsys, monkeypatch):
        flagged, env = tmp_path / "flagged", tmp_path / "env"
        run_cli("gen-corpus", "--out", str(flagged), "--seed", "7", "--pairs", "50",
                "--tokens-per-language", "32")
        monkeypatch.setenv("CROSSTILL_SEED", "7")
        run_cli("gen-corpus", "--out", str(env), "--pairs", "50",
                "--tokens-per-language", "32")
        assert (flagged / "train.tsv").read_bytes() == (env / "train.tsv").read_bytes()

    def test_bad_seed_env_var(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CROSSTILL_SEED", "many")
        assert run_cli("gen-corpus", "--out", str(tmp_path / "x"), "--pairs", "10",
                       "--tokens-per-language", "32") == 1

    def test_gen_sts_from_manifest(self, cli_corpus, tmp_path, capsys):
        out = tmp_path / "sts.tsv"
        code = run_cli("gen-sts", "--vocab", str(cli_corpus / "vocab.json"),
                       "--out", str(out), "--seed", "4", "--examples", "20",
                       "--dim", "16", "--min-len", "5", "--max-len", "5")
        assert code == 0
        assert out.exists()
        assert json.loads(capsys.readouterr().out)["examples"] == 20


class TestTrain:
    def test_full_run_reports_digest(self, config_path, capsys):
        code = run_cli("train", "--config", str(config_path))
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert Path(payload["checkpoint"]).name == "stage4.xdst"
        assert len(payload["checkpoint_sha256"]) == 64
        assert payload["records"] == 4
        assert payload["retrieval_acc"] is not None

    def test_determinism_across_runs(self, config_path, capsys):
        run_cli("train", "--config", str(config_path))
        first = json.loads(capsys.readouterr().out)["checkpoint_sha256"]
        run_cli("train", "--config", str(config_path))
        second = json.loads(capsys.readouterr().out)["checkpoint_sha256"]
        assert first == second

    def test_dotted_override_changes_run(self, config_path, tmp_path, capsys):
        over = tmp_path / "over"
        code = run_cli("train", "--config", str(config_path),
                       "--out_dir", str(over), "--stages.0.epochs", "0",
                       "--eval_every_epoch", "false")
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["records"] == 3
        assert Path(payload["checkpoint"]).parent == over

    def test_unknown_override_rejected(self, config_path, capsys):
        assert run_cli("train", "--config", str(config_path), "--warp", "9") == 1
        assert "unknown config fields" in capsys.readouterr().err

    def test_misspelled_stage_field_rejected(self, config_path, capsys):
        assert run_cli("train", "--config", str(config_path), "--stages.3.epoch", "30") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "'epoch'" in err[0]

    def test_unknown_optimizer_field_exits_without_traceback(self, config_path):
        result = subprocess.run(
            [sys.executable, "-m", "crosstill", "train", "--config", str(config_path),
             "--stages.0.optimizer.momentum", "0.9"],
            capture_output=True, text=True,
        )
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("error:") and "momentum" in result.stderr

    def test_missing_config_file(self, tmp_path, capsys):
        assert run_cli("train", "--config", str(tmp_path / "nope.json")) == 2

    def test_malformed_config_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert run_cli("train", "--config", str(bad)) == 2
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [b"[" * 100_000, b"\xff\xfe{}"],
                             ids=["deeply-nested", "not-utf8"])
    def test_undecodable_config_file(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert run_cli("train", "--config", str(bad)) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_stage_without_prerequisite(self, config_path, capsys):
        assert run_cli("train", "--config", str(config_path), "--stage", "3") == 1
        assert "previous stage" in capsys.readouterr().err

    def test_stale_checkpoint_rejected(self, config_path, capsys):
        assert run_cli("train", "--config", str(config_path), "--stage", "1") == 0
        result = subprocess.run(
            [sys.executable, "-m", "crosstill", "train", "--config", str(config_path),
             "--stage", "pre_distill", "--assistant.distinct_layers", "3"],
            capture_output=True, text=True,
        )
        assert result.returncode == 1
        err = result.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "stage1.xdst" in err[0] and "distinct_layers 2 in the file, 3 in the config" in err[0]

    def test_stage_by_stage_run_validates(self, config_path, capsys):
        for stage in ("1", "2", "3", "4"):
            assert run_cli("train", "--config", str(config_path), "--stage", stage) == 0
        out_dir = Path(json.loads(config_path.read_text())["out_dir"])
        summary = validate_run_artifacts(out_dir)
        assert set(summary["checkpoints"]) == {"stage1", "stage2", "stage3", "stage4"}
        assert summary["per_stage"] == {1: 1, 2: 1, 3: 1, 4: 1}

    def test_single_stage_mode(self, config_path, capsys):
        code = run_cli("train", "--config", str(config_path), "--stage", "random_init")
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert Path(payload["checkpoint"]).name == "single_random.xdst"


class TestEval:
    def test_eval_trained_checkpoint(self, config_path, cli_corpus, capsys):
        run_cli("train", "--config", str(config_path))
        checkpoint = json.loads(capsys.readouterr().out)["checkpoint"]
        code = run_cli("eval", "--checkpoint", checkpoint, "--corpus", str(cli_corpus),
                       "--sts", str(cli_corpus / "sts.tsv"))
        assert code == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        tasks = {l["task"] for l in lines}
        assert tasks == {"retrieval", "sts"}

    def test_eval_vocab_mismatch(self, config_path, tmp_path, capsys):
        run_cli("train", "--config", str(config_path))
        checkpoint = json.loads(capsys.readouterr().out)["checkpoint"]
        other = tmp_path / "other-corpus"
        vocab = VocabSpec.create(tokens_per_language=32, seed=1)
        gen_parallel_corpus(seed=1, n_pairs=80, vocab=vocab, out_dir=other,
                            length_range=(5, 5))
        assert run_cli("eval", "--checkpoint", checkpoint, "--corpus", str(other)) == 1


class TestMalformedCorpusFiles:
    """`eval` on a broken split or manifest: exit 2, one `error:` line, no traceback."""

    @pytest.fixture()
    def broken_corpus(self, cli_corpus, tmp_path):
        checkpoint = tmp_path / "untrained.xdst"
        save_checkpoint(SentenceEncoder.init(micro_assistant(), seed=0), checkpoint)
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name in ("vocab.json", "test.tsv"):
            (corpus / name).write_bytes((cli_corpus / name).read_bytes())
        return checkpoint, corpus

    def run_eval(self, checkpoint, corpus, *extra):
        return subprocess.run(
            [sys.executable, "-m", "crosstill", "eval", "--checkpoint", str(checkpoint),
             "--corpus", str(corpus), *extra],
            capture_output=True, text=True,
        )

    @pytest.mark.parametrize("name, content", [
        ("test.tsv", b"l1_1 l1_2\tl2_1 l2_2\nl1_\xff\tl2_1\n"),
        ("vocab.json", b"{}"),
    ], ids=["split-not-utf8", "empty-manifest"])
    def test_exits_2_without_traceback(self, broken_corpus, name, content):
        checkpoint, corpus = broken_corpus
        (corpus / name).write_bytes(content)
        result = self.run_eval(checkpoint, corpus)
        assert result.returncode == 2
        err = result.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), result.stderr

    def test_bad_sts_score_names_the_file(self, broken_corpus, tmp_path):
        checkpoint, corpus = broken_corpus
        sts = tmp_path / "scores.tsv"
        sts.write_text("l1_1 l1_2\tl1_3 l1_4\t9\n", encoding="utf-8")
        result = self.run_eval(checkpoint, corpus, "--sts", str(sts))
        assert result.returncode == 2
        err = result.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), result.stderr
        assert f"{sts}: line 1: score 9 outside [0, 5]" in err[0]

    def test_non_ascii_digit_token_is_unknown(self, broken_corpus):
        checkpoint, corpus = broken_corpus
        (corpus / "test.tsv").write_text("l1_1 l1_\u00b2\tl2_1 l2_2\n", encoding="utf-8")
        result = self.run_eval(checkpoint, corpus)
        assert result.returncode == 0
        assert "Traceback" not in result.stderr
        assert "1 unknown token(s)" in result.stderr


class TestCountParams:
    def test_single_preset_row(self, capsys):
        assert run_cli("count-params", "--preset", "xlmr-b128-ru3") == 0
        row = capsys.readouterr().out.strip().split("\t")
        assert row[0] == "xlmr-b128-ru3"
        assert row[3] == "32.49M" and row[4] == "21.26M"

    def test_all_presets_listed(self, capsys):
        assert run_cli("count-params") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        names = {line.split("\t")[0] for line in lines}
        assert {"xlmr-full-ru12", "minilm-b128-ru3", "toy-student"} <= names

    def test_unknown_preset(self, capsys):
        assert run_cli("count-params", "--preset", "mystery") == 1

    def test_audit_on_toy_preset(self, capsys):
        assert run_cli("count-params", "--preset", "toy-student", "--audit") == 0

    def test_audit_refuses_huge_preset(self, capsys):
        assert run_cli("count-params", "--preset", "xlmr-full-ru12", "--audit") == 1
        assert "too large" in capsys.readouterr().err


class TestGradCheck:
    def test_single_loss_passes(self, capsys):
        assert run_cli("grad-check", "--loss", "mcl", "--width", "64bit") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"] is True
        assert payload["max_rel_error"] <= 1e-6

    def test_all_losses_pass_at_64bit(self, capsys):
        assert run_cli("grad-check", "--loss", "all") == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert {l["loss"] for l in lines} == {"anchor", "pairwise", "mcl", "bool", "ce", "stage4"}
        assert all(l["pass"] for l in lines)


class TestSweepDepth:
    def test_sweep_emits_point_per_depth(self, cli_corpus, tmp_path, capsys):
        cfg = PipelineConfig(
            corpus_dir=str(cli_corpus), out_dir=str(tmp_path / "sweep"),
            assistant=micro_assistant(), student=micro_student(),
            sts_path=str(cli_corpus / "sts.tsv"), seed=11,
            teacher_dim=16, teacher_seed=0, max_seq_len=12,
            stages=default_stage_plans(epochs=(0, 0, 0, 1), batch_size=50),
            eval_every_epoch=False,
        )
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
        code = run_cli("sweep-depth", "--config", str(path), "--depths", "1,2")
        assert code == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert [l["depth"] for l in lines] == [1, 2]

    def test_bad_depths_rejected(self, config_path, capsys):
        assert run_cli("sweep-depth", "--config", str(config_path),
                       "--depths", "1,two") == 1


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "crosstill", "count-params", "--preset", "toy-assistant"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("toy-assistant\t")
