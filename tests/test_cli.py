"""Command-line interface tests.

Handlers are exercised in-process through parse_and_dispatch so exit codes
and stream separation are observable; one test drives the installed module
entry point end to end.
"""

import json
import os
import re
import shlex
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from crosstill.checkpoint import load_checkpoint, save_checkpoint
from crosstill.cli import apply_overrides, build_parser, parse_and_dispatch
from crosstill.corpus import OracleSemantics, VocabSpec, gen_parallel_corpus, gen_sts_set
from crosstill.encoder import SentenceEncoder
from crosstill.errors import ConfigError, FormatError
from crosstill.pipeline import MetricsLog, PipelineConfig, default_stage_plans, toy_config

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
        stages=default_stage_plans(epochs=(1, 1, 1, 1), batch_size=50),
    )
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_dict(), sort_keys=True), encoding="utf-8")
    return path


@pytest.fixture()
def untrained_checkpoint(tmp_path):
    checkpoint = tmp_path / "untrained.xdst"
    save_checkpoint(SentenceEncoder.init(micro_assistant(), seed=0), checkpoint)
    return checkpoint


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

    @pytest.mark.parametrize("index", ["-1", "+0", " 0", "0x0"])
    def test_list_index_must_be_plain_digits(self, index):
        raw = {"stages": [{"epochs": 1}, {"epochs": 2}]}
        with pytest.raises(ConfigError, match=re.escape(f"list index {index!r} in override 'stages.{index}.epochs'")):
            apply_overrides(raw, [f"--stages.{index}.epochs", "9"])
        assert raw == {"stages": [{"epochs": 1}, {"epochs": 2}]}

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

    def test_seed_defaults_to_zero(self, tmp_path, capsys):
        seeded, default = tmp_path / "seeded", tmp_path / "default"
        run_cli("gen-corpus", "--out", str(seeded), "--seed", "0", "--pairs", "50",
                "--tokens-per-language", "32")
        run_cli("gen-corpus", "--out", str(default), "--pairs", "50",
                "--tokens-per-language", "32")
        assert (seeded / "train.tsv").read_bytes() == (default / "train.tsv").read_bytes()

    @pytest.mark.parametrize("splits, named", [
        ("a,b,c", "--splits must be comma-separated fractions, got 'a,b,c'"),
        ("nan,0.5,0.5", "splits must be three non-negative fractions summing to 1"),
    ], ids=["not-numbers", "nan"])
    def test_bad_splits_exit_1(self, tmp_path, capsys, splits, named):
        assert run_cli("gen-corpus", "--out", str(tmp_path / "x"), "--pairs", "10",
                       "--tokens-per-language", "32", "--splits", splits) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and named in err[0]

    def _gen_sts(self, config_path, out, *overrides):
        return run_cli("gen-sts", "--config", str(config_path), "--out", str(out),
                       "--seed", "4", "--examples", "20", "--min-len", "5", "--max-len", "5",
                       *overrides)

    def _library_sts(self, cli_corpus, dim, out):
        """The set `gen_sts_set` writes with the manifest's oracle at width `dim`."""
        oracle = OracleSemantics.create(VocabSpec.from_manifest(cli_corpus / "vocab.json"), dim=dim)
        return gen_sts_set(seed=4, n_examples=20, oracle=oracle, out_path=out,
                           length_range=(5, 5)).read_bytes()

    def test_gen_sts_from_manifest(self, cli_corpus, config_path, tmp_path, capsys):
        """The config's teacher scores the set: its corpus manifest at `assistant.hidden`."""
        out = tmp_path / "sts.tsv"
        assert self._gen_sts(config_path, out) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["examples"] == 20 and payload["dim"] == micro_assistant().hidden
        assert out.read_bytes() == self._library_sts(
            cli_corpus, micro_assistant().hidden, tmp_path / "lib.tsv"
        )

    def test_gen_sts_width_follows_hidden_override(self, cli_corpus, config_path, tmp_path, capsys):
        out = tmp_path / "sts.tsv"
        assert self._gen_sts(config_path, out, "--assistant.hidden", "12",
                             "--student.hidden", "12") == 0
        assert json.loads(capsys.readouterr().out)["dim"] == 12
        assert out.read_bytes() == self._library_sts(cli_corpus, 12, tmp_path / "lib.tsv")

    @pytest.mark.parametrize("flag, value", [("--dim", "16"), ("--vocab", "vocab.json")])
    def test_gen_sts_width_and_vocab_flags_are_unknown_fields(
        self, config_path, tmp_path, capsys, flag, value
    ):
        assert run_cli("gen-sts", "--config", str(config_path),
                       "--out", str(tmp_path / "sts.tsv"), flag, value) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and flag[2:] in err[0]
        assert not (tmp_path / "sts.tsv").exists()


# One 64 × 16 batch embedded by a frozen toy student; argv[1] "off" turns
# the helper thread off. Prints the embeddings' sha256.
EMBED_SCRIPT = """
import hashlib
import sys
import numpy as np
import crosstill.autodiff as ad
from crosstill.encoder import SentenceEncoder
from crosstill.pipeline import toy_config

if sys.argv[1] == "off":
    ad._HELPER = False
model = SentenceEncoder.init(toy_config("corpus", "out").student, seed=5).freeze()
rng = np.random.default_rng(5)
ids = rng.integers(4, model.config.vocab_size, size=(64, 16))
mask = np.arange(16) < rng.integers(3, 17, size=(64, 1))
mask[0] = True
print(hashlib.sha256(model.encode(ids, mask).data.tobytes()).hexdigest())
"""


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

    def test_determinism_across_processes_and_blas_threads(self, config_path, tmp_path):
        # The first two processes use the helper thread wherever the machine
        # has two CPUs, and the helper sets OpenBLAS to one thread. The third
        # turns the helper off before training, so on two CPUs it trains with
        # two BLAS threads. The fourth may run on one CPU only, so it trains
        # without the helper, with one BLAS thread.
        module = ["-m", "crosstill"]
        no_helper = ["-c", "import sys; import crosstill.autodiff as ad; ad._HELPER = False; "
                           "from crosstill.cli import main; sys.exit(main(sys.argv[1:]))"]
        one_cpu = lambda: os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # noqa: E731
        runs = [("1", module, None), ("2", module, None), ("2", no_helper, None)]
        if hasattr(os, "sched_setaffinity"):
            runs.append(("2", module, one_cpu))
        digests = []
        for index, (threads, entry, preexec) in enumerate(runs):
            result = subprocess.run(
                [sys.executable, *entry, "train", "--config", str(config_path),
                 "--stage", "all", "--out_dir", str(tmp_path / f"run{index}")],
                capture_output=True, text=True, preexec_fn=preexec,
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
            )
            assert result.returncode == 0, result.stderr
            digests.append(json.loads(result.stdout.splitlines()[-1])["checkpoint_sha256"])
        assert len(set(digests)) == 1, digests

    def test_embeddings_are_equal_across_processes_and_blas_threads(self):
        # One 64 × 16 batch is 1024 tokens, so the default process embeds it
        # as two row halves on two threads wherever the machine has two CPUs.
        # The second turns the helper off, so on two CPUs it embeds the batch
        # whole with two BLAS threads; the third allows one BLAS thread; the
        # fourth may run on one CPU only, so it has no helper.
        one_cpu = lambda: os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # noqa: E731
        runs = [("on", {}, None), ("off", {"OPENBLAS_NUM_THREADS": "2"}, None),
                ("on", {"OPENBLAS_NUM_THREADS": "1"}, None)]
        if hasattr(os, "sched_setaffinity"):
            runs.append(("on", {}, one_cpu))
        digests = []
        for helper, env, preexec in runs:
            result = subprocess.run(
                [sys.executable, "-c", EMBED_SCRIPT, helper], capture_output=True, text=True,
                preexec_fn=preexec, env={**os.environ, **env},
            )
            assert result.returncode == 0, result.stderr
            digests.append(result.stdout.strip())
        assert len(set(digests)) == 1, digests

    def test_seed_flag_equals_config_seed(self, config_path, tmp_path, capsys):
        assert run_cli("train", "--config", str(config_path), "--seed", "9",
                       "--out_dir", str(tmp_path / "flag")) == 0
        flagged = json.loads(capsys.readouterr().out)["checkpoint"]
        raw = json.loads(config_path.read_text(encoding="utf-8"))
        raw.update(seed=9, out_dir=str(tmp_path / "file"))
        seeded = tmp_path / "seed9.json"
        seeded.write_text(json.dumps(raw), encoding="utf-8")
        assert run_cli("train", "--config", str(seeded)) == 0
        from_file = json.loads(capsys.readouterr().out)["checkpoint"]
        assert Path(flagged).read_bytes() == Path(from_file).read_bytes()

    def test_non_integer_seed_rejected(self, config_path, capsys):
        assert run_cli("train", "--config", str(config_path), "--seed", "abc") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "seed must be int" in err[0]

    def test_dotted_override_changes_run(self, config_path, tmp_path, capsys):
        over = tmp_path / "over"
        code = run_cli("train", "--config", str(config_path),
                       "--out_dir", str(over), "--stages.0.epochs", "0")
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
             "--stages.0.optimizer.lr", "0.001"],
            capture_output=True, text=True,
        )
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        err = result.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "'stages.0.optimizer'" in err[0]

    @pytest.mark.parametrize("edit, override, where", [
        (lambda raw: raw["stages"][1].update(optimizer={"lr": 0.002}), [], "stages[1]: ['optimizer']"),
        (lambda raw: raw.update(teacher_seed=0), [], "['teacher_seed']"),
        (None, ["--stages.1.optimizer", '{"lr": 0.002}'], "stages[1]: ['optimizer']"),
        (None, ["--teacher_seed", "0"], "['teacher_seed']"),
        (lambda raw: raw.update(ce_temperature=0.05), [], "unknown config fields: ['ce_temperature']"),
        (lambda raw: raw["assistant"].update(layernorm_eps=1e-12), [],
         "unknown encoder config fields in assistant: ['layernorm_eps']"),
    ], ids=["optimizer-in-file", "teacher-seed-in-file", "optimizer-override", "teacher-seed-override",
            "ce-temperature-in-file", "layernorm-eps-in-file"])
    def test_removed_settings_rejected(self, config_path, capsys, edit, override, where):
        if edit is not None:
            raw = json.loads(config_path.read_text(encoding="utf-8"))
            edit(raw)
            config_path.write_text(json.dumps(raw), encoding="utf-8")
        assert run_cli("train", "--config", str(config_path), *override) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and where in err[0]

    @pytest.mark.parametrize("stage, override", [
        ("all", ["--student.ffn_size", "64"]),
        ("all", ["--student.heads", "4"]),
        ("all", ["--student.max_positions", "20"]),
        ("all", ["--student.vocab_size", "68"]),
        ("1", ["--student.ffn_size", "64"]),
    ], ids=["ffn-size", "heads", "max-positions", "vocab-size", "stage1-ffn-size"])
    def test_unbuildable_student_fails_before_training(self, config_path, capsys, stage, override):
        assert run_cli("train", "--config", str(config_path), "--stage", stage, *override) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        out_dir = Path(json.loads(config_path.read_text())["out_dir"])
        assert not list(out_dir.glob("*.xdst"))

    def test_random_init_student_need_not_fit_the_assistant(self, config_path, capsys):
        # the baseline's student starts fresh, so it may differ from the assistant
        assert run_cli("train", "--config", str(config_path), "--stage", "random_init",
                       "--student.ffn_size", "64", "--student.heads", "4") == 0

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
        for k in (1, 2, 3, 4):
            load_checkpoint(out_dir / f"stage{k}.xdst")
            records = MetricsLog.read(out_dir / f"metrics_stage{k}.jsonl").records
            assert [(r["stage"], r["epoch"]) for r in records] == [(k, 1)]

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

    def test_retrieval_counts_the_pairs_it_scores(
        self, untrained_checkpoint, cli_corpus, tmp_path, capsys
    ):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        shutil.copy(cli_corpus / "vocab.json", corpus)
        lines = (cli_corpus / "train.tsv").read_text(encoding="utf-8").splitlines()
        (corpus / "test.tsv").write_text("\n".join(lines[:150]) + "\n", encoding="utf-8")
        assert run_cli("eval", "--checkpoint", str(untrained_checkpoint),
                       "--corpus", str(corpus)) == 0
        out, err = capsys.readouterr()
        # two full 64-pair blocks are scored; the last 22 pairs are not
        assert json.loads(out)["n_examples"] == 128
        assert "task=retrieval n=128 " in err

    def test_block_size_flag_is_unknown(self, untrained_checkpoint, cli_corpus, capsys):
        assert run_cli("eval", "--checkpoint", str(untrained_checkpoint),
                       "--corpus", str(cli_corpus), "--block-size", "64") == 2
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == ["error: unknown flag '--block-size'"]

    def test_checkpoint_holding_layernorm_eps_exits_2(self, untrained_checkpoint, cli_corpus, capsys):
        """A file written while `layernorm_eps` was a config field fails the schema."""
        blob = untrained_checkpoint.read_bytes()
        cfg_len = struct.unpack("<Q", blob[9:17])[0]
        old_cfg = {**json.loads(blob[17:17 + cfg_len]), "layernorm_eps": 1e-12}
        new_cfg = json.dumps(old_cfg, sort_keys=True).encode("utf-8")
        untrained_checkpoint.write_bytes(
            blob[:9] + struct.pack("<Q", len(new_cfg)) + new_cfg + blob[17 + cfg_len:]
        )
        assert run_cli("eval", "--checkpoint", str(untrained_checkpoint),
                       "--corpus", str(cli_corpus)) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: invalid config blob: unknown encoder config fields: ['layernorm_eps'] "
            "(at byte offset 17)"
        ]

    def test_non_finite_weight_exits_2_naming_the_tensor(self, untrained_checkpoint, cli_corpus, capsys):
        encoder = load_checkpoint(untrained_checkpoint)
        encoder.params["layer1.ffn.w1"].data[0, 0] = np.nan
        save_checkpoint(encoder, untrained_checkpoint)
        assert run_cli("eval", "--checkpoint", str(untrained_checkpoint),
                       "--corpus", str(cli_corpus)) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: tensor 'layer1.ffn.w1' holds a non-finite value at element 0")
        assert "(at byte offset " in line

    def test_overflowing_forward_exits_1(self, untrained_checkpoint, cli_corpus, capsys):
        encoder = load_checkpoint(untrained_checkpoint)
        encoder.params["layer1.ffn.w1"].data[...] = 3e38
        save_checkpoint(encoder, untrained_checkpoint)
        with np.errstate(over="ignore", invalid="ignore"):
            code = run_cli("eval", "--checkpoint", str(untrained_checkpoint),
                           "--corpus", str(cli_corpus))
        assert code == 1
        assert capsys.readouterr().err.splitlines() == ["error: non-finite sentence embedding"]

    def test_overflowing_forward_writes_only_the_error_line(self, untrained_checkpoint, cli_corpus):
        """numpy's overflow warnings stay off stderr, on the helper thread too."""
        encoder = load_checkpoint(untrained_checkpoint)
        encoder.params["layer1.ffn.w1"].data[...] = 3e38
        save_checkpoint(encoder, untrained_checkpoint)
        done = subprocess.run(
            [sys.executable, "-m", "crosstill", "eval", "--checkpoint", str(untrained_checkpoint),
             "--corpus", str(cli_corpus)],
            capture_output=True, text=True,
        )
        assert done.returncode == 1
        assert done.stderr.splitlines() == ["error: non-finite sentence embedding"]


class TestMalformedCorpusFiles:
    """`eval` on a broken split or manifest: exit 2, one `error:` line, no traceback."""

    @pytest.fixture()
    def broken_corpus(self, cli_corpus, untrained_checkpoint, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name in ("vocab.json", "test.tsv"):
            (corpus / name).write_bytes((cli_corpus / name).read_bytes())
        return untrained_checkpoint, corpus

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

    def test_retired_audit_flag_is_unknown(self, capsys):
        assert run_cli("count-params", "--preset", "toy-student", "--audit") == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == ""
        assert len(err) == 1 and err[0].startswith("error:") and "--audit" in err[0], err


class TestGradCheck:
    def test_single_loss_passes(self, capsys):
        assert run_cli("grad-check", "--loss", "mcl") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"] is True
        assert payload["max_rel_error"] <= 1e-6

    def test_all_losses_pass_at_64bit(self, capsys):
        assert run_cli("grad-check", "--loss", "all") == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert {l["loss"] for l in lines} == {"anchor", "pairwise", "mcl", "bool", "ce", "stage4"}
        assert all(l["pass"] for l in lines)

    # (seed, batch, dim) shapes on which a step of 1e-4 read a worst relative
    # error between 1.1e-6 and 1.9e-5 on correct gradients
    @pytest.mark.parametrize("seed, batch, dim", [
        (0, 2, 4), (2, 2, 8), (3, 4, 4), (5, 2, 8),
        (5, 4, 8), (6, 2, 4), (8, 4, 8), (2024, 2, 8),
    ])
    def test_all_losses_pass_where_a_coarse_step_failed(self, capsys, seed, batch, dim):
        assert run_cli("grad-check", "--loss", "all", "--seed", str(seed),
                       "--batch", str(batch), "--dim", str(dim)) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert len(lines) == 6 and all(l["pass"] for l in lines)


class TestSweepDepth:
    def test_sweep_emits_point_per_depth(self, cli_corpus, tmp_path, capsys):
        cfg = PipelineConfig(
            corpus_dir=str(cli_corpus), out_dir=str(tmp_path / "sweep"),
            assistant=micro_assistant(), student=micro_student(),
            sts_path=str(cli_corpus / "sts.tsv"), seed=11,
            stages=default_stage_plans(epochs=(0, 0, 0, 1), batch_size=50),
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

    # int() reads "1_0" as 10 and the Arabic-Indic digit one as 1
    @pytest.mark.parametrize("depths", ["1_0", "\u0661"])
    def test_depths_take_plain_ascii_digits_only(self, config_path, tmp_path, capsys, depths):
        assert run_cli("sweep-depth", "--config", str(config_path), "--depths", depths) == 1
        assert "comma-separated ASCII digits" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_repeated_depth_rejected(self, config_path, tmp_path, capsys):
        assert run_cli("sweep-depth", "--config", str(config_path), "--depths", "1,1") == 1
        assert "repeated depths [1]" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "crosstill", "count-params", "--preset", "toy-assistant"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("toy-assistant\t")


def _readme_commands() -> list[list[str]]:
    """The arguments of every `python3 -m crosstill` line in the README's sh
    blocks, with backslash continuations joined and `#` comments dropped."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, flags=re.S | re.M):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("python3 -m crosstill "):
                commands.append(shlex.split(line, comments=True)[3:])
    return commands


def test_readme_commands_parse():
    commands = _readme_commands()
    assert {words[0] for words in commands} == EXPECTED_COMMANDS
    for words in commands:
        args, extras = build_parser().parse_known_args(words)
        if extras:
            assert args.allow_overrides, f"{words}: unknown flags {extras}"
            raw = apply_overrides(toy_config("data", "run").to_dict(), extras)
            PipelineConfig.from_dict(raw)


def _int_flags() -> list[tuple[str, str]]:
    sub = build_parser()._subparsers._group_actions[0]
    return [
        (command, action.option_strings[0])
        for command, parser in sub.choices.items()
        for action in parser._actions if action.type is int
    ]


# every integer flag of every subcommand, plus train's `--seed` override,
# sweep-depth's integer list, gen-sts's retired `--dim`, now an unknown field,
# and eval's retired `--block-size`, now an unknown flag
NUMERIC_FLAGS = _int_flags() + [
    ("train", "--seed"), ("sweep-depth", "--depths"), ("gen-sts", "--dim"),
    ("eval", "--block-size"),
]
ZERO_EPOCHS = [arg for k in range(4) for arg in (f"--stages.{k}.epochs", "0")]


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("command, flag", NUMERIC_FLAGS,
                         ids=[f"{c} {f}" for c, f in NUMERIC_FLAGS])
def test_numeric_flag_at_boundary_exits_cleanly(
    command, flag, value, cli_corpus, config_path, untrained_checkpoint, tmp_path
):
    """0 and -1 either run or exit 1 or 2 with one `error:` line and no traceback."""
    tiny = {  # the other arguments, each keeping the run small
        "gen-corpus": ["--out", str(tmp_path / "corpus"), "--pairs", "30",
                       "--tokens-per-language", "16"],
        "gen-sts": ["--config", str(config_path), "--out", str(tmp_path / "sts.tsv"),
                    "--examples", "6"],
        "train": ["--config", str(config_path), *ZERO_EPOCHS],
        "eval": ["--checkpoint", str(untrained_checkpoint), "--corpus", str(cli_corpus)],
        "grad-check": ["--loss", "mcl", "--batch", "2", "--dim", "3"],
        "sweep-depth": ["--config", str(config_path), *ZERO_EPOCHS],
    }[command]
    result = subprocess.run(
        [sys.executable, "-m", "crosstill", command, *tiny, flag, value],
        capture_output=True, text=True,
    )
    assert "Traceback" not in result.stderr and "RuntimeWarning" not in result.stderr, result.stderr
    if result.returncode != 0:
        assert result.returncode in (1, 2), result.stderr
        err = result.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), result.stderr
