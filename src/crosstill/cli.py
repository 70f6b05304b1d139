"""Command-line entry point.

One executable, seven subcommands: corpus and similarity-set generation,
staged training, checkpoint evaluation, parameter accounting, gradient
verification, and the depth sweep. Machine-readable results go to standard
output; diagnostics go to standard error. Exit codes: 0 success, 1 for
contract or configuration violations, 2 for I/O and format problems.

Training commands and `gen-sts` read a JSON config file mirroring
PipelineConfig; any field can be overridden on the command line with a
dotted flag, e.g. `--seed 9`, `--student.bottleneck_size 16` or
`--stages.3.epochs 30`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from functools import partial
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .checkpoint import load_checkpoint
from .corpus import VocabSpec, gen_parallel_corpus, gen_sts_set, load_sts_tsv, read_parallel_tsv
from .errors import ConfigError, CrosstillError, FormatError, ParseError
from .evaluate import RETRIEVAL_BLOCK, retrieval_report, sts_evaluate
from .gradcheck import finite_diff_check
from .losses import (
    loss_anchor_align,
    loss_bool,
    loss_ce,
    loss_mcl,
    loss_pairwise_align,
    loss_stage4,
)
from .pipeline import (
    PipelineConfig, depth_sweep, load_teacher, resume_stage, run_pipeline, run_single_stage,
)
from .rng import stream
from .sizes import PRESETS, model_report

GRAD_TOLERANCE = 1e-6


def _say(message: str) -> None:
    print(message, file=sys.stderr)


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


# -- dotted config overrides ------------------------------------------------


def apply_overrides(raw: dict, tokens: list[str]) -> dict:
    """Apply `--a.b value` (or `--a.b=value`) pairs to a nested config dict.

    Values parse as JSON when possible, otherwise stay strings. List
    sections accept integer path components. A dotless `--name value` sets a
    top-level field; names the config schema does not know are rejected when
    the config is validated.
    """
    i = 0
    while i < len(tokens):
        token = tokens[i]
        if not token.startswith("--") or token == "--":
            raise FormatError(f"unknown flag {token!r}")
        if "=" in token:
            dotted, value = token[2:].split("=", 1)
            i += 1
        else:
            if i + 1 >= len(tokens):
                raise FormatError(f"override {token!r} needs a value")
            dotted, value = token[2:], tokens[i + 1]
            i += 2
        *sections, leaf = dotted.split(".")
        node = raw
        for depth, part in enumerate(sections):
            key = _override_key(node, part, dotted)
            if isinstance(node, dict) and key not in node:
                raise ConfigError(f"no config section {'.'.join(sections[:depth + 1])!r}")
            node = node[key]
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        node[_override_key(node, leaf, dotted)] = parsed
    return raw


def _override_key(node, part: str, dotted: str):
    """What `part` of override `dotted` indexes `node` with: a list index or a field name."""
    if isinstance(node, dict):
        return part
    if not isinstance(node, list):
        raise ConfigError(f"override {dotted!r} reaches into {node!r}, which is not a section")
    if not (_plain_digits(part) and int(part) < len(node)):
        raise ConfigError(f"bad list index {part!r} in override {dotted!r}")
    return int(part)


def _plain_digits(text: str) -> bool:
    # int() also takes "-1", "+1", " 1", "1_0" and non-ASCII digits such as "١"
    return text.isascii() and text.isdigit()


def _load_config(path: str, extras: list[str]) -> PipelineConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"config {path} is not valid JSON: {exc}")
    return PipelineConfig.from_dict(apply_overrides(raw, extras))


# -- subcommand handlers ----------------------------------------------------


def _cmd_gen_corpus(args, extras) -> int:
    try:
        splits = tuple(float(s) for s in args.splits.split(","))
    except ValueError:
        raise ConfigError(f"--splits must be comma-separated fractions, got {args.splits!r}")
    vocab = VocabSpec.create(tokens_per_language=args.tokens_per_language, seed=args.seed)
    paths = gen_parallel_corpus(
        seed=args.seed, n_pairs=args.pairs, vocab=vocab,
        length_range=(args.min_len, args.max_len),
        out_dir=args.out, splits=splits,
    )
    counts = {
        name: sum(1 for line in path.read_text(encoding="utf-8").splitlines() if line)
        for name, path in paths.items() if name != "vocab"
    }
    _say(f"corpus written to {args.out}")
    _emit({"out": str(args.out), "vocab_size": vocab.vocab_size, **counts})
    return 0


def _cmd_gen_sts(args, extras) -> int:
    oracle = load_teacher(_load_config(args.config, extras))
    path = gen_sts_set(
        seed=args.seed, n_examples=args.examples, oracle=oracle,
        out_path=args.out, length_range=(args.min_len, args.max_len),
    )
    _say(f"similarity set written to {path}")
    _emit({"out": str(path), "examples": args.examples, "dim": oracle.dim})
    return 0


def _scores(result) -> dict:
    """The held-out scores of a trained student, as `train` and `sweep-depth` print them."""
    return {
        "sts_rho": None if result.sts_report is None else result.sts_report.spearman_rho,
        "retrieval_acc": (
            None if result.retrieval_report is None
            else result.retrieval_report.retrieval_accuracy
        ),
    }


def _cmd_train(args, extras) -> int:
    cfg = _load_config(args.config, extras)
    stage = args.stage
    if stage == "all":
        result = run_pipeline(cfg)
    elif stage in ("1", "2", "3", "4"):
        result = resume_stage(cfg, int(stage))
    else:
        result = run_single_stage(cfg, stage)
    _say(f"training finished; checkpoint at {result.checkpoint_path}")
    _emit({
        "checkpoint": str(result.checkpoint_path),
        "checkpoint_sha256": hashlib.sha256(result.checkpoint_path.read_bytes()).hexdigest(),
        "metrics": str(result.log.path),
        "records": len(result.log.records),
        **_scores(result),
    })
    return 0


def _cmd_eval(args, extras) -> int:
    encoder = load_checkpoint(args.checkpoint)
    corpus_dir = Path(args.corpus)
    vocab = VocabSpec.from_manifest(corpus_dir / "vocab.json")
    if vocab.vocab_size != encoder.config.vocab_size:
        raise ConfigError(
            f"checkpoint expects vocab {encoder.config.vocab_size}, corpus has {vocab.vocab_size}"
        )
    pairs = read_parallel_tsv(corpus_dir / f"{args.split}.tsv", vocab)
    reports = []
    retrieval = retrieval_report(encoder, pairs)
    if retrieval is not None:
        reports.append(retrieval)
    else:
        _say(f"skipping retrieval: {len(pairs)} pairs < one block of {RETRIEVAL_BLOCK}")
    if args.sts is not None:
        reports.append(sts_evaluate(encoder, load_sts_tsv(args.sts, vocab)))
    for report in reports:
        print(report.to_json())
        _say(report.summary())
    return 0


def _cmd_count_params(args, extras) -> int:
    if args.preset is not None:
        if args.preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {args.preset!r}; available: {', '.join(sorted(PRESETS))}"
            )
        names = [args.preset]
    else:
        names = list(PRESETS)
    for name in names:
        print(model_report(PRESETS[name]).tsv_row())
    return 0


# each loss's checked inputs, in the order they are drawn, and the loss over them
_GRAD_CHECK_TABLE = {
    "anchor": (("anchor", "out_src", "out_tgt"), loss_anchor_align),
    "pairwise": (("ref_src", "out_src", "ref_tgt", "out_tgt"), loss_pairwise_align),
    "mcl": (("teacher", "student_src", "student_tgt"), loss_mcl),
    "bool": (("student_src", "student_tgt"), partial(loss_bool, None)),
    "ce": (("teacher", "student_src", "student_tgt"), loss_ce),
    "stage4": (("teacher", "student_src", "student_tgt"), loss_stage4),
}
GRAD_CHECK_LOSSES = tuple(_GRAD_CHECK_TABLE)


def _grad_check_cases(name: str, n: int, dim: int, seed: int, dtype):
    """Loss closures over fresh random inputs; every tensor is a checked input."""
    if name not in _GRAD_CHECK_TABLE:
        raise ConfigError(f"unknown loss {name!r}")
    names, loss = _GRAD_CHECK_TABLE[name]
    rng = stream(seed, f"grad-check-{name}")
    params = {
        key: Tensor(rng.normal(size=(n, dim)).astype(dtype), requires_grad=True) for key in names
    }
    return lambda: loss(*params.values()).value, params


def _cmd_grad_check(args, extras) -> int:
    for flag, value in (("--batch", args.batch), ("--dim", args.dim)):
        if value < 1:
            raise ConfigError(f"{flag} must be at least 1, got {value}")
    names = GRAD_CHECK_LOSSES if args.loss == "all" else (args.loss,)
    worst = 0.0
    for name in names:
        loss_fn, params = _grad_check_cases(name, args.batch, args.dim, args.seed, np.float64)
        report = finite_diff_check(loss_fn, params)
        worst = max(worst, report.max_rel_error)
        _emit({
            "loss": name,
            "max_rel_error": report.max_rel_error,
            "coords": sum(report.coords_checked.values()),
            "pass": report.max_rel_error <= GRAD_TOLERANCE,
        })
    _say(f"max relative error {worst:.3e} over {len(names)} losses "
         f"(tolerance {GRAD_TOLERANCE:.0e})")
    return 0 if worst <= GRAD_TOLERANCE else 1


def _cmd_sweep_depth(args, extras) -> int:
    cfg = _load_config(args.config, extras)
    parts = args.depths.split(",")
    if not all(_plain_digits(d) for d in parts):
        raise ConfigError(f"depths must be comma-separated ASCII digits, got {args.depths!r}")
    depths = [int(d) for d in parts]
    for depth, result in zip(depths, depth_sweep(cfg, depths)):
        _emit({"depth": depth, **_scores(result)})
    return 0


# -- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crosstill",
        description="Staged cross-lingual distillation of compact sentence encoders.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("gen-corpus", help="generate a paired two-language corpus")
    p.add_argument("--out", required=True, help="directory for train/dev/test TSVs and vocab.json")
    p.add_argument("--seed", type=int, default=0, help="generation seed")
    p.add_argument("--pairs", type=int, default=3000, help="number of sentence pairs")
    p.add_argument("--tokens-per-language", type=int, default=512, help="vocabulary size per language")
    p.add_argument("--min-len", type=int, default=3, help="minimum sentence length")
    p.add_argument("--max-len", type=int, default=12, help="maximum sentence length")
    p.add_argument("--splits", default="0.9,0.05,0.05", help="train,dev,test fractions")
    p.set_defaults(handler=_cmd_gen_corpus, allow_overrides=False)

    p = sub.add_parser("gen-sts", help="generate a similarity set scored by a config's teacher")
    p.add_argument("--config", required=True,
                   help="JSON config file whose corpus and assistant width define the teacher")
    p.add_argument("--out", required=True, help="output TSV path")
    p.add_argument("--seed", type=int, default=0, help="generation seed")
    p.add_argument("--examples", type=int, default=128, help="number of scored pairs")
    p.add_argument("--min-len", type=int, default=3, help="minimum sentence length")
    p.add_argument("--max-len", type=int, default=12, help="maximum sentence length")
    p.set_defaults(handler=_cmd_gen_sts, allow_overrides=True)

    p = sub.add_parser("train", help="run staged or single-stage training")
    p.add_argument("--config", required=True, help="JSON config file")
    p.add_argument("--stage", default="all",
                   choices=["all", "1", "2", "3", "4", "random_init", "pre_distill"],
                   help="which stage or baseline mode to run")
    p.set_defaults(handler=_cmd_train, allow_overrides=True)

    p = sub.add_parser("eval", help="score a checkpoint on retrieval and similarity")
    p.add_argument("--checkpoint", required=True, help="encoder checkpoint path")
    p.add_argument("--corpus", required=True, help="corpus directory with vocab.json and splits")
    p.add_argument("--split", default="test", choices=["train", "dev", "test"],
                   help="which split to use for retrieval")
    p.add_argument("--sts", default=None, help="optional similarity TSV to score")
    p.set_defaults(handler=_cmd_eval, allow_overrides=False)

    p = sub.add_parser("count-params", help="print exact and rounded parameter counts")
    p.add_argument("--preset", default=None, help="one preset name (default: all presets)")
    p.set_defaults(handler=_cmd_count_params, allow_overrides=False)

    p = sub.add_parser("grad-check", help="verify loss gradients by central differences")
    p.add_argument("--loss", default="all", choices=list(GRAD_CHECK_LOSSES) + ["all"],
                   help="which loss to check")
    p.add_argument("--batch", type=int, default=4, help="rows per input tensor")
    p.add_argument("--dim", type=int, default=8, help="columns per input tensor")
    p.add_argument("--seed", type=int, default=0, help="input sampling seed")
    p.set_defaults(handler=_cmd_grad_check, allow_overrides=False)

    p = sub.add_parser("sweep-depth", help="train the direct baseline at several depths")
    p.add_argument("--config", required=True, help="JSON config file")
    p.add_argument("--depths", default="1,2,4", help="comma-separated layer counts")
    p.set_defaults(handler=_cmd_sweep_depth, allow_overrides=True)

    return parser


def parse_and_dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args, extras = parser.parse_known_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if extras and not args.allow_overrides:
            raise FormatError(f"unknown flag {extras[0]!r}")
        return args.handler(args, extras)
    except (ParseError, FormatError, OSError) as exc:
        _say(f"error: {exc}")
        return 2
    except CrosstillError as exc:
        _say(f"error: {exc}")
        return 1


def main(argv: list[str] | None = None) -> int:
    return parse_and_dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
