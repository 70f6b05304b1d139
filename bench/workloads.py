"""The three benchmark workloads: inputs from a seed, one unit of work, checks.

Each workload is driven by one client in a closed loop: the next unit
starts only after the previous one has returned. A unit is the smallest
piece of work a user of the package would wait for:

* `pipeline_toy`   one `run_pipeline` on the 3000-pair toy world;
* `encode_bulk`    one forward-only pass of `embed_sentences` over a bulk
                   sentence set with a student and an assistant, then
                   retrieval and STS scoring;
* `ablation_sweep` one serial sweep of two seeds x three arms on the
                   1000-pair world.

The package is called only through its public functions, looked up on the
module at call time so the hooks in `instrument` see every call. Every
time a unit reports is read from the probe's `ReferenceClock`; `raw_s` is
the unit's plain wall time without the clock's reference kernel.
"""

from __future__ import annotations

import dataclasses
import hashlib
import statistics
from pathlib import Path

import numpy as np

import crosstill.corpus as corpus
import crosstill.evaluate as evaluate
import crosstill.losses as losses
import crosstill.pipeline as pipeline
from crosstill.encoder import SentenceEncoder, init_student_from_assistant, unroll

# Criterion 6's world and bars; the schedule keeps its 1:1:1:3 epoch shape
# at one epoch per early stage so two runs fit in one benchmark run.
TOY_PAIRS = 3000
TOY_LEN = (8, 8)
TOY_STS = 128
EPOCHS = (1, 1, 1, 3)
RETRIEVAL_BAR = 0.90
RHO_BAR = 0.80
UNTRAINED_BAR = 0.05
RUNTIME_BAR_S = 600.0

# Criterion 7's world: 1000 pairs split 800/70/130, arms run serially.
ABLATION_PAIRS = 1000
ABLATION_SPLITS = (0.8, 0.07, 0.13)
ABLATION_ARMS = ("mcl", "none", "random_init")
ABLATION_SEEDS_PER_RUN = 2

# encode_bulk: variable-length sentences so batch width and padding vary.
# The seed picks the tokens; every length appears equally often and batches
# are cut the same way for every seed, so all seeds do the same work.
BULK_PAIRS = 3600
BULK_SPLITS = (0.75, 0.0, 0.25)
BULK_LEN = (3, 14)
BULK_PER_LENGTH = {"train": 160, "test": 40}
BULK_BATCH = 64
PADDING_SAMPLE = 24
PADDING_TOL = 1e-5


class Tally:
    """Operations attempted and failed; a failure is an error or a failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


@dataclasses.dataclass
class Unit:
    """What one unit of work measured."""

    wall_s: float
    items: float
    busy_s: float
    raw_s: float
    eval_s: float = 0.0
    op_ms: list[float] = dataclasses.field(default_factory=list)


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _reset_counters() -> None:
    losses.reset_clamp_warnings()
    corpus.reset_unknown_token_count()


def _short_schedule(cfg):
    return dataclasses.replace(cfg, stages=pipeline.default_stage_plans(EPOCHS))


def _gen_world(root: Path, seed: int, n_pairs: int, length_range, splits, sts: bool):
    vocab = corpus.VocabSpec.create(512, seed=seed)
    out = root / "corpus"
    corpus.gen_parallel_corpus(
        seed=seed, n_pairs=n_pairs, vocab=vocab, out_dir=out,
        length_range=length_range, splits=splits,
    )
    if not sts:
        return out, None
    oracle = corpus.OracleSemantics.create(vocab, dim=64, seed=0)
    sts_path = corpus.gen_sts_set(
        seed=seed + 1, n_examples=TOY_STS, oracle=oracle,
        out_path=out / "sts.tsv", length_range=length_range,
    )
    return out, sts_path


def _init_models(cfg):
    assistant = SentenceEncoder.init(
        cfg.assistant, seed=pipeline.derive_seed(cfg.seed, "assistant-init")
    )
    student = init_student_from_assistant(
        assistant, cfg.student, seed=pipeline.derive_seed(cfg.seed, "student-init")
    )
    return assistant, student


class PipelineToy:
    """All four stages on criterion 6's world, checked against its bars."""

    name = "pipeline_toy"
    min_units = 1
    aliases = {
        "throughput_per_s": "train_pairs_per_s",
        "op_ms.p50": "step_ms.p50",
        "op_ms.p95": "step_ms.p95",
    }

    def __init__(self, root: Path, seed: int):
        self.root, self.seed = root, seed
        self.digests: list[str] = []
        self.scores: list[tuple[float, float]] = []

    def setup(self) -> None:
        _reset_counters()
        corpus_dir, sts = _gen_world(
            self.root, self.seed, TOY_PAIRS, TOY_LEN, (0.9, 0.05, 0.05), sts=True
        )
        cfg = pipeline.toy_config(
            corpus_dir, self.root / "run", sts_path=sts, seed=42 + self.seed
        )
        self.cfg = _short_schedule(cfg)
        self.bundle = pipeline.load_corpus(self.cfg)
        _init_models(self.cfg)

    def check_once(self, tally: Tally) -> None:
        untrained = SentenceEncoder.init(
            self.cfg.student, seed=pipeline.derive_seed(self.cfg.seed, "untrained-baseline")
        )
        acc = evaluate.retrieval_accuracy(untrained, self.bundle.test_pairs)
        tally.record(acc <= UNTRAINED_BAR, f"untrained retrieval {acc:.3f} > {UNTRAINED_BAR}")

    def unit(self, tally: Tally, probe) -> Unit:
        _reset_counters()
        steps_before, eval_before = len(probe.step_ms), probe.eval_s
        start, raw_start = probe.now(), probe.clock.raw
        result = pipeline.run_pipeline(self.cfg)
        wall, raw = probe.now() - start, probe.clock.raw - raw_start
        acc = result.retrieval_report.retrieval_accuracy
        rho = result.sts_report.spearman_rho
        digest = _sha256(result.checkpoint_path)
        self.scores.append((acc, rho))
        self.digests.append(digest)
        ok = (
            acc >= RETRIEVAL_BAR and rho >= RHO_BAR and raw <= RUNTIME_BAR_S
            and digest == self.digests[0]
        )
        tally.record(
            ok, f"run {len(self.digests)}: retrieval {acc:.3f}, rho {rho:.3f}, "
            f"{raw:.1f}s, stage-4 sha256 {digest[:12]} (first {self.digests[0][:12]})",
        )
        epochs = sum(p.epochs for p in self.cfg.stages)
        return Unit(
            wall_s=wall, items=len(self.bundle.train_pairs) * epochs, busy_s=wall, raw_s=raw,
            eval_s=probe.eval_s - eval_before,
            op_ms=[ms for _, ms in probe.step_ms[steps_before:]],
        )

    def report(self, units: list[Unit]) -> dict:
        if not self.scores:
            return {}
        acc = statistics.median(a for a, _ in self.scores)
        rho = statistics.median(r for _, r in self.scores)
        return {
            "metrics": {
                "retrieval_acc": {"value": acc, "unit": "fraction"},
                "sts_rho": {"value": rho, "unit": "rho"},
            },
            "stage4_sha256": self.digests[0] if self.digests else None,
        }


class EncodeBulk:
    """Forward-only encoding of a large variable-length sentence set."""

    name = "encode_bulk"
    min_units = 2
    aliases = {
        "throughput_per_s": "encode_sents_per_s",
        "op_ms.p50": "encode_batch_ms.p50",
        "op_ms.p95": "encode_batch_ms.p95",
    }

    def __init__(self, root: Path, seed: int):
        self.root, self.seed = root, seed
        self.per_model: dict[str, list[float]] = {"student": [], "assistant": []}
        self.sentences_per_model = 0

    def setup(self) -> None:
        _reset_counters()
        corpus_dir, sts = _gen_world(
            self.root, self.seed, BULK_PAIRS, BULK_LEN, BULK_SPLITS, sts=True
        )
        cfg = pipeline.toy_config(corpus_dir, self.root / "run", sts_path=sts, seed=self.seed)
        vocab = corpus.VocabSpec.from_manifest(corpus_dir / "vocab.json")
        train = _per_length(
            corpus.read_parallel_tsv(corpus_dir / "train.tsv", vocab), BULK_PER_LENGTH["train"]
        )
        self.test_pairs = _per_length(
            corpus.read_parallel_tsv(corpus_dir / "test.tsv", vocab), BULK_PER_LENGTH["test"]
        )
        self.sts = corpus.load_sts_tsv(sts, vocab)
        self.models = dict(zip(("assistant", "student"), _init_models(cfg)))
        self.hidden = cfg.student.hidden
        sentences = [p.source_ids for p in train] + [p.target_ids for p in train]
        self.batches = _noisy_length_batches(sentences, BULK_BATCH)
        self.sentences_per_model = len(sentences)

    def check_once(self, tally: Tally) -> None:
        flat = [s for batch in self.batches for s in batch]
        step = max(1, len(flat) // PADDING_SAMPLE)
        sample = flat[::step][:PADDING_SAMPLE]
        for role, model in self.models.items():
            batched = evaluate.embed_sentences(model, sample)
            single = np.concatenate([evaluate.embed_sentences(model, [s]) for s in sample])
            worst = float(np.abs(batched - single).max())
            tally.record(
                worst <= PADDING_TOL,
                f"{role}: one-at-a-time vs batched max diff {worst:.2e} > {PADDING_TOL}",
            )
        student = self.models["student"]
        same = np.array_equal(
            evaluate.embed_sentences(student, sample),
            evaluate.embed_sentences(unroll(student), sample),
        )
        tally.record(same, "student and unroll(student) differ on the sample")
        # Also the warm-up: the first scoring of a process runs about a fifth
        # slower than the rest, and it would otherwise fall in the first unit.
        self._score(tally)

    def _score(self, tally: Tally) -> None:
        acc = evaluate.retrieval_accuracy(self.models["student"], self.test_pairs)
        rho = evaluate.sts_evaluate(self.models["student"], self.sts).spearman_rho
        tally.record(
            0.0 <= acc <= 1.0 and bool(np.isfinite(rho)),
            f"eval gave retrieval {acc} and rho {rho}",
        )

    def unit(self, tally: Tally, probe) -> Unit:
        _reset_counters()
        start, raw_start, eval_before = probe.now(), probe.clock.raw, probe.eval_s
        op_ms, busy, last = [], 0.0, start
        for role, model in self.models.items():
            spent = 0.0
            for batch in self.batches:
                out = evaluate.embed_sentences(model, batch)
                now = probe.now()
                dt, last = now - last, now
                spent += dt
                op_ms.append(1000.0 * dt)
                tally.record(
                    out.shape == (len(batch), self.hidden) and bool(np.isfinite(out).all()),
                    f"{role}: embeddings of shape {out.shape} or non-finite",
                )
            self.per_model[role].append(self.sentences_per_model / spent)
            busy += spent
        self._score(tally)
        return Unit(
            wall_s=probe.now() - start, items=2 * self.sentences_per_model, busy_s=busy,
            raw_s=probe.clock.raw - raw_start, eval_s=probe.eval_s - eval_before, op_ms=op_ms,
        )

    def report(self, units: list[Unit]) -> dict:
        return {"metrics": {
            f"encode_sents_per_s.{role}": {"value": statistics.median(v), "unit": "1/s"}
            for role, v in self.per_model.items() if v
        }}


def _per_length(pairs, per_length: int):
    """The first `per_length` pairs of each length, shortest length first."""
    by_length: dict[int, list] = {}
    for pair in pairs:
        by_length.setdefault(len(pair.source_ids), []).append(pair)
    return [p for n in sorted(by_length) for p in by_length[n][:per_length]]


def _noisy_length_batches(sentences, batch_size: int):
    """Batches sorted by length plus noise, in shuffled order.

    Sorting on a noisy key gives every batch a different width and a mix of
    lengths inside it, so both the padded width and the padding share vary
    from call to call, as they do when callers batch unsorted text. The
    noise has a fixed seed: with equal length counts, every workload seed
    gets the same batch shapes.
    """
    rng = np.random.default_rng(7)
    lengths = np.array([len(s) for s in sentences], dtype=np.float64)
    order = np.argsort(lengths + rng.uniform(0.0, 6.0, size=len(lengths)), kind="stable")
    batches = [
        [sentences[i] for i in order[lo:lo + batch_size]]
        for lo in range(0, len(order), batch_size)
    ]
    return [batches[i] for i in rng.permutation(len(batches))]


class AblationSweep:
    """Criterion 7's arms, two seeds, run one after another."""

    name = "ablation_sweep"
    min_units = 1
    aliases = {
        "throughput_per_s": "train_pairs_per_s",
        "op_ms.p50": "step_ms.p50",
        "op_ms.p95": "step_ms.p95",
        "wall_s": "sweep_s",
    }

    def __init__(self, root: Path, seed: int):
        self.root, self.seed = root, seed
        self.run_seeds = [1000 * seed + k for k in range(1, ABLATION_SEEDS_PER_RUN + 1)]
        self.arms: list[dict] = []

    def setup(self) -> None:
        _reset_counters()
        corpus_dir, _ = _gen_world(
            self.root, self.seed, ABLATION_PAIRS, TOY_LEN, ABLATION_SPLITS, sts=False
        )
        self.cfg = _short_schedule(pipeline.toy_config(corpus_dir, self.root / "run"))
        self.bundle = pipeline.load_corpus(self.cfg)
        _init_models(self.cfg)

    def check_once(self, tally: Tally) -> None:
        """Every check needs a trained arm, so all of them run per sweep."""

    def unit(self, tally: Tally, probe) -> Unit:
        _reset_counters()
        steps_before, eval_before = len(probe.step_ms), probe.eval_s
        start, raw_start = probe.now(), probe.clock.raw
        sweep = []
        for run_seed in self.run_seeds:
            for arm in ABLATION_ARMS:
                cfg = dataclasses.replace(
                    self.cfg, seed=run_seed, out_dir=str(self.root / f"run-{arm}-{run_seed}"),
                    variant="none" if arm == "none" else "mcl",
                )
                if arm == "random_init":
                    result = pipeline.run_single_stage(cfg, mode="random_init")
                else:
                    result = pipeline.run_pipeline(cfg)
                acc = result.retrieval_report.retrieval_accuracy
                digest = _sha256(result.checkpoint_path)
                sweep.append({"arm": arm, "seed": run_seed, "retrieval": acc, "sha256": digest})
                tally.record(
                    0.0 <= acc <= 1.0, f"{arm} seed {run_seed}: retrieval {acc}",
                )
        wall, raw = probe.now() - start, probe.clock.raw - raw_start
        if self.arms:
            same = [a["sha256"] for a in sweep] == [a["sha256"] for a in self.arms[-len(sweep):]]
            tally.record(same, "a repeated sweep changed an arm's final checkpoint")
        self.arms.extend(sweep)
        epochs = sum(p.epochs for p in self.cfg.stages)
        return Unit(
            wall_s=wall, items=len(self.bundle.train_pairs) * epochs * len(sweep),
            busy_s=wall, raw_s=raw, eval_s=probe.eval_s - eval_before,
            op_ms=[ms for _, ms in probe.step_ms[steps_before:]],
        )

    def report(self, units: list[Unit]) -> dict:
        return {"arms": self.arms[: len(ABLATION_ARMS) * len(self.run_seeds)]}


WORKLOADS = {w.name: w for w in (PipelineToy, EncodeBulk, AblationSweep)}
