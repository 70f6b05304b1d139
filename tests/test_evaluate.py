"""Scoring harness tests.

Spearman values are checked against a quadratic-time oracle that ranks by
counting smaller/equal elements and computes Pearson with explicit loops.
"""

import json
import math
import threading

import numpy as np
import pytest

import crosstill.evaluate as evaluate
from crosstill.corpus import (
    OracleSemantics,
    ParallelPair,
    StsExample,
    VocabSpec,
    frame_rows,
    oracle_embed,
)
from crosstill.encoder import EncoderConfig, SentenceEncoder
from crosstill.errors import ContractError, NumericError
from crosstill.evaluate import (
    EMBED_TOKENS,
    EvalReport,
    embed_sentences,
    retrieval_accuracy,
    retrieval_report,
    spearman,
    sts_evaluate,
)


def oracle_ranks(values):
    ranks = []
    for v in values:
        less = sum(1 for u in values if u < v)
        equal = sum(1 for u in values if u == v)
        ranks.append(less + (equal + 1) / 2)
    return ranks


def oracle_spearman(xs, ys):
    rx = oracle_ranks(list(xs))
    ry = oracle_ranks(list(ys))
    n = len(rx)
    mx = sum(rx) / n
    my = sum(ry) / n
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    dx = sum((a - mx) ** 2 for a in rx)
    dy = sum((b - my) ** 2 for b in ry)
    return num / math.sqrt(dx * dy)


class TestSpearman:
    def test_fixed_case_exact(self):
        assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == 0.8

    def test_perfect_and_inverted(self):
        xs = [3.0, 1.0, 4.0, 1.5, 9.0]
        assert spearman(xs, [2.0 * v + 1.0 for v in xs]) == 1.0
        assert spearman(xs, [-v for v in xs]) == -1.0

    def test_matches_oracle_on_1000_cases(self):
        rng = np.random.default_rng(7)
        checked = 0
        worst = 0.0
        while checked < 1000:
            n = int(rng.integers(2, 40))
            if rng.random() < 0.5:
                xs = rng.normal(size=n)
                ys = rng.normal(size=n)
            else:
                # small integer draws force heavy ties
                xs = rng.integers(0, 5, size=n).astype(float)
                ys = rng.integers(0, 5, size=n).astype(float)
            if (xs == xs[0]).all() or (ys == ys[0]).all():
                continue
            got = spearman(xs, ys)
            want = oracle_spearman(xs, ys)
            worst = max(worst, abs(got - want))
            checked += 1
        assert worst <= 1e-12, f"worst |diff| {worst:.3e}"

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        xs = rng.normal(size=25)
        ys = rng.integers(0, 4, size=25).astype(float)
        assert spearman(xs, ys) == spearman(ys, xs)

    def test_monotone_map_invariance(self):
        rng = np.random.default_rng(4)
        xs = rng.normal(size=30)
        ys = rng.normal(size=30)
        assert spearman(xs, ys) == spearman(xs, np.exp(ys))
        assert spearman(xs, ys) == spearman(xs, 5.0 * ys - 2.0)

    def test_tie_means(self):
        # ranks of [1, 1, 2] are [1.5, 1.5, 3]; against [1, 2, 3] the oracle agrees
        got = spearman([1.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        want = oracle_spearman([1.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        assert abs(got - want) <= 1e-12

    def test_length_mismatch_rejected(self):
        with pytest.raises(ContractError, match="mismatch"):
            spearman([1, 2, 3], [1, 2])

    def test_too_short_rejected(self):
        with pytest.raises(ContractError, match="at least 2"):
            spearman([1.0], [2.0])

    def test_constant_input_rejected(self):
        with pytest.raises(ContractError, match="constant"):
            spearman([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ContractError, match="constant"):
            spearman([1.0, 2.0, 3.0], [7.0, 7.0, 7.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, bad):
        with pytest.raises(ContractError, match="finite"):
            spearman([1.0, 2.0, bad], [1.0, 2.0, 3.0])
        with pytest.raises(ContractError, match="finite"):
            spearman([1.0, 2.0, 3.0], [bad, 2.0, 3.0])


class TestEvalReport:
    def test_rho_x100_and_summary(self):
        rep = EvalReport(task="sts", n_examples=10, spearman_rho=0.4534)
        assert rep.rho_x100 == pytest.approx(45.34)
        assert "spearman_x100=45.3" in rep.summary()
        assert "task=sts" in rep.summary()
        assert "n=10" in rep.summary()

    def test_json_round_trip(self):
        rep = EvalReport(
            task="retrieval", n_examples=128, retrieval_accuracy=0.9375,
            config={"hidden": 64},
        )
        payload = json.loads(rep.to_json())
        assert payload["task"] == "retrieval"
        assert payload["retrieval_accuracy"] == 0.9375
        assert payload["spearman_rho"] is None
        assert payload["config"] == {"hidden": 64}

    def test_out_of_range_rho_rejected(self):
        with pytest.raises(ContractError, match="outside"):
            EvalReport(task="sts", n_examples=5, spearman_rho=1.5)

    def test_out_of_range_accuracy_rejected(self):
        with pytest.raises(ContractError, match="outside"):
            EvalReport(task="retrieval", n_examples=64, retrieval_accuracy=-0.1)


@pytest.fixture(scope="module")
def small_world():
    vocab = VocabSpec.create(tokens_per_language=64, seed=11)
    oracle = OracleSemantics.create(vocab, dim=16, seed=11)
    return vocab, oracle


def test_embed_sentences_records_no_graph_and_leaves_the_model_as_is(small_world, monkeypatch):
    vocab, _ = small_world
    cfg = EncoderConfig(
        vocab_size=vocab.vocab_size, hidden=16, ffn_size=32, heads=2,
        distinct_layers=1, recurrence_count=2, bottleneck_size=8, max_positions=12,
    )
    model = SentenceEncoder.init(cfg, seed=3)
    rng = np.random.default_rng(8)
    sentences = [rng.integers(4, 4 + 64, size=int(rng.integers(3, 11))) for _ in range(9)]
    outputs = []
    encode = SentenceEncoder.encode

    def recording_encode(self, ids, mask):
        outputs.append(encode(self, ids, mask))
        return outputs[-1]

    monkeypatch.setattr(SentenceEncoder, "encode", recording_encode)
    got = embed_sentences(model, sentences)
    assert len(outputs) == 1 and not outputs[0].requires_grad and outputs[0]._parents == ()
    assert all(p.requires_grad and p.grad is None for p in model.params.values())
    monkeypatch.undo()
    ids, mask = frame_rows(sentences, cfg.max_positions)
    want = model.encode(ids, mask)
    assert want.requires_grad
    assert got.dtype == want.data.dtype and np.array_equal(got, want.data)


class TestStsEvaluate:
    def test_oracle_encoder_scores_perfectly(self, small_world):
        vocab, oracle = small_world
        rng = np.random.default_rng(5)
        examples = []
        for _ in range(48):
            a = rng.integers(vocab.lang1_start, vocab.lang1_start + 64, size=6)
            b = rng.integers(vocab.lang1_start, vocab.lang1_start + 64, size=6)
            va = oracle_embed(a, oracle)
            vb = oracle_embed(b, oracle)
            cos = float(va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb)))
            examples.append(
                StsExample(sentence_a=a, sentence_b=b, gold_score=np.clip(2.5 * (1 + cos), 0, 5))
            )
        report = sts_evaluate(lambda s: oracle_embed(s, oracle), examples)
        assert report.task == "sts"
        assert report.n_examples == 48
        assert report.spearman_rho >= 1.0 - 1e-9

    def test_transformer_encoder_runs_and_batches_consistently(self, small_world):
        vocab, _ = small_world
        cfg = EncoderConfig(
            vocab_size=vocab.vocab_size, hidden=16, ffn_size=32, heads=2,
            distinct_layers=1, max_positions=12,
        )
        enc = SentenceEncoder.init(cfg, seed=2)
        rng = np.random.default_rng(6)
        # more sentences per side than one chunk: framed rows are at least 5
        # wide, so a chunk holds at most EMBED_TOKENS / 5 of them
        examples = [
            StsExample(
                sentence_a=rng.integers(4, 4 + 64, size=int(rng.integers(3, 9))),
                sentence_b=rng.integers(4, 4 + 64, size=int(rng.integers(3, 9))),
                gold_score=float(rng.uniform(0, 5)),
            )
            for _ in range(EMBED_TOKENS // 5 + 6)
        ]
        full = sts_evaluate(enc, examples)
        assert -1.0 <= full.spearman_rho <= 1.0
        assert full.n_examples == len(examples) and full.config["hidden"] == 16
        # one sentence per encode call: no padding and no chunk boundary
        one = lambda s: embed_sentences(enc, [s])[0]
        sentences = [e.sentence_a for e in examples]
        np.testing.assert_allclose(
            embed_sentences(enc, sentences), np.stack([one(s) for s in sentences]), atol=1e-5
        )
        single = sts_evaluate(one, examples)
        assert single.spearman_rho == pytest.approx(full.spearman_rho, abs=1e-6)

    def test_too_few_examples_rejected(self, small_world):
        vocab, oracle = small_world
        ex = StsExample(
            sentence_a=np.array([4, 5]), sentence_b=np.array([6, 7]), gold_score=1.0
        )
        with pytest.raises(ContractError, match="at least 2"):
            sts_evaluate(lambda s: oracle_embed(s, oracle), [ex])


def _first_token_pairs(vocab, n, tail_rotate_from=None):
    """Pairs keyed by a distinct first source token; the embedding callable
    below depends only on that token, so retrieval is exact by construction.
    Rotating target rows past `tail_rotate_from` breaks those pairs on purpose."""
    firsts = np.arange(n) % vocab.tokens_per_language
    src = [
        np.array([vocab.lang1_start + firsts[i], vocab.lang1_start, vocab.lang1_start + 1])
        for i in range(n)
    ]
    tgt_firsts = firsts.copy()
    if tail_rotate_from is not None:
        tail = tgt_firsts[tail_rotate_from:]
        tgt_firsts[tail_rotate_from:] = np.roll(tail, 1)
    tgt = [
        vocab.cipher_ids(
            np.array([vocab.lang1_start + tgt_firsts[i], vocab.lang1_start, vocab.lang1_start + 1])
        )
        for i in range(n)
    ]
    return [ParallelPair(source_ids=s, target_ids=t) for s, t in zip(src, tgt)]


class TestRetrievalAccuracy:
    def _embedder(self, vocab):
        def embed(ids):
            first = int(vocab.to_lang1_ids(np.asarray(ids))[0]) - vocab.lang1_start
            vec = np.zeros(vocab.tokens_per_language)
            vec[first] = 1.0
            return vec
        return embed

    def test_oracle_encoder_retrieves_perfectly(self, small_world):
        vocab, oracle = small_world
        rng = np.random.default_rng(8)
        pairs = []
        for _ in range(64):
            s = rng.integers(vocab.lang1_start, vocab.lang1_start + 64, size=5)
            pairs.append(ParallelPair(source_ids=s, target_ids=vocab.cipher_ids(s)))
        acc = retrieval_accuracy(lambda x: oracle_embed(x, oracle), pairs)
        assert acc == 1.0

    def test_random_embeddings_score_near_chance(self, small_world):
        vocab, _ = small_world
        rng = np.random.default_rng(9)
        pairs = _first_token_pairs(vocab, 256)
        table = {}

        def noise_embed(ids):
            key = ids.tobytes()
            if key not in table:
                table[key] = rng.normal(size=32)
            return table[key]

        acc = retrieval_accuracy(noise_embed, pairs)
        assert acc < 0.2

    def test_trailing_partial_block_dropped(self, small_world):
        vocab, _ = small_world
        # pairs beyond the last full block are deliberately mismatched; a perfect
        # score proves they never entered the measurement
        pairs = _first_token_pairs(vocab, 150, tail_rotate_from=128)
        acc = retrieval_accuracy(self._embedder(vocab), pairs)
        assert acc == 1.0

    def test_trailing_pairs_are_not_embedded(self, small_world):
        vocab, _ = small_world
        cfg = EncoderConfig(
            vocab_size=vocab.vocab_size, hidden=16, ffn_size=32, heads=2,
            distinct_layers=1, max_positions=12,
        )
        model = SentenceEncoder.init(cfg, seed=5)
        pairs = _first_token_pairs(vocab, 64)
        # a token id past the vocabulary: embedding this pair would raise
        unknown = np.array([vocab.vocab_size])
        trailing = ParallelPair(source_ids=unknown, target_ids=unknown)
        with pytest.raises(ContractError, match="outside vocabulary"):
            embed_sentences(model, [trailing.source_ids])
        assert (retrieval_accuracy(model, pairs + [trailing])
                == retrieval_accuracy(model, pairs))

    def test_scale_invariance(self, small_world):
        vocab, _ = small_world
        pairs = _first_token_pairs(vocab, 64)
        base = self._embedder(vocab)
        scaled = lambda ids: 37.5 * base(ids)
        assert retrieval_accuracy(scaled, pairs) == 1.0

    def test_too_few_pairs_rejected(self, small_world):
        vocab, _ = small_world
        pairs = _first_token_pairs(vocab, 63)
        with pytest.raises(ContractError, match="full block"):
            retrieval_accuracy(self._embedder(vocab), pairs)

    def test_report_counts_the_pairs_it_scores(self, small_world):
        vocab, _ = small_world
        pairs = _first_token_pairs(vocab, 150, tail_rotate_from=128)
        report = retrieval_report(self._embedder(vocab), pairs)
        assert (report.task, report.n_examples, report.retrieval_accuracy) == ("retrieval", 128, 1.0)
        assert report.config == {}

    def test_report_is_none_below_one_block(self, small_world):
        vocab, _ = small_world
        assert retrieval_report(self._embedder(vocab), _first_token_pairs(vocab, 63)) is None
        assert retrieval_report(self._embedder(vocab), []) is None


def test_each_scorer_embeds_in_one_call(small_world, monkeypatch):
    vocab, oracle = small_world
    calls = []
    embed = evaluate.embed_sentences

    def counting_embed(encoder, sentences):
        calls.append(len(sentences))
        return embed(encoder, sentences)

    monkeypatch.setattr(evaluate, "embed_sentences", counting_embed)
    embed_oracle = lambda s: oracle_embed(s, oracle)
    pairs = _first_token_pairs(vocab, 150)
    retrieval_accuracy(embed_oracle, pairs)  # scores two 64-pair blocks
    assert calls == [2 * 128]
    examples = [
        StsExample(sentence_a=p.source_ids, sentence_b=p.target_ids, gold_score=float(i % 5))
        for i, p in enumerate(pairs[:10])
    ]
    sts_evaluate(embed_oracle, examples)
    assert calls == [2 * 128, 2 * 10]


class TestEmbedSentences:
    def test_empty_rejected(self):
        with pytest.raises(ContractError, match="no sentences"):
            embed_sentences(lambda s: np.zeros(4), [])

    def test_non_finite_embedding_raises(self, small_world):
        """Finite weights near the float32 maximum overflow the forward."""
        vocab, _ = small_world
        cfg = EncoderConfig(
            vocab_size=vocab.vocab_size, hidden=16, ffn_size=32, heads=2,
            distinct_layers=1, max_positions=12,
        )
        model = SentenceEncoder.init(cfg, seed=3)
        model.params["layer1.ffn.w1"].data[...] = 3e38
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="non-finite"):
                embed_sentences(model, [np.arange(4, 9)])
        with pytest.raises(NumericError, match="non-finite"):
            embed_sentences(lambda s: np.array([1.0, np.nan]), [np.arange(2)])

    def test_chunks_are_framed_in_length_order(self, small_world, monkeypatch):
        """Each encode call frames at most EMBED_TOKENS tokens, and takes the
        next sentence in length order whenever it would still fit."""
        vocab, _ = small_world
        cfg = EncoderConfig(
            vocab_size=vocab.vocab_size, hidden=16, ffn_size=32, heads=2,
            distinct_layers=1, max_positions=12,
        )
        model = SentenceEncoder.init(cfg, seed=4)
        rng = np.random.default_rng(12)
        # lengths 1-14, some past the 10 content tokens a row can hold;
        # rows frame 3 to 12 wide, so these take at least two chunks
        sentences = [
            rng.integers(4, 4 + 64, size=int(rng.integers(1, 15)))
            for _ in range(EMBED_TOKENS // 4)
        ]
        framed = []
        encode = SentenceEncoder.encode

        def recording_encode(self, ids, mask):
            framed.append(mask.sum(axis=1))
            return encode(self, ids, mask)

        monkeypatch.setattr(SentenceEncoder, "encode", recording_encode)
        got = embed_sentences(model, sentences)
        assert len(framed) >= 2 and sum(len(rows) for rows in framed) == len(sentences)
        assert all(len(rows) * rows.max() <= EMBED_TOKENS for rows in framed)
        assert all((len(rows) + 1) * nxt[0] > EMBED_TOKENS for rows, nxt in zip(framed, framed[1:]))
        widths = np.concatenate(framed)
        assert (widths[:-1] <= widths[1:]).all()
        monkeypatch.undo()
        one = np.concatenate([embed_sentences(model, [s]) for s in sentences])
        np.testing.assert_allclose(got, one, atol=1e-5)

    def test_every_encode_runs_on_the_calling_thread(self, small_world, monkeypatch):
        """A chunk may split its rows across two threads inside `encode`, but
        the chunks themselves are encoded one after another by the caller."""
        vocab, _ = small_world
        cfg = EncoderConfig(
            vocab_size=vocab.vocab_size, hidden=16, ffn_size=32, heads=2,
            distinct_layers=1, max_positions=12,
        )
        model = SentenceEncoder.init(cfg, seed=5)
        rng = np.random.default_rng(13)
        sentences = [rng.integers(4, 4 + 64, size=8) for _ in range(3 * EMBED_TOKENS // 10)]
        threads = []
        encode = SentenceEncoder.encode

        def recording_encode(self, ids, mask):
            threads.append(threading.get_ident())
            return encode(self, ids, mask)

        monkeypatch.setattr(SentenceEncoder, "encode", recording_encode)
        embed_sentences(model, sentences)
        assert len(threads) >= 2 and set(threads) == {threading.get_ident()}

    def test_callable_path_stacks(self):
        out = embed_sentences(lambda s: np.full(3, float(len(s))), [np.arange(2), np.arange(5)])
        assert out.shape == (2, 3)
        assert out[0, 0] == 2.0 and out[1, 0] == 5.0
