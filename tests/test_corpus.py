"""Corpus generation, cipher algebra, oracle embeddings, and TSV round trips."""

import numpy as np
import pytest

from crosstill import corpus as C
from crosstill.corpus import (
    BOS, EOS, PAD, UNK, OracleSemantics, ParallelPair, StsExample, VocabSpec,
)
from crosstill.errors import ContractError, ParseError
from crosstill.rng import stream


@pytest.fixture
def vocab():
    return VocabSpec.create(tokens_per_language=32, seed=5)


@pytest.fixture
def oracle(vocab):
    return OracleSemantics.create(vocab, dim=8, seed=5)


class TestVocab:
    def test_ranges(self, vocab):
        assert vocab.vocab_size == 4 + 64
        assert vocab.lang1_start == 4
        assert vocab.lang2_start == 36

    def test_cipher_roundtrip(self, vocab):
        ids = np.array([4, 10, 35, 4])
        assert np.array_equal(vocab.decipher_ids(vocab.cipher_ids(ids)), ids)

    def test_cipher_passes_specials(self, vocab):
        ids = np.array([PAD, BOS, EOS, UNK, 7])
        out = vocab.cipher_ids(ids)
        np.testing.assert_array_equal(out[:4], [PAD, BOS, EOS, UNK])
        assert out[4] >= vocab.lang2_start

    def test_cipher_rejects_lang2_input(self, vocab):
        with pytest.raises(ContractError):
            vocab.cipher_ids(np.array([40]))

    def test_to_lang1_normalizes_mixed(self, vocab):
        src = np.array([4, 5, 6])
        tgt = vocab.cipher_ids(src)
        mixed = np.array([src[0], tgt[1], src[2], BOS])
        out = vocab.to_lang1_ids(mixed)
        np.testing.assert_array_equal(out, [4, 5, 6, BOS])

    def test_same_seed_same_cipher(self):
        a = VocabSpec.create(16, seed=9)
        b = VocabSpec.create(16, seed=9)
        np.testing.assert_array_equal(a.cipher, b.cipher)

    def test_manifest_roundtrip(self, vocab, tmp_path):
        path = tmp_path / "vocab.json"
        vocab.save_manifest(path)
        loaded = VocabSpec.from_manifest(path)
        assert loaded.tokens_per_language == vocab.tokens_per_language
        np.testing.assert_array_equal(loaded.cipher, vocab.cipher)

    def test_surface_and_parse_inverse(self, vocab):
        for token_id in [PAD, BOS, EOS, UNK, 4, 20, 36, 67]:
            parsed, unknown = vocab.parse_token(vocab.surface(token_id))
            assert parsed == token_id and not unknown

    def test_parse_decimal_id(self, vocab):
        assert vocab.parse_token("17") == (17, False)

    def test_parse_unknown(self, vocab):
        assert vocab.parse_token("zebra") == (UNK, True)
        assert vocab.parse_token("l1_999") == (UNK, True)
        assert vocab.parse_token("999") == (UNK, True)


class TestOracle:
    def test_determinism(self, vocab):
        a = OracleSemantics.create(vocab, dim=8, seed=3)
        b = OracleSemantics.create(vocab, dim=8, seed=3)
        np.testing.assert_array_equal(a.concept_vectors, b.concept_vectors)

    def test_single_token_embedding(self, oracle):
        vec = C.oracle_embed(np.array([7]), oracle)
        np.testing.assert_array_equal(vec, oracle.concept_vectors[3])

    def test_order_invariance(self, oracle):
        a = C.oracle_embed(np.array([4, 9, 12]), oracle)
        b = C.oracle_embed(np.array([12, 4, 9]), oracle)
        np.testing.assert_allclose(a, b, rtol=1e-15)

    def test_mean_matches_hand_sum(self, oracle):
        ids = np.array([5, 8, 11])
        got = C.oracle_embed(ids, oracle)
        table = oracle.concept_vectors
        for k in range(oracle.dim):
            manual = (table[1][k] + table[4][k] + table[7][k]) / 3.0
            assert got[k] == pytest.approx(manual, rel=1e-15)

    def test_parallel_pair_same_embedding(self, vocab, oracle):
        src = np.array([4, 10, 20])
        tgt = vocab.cipher_ids(src)
        np.testing.assert_allclose(
            C.oracle_embed(src, oracle), C.oracle_embed(tgt, oracle), rtol=1e-15
        )

    def test_specials_excluded(self, oracle):
        bare = C.oracle_embed(np.array([6, 9]), oracle)
        framed = C.oracle_embed(np.array([BOS, 6, 9, EOS, PAD]), oracle)
        np.testing.assert_allclose(bare, framed, rtol=1e-15)

    def test_empty_content_rejected(self, oracle):
        with pytest.raises(ContractError, match="content"):
            C.oracle_embed(np.array([BOS, EOS]), oracle)

    def test_batch_matches_single(self, vocab, oracle):
        ids = np.array([[BOS, 4, 9, EOS], [BOS, 11, EOS, PAD]])
        mask = np.array([[1, 1, 1, 1], [1, 1, 1, 0]], dtype=np.uint8)
        batch = C.oracle_embed_batch(ids, mask, oracle)
        np.testing.assert_allclose(batch[0], C.oracle_embed(ids[0], oracle), rtol=1e-15)
        np.testing.assert_allclose(batch[1], C.oracle_embed(ids[1][:3], oracle), rtol=1e-15)


class TestGeneration:
    def test_target_is_cipher_of_source(self, vocab, tmp_path):
        paths = C.gen_parallel_corpus(7, 1, vocab, out_dir=tmp_path, splits=(1.0, 0.0, 0.0))
        pairs = C.read_parallel_tsv(paths["train"], vocab)
        assert len(pairs) == 1
        np.testing.assert_array_equal(
            pairs[0].target_ids, vocab.cipher_ids(pairs[0].source_ids)
        )

    def test_same_seed_byte_identical(self, vocab, tmp_path):
        C.gen_parallel_corpus(7, 20, vocab, out_dir=tmp_path / "a")
        C.gen_parallel_corpus(7, 20, vocab, out_dir=tmp_path / "b")
        for name in ("train.tsv", "dev.tsv", "test.tsv", "vocab.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_zipf_head_dominates(self, tmp_path):
        vocab = VocabSpec.create(tokens_per_language=512, seed=7)
        paths = C.gen_parallel_corpus(7, 2000, vocab, out_dir=tmp_path,
                                      splits=(1.0, 0.0, 0.0))
        pairs = C.read_parallel_tsv(paths["train"], vocab)
        counts = np.zeros(vocab.vocab_size, dtype=np.int64)
        for p in pairs:
            np.add.at(counts, p.source_ids, 1)
        assert counts.max() / counts.sum() > 0.05

    def test_splits_disjoint(self, vocab, tmp_path):
        paths = C.gen_parallel_corpus(3, 60, vocab, out_dir=tmp_path,
                                      splits=(0.6, 0.2, 0.2))
        seen = {}
        for name in ("train", "dev", "test"):
            for p in C.read_parallel_tsv(paths[name], vocab):
                key = tuple(p.source_ids.tolist())
                assert key not in seen, f"sentence shared by {seen.get(key)} and {name}"
                seen[key] = name
        assert len(seen) == 60

    def test_lengths_respect_range(self, vocab, tmp_path):
        paths = C.gen_parallel_corpus(3, 50, vocab, length_range=(3, 6),
                                      out_dir=tmp_path, splits=(1.0, 0.0, 0.0))
        for p in C.read_parallel_tsv(paths["train"], vocab):
            assert 3 <= len(p.source_ids) <= 6

    def test_bad_splits_rejected(self, vocab, tmp_path):
        with pytest.raises(ContractError, match="splits"):
            C.gen_parallel_corpus(3, 10, vocab, out_dir=tmp_path, splits=(0.5, 0.2, 0.2))


class TestStsGeneration:
    def test_identical_pair_scores_five(self, oracle, tmp_path):
        path = C.gen_sts_set(11, 6, oracle, out_path=tmp_path / "sts.tsv")
        examples = C.load_sts_tsv(path, oracle.vocab)
        # first overlap level is 1.0: a permutation of the same tokens
        assert examples[0].gold_score == pytest.approx(5.0, abs=1e-5)

    def test_scores_in_range_and_spread(self, oracle, tmp_path):
        path = C.gen_sts_set(11, 120, oracle, out_path=tmp_path / "sts.tsv")
        examples = C.load_sts_tsv(path, oracle.vocab)
        scores = np.array([e.gold_score for e in examples])
        assert scores.min() >= 0.0 and scores.max() <= 5.0
        assert scores.var() > 0.1

    def test_scores_match_oracle_cosine(self, oracle, tmp_path):
        path = C.gen_sts_set(11, 12, oracle, out_path=tmp_path / "sts.tsv")
        for ex in C.load_sts_tsv(path, oracle.vocab):
            va = C.oracle_embed(ex.sentence_a, oracle)
            vb = C.oracle_embed(ex.sentence_b, oracle)
            cos = va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb))
            expected = float(np.clip(2.5 * (1 + cos), 0.0, 5.0))
            assert ex.gold_score == pytest.approx(expected, abs=1e-5)

    def test_determinism(self, oracle, tmp_path):
        a = C.gen_sts_set(11, 10, oracle, out_path=tmp_path / "a.tsv")
        b = C.gen_sts_set(11, 10, oracle, out_path=tmp_path / "b.tsv")
        assert a.read_bytes() == b.read_bytes()


class TestBatching:
    def make_pairs(self, vocab, lengths):
        rng = stream(2, "mk")
        out = []
        for n in lengths:
            src = vocab.lang1_start + rng.integers(0, vocab.tokens_per_language, size=n)
            out.append(ParallelPair(source_ids=src, target_ids=vocab.cipher_ids(src)))
        return out

    def test_batch_sizes(self, vocab):
        batches = C.batch_pairs(self.make_pairs(vocab, [3, 4, 5]), 16, 2)
        assert [b.size for b in batches] == [2, 1]

    def test_truncation_to_max_seq_len(self, vocab):
        pairs = self.make_pairs(vocab, [200])
        batches = C.batch_pairs(pairs, 16, 1)
        assert batches[0].source_ids.shape[1] == 16
        assert batches[0].source_ids[0, 0] == BOS
        assert batches[0].source_ids[0, 15] == EOS

    def test_mask_sum_equals_framed_length(self, vocab):
        batches = C.batch_pairs(self.make_pairs(vocab, [3, 7, 5]), 32, 3)
        batch = batches[0]
        np.testing.assert_array_equal(batch.source_mask.sum(axis=1), [5, 9, 7])
        assert (batch.source_ids[batch.source_mask == 0] == PAD).all()

    def test_shuffle_determinism(self, vocab):
        pairs = self.make_pairs(vocab, [3, 4, 5, 6, 7, 8])
        a = C.batch_pairs(pairs, 16, 2, shuffle_seed=4)
        b = C.batch_pairs(pairs, 16, 2, shuffle_seed=4)
        c = C.batch_pairs(pairs, 16, 2, shuffle_seed=5)
        np.testing.assert_array_equal(a[0].source_ids, b[0].source_ids)
        assert any(
            not np.array_equal(x.source_ids, y.source_ids) for x, y in zip(a, c)
        )


class TestLoading:
    def test_malformed_line_reports_number(self, vocab, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("l1_1 l1_2\tl2_1 l2_2\nonly one field\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 2"):
            C.read_parallel_tsv(path, vocab)

    def test_length_mismatch_rejected(self, vocab, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("l1_1 l1_2\tl2_1\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 1"):
            C.read_parallel_tsv(path, vocab)

    def test_unknown_tokens_counted(self, vocab, tmp_path):
        C.reset_unknown_token_count()
        path = tmp_path / "unk.tsv"
        path.write_text("l1_1 zebra\tl2_1 l2_2\n", encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="unknown"):
            pairs = C.read_parallel_tsv(path, vocab)
        assert pairs[0].source_ids[1] == UNK
        assert C.unknown_token_count() == 1
        C.reset_unknown_token_count()

    def test_sts_basic_line(self, vocab, tmp_path):
        path = tmp_path / "sts.tsv"
        path.write_text("l1_1 l1_2\tl1_1 l1_2\t5.0\n", encoding="utf-8")
        examples = C.load_sts_tsv(path, vocab)
        assert len(examples) == 1
        assert examples[0].gold_score == 5.0

    def test_sts_score_out_of_range(self, vocab, tmp_path):
        path = tmp_path / "sts.tsv"
        path.write_text("l1_1\tl1_2\t7.0\n", encoding="utf-8")
        with pytest.raises(ParseError, match="outside"):
            C.load_sts_tsv(path, vocab)

    def test_sts_unparseable_score(self, vocab, tmp_path):
        path = tmp_path / "sts.tsv"
        path.write_text("l1_1\tl1_2\thigh\n", encoding="utf-8")
        with pytest.raises(ParseError, match="score"):
            C.load_sts_tsv(path, vocab)

    def test_sts_roundtrip(self, vocab, tmp_path):
        examples = [
            StsExample(np.array([4, 5]), np.array([6]), 3.25),
            StsExample(np.array([7]), np.array([7]), 5.0),
        ]
        path = tmp_path / "sts.tsv"
        C.write_sts_tsv(path, examples, vocab)
        loaded = C.load_sts_tsv(path, vocab)
        assert len(loaded) == 2
        for orig, back in zip(examples, loaded):
            np.testing.assert_array_equal(orig.sentence_a, back.sentence_a)
            np.testing.assert_array_equal(orig.sentence_b, back.sentence_b)
            assert back.gold_score == pytest.approx(orig.gold_score, abs=1e-6)
