"""Corpus generation, cipher algebra, oracle embeddings, and TSV round trips."""

import hashlib
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crosstill import corpus as C
from crosstill.corpus import (
    BOS, EOS, PAD, UNK, OracleSemantics, ParallelPair, StsExample, VocabSpec,
)
from crosstill.errors import ContractError, ParseError
from crosstill.rng import stream

from test_pipeline import _JSON_VALUES


@pytest.fixture
def vocab():
    return VocabSpec.create(tokens_per_language=32, seed=5)


@pytest.fixture
def oracle(vocab):
    return OracleSemantics.create(vocab, dim=8, seed=5)


def _read_token(vocab, tmp_path, text: str) -> tuple[int, bool]:
    """Read `text` as a one-token sentence through the line reader; flag an unknown."""
    path = tmp_path / "token.tsv"
    path.write_text(f"{text}\t<bos>\n", encoding="utf-8")
    C.reset_unknown_token_count()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        (pair,) = C.read_parallel_tsv(path, vocab)
    unknown = C.unknown_token_count() == 1
    C.reset_unknown_token_count()
    return int(pair.source_ids[0]), unknown


class TestVocab:
    def test_ranges(self, vocab):
        assert vocab.vocab_size == 4 + 64
        assert vocab.lang1_start == 4
        assert vocab.lang2_start == 36

    def test_cipher_roundtrip(self, vocab):
        ids = np.array([4, 10, 35, 4])
        assert np.array_equal(vocab.to_lang1_ids(vocab.cipher_ids(ids)), ids)

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

    @pytest.mark.parametrize("k", [1, 2, 7, 32])
    def test_cipher_tables_match_the_permutation(self, k):
        vocab = VocabSpec.create(k, seed=k)
        lang1 = np.arange(4, 4 + k)
        lang2 = 4 + k + vocab.cipher
        np.testing.assert_array_equal(vocab.cipher_ids(lang1), lang2)
        np.testing.assert_array_equal(vocab.cipher_ids(np.arange(4)), np.arange(4))
        np.testing.assert_array_equal(vocab.to_lang1_ids(lang2), lang1)
        np.testing.assert_array_equal(
            vocab.to_lang1_ids(np.arange(4 + k)), np.arange(4 + k)
        )
        for bad in (-1, 4 + k, 4 + 2 * k):
            with pytest.raises(ContractError, match="cipher_ids"):
                vocab.cipher_ids(np.array([bad]))
        for bad in (-1, 4 + 2 * k):
            with pytest.raises(ContractError, match="to_lang1_ids"):
                vocab.to_lang1_ids(np.array([4, bad]))

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

    def test_surface_and_parse_inverse(self, vocab, tmp_path):
        ids = np.arange(vocab.vocab_size)
        path = C.write_sts_tsv(tmp_path / "all.tsv", [StsExample(ids, ids[::-1], 1.0)], vocab)
        (back,) = C.load_sts_tsv(path, vocab)
        np.testing.assert_array_equal(back.sentence_a, ids)
        np.testing.assert_array_equal(back.sentence_b, ids[::-1])

    def test_parse_decimal_id(self, vocab, tmp_path):
        assert _read_token(vocab, tmp_path, "17") == (17, False)
        assert _read_token(vocab, tmp_path, "l1_007") == (vocab.lang1_start + 7, False)

    def test_parse_unknown(self, vocab, tmp_path):
        assert _read_token(vocab, tmp_path, "zebra") == (UNK, True)
        assert _read_token(vocab, tmp_path, "l1_999") == (UNK, True)
        assert _read_token(vocab, tmp_path, "999") == (UNK, True)
        # only ASCII digits are indices; int() would take these or refuse them
        for text in ("l1_\u00b2", "\u00b2", "l2_\u0663", "1" * 5000, "l1_"):
            assert _read_token(vocab, tmp_path, text) == (UNK, True)

    @pytest.mark.parametrize("content", [
        b"{}", b"[1]", b"not json", b"\xff{}", b"[" * 100_000,
        b'{"tokens_per_language": "x", "seed": 0, "cipher": [0]}',
        b'{"tokens_per_language": 1, "seed": true, "cipher": [0]}',
        b'{"tokens_per_language": 2, "seed": 0, "cipher": [0, 0]}',
        b'{"tokens_per_language": 2, "seed": 0, "cipher": [0, 1.0]}',
        b'{"tokens_per_language": 1, "seed": 0, "cipher": [100000000000000000000000]}',
        b'{"tokens_per_language": 0, "seed": 0, "cipher": []}',
        b'{"tokens_per_language": 1, "seed": 0, "cipher": 0}',
    ], ids=[
        "empty-object", "list", "not-json", "not-utf8", "deeply-nested", "count-string",
        "seed-bool", "not-permutation", "float-index", "huge-index", "zero-count",
        "cipher-scalar",
    ])
    def test_malformed_manifest_raises_parse_error(self, tmp_path, content):
        path = tmp_path / "vocab.json"
        path.write_bytes(content)
        with pytest.raises(ParseError, match="vocab.json"):
            VocabSpec.from_manifest(path)


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


# sha256 of each file generated from the `vocab` and `oracle` fixtures by
# `gen_parallel_corpus(seed=3, n_pairs=40)` and `gen_sts_set(seed=4, n_examples=12)`
GOLDEN_SHA256 = {
    "train.tsv": "28ec6101e00f7a8f201795205d1b4621704adc90e0cdcc7de847ef2fe8366690",
    "dev.tsv": "8826a11260708b6e4d316fae30178eaf6562a2c16ae71342681293628aed30ae",
    "test.tsv": "1b2233ad1574ba8f038fb663d9bfd8e483d3ba2d30c61a0d3b8cf2d071b2a39d",
    "sts.tsv": "2367b799e87f7b350a1cbfc492b294086adb15a9e9b565b35d0da670c9ae6295",
    "vocab.json": "9924d9cba20b8bf8963c331d869d965d1edea72e56060e9c09a916fe75253bf5",
}


# sha256 of each file generated in a 512-token world by
# `gen_parallel_corpus(seed=8, n_pairs=300, length_range=(3, 14))` and
# `gen_sts_set(seed=9, n_examples=60, length_range=(3, 14))`
GOLDEN_SHA256_512 = {
    "train.tsv": "7b2c3323c66e9f6c0410b809e07136b68ff2280485cb32ed84201781af748407",
    "dev.tsv": "534a783394ac4f2aa681fb95a37c1a10852d46a9215ee8417a0c9ef0430dc144",
    "test.tsv": "f7da31b4b747062bb1734dad2815d4aee5653f8bb5d13034b02403a910cf7a35",
    "sts.tsv": "e8bee42c4ad9fdc53deebce22b5d58fb292d239c4ea59f39418d782ca8215412",
    "vocab.json": "f8caef4d62807ecea84c7273991cfdc645cb50d6f3bee1f6718b9972a825330a",
}


class TestGeneration:
    def test_generated_bytes_are_pinned_512(self, tmp_path):
        vocab = VocabSpec.create(tokens_per_language=512, seed=7)
        oracle = OracleSemantics.create(vocab, dim=16, seed=2)
        paths = C.gen_parallel_corpus(seed=8, n_pairs=300, vocab=vocab,
                                      length_range=(3, 14), out_dir=tmp_path)
        paths["sts"] = C.gen_sts_set(seed=9, n_examples=60, oracle=oracle,
                                     out_path=tmp_path / "sts.tsv", length_range=(3, 14))
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths.values()}
        assert digests == GOLDEN_SHA256_512

    def test_generated_bytes_are_pinned(self, vocab, oracle, tmp_path):
        paths = C.gen_parallel_corpus(seed=3, n_pairs=40, vocab=vocab, out_dir=tmp_path)
        paths["sts"] = C.gen_sts_set(seed=4, n_examples=12, oracle=oracle,
                                     out_path=tmp_path / "sts.tsv")
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths.values()}
        assert digests == GOLDEN_SHA256

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

    @pytest.mark.parametrize("sentences, max_seq_len", [
        ([], 16), ([np.array([4, 5])], 2), ([np.array([4, 5])], 0), ([np.array([4])], -1),
    ], ids=["no-sentences", "max-len-2", "max-len-0", "max-len-negative"])
    def test_frame_rows_rejects_bad_input(self, sentences, max_seq_len):
        with pytest.raises(ContractError):
            C.frame_rows(sentences, max_seq_len)


def _frame_rows_loop(sentences, max_seq_len):
    """frame_rows one row at a time: BOS + content + EOS, truncated, PAD-filled."""
    framed = [[BOS, *list(s)[: max_seq_len - 2], EOS] for s in sentences]
    width = max(len(f) for f in framed)
    ids = np.full((len(framed), width), PAD, dtype=np.int64)
    mask = np.zeros((len(framed), width), dtype=np.uint8)
    for row, f in enumerate(framed):
        ids[row, : len(f)] = f
        mask[row, : len(f)] = 1
    return ids, mask


@settings(max_examples=200, deadline=None)
@given(
    sentences=st.lists(
        st.lists(st.integers(min_value=0, max_value=67), max_size=20).map(
            lambda s: np.array(s, dtype=np.int64)
        ),
        min_size=1, max_size=12,
    ),
    max_seq_len=st.integers(min_value=3, max_value=24),
)
def test_frame_rows_matches_loop_reference(sentences, max_seq_len):
    ids, mask = C.frame_rows(sentences, max_seq_len)
    want_ids, want_mask = _frame_rows_loop(sentences, max_seq_len)
    assert ids.dtype == np.int64 and mask.dtype == np.uint8
    np.testing.assert_array_equal(ids, want_ids)
    np.testing.assert_array_equal(mask, want_mask)


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

    @pytest.mark.parametrize("reader, good", [
        (C.read_parallel_tsv, b"l1_1\tl2_1\n"), (C.load_sts_tsv, b"l1_1\tl1_2\t1.0\n"),
    ], ids=["parallel", "sts"])
    def test_non_utf8_line_reports_number(self, vocab, tmp_path, reader, good):
        path = tmp_path / "bad.tsv"
        path.write_bytes(good + b"\n" + good.replace(b"1", b"\xff", 1))
        with pytest.raises(ParseError, match="UTF-8") as info:
            reader(path, vocab)
        assert info.value.line == 3

    def test_crlf_and_blank_lines(self, vocab, tmp_path):
        path = tmp_path / "crlf.tsv"
        path.write_bytes(b"l1_1 l1_2\tl2_1 l2_2\r\n\r\nl1_3\tl2_3\r\n")
        pairs = C.read_parallel_tsv(path, vocab)
        assert [len(p.source_ids) for p in pairs] == [2, 1]

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


# -- fuzzing: malformed corpus files raise only ParseError ---------------------

_FUZZ_VOCAB = VocabSpec.create(tokens_per_language=8, seed=1)
_PARALLEL_LINES = b"l1_1 l1_2 l1_3\tl2_4 l2_0 l2_7\n4 5\t12 13\n<bos> l1_7\t<bos> l2_2\n"
_STS_LINES = b"l1_1 l1_2\tl1_3\t2.500000\n5 6 7\tl1_0\t0\n<unk>\tl2_1\t5.0\n"
_PIECES = st.binary(max_size=6) | st.sampled_from([
    b"\t", b"\n", b"\r", b" ", b"\xff", b"\xc3", "\u00b2".encode(), "\u0663".encode(),
    b"l1_", b"l2_", b"9" * 40, b"nan", b"inf", b"-1", b"1e999", b"5.0000001",
])
# (operation, position, piece): insert or overwrite `piece` at `position`, or
# delete `len(piece)` bytes there; positions wrap around the current length
_MUTATIONS = st.lists(
    st.tuples(st.sampled_from(["insert", "overwrite", "delete"]),
              st.integers(min_value=0, max_value=200), _PIECES),
    min_size=1, max_size=5,
)


def _mutate(blob: bytes, mutations) -> bytes:
    for op, position, piece in mutations:
        at = position % (len(blob) + 1)
        if op == "insert":
            blob = blob[:at] + piece + blob[at:]
        elif op == "overwrite":
            blob = blob[:at] + piece + blob[at + len(piece):]
        else:
            blob = blob[:at] + blob[at + len(piece):]
    return blob


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


def _read_or_parse_error(reader, path):
    """Run `reader`; it may succeed or raise ParseError naming the file and a line number."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            reader(path, _FUZZ_VOCAB)
        except ParseError as exc:
            assert exc.line is not None, exc
            assert str(exc).startswith(f"{path}: line {exc.line}: "), exc
        finally:
            C.reset_unknown_token_count()


@pytest.mark.parametrize("reader, valid", [
    (C.read_parallel_tsv, _PARALLEL_LINES), (C.load_sts_tsv, _STS_LINES),
], ids=["parallel", "sts"])
@settings(max_examples=300, deadline=None)
@given(mutations=_MUTATIONS)
def test_mutated_tsv_raises_only_parse_error(fuzz_file, reader, valid, mutations):
    fuzz_file.write_bytes(_mutate(valid, mutations))
    _read_or_parse_error(reader, fuzz_file)


@pytest.mark.parametrize("reader", [C.read_parallel_tsv, C.load_sts_tsv], ids=["parallel", "sts"])
@settings(max_examples=200, deadline=None)
@given(blob=st.binary(max_size=200))
def test_random_bytes_raise_only_parse_error(fuzz_file, reader, blob):
    fuzz_file.write_bytes(blob)
    _read_or_parse_error(reader, fuzz_file)


def _parse_token_reference(vocab, text):
    """The per-token rule as it stood before the reader's surface table."""
    specials = {"<pad>": PAD, "<bos>": BOS, "<eos>": EOS, "<unk>": UNK}
    if text in specials:
        return specials[text], False
    k = vocab.tokens_per_language
    start, limit, digits = 0, vocab.vocab_size, text
    if text.startswith("l1_"):
        start, limit, digits = 4, k, text[3:]
    elif text.startswith("l2_"):
        start, limit, digits = 4 + k, k, text[3:]
    if digits.isascii() and digits.isdigit():
        try:
            index = int(digits)
        except ValueError:
            return UNK, True
        if index < limit:
            return start + index, False
    return UNK, True


def _read_tsv_reference(path, vocab, n_fields):
    """The TSV line loop with one rule call per token; returns (lines, unknown count)."""
    lines, unknowns = [], 0
    for line_no, raw in enumerate(path.read_bytes().splitlines(), start=1):
        if not raw:
            continue
        try:
            fields = raw.decode("utf-8").split("\t")
        except UnicodeDecodeError:
            raise ParseError("not UTF-8", line_no, path) from None
        if len(fields) != n_fields:
            raise ParseError("field count", line_no, path)
        sentences = []
        for text in fields[:2]:
            tokens = text.split()
            if not tokens:
                raise ParseError("empty sentence", line_no, path)
            parsed = [_parse_token_reference(vocab, tok) for tok in tokens]
            unknowns += sum(unknown for _, unknown in parsed)
            sentences.append([i for i, _ in parsed])
        lines.append((line_no, *sentences, fields[2:]))
    return lines, unknowns


def _outcome(read):
    """`read()`'s result, or the line of the ParseError it raised."""
    try:
        return read()
    except ParseError as exc:
        return ("ParseError", exc.line)


_K = _FUZZ_VOCAB.tokens_per_language
_TOKENS = st.one_of(
    st.sampled_from(["<pad>", "<bos>", "<eos>", "<unk>", "<PAD>", "bos"]),
    st.tuples(st.sampled_from(["l1_", "l2_"]), st.integers(0, 2 * _K)).map(
        lambda t: f"{t[0]}{t[1]}"
    ),
    st.integers(0, 3 * _FUZZ_VOCAB.vocab_size).map(str),
    st.tuples(st.sampled_from(["", "l1_", "l2_"]), st.integers(1, 3),
              st.integers(0, 2 * _K)).map(lambda t: f"{t[0]}{'0' * t[1]}{t[2]}"),
    st.sampled_from(["\u00b2", "\u0663", "l1_\u0663", "l2_\u00b2", "\uff11", "l1_\uff10"]),
    st.integers(4000, 5000).map(lambda n: "1" * n),
    st.sampled_from(["l1_", "l2_", "l1_-1", "-1", "+3", " 4", "l1_1 ", "l1_1\tl2_1", "\n"]),
    st.text(max_size=6),
)
_SENTENCE = st.lists(_TOKENS, max_size=4).map(" ".join)


@pytest.mark.parametrize("n_fields", [2, 3], ids=["parallel", "sts"])
@settings(max_examples=300, deadline=None)
@given(lines=st.lists(st.lists(_SENTENCE, min_size=1, max_size=3).map("\t".join),
                      min_size=1, max_size=4))
def test_reader_matches_per_token_rule(fuzz_file, n_fields, lines):
    fuzz_file.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def read():
        C.reset_unknown_token_count()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = [(n, a.tolist(), b.tolist(), rest)
                   for n, a, b, rest in C._read_tsv(fuzz_file, _FUZZ_VOCAB, n_fields)]
        return got, C.unknown_token_count()

    try:
        assert _outcome(read) == _outcome(
            lambda: _read_tsv_reference(fuzz_file, _FUZZ_VOCAB, n_fields)
        )
    finally:
        C.reset_unknown_token_count()


# (operation, key, index, value): drop field `key`, set it to `value`, or set
# cipher entry `index` (modulo the cipher length) to `value`
_MANIFEST_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["delete", "set", "cipher"]),
        st.sampled_from(["tokens_per_language", "seed", "cipher"]) | st.text(max_size=4),
        st.integers(min_value=0, max_value=50),
        _JSON_VALUES,
    ),
    min_size=1, max_size=3,
)


@settings(max_examples=300, deadline=None)
@given(edits=_MANIFEST_EDITS, mutations=st.none() | _MUTATIONS)
def test_mutated_manifest_raises_only_parse_error(fuzz_file, edits, mutations):
    raw = {"tokens_per_language": 8, "seed": 1, "cipher": _FUZZ_VOCAB.cipher.tolist()}
    for op, key, index, value in edits:
        if op == "delete":
            raw.pop(key, None)
        elif op == "set":
            raw[key] = value
        elif isinstance(raw.get("cipher"), list) and raw["cipher"]:
            raw["cipher"][index % len(raw["cipher"])] = value
    blob = json.dumps(raw).encode("utf-8")
    fuzz_file.write_bytes(blob if mutations is None else _mutate(blob, mutations))
    try:
        VocabSpec.from_manifest(fuzz_file)
    except ParseError as exc:
        assert str(fuzz_file) in str(exc)
