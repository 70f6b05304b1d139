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
        assert vocab.parse_token("l1_007") == (vocab.lang1_start + 7, False)

    def test_parse_unknown(self, vocab):
        assert vocab.parse_token("zebra") == (UNK, True)
        assert vocab.parse_token("l1_999") == (UNK, True)
        assert vocab.parse_token("999") == (UNK, True)
        # only ASCII digits are indices; int() would take these or refuse them
        for text in ("l1_\u00b2", "\u00b2", "l2_\u0663", "1" * 5000, "l1_"):
            assert vocab.parse_token(text) == (UNK, True)

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


class TestGeneration:
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
