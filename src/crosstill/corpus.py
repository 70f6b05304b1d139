"""Synthetic bilingual corpus: cipher languages, oracle semantics, TSV I/O.

The two "languages" are disjoint id ranges over a shared vocabulary, linked
by a seeded token-for-token bijection (the cipher). Translation is therefore
exact by construction, and a fixed Gaussian concept table over language-1
tokens plays the role of a frozen monolingual teacher: the embedding of a
sentence is the mean of its content-token concept vectors.

File formats:
  parallel TSV  `src tokens<TAB>tgt tokens`, tokens space-separated, either
                surface strings `l1_<k>`/`l2_<k>` or decimal global ids
  STS TSV       `sentence_a<TAB>sentence_b<TAB>score` with score in [0, 5]
  vocab manifest JSON {tokens_per_language, seed, cipher: [...]}
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError, ParseError
from .rng import stream

PAD, BOS, EOS, UNK = 0, 1, 2, 3
N_SPECIALS = 4

# a corpus directory's splits, one `{name}.tsv` each, in generation order
SPLIT_NAMES = ("train", "dev", "test")

_SPECIAL_SURFACE = {PAD: "<pad>", BOS: "<bos>", EOS: "<eos>", UNK: "<unk>"}
_SURFACE_SPECIAL = {v: k for k, v in _SPECIAL_SURFACE.items()}


_unknown_count = 0  # unknown tokens read since the last reset, across all files


def unknown_token_count() -> int:
    return _unknown_count


def reset_unknown_token_count() -> None:
    global _unknown_count
    _unknown_count = 0


# -- vocabulary and cipher -------------------------------------------------


@dataclass
class VocabSpec:
    """Two disjoint token ranges plus the bijection between them.

    Global ids: specials 0..3, language-1 tokens 4..4+K-1, language-2 tokens
    4+K..4+2K-1. `cipher[i] = j` maps language-1 index i to language-2 index j.

    Once the permutation is validated, the spec builds the tables every
    corpus path reads, each with one entry per id: `_surfaces[i]` is id i's
    surface text, `_ids` maps that text back to i, `_cipher_table` sends a
    language-1 id to its cipher image and back (specials to themselves), and
    `_lang1_table` sends every id to its language-1 form.
    """

    tokens_per_language: int
    seed: int
    cipher: np.ndarray

    def __post_init__(self):
        if self.tokens_per_language < 1:
            raise ContractError("tokens_per_language must be positive")
        self.cipher = np.asarray(self.cipher, dtype=np.int64)
        k = self.tokens_per_language
        if self.cipher.shape != (k,) or not np.array_equal(
            np.sort(self.cipher), np.arange(k)
        ):
            raise ContractError("cipher must be a permutation of language indices")
        self._surfaces = [_SPECIAL_SURFACE[i] for i in range(N_SPECIALS)]
        self._surfaces += [f"l1_{i}" for i in range(k)] + [f"l2_{i}" for i in range(k)]
        self._ids = {text: i for i, text in enumerate(self._surfaces)}
        every_id = np.arange(self.vocab_size)
        lang1 = every_id[N_SPECIALS:N_SPECIALS + k]
        self._cipher_table = every_id.copy()
        self._cipher_table[lang1] = N_SPECIALS + k + self.cipher
        self._cipher_table[N_SPECIALS + k + self.cipher] = lang1
        # an id and its cipher image lie in opposite ranges; language 1 is the lower
        self._lang1_table = np.minimum(every_id, self._cipher_table)

    @classmethod
    def create(cls, tokens_per_language: int = 512, seed: int = 0) -> "VocabSpec":
        rng = stream(seed, "cipher")
        return cls(
            tokens_per_language=tokens_per_language,
            seed=seed,
            cipher=rng.permutation(tokens_per_language),
        )

    @property
    def vocab_size(self) -> int:
        return N_SPECIALS + 2 * self.tokens_per_language

    @property
    def lang1_start(self) -> int:
        return N_SPECIALS

    @property
    def lang2_start(self) -> int:
        return N_SPECIALS + self.tokens_per_language

    def cipher_ids(self, ids) -> np.ndarray:
        """Translate language-1 content ids into language-2; specials pass through."""
        ids = np.asarray(ids, dtype=np.int64)
        if ((ids < 0) | (ids >= self.lang2_start)).any():
            raise ContractError("cipher_ids: input must contain only specials and language-1 ids")
        return self._cipher_table[ids]

    def to_lang1_ids(self, ids) -> np.ndarray:
        """Normalize mixed content to language 1 (specials untouched)."""
        ids = np.asarray(ids, dtype=np.int64)
        if ((ids < 0) | (ids >= self.vocab_size)).any():
            raise ContractError("to_lang1_ids: id outside vocabulary")
        return self._lang1_table[ids]

    def _parse_token(self, text: str) -> tuple[int, bool]:
        """Map one token to an id; second value flags an unknown.

        This is the one definition of a token. Readers look canonical surface
        text up in `_ids`, which holds this rule's result for it, and send
        only what that misses here: decimal ids, zero-padded indices and
        anything else. Indices and decimal ids are ASCII digits; anything else
        is unknown.
        """
        if text in _SURFACE_SPECIAL:
            return _SURFACE_SPECIAL[text], False
        start, limit, digits = 0, self.vocab_size, text
        if text.startswith("l1_"):
            start, limit, digits = self.lang1_start, self.tokens_per_language, text[3:]
        elif text.startswith("l2_"):
            start, limit, digits = self.lang2_start, self.tokens_per_language, text[3:]
        if digits.isascii() and digits.isdigit():
            try:
                index = int(digits)
            except ValueError:  # more digits than int() converts
                return UNK, True
            if index < limit:
                return start + index, False
        return UNK, True

    def save_manifest(self, path) -> None:
        payload = {
            "tokens_per_language": self.tokens_per_language,
            "seed": self.seed,
            "cipher": self.cipher.tolist(),
        }
        Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")

    @classmethod
    def from_manifest(cls, path) -> "VocabSpec":
        """Load a manifest written by `save_manifest`; any malformation raises ParseError."""
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"not a JSON manifest: {exc}", path=path) from None
        # `type(v) is int` keeps booleans out
        if not (isinstance(raw, dict) and type(raw.get("tokens_per_language")) is int
                and type(raw.get("seed")) is int and type(raw.get("cipher")) is list
                and all(type(index) is int for index in raw["cipher"])):
            raise ParseError("a manifest is a JSON object with integer tokens_per_language "
                             "and seed and an integer list cipher", path=path)
        try:
            return cls(raw["tokens_per_language"], raw["seed"], raw["cipher"])
        except (ContractError, OverflowError) as exc:
            raise ParseError(str(exc), path=path) from None


# -- data shapes -----------------------------------------------------------


@dataclass
class ParallelPair:
    """One sentence and its token-for-token cipher image, as content ids."""

    source_ids: np.ndarray
    target_ids: np.ndarray

    def __post_init__(self):
        self.source_ids = np.asarray(self.source_ids, dtype=np.int64)
        self.target_ids = np.asarray(self.target_ids, dtype=np.int64)
        if self.source_ids.shape != self.target_ids.shape:
            raise ContractError(
                f"parallel pair length mismatch: {len(self.source_ids)} vs "
                f"{len(self.target_ids)}"
            )


@dataclass
class ParallelBatch:
    """Framed, padded id matrices with {0,1} masks; PAD everywhere the mask is 0."""

    source_ids: np.ndarray
    target_ids: np.ndarray
    source_mask: np.ndarray
    target_mask: np.ndarray

    def __post_init__(self):
        for ids, mask in ((self.source_ids, self.source_mask),
                          (self.target_ids, self.target_mask)):
            if ids.shape != mask.shape:
                raise ContractError("batch ids and mask shapes differ")
            if (ids[mask == 0] != PAD).any():
                raise ContractError("masked positions must hold PAD")

    @property
    def size(self) -> int:
        return self.source_ids.shape[0]


@dataclass
class StsExample:
    """Two content-id sentences and a gold similarity in [0, 5]."""

    sentence_a: np.ndarray
    sentence_b: np.ndarray
    gold_score: float

    def __post_init__(self):
        self.sentence_a = np.asarray(self.sentence_a, dtype=np.int64)
        self.sentence_b = np.asarray(self.sentence_b, dtype=np.int64)
        if not 0.0 <= self.gold_score <= 5.0:
            raise ContractError(f"gold score {self.gold_score} outside [0, 5]")


# -- oracle semantics ------------------------------------------------------


@dataclass
class OracleSemantics:
    """Fixed concept vector per language-1 token; the frozen teacher."""

    concept_vectors: np.ndarray
    vocab: VocabSpec
    seed: int

    @classmethod
    def create(cls, vocab: VocabSpec, dim: int, seed: int = 0) -> "OracleSemantics":
        if dim < 1:
            raise ContractError(f"dim must be at least 1, got {dim}")
        rng = stream(seed, "oracle-concepts")
        table = rng.standard_normal((vocab.tokens_per_language, dim))
        return cls(concept_vectors=table, vocab=vocab, seed=seed)

    @property
    def dim(self) -> int:
        return self.concept_vectors.shape[1]


def oracle_embed_batch(ids: np.ndarray, mask: np.ndarray, oracle: OracleSemantics) -> np.ndarray:
    """The teacher: per row of a framed, padded id matrix, the mean concept
    vector of its unmasked content tokens, language-normalized."""
    ids = np.asarray(ids, dtype=np.int64)
    flat = oracle.vocab.to_lang1_ids(ids.reshape(-1)).reshape(ids.shape)
    content = (np.asarray(mask) != 0) & (flat >= N_SPECIALS)
    counts = content.sum(axis=1)
    if (counts == 0).any():
        raise ContractError("oracle_embed_batch: a row has no content tokens")
    gathered = oracle.concept_vectors[np.where(content, flat - N_SPECIALS, 0)]
    sums = (gathered * content[:, :, None]).sum(axis=1)
    return sums / counts[:, None]


def oracle_embed(sentence_ids, oracle: OracleSemantics) -> np.ndarray:
    """`oracle_embed_batch` of one unmasked sentence."""
    ids = np.asarray(sentence_ids, dtype=np.int64).reshape(1, -1)
    return oracle_embed_batch(ids, np.ones_like(ids), oracle)[0]


# -- generation ------------------------------------------------------------


def _zipf_cdf(k: int) -> np.ndarray:
    """Zipf(1.0) cumulative distribution over `k` indices, built for sampling.

    `cdf.searchsorted(rng.random(n), side="right")` is how
    `rng.choice(k, size=n, p=probs)` samples inside, with this same
    normalisation: the two draw the same indices from the same stream.
    """
    weights = 1.0 / np.arange(1, k + 1, dtype=np.float64)
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf


def _draw_sentences(rng, vocab: VocabSpec, n: int, length_range: tuple[int, int]):
    """Distinct language-1 content sentences with Zipf(1.0) token frequencies."""
    lo, hi = length_range
    if lo < 3:
        raise ContractError(f"minimum sentence length is 3, got {lo}")
    if hi < lo:
        raise ContractError(f"empty length range ({lo}, {hi})")
    cdf = _zipf_cdf(vocab.tokens_per_language)
    seen: set[bytes] = set()
    out: list[np.ndarray] = []
    attempts = 0
    while len(out) < n:
        attempts += 1
        if attempts > 50 * n + 100:
            raise ContractError(
                f"could not draw {n} distinct sentences; vocabulary or length range too small"
            )
        length = int(rng.integers(lo, hi + 1))
        tokens = cdf.searchsorted(rng.random(length), side="right")
        key = tokens.tobytes()  # lengths differ in bytes, so equal keys are equal sentences
        if key in seen:
            continue
        seen.add(key)
        out.append(N_SPECIALS + tokens)
    return out


def _flatten(sentences: list[np.ndarray]) -> tuple[np.ndarray, list[int]]:
    """The sentences' ids end to end, and the offset where each sentence ends."""
    ends = np.cumsum([len(s) for s in sentences], dtype=np.int64).tolist()
    return (np.concatenate(sentences) if sentences else np.empty(0, dtype=np.int64)), ends


def _format_sentences(flat_ids: np.ndarray, ends: list[int], vocab: VocabSpec) -> list[str]:
    """Surface text of each sentence, `flat_ids` cut at `ends` (see `_flatten`)."""
    if flat_ids.size and (flat_ids.min() < 0 or flat_ids.max() >= vocab.vocab_size):
        raise ContractError(
            f"ids {flat_ids.min()}..{flat_ids.max()} outside vocabulary of {vocab.vocab_size}"
        )
    words = list(map(vocab._surfaces.__getitem__, flat_ids.tolist()))
    return [" ".join(words[start:end]) for start, end in zip([0, *ends], ends)]


def _write_tsv(path, rows) -> Path:
    """Write each row of string fields as one tab-separated line."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join("\t".join(row) + "\n" for row in rows), encoding="utf-8")
    return path


def gen_parallel_corpus(
    seed: int,
    n_pairs: int,
    vocab: VocabSpec,
    length_range: tuple[int, int] = (3, 12),
    out_dir=".",
    splits: tuple[float, float, float] = (0.9, 0.05, 0.05),
) -> dict[str, Path]:
    """Write train/dev/test parallel TSVs plus the vocab manifest.

    Sentences are distinct, so the splits are disjoint. Targets are the exact
    cipher image of their sources.
    """
    if n_pairs < 1:
        raise ContractError("n_pairs must be at least 1")
    if len(splits) != 3 or any(s < 0 for s in splits) or not abs(sum(splits) - 1.0) <= 1e-9:
        raise ContractError(f"splits must be three non-negative fractions summing to 1, got {splits}")
    rng = stream(seed, "parallel-corpus")
    sentences = _draw_sentences(rng, vocab, n_pairs, length_range)

    n_train = int(n_pairs * splits[0])
    n_dev = int(n_pairs * splits[1])
    bounds = dict(zip(SPLIT_NAMES, (
        sentences[:n_train], sentences[n_train:n_train + n_dev], sentences[n_train + n_dev:],
    )))
    out_dir = Path(out_dir)
    paths = {}
    for name, split_sentences in bounds.items():
        sources, ends = _flatten(split_sentences)
        paths[name] = _write_tsv(out_dir / f"{name}.tsv", zip(
            _format_sentences(sources, ends, vocab),
            _format_sentences(vocab.cipher_ids(sources), ends, vocab),
        ))
    vocab.save_manifest(out_dir / "vocab.json")
    paths["vocab"] = out_dir / "vocab.json"
    return paths


def gen_sts_set(
    seed: int,
    n_examples: int,
    oracle: OracleSemantics,
    out_path="sts.tsv",
    length_range: tuple[int, int] = (3, 12),
) -> Path:
    """Write an STS TSV whose gold score is the oracle cosine mapped to [0, 5].

    Pairs cycle through token-overlap levels, from identical (score 5)
    through disjoint (score near 2.5) down to anti-selected token sets, so
    the score distribution is wide rather than clustered.
    """
    if n_examples < 1:
        raise ContractError("n_examples must be at least 1")
    vocab = oracle.vocab
    rng = stream(seed, "sts-set")
    cdf = _zipf_cdf(vocab.tokens_per_language)
    lo, hi = length_range
    if lo < 1 or hi < lo:
        raise ContractError(f"bad length range ({lo}, {hi})")
    overlap_levels = (1.0, 0.75, 0.5, 0.25, 0.0, -1.0)  # -1 marks anti-selection

    a_side, b_side = [], []
    for i in range(n_examples):
        level = overlap_levels[i % len(overlap_levels)]
        length = int(rng.integers(lo, hi + 1))
        a_tokens = cdf.searchsorted(rng.random(length), side="right")
        a_ids = N_SPECIALS + a_tokens
        if level == 1.0:
            b_tokens = rng.permutation(a_tokens)
        elif level < 0.0:
            # pick tokens whose concepts point away from A's embedding
            a_vec = oracle_embed(a_ids, oracle)
            pool_size = min(64, vocab.tokens_per_language)
            pool = rng.choice(vocab.tokens_per_language, size=pool_size, replace=False)
            scores = oracle.concept_vectors[pool] @ a_vec
            ranked = pool[np.argsort(scores)]
            b_tokens = np.resize(ranked, length)
        else:
            keep = int(round(level * length))
            b_tokens = a_tokens.copy()
            redraw = rng.choice(length, size=length - keep, replace=False)
            b_tokens[redraw] = cdf.searchsorted(rng.random(length - keep), side="right")
        a_side.append(a_ids)
        b_side.append(N_SPECIALS + b_tokens)
    # one teacher call per side; framing adds only specials, which it skips
    va, vb = (oracle_embed_batch(*frame_rows(side, hi + 2), oracle) for side in (a_side, b_side))
    examples = []
    for a_ids, b_ids, a_vec, b_vec in zip(a_side, b_side, va, vb):
        cos = float(a_vec @ b_vec / (np.linalg.norm(a_vec) * np.linalg.norm(b_vec)))
        score = float(np.clip(2.5 * (1.0 + cos), 0.0, 5.0))
        examples.append(StsExample(sentence_a=a_ids, sentence_b=b_ids, gold_score=score))
    return write_sts_tsv(out_path, examples, vocab)


# -- loading ---------------------------------------------------------------


def _read_tsv(path, vocab: VocabSpec, n_fields: int):
    """Yield `(line number, sentence a, sentence b, other fields)` per non-blank line.

    A line holds `n_fields` tab-separated fields, the first two sentences. One
    that is not UTF-8, has another field count or an empty sentence raises
    ParseError; every ParseError about a line names the file and the line.
    Tokens are looked up in the vocabulary's surface table; only text it
    misses goes through `VocabSpec._parse_token`. Unknown tokens become UNK
    and are counted, one warning per file.
    """
    global _unknown_count
    known = vocab._ids
    unknowns = 0
    for line_no, raw in enumerate(Path(path).read_bytes().splitlines(), start=1):
        if not raw:
            continue
        try:
            fields = raw.decode("utf-8").split("\t")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 at byte {exc.start + 1}", line_no, path) from None
        if len(fields) != n_fields:
            raise ParseError(
                f"expected {n_fields} tab-separated fields, found {len(fields)}", line_no, path
            )
        sentences = []
        for text in fields[:2]:
            tokens = text.split()
            if not tokens:
                raise ParseError("empty sentence", line_no, path)
            ids = [known.get(tok) for tok in tokens]
            if None in ids:
                for i, tok in enumerate(tokens):
                    if ids[i] is None:
                        ids[i], was_unknown = vocab._parse_token(tok)
                        unknowns += was_unknown
            sentences.append(np.array(ids, dtype=np.int64))
        yield line_no, *sentences, fields[2:]
    if unknowns > 0:
        _unknown_count += unknowns
        warnings.warn(
            f"{path}: {unknowns} unknown token(s) mapped to <unk>", RuntimeWarning,
            stacklevel=3,
        )


def read_parallel_tsv(path, vocab: VocabSpec) -> list[ParallelPair]:
    """Parse a parallel TSV into content-id pairs."""
    pairs: list[ParallelPair] = []
    for line_no, src, tgt, _ in _read_tsv(path, vocab, n_fields=2):
        if src.shape != tgt.shape:
            raise ParseError(
                f"source has {len(src)} tokens but target has {len(tgt)}", line_no, path
            )
        pairs.append(ParallelPair(source_ids=src, target_ids=tgt))
    return pairs


def frame_rows(sentences: list[np.ndarray], max_seq_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Frame each sentence as BOS + content + EOS, truncated to `max_seq_len`.

    Rows are PAD-filled to the widest framed row; the {0,1} mask marks the
    framed tokens.
    """
    if not sentences:
        raise ContractError("frame_rows: no sentences to frame")
    if max_seq_len < 3:
        raise ContractError("max_seq_len must be at least 3 to fit BOS, EOS and content")
    limit = max_seq_len - 2
    lengths = np.array([len(s) for s in sentences], dtype=np.int64)
    content = np.minimum(lengths, limit)
    columns = np.arange(content.max() + 2)
    ids = np.full((len(sentences), columns.size), PAD, dtype=np.int64)
    ids[:, 0] = BOS
    ids[(columns >= 1) & (columns <= content[:, None])] = np.concatenate(
        sentences if lengths.max() <= limit else [s[:limit] for s in sentences]
    )
    ids[np.arange(len(sentences)), content + 1] = EOS
    mask = (columns < content[:, None] + 2).astype(np.uint8)
    return ids, mask


def batch_pairs(
    pairs: list[ParallelPair],
    max_seq_len: int,
    batch_size: int,
    shuffle_seed: int | None = None,
) -> list[ParallelBatch]:
    """Frame with BOS/EOS, truncate, pad per batch, and optionally shuffle.

    Both sides of a batch share one width: the widest framed sentence in it.
    """
    if batch_size < 1:
        raise ContractError("batch_size must be positive")
    order = np.arange(len(pairs))
    if shuffle_seed is not None:
        order = stream(shuffle_seed, "batch-shuffle").permutation(order)
    batches: list[ParallelBatch] = []
    for start in range(0, len(pairs), batch_size):
        chunk = [pairs[i] for i in order[start:start + batch_size]]
        n = len(chunk)
        ids, mask = frame_rows(
            [p.source_ids for p in chunk] + [p.target_ids for p in chunk], max_seq_len
        )
        batches.append(
            ParallelBatch(
                source_ids=ids[:n], target_ids=ids[n:],
                source_mask=mask[:n], target_mask=mask[n:],
            )
        )
    return batches


def load_sts_tsv(path, vocab: VocabSpec) -> list[StsExample]:
    """Parse an STS TSV; scores outside [0, 5] are rejected with the line number."""
    examples: list[StsExample] = []
    for line_no, a, b, (score_text,) in _read_tsv(path, vocab, n_fields=3):
        try:
            score = float(score_text)
        except ValueError:
            raise ParseError(f"unparseable score {score_text!r}", line_no, path) from None
        if not np.isfinite(score) or not 0.0 <= score <= 5.0:
            raise ParseError(f"score {score_text} outside [0, 5]", line_no, path)
        examples.append(StsExample(sentence_a=a, sentence_b=b, gold_score=score))
    return examples


def write_sts_tsv(path, examples: list[StsExample], vocab: VocabSpec) -> Path:
    return _write_tsv(path, zip(
        _format_sentences(*_flatten([ex.sentence_a for ex in examples]), vocab),
        _format_sentences(*_flatten([ex.sentence_b for ex in examples]), vocab),
        [f"{ex.gold_score:.6f}" for ex in examples],
    ))
