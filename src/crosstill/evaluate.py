"""Scoring harness: Spearman correlation, STS evaluation, block retrieval.

Embedding providers can be either a SentenceEncoder or any callable mapping a
1-D content-id array to a vector, so the corpus oracle can stand in as a
perfect encoder when calibrating expectations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .corpus import ParallelPair, StsExample, frame_rows
from .encoder import SentenceEncoder
from .errors import ContractError, NumericError

# pairs per retrieval block: each source row picks its translation among this many
RETRIEVAL_BLOCK = 64
# Tokens (rows × framed width) per encode call: sentences are taken in
# length order, and a chunk grows while it stays within this budget, so
# 256 rows at width 10 and 160 at width 16. A chunk of at least
# `encoder.SPLIT_MIN_TOKENS` tokens runs as two row halves on two threads.
# Each half's numpy calls must be large for the second thread to pay: on a
# 2-CPU x86-64 VM one call on 40,960 float32 elements took 1.34× as long
# beside a second thread, and on 81,920 elements 1.10×. 512 ten-token
# sentences of the toy student embedded in 45.1 ms at 128 rows per chunk,
# 32.7 ms at 256 and 34.9 ms at 512.
EMBED_TOKENS = 2560


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties assigned the mean of their positions."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.shape[0], dtype=np.float64)
    sorted_vals = values[order]
    i = 0
    n = values.shape[0]
    while i < n:
        j = i
        while j + 1 < n and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman(xs, ys) -> float:
    """Pearson correlation of average ranks."""
    xs = np.asarray(xs, dtype=np.float64).reshape(-1)
    ys = np.asarray(ys, dtype=np.float64).reshape(-1)
    if xs.shape != ys.shape:
        raise ContractError(f"length mismatch: {xs.shape[0]} vs {ys.shape[0]}")
    if xs.shape[0] < 2:
        raise ContractError("spearman needs at least 2 observations")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ContractError("spearman needs finite values")
    if (xs == xs[0]).all() or (ys == ys[0]).all():
        raise ContractError("correlation undefined for a constant input")
    rx = _average_ranks(xs)
    ry = _average_ranks(ys)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    return float((dx * dy).sum() / np.sqrt((dx * dx).sum() * (dy * dy).sum()))


@dataclass
class EvalReport:
    """One scored task, with the correlation kept both raw and ×100."""

    task: str
    n_examples: int
    spearman_rho: float | None = None
    retrieval_accuracy: float | None = None
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.spearman_rho is not None and not -1.0 <= self.spearman_rho <= 1.0:
            raise ContractError(f"rho {self.spearman_rho} outside [-1, 1]")
        if self.retrieval_accuracy is not None and not 0.0 <= self.retrieval_accuracy <= 1.0:
            raise ContractError(f"accuracy {self.retrieval_accuracy} outside [0, 1]")

    @property
    def rho_x100(self) -> float | None:
        return None if self.spearman_rho is None else 100.0 * self.spearman_rho

    def summary(self) -> str:
        parts = [f"task={self.task}", f"n={self.n_examples}"]
        if self.spearman_rho is not None:
            parts.append(f"spearman_x100={self.rho_x100:.1f}")
        if self.retrieval_accuracy is not None:
            parts.append(f"retrieval_acc={self.retrieval_accuracy:.4f}")
        return " ".join(parts)

    def to_json(self) -> str:
        payload = {
            "task": self.task,
            "n_examples": self.n_examples,
            "spearman_rho": self.spearman_rho,
            "spearman_rho_x100": self.rho_x100,
            "retrieval_accuracy": self.retrieval_accuracy,
            "config": self.config,
        }
        return json.dumps(payload, sort_keys=True)


def embed_sentences(encoder, sentences: list[np.ndarray]) -> np.ndarray:
    """Stack embeddings for content-id sentences; batches transformer encoders.

    A transformer encoder takes the sentences in length order (a stable
    sort), as many per encode call as fit in `EMBED_TOKENS` framed tokens
    (rows × the chunk's widest framed row) and at least one, so sentences
    of similar length share a chunk and little of it is padding; the rows
    come back in input order. The chunks are encoded one after another on
    the calling thread, through a view of the encoder's parameters that
    shares their arrays but needs no gradient, so the forward records no
    graph and each intermediate array is freed once the next operation has
    read it. The encoder itself is not changed.
    A non-finite embedding raises NumericError, without numpy's overflow
    warnings: ranks and nearest neighbours would otherwise score NaN as a
    number.
    """
    if not sentences:
        raise ContractError("no sentences to embed")
    if isinstance(encoder, SentenceEncoder):
        view = SentenceEncoder(
            encoder.config, {name: Tensor(p.data) for name, p in encoder.params.items()}
        )
        lengths = np.array([len(s) for s in sentences])
        order = np.argsort(lengths, kind="stable")
        # framed widths (BOS, content, EOS, at most max_positions) never fall
        # in length order, so a chunk's tokens grow with every row it takes,
        # and no chunk holds more than EMBED_TOKENS rows
        widths = np.minimum(lengths[order] + 2, encoder.config.max_positions)
        rows, start = [], 0
        with np.errstate(over="ignore", invalid="ignore"):
            while start < len(order):
                ahead = widths[start:start + EMBED_TOKENS]
                tokens = np.arange(1, len(ahead) + 1) * ahead
                stop = start + max(np.count_nonzero(tokens <= EMBED_TOKENS), 1)
                chunk = [sentences[i] for i in order[start:stop]]
                ids, mask = frame_rows(chunk, encoder.config.max_positions)
                rows.append(view.encode(ids, mask).data)
                start = stop
        by_length = np.concatenate(rows, axis=0)
        out = np.empty_like(by_length)
        out[order] = by_length
    else:
        out = np.stack([np.asarray(encoder(s), dtype=np.float64) for s in sentences])
    if not np.isfinite(out).all():
        raise NumericError("non-finite sentence embedding")
    return out


def _row_cosine(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    na = np.maximum(np.linalg.norm(a, axis=-1), 1e-12)
    nb = np.maximum(np.linalg.norm(b, axis=-1), 1e-12)
    return (a * b).sum(axis=-1) / (na * nb)


def _config_of(encoder) -> dict:
    return encoder.config.to_dict() if isinstance(encoder, SentenceEncoder) else {}


def sts_evaluate(encoder, examples: list[StsExample]) -> EvalReport:
    """Spearman correlation between embedding cosines and gold scores."""
    if len(examples) < 2:
        raise ContractError("sts_evaluate needs at least 2 examples")
    n = len(examples)
    both = embed_sentences(
        encoder, [e.sentence_a for e in examples] + [e.sentence_b for e in examples]
    ).astype(np.float64)
    predicted = _row_cosine(both[:n], both[n:])
    gold = np.array([e.gold_score for e in examples], dtype=np.float64)
    rho = spearman(predicted, gold)
    return EvalReport(
        task="sts", n_examples=len(examples), spearman_rho=rho, config=_config_of(encoder),
    )


def retrieval_accuracy(encoder, pairs: list[ParallelPair]) -> float:
    """Within-block nearest-neighbor translation retrieval.

    For each block of `RETRIEVAL_BLOCK` pairs, each source row retrieves its
    nearest target row by cosine; the score is the fraction retrieving their
    own translation. Trailing pairs short of a full block are dropped
    unembedded.
    """
    if len(pairs) < RETRIEVAL_BLOCK:
        raise ContractError(
            f"retrieval needs at least one full block of {RETRIEVAL_BLOCK}, got {len(pairs)}"
        )
    n_blocks = len(pairs) // RETRIEVAL_BLOCK
    scored = pairs[:n_blocks * RETRIEVAL_BLOCK]
    both = embed_sentences(
        encoder, [p.source_ids for p in scored] + [p.target_ids for p in scored]
    ).astype(np.float64)
    src, tgt = both[:len(scored)], both[len(scored):]
    hits = 0
    for b in range(n_blocks):
        lo, hi = b * RETRIEVAL_BLOCK, (b + 1) * RETRIEVAL_BLOCK
        s = src[lo:hi] / np.maximum(np.linalg.norm(src[lo:hi], axis=1, keepdims=True), 1e-12)
        t = tgt[lo:hi] / np.maximum(np.linalg.norm(tgt[lo:hi], axis=1, keepdims=True), 1e-12)
        grid = s @ t.T
        hits += int((grid.argmax(axis=1) == np.arange(RETRIEVAL_BLOCK)).sum())
    return hits / len(scored)


def retrieval_report(encoder, pairs: list[ParallelPair]) -> EvalReport | None:
    """`retrieval_accuracy` as a report whose `n_examples` counts the pairs
    scored, a whole number of blocks; None when `pairs` hold no full block."""
    if len(pairs) < RETRIEVAL_BLOCK:
        return None
    acc = retrieval_accuracy(encoder, pairs)
    return EvalReport(
        task="retrieval", n_examples=len(pairs) // RETRIEVAL_BLOCK * RETRIEVAL_BLOCK,
        retrieval_accuracy=acc, config=_config_of(encoder),
    )
