"""Artifact validators: corpus directories and training-run outputs.

These re-check on disk what the generators and the training driver promise
in memory, so a corrupted or hand-edited artifact fails loudly before it
poisons a run.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint
from .errors import ConfigError, ContractError
from .pipeline import METRICS_LOG, STAGES, MetricsLog, read_corpus_dir


def validate_corpus_dir(corpus_dir) -> dict:
    """Check a generated corpus directory end to end.

    Verifies the manifest loads, every split parses, splits are disjoint,
    and each target sentence is the exact cipher image of its source.
    Returns per-split pair counts and the observed length range.
    """
    vocab, splits = read_corpus_dir(corpus_dir)
    counts: dict[str, int] = {}
    seen: dict[tuple, str] = {}
    lengths: list[int] = []
    for name, pairs in splits.items():
        counts[name] = len(pairs)
        for row, pair in enumerate(pairs, start=1):
            key = tuple(pair.source_ids.tolist())
            if key in seen:
                raise ContractError(
                    f"sentence {row} of {name} duplicates one in {seen[key]}; "
                    "splits must be disjoint"
                )
            seen[key] = name
            expected = vocab.cipher_ids(pair.source_ids)
            if not np.array_equal(pair.target_ids, expected):
                raise ContractError(
                    f"pair {row} of {name}: target is not the cipher image of its source"
                )
            lengths.append(len(pair.source_ids))
    return {
        "vocab_size": vocab.vocab_size,
        "pairs": counts,
        "length_range": (min(lengths), max(lengths)),
    }


def validate_run_artifacts(out_dir) -> dict:
    """Check the directory of a finished `run_pipeline` run.

    Every stage checkpoint must load cleanly; the metrics log must parse with
    strictly advancing epochs and finite losses. Returns checkpoint digests
    keyed `stage1` to `stage4` and per-stage record counts.
    """
    out_dir = Path(out_dir)
    digests: dict[str, str] = {}
    for spec in STAGES:
        path = out_dir / spec.checkpoint
        if not path.exists():
            raise ConfigError(f"missing checkpoint {path}")
        digests[f"stage{spec.stage}"] = load_checkpoint(path).checksum()

    metrics_path = out_dir / METRICS_LOG
    if not metrics_path.exists():
        raise ConfigError(f"missing metrics log {metrics_path}")
    log = MetricsLog.read(metrics_path)
    bad = [r for r in log.records if not np.isfinite(r["loss"])]
    if bad:
        raise ContractError(
            f"metrics log holds a non-finite loss at stage {bad[0]['stage']} "
            f"epoch {bad[0]['epoch']}"
        )
    per_stage: dict = {}
    for record in log.records:
        per_stage[record["stage"]] = per_stage.get(record["stage"], 0) + 1
    return {"checkpoints": digests, "records": len(log.records), "per_stage": per_stage}
