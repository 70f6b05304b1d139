"""Timing hooks installed from outside the package.

Nothing here edits `src/`. Every hook replaces a name in the namespace where
its caller looks it up (for example `crosstill.pipeline.backward`, which the
training loop calls, or `crosstill.autodiff.matmul`, which the encoder and
the `Tensor` operators call), and every hook is removed again on exit.

`Probe` is the small, always-on set the end-to-end metrics need: optimizer
step intervals, evaluation time and the stage being trained, read from a
`ReferenceClock`. `Tracer` is the full per-layer set used only by
`--trace 1`: it records one span (name, start, end, parent) per wrapped
call in flat arrays and aggregates them after the run.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from array import array

import numpy as np

import crosstill.autodiff
import crosstill.corpus
import crosstill.encoder
import crosstill.evaluate
import crosstill.optim
import crosstill.pipeline

AUTODIFF_OPS = (
    "matmul", "gelu", "layer_norm", "softmax_last", "add", "sub", "mul", "div",
    "gather_rows", "transpose", "reshape", "tsum", "tmean", "tsqrt", "clip_min",
    "texp", "tlog",
)

_clock = time.perf_counter


class _Patches:
    """Replaced attributes, restored in reverse order on close."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, name: str, make):
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


def reference_kernel() -> float:
    """A fixed piece of small-matrix numpy and Python work, about 2 ms.

    Its shape follows the package's own work (64-wide float64 matmuls,
    elementwise numpy, a Python loop over floats), so a shared machine that
    slows the package down slows this kernel down by about as much.
    """
    x = _REF_X
    total = 0.0
    for _ in range(20):
        x = np.tanh(x @ _REF_W)
        total = sum(float(v) for v in x[0, :32])
    return total


_REF_RNG = np.random.default_rng(0)
_REF_X = _REF_RNG.standard_normal((64, 128))
_REF_W = _REF_RNG.standard_normal((128, 128))


class ReferenceClock:
    """A clock that counts program time at the speed of `reference_kernel`.

    Each `now()` closes the interval since the previous call, runs the
    reference kernel right after it and advances by the interval times
    `NOMINAL_S` over the mean time of the two kernel runs that bracket the
    interval. The kernel's own time is counted in neither clock. A machine
    shared with other work changes speed within seconds, and it changes the
    interval and the kernels timed next to it alike, so the ratio holds
    still where wall time does not. `raw` is the same program time in plain
    seconds.

    With `reference=False` the clock runs no kernel and advances by plain
    seconds, for traced runs whose spans must not contain the kernel.
    """

    # About the kernel's median time on the 2-CPU x86-64 machine the
    # baseline was taken on, so reference seconds read close to seconds.
    NOMINAL_S = 0.0017

    def __init__(self, reference: bool = True):
        self.reference = reference
        self.virtual = 0.0
        self.raw = 0.0
        self.samples = 0
        self._mark = _clock()
        self._last_ref: float | None = None

    def now(self) -> float:
        start = _clock()
        interval = start - self._mark
        if self.reference:
            reference_kernel()
            end = _clock()
            ref = end - start
            before = ref if self._last_ref is None else self._last_ref
            self.virtual += interval * self.NOMINAL_S / (0.5 * (before + ref))
            self._last_ref = ref
        else:
            end = start
            self.virtual += interval
        self.raw += interval
        self.samples += 1
        self._mark = end
        return self.virtual


class Probe:
    """Step intervals and evaluation time, measured from outside.

    A step interval is the time between consecutive `AdamW.step` returns in
    one epoch; a new epoch starts when the training loop asks
    `batch_pairs` for its shuffled batches. All times are read from
    `self.clock`, which is ticked at every step, epoch and stage start,
    evaluation start and end, every `SentenceEncoder.encode` inside an
    evaluation, and wherever a workload reads it.
    """

    def __init__(self, reference: bool = True):
        self.clock = ReferenceClock(reference)
        self.stage = 0
        self.step_ms: list[tuple[int, float]] = []
        self.eval_s = 0.0
        self._last_step: float | None = None
        self._eval_depth = 0

    def now(self) -> float:
        return self.clock.now()

    @contextlib.contextmanager
    def installed(self):
        patches = _Patches()
        try:
            patches.replace(crosstill.optim.AdamW, "step", self._on_step)
            patches.replace(crosstill.pipeline, "batch_pairs", self._on_epoch)
            patches.replace(crosstill.pipeline, "run_stage", self._on_stage)
            patches.replace(crosstill.encoder.SentenceEncoder, "encode", self._on_encode)
            for module in (crosstill.pipeline, crosstill.evaluate):
                for name in ("retrieval_accuracy", "sts_evaluate"):
                    patches.replace(module, name, self._on_eval)
            yield self
        finally:
            patches.restore()

    def _on_step(self, step):
        probe = self

        @functools.wraps(step)
        def timed_step(optimizer):
            lr = step(optimizer)
            now = probe.now()
            if probe._last_step is not None:
                probe.step_ms.append((probe.stage, 1000.0 * (now - probe._last_step)))
            probe._last_step = now
            return lr

        return timed_step

    def _on_epoch(self, batch_pairs):
        @functools.wraps(batch_pairs)
        def epoch_start(*args, **kwargs):
            self.now()
            self._last_step = None
            return batch_pairs(*args, **kwargs)

        return epoch_start

    def _on_stage(self, run_stage):
        @functools.wraps(run_stage)
        def staged(cfg, plan, *args, **kwargs):
            self.now()
            self.stage, self._last_step = plan.stage, None
            return run_stage(cfg, plan, *args, **kwargs)

        return staged

    def _on_encode(self, encode):
        probe = self

        @functools.wraps(encode)
        def ticked_encode(encoder, *args, **kwargs):
            out = encode(encoder, *args, **kwargs)
            if probe._eval_depth:
                probe.now()
            return out

        return ticked_encode

    def _on_eval(self, evaluate):
        @functools.wraps(evaluate)
        def timed_eval(*args, **kwargs):
            self._eval_depth += 1
            start = self.now()
            try:
                return evaluate(*args, **kwargs)
            finally:
                elapsed = self.now() - start
                self._eval_depth -= 1
                if not self._eval_depth:
                    self.eval_s += elapsed
                self._last_step = None

        return timed_eval


class Tracer:
    """In-memory span recorder for every layer's public entry points."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}

    # -- recording ----------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(_clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = _clock()
        self._stack.pop()

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, fn, name, after=None):
        """Span around `fn`; `after(*args)` then counts the call's work.

        `name` is a span name, or a function of the call's arguments that
        returns one.
        """
        fixed = self.name_id(name) if isinstance(name, str) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(fixed if fixed is not None else self.name_id(name(*args, **kwargs)))
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(*args, **kwargs)
            return out

        return traced

    def _wrap_op(self, fn, op: str):
        fwd, vjp_id = self.name_id(f"autodiff.fwd.{op}"), self.name_id(f"autodiff.vjp.{op}")

        @functools.wraps(fn)
        def traced_op(*args, **kwargs):
            idx = self.open(fwd)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            vjp = out._vjp
            if vjp is not None:
                def timed_vjp(g):
                    j = self.open(vjp_id)
                    try:
                        return vjp(g)
                    finally:
                        self.close(j)

                out._vjp = timed_vjp
            return out

        return traced_op

    @staticmethod
    def _encode_span(encoder, *args, **kwargs) -> str:
        # The toy student is the bottlenecked encoder; the assistant is not.
        role = "student" if encoder.config.bottleneck_enabled else "assistant"
        frozen = not any(p.requires_grad for p in encoder.params.values())
        return f"encoder.encode.{role}" + (".frozen" if frozen else "")

    def _count_embed(self, encoder, sentences, batch_size=64):
        lengths = np.fromiter((len(s) for s in sentences), dtype=np.int64, count=len(sentences))
        if isinstance(encoder, crosstill.encoder.SentenceEncoder):
            framed = np.minimum(lengths, encoder.config.max_positions - 2) + 2
            for lo in range(0, len(framed), batch_size):
                chunk = framed[lo:lo + batch_size]
                self.count("evaluate.positions", int(chunk.max()) * len(chunk))
                self.count("evaluate.padded", int((chunk.max() - chunk).sum()))
        self.count("evaluate.sentences", len(sentences))

    def _count_save(self, encoder, path):
        self.count("checkpoint.saves")
        self.count("checkpoint.bytes", os.path.getsize(path))

    @contextlib.contextmanager
    def installed(self):
        patches = _Patches()
        pipeline = crosstill.pipeline
        try:
            for op in AUTODIFF_OPS:
                patches.replace(crosstill.autodiff, op, lambda f, op=op: self._wrap_op(f, op))
            patches.replace(pipeline, "backward", lambda f: self.wrap(f, "autodiff.backward"))
            enc = crosstill.encoder.SentenceEncoder
            patches.replace(enc, "encode", lambda f: self.wrap(f, self._encode_span))
            patches.replace(
                enc, "embedding_output", lambda f: self.wrap(f, "encoder.embedding_output")
            )
            patches.replace(enc, "checksum", lambda f: self.wrap(f, "encoder.checksum"))
            for name, span in (
                ("loss_anchor_align", "losses.anchor_align"),
                ("loss_pairwise_align", "losses.pairwise_align"),
                ("loss_stage4", "losses.stage4"),
            ):
                patches.replace(pipeline, name, lambda f, s=span: self.wrap(f, s))
            patches.replace(crosstill.optim.AdamW, "step", lambda f: self.wrap(f, "optim.step"))
            patches.replace(pipeline, "run_pipeline", lambda f: self.wrap(f, "pipeline.run"))
            patches.replace(pipeline, "run_single_stage", lambda f: self.wrap(f, "pipeline.run"))
            patches.replace(
                pipeline, "run_stage",
                lambda f: self.wrap(f, lambda cfg, plan, *a, **k: f"pipeline.stage.{plan.stage}"),
            )
            patches.replace(
                pipeline, "_eval_snapshot", lambda f: self.wrap(f, "pipeline.eval_snapshot")
            )
            corpus = crosstill.corpus
            for name in ("gen_parallel_corpus", "gen_sts_set"):
                patches.replace(corpus, name, lambda f: self.wrap(f, "corpus.gen"))
            for name in ("read_parallel_tsv", "load_sts_tsv"):
                patches.replace(pipeline, name, lambda f: self.wrap(f, "corpus.read"))
                patches.replace(corpus, name, lambda f: self.wrap(f, "corpus.read"))
            patches.replace(pipeline, "batch_pairs", lambda f: self.wrap(f, "corpus.batch_pairs"))
            patches.replace(
                pipeline, "oracle_embed_batch", lambda f: self.wrap(f, "corpus.oracle_embed")
            )
            evaluate = crosstill.evaluate
            patches.replace(
                evaluate, "embed_sentences",
                lambda f: self.wrap(f, "evaluate.embed", after=self._count_embed),
            )
            for module in (pipeline, evaluate):
                for name, span in (
                    ("retrieval_accuracy", "evaluate.retrieval"), ("sts_evaluate", "evaluate.sts"),
                ):
                    patches.replace(module, name, lambda f, s=span: self.wrap(f, s))
            patches.replace(
                pipeline, "save_checkpoint",
                lambda f: self.wrap(f, "checkpoint.save", after=self._count_save),
            )
            patches.replace(pipeline, "load_checkpoint", lambda f: self.wrap(f, "checkpoint.load"))
            yield self
        finally:
            patches.restore()

    # -- aggregation ----------------------------------------------------------

    def _arrays(self):
        return (
            np.frombuffer(self.name_of, dtype=np.uint16),
            np.frombuffer(self.parent, dtype=np.int64),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
        )

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Inclusive seconds, self seconds and call counts per span name."""
        name_of, parent, start, end = self._arrays()
        dur = end - start
        child = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        k = len(self.names)
        incl = np.bincount(name_of, weights=dur, minlength=k)
        own = np.bincount(name_of, weights=dur - child, minlength=k)
        calls = np.bincount(name_of, minlength=k)
        return (
            dict(zip(self.names, incl.tolist())),
            dict(zip(self.names, own.tolist())),
            dict(zip(self.names, calls.tolist())),
        )

    def write(self, path) -> None:
        """Write every span as arrays plus the name table, for later inspection."""
        name_of, parent, start, end = self._arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name=name_of, parent=parent,
            start=start, end=end,
        )


def _p50(values) -> float:
    return float(np.percentile(values, 50)) if len(values) else 0.0


def layer_metrics(tracer: Tracer, probe: Probe, cpu_s: float, wall_s: float) -> dict[str, float]:
    """Per-layer figures for one traced set-up plus one traced unit."""
    incl, own, calls = tracer.totals()

    def s(name: str) -> float:
        return incl.get(name, 0.0)

    def layer_self(layer: str) -> float:
        return sum(v for k, v in own.items() if k.startswith(layer + "."))

    m: dict[str, float] = {}
    m["autodiff.backward_s"] = s("autodiff.backward")
    m["autodiff.backward_self_s"] = own.get("autodiff.backward", 0.0)
    m["autodiff.nodes"] = sum(calls.get(f"autodiff.vjp.{op}", 0) for op in AUTODIFF_OPS)
    for op in AUTODIFF_OPS:
        m[f"autodiff.fwd_s.{op}"] = s(f"autodiff.fwd.{op}")
        m[f"autodiff.vjp_s.{op}"] = s(f"autodiff.vjp.{op}")
        m[f"autodiff.calls.{op}"] = calls.get(f"autodiff.fwd.{op}", 0)
    m["autodiff.self_s"] = layer_self("autodiff")

    roles = {
        "student": ("encoder.encode.student", "encoder.encode.student.frozen"),
        "assistant": ("encoder.encode.assistant", "encoder.encode.assistant.frozen"),
        "frozen": ("encoder.encode.student.frozen", "encoder.encode.assistant.frozen"),
    }
    for role, names in roles.items():
        m[f"encoder.encode_s.{role}"] = sum(s(n) for n in names)
    m["encoder.embedding_output_s"] = s("encoder.embedding_output")
    m["encoder.checksum_s"] = s("encoder.checksum")
    m["encoder.self_s"] = layer_self("encoder")

    m["losses.anchor_align_s"] = s("losses.anchor_align")
    m["losses.pairwise_align_s"] = s("losses.pairwise_align")
    m["losses.stage4_s"] = s("losses.stage4")
    m["losses.clamps"] = tracer.counts.get("losses.clamps", 0)
    m["losses.self_s"] = layer_self("losses")

    m["optim.step_s"] = s("optim.step")
    m["optim.steps"] = calls.get("optim.step", 0)
    m["optim.self_s"] = layer_self("optim")

    for k in (1, 2, 3, 4):
        m[f"pipeline.stage_s.{k}"] = s(f"pipeline.stage.{k}")
        m[f"pipeline.step_ms.p50.{k}"] = _p50([ms for st, ms in probe.step_ms if st == k])
    m["pipeline.eval_snapshot_s"] = s("pipeline.eval_snapshot")
    m["pipeline.stage_runs"] = sum(calls.get(f"pipeline.stage.{k}", 0) for k in (1, 2, 3, 4))
    m["pipeline.run_s"] = s("pipeline.run")
    m["pipeline.cpu_util"] = cpu_s / wall_s if wall_s > 0 else 0.0
    m["pipeline.self_s"] = layer_self("pipeline")

    m["corpus.gen_s"] = s("corpus.gen")
    m["corpus.read_s"] = s("corpus.read")
    m["corpus.batch_pairs_s"] = s("corpus.batch_pairs")
    m["corpus.oracle_embed_s"] = s("corpus.oracle_embed")
    m["corpus.unknown_tokens"] = tracer.counts.get("corpus.unknown_tokens", 0)
    m["corpus.self_s"] = layer_self("corpus")

    m["evaluate.embed_s"] = s("evaluate.embed")
    m["evaluate.retrieval_s"] = s("evaluate.retrieval")
    m["evaluate.sts_s"] = s("evaluate.sts")
    m["evaluate.sentences"] = tracer.counts.get("evaluate.sentences", 0)
    positions = tracer.counts.get("evaluate.positions", 0)
    padded = tracer.counts.get("evaluate.padded", 0)
    m["evaluate.pad_frac"] = padded / positions if positions else 0.0
    m["evaluate.self_s"] = layer_self("evaluate")

    m["checkpoint.save_s"] = s("checkpoint.save")
    m["checkpoint.saves"] = tracer.counts.get("checkpoint.saves", 0)
    m["checkpoint.bytes"] = tracer.counts.get("checkpoint.bytes", 0)
    m["checkpoint.load_s"] = s("checkpoint.load")
    m["checkpoint.self_s"] = layer_self("checkpoint")
    return m
