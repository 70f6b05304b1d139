"""Encoder forward semantics, student initialization, and recurrence algebra."""

from dataclasses import replace

import numpy as np
import pytest

from crosstill import autodiff as ad
from crosstill import encoder as encoder_module
from crosstill.autodiff import backward, zero_grads
from crosstill.encoder import (
    EncoderConfig, SentenceEncoder, expected_param_shapes,
    init_student_from_assistant, unroll,
)
from crosstill.errors import ConfigError, ContractError
from crosstill.gradcheck import finite_diff_check
from crosstill.pipeline import toy_config
from crosstill.rng import stream


def small_cfg(**overrides):
    base = dict(
        vocab_size=40, hidden=16, ffn_size=32, heads=4,
        distinct_layers=2, recurrence_count=1, max_positions=12,
    )
    base.update(overrides)
    return EncoderConfig(**base)


def batch(rng, cfg, n=3, length=6):
    ids = rng.integers(4, cfg.vocab_size, size=(n, length))
    mask = np.ones((n, length), dtype=np.uint8)
    mask[0, length - 2:] = 0
    ids[0, length - 2:] = 0
    return ids, mask


class TestConfig:
    def test_heads_must_divide_hidden(self):
        with pytest.raises(ConfigError, match="heads"):
            small_cfg(hidden=10, heads=4)

    def test_bottleneck_requires_size(self):
        for size in (0, -1):
            with pytest.raises(ConfigError, match="bottleneck_size must be positive"):
                small_cfg(bottleneck_size=size)
        assert not small_cfg(bottleneck_size=None).bottleneck_enabled
        assert small_cfg(bottleneck_size=1).bottleneck_enabled

    def test_effective_depth(self):
        assert small_cfg(distinct_layers=2, recurrence_count=3).effective_depth == 6

    def test_dict_roundtrip(self):
        cfg = small_cfg(bottleneck_size=8)
        assert EncoderConfig.from_dict(cfg.to_dict()) == cfg


class TestRegistry:
    def test_param_count_matches_shapes(self):
        for b in (False, True):
            for m in (1, 2):
                cfg = small_cfg(distinct_layers=m, bottleneck_size=8 if b else None)
                enc = SentenceEncoder.init(cfg, seed=0)
                expected = sum(
                    int(np.prod(s)) for s in expected_param_shapes(cfg).values()
                )
                assert enc.n_params() == expected

    def test_recurrence_does_not_add_params(self):
        a = SentenceEncoder.init(small_cfg(recurrence_count=1), seed=0)
        b = SentenceEncoder.init(small_cfg(recurrence_count=3), seed=0)
        assert a.n_params() == b.n_params()

    def test_wrong_shape_rejected(self):
        cfg = small_cfg()
        enc = SentenceEncoder.init(cfg, seed=0)
        params = dict(enc.params)
        params["embedding.position"] = ad.Tensor(np.zeros((99, 16)), requires_grad=True)
        with pytest.raises(ContractError, match="embedding.position"):
            SentenceEncoder(cfg, params)

    def test_checksum_tracks_mutation(self):
        enc = SentenceEncoder.init(small_cfg(), seed=0)
        before = enc.checksum()
        assert enc.checksum() == before
        enc.params["layer1.ffn.b1"].data[0] += 1.0
        assert enc.checksum() != before


class TestForward:
    def test_output_shape(self):
        cfg = small_cfg()
        enc = SentenceEncoder.init(cfg, seed=1)
        ids, mask = batch(stream(0, "fw"), cfg)
        out = enc.encode(ids, mask)
        assert out.shape == (3, cfg.hidden)

    def test_zeroed_layers_pass_embedding_through(self):
        cfg = small_cfg()
        enc = SentenceEncoder.init(cfg, seed=1)
        for name, p in enc.params.items():
            if name.startswith("layer") and (".w" in name or name.endswith((".b", ".b1", ".b2"))):
                p.data[...] = 0.0
        ids = np.array([[7]])
        mask = np.ones((1, 1), dtype=np.uint8)
        out = enc.encode(ids, mask).data
        emb = enc.embedding_output(ids, mask).data
        np.testing.assert_allclose(out, emb, atol=1e-6)

    def test_batch_independence(self):
        cfg = small_cfg()
        enc = SentenceEncoder.init(cfg, seed=1)
        ids = np.array([[4, 5, 6], [4, 5, 6], [9, 8, 7]])
        mask = np.ones((3, 3), dtype=np.uint8)
        out = enc.encode(ids, mask).data
        np.testing.assert_array_equal(out[0], out[1])

    def test_batch_permutation_equivariance(self):
        cfg = small_cfg()
        enc = SentenceEncoder.init(cfg, seed=1)
        ids, mask = batch(stream(1, "perm"), cfg)
        out = enc.encode(ids, mask).data
        perm = np.array([2, 0, 1])
        out_p = enc.encode(ids[perm], mask[perm]).data
        np.testing.assert_array_equal(out_p, out[perm])

    def test_padding_invariance(self):
        cfg = small_cfg()
        enc = SentenceEncoder.init(cfg, seed=1)
        content = np.array([4, 9, 11, 6])

        def padded(width):
            ids = np.zeros((1, width), dtype=np.int64)
            mask = np.zeros((1, width), dtype=np.uint8)
            ids[0, :4] = content
            mask[0, :4] = 1
            return enc.encode(ids, mask).data

        np.testing.assert_allclose(padded(8), padded(12), atol=1e-6)

    def test_masked_pad_ids_do_not_matter(self):
        cfg = small_cfg()
        enc = SentenceEncoder.init(cfg, seed=1)
        ids = np.array([[4, 9, 0, 0]])
        mask = np.array([[1, 1, 0, 0]], dtype=np.uint8)
        base = enc.encode(ids, mask).data
        ids2 = ids.copy()
        ids2[0, 2:] = 17  # different ids under the mask
        np.testing.assert_array_equal(enc.encode(ids2, mask).data, base)

    def test_too_long_sequence_rejected(self):
        cfg = small_cfg(max_positions=4)
        enc = SentenceEncoder.init(cfg, seed=1)
        with pytest.raises(ContractError, match="max_positions"):
            enc.encode(np.ones((1, 5), dtype=np.int64), np.ones((1, 5)))

    def test_all_masked_row_rejected(self):
        enc = SentenceEncoder.init(small_cfg(), seed=1)
        ids = np.array([[4, 5], [0, 0]])
        mask = np.array([[1, 1], [0, 0]])
        with pytest.raises(ContractError, match="masked"):
            enc.encode(ids, mask)

    def test_out_of_vocab_rejected(self):
        enc = SentenceEncoder.init(small_cfg(), seed=1)
        with pytest.raises(ContractError, match="vocabulary"):
            enc.encode(np.array([[4, 999]]), np.ones((1, 2)))

    @pytest.mark.parametrize("shape", [(0, 4), (2, 0)], ids=["no-rows", "no-columns"])
    @pytest.mark.parametrize("method", ["encode", "embedding_output"])
    def test_empty_batch_rejected(self, shape, method):
        enc = SentenceEncoder.init(small_cfg(), seed=1)
        with pytest.raises(ContractError, match="empty batch"):
            getattr(enc, method)(np.zeros(shape, dtype=np.int64), np.ones(shape))

    def test_bottleneck_forward_shape(self):
        cfg = small_cfg(bottleneck_size=8)
        enc = SentenceEncoder.init(cfg, seed=2)
        ids, mask = batch(stream(2, "bn"), cfg)
        assert enc.encode(ids, mask).shape == (3, cfg.hidden)


def toy_student(dtype=np.float32, frozen=True):
    student = SentenceEncoder.init(toy_config("corpus", "out").student, seed=3, dtype=dtype)
    return student.freeze() if frozen else student


def padded_batch(cfg, rows, width, seed=0):
    """Rows of 1 to `width` framed tokens, PAD (0) after each row's end."""
    rng = np.random.default_rng(seed)
    ids = rng.integers(4, cfg.vocab_size, size=(rows, width))
    mask = np.arange(width) < rng.integers(1, width + 1, size=(rows, 1))
    mask[0] = True  # one full row, so the batch is `width` wide
    ids[~mask] = 0
    return ids, mask.astype(np.uint8)


class TestSplitForward:
    """A large forward-only batch runs as two row halves on two threads."""

    @pytest.mark.parametrize("helper", [True, False], ids=["helper", "no-helper"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_split_output_is_bitwise_one_forward(self, request, monkeypatch, helper, dtype):
        if helper:
            request.getfixturevalue("two_threads")
        else:
            monkeypatch.setattr(ad, "_HELPER", False)
        # every batch of the grid splits when a second thread is free
        monkeypatch.setattr(encoder_module, "SPLIT_MIN_TOKENS", 1)
        student = toy_student(dtype)
        for rows in (48, 64, 96, 128):
            for width in range(5, 17):
                ids, mask = padded_batch(student.config, rows, width, seed=rows * width)
                whole = student._forward(ids, mask.astype(dtype)).data
                split = student.encode(ids, mask).data
                assert split.dtype == dtype
                assert np.array_equal(split, whole), (rows, width)

    @pytest.mark.parametrize("frozen, rows, width, inside, submits", [
        (False, 64, 16, False, 0),
        (True, 64, 10, False, 0),
        (True, 64, 16, False, 1),
        (True, 64, 16, True, 0),
    ], ids=["trainable", "frozen-640-tokens", "frozen-1024-tokens", "inside-concurrently"])
    def test_splits_only_when_all_three_conditions_hold(
        self, two_threads, monkeypatch, frozen, rows, width, inside, submits
    ):
        student = toy_student(frozen=frozen)
        ids, mask = padded_batch(student.config, rows, width)
        calls = []
        submit = ad._submit

        def counted(helper, fn):
            calls.append(fn)
            return submit(helper, fn)

        monkeypatch.setattr(ad, "_submit", counted)
        if inside:
            # the encode is the second call of a `concurrently` that uses the helper
            _, out = ad.concurrently(lambda: None, lambda: student.encode(ids, mask))
        else:
            out = student.encode(ids, mask)
        assert len(calls) == submits + inside  # the outer call's first call, when inside
        assert np.array_equal(out.data, student._forward(ids, mask.astype(np.float32)).data)


class TestStudentInit:
    def assistant(self, layers=3):
        return SentenceEncoder.init(small_cfg(distinct_layers=layers), seed=4)

    def test_full_copy_reproduces_forward(self):
        assistant = self.assistant(layers=2)
        student = init_student_from_assistant(assistant, small_cfg(distinct_layers=2), seed=0)
        ids, mask = batch(stream(4, "cp"), assistant.config)
        np.testing.assert_array_equal(
            student.encode(ids, mask).data, assistant.encode(ids, mask).data
        )

    def test_layer_weights_bitwise_copied(self):
        assistant = self.assistant(layers=3)
        student = init_student_from_assistant(
            assistant, small_cfg(distinct_layers=2, recurrence_count=2), seed=0
        )
        for name in ("layer1.attn.q.w", "layer2.ffn.w1", "layer1.ln2.scale"):
            np.testing.assert_array_equal(
                student.params[name].data, assistant.params[name].data
            )

    def test_copy_is_deep(self):
        assistant = self.assistant(layers=2)
        student = init_student_from_assistant(assistant, small_cfg(distinct_layers=2), seed=0)
        student.params["layer1.attn.q.w"].data[0, 0] += 5.0
        assert assistant.params["layer1.attn.q.w"].data[0, 0] != \
            student.params["layer1.attn.q.w"].data[0, 0]

    def test_bottleneck_embedding_param_count(self):
        assistant = self.assistant(layers=2)
        cfg = small_cfg(distinct_layers=2, bottleneck_size=16)
        student = init_student_from_assistant(assistant, cfg, seed=0)
        v, h = cfg.vocab_size, cfg.hidden
        emb = student.params["embedding.factor"].size + student.params["embedding.proj"].size
        assert emb == v * 16 + 16 * h

    def test_positional_truncated(self):
        assistant = self.assistant(layers=2)
        cfg = small_cfg(distinct_layers=2, max_positions=8)
        student = init_student_from_assistant(assistant, cfg, seed=0)
        np.testing.assert_array_equal(
            student.params["embedding.position"].data,
            assistant.params["embedding.position"].data[:8],
        )

    def test_hidden_mismatch_rejected(self):
        assistant = self.assistant(layers=2)
        with pytest.raises(ConfigError, match="hidden"):
            init_student_from_assistant(
                assistant, small_cfg(hidden=32, ffn_size=64, distinct_layers=1), seed=0
            )

    def test_too_many_layers_rejected(self):
        assistant = self.assistant(layers=2)
        with pytest.raises(ConfigError, match="distinct layers"):
            init_student_from_assistant(assistant, small_cfg(distinct_layers=3), seed=0)


class TestRecurrence:
    def test_unroll_identity_at_r1(self):
        enc = SentenceEncoder.init(small_cfg(), seed=5)
        flat = unroll(enc)
        assert flat.config == enc.config
        assert flat.n_params() == enc.n_params()

    def test_unroll_param_count(self):
        cfg = small_cfg(distinct_layers=2, recurrence_count=3, bottleneck_size=4)
        enc = SentenceEncoder.init(cfg, seed=5)
        flat = unroll(enc)
        # every other field carries over unchanged
        assert flat.config == replace(cfg, distinct_layers=6, recurrence_count=1)
        h, f = cfg.hidden, cfg.ffn_size
        per_layer = 4 * (h * h + h) + (h * f + f) + (f * h + h) + 4 * h
        assert flat.n_params() == enc.n_params() + (3 - 1) * 2 * per_layer

    @pytest.mark.parametrize("m,r", [(1, 2), (2, 2), (2, 3)])
    def test_forward_bitwise_equal(self, m, r):
        cfg = small_cfg(distinct_layers=m, recurrence_count=r)
        enc = SentenceEncoder.init(cfg, seed=5)
        flat = unroll(enc)
        ids, mask = batch(stream(5, "ur"), cfg)
        np.testing.assert_array_equal(
            enc.encode(ids, mask).data, flat.encode(ids, mask).data
        )

    def test_mutation_propagates_to_all_occurrences(self):
        cfg = small_cfg(distinct_layers=1, recurrence_count=3)
        enc = SentenceEncoder.init(cfg, seed=5)
        enc.params["layer1.attn.q.w"].data += 0.05
        flat = unroll(enc)  # unrolled after mutation: all 3 copies carry it
        ids, mask = batch(stream(6, "mu"), cfg)
        np.testing.assert_array_equal(
            enc.encode(ids, mask).data, flat.encode(ids, mask).data
        )

    def test_shared_gradient_is_sum_of_unrolled_copies(self):
        cfg = small_cfg(distinct_layers=1, recurrence_count=2)
        enc = SentenceEncoder.init(cfg, seed=6, dtype=np.float64)
        flat = unroll(enc)
        ids, mask = batch(stream(7, "gs"), cfg)

        loss = ad.tmean(enc.encode(ids, mask) * enc.encode(ids, mask))
        backward(loss, params=enc.params.values())
        loss_flat = ad.tmean(flat.encode(ids, mask) * flat.encode(ids, mask))
        backward(loss_flat, params=flat.params.values())

        for suffix in ("attn.q.w", "ffn.w1", "ln1.scale"):
            shared = enc.params[f"layer1.{suffix}"].grad
            summed = flat.params[f"layer1.{suffix}"].grad + flat.params[f"layer2.{suffix}"].grad
            denom = np.maximum(np.abs(shared), 1e-12)
            assert (np.abs(shared - summed) / denom).max() <= 1e-10


class TestGradients:
    def test_encoder_gradients_match_finite_differences(self):
        cfg = EncoderConfig(
            vocab_size=12, hidden=8, ffn_size=16, heads=2,
            distinct_layers=1, recurrence_count=2, max_positions=6,
            bottleneck_size=4,
        )
        enc = SentenceEncoder.init(cfg, seed=8, dtype=np.float64)
        ids = np.array([[4, 5, 6], [7, 8, 0]])
        mask = np.array([[1, 1, 1], [1, 1, 0]], dtype=np.uint8)
        target = stream(8, "tgt").standard_normal((2, cfg.hidden))

        def loss_fn():
            diff = enc.encode(ids, mask) - ad.Tensor(target)
            return ad.tmean(diff * diff)

        # Positional rows have near-cancelling gradients through layer norm,
        # which caps what central differences can resolve for the full chain
        # at about 1e-5; per-primitive and per-loss checks hold 1e-6.
        report = finite_diff_check(loss_fn, enc.params, seed=2, min_coords=5)
        assert report.max_rel_error <= 2e-5, (
            f"{report.max_rel_error:.2e}, per parameter {report.per_param}"
        )
        zero_grads(enc.params.values())
