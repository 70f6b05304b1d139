"""Gradient correctness of every primitive, checked against central differences.

Each case builds a scalar loss from one primitive (plus a reduction), runs
the analytic backward pass, and compares against finite differences at
float64. A handful of cases also verify forward values against plain numpy.
"""

import contextlib
import contextvars
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
import weakref
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from scipy.special import erf

from crosstill import autodiff as ad
from crosstill import pipeline
from crosstill.autodiff import Tensor, backward, zero_grads
from crosstill.corpus import OracleSemantics, ParallelBatch, VocabSpec, frame_rows
from crosstill.encoder import LAYERNORM_EPS, SentenceEncoder, init_student_from_assistant
from crosstill.errors import ContractError, NumericError
from crosstill.gradcheck import finite_diff_check
from crosstill.losses import STAGE4_VARIANTS
from crosstill.optim import AdamW
from crosstill.pipeline import (
    EMBEDDING_PATH_KEYS, _anchor_loss, _both_sides, _embedding_loss, _imitation_loss, _stage4_loss, toy_config,
)
from crosstill.rng import stream

TOL = 1e-6


def leaf(rng, *shape, lo=None, hi=None):
    data = rng.standard_normal(shape)
    if lo is not None:
        data = lo + (hi - lo) * rng.random(shape)
    return Tensor(data.astype(np.float64), requires_grad=True)


def check(loss_fn, params, tol=TOL):
    report = finite_diff_check(loss_fn, params, seed=7)
    assert report.max_rel_error <= tol, (
        f"{report.max_rel_error:.3e}, per parameter {report.per_param}"
    )


class TestElementwise:
    def test_add_broadcast(self):
        rng = stream(0, "add")
        a = leaf(rng, 3, 4)
        b = leaf(rng, 4)
        check(lambda: ad.tsum(ad.add(a, b) * ad.add(a, b)), {"a": a, "b": b})

    def test_sub_scalar_operand(self):
        rng = stream(0, "sub")
        a = leaf(rng, 5)
        check(lambda: ad.tsum(ad.sub(1.0, a) * ad.sub(1.0, a)), {"a": a})

    def test_mul_broadcast(self):
        rng = stream(0, "mul")
        a = leaf(rng, 2, 3)
        b = leaf(rng, 1, 3)
        check(lambda: ad.tsum(a * b), {"a": a, "b": b})

    def test_div(self):
        rng = stream(0, "div")
        a = leaf(rng, 4)
        b = leaf(rng, 4, lo=0.5, hi=2.0)
        check(lambda: ad.tsum(a / b), {"a": a, "b": b})

    def test_neg(self):
        rng = stream(0, "neg")
        a = leaf(rng, 3)
        check(lambda: ad.tsum(-a * -a + -a), {"a": a})

    @pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul, ad.div])
    @pytest.mark.parametrize("constant_side", [0, 1])
    def test_constant_operand_gets_no_gradient(self, op, constant_side):
        rng = stream(0, "constant-operand")
        live = leaf(rng, 2, 3, lo=0.5, hi=2.0)
        constant = Tensor(rng.random((1, 3)) + 0.5)
        operands = (constant, live) if constant_side == 0 else (live, constant)
        grads = op(*operands)._vjp(np.ones((2, 3)))
        assert grads[constant_side] is None
        assert grads[1 - constant_side].shape == (2, 3)


class TestShapes:
    def test_reshape(self):
        rng = stream(0, "reshape")
        a = leaf(rng, 2, 6)
        check(lambda: ad.tsum(ad.reshape(a, (3, 4)) * ad.reshape(a, (3, 4))), {"a": a})

    def test_transpose(self):
        rng = stream(0, "transpose")
        a = leaf(rng, 2, 3, 4)
        b = leaf(rng, 4, 3, 2)
        check(lambda: ad.tsum(ad.transpose(a) * b), {"a": a, "b": b})

    def test_matmul_2d(self):
        rng = stream(0, "matmul2")
        a = leaf(rng, 3, 4)
        b = leaf(rng, 4, 2)
        check(lambda: ad.tsum(a @ b), {"a": a, "b": b})

    def test_matmul_batched_broadcast(self):
        rng = stream(0, "matmul3")
        a = leaf(rng, 5, 3, 4)
        b = leaf(rng, 4, 2)  # broadcast over the batch axis
        check(lambda: ad.tsum((a @ b) * (a @ b)), {"a": a, "b": b})

    def test_matmul_rank3_left_2d_right(self):
        rng = stream(0, "matmul_r3")
        a = leaf(rng, 3, 4, 5)
        w = leaf(rng, 5, 2)
        c = leaf(rng, 3, 4, 2)
        check(lambda: ad.tsum((a @ w) * c), {"a": a, "w": w})

    def test_matmul_rank4_left_2d_right(self):
        rng = stream(0, "matmul_r4")
        a = leaf(rng, 2, 3, 4, 5)
        w = leaf(rng, 5, 3)
        c = leaf(rng, 2, 3, 4, 3)
        check(lambda: ad.tsum((a @ w) * c), {"a": a, "w": w})

    def test_linear_rank3(self):
        rng = stream(0, "linear_r3")
        x = leaf(rng, 3, 4, 5)
        w = leaf(rng, 5, 2)
        b = leaf(rng, 2)
        c = leaf(rng, 3, 4, 2)
        check(lambda: ad.tsum(linear(x, w, b) * c), {"x": x, "w": w, "b": b})

    def test_linear_rank4(self):
        rng = stream(0, "linear_r4")
        x = leaf(rng, 2, 3, 4, 5)
        w = leaf(rng, 5, 3)
        b = leaf(rng, 3)
        c = leaf(rng, 2, 3, 4, 3)
        check(lambda: ad.tsum(linear(x, w, b) * c), {"x": x, "w": w, "b": b})

    def test_linear_matches_matmul_plus_bias(self):
        rng = stream(0, "linear_fwd")
        x = leaf(rng, 4, 6, 5)
        w = leaf(rng, 5, 3)
        b = leaf(rng, 3)
        out = linear(x, w, b)
        np.testing.assert_allclose(out.data, x.data @ w.data + b.data, rtol=0, atol=1e-12)

    def test_matmul_rank1_rejected(self):
        a = Tensor(np.ones(3, dtype=np.float64), requires_grad=True)
        b = Tensor(np.ones((3, 2), dtype=np.float64), requires_grad=True)
        with pytest.raises(ContractError):
            ad.matmul(a, b)

    def test_matmul_rejects_a_batched_right_operand(self):
        a = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        b = Tensor(np.ones((2, 4, 5)), requires_grad=True)
        with pytest.raises(ContractError, match="matmul"):
            a @ b

    def test_gather_rows_accumulates_repeats(self):
        table = Tensor(np.arange(12, dtype=np.float64).reshape(4, 3), requires_grad=True)
        ids = np.array([[1, 1], [3, 0]])
        out = ad.gather_rows(table, ids)
        assert out.shape == (2, 2, 3)
        backward(ad.tsum(out))
        expected = np.zeros((4, 3))
        expected[1] = 2.0  # row 1 gathered twice
        expected[3] = 1.0
        expected[0] = 1.0
        np.testing.assert_array_equal(table.grad, expected)

    def test_gather_rows_gradient(self):
        rng = stream(0, "gather")
        table = leaf(rng, 6, 4)
        ids = np.array([0, 5, 2, 2])
        check(lambda: ad.tsum(ad.gather_rows(table, ids) * ad.gather_rows(table, ids)),
              {"table": table})


class TestReductions:
    def test_sum_axis_keepdims(self):
        rng = stream(0, "sum")
        a = leaf(rng, 3, 4)
        check(lambda: ad.tsum(ad.tsum(a, axis=1, keepdims=True) * a), {"a": a})

    def test_mean_all(self):
        rng = stream(0, "mean")
        a = leaf(rng, 3, 4)
        check(lambda: ad.tmean(a * a), {"a": a})

    def test_mean_axis(self):
        rng = stream(0, "mean_ax")
        a = leaf(rng, 2, 5)
        check(lambda: ad.tsum(ad.tmean(a, axis=0) * ad.tmean(a, axis=0)), {"a": a})


class TestNonlinear:
    def test_exp(self):
        rng = stream(0, "exp")
        a = leaf(rng, 4)
        check(lambda: ad.tsum(ad.texp(a)), {"a": a})

    def test_log(self):
        rng = stream(0, "log")
        a = leaf(rng, 4, lo=0.5, hi=3.0)
        check(lambda: ad.tsum(ad.tlog(a)), {"a": a})

    def test_sqrt(self):
        rng = stream(0, "sqrt")
        a = leaf(rng, 4, lo=0.5, hi=3.0)
        check(lambda: ad.tsum(ad.tsqrt(a)), {"a": a})

    def test_gelu_forward_matches_erf_formula(self):
        x = np.linspace(-3, 3, 13)
        out = ad.gelu(Tensor(x)).data
        expected = x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_gelu_float32_stays_float32(self):
        rng = stream(0, "gelu32")
        x64 = rng.standard_normal((4, 6)) * 2.0
        results = {}
        for dtype in (np.float32, np.float64):
            a = Tensor(x64.astype(dtype), requires_grad=True)
            out = ad.gelu(a)
            backward(ad.tsum(out))
            assert out.data.dtype == dtype and a.grad.dtype == dtype
            results[dtype] = out.data, a.grad
        for lo, hi in zip(results[np.float32], results[np.float64]):
            np.testing.assert_allclose(lo, hi, rtol=0, atol=2e-6)

    def test_gelu_gradient(self):
        rng = stream(0, "gelu")
        a = leaf(rng, 8)
        check(lambda: ad.tsum(ad.gelu(a)), {"a": a})

    def test_float32_erf_within_1e6_of_exact(self):
        grid = np.linspace(-10, 10, 2_000_001, dtype=np.float32)
        got = ad._erf_float32(grid)
        assert got.dtype == np.float32
        exact = erf(grid.astype(np.float64))
        assert np.abs(got.astype(np.float64) - exact).max() <= 1e-6

    def test_float32_erf_special_values(self):
        got = ad._erf_float32(np.array([0.0, -0.0, np.inf, -np.inf, np.nan], dtype=np.float32))
        np.testing.assert_array_equal(got[:4], [0.0, -0.0, 1.0, -1.0])
        assert np.signbit(got[:2]).tolist() == [False, True]
        assert np.isnan(got[4])

    def test_float32_erf_is_odd_and_non_decreasing(self):
        grid = np.linspace(-6, 6, 4_000_001, dtype=np.float32)
        got = ad._erf_float32(grid)
        assert ad._erf_float32(-grid).tobytes() == (-got).tobytes()
        assert (np.diff(got) >= 0).all()

    def test_float64_erf_special_values(self):
        got = ad._erf_float64(np.array([0.0, -0.0, np.inf, -np.inf, np.nan]))
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got[:4], [0.0, -0.0, 1.0, -1.0])
        assert np.signbit(got[:2]).tolist() == [False, True]
        assert np.isnan(got[4])

    def test_gelu_float64_special_values_match_float32(self):
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ad.gelu(Tensor(x)).data
            got32 = ad.gelu(Tensor(x.astype(np.float32))).data
        assert got.dtype == np.float64 and got32.dtype == np.float32
        for out in (got, got32):
            np.testing.assert_array_equal(out[:4], [0.0, -0.0, np.inf, 0.0])
            assert np.signbit(out[:2]).tolist() == [False, True]
            assert np.isnan(out[4])
        np.testing.assert_array_equal(got, got32)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_gradient_finite_at_infinities(self, dtype):
        # a loss over gelu(inf) is inf, which backward refuses, so the
        # gradient g = 3 is pulled back through the node's VJP directly
        x = np.array([-np.inf, -1e30, 1.0, 1e30, np.inf], dtype=dtype)
        g = np.full(5, 3.0, dtype=dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (grad,) = ad.gelu(Tensor(x, requires_grad=True))._vjp(g)
            (at_one,) = ad.gelu(Tensor(x[2:3], requires_grad=True))._vjp(g[2:3])
        assert grad.dtype == dtype
        np.testing.assert_array_equal(grad[[0, 1, 3, 4]], [0.0, 0.0, 3.0, 3.0])
        assert grad[2] == at_one[0]
        exact = 0.5 * (1.0 + erf(1.0 / np.sqrt(2.0))) + np.exp(-0.5) / np.sqrt(2.0 * np.pi)
        assert grad[2] == pytest.approx(3.0 * exact, rel=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_gradient_bits_kept_at_finite_inputs(self, dtype):
        big = np.array([45.0, 1e3, 1e10, 1e19, 1e30])
        x = np.concatenate([np.linspace(-50.0, 50.0, 4001), big, -big]).astype(dtype)
        a = Tensor(x, requires_grad=True)
        backward(ad.tsum(ad.gelu(a)))
        # the VJP as written before it clipped x: phi + x * pdf
        width = x.dtype.type
        z = x * width(ad._INV_SQRT2)
        phi = ad._erf_float32(z) if dtype == np.float32 else ad._erf_float64(z)
        phi += 1.0
        phi *= 0.5
        with np.errstate(over="ignore"):
            want = phi + x * (width(ad._INV_SQRT_2PI) * np.exp(-0.5 * x * x))
        assert a.grad.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("keep", [True, False])
    def test_gelu_kernel_bits_match_its_out_of_place_form(self, dtype, keep):
        """`_gelu` writes into its own temporaries; output and gradient are
        bitwise those of the same ops written out of place, NaN and signed
        zeros included, and its input is left as it was."""
        rng = stream(0, "gelu-bits")
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan,
                            4.5, -4.5, 40.0, -40.0, 1e30, -1e30])
        cases = [special] + [rng.standard_normal((7, 33)) * s for s in (0.5, 3.0, 30.0)]
        cases = [c.astype(dtype) for c in cases]
        cases.append((rng.standard_normal((6, 40)) * 3.0).astype(dtype)[:, ::3])
        bits = np.uint32 if dtype == np.float32 else np.uint64
        for x in cases:
            before = x.copy()
            g = rng.standard_normal(x.shape).astype(dtype)
            with np.errstate(over="ignore", invalid="ignore"):
                out, vjp = ad._gelu(x, keep)
                want, want_vjp = gelu_out_of_place(x, keep)
            assert np.array_equal(out.view(bits), want.view(bits))
            assert (vjp is None) == (want_vjp is None) == (not keep)
            if keep:
                assert np.array_equal(vjp(g)[0].view(bits), want_vjp(g)[0].view(bits))
            assert np.array_equal(x.view(bits), before.view(bits))

    def test_float32_erf_leaves_its_input_and_writes_out_when_asked(self):
        x = (stream(0, "erf-out").standard_normal((5, 9)) * 3.0).astype(np.float32)
        before = x.copy()
        got = ad._erf_float32(x)
        assert got is not x and x.tobytes() == before.tobytes()
        assert got.tobytes() == erf32_out_of_place(x).tobytes()
        assert ad._erf_float32(x, out=x) is x and x.tobytes() == got.tobytes()

    def test_gelu_float64_zero_dim_and_empty(self):
        out = ad.gelu(Tensor(np.array(0.5)))
        assert out.shape == () and out.data.dtype == np.float64
        np.testing.assert_allclose(out.data, 0.25 * (1.0 + erf(0.5 / np.sqrt(2.0))), rtol=1e-15)
        empty = ad.gelu(Tensor(np.zeros((0, 3))))
        assert empty.shape == (0, 3) and empty.data.dtype == np.float64

    def test_clip_min_gradient_masks_floor(self):
        a = Tensor(np.array([0.5, 2.0, -1.0], dtype=np.float64), requires_grad=True)
        out = ad.clip_min(a, 1.0)
        np.testing.assert_array_equal(out.data, [1.0, 2.0, 1.0])
        backward(ad.tsum(out))
        np.testing.assert_array_equal(a.grad, [0.0, 1.0, 0.0])

    def test_softmax_rows_sum_to_one(self):
        rng = stream(0, "softmax_fwd")
        a = leaf(rng, 3, 5)
        out = ad.softmax_last(a)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(3), rtol=1e-12)

    def test_softmax_gradient(self):
        rng = stream(0, "softmax")
        a = leaf(rng, 2, 5)
        w = leaf(rng, 2, 5)
        check(lambda: ad.tsum(ad.softmax_last(a) * w), {"a": a, "w": w})

    def test_layer_norm_forward(self):
        rng = stream(0, "ln_fwd")
        x = leaf(rng, 4, 8)
        scale = Tensor(np.ones(8), requires_grad=True)
        shift = Tensor(np.zeros(8), requires_grad=True)
        out = ad.layer_norm(x, scale, shift, eps=1e-12)
        np.testing.assert_allclose(out.data.mean(axis=-1), np.zeros(4), atol=1e-12)
        np.testing.assert_allclose(out.data.std(axis=-1), np.ones(4), rtol=1e-6)

    def test_layer_norm_gradient(self):
        rng = stream(0, "ln")
        x = leaf(rng, 3, 6)
        scale = leaf(rng, 6, lo=0.5, hi=1.5)
        shift = leaf(rng, 6)
        check(
            lambda: ad.tsum(ad.layer_norm(x, scale, shift, eps=1e-5)
                            * ad.layer_norm(x, scale, shift, eps=1e-5)),
            {"x": x, "scale": scale, "shift": shift},
        )


def erf32_out_of_place(x):
    """`ad._erf_float32`'s ops, each into a new array."""
    z = np.clip(x, np.float32(-4.5), np.float32(4.5))
    u = z * z
    out = u * ad._ERF32_P[-1]
    for c in ad._ERF32_P[-2:0:-1]:
        out = out + c
        out = out * u
    out = out + ad._ERF32_P[0]
    out = out * z
    return np.tanh(out)


def gelu_out_of_place(x, keep):
    """`ad._gelu`'s ops, each into a new array: its output and, when `keep`,
    its VJP."""
    width = x.dtype.type
    z = x * width(ad._INV_SQRT2)
    phi = erf32_out_of_place(z) if x.dtype == np.float32 else ad._erf_float64(z)
    phi = 0.5 * (phi + 1.0)
    out = np.maximum(x, np.finfo(x.dtype).min) * phi
    if not keep:
        return out, None
    near = np.clip(x, width(-40.0), width(40.0))
    pdf = width(ad._INV_SQRT_2PI) * np.exp(-0.5 * near * near)
    derivative = phi + near * pdf
    return out, lambda g: (g * derivative,)


def attention_params(rng, h, dtype=np.float64):
    """q, k, v, o weights and biases, in the order `ad._attend` takes them."""
    params = {}
    for name in "qkvo":
        params[f"w{name}"] = Tensor((rng.standard_normal((h, h)) * 0.4).astype(dtype),
                                    requires_grad=True)
        params[f"b{name}"] = Tensor((rng.standard_normal(h) * 0.1).astype(dtype),
                                    requires_grad=True)
    return params


def key_bias_for(mask, dtype=np.float64):
    return ((1.0 - mask)[:, None, None, :] * -1e9).astype(dtype)


def _batched_matmul(a, b):
    """`a @ b` over matching leading dims, as one node."""
    def vjp(g):
        return g @ np.swapaxes(b.data, -1, -2), np.swapaxes(a.data, -1, -2) @ g

    return ad._node(a.data @ b.data, (a, b), vjp, "batched_matmul")


def _permute(a, axes):
    """`a` with its axes in the order `axes`, as one node."""
    def vjp(g):
        return (g.transpose(tuple(np.argsort(axes))),)

    return ad._node(a.data.transpose(axes), (a,), vjp, "permute")


def linear(x, w, b):
    """`x @ w + b` for a 2-D `w`, as one node over the `_affine` kernel."""
    out, vjp = ad._affine(x.data, w.data, b.data, ad._needs_grad((x, w, b)))
    return ad._node(out, (x, w, b), vjp, "linear")


def attention(x, params, key_bias, heads):
    """Multi-head self-attention, as one node over the `_attend` kernel;
    `params` are the q, k, v and o weights and biases."""
    parents = (x, *params)
    out, vjp = ad._attend(*(t.data for t in parents), key_bias, heads, ad._needs_grad(parents))
    return ad._node(out, parents, vjp, "attention")


def unfused_attention(x, params, key_bias, heads):
    """The chain of primitives the `_attend` kernel replaces."""
    n, length, h = x.shape
    dh = h // heads
    wq, bq, wk, bk, wv, bv, wo, bo = params

    def split(w, b):
        return _permute(ad.reshape(linear(x, w, b), (n, length, heads, dh)), (0, 2, 1, 3))

    q, k, v = split(wq, bq), split(wk, bk), split(wv, bv)
    scores = _batched_matmul(q, _permute(k, (0, 1, 3, 2))) * float(1.0 / np.sqrt(dh))
    weights = ad.softmax_last(scores + Tensor(key_bias))
    ctx = ad.reshape(_permute(_batched_matmul(weights, v), (0, 2, 1, 3)), (n, length, h))
    return linear(ctx, wo, bo)


def block_params(rng, h, f, dtype=np.float64):
    """One block's 16 tensors in the order `ad.encoder_layer` takes them."""
    def param(data):
        return Tensor(data.astype(dtype), requires_grad=True)

    return [*attention_params(rng, h, dtype).values(),
            param(0.5 + rng.random(h)), param(rng.standard_normal(h) * 0.1),
            param(rng.standard_normal((h, f)) * 0.4), param(rng.standard_normal(f) * 0.1),
            param(rng.standard_normal((f, h)) * 0.4), param(rng.standard_normal(h) * 0.1),
            param(0.5 + rng.random(h)), param(rng.standard_normal(h) * 0.1)]


def unfused_layer(x, p, key_bias, heads, eps):
    """The chain of nodes `ad.encoder_layer` replaces."""
    x = ad.add_layer_norm(x, attention(x, p[:8], key_bias, heads), p[8], p[9], eps)
    ffn = linear(ad.gelu(linear(x, p[10], p[11])), p[12], p[13])
    return ad.add_layer_norm(x, ffn, p[14], p[15], eps)


class TestFusedNodes:
    MASK = np.array([[1, 1, 1, 1, 0], [1, 1, 0, 0, 0], [1, 1, 1, 1, 1]], dtype=np.float64)

    def attention_case(self, heads=2, h=8, dtype=np.float64, length=5):
        rng = stream(0, "attention")
        x = Tensor(rng.standard_normal((3, length, h)).astype(dtype), requires_grad=True)
        weight = Tensor(rng.standard_normal((3, length, h)).astype(dtype))
        mask = self.MASK[:, :length]
        return x, attention_params(rng, h, dtype), key_bias_for(mask, dtype), weight

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_attention_gradient(self, heads):
        x, p, key_bias, weight = self.attention_case(heads=heads)
        # The key bias adds the same q·bk to every score of a query row, and the
        # softmax cancels it: its gradient is zero, so a relative error means
        # nothing there. It is checked against zero instead.
        probed = {name: t for name, t in p.items() if name != "bk"}
        check(lambda: ad.tsum(attention(x, p.values(), key_bias, heads) * weight),
              {"x": x, **probed})
        np.testing.assert_allclose(p["bk"].grad, 0.0, rtol=0, atol=1e-12)

    def test_attention_matches_unfused_composition(self):
        # length 1 leaves one key per query row: the row max is that key's score
        for length in (1, 5):
            x, p, key_bias, weight = self.attention_case(length=length)
            results = []
            for fn in (attention, unfused_attention):
                zero_grads([x, *p.values()])
                out = fn(x, p.values(), key_bias, 2)
                backward(ad.tsum(out * weight))
                results.append((out.data, x.grad, *(t.grad for t in p.values())))
            for fused, unfused in zip(*results):
                np.testing.assert_allclose(fused, unfused, rtol=0, atol=1e-12)

    def test_masked_keys_get_no_weight(self):
        x, p, key_bias, _ = self.attention_case()
        base = attention(x, p.values(), key_bias, 2).data
        x.data[0, 4] += 10.0  # a masked key of row 0
        moved = attention(x, p.values(), key_bias, 2).data
        np.testing.assert_array_equal(base[0, :4], moved[0, :4])

    def test_attention_float32_stays_float32(self):
        x, p, key_bias, weight = self.attention_case(dtype=np.float32)
        out = attention(x, p.values(), key_bias, 2)
        backward(ad.tsum(out * weight))
        assert out.data.dtype == np.float32
        assert all(t.grad.dtype == np.float32 for t in (x, *p.values()))

    def add_layer_norm_case(self, y_shape, dtype=np.float64):
        rng = stream(0, "add_ln")
        x = leaf(rng, 3, 4, 6)
        y = leaf(rng, *y_shape)
        scale = leaf(rng, 6, lo=0.5, hi=1.5)
        shift = leaf(rng, 6)
        weight = Tensor(rng.standard_normal((3, 4, 6)))
        tensors = [Tensor(t.data.astype(dtype), requires_grad=True)
                   for t in (x, y, scale, shift)]
        return (*tensors, Tensor(weight.data.astype(dtype)))

    @pytest.mark.parametrize("y_shape", [(3, 4, 6), (4, 6)], ids=["same", "broadcast"])
    def test_add_layer_norm_gradient(self, y_shape):
        x, y, scale, shift, weight = self.add_layer_norm_case(y_shape)
        check(
            lambda: ad.tsum(ad.add_layer_norm(x, y, scale, shift, eps=1e-5) * weight),
            {"x": x, "y": y, "scale": scale, "shift": shift},
        )

    @pytest.mark.parametrize("y_shape", [(3, 4, 6), (4, 6)], ids=["same", "broadcast"])
    def test_add_layer_norm_matches_unfused_composition(self, y_shape):
        x, y, scale, shift, weight = self.add_layer_norm_case(y_shape)
        fused = ad.add_layer_norm(x, y, scale, shift, eps=1e-5)
        unfused = ad.layer_norm(ad.add(x, y), scale, shift, eps=1e-5)
        results = []
        for out in (fused, unfused):
            zero_grads([x, y, scale, shift])
            backward(ad.tsum(out * weight))
            results.append((out.data, x.grad, y.grad, scale.grad, shift.grad))
        for a, b in zip(*results):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_add_layer_norm_gives_each_operand_its_own_gradient(self):
        x, y, scale, shift, weight = self.add_layer_norm_case((3, 4, 6))
        backward(ad.tsum(ad.add_layer_norm(x, y, scale, shift, eps=1e-5) * weight))
        assert x.grad is not y.grad
        np.testing.assert_array_equal(x.grad, y.grad)

    def test_add_layer_norm_float32_stays_float32(self):
        x, y, scale, shift, weight = self.add_layer_norm_case((4, 6), dtype=np.float32)
        out = ad.add_layer_norm(x, y, scale, shift, eps=1e-5)
        backward(ad.tsum(out * weight))
        assert out.data.dtype == np.float32
        assert all(t.grad.dtype == np.float32 for t in (x, y, scale, shift))

    @pytest.mark.parametrize("breakage", ["width", "y-shape", "y-wider", "scale-shape"])
    def test_add_layer_norm_contract_names_primitive(self, breakage):
        x, y, scale, shift, _ = self.add_layer_norm_case((4, 6))
        if breakage == "width":
            y = Tensor(y.data.astype(np.float32), requires_grad=True)
        elif breakage == "y-shape":
            y = Tensor(np.ones((4, 5)), requires_grad=True)
        elif breakage == "y-wider":
            y = Tensor(np.ones((2, 3, 4, 6)), requires_grad=True)
        else:
            scale = Tensor(np.ones(5), requires_grad=True)
        with pytest.raises(ContractError, match="add_layer_norm"):
            ad.add_layer_norm(x, y, scale, shift, eps=1e-5)

    def block_case(self, dtype=np.float64, masked=True, heads=2, h=8, f=12):
        rng = stream(0, "encoder_layer")
        x = Tensor(rng.standard_normal((3, 5, h)).astype(dtype), requires_grad=True)
        weight = Tensor(rng.standard_normal((3, 5, h)).astype(dtype))
        mask = self.MASK if masked else np.ones_like(self.MASK)
        return x, block_params(rng, h, f, dtype), key_bias_for(mask, dtype), weight

    def test_encoder_layer_is_one_node_without_a_key_bias_parent(self):
        x, p, key_bias, _ = self.block_case()
        out = ad.encoder_layer(x, p, key_bias, 2, 1e-12)
        assert out.op == "encoder_layer" and out._parents == (x, *p)

    @pytest.mark.parametrize("heads", [1, 2])
    def test_encoder_layer_gradient(self, heads):
        x, p, key_bias, weight = self.block_case(heads=heads)
        # bk gets a zero gradient, as in the attention check
        probed = {f"p{i}": t for i, t in enumerate(p) if i != 3}
        check(lambda: ad.tsum(ad.encoder_layer(x, p, key_bias, heads, 1e-5) * weight),
              {"x": x, **probed})
        np.testing.assert_allclose(p[3].grad, 0.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("masked", [True, False], ids=["masked", "unmasked"])
    @pytest.mark.parametrize("repeats", [1, 2, 3])
    def test_encoder_layer_matches_unfused_composition_bitwise(self, dtype, masked, repeats):
        # repeats > 1 applies the same tensors again, as a recurrent student does
        x, p, key_bias, weight = self.block_case(dtype, masked)
        results = []
        for fn in (ad.encoder_layer, unfused_layer):
            zero_grads([x, *p])
            out = x
            for _ in range(repeats):
                out = fn(out, p, key_bias, 2, 1e-12)
            backward(ad.tsum(out * weight))
            results.append((out.data, x.grad, *(t.grad for t in p)))
        assert len(results[0]) == 18
        for fused, unfused in zip(*results):
            assert fused.dtype == dtype and np.array_equal(fused, unfused)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_encoder_layer_forward_only_matches_unfused_and_records_nothing(self, dtype):
        x, p, key_bias, _ = self.block_case(dtype)
        frozen = [Tensor(t.data) for t in (x, *p)]
        fused = ad.encoder_layer(frozen[0], frozen[1:], key_bias, 2, 1e-12)
        assert not fused.requires_grad and fused._vjp is None and fused._parents == ()
        unfused = unfused_layer(frozen[0], frozen[1:], key_bias, 2, 1e-12)
        assert np.array_equal(fused.data, unfused.data)

    def test_non_finite_gradient_inside_a_block_raises_and_keeps_grads(self):
        x, p, key_bias, weight = self.block_case(np.float32)
        tensors = [x, *p]
        backward(ad.tsum(ad.encoder_layer(x, p, key_bias, 2, 1e-12) * weight))
        before = [t.grad.copy() for t in tensors]
        out = ad.encoder_layer(x, p, key_bias, 2, 1e-12)
        # a finite incoming gradient whose norm VJP overflows float32
        huge = ad._node(np.zeros((), np.float32), (out,),
                        lambda g: (np.full(out.shape, 1e38, np.float32),), "huge")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="'linear' of primitive 'encoder_layer'"):
                backward(huge)
        assert all(np.array_equal(t.grad, b) for t, b in zip(tensors, before))

    @pytest.mark.parametrize("breakage", [
        "count", "width", "weight-width", "x-rank", "weight-shape", "bias-shape", "ffn-shape",
        "norm-shape", "heads", "heads-zero", "key-bias-width", "key-bias-shape",
    ])
    def test_encoder_layer_contract_names_primitive(self, breakage):
        x, p, key_bias, _ = self.block_case()
        heads = 2
        if breakage == "count":
            p = p[:15]
        elif breakage == "width":
            p[12] = Tensor(p[12].data.astype(np.float32), requires_grad=True)
        elif breakage == "weight-width":
            p[2] = Tensor(p[2].data.astype(np.float32), requires_grad=True)
        elif breakage == "x-rank":
            x = Tensor(x.data[0], requires_grad=True)
        elif breakage == "weight-shape":
            p[4] = Tensor(np.ones((8, 6)), requires_grad=True)
        elif breakage == "bias-shape":
            p[7] = Tensor(np.ones(6), requires_grad=True)
        elif breakage == "ffn-shape":
            p[12] = Tensor(np.ones((11, 8)), requires_grad=True)
        elif breakage == "norm-shape":
            p[14] = Tensor(np.ones(6), requires_grad=True)
        elif breakage == "heads":
            heads = 3
        elif breakage == "heads-zero":
            heads = 0
        elif breakage == "key-bias-width":
            key_bias = key_bias.astype(np.float32)
        else:
            key_bias = key_bias[:, :, :, :4]
        with pytest.raises(ContractError, match="encoder_layer"):
            ad.encoder_layer(x, p, key_bias, heads, 1e-12)


def kept_bytes(build):
    """`build()` and the bytes it allocated that are still held when it returns."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = build()
        return out, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def saved_arrays(node: Tensor) -> list[np.ndarray]:
    """The arrays `node`'s VJP holds, through the closures and lists it holds,
    each with the arrays it views, other than its operands' data."""
    operands = {id(t.data) for t in node._parents}
    found, stack = {}, [node._vjp]
    while stack:
        item = stack.pop()
        if isinstance(item, np.ndarray):
            while item is not None and id(item) not in operands:
                found[id(item)] = item
                item = item.base
        elif isinstance(item, list):
            stack.extend(item)
        elif callable(item) and getattr(item, "__closure__", None):
            stack.extend(cell.cell_contents for cell in item.__closure__)
    return list(found.values())


def test_encoder_layer_keeps_only_what_its_backward_reads():
    """One toy-student block on a 64×10 float32 batch: it keeps at most 3/4
    of what the unfused composition keeps, nothing but the arrays its VJP
    holds and its output, and a forward-only call keeps only its output;
    backward frees every array the block saved."""
    cfg = toy_config("corpus", "out").student
    params = [p for name, p in SentenceEncoder.init(cfg, seed=0).params.items()
              if name.startswith("layer1.")]
    rng = stream(0, "block-memory")
    x = Tensor(rng.standard_normal((64, 10, cfg.hidden)).astype(np.float32), requires_grad=True)
    mask = (np.arange(10) < rng.integers(3, 11, size=(64, 1))).astype(np.float32)
    key_bias = np.broadcast_to(key_bias_for(mask, np.float32), (64, cfg.heads, 10, 10)).copy()

    def layer(fn, x, params):
        return kept_bytes(lambda: fn(x, params, key_bias, cfg.heads, LAYERNORM_EPS))

    # room for Python objects and numpy's small caches, far below one
    # 64×10×64 activation (160 KiB)
    slack = 16 * 1024
    out, fused = layer(ad.encoder_layer, x, params)
    _, unfused = layer(unfused_layer, x, params)
    assert fused <= 0.75 * unfused
    saved = saved_arrays(out)
    assert fused - out.data.nbytes - sum(a.nbytes for a in saved) < slack

    frozen, forward_only = layer(ad.encoder_layer, Tensor(x.data), [Tensor(p.data) for p in params])
    assert forward_only - frozen.data.nbytes < slack

    refs = [weakref.ref(a) for a in saved]
    del saved
    backward(ad.tsum(out * Tensor(rng.standard_normal(out.shape).astype(np.float32))))
    assert refs and all(ref() is None for ref in refs)


def test_forward_only_encoder_layer_peaks_under_3_mib():
    """One toy-student block, forward only, on a 128×10 float32 batch (an
    evaluation chunk's row half): its allocations peak at 3.0 MiB at most.
    The GELU writes into its own temporaries, so at most three FFN-wide
    arrays are live besides its input; with each GELU step allocating, the
    block peaked at 4.06 MiB."""
    cfg = toy_config("corpus", "out").student
    params = [Tensor(p.data) for name, p in SentenceEncoder.init(cfg, seed=0).params.items()
              if name.startswith("layer1.")]
    rng = stream(0, "block-peak")
    x = Tensor(rng.standard_normal((128, 10, cfg.hidden)).astype(np.float32))
    mask = (np.arange(10) < rng.integers(3, 11, size=(128, 1))).astype(np.float32)
    key_bias = np.broadcast_to(key_bias_for(mask, np.float32), (128, cfg.heads, 10, 10)).copy()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = ad.encoder_layer(x, params, key_bias, cfg.heads, LAYERNORM_EPS)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert out._vjp is None
    assert peak <= 3.0 * 2**20, f"{peak / 2**20:.2f} MiB"


def at_offset(data: np.ndarray, offset: int) -> np.ndarray:
    """A copy of `data` whose first element sits `offset` bytes past a 64-byte boundary."""
    buf = np.zeros(data.nbytes + 128, dtype=np.uint8)
    start = -buf.ctypes.data % 64 + offset
    out = buf[start:start + data.nbytes].view(data.dtype).reshape(data.shape)
    out[...] = data
    return out


def alignment_case(node: str):
    """Float64 operands, the node built from them, a key bias, and the weights
    of a loss summed over the node's output. Rows of 10 keys and 20 features
    leave a remainder in every SIMD width."""
    rng = stream(0, f"alignment-{node}")
    n, length, h, heads = 6, 10, 20, 4
    x = rng.standard_normal((n, length, h))
    scale, shift = 0.5 + rng.random(h), rng.standard_normal(h)
    if node == "layer_norm":
        operands = [x, scale, shift]

        def build(t, key_bias):
            return ad.layer_norm(*t, eps=1e-5)
    elif node == "add_layer_norm":
        operands = [x, rng.standard_normal((n, length, h)), scale, shift]

        def build(t, key_bias):
            return ad.add_layer_norm(*t, eps=1e-5)
    elif node == "attention":
        operands = [x, *(p.data for p in attention_params(rng, h).values())]

        def build(t, key_bias):
            return attention(t[0], t[1:], key_bias, heads)
    else:
        operands = [x, *(p.data for p in block_params(rng, h, 28))]

        def build(t, key_bias):
            return ad.encoder_layer(t[0], t[1:], key_bias, heads, 1e-5)
    mask = (np.arange(length) < rng.integers(1, length + 1, size=(n, 1))).astype(np.float64)
    return operands, build, key_bias_for(mask), rng.standard_normal((n, length, h))


# Where the allocator puts an array must not change a bit of the result
# (determinism across processes). A 4-byte shift also moves a float64 array
# off its element alignment.
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("offset", [4, 8, 16, 36])
@pytest.mark.parametrize("node", ["layer_norm", "add_layer_norm", "attention", "encoder_layer"])
def test_node_bits_do_not_depend_on_memory_alignment(node, offset, dtype):
    operands, build, key_bias, weights = alignment_case(node)
    results = []
    for start in (0, offset):
        tensors = [Tensor(at_offset(a.astype(dtype), start), requires_grad=True)
                   for a in operands]
        out = build(tensors, at_offset(key_bias.astype(dtype), start))
        backward(ad.tsum(out * Tensor(at_offset(weights.astype(dtype), start))))
        results.append([out.data.tobytes(), *(t.grad.tobytes() for t in tensors)])
    assert results[0] == results[1]


class TestBackwardContract:
    def test_scalar_required(self):
        a = Tensor(np.ones((2, 2), dtype=np.float64), requires_grad=True)
        with pytest.raises(ContractError, match="scalar"):
            backward(a + a)

    def test_unreachable_param_gets_zero_grad(self):
        a = Tensor(np.ones(3, dtype=np.float64), requires_grad=True)
        b = Tensor(np.ones(3, dtype=np.float64), requires_grad=True)
        backward(ad.tsum(a * a), params=[a, b])
        assert b.grad is not None
        np.testing.assert_array_equal(b.grad, np.zeros(3))

    def test_grad_accumulates_across_backward_calls(self):
        a = Tensor(np.ones(3, dtype=np.float64), requires_grad=True)
        backward(ad.tsum(a))
        backward(ad.tsum(a))
        np.testing.assert_array_equal(a.grad, 2.0 * np.ones(3))
        zero_grads([a])
        assert a.grad is None

    def test_shared_subexpression_sums_contributions(self):
        a = Tensor(np.array([2.0]), requires_grad=True)
        shared = a * a  # used twice below
        backward(ad.tsum(shared + shared))
        np.testing.assert_allclose(a.grad, [8.0])

    def test_repeated_operand_sums_gradient(self):
        a = Tensor(np.array([3.0, -1.0]), requires_grad=True)
        backward(ad.tsum(a * a))
        np.testing.assert_array_equal(a.grad, [6.0, -2.0])
        zero_grads([a])
        backward(ad.tsum(ad.add(a, a)))
        np.testing.assert_array_equal(a.grad, [2.0, 2.0])

    @pytest.mark.parametrize("op, b_grad", [
        (ad.add, 1.0), (ad.sub, -1.0), (ad.mul, 1.0), (ad.div, -1.0),
    ], ids=["add", "sub", "mul", "div"])
    def test_add_gives_each_operand_its_own_gradient(self, op, b_grad):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        backward(ad.tsum(op(a, b)))
        assert a.grad is not b.grad
        np.testing.assert_array_equal(a.grad, np.ones(3))
        np.testing.assert_array_equal(b.grad, np.full(3, b_grad))

    @pytest.mark.parametrize("bad", [
        lambda g: g.astype(np.float32),
        lambda g: g.reshape(1, -1),
    ], ids=["width", "shape"])
    def test_vjp_gradient_must_match_operand(self, bad):
        a = Tensor(np.ones(3), requires_grad=True)
        out = ad._node(a.data * 2.0, (a,), lambda g: (bad(2.0 * g),), "faulty")
        with pytest.raises(ContractError, match="'faulty'"):
            backward(ad.tsum(out))

    def test_nonfinite_loss_raises(self):
        a = Tensor(np.array([0.0]), requires_grad=True)
        with np.errstate(divide="ignore"):
            loss = ad.tsum(ad.tlog(a))
        with pytest.raises(NumericError):
            backward(loss)

    def test_nonfinite_gradient_names_primitive(self):
        a = Tensor(np.array([-1.0]), requires_grad=True)
        with np.errstate(invalid="ignore"):
            out = ad.tsqrt(a)  # nan forward -> nan grad into sqrt
        loss = ad.tsum(out * Tensor(np.array([0.0])))
        with pytest.raises(NumericError):
            backward(loss)

    def test_no_graph_when_inputs_frozen(self):
        a = Tensor(np.ones(3, dtype=np.float64))
        out = ad.tsum(a * a)
        assert not out.requires_grad
        assert out._parents == ()

    def test_mixed_dtype_rejected(self):
        a = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        b = Tensor(np.ones(3, dtype=np.float64), requires_grad=True)
        with pytest.raises(ContractError, match="widths"):
            ad.add(a, b)


class TestGradCheckContract:
    def test_rejects_float32_by_default(self):
        a = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        with pytest.raises(ContractError, match="float64"):
            finite_diff_check(lambda: ad.tsum(a * a), {"a": a})

    def test_rejects_nondeterministic_loss(self):
        a = Tensor(np.ones(3, dtype=np.float64), requires_grad=True)
        counter = iter(range(1000))

        def noisy():
            return ad.tsum(a * a) + float(next(counter))

        with pytest.raises(ContractError, match="deterministic"):
            finite_diff_check(noisy, {"a": a})

    def test_rejects_frozen_param(self):
        a = Tensor(np.ones(3, dtype=np.float64))
        with pytest.raises(ContractError, match="frozen"):
            finite_diff_check(lambda: ad.tsum(a * a), {"a": a})

    def test_coords_capped_by_size(self):
        a = Tensor(np.ones(3, dtype=np.float64), requires_grad=True)
        report = finite_diff_check(lambda: ad.tsum(a * a), {"a": a})
        assert report.coords_checked["a"] == 3


class TestChainedGraph:
    def test_two_layer_mlp_composite(self):
        rng = stream(0, "mlp")
        x = Tensor(rng.standard_normal((4, 6)))
        w1 = leaf(rng, 6, 8)
        b1 = leaf(rng, 8)
        w2 = leaf(rng, 8, 2)
        b2 = leaf(rng, 2)

        def loss_fn():
            h = ad.gelu(x @ w1 + b1)
            out = ad.softmax_last(h @ w2 + b2)
            return ad.tmean(out * out)

        check(loss_fn, {"w1": w1, "b1": b1, "w2": w2, "b2": b2})


# -- two-sided walks ---------------------------------------------------------


def uncut(first, second):
    """Both calls on the caller, uncut: one whole graph."""
    return first(), second()


def walked_on_a_thread(root: Tensor):
    """A `two_sides` walk of `root`'s graph on a thread of its own, as the
    pipeline's side worker walks the side it kept: the in-process stand-in
    for that worker."""
    def walk(g, grads):
        sums, failed = dict(grads), []

        def run():
            try:
                ad.side_backward(root, g, sums)
            except BaseException as exc:
                failed.append(exc)

        thread = threading.Thread(target=contextvars.copy_context().run, args=(run,))
        thread.start()

        def wait():
            thread.join(timeout=60)
            assert not thread.is_alive(), "a side walk did not finish"
            if failed:
                raise failed[0]
            return sums

        return wait

    return walk


def elsewhere(first, second):
    """`(first(), second())` as a `two_sides` pair whose first side is walked
    on a thread of its own (`walked_on_a_thread`); a first result that
    records no graph comes back with the second as they are."""
    out_first, out_second = first(), second()
    if not (isinstance(out_first, Tensor) and out_first._vjp is not None):
        return out_first, out_second
    return ad.two_sides(out_first.data, walked_on_a_thread(out_first), out_second)


def reference_backward(loss: Tensor) -> None:
    """The one-thread walk over an uncut graph: every node in reverse
    topological order, each gradient added to its operand's `.grad` as it
    comes."""
    loss.grad = np.ones_like(loss.data)
    for node in reversed(ad._toposort(loss)):
        if node._vjp is None or node.grad is None:
            continue
        for parent, pg in zip(node._parents, node._vjp(node.grad)):
            if pg is not None and parent.requires_grad:
                parent.grad = pg if parent.grad is None else parent.grad + pg


def reference_grads(params, build) -> list:
    """The reference gradients of the loss `build()` makes with both sides
    on the caller, uncut, each unreached parameter's as zeros."""
    zero_grads(params)
    reference_backward(build())
    grads = [np.zeros_like(p.data) if p.grad is None else p.grad for p in params]
    zero_grads(params)
    return grads


ROW_LOSSES = {"stage1": _anchor_loss, "stage2": _embedding_loss, "stage3": _imitation_loss}


def toy_row(loss: str, dtype):
    """A toy model, the frozen assistant (None for stage 1) and the model's
    two-sided row loss on one 32-pair batch, a call of the two-sided forward
    (by default `_both_sides`): the stage 1-3 rows by name, else the stage-4
    loss of that variant. Stage 1 trains the assistant; the others train
    the student against it, frozen."""
    cfg = replace(toy_config("corpus", "out"), variant=loss if loss in STAGE4_VARIANTS else "mcl")
    vocab = VocabSpec.create(tokens_per_language=512, seed=0)
    rng = stream(5, "two-sided-batch")
    sentences = [vocab.lang1_start + rng.integers(0, 512, size=n)
                 for n in rng.integers(3, 13, size=32)]
    source_ids, mask = frame_rows(sentences, cfg.max_seq_len)
    target_ids, _ = frame_rows([vocab.cipher_ids(s) for s in sentences], cfg.max_seq_len)
    batch = ParallelBatch(source_ids, target_ids, mask, mask)
    oracle = OracleSemantics.create(vocab, dim=cfg.assistant.hidden, seed=0)
    assistant = SentenceEncoder.init(cfg.assistant, seed=1, dtype=dtype)
    if loss == "stage1":
        model, reference = assistant, None
    else:
        model, reference = SentenceEncoder.init(cfg.student, seed=0, dtype=dtype), assistant.freeze()
    row = ROW_LOSSES.get(loss, _stage4_loss)
    return model, reference, lambda sides=_both_sides: row(model, reference, batch, oracle, cfg,
                                                           sides).value


@contextlib.contextmanager
def two_sided(cores: int, *models):
    """The two-sided forward over `models` (None skipped): a side worker's
    on 2 cores, `_both_sides` on 1."""
    if cores == 1:
        yield _both_sides
        return
    # pins OpenBLAS to one thread, as the pipeline does before it forks
    ad.second_thread_free()
    in_play = {f"role{k}": model for k, model in enumerate(models) if model is not None}
    with pipeline._SideWorker({role: m.config for role, m in in_play.items()}) as worker:
        yield worker.stage(in_play)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("loss", [*STAGE4_VARIANTS, *ROW_LOSSES])
@pytest.mark.parametrize("cores", [2, 1])
def test_backward_gives_the_reference_bits(cores, loss, dtype):
    model, reference, loss_fn = toy_row(loss, dtype)
    params = list(model.params.values())
    with two_sided(cores, model, reference) as sides:
        backward(loss_fn(sides), params=params)
    walked = [p.grad for p in params]
    expected = reference_grads(params, loss_fn)
    for name, got, want in zip(model.params, walked, expected):
        assert got.dtype == dtype
        assert np.array_equal(got, want), name


def training_row(row: str, dtype):
    """The model a toy training row trains, the models in play, the names it
    may move and its row loss as a call of (two-sided forward, batch), over
    fresh models: stages 1-4 of the curriculum, or the `random_init`
    baseline."""
    cfg = toy_config("corpus", "out")
    oracle = OracleSemantics.create(VocabSpec.create(tokens_per_language=512, seed=0),
                                    dim=cfg.assistant.hidden, seed=0)
    assistant = SentenceEncoder.init(cfg.assistant, seed=1, dtype=dtype)
    if row in ("stage1", "random_init"):
        model = assistant if row == "stage1" else SentenceEncoder.init(cfg.student, seed=2,
                                                                      dtype=dtype)
        reference, loss = None, _anchor_loss
    else:
        model = init_student_from_assistant(assistant.freeze(), cfg.student, seed=2)
        reference = assistant
        loss = {"stage2": _embedding_loss, "stage3": _imitation_loss}.get(row, _stage4_loss)
    names = [n for n in model.params if row != "stage2" or n in EMBEDDING_PATH_KEYS]
    return model, reference, names, lambda sides, batch: loss(model, reference, batch, oracle,
                                                              cfg, sides).value


def toy_batches(count: int, pairs: int = 16) -> list[ParallelBatch]:
    """Parallel toy batches of 1-14 token sentences, source in language 1."""
    vocab = VocabSpec.create(tokens_per_language=512, seed=0)
    rng = stream(9, "toy-batches")
    batches = []
    for _ in range(count):
        sentences = [vocab.lang1_start + rng.integers(0, 512, size=n)
                     for n in rng.integers(1, 15, size=pairs)]
        source_ids, mask = frame_rows(sentences, 16)
        target_ids, _ = frame_rows([vocab.cipher_ids(x) for x in sentences], 16)
        batches.append(ParallelBatch(source_ids, target_ids, mask, mask))
    return batches


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("row", ["stage1", "stage2", "stage3", "stage4", "random_init"])
def test_side_worker_trains_with_the_one_process_bits(row, dtype):
    """20 AdamW steps of a row, with the side worker and without: every
    step's `.grad`s are bitwise equal."""
    batches = toy_batches(5)
    grads = {}
    for cores in (2, 1):
        model, reference, names, loss_fn = training_row(row, dtype)
        params = list(model.params.values())
        optimizer = AdamW(params={n: model.params[n] for n in names}, total_steps=20)
        grads[cores] = []
        with two_sided(cores, model, reference) as sides:
            for step in range(20):
                backward(loss_fn(sides, batches[step % len(batches)]),
                         params=[model.params[n] for n in names])
                grads[cores].append([p.grad for p in params])
                optimizer.step()
                zero_grads(params)
    for step, (worker, alone) in enumerate(zip(grads[2], grads[1])):
        # stage 2's student gets no gradient outside its embedding path
        assert all(a is b is None or (a.dtype == dtype and np.array_equal(a, b))
                   for a, b in zip(worker, alone)), step


@pytest.mark.parametrize("cores", [2, 1])
@pytest.mark.parametrize("side", ["source", "target"])
def test_non_finite_gradient_on_either_side_names_the_primitive(monkeypatch, cores, side):
    """A non-finite gradient in the side the worker walks raises the
    `NumericError` the caller's own side raises, and no `.grad` changes."""
    encode = SentenceEncoder.encode
    lang2_start = VocabSpec.create(tokens_per_language=512, seed=0).lang2_start

    def poisoned(self, ids, mask):
        out = encode(self, ids, mask)
        if (np.max(ids) < lang2_start) == (side == "source"):
            # sqrt's VJP at 0 sends an infinite gradient into the mul below it
            w = self.params["embedding.position"]
            out = out + ad.tsum(ad.tsqrt(w * np.zeros(w.shape, w.dtype)))
        return out

    # patched before the worker forks, so it runs there too
    monkeypatch.setattr(SentenceEncoder, "encode", poisoned)
    student, _, loss_fn = toy_row("mcl", np.float32)
    params = list(student.params.values())
    with np.errstate(divide="ignore"), two_sided(cores, student) as sides:
        # twice: the worker answers the next step after its error
        for _ in range(2):
            with pytest.raises(NumericError,
                               match="^non-finite gradient flowing into primitive 'mul'$"):
                backward(loss_fn(sides), params=params)
            assert all(p.grad is None for p in params)


def test_two_thread_backward_adds_to_earlier_gradients_in_order():
    student, reference, loss_fn = toy_row("mcl", np.float32)
    params = list(student.params.values())
    with two_sided(2, student) as sides:
        for _ in range(2):
            backward(loss_fn(sides), params=params)
    with_worker = {name: p.grad for name, p in student.params.items()}
    zero_grads(params)
    for _ in range(2):
        reference_backward(loss_fn())
    assert all(np.array_equal(with_worker[n], p.grad) for n, p in student.params.items())


@pytest.mark.parametrize("cores", [2, 1])
def test_backward_on_a_leaf_loss_adds_to_its_gradient(cores):
    split = elsewhere if cores == 2 else uncut
    for dtype in (np.float32, np.float64):
        leaf_loss = Tensor(np.ones((), dtype=dtype), requires_grad=True)
        through_a_node = Tensor(np.ones((), dtype=dtype), requires_grad=True)
        for _ in range(2):
            # on 2 cores, a side walked elsewhere is itself the loss
            walked, leaf = split(lambda: through_a_node * 1.0, lambda: leaf_loss)
            assert leaf is leaf_loss
            backward(leaf)
            backward(walked)
        assert leaf_loss.grad.dtype == dtype
        assert leaf_loss.grad == through_a_node.grad == 2.0


def every_node(loss: Tensor) -> list[Tensor]:
    """The nodes of `loss`'s graph and of every graph recorded here that its
    side leaves stand for."""
    nodes, roots = [], [loss]
    while roots:
        for node in ad._toposort(roots.pop()):
            nodes.append(node)
            if isinstance(node, ad._Side) and node.root is not None:
                roots.append(node.root)
    return nodes


@pytest.mark.parametrize("cores", [2, 1])
def test_backward_frees_every_node_it_walks(cores):
    student, _, loss_fn = toy_row("mcl", np.float32)
    with two_sided(cores, student) as sides:
        loss = loss_fn(sides)
        nodes = every_node(loss)
        walked = [weakref.ref(node) for node in nodes
                  if not ad._is_plain_leaf(node) and node is not loss]
        blocks = sum(node.op == "encoder_layer" for node in nodes)
        del nodes
        backward(loss, params=list(student.params.values()))
    # at least one block node per layer application on each side recorded
    # here: the worker records the source side
    assert blocks >= (3 - cores) * student.config.effective_depth
    assert all(ref() is None for ref in walked)
    assert loss.grad is None and loss._vjp is None and loss._parents is None
    # leaves keep their gradients
    assert all(p.grad is not None for p in student.params.values())


@pytest.mark.parametrize("cores", [2, 1])
@pytest.mark.parametrize("count", [1, 3])
def test_vjp_must_return_one_gradient_per_operand(cores, count):
    a = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)

    def miscounted():
        out = ad._node(a.data + b.data, (a, b), lambda g: (g.copy(),) * count, "miscounted")
        return ad.tsum(out)

    # on 2 cores the miscounted node is on the side walked elsewhere
    first, second = (elsewhere if cores == 2 else uncut)(miscounted, lambda: ad.tsum(b * 1.0))
    with pytest.raises(ContractError, match=f"'miscounted' returned {count} gradients for 2"):
        backward(first + second)
    assert a.grad is None and b.grad is None


@pytest.mark.parametrize("cores", [2, 1])
def test_backward_over_a_spent_graph_raises(cores):
    a = Tensor(np.ones(3), requires_grad=True)
    first, second = (elsewhere if cores == 2 else uncut)(lambda: ad.tsum(a * a),
                                                         lambda: ad.tsum(a * 0.0))
    loss = first + second
    later = loss * 2.0  # shares the graph `backward(loss)` spends
    backward(loss)
    np.testing.assert_array_equal(a.grad, [2.0, 2.0, 2.0])
    zero_grads([a])
    with pytest.raises(ContractError, match="spent graph"):
        backward(loss)
    with pytest.raises(ContractError, match="spent graph"):
        backward(later)
    assert a.grad is None


def test_a_spent_cut_leaf_raises_and_its_partner_is_walked_later():
    a = Tensor(np.arange(3.0), requires_grad=True)
    first, second = elsewhere(lambda: ad.tsum(a * a), lambda: ad.tsum(a * 3.0))
    backward(first)
    np.testing.assert_array_equal(a.grad, [0.0, 2.0, 4.0])
    with pytest.raises(ContractError, match="spent graph: its 'side' node"):
        backward(first * 1.0)
    backward(second)
    np.testing.assert_array_equal(a.grad, [3.0, 5.0, 7.0])


def test_a_graph_without_cuts_is_walked_on_the_caller(two_threads):
    threads = set()

    def record(g):
        threads.add(threading.get_ident())
        return (g,)

    a = Tensor(np.ones(3), requires_grad=True)
    backward(ad.tsum(_pass_through(a * 2.0, record) + _pass_through(a * 3.0, record)))
    assert threads == {threading.get_ident()}
    np.testing.assert_array_equal(a.grad, [5.0, 5.0, 5.0])


def _wide_graph(seed: int, split=elsewhere):
    """Leaves and a loss over three sides of 20 random nodes each: the first
    two split from inside the first of the two outer calls, all through
    `split`. A side reuses its earlier nodes and the shared leaves, so
    tensors gather gradients from many consumers."""
    rng = stream(seed, "wide-graph")
    leaves = [Tensor(rng.standard_normal((6, 6)), requires_grad=True) for _ in range(5)]
    scale, shift = (Tensor(rng.standard_normal(6), requires_grad=True) for _ in range(2))
    plans = [[(rng.integers(0, 3), *rng.integers(0, len(leaves) + k, size=2)) for k in range(20)]
             for _ in range(3)]

    def side(plan):
        nodes = list(leaves)
        for kind, i, j in plan:
            a, b = nodes[i], nodes[j]
            if kind == 0:
                nodes.append(ad.add_layer_norm(a, b, scale, shift, 1e-5))
            elif kind == 1:
                nodes.append(ad.softmax_last(a) @ b)
            else:
                nodes.append(ad.gelu(a) * ad.softmax_last(b))
        out = ad.tsum(nodes[-1])
        for node in nodes[-6:-1]:
            out = out + ad.tmean(node)
        return out

    def nested():
        first, second = split(partial(side, plans[0]), partial(side, plans[1]))
        return first * second

    first, second = split(nested, partial(side, plans[2]))
    return leaves + [scale, shift], first + second


def test_two_thread_walks_from_several_callers_under_fast_switching():
    mismatches, finished = [], []

    def caller(index):
        for seed in range(index * 100, index * 100 + 15):
            leaves, loss = _wide_graph(seed)
            backward(loss)
            threaded = [p.grad for p in leaves]
            leaves, loss = _wide_graph(seed, split=uncut)
            reference_backward(loss)
            mismatches.extend(seed for g, p in zip(threaded, leaves) if not np.array_equal(g, p.grad))
        finished.append(index)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, args=(k,)) for k in range(3)]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers)
    assert sorted(finished) == [0, 1, 2] and not mismatches


def test_concurrently_runs_first_on_the_helper(two_threads):
    caller = threading.get_ident()
    on_first, on_second = ad.concurrently(threading.get_ident, threading.get_ident)
    assert on_second == caller and on_first != caller


def test_a_call_nested_in_either_call_runs_inline(two_threads):
    caller = threading.get_ident()

    def nested():
        return ad.second_thread_free(), ad.concurrently(threading.get_ident, threading.get_ident)

    (free_first, (helper, helper_too)), (free_second, inner) = ad.concurrently(nested, nested)
    # the caller, running `second`, does not wait behind the busy helper
    assert inner == (caller, caller)
    assert helper == helper_too != caller
    assert not free_first and not free_second and ad.second_thread_free()
    with ad.one_thread():
        assert not ad.second_thread_free()
        assert ad.concurrently(threading.get_ident, threading.get_ident) == (caller, caller)
        with ad.one_thread():
            pass
        assert not ad.second_thread_free()
    assert ad.second_thread_free()


def test_two_sides_cuts_only_a_second_side_that_records_a_graph(two_threads):
    a = Tensor(np.ones(3), requires_grad=True)
    graph = a * 2.0
    first, second = ad.two_sides(np.zeros(3), walked_on_a_thread(a * 3.0), graph)
    assert isinstance(first, ad._Side) and first.side == 0 and first.root is None
    assert first.requires_grad and first._vjp is None
    assert isinstance(second, ad._Side) and second.side == 1 and second.root is graph
    assert second.data is graph.data and second.requires_grad and second._vjp is None
    assert first.pair is second.pair
    plain = Tensor(np.ones(3)) * 2.0
    assert ad.two_sides(np.zeros(3), walked_on_a_thread(a * 3.0), plain)[1] is plain
    # `concurrently` returns its results as they are
    assert ad.concurrently(lambda: graph, lambda: 7) == (graph, 7)
    # the caller's graph using a side's node directly meets it spent
    shared = a * 2.0
    first, second = elsewhere(lambda: ad.tsum(a * 5.0), lambda: ad.gelu(shared))
    with pytest.raises(ContractError, match="spent graph: its 'mul' node"):
        backward(ad.tsum(first + second) + ad.tsum(shared))
    assert a.grad is None


@pytest.mark.parametrize("delay_first", [0.0, 0.2])
def test_concurrently_raises_firsts_error_when_both_fail(two_threads, delay_first):
    def fail(exc, delay=0.0):
        def call():
            time.sleep(delay)
            raise exc
        return call

    with pytest.raises(KeyError):
        ad.concurrently(fail(KeyError("first"), delay_first), fail(ValueError("second"), 0.2 - delay_first))
    with pytest.raises(ValueError):
        ad.concurrently(lambda: 1, fail(ValueError("second")))


def _pass_through(x: Tensor, vjp) -> Tensor:
    """A copy of `x` whose VJP is `vjp`, as one node."""
    return ad._node(x.data.copy(), (x,), vjp, "pass_through")


def _branches(leaf: Tensor, make, split=elsewhere) -> Tensor:
    """A loss over two sides built from `leaf` through `split`, each
    through `make(x, name)`, named "left" (the first call) and "right"."""
    left, right = split(lambda: ad.gelu(make(leaf * 2.0, "left")),
                        lambda: ad.gelu(make(leaf * 3.0, "right")))
    return ad.tsum(left + right)


@pytest.mark.parametrize("side", [0, 1])
def test_non_finite_gradient_in_one_side_names_the_primitive(side):
    a = Tensor(np.ones((4, 3)), requires_grad=True)

    def build(k):
        if k == side:
            # sqrt's VJP at 0 sends an infinite gradient into the mul below it
            return ad.tsum(ad.tsqrt(a * np.zeros((4, 3))))
        return ad.tsum(ad.gelu(a * (2.0 + k)))

    first, second = elsewhere(partial(build, 0), partial(build, 1))
    with np.errstate(divide="ignore"), pytest.raises(NumericError, match="'mul'"):
        backward(first + second)
    assert a.grad is None


class Boom(Exception):
    pass


def test_raising_vjp_on_the_caller_releases_the_helper(two_threads):
    failed = threading.Event()

    def first():
        # the helper holds its call until the caller has failed in the other
        assert failed.wait(timeout=30)
        return 1

    def second():
        failed.set()
        raise Boom()

    with pytest.raises(Boom):
        ad.concurrently(first, second)
    assert two_threads.submit(lambda: 1).result(timeout=30) == 1
    b = Tensor(np.ones(3), requires_grad=True)
    backward(ad.tsum(b * b))
    np.testing.assert_array_equal(b.grad, [2.0, 2.0, 2.0])


def test_interrupt_on_the_helper_is_raised_in_the_caller(two_threads):
    interrupted = threading.Event()

    def first():
        interrupted.set()
        raise KeyboardInterrupt

    def second():
        # the caller holds its call until the helper has been interrupted
        assert interrupted.wait(timeout=30)
        raise Boom()

    with pytest.raises(KeyboardInterrupt):
        ad.concurrently(first, second)
    assert two_threads.submit(lambda: 1).result(timeout=30) == 1


@pytest.mark.parametrize("slow", ["left", "right"])
def test_two_failures_raise_the_one_thread_walks_first(slow):
    def loss_with_two_failures(parties, split):
        barrier = threading.Barrier(parties, timeout=30)

        def make(x, name):
            def vjp(g):
                barrier.wait()  # with two parties, both fail at once on both threads
                if name == slow:
                    time.sleep(0.2)  # and this one fails second
                raise Boom(name)

            return _pass_through(x, vjp)

        return _branches(Tensor(np.ones(3), requires_grad=True), make, split)

    with pytest.raises(Boom) as threaded:
        backward(loss_with_two_failures(2, elsewhere))
    with pytest.raises(Boom) as sequential:
        backward(loss_with_two_failures(1, uncut))
    assert str(threaded.value) == str(sequential.value) == "left"


@pytest.mark.parametrize("cores", [2, 1])
def test_a_later_failure_first_does_not_hide_the_one_thread_walks_error(cores):
    """The second side's node q fails while the first side's node p is still
    waiting for its consumer; the first side must still reach p, and p's
    error is raised."""
    a = Tensor(np.ones(3), requires_grad=True)
    q_failed, roles, built = threading.Event(), {}, {}

    def make(x):
        def vjp(g):
            role = roles.get(id(node))
            if role == "hold":  # p's consumer waits until q has failed
                q_failed.wait(timeout=30 if cores == 2 else 0)
            elif role == "q":
                q_failed.set()
                raise Boom("q")
            elif role == "p":
                raise Boom("p")
            return (g,)

        node = _pass_through(x, vjp)
        return node

    def side(k, scale):
        inner = make(a * scale)
        built[k] = inner, make(inner)
        return built[k][1]

    split = elsewhere if cores == 2 else uncut
    first, second = split(partial(side, 0, 2.0), partial(side, 1, 3.0))
    loss = ad.tsum(first + second)
    roles.update({id(built[0][0]): "p", id(built[0][1]): "hold", id(built[1][0]): "q"})
    with pytest.raises(Boom, match="^p$"):
        backward(loss)
    assert q_failed.is_set() == (cores == 2)


# A call nested in work the one-worker helper runs: `concurrently`, or a
# stage-4 step through `_both_sides` whose gradients must equal those of the
# one-thread walk. Waiting on the busy helper would hang.
NESTED_SCRIPT = """
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
import numpy as np
from crosstill import autodiff as ad
from crosstill.autodiff import Tensor, backward, zero_grads
from crosstill.corpus import ParallelBatch
from crosstill.encoder import SentenceEncoder
from crosstill.losses import loss_stage4
from crosstill.pipeline import _both_sides, toy_config

ad._HELPER = ThreadPoolExecutor(max_workers=1)
if sys.argv[1] == "concurrently":
    def nested():
        return threading.get_ident(), ad.concurrently(threading.get_ident, threading.get_ident)

    (helper, inner), caller = ad.concurrently(nested, threading.get_ident)
    assert inner == (helper, helper) and helper != caller
else:
    student = SentenceEncoder.init(toy_config("corpus", "out").student, seed=0)
    rng = np.random.default_rng(0)
    source, target = (rng.integers(4, student.config.vocab_size, size=(16, 10)) for _ in range(2))
    mask = np.ones((16, 10), dtype=np.uint8)
    batch = ParallelBatch(source, target, mask, mask)
    anchor = Tensor(rng.standard_normal((16, student.config.hidden)).astype(np.float32))
    params = list(student.params.values())

    def step():
        backward(loss_stage4(anchor, *_both_sides(student, "encode", batch)).value, params=params)
        grads = [p.grad for p in params]
        zero_grads(params)
        return grads

    nested, _ = ad.concurrently(step, lambda: None)
    ad._HELPER = False
    assert all(np.array_equal(a, b) for a, b in zip(nested, step()))
print("ok")
"""


@pytest.mark.parametrize("call", ["concurrently", "backward"])
def test_a_call_nested_on_the_helper_runs_there_alone(call):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    try:
        result = subprocess.run([sys.executable, "-c", NESTED_SCRIPT, call], capture_output=True,
                                text=True, env=env, timeout=120)
    except subprocess.TimeoutExpired:
        pytest.fail(f"a nested {call} did not return within 120 s")
    assert result.returncode == 0 and result.stdout == "ok\n", result.stderr


def test_loaded_openblas_reads_paths_with_spaces(tmp_path):
    real = ad._loaded_openblas()
    if not real:
        pytest.skip("no OpenBLAS mapped in this process")
    spaced = tmp_path / "a dir" / "libopenblas copy.so"
    spaced.parent.mkdir()
    spaced.symlink_to(real[0])
    missing = tmp_path / "gone dir" / "libopenblas.so"
    maps = tmp_path / "maps"

    def entry(path):
        return f"7f0000000000-7f0000001000 r-xp 00000000 08:01 1234                       {path}\n"

    maps.write_text(
        entry(spaced) + entry(spaced) + entry(f"{missing} (deleted)")
        + "7f0000002000-7f0000003000 rw-p 00000000 00:00 0 \n" + entry("/usr/lib/libc.so.6")
    )
    assert ad._loaded_openblas(str(maps)) == [str(spaced)]
    assert ad._pin_openblas_to_one_thread(str(maps))
    # a path that cannot be opened counts as a library without a setter
    maps.write_text(entry(missing))
    assert ad._loaded_openblas(str(maps)) == [str(missing)]
    assert not ad._pin_openblas_to_one_thread(str(maps))
    assert ad._loaded_openblas(str(tmp_path / "no-maps")) == []


def test_helper_needs_two_cpus_and_an_openblas_setter(monkeypatch):
    monkeypatch.setattr(ad, "_pin_openblas_to_one_thread", lambda: True)
    monkeypatch.setattr(ad, "_HELPER", None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert ad._helper() is None and ad._HELPER is False
    monkeypatch.setattr(ad, "_HELPER", None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(ad, "_pin_openblas_to_one_thread", lambda: False)
    assert ad._helper() is None and ad._HELPER is False
    # the one-thread walk gives the same gradient
    a = Tensor(np.arange(3.0), requires_grad=True)
    backward(ad.tsum(a * a))
    np.testing.assert_array_equal(a.grad, [0.0, 2.0, 4.0])


def test_forked_child_trains_after_the_parent_used_the_helper(two_threads):
    student, _, loss_fn = toy_row("mcl", np.float32)
    params = list(student.params.values())
    # the helper runs a large forward-only encode's half before the fork
    frozen = SentenceEncoder.init(toy_config("corpus", "out").student, seed=3).freeze()
    ids = np.full((64, 16), 5)
    frozen.encode(ids, np.ones_like(ids))
    backward(loss_fn(), params=params)
    expected = {name: p.grad for name, p in student.params.items()}
    zero_grads(params)
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)

    def one_step():
        frozen.encode(ids, np.ones_like(ids))
        backward(loss_fn(), params=params)
        sender.send({name: p.grad for name, p in student.params.items()})

    child = context.Process(target=one_step)
    child.start()
    try:
        assert receiver.poll(120), "the forked child's training step did not finish"
        got = receiver.recv()
        child.join(30)
        assert child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
    assert all(np.array_equal(expected[name], got[name]) for name in expected)


def _on_glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


# Three warm-up encodes of a (64, 12) batch by the toy student, then minor
# page faults over 20 more. Under glibc's default malloc thresholds those 20
# encodes took 67,520-68,500 minor faults: each batch's freed arrays went
# back to the kernel and were faulted in again by the next.
FAULT_SCRIPT = """
import resource
import numpy as np
from crosstill.encoder import SentenceEncoder
from crosstill.pipeline import toy_config

student = SentenceEncoder.init(toy_config("corpus", "out").student, seed=0)
ids = np.random.default_rng(0).integers(4, student.config.vocab_size, size=(64, 12))
mask = np.ones((64, 12), dtype=np.float32)
for _ in range(3):
    student.encode(ids, mask)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    student.encode(ids, mask)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
DEFAULT_POLICY_FAULTS = 68_500


@pytest.mark.skipif(not _on_glibc(), reason="the heap policy is set only on glibc")
def test_encodes_reuse_freed_memory_without_page_faults():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    result = subprocess.run([sys.executable, "-c", FAULT_SCRIPT], capture_output=True,
                            text=True, env=env, timeout=300)
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) < 0.05 * DEFAULT_POLICY_FAULTS
    assert ad._HEAP_POLICY_SET


# Five warm-up stage-4 steps of the toy student on a (64, 12) batch per side,
# through a side worker's two-sided forward and `backward`, then this
# process's minor page faults over 20 more: once the worker's fork has cost
# its copies, the steps reuse freed memory as one-process steps do.
TWO_SIDED_FAULT_SCRIPT = """
import resource
import numpy as np
from crosstill.autodiff import Tensor, backward, zero_grads
from crosstill.corpus import ParallelBatch
from crosstill.encoder import SentenceEncoder
from crosstill.losses import loss_stage4
from crosstill.pipeline import _SideWorker, toy_config

student = SentenceEncoder.init(toy_config("corpus", "out").student, seed=0)
params = list(student.params.values())
worker = _SideWorker({"student": student.config})
rng = np.random.default_rng(0)
source, target = (rng.integers(4, student.config.vocab_size, size=(64, 12)) for _ in range(2))
mask = np.ones((64, 12), dtype=np.uint8)
batch = ParallelBatch(source, target, mask, mask)
anchor = Tensor(rng.standard_normal((64, 64)).astype(np.float32))

def step():
    backward(loss_stage4(anchor, *sides(student, "encode", batch)).value, params=params)
    zero_grads(params)

with worker:
    sides = worker.stage({"student": student})
    for _ in range(5):
        step()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        step()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not _on_glibc(), reason="the heap policy is set only on glibc")
def test_two_sided_steps_reuse_freed_memory_without_page_faults():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    result = subprocess.run([sys.executable, "-c", TWO_SIDED_FAULT_SCRIPT], capture_output=True,
                            text=True, env=env, timeout=300)
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) < 0.05 * DEFAULT_POLICY_FAULTS
