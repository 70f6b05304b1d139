"""Gradient correctness of every primitive, checked against central differences.

Each case builds a scalar loss from one primitive (plus a reduction), runs
the analytic backward pass, and compares against finite differences at
float64. A handful of cases also verify forward values against plain numpy.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf

import crosstill
from crosstill import autodiff as ad
from crosstill.autodiff import Tensor, backward, zero_grads
from crosstill.errors import ContractError, NumericError
from crosstill.gradcheck import finite_diff_check
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
        f"worst {report.worst_param()}: {report.max_rel_error:.3e}"
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
        check(lambda: ad.tsum((1.0 - a) * (1.0 - a)), {"a": a})

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
        check(lambda: ad.tsum(ad.transpose(a, (2, 1, 0)) * b), {"a": a, "b": b})

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
        check(lambda: ad.tsum(ad.linear(x, w, b) * c), {"x": x, "w": w, "b": b})

    def test_linear_rank4(self):
        rng = stream(0, "linear_r4")
        x = leaf(rng, 2, 3, 4, 5)
        w = leaf(rng, 5, 3)
        b = leaf(rng, 3)
        c = leaf(rng, 2, 3, 4, 3)
        check(lambda: ad.tsum(ad.linear(x, w, b) * c), {"x": x, "w": w, "b": b})

    def test_linear_matches_matmul_plus_bias(self):
        rng = stream(0, "linear_fwd")
        x = leaf(rng, 4, 6, 5)
        w = leaf(rng, 5, 3)
        b = leaf(rng, 3)
        out = ad.linear(x, w, b)
        assert out.op == "linear" and out._parents == (x, w, b)
        np.testing.assert_allclose(out.data, x.data @ w.data + b.data, rtol=0, atol=1e-12)

    def test_linear_rejects_bias_of_wrong_shape(self):
        x = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        w = Tensor(np.ones((4, 5)), requires_grad=True)
        with pytest.raises(ContractError, match="linear"):
            ad.linear(x, w, Tensor(np.ones(4), requires_grad=True))

    def test_matmul_rank1_rejected(self):
        a = Tensor(np.ones(3, dtype=np.float64), requires_grad=True)
        b = Tensor(np.ones((3, 2), dtype=np.float64), requires_grad=True)
        with pytest.raises(ContractError):
            ad.matmul(a, b)

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


def attention_params(rng, h, dtype=np.float64):
    """q, k, v, o weights and biases, in the order `ad.attention` takes them."""
    params = {}
    for name in "qkvo":
        params[f"w{name}"] = Tensor((rng.standard_normal((h, h)) * 0.4).astype(dtype),
                                    requires_grad=True)
        params[f"b{name}"] = Tensor((rng.standard_normal(h) * 0.1).astype(dtype),
                                    requires_grad=True)
    return params


def key_bias_for(mask, dtype=np.float64):
    return ((1.0 - mask)[:, None, None, :] * -1e9).astype(dtype)


def unfused_attention(x, p, key_bias, heads):
    """The chain of primitives `ad.attention` replaces."""
    n, length, h = x.shape
    dh = h // heads

    def split(name):
        proj = ad.linear(x, p[f"w{name}"], p[f"b{name}"])
        return ad.transpose(ad.reshape(proj, (n, length, heads, dh)), (0, 2, 1, 3))

    q, k, v = split("q"), split("k"), split("v")
    scores = (q @ ad.transpose(k, (0, 1, 3, 2))) * float(1.0 / np.sqrt(dh))
    weights = ad.softmax_last(scores + Tensor(key_bias))
    ctx = ad.reshape(ad.transpose(weights @ v, (0, 2, 1, 3)), (n, length, h))
    return ad.linear(ctx, p["wo"], p["bo"])


def fused_attention(x, p, key_bias, heads):
    return ad.attention(x, *p.values(), key_bias, heads)


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
        check(lambda: ad.tsum(fused_attention(x, p, key_bias, heads) * weight),
              {"x": x, **probed})
        np.testing.assert_allclose(p["bk"].grad, 0.0, rtol=0, atol=1e-12)

    def test_attention_is_one_node_without_a_key_bias_parent(self):
        x, p, key_bias, _ = self.attention_case()
        out = fused_attention(x, p, key_bias, 2)
        assert out.op == "attention" and out._parents == (x, *p.values())

    def test_attention_matches_unfused_composition(self):
        # length 1 leaves one key per query row: the row max is that key's score
        for length in (1, 5):
            x, p, key_bias, weight = self.attention_case(length=length)
            results = []
            for fn in (fused_attention, unfused_attention):
                zero_grads([x, *p.values()])
                out = fn(x, p, key_bias, 2)
                backward(ad.tsum(out * weight))
                results.append((out.data, x.grad, *(t.grad for t in p.values())))
            for fused, unfused in zip(*results):
                np.testing.assert_allclose(fused, unfused, rtol=0, atol=1e-12)

    def test_masked_keys_get_no_weight(self):
        x, p, key_bias, _ = self.attention_case()
        base = fused_attention(x, p, key_bias, 2).data
        x.data[0, 4] += 10.0  # a masked key of row 0
        moved = fused_attention(x, p, key_bias, 2).data
        np.testing.assert_array_equal(base[0, :4], moved[0, :4])

    def test_attention_float32_stays_float32(self):
        x, p, key_bias, weight = self.attention_case(dtype=np.float32)
        out = fused_attention(x, p, key_bias, 2)
        backward(ad.tsum(out * weight))
        assert out.data.dtype == np.float32
        assert all(t.grad.dtype == np.float32 for t in (x, *p.values()))

    @pytest.mark.parametrize("breakage", [
        "weight-width", "key-bias-width", "weight-shape", "bias-shape", "heads", "x-rank",
        "key-bias-shape",
    ])
    def test_attention_contract_names_primitive(self, breakage):
        x, p, key_bias, _ = self.attention_case()
        heads = 2
        if breakage == "weight-width":
            p["wk"] = Tensor(p["wk"].data.astype(np.float32), requires_grad=True)
        elif breakage == "key-bias-width":
            key_bias = key_bias.astype(np.float32)
        elif breakage == "weight-shape":
            p["wv"] = Tensor(np.ones((8, 6)), requires_grad=True)
        elif breakage == "bias-shape":
            p["bo"] = Tensor(np.ones(6), requires_grad=True)
        elif breakage == "heads":
            heads = 3
        elif breakage == "x-rank":
            x = Tensor(x.data[0], requires_grad=True)
        else:
            key_bias = key_bias[:, :, :, :4]
        with pytest.raises(ContractError, match="attention"):
            fused_attention(x, p, key_bias, heads)

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

    def test_add_gives_each_operand_its_own_gradient(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        backward(ad.tsum(ad.add(a, b)))
        assert a.grad is not b.grad
        np.testing.assert_array_equal(a.grad, np.ones(3))
        np.testing.assert_array_equal(b.grad, np.ones(3))

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

    def test_detach_blocks_gradient(self):
        a = Tensor(np.ones(3, dtype=np.float64), requires_grad=True)
        backward(ad.tsum(a.detach() * a))
        np.testing.assert_array_equal(a.grad, np.ones(3))

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

    def test_allows_float32_with_flag(self):
        a = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        report = finite_diff_check(lambda: ad.tsum(a * a), {"a": a}, allow_float32=True)
        assert report.max_rel_error < 1e-2

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
    src = str(Path(crosstill.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", FAULT_SCRIPT], capture_output=True,
                            text=True, env=env, timeout=300)
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) < 0.05 * DEFAULT_POLICY_FAULTS
    assert ad._HEAP_POLICY_SET
