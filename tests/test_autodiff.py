"""Gradient correctness of every primitive, checked against central differences.

Each case builds a scalar loss from one primitive (plus a reduction), runs
the analytic backward pass, and compares against finite differences at
float64. A handful of cases also verify forward values against plain numpy.
"""

import numpy as np
import pytest
from scipy.special import erf

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
