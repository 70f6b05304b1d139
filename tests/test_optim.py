"""Optimizer behaviour against an independently coded reference update."""

import numpy as np
import pytest

from crosstill.autodiff import Tensor
from crosstill.errors import ContractError
from crosstill.optim import LEARNING_RATE, WEIGHT_DECAY, AdamW
from crosstill.rng import stream


def reference_adamw(w0, grads, lr, betas, eps, wd, total_steps, warmup_fraction):
    """Plain transcription of the update rule, kept deliberately naive."""
    w = {k: v.astype(np.float64).copy() for k, v in w0.items()}
    m = {k: np.zeros_like(v) for k, v in w.items()}
    v = {k: np.zeros_like(val) for k, val in w.items()}
    b1, b2 = betas
    warmup_steps = warmup_fraction * total_steps
    for s, gstep in enumerate(grads):
        if warmup_steps > 0:
            lr_t = lr * min(1.0, s / warmup_steps)
        else:
            lr_t = lr
        t = s + 1
        for k, g in gstep.items():
            g = g.astype(np.float64)
            m[k] = b1 * m[k] + (1 - b1) * g
            v[k] = b2 * v[k] + (1 - b2) * g * g
            mhat = m[k] / (1 - b1**t)
            vhat = v[k] / (1 - b2**t)
            adam_term = lr_t * mhat / (np.sqrt(vhat) + eps)
            decay_term = lr_t * wd * w[k] if (w[k].ndim >= 2 and wd > 0) else 0.0
            w[k] = w[k] - adam_term - decay_term
    return w


class TestWarmup:
    def test_half_rate_at_step_five_of_hundred(self):
        p = Tensor(np.ones((2, 2), dtype=np.float64), requires_grad=True)
        opt = AdamW({"p": p}, total_steps=100)
        assert opt.lr_at(5) == pytest.approx(0.5 * LEARNING_RATE)

    def test_zero_rate_at_step_zero(self):
        p = Tensor(np.ones(2, dtype=np.float64), requires_grad=True)
        opt = AdamW({"p": p}, total_steps=100)
        assert opt.lr_at(0) == 0.0

    def test_full_rate_after_warmup(self):
        p = Tensor(np.ones(2, dtype=np.float64), requires_grad=True)
        opt = AdamW({"p": p}, total_steps=100)
        assert opt.lr_at(10) == pytest.approx(LEARNING_RATE)
        assert opt.lr_at(99) == pytest.approx(LEARNING_RATE)


class TestUpdateRule:
    def test_matches_reference_loop_over_ten_steps(self):
        rng = stream(3, "adamw")
        shapes = {"w": (3, 4), "b": (4,), "ln": (4,)}
        w0 = {k: rng.standard_normal(s) for k, s in shapes.items()}
        grads = [
            {k: rng.standard_normal(s) for k, s in shapes.items()} for _ in range(10)
        ]

        params = {k: Tensor(v.copy(), requires_grad=True) for k, v in w0.items()}
        opt = AdamW(params, total_steps=10)
        for gstep in grads:
            for k, p in params.items():
                p.grad = gstep[k].copy()
            opt.step()
            for p in params.values():
                p.grad = None

        expected = reference_adamw(
            w0, grads, lr=2e-3, betas=(0.9, 0.999), eps=1e-8, wd=0.01,
            total_steps=10, warmup_fraction=0.1,
        )
        for k in shapes:
            np.testing.assert_allclose(params[k].data, expected[k], rtol=1e-12, atol=1e-14)

    def test_decay_skips_vectors(self):
        # With zero gradient the Adam term vanishes, leaving only decay. Step 0
        # trains at rate 0; step 1 of 2 is past the warmup, at the full rate.
        mat = Tensor(np.full((2, 2), 2.0), requires_grad=True)
        vec = Tensor(np.full(2, 2.0), requires_grad=True)
        opt = AdamW({"mat": mat, "vec": vec}, total_steps=2)
        for _ in range(2):
            mat.grad = np.zeros((2, 2))
            vec.grad = np.zeros(2)
            opt.step()
        np.testing.assert_allclose(
            mat.data, np.full((2, 2), 2.0 - LEARNING_RATE * WEIGHT_DECAY * 2.0)
        )
        np.testing.assert_allclose(vec.data, np.full(2, 2.0))

    def test_first_step_bias_correction(self):
        # After two steps with constant gradient g, mhat = g and vhat = g^2,
        # so the update is lr * g / (|g| + eps) regardless of magnitude; step
        # 0 trains at rate 0, so only step 1 of 2 moves the vector.
        p = Tensor(np.array([10.0, -10.0]), requires_grad=True)
        opt = AdamW({"p": p}, total_steps=2)
        for _ in range(2):
            p.grad = np.array([4.0, -0.25])
            opt.step()
        np.testing.assert_allclose(
            p.data, [10.0 - LEARNING_RATE, -10.0 + LEARNING_RATE], rtol=1e-6
        )


class TestContract:
    def test_step_budget_enforced(self):
        p = Tensor(np.ones(2, dtype=np.float64), requires_grad=True)
        opt = AdamW({"p": p}, total_steps=1)
        p.grad = np.zeros(2)
        opt.step()
        with pytest.raises(ContractError, match="sized for"):
            opt.step()

    def test_missing_gradient_rejected(self):
        p = Tensor(np.ones(2, dtype=np.float64), requires_grad=True)
        opt = AdamW({"p": p}, total_steps=5)
        with pytest.raises(ContractError, match="no gradient"):
            opt.step()

    def test_frozen_param_rejected(self):
        p = Tensor(np.ones(2, dtype=np.float64))
        with pytest.raises(ContractError, match="frozen"):
            AdamW({"p": p}, total_steps=5)
