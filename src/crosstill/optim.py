"""AdamW with decoupled weight decay and linear learning-rate warmup."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .errors import ContractError


# the one optimizer setting every stage trains with
LEARNING_RATE = 2e-3
BETAS = (0.9, 0.999)
EPS = 1e-8
WEIGHT_DECAY = 0.01
WARMUP_FRACTION = 0.1


@dataclass
class AdamW:
    """Adam with weight decay applied directly to the weights.

    The effective learning rate ramps linearly from zero over the first
    `WARMUP_FRACTION` of `total_steps` and then stays at `LEARNING_RATE`.
    Steps count from zero, and step s trains at rate factor
    min(1, s / (WARMUP_FRACTION * total_steps)): step 5 of 100 is at half rate.

    Weight decay touches only matrices (ndim >= 2); bias vectors, layer-norm
    parameters, and other 1-D tensors are exempt.
    """

    params: dict[str, Tensor]
    total_steps: int
    step_count: int = field(default=0, init=False)
    _m: dict[str, np.ndarray] = field(default_factory=dict, init=False, repr=False)
    _v: dict[str, np.ndarray] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.total_steps < 1:
            raise ContractError("total_steps must be at least 1")
        for name, p in self.params.items():
            if not p.requires_grad:
                raise ContractError(f"optimizer given frozen parameter {name!r}")
            self._m[name] = np.zeros_like(p.data)
            self._v[name] = np.zeros_like(p.data)

    def lr_at(self, step: int) -> float:
        """Effective learning rate at a zero-based step index."""
        return LEARNING_RATE * min(1.0, step / (WARMUP_FRACTION * self.total_steps))

    def step(self) -> float:
        """Apply one update from the accumulated gradients; returns the lr used."""
        if self.step_count >= self.total_steps:
            raise ContractError(
                f"optimizer stepped {self.step_count + 1} times but was sized for {self.total_steps}"
            )
        lr_t = self.lr_at(self.step_count)
        t = self.step_count + 1
        b1, b2 = BETAS
        bias1 = 1.0 - b1**t
        bias2 = 1.0 - b2**t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                raise ContractError(f"parameter {name!r} has no gradient; run backward first")
            m = self._m[name]
            v = self._v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            mhat = m / bias1
            vhat = v / bias2
            update = lr_t * mhat / (np.sqrt(vhat) + EPS)
            if p.data.ndim >= 2:
                update = update + lr_t * WEIGHT_DECAY * p.data
            p.data -= update.astype(p.data.dtype)
        self.step_count += 1
        return lr_t
