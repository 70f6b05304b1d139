"""Finite-difference verification of analytic gradients.

Central differences at float64: each sampled coordinate is nudged by +-h and
the analytic derivative is compared against (f(x+h) - f(x-h)) / (2h) with a
relative error

    |analytic - central| / max(|analytic|, |central|, 1e-12).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .autodiff import Tensor, backward, zero_grads
from .errors import ContractError
from .rng import stream


@dataclass
class GradCheckReport:
    """Worst relative error per parameter plus the overall maximum."""

    per_param: dict[str, float]
    coords_checked: dict[str, int]

    @property
    def max_rel_error(self) -> float:
        return max(self.per_param.values()) if self.per_param else 0.0


def finite_diff_check(
    loss_fn: Callable[[], Tensor],
    params: Mapping[str, Tensor],
    h: float = 2e-5,
    min_coords: int = 20,
    seed: int = 0,
) -> GradCheckReport:
    """Compare analytic gradients of `loss_fn` against central differences.

    `loss_fn` must close over `params` and rebuild its graph on every call;
    it is evaluated twice up front to confirm determinism. Each parameter is
    probed at min(min_coords, size) coordinates drawn without replacement.
    Parameters must be float64: in float32 the quotient loses too many bits
    to certify anything at tight tolerance. The default `h` keeps truncation
    error inside a 1e-6 bound on the losses, which h=1e-4 does not.
    """
    if not params:
        raise ContractError("finite_diff_check needs at least one parameter")
    for name, p in params.items():
        if not isinstance(p, Tensor):
            raise ContractError(f"parameter {name!r} is not a Tensor")
        if not p.requires_grad:
            raise ContractError(f"parameter {name!r} is frozen; gradient undefined")
        if p.data.dtype != np.float64:
            raise ContractError(
                f"parameter {name!r} is {p.data.dtype}; finite differences need float64"
            )

    first = loss_fn()
    if first.size != 1:
        raise ContractError("loss_fn must return a scalar")
    second = loss_fn()
    if first.item() != second.item():
        raise ContractError("loss_fn is not deterministic; finite differences are meaningless")

    zero_grads(params.values())
    loss = loss_fn()
    backward(loss, params=params.values())

    analytic = {name: p.grad.copy() for name, p in params.items()}
    rng = stream(seed, "gradcheck")

    per_param: dict[str, float] = {}
    coords_checked: dict[str, int] = {}
    for name, p in params.items():
        flat = p.data.reshape(-1)
        n = min(min_coords, flat.size)
        idx = rng.choice(flat.size, size=n, replace=False)
        worst = 0.0
        for i in idx:
            original = flat[i]
            flat[i] = original + h
            f_plus = loss_fn().item()
            flat[i] = original - h
            f_minus = loss_fn().item()
            flat[i] = original
            central = (f_plus - f_minus) / (2.0 * h)
            a = float(analytic[name].reshape(-1)[i])
            rel = abs(a - central) / max(abs(a), abs(central), 1e-12)
            worst = max(worst, rel)
        per_param[name] = worst
        coords_checked[name] = int(n)

    return GradCheckReport(per_param=per_param, coords_checked=coords_checked)
