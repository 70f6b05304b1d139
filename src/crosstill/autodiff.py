"""Dense tensors with reverse-mode automatic differentiation.

Define-by-run: every operation records its parents and a VJP closure on the
output node, and `backward` replays the graph in reverse topological order.
The graph lives only as long as the output tensors; each training batch
builds a fresh one.

Element width is float32 for training and float64 for verification runs.
Operands of one expression must share a width; there is no implicit
promotion.

Besides the elementwise, shape, reduction and nonlinearity primitives, two
fused nodes carry a transformer block: `attention` (multi-head
self-attention, projections included) and `add_layer_norm` (a residual sum
followed by layer norm). Each replaces the chain of small nodes it computes
with one node and one VJP.

VJP contract: a node's VJP takes the gradient of its output and returns one
gradient per parent (or None), each in that parent's shape and width.
`backward` keeps the first gradient a tensor receives as its `.grad` and
adds later ones out of place, so a returned array is never mutated after
the VJP returns it; a gradient of the wrong shape or width is a
`ContractError` naming the primitive.

Heap policy (process-wide): importing this module on glibc raises malloc's
mmap threshold to 32 MiB and its trim threshold to 256 MiB. Every batch
builds its arrays and frees them all when it ends; under glibc's default
policy the freed top of the heap goes back to the kernel and larger arrays
get mappings of their own, so the next batch faults every page back in.
One forward-only pass of the benchmark's `encode_bulk` workload took 429k
minor page faults, 1.0-1.4 s of system time in 3.0-4.0 s of wall time;
with the thresholds raised its steady-state faults and system time are
about zero. The setting applies to the whole process that imports
`crosstill`; elsewhere than glibc nothing is changed.
"""

from __future__ import annotations

import ctypes
import os
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import erf

from .errors import ContractError, NumericError

Array = np.ndarray

_ALLOWED_DTYPES = (np.float32, np.float64)

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

# glibc's mallopt parameter numbers (<malloc.h>).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# Allocations below this come from the heap, not from a mapping of their
# own that free() unmaps. 32 MiB is the largest value 64-bit glibc accepts
# and far above any array a batch builds (a 64-sentence toy batch's largest,
# the 1024×192 float32 q/k/v projection, is 768 KiB), so no batch array is
# mapped and unmapped per use.
_MMAP_THRESHOLD_BYTES = 32 << 20
# The heap returns memory to the kernel only once this much is free at its
# top: above a whole toy run's peak RSS (about 130 MB), so the pages one
# batch frees are still mapped when the next batch allocates them, while a
# process that frees far more than it will reuse still gives memory back.
_TRIM_THRESHOLD_BYTES = 256 << 20


def _keep_freed_memory() -> bool:
    """Set the two glibc malloc thresholds above; True when both took.

    Off glibc, or where `mallopt` is missing, it changes nothing and
    returns False.
    """
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return False
    if not libc:
        return False
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # mallopt returns 1 on success and 0 when it rejects the value
    mmap_set = mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES) == 1
    trim_set = mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES) == 1
    return mmap_set and trim_set


_HEAP_POLICY_SET = _keep_freed_memory()


class Tensor:
    """N-dimensional float array that can participate in a backward pass."""

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            arr = arr.astype(np.float32)
        self.data: Array = arr
        self.grad: Array | None = None
        self.requires_grad = bool(requires_grad)
        self.op = "leaf"
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[Array], tuple[Array | None, ...]] | None = None

    # -- introspection -----------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag}, op={self.op!r})"

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def as_tensor(x, like: Tensor | None = None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None else None
    return Tensor(np.asarray(x, dtype=dtype))


def _check_same_dtype(*tensors: Tensor, where: str = "one expression") -> None:
    dtypes = {t.data.dtype for t in tensors}
    if len(dtypes) > 1:
        raise ContractError(f"mixed element widths in {where}: {sorted(map(str, dtypes))}")


def _node(data: Array, parents: Sequence[Tensor], vjp, op: str) -> Tensor:
    out = Tensor(data)
    out.op = op
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
    return out


def _broadcasts_to(shape: tuple[int, ...], target: tuple[int, ...]) -> bool:
    try:
        return np.broadcast_shapes(shape, target) == target
    except ValueError:
        return False


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum `grad` down to `shape`, undoing NumPy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# -- elementwise arithmetic ------------------------------------------------


def add(a, b) -> Tensor:
    a = as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = as_tensor(b, like=a)
    _check_same_dtype(a, b)

    def vjp(g: Array):
        ga = _unbroadcast(g, a.shape) if a.requires_grad else None
        gb = _unbroadcast(g, b.shape) if b.requires_grad else None
        # two parents never share one gradient array
        return ga, (gb.copy() if gb is not None and gb is ga else gb)

    return _node(a.data + b.data, (a, b), vjp, "add")


def sub(a, b) -> Tensor:
    a = as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = as_tensor(b, like=a)
    _check_same_dtype(a, b)

    def vjp(g: Array):
        ga = _unbroadcast(g, a.shape) if a.requires_grad else None
        gb = _unbroadcast(-g, b.shape) if b.requires_grad else None
        return ga, gb

    return _node(a.data - b.data, (a, b), vjp, "sub")


def mul(a, b) -> Tensor:
    a = as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = as_tensor(b, like=a)
    _check_same_dtype(a, b)

    def vjp(g: Array):
        ga = _unbroadcast(g * b.data, a.shape) if a.requires_grad else None
        gb = _unbroadcast(g * a.data, b.shape) if b.requires_grad else None
        return ga, gb

    return _node(a.data * b.data, (a, b), vjp, "mul")


def div(a, b) -> Tensor:
    a = as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = as_tensor(b, like=a)
    _check_same_dtype(a, b)

    def vjp(g: Array):
        ga = _unbroadcast(g / b.data, a.shape) if a.requires_grad else None
        gb = (
            _unbroadcast(-g * a.data / (b.data * b.data), b.shape) if b.requires_grad else None
        )
        return ga, gb

    return _node(a.data / b.data, (a, b), vjp, "div")


def neg(a: Tensor) -> Tensor:
    def vjp(g: Array):
        return (-g,)

    return _node(-a.data, (a,), vjp, "neg")


# -- shape manipulation ----------------------------------------------------


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    old = a.shape

    def vjp(g: Array):
        return (g.reshape(old),)

    return _node(a.data.reshape(shape), (a,), vjp, "reshape")


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    inverse = tuple(np.argsort(axes))

    def vjp(g: Array):
        return (g.transpose(inverse),)

    return _node(a.data.transpose(axes), (a,), vjp, "transpose")


def _swap_last2(x: Array) -> Array:
    return np.swapaxes(x, -1, -2)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product; leading dims broadcast per NumPy rules."""
    if a.ndim < 2 or b.ndim < 2:
        raise ContractError("matmul requires operands of rank >= 2")
    _check_same_dtype(a, b)
    if b.ndim == 2:
        return _dense(a, b, None, "matmul")

    def vjp(g: Array):
        ga = _unbroadcast(np.matmul(g, _swap_last2(b.data)), a.shape)
        gb = _unbroadcast(np.matmul(_swap_last2(a.data), g), b.shape)
        return ga, gb

    return _node(np.matmul(a.data, b.data), (a, b), vjp, "matmul")


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """`x @ w + b` for a 2-D weight and a bias over its columns, as one node."""
    if x.ndim < 2 or w.ndim != 2 or b.shape != w.shape[1:]:
        raise ContractError(
            f"linear expects x of rank >= 2, a 2-D weight and a bias over its columns, "
            f"got {x.shape}, {w.shape}, {b.shape}"
        )
    _check_same_dtype(x, w, b)
    return _dense(x, w, b, "linear")


def _dense(x: Tensor, w: Tensor, b: Tensor | None, op: str) -> Tensor:
    """`x @ w (+ b)` with a 2-D `w`: one GEMM over the rows of x's leading dims."""
    x2 = x.data.reshape(-1, x.shape[-1])
    out = x2 @ w.data
    if b is not None:
        out += b.data

    def vjp(g: Array):
        g2 = g.reshape(-1, g.shape[-1])
        gx = (g2 @ w.data.T).reshape(x.shape)
        gw = x2.T @ g2
        if b is None:
            return gx, gw
        return gx, gw, g2.sum(axis=0)

    parents = (x, w) if b is None else (x, w, b)
    return _node(out.reshape(x.shape[:-1] + w.shape[1:]), parents, vjp, op)


def gather_rows(table: Tensor, ids: Array) -> Tensor:
    """Row lookup: out[..., :] = table[ids[...], :]. `ids` is a plain int array."""
    ids = np.asarray(ids)
    if table.ndim != 2:
        raise ContractError("gather_rows expects a 2-D table")

    def vjp(g: Array):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.shape[1]))
        return (gt,)

    return _node(table.data[ids], (table,), vjp, "gather_rows")


# -- reductions ------------------------------------------------------------


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    def vjp(g: Array):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.shape).copy(),)

    return _node(a.data.sum(axis=axis, keepdims=keepdims), (a,), vjp, "sum")


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = a.size
    else:
        count = a.shape[axis]

    def vjp(g: Array):
        if axis is None:
            return (np.broadcast_to(g / count, a.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg / count, a.shape).copy(),)

    return _node(a.data.mean(axis=axis, keepdims=keepdims), (a,), vjp, "mean")


# -- nonlinearities --------------------------------------------------------


def texp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)

    def vjp(g: Array):
        return (g * out_data,)

    return _node(out_data, (a,), vjp, "exp")


def tlog(a: Tensor) -> Tensor:
    def vjp(g: Array):
        return (g / a.data,)

    return _node(np.log(a.data), (a,), vjp, "log")


def tsqrt(a: Tensor) -> Tensor:
    out_data = np.sqrt(a.data)

    def vjp(g: Array):
        return (g * (0.5 / out_data),)

    return _node(out_data, (a,), vjp, "sqrt")


# erf(x) ~ x P(x^2) / Q(x^2) on [-4, 4], the form of Eigen's float32 erf
# (generic_fast_erf_float) and XLA's ErfImpl32: beyond ±4, erf is ±1 in
# float32. P has degree 6 and Q degree 4, coefficients lowest first. They
# were fitted for this module against mpmath's erf on 6000 Chebyshev nodes
# of [0, 4], by linearised least squares (Sanathanan-Koerner) reweighted
# toward the minimax error (Lawson): 5.4e-8 largest absolute error in
# float64 arithmetic, 4.4e-7 evaluated in float32 as below.
_ERF32_P = tuple(np.float32(c) for c in (
    1.1283786e+00, 2.1394487e-01, 5.2433494e-02, 4.293051e-03,
    1.5553608e-04, -1.9903055e-06, 1.9216989e-08,
))
_ERF32_Q = tuple(np.float32(c) for c in (
    1.0, 5.2293134e-01, 1.207997e-01, 1.5551101e-02, 1.0980351e-03,
))


def _horner(u: Array, coefficients: tuple) -> Array:
    """The polynomial with `coefficients` (lowest first) at `u`, by Horner's rule in place."""
    out = u * coefficients[-1]
    for c in coefficients[-2:0:-1]:
        out += c
        out *= u
    out += coefficients[0]
    return out


def _erf_float32(x: Array) -> Array:
    """erf of a float32 array, to within 1e-6 of the exact value.

    NaN stays NaN, ±inf gives ±1 and the sign of zero is kept.
    """
    z = np.clip(x, np.float32(-4.0), np.float32(4.0))
    u = z * z
    out = _horner(u, _ERF32_P)
    out *= z
    out /= _horner(u, _ERF32_Q)
    return out


def gelu(a: Tensor) -> Tensor:
    """Exact (erf-based) GELU.

    Float32 inputs use `_erf_float32`; float64, the verification width,
    uses scipy's erf.
    """
    x = a.data
    width = x.dtype.type
    z = x * width(_INV_SQRT2)
    phi = _erf_float32(z) if x.dtype == np.float32 else erf(z)
    phi += 1.0
    phi *= 0.5
    out_data = x * phi

    def vjp(g: Array):
        pdf = width(_INV_SQRT_2PI) * np.exp(-0.5 * x * x)
        return (g * (phi + x * pdf),)

    return _node(out_data, (a,), vjp, "gelu")


def clip_min(a: Tensor, floor: float) -> Tensor:
    """max(a, floor) elementwise; gradient is zero where the floor engages."""
    mask = a.data > floor

    def vjp(g: Array):
        return (g * mask,)

    return _node(np.maximum(a.data, floor), (a,), vjp, "clip_min")


def softmax_last(a: Tensor) -> Tensor:
    """Softmax over the last axis, computed with max-subtraction."""
    z = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def vjp(g: Array):
        inner = (g * out_data).sum(axis=-1, keepdims=True)
        return (out_data * (g - inner),)

    return _node(out_data, (a,), vjp, "softmax")


def _normalize(s: Array, scale: Array, shift: Array, eps: float):
    """Layer norm of `s` over the last axis: the output and its VJP.

    The VJP maps the output's gradient to the gradients of `s`, `scale` and
    `shift`.
    """
    mu = s.mean(axis=-1, keepdims=True)
    centered = s - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered
    xhat *= inv_std
    out = xhat * scale
    out += shift

    def vjp(g: Array):
        reduce_axes = tuple(range(g.ndim - 1))
        gscale = (g * xhat).sum(axis=reduce_axes)
        gshift = g.sum(axis=reduce_axes)
        gxhat = g * scale
        # d/ds of (s - mu) / sqrt(var + eps) with mu, var over the last axis
        inner = xhat * (gxhat * xhat).mean(axis=-1, keepdims=True)
        gs = gxhat
        gs -= gxhat.mean(axis=-1, keepdims=True)
        gs -= inner
        gs *= inv_std
        return gs, gscale, gshift

    return out, vjp


def layer_norm(x: Tensor, scale: Tensor, shift: Tensor, eps: float) -> Tensor:
    """Layer normalization over the last axis with learned scale and shift."""
    _check_same_dtype(x, scale, shift)
    out, vjp = _normalize(x.data, scale.data, shift.data, eps)
    return _node(out, (x, scale, shift), vjp, "layer_norm")


def add_layer_norm(x: Tensor, y: Tensor, scale: Tensor, shift: Tensor, eps: float) -> Tensor:
    """`layer_norm(x + y, scale, shift, eps)` as one node; `y` may broadcast to x's shape."""
    _check_same_dtype(x, y, scale, shift, where="add_layer_norm")
    width = x.shape[-1:]
    if x.ndim < 1 or not (_broadcasts_to(y.shape, x.shape) and scale.shape == shift.shape == width):
        raise ContractError(
            f"add_layer_norm expects y broadcasting to x and scale, shift over x's last "
            f"axis, got {x.shape}, {y.shape}, {scale.shape}, {shift.shape}"
        )
    out, norm_vjp = _normalize(x.data + y.data, scale.data, shift.data, eps)

    def vjp(g: Array):
        gs, gscale, gshift = norm_vjp(g)
        gy = _unbroadcast(gs, y.shape) if y.requires_grad else None
        if gy is gs and x.requires_grad:
            gy = gs.copy()  # two parents never share one gradient array
        return (gs if x.requires_grad else None), gy, gscale, gshift

    return _node(out, (x, y, scale, shift), vjp, "add_layer_norm")


def attention(
    x: Tensor,
    wq: Tensor, bq: Tensor,
    wk: Tensor, bk: Tensor,
    wv: Tensor, bv: Tensor,
    wo: Tensor, bo: Tensor,
    key_bias: Array,
    heads: int,
) -> Tensor:
    """Multi-head scaled dot-product self-attention over x's rows, as one node.

    `x` is N×L×H. The q, k and v projections run as one GEMM against the
    weights concatenated column-wise; per head, the scores are scaled by
    1/sqrt(H/heads), `key_bias` is added and a max-shifted softmax over the
    keys weights the values; the heads' context goes through the output
    projection. `key_bias` is a plain array broadcasting to N×heads×L×L in
    x's width (e.g. N×1×1×L, large and negative at masked keys); it gets no
    gradient.
    """
    weights, biases = (wq, wk, wv, wo), (bq, bk, bv, bo)
    _check_same_dtype(x, *weights, *biases, where="attention")
    key_bias = np.asarray(key_bias)
    if x.ndim != 3:
        raise ContractError(f"attention expects x of shape N×L×H, got {x.shape}")
    n, length, h = x.shape
    if (
        any(w.shape != (h, h) for w in weights)
        or any(b.shape != (h,) for b in biases)
        or heads < 1
        or h % heads
    ):
        raise ContractError(
            f"attention expects {h}×{h} weights, length-{h} biases and heads dividing {h}, "
            f"got {[w.shape for w in weights]}, {[b.shape for b in biases]}, heads={heads}"
        )
    scores_shape = (n, heads, length, length)
    if not _broadcasts_to(key_bias.shape, scores_shape) or key_bias.dtype != x.dtype:
        raise ContractError(
            f"attention expects a {x.dtype} key_bias broadcasting to {scores_shape}, "
            f"got {key_bias.dtype} {key_bias.shape}"
        )
    dh = h // heads
    scale = x.dtype.type(1.0 / np.sqrt(dh))
    x2 = x.data.reshape(-1, h)
    w_qkv = np.concatenate((wq.data, wk.data, wv.data), axis=1)
    qkv = x2 @ w_qkv
    qkv += np.concatenate((bq.data, bk.data, bv.data))
    # (3, N, heads, L, dh) views of the N×L×3H projections
    q, k, v = qkv.reshape(n, length, 3, heads, dh).transpose(2, 0, 3, 1, 4)
    probs = q @ k.swapaxes(-1, -2)
    probs *= scale
    probs += key_bias
    # Row max over the keys, one key column at a time: max is exact in any
    # order, so the softmax is bitwise the one `probs.max(axis=-1)` gives,
    # and on a short last axis this is several times faster than numpy's
    # reduction.
    row_max = probs[..., :1].copy()
    for j in range(1, length):
        np.maximum(row_max, probs[..., j:j + 1], out=row_max)
    probs -= row_max
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    ctx = (probs @ v).transpose(0, 2, 1, 3).reshape(-1, h)
    out = ctx @ wo.data
    out += bo.data

    def vjp(g: Array):
        g2 = g.reshape(-1, h)
        gwo, gbo = ctx.T @ g2, g2.sum(axis=0)
        gctx = (g2 @ wo.data.T).reshape(n, length, heads, dh).transpose(0, 2, 1, 3)
        gqkv = np.empty((n, length, 3, heads, dh), dtype=g.dtype)
        gq, gk, gv = gqkv.transpose(2, 0, 3, 1, 4)
        np.matmul(probs.swapaxes(-1, -2), gctx, out=gv)
        # softmax VJP, then the score scale
        gscores = gctx @ v.swapaxes(-1, -2)
        gscores -= (gscores * probs).sum(axis=-1, keepdims=True)
        gscores *= probs
        gscores *= scale
        np.matmul(gscores, k, out=gq)
        np.matmul(gscores.swapaxes(-1, -2), q, out=gk)
        gqkv2 = gqkv.reshape(-1, 3 * h)
        gx = (gqkv2 @ w_qkv.T).reshape(x.shape)
        gw_qkv = x2.T @ gqkv2
        gb_qkv = gqkv2.sum(axis=0)
        gwq, gwk, gwv = np.split(gw_qkv, 3, axis=1)
        gbq, gbk, gbv = np.split(gb_qkv, 3)
        return gx, gwq, gbq, gwk, gbk, gwv, gbv, gwo, gbo

    parents = (x, wq, bq, wk, bk, wv, bv, wo, bo)
    return _node(out.reshape(x.shape), parents, vjp, "attention")


# -- backward pass ---------------------------------------------------------


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(loss: Tensor, params: Iterable[Tensor] = ()) -> None:
    """Populate .grad on every reachable tensor with requires_grad.

    `loss` must be a scalar. Parameters listed in `params` that the graph
    never reaches get an explicit zero gradient. Adds to gradients left by
    earlier calls; call `zero_grads` between steps.
    """
    if loss.size != 1:
        raise ContractError(f"backward expects a scalar loss, got shape {loss.shape}")
    if not np.isfinite(loss.data).all():
        raise NumericError("non-finite loss value")
    if not loss.requires_grad:
        for p in params:
            if p.requires_grad and p.grad is None:
                p.grad = np.zeros_like(p.data)
        return

    order = _toposort(loss)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._vjp is None:
            continue
        g = node.grad
        if g is None:
            continue
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient flowing into primitive {node.op!r}")
        for parent, pg in zip(node._parents, node._vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            if pg.dtype != parent.data.dtype or pg.shape != parent.data.shape:
                raise ContractError(
                    f"primitive {node.op!r} returned a {pg.dtype} gradient of shape "
                    f"{pg.shape} for a {parent.data.dtype} operand of shape {parent.shape}"
                )
            parent.grad = pg if parent.grad is None else parent.grad + pg

    for p in params:
        if p.requires_grad and p.grad is None:
            p.grad = np.zeros_like(p.data)


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None
