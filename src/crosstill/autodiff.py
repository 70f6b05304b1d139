"""Dense tensors with reverse-mode automatic differentiation.

Define-by-run: an operation with an operand that requires a gradient
records its parents and a VJP closure on the output node, and `backward`
replays the graph once, in reverse topological order. Each training batch
builds a fresh graph.

Memory rule: only live arrays are kept. An operation whose operands need no
gradient records nothing, so a forward-only pass (evaluation) keeps no graph
and each array is freed once the next operation has read it. A node that
records keeps only the forward arrays its VJP reads. `backward` frees the
graph as it walks: once a node's VJP has returned, the node drops
its gradient, its VJP closure with the forward arrays it saved, and its
links to its operands. Only leaves, the tensors without a VJP (parameters
and inputs), keep their `.grad`. The graph is then spent: a second
`backward` over any node of it is a `ContractError`.

Element width is float32 for training and float64 for verification runs.
Operands of one expression must share a width; there is no implicit
promotion.

Besides the elementwise, shape, reduction and nonlinearity primitives, one
node carries a whole post-norm transformer block: `encoder_layer`
(multi-head self-attention, a residual sum and layer norm, the GELU
feed-forward network, a second residual sum and layer norm), the only way
to build one. It runs the kernels `_attend`, `_normalize`, `_affine` and
`_gelu` in turn, and its output and gradients are bitwise those of a chain
of one node per sublayer over the same kernels. For backward it keeps q, k
and v, the attention probabilities, both norms' normalised activations, the
first norm's output, the GELU output and GELU's derivative, and it
recomputes the attention context from the first two (selective
recomputation, Korthikanti et al. 2022). On one toy-student block over a
64×10 float32 batch that is 1.83 MiB, where that chain keeps 2.66 MiB.
A forward-only block keeps nothing but its output. Its peak falls inside
the GELU, which holds its FFN-wide input and at most three more arrays of
that shape: the float32 `_gelu` writes each step into an array it made
(in-place activation, Rota Bulò et al. 2018). On one toy-student block
over a 128×10 float32 batch, an evaluation chunk's row half, the forward
peaks at 2.81 MiB of allocations, where five live GELU temporaries took
4.06 MiB.

VJP contract: a node's VJP takes the gradient of its output and returns one
gradient per parent (or None), each in that parent's shape and width.
`backward` starts a tensor's gradient from the first array it receives and
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

Thread policy (process-wide): training uses a second core for the second
language side, and a large forward-only encode for its second row half
(`SentenceEncoder.encode`). The first call to `concurrently` or
`second_thread_free` decides, once per process, whether one helper thread
starts. It starts only when the process may run on at least 2 CPUs
(`os.sched_getaffinity`) and a loaded OpenBLAS exports a
`set_num_threads` symbol; every such OpenBLAS is then set to one thread
through it, for the rest of the process and over any
`OPENBLAS_NUM_THREADS`, since two threads each asking BLAS for two more
oversubscribe a 2-core machine and lose. The rule was measured only on a
2-CPU machine. `concurrently(first, second)` is the only code that hands
work to the helper: it runs `first` there and `second` on the caller, and
the pipeline passes a batch's source side as `first` and its target side
as `second`. A result that records a graph comes back cut: as a leaf that
shares its data and stands for the graph its call built. The two calls
must build separate graphs, sharing only leaves.

`backward` walks the loss graph on the calling thread, one node at a time in
reverse topological order, each node summing its incoming gradients by
consumer, then by operand index. For each pair of cut leaves it reaches,
it walks the two graphs they stand for through `concurrently`, each from
its cut leaf's gradient, and their own cuts the same way. A side walk
writes no `.grad`: it returns its leaves' gradients in order, and
`backward` adds them once every walk is done, one array at a time: the
loss walk's first, then the first side's, then the second side's. In the
pipeline's graphs each parameter gets all of its source-side gradients
before its target-side ones in the one-thread walk over the uncut graph
too, so every `.grad`, and every checkpoint, is bitwise the same whether
the helper runs or not, and digests do not depend on the CPU count or the
BLAS thread count. With the helper, both calls of `concurrently` run to
their end; when both fail, the error raised is the first call's, the one a
sequential `first(); second()` meets, and an interrupt wins over an error.
A failed `backward` leaves every `.grad` as it was. A thread already
running either call of a `concurrently` that uses the helper (the helper
running `first`, or the caller running `second`) runs a nested
`concurrently`, directly or through `backward`, inline: both calls
there, first then second. On the helper, waiting for its one busy worker
would hang; on the caller, it would wait behind `first`. Without the
helper (one CPU, no OpenBLAS setter, no `sched_getaffinity`) both calls
run on the caller, first then second. A forked child drops the parent's
helper and decides afresh. Evaluation reaches `concurrently` only
through `SentenceEncoder.encode`, which runs a forward-only batch of at
least `encoder.SPLIT_MIN_TOKENS` tokens as two row halves when
`second_thread_free()`; so an evaluation-only process starts the helper,
and pins OpenBLAS to one thread, on its first such batch. Smaller
batches, and encodes inside a `concurrently` call, stay on the calling
thread.
"""

from __future__ import annotations

import contextvars
import ctypes
import math
import os
import threading
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, NumericError

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

Array = np.ndarray

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

# Exported thread-count setters of the OpenBLAS builds numpy and scipy ship
# (64-bit and 32-bit integer interfaces) and of a plain OpenBLAS.
_OPENBLAS_SETTERS = (
    "scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_", "openblas_set_num_threads",
)


def _loaded_openblas(maps: str = "/proc/self/maps") -> list[str]:
    """Paths of the mapped files whose name mentions OpenBLAS.

    A maps line is address, perms, offset, device, inode, then the path,
    which may hold spaces; a file replaced since it was mapped ends in
    " (deleted)" and is left out.
    """
    try:
        with open(maps) as fh:
            paths = {fields[5] for fields in (line.rstrip("\n").split(maxsplit=5) for line in fh)
                     if len(fields) == 6}
    except OSError:
        return []
    return sorted(path for path in paths
                  if "openblas" in path.lower() and not path.endswith(" (deleted)"))


def _pin_openblas_to_one_thread(maps: str = "/proc/self/maps") -> bool:
    """Set every loaded OpenBLAS that exports a thread-count setter to one
    thread; True when there was at least one. A library that cannot be
    opened counts as one without a setter.
    """
    pinned = False
    for lib in _loaded_openblas(maps):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        setter = next(
            (getattr(handle, s) for s in _OPENBLAS_SETTERS if hasattr(handle, s)), None
        )
        if setter is not None:
            setter.argtypes = (ctypes.c_int,)
            setter.restype = None
            setter(1)
            pinned = True
    return pinned


# The helper thread: None until the first `_helper()` call decides, then an
# executor with one worker, or False where the walk stays sequential.
_HELPER: ThreadPoolExecutor | bool | None = None
# `in_call` is True on a thread while it runs either call of a `concurrently`
# that handed its first call to the helper.
_THREAD = threading.local()


def _helper() -> ThreadPoolExecutor | None:
    """The executor to hand work to, or None to run it on the caller alone:
    also inside either call of a `concurrently` that uses the helper, since
    its one worker is busy with the first call and a nested call would wait
    behind it, or on the helper itself forever."""
    global _HELPER
    if getattr(_THREAD, "in_call", False):
        return None
    if _HELPER is None:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
        if cpus >= 2 and _pin_openblas_to_one_thread():
            # imported here, so a process that never asks for a second
            # thread does not load it
            from concurrent.futures import ThreadPoolExecutor

            _HELPER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="crosstill-side")
        else:
            _HELPER = False
    return _HELPER or None


def _drop_helper() -> None:
    """In a forked child the parent's worker thread is gone, but its executor
    still counts it as idle and would queue work for it forever."""
    global _HELPER
    _HELPER = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_helper)


def second_thread_free() -> bool:
    """Whether a `concurrently` called here would run its first call on the
    helper thread. The first ask decides whether the helper starts."""
    return _helper() is not None


def _in_call(fn: Callable):
    """`fn()`, with nested `concurrently` calls run inline on this thread."""
    _THREAD.in_call = True
    try:
        return fn()
    finally:
        _THREAD.in_call = False


def _submit(helper: ThreadPoolExecutor, fn: Callable):
    """Run `fn` on the helper in a copy of the caller's context."""
    return helper.submit(contextvars.copy_context().run, _in_call, fn)


def concurrently(first: Callable, second: Callable):
    """`(first(), second())`, with `first` on the helper thread when there is one.

    With the helper, both calls finish before this returns or raises. When
    either raises, the error raised is the one a sequential
    `first(); second()` meets first; an interrupt (a `BaseException` that is
    not an `Exception`) wins over an error. Without the helper, and inside
    either call of a `concurrently` that uses it (on the helper, or on the
    caller while it runs `second`), both calls run on this thread, first
    then second.

    A result that is a `Tensor` recording a graph comes back as a cut leaf:
    a leaf sharing its data that `backward` walks on through the graph it
    stands for, the two results' graphs side by side. Those graphs must
    share no node but leaves (`ContractError`), and later code reaches
    their nodes only through the cut leaves: `backward` over a graph that
    also uses a side's node directly meets it spent (`ContractError`).
    Other results come back as they are.
    """
    helper = _helper()
    if helper is None:
        return _cut(first(), second())
    future = _submit(helper, first)
    failures = []
    try:
        out_second = _in_call(second)
    except BaseException as exc:
        failures.append((1, exc))
    try:
        out_first = future.result()
    except BaseException as exc:
        failures.append((0, exc))
    if failures:
        # an interrupt first, then the first call's error
        raise min(failures, key=lambda f: (isinstance(f[1], Exception), f[0]))[1]
    return _cut(out_first, out_second)


class Tensor:
    """N-dimensional float array that can participate in a backward pass."""

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_vjp", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            arr = arr.astype(np.float32)
        elif not arr.flags.aligned:
            # A view at a byte offset that is not a multiple of the element
            # size: numpy's matmul sums a transpose of it in another order,
            # so the bits would depend on where the array sits. Copy it.
            arr = arr.copy()
        self.data: Array = arr
        self.grad: Array | None = None
        self.requires_grad = bool(requires_grad)
        self.op = "leaf"
        # None once `backward` has walked this node: the graph is spent
        self._parents: tuple[Tensor, ...] | None = ()
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag}, op={self.op!r})"

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


class _CutLeaf(Tensor):
    """A leaf of the caller's graph that stands for `root`, the graph call
    `side` (0 for the first, 1 for the second) of one `concurrently` call
    returned; both cut leaves of that call hold the same `pair` key."""

    __slots__ = ("root", "pair", "side")

    def __init__(self, root: Tensor, pair: object, side: int):
        super().__init__(root.data, requires_grad=True)
        self.op = "cut"
        self.root: Tensor | None = root
        self.pair = pair
        self.side = side


def _inner_nodes(root: Tensor) -> set[int]:
    """The nodes of `root`'s graph that a walk writes to: all but plain leaves."""
    return {id(n) for n in _toposort(root) if not _is_plain_leaf(n)}


def _cut(*outs):
    """`outs`, each `Tensor` that records a graph replaced by a cut leaf."""
    graphs = [isinstance(out, Tensor) and out._vjp is not None for out in outs]
    if all(graphs) and _inner_nodes(outs[0]) & _inner_nodes(outs[1]):
        raise ContractError(
            "the two calls of concurrently returned graphs that share a node; "
            "each call must build its own graph"
        )
    pair = object()
    return tuple(_CutLeaf(out, pair, side) if graph else out
                 for side, (out, graph) in enumerate(zip(outs, graphs)))


def as_tensor(x, like: Tensor | None = None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None else None
    return Tensor(np.asarray(x, dtype=dtype))


def _check_same_dtype(*tensors: Tensor, where: str = "one expression") -> None:
    dtypes = {t.data.dtype for t in tensors}
    if len(dtypes) > 1:
        raise ContractError(f"mixed element widths in {where}: {sorted(map(str, dtypes))}")


def _needs_grad(tensors: Iterable[Tensor]) -> bool:
    return any(t.requires_grad for t in tensors)


def _node(data: Array, parents: Sequence[Tensor], vjp, op: str) -> Tensor:
    out = Tensor(data)
    out.op = op
    if _needs_grad(parents):
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


def _arith(a, b, forward, grad_a, grad_b, op: str) -> Tensor:
    """The broadcasting node `forward(a, b)` of two tensors or a tensor and a scalar;
    `grad_a(g, a, b)` and `grad_b` give each operand's gradient before unbroadcasting."""
    a = as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = as_tensor(b, like=a)
    _check_same_dtype(a, b)

    def vjp(g: Array):
        ga = _unbroadcast(grad_a(g, a.data, b.data), a.shape) if a.requires_grad else None
        gb = _unbroadcast(grad_b(g, a.data, b.data), b.shape) if b.requires_grad else None
        # two parents never share one gradient array
        return ga, (gb.copy() if gb is not None and gb is ga else gb)

    return _node(forward(a.data, b.data), (a, b), vjp, op)


def add(a, b) -> Tensor:
    return _arith(a, b, np.add, lambda g, x, y: g, lambda g, x, y: g, "add")


def sub(a, b) -> Tensor:
    return _arith(a, b, np.subtract, lambda g, x, y: g, lambda g, x, y: -g, "sub")


def mul(a, b) -> Tensor:
    return _arith(a, b, np.multiply, lambda g, x, y: g * y, lambda g, x, y: g * x, "mul")


def div(a, b) -> Tensor:
    return _arith(a, b, np.divide, lambda g, x, y: g / y, lambda g, x, y: -g * x / (y * y), "div")


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


def transpose(a: Tensor) -> Tensor:
    """`a.T`: a's axes reversed, the transpose of a matrix."""
    def vjp(g: Array):
        return (g.T,)

    return _node(a.data.T, (a,), vjp, "transpose")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """`a @ b` for a 2-D `b`: one GEMM over the rows of a's leading dims."""
    if a.ndim < 2 or b.ndim != 2:
        raise ContractError(
            f"matmul expects a left operand of rank >= 2 and a 2-D right operand, "
            f"got {a.shape}, {b.shape}"
        )
    _check_same_dtype(a, b)
    out, vjp = _affine(a.data, b.data, None, _needs_grad((a, b)))
    return _node(out, (a, b), vjp, "matmul")


def _affine(x: Array, w: Array, b: Array | None, keep: bool):
    """`x @ w (+ b)` with a 2-D `w`, one GEMM over the rows of x's leading dims:
    the output and, when `keep`, its VJP (else None).

    The VJP maps the output's gradient to the gradients of `x`, `w` and, when
    given, `b`.
    """
    x2 = x.reshape(-1, x.shape[-1])
    out = x2 @ w
    if b is not None:
        out += b
    out = out.reshape(x.shape[:-1] + w.shape[1:])
    if not keep:
        return out, None

    def vjp(g: Array):
        g2 = g.reshape(-1, g.shape[-1])
        gx = (g2 @ w.T).reshape(x.shape)
        gw = x2.T @ g2
        if b is None:
            return gx, gw
        return gx, gw, g2.sum(axis=0)

    return out, vjp


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


def _reduction(a: Tensor, out: Array, axis, keepdims: bool, op: str, count=None) -> Tensor:
    """A sum over `axis` (every axis when None); a mean when `count` is the number summed."""
    def vjp(g: Array):
        g = g if count is None else g / count
        g = g if axis is None or keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _node(out, (a,), vjp, op)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    return _reduction(a, a.data.sum(axis=axis, keepdims=keepdims), axis, keepdims, "sum")


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    count = a.size if axis is None else a.shape[axis]
    return _reduction(a, a.data.mean(axis=axis, keepdims=keepdims), axis, keepdims, "mean", count)


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


# erf(x) ~ tanh(x P(x^2)) on x clipped to [-4.5, 4.5], P of degree 6,
# coefficients lowest first. Float32 erf is ±1 past |x| = 3.92, and this
# form is exactly ±1 from |x| = 4.05 up to the clip, where x P(x^2) is 16.2;
# the clip keeps the polynomial inside the range it was fitted on and ±inf
# out of it. The coefficients were fitted for this module to atanh(erf(x))/x,
# computed from float64 erfc, on 60,001 points of [0, 4.5], by least
# squares weighted with x (1 - erf(x)^2), the change in erf per unit change
# of P, and reweighted toward the minimax error (Lawson). Evaluated in
# float32 as below, the largest absolute error is 1.4e-7, over 90 million
# points of [0, 4.5] and over 2 million of [-7, 7].
_ERF32_P = tuple(np.float32(c) for c in (
    1.1283797e+00, 1.02765486e-01, -1.8438503e-04, -6.2571815e-04,
    8.9711924e-05, -5.985555e-06, 1.5895041e-07,
))


def _erf_float32(x: Array, out: Array | None = None) -> Array:
    """erf of a float32 array, to within 1e-6 of the exact value.

    NaN stays NaN, ±inf gives ±1 and the sign of zero is kept. The result
    is odd bitwise: x P(x^2) is, and so is numpy's tanh. It is written into
    `out` when given (which may be x itself), else into a new array; x is
    otherwise not written. Three arrays of x's shape are live at the peak:
    the clipped x, its square and the polynomial.
    """
    z = np.clip(x, np.float32(-4.5), np.float32(4.5), out=out)
    u = z * z
    # P(u) by Horner's rule, in place
    poly = u * _ERF32_P[-1]
    for c in _ERF32_P[-2:0:-1]:
        poly += c
        poly *= u
    poly += _ERF32_P[0]
    poly *= z
    return np.tanh(poly, out=z)


# erf of a float64 array: the standard library's, elementwise. np.vectorize
# keeps a 0-d input an array (np.frompyfunc would return a Python float).
_erf_float64 = np.vectorize(math.erf, otypes=[np.float64])


def gelu(a: Tensor) -> Tensor:
    """Exact (erf-based) GELU.

    Float32 inputs use `_erf_float32`; float64, the verification width,
    uses the standard library's `math.erf` elementwise (`_erf_float64`).
    GELU(-inf) is 0 and its gradient is finite at ±inf, their limits.
    """
    out, vjp = _gelu(a.data, a.requires_grad)
    return _node(out, (a,), vjp, "gelu")


def _gelu(x: Array, keep: bool):
    """GELU of an array: the output and, when `keep`, its VJP (else None).

    Only then is the derivative computed; the VJP keeps it alone, not x.
    Each step writes into an array this function made, so a float32
    forward holds at most three arrays of x's shape besides x: those of
    `_erf_float32`, whose result lands in the buffer of x / sqrt(2).
    """
    width = x.dtype.type
    z = x * width(_INV_SQRT2)
    phi = _erf_float32(z, out=z) if x.dtype == np.float32 else _erf_float64(z)
    del z
    phi += 1.0
    phi *= 0.5
    # -inf * 0 is NaN. Raised to the lowest finite value, -inf gives -0.0, as
    # every finite x with phi 0 does; finite x are left as they are.
    out = np.maximum(x, np.finfo(x.dtype).min)
    out *= phi
    if not keep:
        return out, None
    # exp(-0.5 x^2) is exactly 0 past |x| = 40 in both widths, so clipping
    # there changes no finite result; it keeps ±inf * 0 (NaN) and float32
    # overflow of x * x out, and x * pdf keeps its sign.
    near = np.clip(x, width(-40.0), width(40.0))
    # pdf = c exp(-0.5 x x), then x pdf, in one buffer; the operands keep
    # the order of the expressions, so the bits are theirs
    pdf = -0.5 * near
    pdf *= near
    np.exp(pdf, out=pdf)
    np.multiply(width(_INV_SQRT_2PI), pdf, out=pdf)
    np.multiply(near, pdf, out=pdf)
    # the derivative phi + x pdf, written over phi
    phi += pdf

    def vjp(g: Array):
        return (g * phi,)

    return out, vjp


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


# Row sums and row dot products over the last axis, kept as a length-1 axis.
# np.einsum makes one pass with no temporary; on the short rows of the
# encoder it is several times faster than a product and numpy's reduction.
# Its summation order depends on the row length only, not on where the
# arrays sit in memory.
def _row_sum(a: Array) -> Array:
    return np.einsum("...i->...", a)[..., None]


def _row_dot(a: Array, b: Array) -> Array:
    return np.einsum("...i,...i->...", a, b)[..., None]


def _normalize(s: Array, scale: Array, shift: Array, eps: float, keep: bool):
    """Layer norm of `s` over the last axis: the output and, when `keep`, its
    VJP (else None).

    The VJP maps the output's gradient to the gradients of `s`, `scale` and
    `shift`.
    """
    width = s.shape[-1]
    centered = s - _row_sum(s) / width
    var = _row_dot(centered, centered) / width
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered
    xhat *= inv_std
    out = xhat * scale
    out += shift
    if not keep:
        return out, None

    def vjp(g: Array):
        reduce_axes = tuple(range(g.ndim - 1))
        gscale = (g * xhat).sum(axis=reduce_axes)
        gshift = g.sum(axis=reduce_axes)
        gxhat = g * scale
        # d/ds of (s - mu) / sqrt(var + eps) with mu, var over the last axis
        inner = xhat * (_row_dot(gxhat, xhat) / width)
        gs = gxhat
        gs -= _row_sum(gxhat) / width
        gs -= inner
        gs *= inv_std
        return gs, gscale, gshift

    return out, vjp


def layer_norm(x: Tensor, scale: Tensor, shift: Tensor, eps: float) -> Tensor:
    """Layer normalization over the last axis with learned scale and shift."""
    parents = (x, scale, shift)
    _check_same_dtype(*parents)
    out, vjp = _normalize(x.data, scale.data, shift.data, eps, _needs_grad(parents))
    return _node(out, parents, vjp, "layer_norm")


def add_layer_norm(x: Tensor, y: Tensor, scale: Tensor, shift: Tensor, eps: float) -> Tensor:
    """`layer_norm(x + y, scale, shift, eps)` as one node; `y` may broadcast to x's shape."""
    parents = (x, y, scale, shift)
    _check_same_dtype(*parents, where="add_layer_norm")
    width = x.shape[-1:]
    if x.ndim < 1 or not (_broadcasts_to(y.shape, x.shape) and scale.shape == shift.shape == width):
        raise ContractError(
            f"add_layer_norm expects y broadcasting to x and scale, shift over x's last "
            f"axis, got {x.shape}, {y.shape}, {scale.shape}, {shift.shape}"
        )
    out, norm_vjp = _normalize(x.data + y.data, scale.data, shift.data, eps, _needs_grad(parents))

    def vjp(g: Array):
        gs, gscale, gshift = norm_vjp(g)
        gy = _unbroadcast(gs, y.shape) if y.requires_grad else None
        if gy is gs and x.requires_grad:
            gy = gs.copy()  # two parents never share one gradient array
        return (gs if x.requires_grad else None), gy, gscale, gshift

    return _node(out, parents, vjp, "add_layer_norm")


def _context(probs: Array, v: Array) -> Array:
    """The heads' context `probs @ v` (N×heads×L×dh each), written straight
    into N·L rows of H with no copy."""
    n, heads, length, dh = v.shape
    ctx = np.empty((n, length, heads * dh), dtype=v.dtype)
    np.matmul(probs, v, out=ctx.reshape(n, length, heads, dh).transpose(0, 2, 1, 3))
    return ctx.reshape(-1, heads * dh)


def _attend(x: Array, wq: Array, bq: Array, wk: Array, bk: Array, wv: Array, bv: Array,
            wo: Array, bo: Array, key_bias: Array, heads: int, keep: bool):
    """Multi-head scaled dot-product self-attention over the rows of the
    N×L×H array `x`: the output and, when `keep`, its VJP (else None).

    The q, k and v projections run as one GEMM against the weights
    concatenated column-wise; per head, the scores are scaled by
    1/sqrt(H/heads), `key_bias` (broadcasting to N×heads×L×L, large and
    negative at masked keys) is added and a max-shifted softmax over the
    keys weights the values; the heads' context goes through the output
    projection. The VJP keeps q, k, v and the attention probabilities,
    recomputes the context from them, and maps the output's gradient to the
    gradients of `x` and the eight projections, in the order they are given.
    """
    n, length, h = x.shape
    dh = h // heads
    scale = x.dtype.type(1.0 / np.sqrt(dh))
    x2 = x.reshape(-1, h)
    qkv = x2 @ np.concatenate((wq, wk, wv), axis=1)
    qkv += np.concatenate((bq, bk, bv))
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
    probs /= _row_sum(probs)
    out = _context(probs, v) @ wo
    out += bo
    out = out.reshape(x.shape)
    if not keep:
        return out, None

    def vjp(g: Array):
        g2 = g.reshape(-1, h)
        gwo, gbo = _context(probs, v).T @ g2, g2.sum(axis=0)
        gctx = (g2 @ wo.T).reshape(n, length, heads, dh).transpose(0, 2, 1, 3)
        gqkv = np.empty((n, length, 3, heads, dh), dtype=g.dtype)
        gq, gk, gv = gqkv.transpose(2, 0, 3, 1, 4)
        np.matmul(probs.swapaxes(-1, -2), gctx, out=gv)
        # softmax VJP, then the score scale
        gscores = gctx @ v.swapaxes(-1, -2)
        gscores -= _row_dot(gscores, probs)
        gscores *= probs
        gscores *= scale
        np.matmul(gscores, k, out=gq)
        np.matmul(gscores.swapaxes(-1, -2), q, out=gk)
        gqkv2 = gqkv.reshape(-1, 3 * h)
        gx = (gqkv2 @ np.concatenate((wq, wk, wv), axis=1).T).reshape(x.shape)
        gw_qkv = x2.T @ gqkv2
        gb_qkv = gqkv2.sum(axis=0)
        gwq, gwk, gwv = gw_qkv[:, :h], gw_qkv[:, h:2 * h], gw_qkv[:, 2 * h:]
        gbq, gbk, gbv = gb_qkv[:h], gb_qkv[h:2 * h], gb_qkv[2 * h:]
        return gx, gwq, gbq, gwk, gbk, gwv, gbv, gwo, gbo

    return out, vjp


def encoder_layer(x: Tensor, params: Sequence[Tensor], key_bias: Array, heads: int,
                  eps: float) -> Tensor:
    """One post-norm transformer block over x's rows, as one node.

    Multi-head self-attention over the N×L×H `x` (`_attend`, with
    `key_bias` and `heads`), then layer norm of x plus its output, then the
    GELU feed-forward network (`_affine`, `_gelu`, `_affine`), then layer
    norm of the first norm's output plus the network's. `params` are the
    block's 16 tensors in that order: the q, k, v and o projections (each
    H×H weight, then its length-H bias), the first norm's scale and shift,
    the network's w1 (H×F), b1, w2 (F×H) and b2, and the second norm's scale
    and shift. `key_bias` is a plain array in x's width broadcasting to
    N×heads×L×L; it gets no gradient. Output and gradients are bitwise those
    of a chain of one node per sublayer over the same kernels.

    For backward the node keeps q, k and v, the attention probabilities,
    both norms' normalised activations, the first norm's output, the GELU
    output and GELU's derivative; a forward-only call keeps nothing but its
    output. The backward recomputes the attention context and drops each
    sublayer's arrays once that sublayer's VJP has read them.
    """
    params = tuple(params)
    parents = (x, *params)
    _check_same_dtype(*parents, where="encoder_layer")
    if len(params) != 16:
        raise ContractError(f"encoder_layer expects 16 parameter tensors, got {len(params)}")
    if x.ndim != 3:
        raise ContractError(f"encoder_layer expects x of shape N×L×H, got {x.shape}")
    n, length, h = x.shape
    f = params[10].shape[-1] if params[10].ndim == 2 else -1
    shapes = [t.shape for t in params]
    expected = [(h, h), (h,)] * 4 + [(h,), (h,), (h, f), (f,), (f, h), (h,), (h,), (h,)]
    if shapes != expected or heads < 1 or h % heads:
        raise ContractError(
            f"encoder_layer expects {h}×{h} q, k, v and o weights, each before its length-{h} "
            f"bias, length-{h} norm scales and shifts, an {h}×F w1, length-F b1, an F×{h} w2, "
            f"a length-{h} b2 and heads dividing {h}, got {shapes}, heads={heads}"
        )
    key_bias = np.asarray(key_bias)
    scores_shape = (n, heads, length, length)
    if not _broadcasts_to(key_bias.shape, scores_shape) or key_bias.dtype != x.dtype:
        raise ContractError(
            f"encoder_layer expects a {x.dtype} key_bias broadcasting to {scores_shape}, "
            f"got {key_bias.dtype} {key_bias.shape}"
        )
    scale1, shift1, w1, b1, w2, b2, scale2, shift2 = (t.data for t in params[8:])
    keep = _needs_grad(parents)
    attended, attend_vjp = _attend(*(t.data for t in parents[:9]), key_bias, heads, keep)
    # The residual sums are written into the sublayer's own output; addition
    # is commutative, so the bits are those of x + sublayer.
    attended += x.data
    x1, norm1_vjp = _normalize(attended, scale1, shift1, eps, keep)
    del attended
    pre, ffn1_vjp = _affine(x1, w1, b1, keep)
    act, gelu_vjp = _gelu(pre, keep)
    del pre
    ffn, ffn2_vjp = _affine(act, w2, b2, keep)
    del act
    ffn += x1
    out, norm2_vjp = _normalize(ffn, scale2, shift2, eps, keep)
    # the sublayers' VJPs, the last to run first; each is popped, and the
    # arrays it saved are freed, once it has run
    vjps = [attend_vjp, norm1_vjp, ffn1_vjp, gelu_vjp, ffn2_vjp, norm2_vjp]

    def vjp(g: Array):
        gs2, gscale2, gshift2 = vjps.pop()(g)
        gact, gw2, gb2 = vjps.pop()(_checked(gs2, "linear"))
        (gpre,) = vjps.pop()(_checked(gact, "gelu"))
        gx1, gw1, gb1 = vjps.pop()(_checked(gpre, "linear"))
        # at each residual join the residual's gradient comes first, as the
        # node-by-node walk adds them
        gs1, gscale1, gshift1 = vjps.pop()(_checked(gs2 + gx1, "add_layer_norm"))
        gx, gwq, gbq, gwk, gbk, gwv, gbv, gwo, gbo = vjps.pop()(_checked(gs1, "attention"))
        return (gs1 + gx, gwq, gbq, gwk, gbk, gwv, gbv, gwo, gbo,
                gscale1, gshift1, gw1, gb1, gw2, gb2, gscale2, gshift2)

    return _node(out, parents, vjp, "encoder_layer")


def _checked(g: Array, sublayer: str) -> Array:
    """`g`, the gradient flowing into a sublayer of `encoder_layer`, once it
    is known to be finite: the check the walk makes at every node."""
    if not np.isfinite(g).all():
        raise NumericError(
            f"non-finite gradient flowing into {sublayer!r} of primitive 'encoder_layer'"
        )
    return g


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
        if node._parents is None:
            raise ContractError(
                f"backward over a spent graph: its {node.op!r} node was already walked; "
                "build the graph again"
            )
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))
    return order


def _send(node: Tensor, grads) -> list[Array | None]:
    """Check the VJP's gradients against `node`'s operands: one per operand,
    None where an operand gets none."""
    if len(grads) != len(node._parents):
        raise ContractError(
            f"primitive {node.op!r} returned {len(grads)} gradients "
            f"for {len(node._parents)} operands"
        )
    sent: list[Array | None] = []
    for parent, pg in zip(node._parents, grads):
        if pg is None or not parent.requires_grad:
            sent.append(None)
            continue
        if pg.dtype != parent.data.dtype or pg.shape != parent.data.shape:
            raise ContractError(
                f"primitive {node.op!r} returned a {pg.dtype} gradient of shape "
                f"{pg.shape} for a {parent.data.dtype} operand of shape {parent.shape}"
            )
        sent.append(pg)
    return sent


def _run_vjp(node: Tensor, g: Array) -> list[Array | None]:
    if not np.isfinite(g).all():
        raise NumericError(f"non-finite gradient flowing into primitive {node.op!r}")
    return _send(node, node._vjp(g))


def _is_plain_leaf(node: Tensor) -> bool:
    """A parameter or input: a node of an unspent graph without a VJP that is not cut."""
    return node._vjp is None and not isinstance(node, _CutLeaf)


def _walk(root: Tensor | None, g: Array | None) -> list[tuple[Tensor, Array]]:
    """Walk `root`'s graph on this thread, from `g` as root's gradient.

    Every node runs in reverse topological order and folds its incoming
    gradients in that order, then drops its gradient, its VJP closure and
    its operand links. Returns the gradients sent to plain leaves, one per
    edge in walk order, followed by those of the walks of every cut pair it
    reached, in the order reached, each pair's two sides through
    `concurrently`. It writes no leaf's `.grad`.
    """
    if g is None:
        return []
    order = _toposort(root)
    if _is_plain_leaf(root):
        return [(root, g)]
    root.grad = g
    leaf_grads: list[tuple[Tensor, Array]] = []
    # cut pair -> (root, gradient) per side, in the order reached
    sides: dict[object, list] = {}
    while order:
        node = order.pop()
        if _is_plain_leaf(node):
            continue
        g, node.grad = node.grad, None
        if isinstance(node, _CutLeaf):
            walks = sides.setdefault(node.pair, [(None, None), (None, None)])
            walks[node.side] = node.root, g
            node.root = node._parents = None
            continue
        if g is not None:
            for parent, pg in zip(node._parents, _run_vjp(node, g)):
                if pg is None:
                    continue
                if _is_plain_leaf(parent):
                    leaf_grads.append((parent, pg))
                else:
                    parent.grad = pg if parent.grad is None else parent.grad + pg
        # The VJP has used what the node saved; once nothing else holds the
        # node, it and its forward arrays are freed.
        node._vjp = None
        node._parents = None
    for first, second in sides.values():
        for walked in concurrently(partial(_walk, *first), partial(_walk, *second)):
            leaf_grads += walked
    return leaf_grads


def backward(loss: Tensor, params: Iterable[Tensor] = ()) -> None:
    """Populate .grad on every leaf with requires_grad that `loss` reaches.

    Leaves are the tensors without a VJP: parameters and inputs. `loss`
    must be a scalar. Parameters listed in `params` that the graph never
    reaches get an explicit zero gradient. Adds to gradients left by earlier
    calls; call `zero_grads` between steps.

    The loss graph is walked on this thread. The graphs behind each pair of
    cut leaves (see `concurrently`) are walked through `concurrently`, the
    first call's on the helper thread when there is one, and nested cuts
    the same way. Once every walk is done, each leaf gradient is added to
    `.grad` in a fixed order: the loss walk's, then the first side's, then
    the second side's. When both sides fail, the first side's error is
    raised; a raise leaves every `.grad` as it was.

    The walk frees every other node's gradient, VJP and operand links as
    soon as its VJP has returned, so the graph is spent afterwards: calling
    `backward` again over a node it walked raises `ContractError`, also
    when the walk stopped at an error.
    """
    if loss.size != 1:
        raise ContractError(f"backward expects a scalar loss, got shape {loss.shape}")
    if not np.isfinite(loss.data).all():
        raise NumericError("non-finite loss value")
    if loss.requires_grad:
        for leaf, g in _walk(loss, np.ones_like(loss.data)):
            leaf.grad = g if leaf.grad is None else leaf.grad + g
    for p in params:
        if p.requires_grad and p.grad is None:
            p.grad = np.zeros_like(p.data)


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None
