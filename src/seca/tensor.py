"""Reverse-mode autodiff over dense numpy arrays.

A deliberately small kernel: 1-D vectors and 2-D row batches, float32 or
float64, with exactly the operations the losses need. Ops are plain
functions (``add(a, b)``); a Tensor has no operator protocol. Graphs are
built eagerly; ``backward`` on a scalar accumulates gradients into leaves.
``no_grad`` switches graph construction off for the current thread, which
is how frozen forwards (pool views, teachers, evaluation) and the
finite-difference probes stay plain numpy: under it an op's output is built
without scanning its operands, and carries no parents and no backward.

Every operation checks its output for NaN/Inf and raises NumericsError,
with or without ``no_grad``, so a diverging run fails at the first bad value
instead of at the metrics. Scalar operands, Python numbers or 0-d arrays
(``mul(x, 0.5)``), are checked too, even where the output would come out
finite (``div(x, inf)``).

Fused ops replace the composite chains the models run most, one graph node
for what was 3 to 19:

- ``ffn``: the feed-forward block tanh(h @ w1 + b1) @ w2 + b2;
- ``residual_tower``: the visual backbone's residual blocks with their
  adapters and the final L2 normalisation;
- ``text_embed``: prompt pooling, the frozen text mixer and normalisation;
- ``cosine_logits``: cosine similarities over a temperature;
- ``rbf_affinity``: the RBF class-affinity matrix;
- ``mix_rows``: row normalisation followed by a matmul;
- ``relevance``: text-queried relevance scores of pool views;
- ``blend``: the per-row weighted sum of pool views.

Each is bitwise equal to its chain, forward and backward, and raises
NumericsError wherever the chain would: it checks every intermediate whose
non-finite value a later link could hide (tanh, a clamp at zero, exp of
-inf, a row left out, a division by inf) and its output, or for the ops
that end in a normalisation the rows being normalised; every other link
reaches one of these checks. Zero norms still raise ValueError. An operand
that does not require a gradient gets none computed, and under ``no_grad``
a fused op keeps no intermediates.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import threading
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigError, NumericsError

LAYERNORM_EPS = 1e-5
LOG_CLAMP = 1e-12
KL_EPS_DEFAULT = 1e-8

# per-thread so concurrent runs cannot switch each other's graphs off
_GRAD_STATE = threading.local()


@contextlib.contextmanager
def no_grad():
    """Disable graph construction in this thread for the block."""
    prev = grad_enabled()
    _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_STATE.enabled = prev


def grad_enabled() -> bool:
    return getattr(_GRAD_STATE, "enabled", True)


# ufunc reduces called directly: the ndarray methods add a Python-level
# wrapper that costs more than the reduce on this kernel's small arrays
_all_true = np.logical_and.reduce
_add_reduce = np.add.reduce
_max_reduce = np.maximum.reduce


def _ensure_finite(arr: np.ndarray) -> None:
    # A finite sum proves every entry finite, and one ufunc reduce is the
    # cheapest test there is on the small arrays this kernel works with.
    # A sum that is not finite falls back to the exact per-entry test, so a
    # finite array whose sum overflows (and warns) is still accepted.
    if not math.isfinite(_add_reduce(arr, axis=None)) \
            and not _all_true(np.isfinite(arr), axis=None):
        raise NumericsError("non-finite value in tensor")


class Tensor:
    """Dense float array with optional gradient tracking."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        _ensure_finite(arr)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable | None = None

    def backward(self) -> None:
        if self.data.size != 1:
            raise ValueError("backward requires a scalar output")
        if not self.requires_grad:
            return
        order = _topo_order(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is None:
                continue
            grads = node._backward(node.grad)
            for parent, g in zip(node._parents, grads):
                if g is None or not parent.requires_grad:
                    continue
                if parent.grad is None:
                    # one fresh buffer, never g itself (add hands the same
                    # array to both parents); 0.0 + g maps -0.0 to +0.0
                    parent.grad = np.add(g, 0.0, out=np.empty_like(parent.data))
                else:
                    parent.grad += g
            if not isinstance(node, Parameter) and node is not self:
                node.grad = None  # free intermediate buffers early

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"


class Parameter(Tensor):
    """Trainable leaf. Gradient buffer always exists and accumulates."""

    __slots__ = ("name",)

    def __init__(self, data, name: str | None = None):
        super().__init__(data, requires_grad=True)
        self.name = name
        self.grad = np.zeros_like(self.data)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def freeze(self) -> None:
        self.requires_grad = False


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data: np.ndarray) -> Tensor:
    """A tensor around already-checked data, bypassing the constructor."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = False
    out._parents = ()
    out._backward = None
    return out


def _scalar_array(x, dtype) -> np.ndarray:
    """A scalar operand as a 0-d array of ``dtype``, checked after the cast.

    1e40 overflows float32, so the operand is refused even where the op's
    output would be finite (``div(x, inf)``).
    """
    arr = np.asarray(x, dtype=dtype)
    if not math.isfinite(arr):
        raise NumericsError("non-finite scalar operand")
    return arr


def _constant(x: np.ndarray, dtype) -> Tensor:
    """A 0-d operand as a constant of ``dtype``, without the constructor."""
    return _node(_scalar_array(x, dtype))


def _coerce_pair(a, b) -> tuple[Tensor, Tensor]:
    """Wrap operands, casting scalars and 0-d arrays to the tensor's dtype.

    0-d float64 arrays are "strong" under numpy 2 promotion and would drag a
    float32 graph up to float64; array operands keep their own dtype so a
    genuine precision mix stays visible.
    """
    if isinstance(a, Tensor):
        if isinstance(b, Tensor):
            return a, b
        arr = np.asarray(b)
        return a, (_constant(arr, a.data.dtype) if arr.ndim == 0 else Tensor(arr))
    if isinstance(b, Tensor):
        arr = np.asarray(a)
        return (_constant(arr, b.data.dtype) if arr.ndim == 0 else Tensor(arr)), b
    a = _wrap(a)
    return a, _wrap(b)


def _make(data: np.ndarray, parents: Sequence[Tensor], backward: Callable,
          checked: bool = False) -> Tensor:
    """The op's output node; ``checked`` says the data is known finite."""
    if not checked:
        _ensure_finite(data)
    out = _node(data)
    if grad_enabled():  # under no_grad the parents are never scanned
        for p in parents:
            if p.requires_grad:
                out.requires_grad = True
                out._parents = tuple(parents)
                out._backward = backward
                break
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> Tensor:
    a, b = _coerce_pair(a, b)
    out = a.data + b.data

    def backward(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _make(out, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _coerce_pair(a, b)
    out = a.data * b.data

    def backward(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return _make(out, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = _coerce_pair(a, b)
    out = a.data / b.data

    def backward(g):
        return (
            _unbroadcast(g / b.data, a.data.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape),
        )

    return _make(out, (a, b), backward)


def _matmul_grads(a: np.ndarray, b: np.ndarray, g, need_a: bool = True,
                  need_b: bool = True) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Gradients of a @ b with respect to a and b, for 1-D or 2-D operands.

    A gradient that is not needed comes back as None, uncomputed.
    """
    a1 = a.ndim == 1
    b1 = b.ndim == 1
    if a1 and b1:
        G = np.asarray(g).reshape(1, 1)
    elif a1:
        G = g[None, :]
    elif b1:
        G = g[:, None]
    else:
        G = g
    ga = gb = None
    if need_a:
        ga = G @ (b[:, None] if b1 else b).T
        if a1:
            ga = ga[0]
    if need_b:
        gb = (a[None, :] if a1 else a).T @ G
        if b1:
            gb = gb[:, 0]
    return ga, gb


def matmul(a, b) -> Tensor:
    a, b = _coerce_pair(a, b)
    out = np.matmul(a.data, b.data)

    def backward(g):
        return _matmul_grads(a.data, b.data, g, a.requires_grad, b.requires_grad)

    return _make(out, (a, b), backward)


def _ffn_forward(h, w1, b1, w2, b2) -> tuple[np.ndarray, np.ndarray]:
    """tanh(h @ w1 + b1) and the block output, over arrays.

    The pre-activation is checked, since tanh would map an overflow there
    to a finite value that the five-op chain would have refused.
    """
    pre = np.matmul(h, w1) + b1
    _ensure_finite(pre)
    mid = np.tanh(pre)
    return mid, np.matmul(mid, w2) + b2


def _ffn_grads(h, w1, b1, w2, b2, mid, g, need) -> list:
    """Gradients of the block output for (h, w1, b1, w2, b2), as the chain's.

    ``need`` holds one flag per operand; an operand not needed gets None.
    """
    lower = need[0] or need[1] or need[2]
    gmid, gw2 = _matmul_grads(mid, w2, g, lower, need[3])
    gh = gw1 = gb1 = None
    if lower:
        gpre = gmid * (1.0 - mid * mid)
        gh, gw1 = _matmul_grads(h, w1, gpre, need[0], need[1])
        if need[2]:
            gb1 = _unbroadcast(gpre, b1.shape)
    return [gh, gw1, gb1, gw2, _unbroadcast(g, b2.shape) if need[4] else None]


def ffn(h, w1, b1, w2, b2) -> Tensor:
    """tanh(h @ w1 + b1) @ w2 + b2 as one op: the feed-forward block.

    Bitwise equal to the five-op chain, forward and backward, for tensor or
    array operands; bare scalars are not coerced as ``add`` coerces them,
    so pass none.
    """
    ts = tuple(map(_wrap, (h, w1, b1, w2, b2)))
    arrs = tuple(t.data for t in ts)
    mid, out = _ffn_forward(*arrs)

    def backward(g):
        return _ffn_grads(*arrs, mid, g, [t.requires_grad for t in ts])

    return _make(out, ts, backward)


def transpose(t) -> Tensor:
    t = _wrap(t)

    def backward(g):
        return (g.T,)

    return _make(t.data.T, (t,), backward)


def reshape(t, shape) -> Tensor:
    t = _wrap(t)
    orig = t.data.shape

    def backward(g):
        return (g.reshape(orig),)

    return _make(t.data.reshape(shape), (t,), backward)


def exp(t) -> Tensor:
    t = _wrap(t)
    out = np.exp(t.data)

    def backward(g):
        return (g * out,)

    return _make(out, (t,), backward)


def log(t) -> Tensor:
    t = _wrap(t)
    out = np.log(t.data)

    def backward(g):
        return (g / t.data,)

    return _make(out, (t,), backward)


def tanh(t) -> Tensor:
    t = _wrap(t)
    out = np.tanh(t.data)

    def backward(g):
        return (g * (1.0 - out * out),)

    return _make(out, (t,), backward)


def maximum0(t) -> Tensor:
    # subgradient at 0 is taken as 0 so clamped entries carry no signal
    t = _wrap(t)
    out = np.maximum(t.data, 0.0)

    def backward(g):
        return (g * (t.data > 0.0),)

    return _make(out, (t,), backward)


def tsum(t, axis=None, keepdims=False) -> Tensor:
    t = _wrap(t)
    out = _add_reduce(t.data, axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, t.data.shape),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, t.data.shape),)

    return _make(np.asarray(out), (t,), backward)


def tmean(t, axis=None, keepdims=False) -> Tensor:
    t = _wrap(t)
    n = t.data.size if axis is None else t.data.shape[axis]
    return mul(tsum(t, axis=axis, keepdims=keepdims), 1.0 / n)


def diag(t) -> Tensor:
    t = _wrap(t)
    if t.data.ndim != 2 or t.data.shape[0] != t.data.shape[1]:
        raise ValueError("diag expects a square matrix")
    idx = np.arange(t.data.shape[0])
    out = t.data[idx, idx].copy()

    def backward(g):
        z = np.zeros_like(t.data)
        z[idx, idx] = g
        return (z,)

    return _make(out, (t,), backward)


def take_rows(t, idx) -> Tensor:
    t = _wrap(t)
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= t.data.shape[0]):
        raise ValueError("row index out of range")
    out = t.data[idx]

    def backward(g):
        z = np.zeros_like(t.data)
        np.add.at(z, idx, g)
        return (z,)

    return _make(out, (t,), backward)


def pick_rows(t, cols) -> Tensor:
    """Entry [i, cols[i]] of a 2-D tensor, as a length-N vector."""
    t = _wrap(t)
    cols = np.asarray(cols, dtype=np.int64)
    rows = np.arange(t.data.shape[0])
    if cols.shape != rows.shape:
        raise ValueError("one column index per row required")
    if cols.size and (cols.min() < 0 or cols.max() >= t.data.shape[1]):
        raise ValueError("class index out of range")
    out = t.data[rows, cols].copy()

    def backward(g):
        z = np.zeros_like(t.data)
        np.add.at(z, (rows, cols), g)
        return (z,)

    return _make(out, (t,), backward)


def col(t, j) -> Tensor:
    """Column j of a 2-D tensor, kept as an (N, 1) slab."""
    t = _wrap(t)
    out = t.data[:, j : j + 1].copy()

    def backward(g):
        z = np.zeros_like(t.data)
        z[:, j : j + 1] = g
        return (z,)

    return _make(out, (t,), backward)


def stack_cols(ts: Sequence[Tensor]) -> Tensor:
    ts = [_wrap(t) for t in ts]
    out = np.stack([t.data for t in ts], axis=1)

    def backward(g):
        return tuple(g[:, i] for i in range(len(ts)))

    return _make(out, ts, backward)


def concat_rows(ts: Sequence[Tensor]) -> Tensor:
    ts = [_wrap(t) for t in ts]
    out = np.concatenate([t.data for t in ts], axis=0)
    sizes = [t.data.shape[0] for t in ts]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.split(g, splits, axis=0))

    return _make(out, ts, backward)


def layernorm(t) -> Tensor:
    """Parameter-free layer normalization along the last axis.

    y = (x - mean) / sqrt(var + 1e-5) with the population variance. Needs at
    least two entries per row for the variance to be meaningful.
    """
    t = _wrap(t)
    if t.data.shape[-1] < 2:
        raise ValueError("layernorm needs at least 2 entries")
    x = t.data
    m = x.mean(axis=-1, keepdims=True)
    xc = x - m
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYERNORM_EPS)
    y = xc * inv

    def backward(g):
        gm = g.mean(axis=-1, keepdims=True)
        gy = (g * y).mean(axis=-1, keepdims=True)
        return ((g - gm - y * gy) * inv,)

    return _make(y, (t,), backward)


def _unit_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x scaled to unit norm along the last axis, and the norms."""
    n = np.sqrt(_add_reduce(x * x, axis=-1, keepdims=True))
    if not _all_true(n > 0, axis=None):
        raise ValueError("cannot normalize a zero-norm vector")
    return x / n, n


def _unit_rows_grad(g: np.ndarray, y: np.ndarray, n: np.ndarray) -> np.ndarray:
    gy = (g * y).sum(axis=-1, keepdims=True)
    return (g - y * gy) / n


def l2_normalize(t) -> Tensor:
    t = _wrap(t)
    y, n = _unit_rows(t.data)

    def backward(g):
        return (_unit_rows_grad(g, y, n),)

    return _make(y, (t,), backward)


def softmax_temp(t, tau: float) -> Tensor:
    """softmax(x / tau) along the last axis, max-subtracted for stability."""
    if tau <= 0:
        raise ConfigError("softmax temperature must be positive")
    t = _wrap(t)
    z = t.data / tau
    z = z - _max_reduce(z, axis=-1, keepdims=True)
    e = np.exp(z)
    s = e / _add_reduce(e, axis=-1, keepdims=True)

    def backward(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
        return (s * (g - dot) / tau,)

    return _make(s, (t,), backward)


def cosine_sim(a, b) -> Tensor:
    """Cosine similarity of two 1-D vectors; errors on zero norm."""
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim != 1 or b.data.ndim != 1:
        raise ValueError("cosine_sim expects 1-D vectors")
    if a.data.shape != b.data.shape:
        raise ValueError("length mismatch")
    return tsum(mul(l2_normalize(a), l2_normalize(b)))


def cross_entropy(p, y: int) -> Tensor:
    """-log(p[y] + 1e-12) for a 1-D probability vector."""
    p = _wrap(p)
    if p.data.ndim != 1:
        raise ValueError("cross_entropy expects a 1-D probability vector")
    y = int(y)
    if not 0 <= y < p.data.shape[0]:
        raise ValueError("class index out of range")
    py = p.data[y] + LOG_CLAMP
    out = np.asarray(-np.log(py), dtype=p.data.dtype)

    def backward(g):
        z = np.zeros_like(p.data)
        z[y] = -g / py
        return (z,)

    return _make(out, (p,), backward)


def cross_entropy_rows(p, ys) -> Tensor:
    """Mean of -log(p[i, ys[i]] + 1e-12) over the rows of a batch."""
    p = _wrap(p)
    ys = np.asarray(ys, dtype=np.int64)
    n = p.data.shape[0]
    rows = np.arange(n)
    if ys.shape != (n,):
        raise ValueError("one label per row required")
    if ys.size and (ys.min() < 0 or ys.max() >= p.data.shape[1]):
        raise ValueError("class index out of range")
    pv = p.data[rows, ys] + LOG_CLAMP
    out = np.asarray(-np.log(pv).mean(), dtype=p.data.dtype)

    def backward(g):
        z = np.zeros_like(p.data)
        z[rows, ys] = -g / (pv * n)
        return (z,)

    return _make(out, (p,), backward)


def _teacher_array(teacher) -> np.ndarray:
    arr = teacher.data if isinstance(teacher, Tensor) else np.asarray(teacher)
    if np.any(arr < 0):
        raise ValueError("teacher probabilities must be nonnegative")
    return arr


def kl_div(teacher, student, eps: float = KL_EPS_DEFAULT) -> Tensor:
    """Stabilized KL of teacher from student over 1-D vectors.

    sum_i t_i * (log(t_i + eps) - log(s_i + eps)). The stabilizer sits in
    both logs so identical inputs give exactly 0 at any eps, and a zero
    teacher entry contributes exactly 0 without a special case. The teacher
    never receives gradient; only the student side is differentiated.
    """
    t = _teacher_array(teacher)
    s = _wrap(student)
    if t.shape != s.data.shape or t.ndim != 1:
        raise ValueError("kl_div expects two 1-D vectors of equal length")
    sd = s.data + eps
    out = np.asarray((t * (np.log(t + eps) - np.log(sd))).sum(), dtype=s.data.dtype)

    def backward(g):
        return (-g * t / sd,)

    return _make(out, (s,), backward)


def kl_div_rows(teacher, student, eps: float = KL_EPS_DEFAULT) -> Tensor:
    """Row-wise stabilized KL, averaged over the batch."""
    t = _teacher_array(teacher)
    s = _wrap(student)
    if t.shape != s.data.shape or t.ndim != 2:
        raise ValueError("kl_div_rows expects two 2-D arrays of equal shape")
    n = t.shape[0]
    sd = s.data + eps
    out = np.asarray(
        (t * (np.log(t + eps) - np.log(sd))).sum() / n, dtype=s.data.dtype
    )

    def backward(g):
        return (-g * t / (sd * n),)

    return _make(out, (s,), backward)


# Fused composite ops. Each replaces a chain of the ops above with one graph
# node: the forward repeats the chain's arithmetic expression by expression,
# so the output is bitwise equal to it, and the backward repeats the
# chain's gradient arithmetic, adding the contributions to a shared
# intermediate in the order the chain's backward pass would. Operands that
# do not require a gradient get none computed.


def _frozen(t) -> np.ndarray:
    """The data of an operand that takes no gradient; refuses one that does."""
    if not isinstance(t, Tensor):
        return Tensor(t).data
    if t.requires_grad:
        raise ValueError("this operand is frozen and must not require a gradient")
    return t.data


def text_embed(tokens, prompt, w1, b1, w2, b2) -> Tensor:
    """Prompted text features: l2_normalize(p + ffn(p, w1, b1, w2, b2)).

    p = (tokens + prompt.sum(0)) * (1 / (M + 1)) pools the M prompt rows
    with each token row by a plain mean. Only ``prompt`` takes a gradient;
    the token rows and the ffn weights are frozen. Replaces a seven-op
    chain. Checks the ffn's pre-activation and the residual sum, from which
    every other link follows, and the prompt sum, which an empty token
    table would hide.
    """
    prompt = _wrap(prompt)
    tok, w1, b1, w2, b2 = map(_frozen, (tokens, w1, b1, w2, b2))
    psum = _add_reduce(prompt.data, axis=0)
    _ensure_finite(psum)
    summed = tok + psum
    scale = np.asarray(1.0 / (prompt.data.shape[0] + 1), dtype=summed.dtype)
    pooled = summed * scale
    mid, f = _ffn_forward(pooled, w1, b1, w2, b2)
    h = pooled + f
    _ensure_finite(h)
    y, n = _unit_rows(h)

    def backward(g):
        gh = _unit_rows_grad(g, y, n)
        gpooled = gh + _ffn_grads(pooled, w1, b1, w2, b2, mid, gh,
                                  (True, False, False, False, False))[0]
        gsum = _unbroadcast(gpooled * scale, psum.shape)
        return (np.broadcast_to(np.expand_dims(gsum, 0), prompt.data.shape),)

    return _make(y, (prompt,), backward, checked=True)  # unit rows of finite h


def cosine_logits(a, b, tau: float) -> Tensor:
    """Cosine similarities of a's rows to b's rows, divided by tau.

    l2_normalize(a) @ l2_normalize(b).T * (1 / tau), a five-op chain. Each
    zero-norm operand raises ValueError; the unit rows and their products
    are finite, so only the scale and the output are checked.
    """
    a, b = _wrap(a), _wrap(b)
    an, na = _unit_rows(a.data)
    bn, nb = _unit_rows(b.data)
    cos = np.matmul(an, bn.T)
    scale = _scalar_array(1.0 / tau, cos.dtype)
    out = cos * scale

    def backward(g):
        ga, gbt = _matmul_grads(an, bn.T, g * scale, a.requires_grad, b.requires_grad)
        return (
            None if ga is None else _unit_rows_grad(ga, an, na),
            None if gbt is None else _unit_rows_grad(np.ascontiguousarray(gbt.T), bn, nb),
        )

    return _make(out, (a, b), backward)


def rbf_affinity(z, h, gamma: float) -> Tensor:
    """M_kj = exp(-gamma ||z_k h - z_j h||^2) over the rows of z.

    The squared distances come from the Gram matrix of a = z @ h,
    symmetrised as (G + G.T) * 0.5, so the diagonal of d2 is exactly zero
    and M is bitwise symmetric. Replaces a fifteen-op chain. Only the
    exponent is checked, before the exp would turn a -inf into 0: a
    non-finite link before it reaches it as NaN or inf (a -inf distance
    needs an infinite Gram entry beside finite diagonal ones, which
    Cauchy-Schwarz rules out).
    """
    z, h = _wrap(z), _wrap(h)
    a = np.matmul(z.data, h.data)
    gram0 = np.matmul(a, a.T)
    half = np.asarray(0.5, dtype=gram0.dtype)
    gram = (gram0 + gram0.T) * half
    k = gram.shape[0]
    idx = np.arange(k)
    s = gram[idx, idx]
    m2 = np.asarray(-2.0, dtype=gram.dtype)
    d2 = (s.reshape(k, 1) + s.reshape(1, k)) + gram * m2
    neg_gamma = _scalar_array(-float(gamma), d2.dtype)
    e = np.maximum(d2, 0.0) * neg_gamma
    _ensure_finite(e)
    out = np.exp(e)

    def backward(g):
        gd2 = (g * out) * neg_gamma * (d2 > 0.0)
        gs = _unbroadcast(gd2, (k, 1)).reshape(k) + _unbroadcast(gd2, (1, k)).reshape(k)
        ggram = np.zeros_like(gram)
        ggram[idx, idx] = gs
        ggram = (ggram + gd2 * m2) * half
        ggram0 = ggram + ggram.T
        ga = ggram0 @ a + (a.T @ ggram0).T
        return _matmul_grads(z.data, h.data, ga, z.requires_grad, h.requires_grad)

    return _make(out, (z, h), backward)


def mix_rows(m, x) -> Tensor:
    """(m / m.sum(1, keepdims=True)) @ x: x's rows mixed by m's rows.

    Replaces a three-op chain. The row sums are checked, since an infinite
    sum would give finite zero weights; a non-finite weight reaches the
    output.
    """
    m, x = _wrap(m), _wrap(x)
    rs = _add_reduce(m.data, axis=1, keepdims=True)
    _ensure_finite(rs)
    w = m.data / rs
    out = np.matmul(w, x.data)

    def backward(g):
        gw, gx = _matmul_grads(w, x.data, g, m.requires_grad, x.requires_grad)
        gm = None
        if gw is not None:
            grs = _unbroadcast(-gw * m.data / (rs * rs), rs.shape)
            gm = gw / rs + np.broadcast_to(grs, m.data.shape)
        return gm, gx

    return _make(out, (m, x), backward)


def relevance(sem: Sequence, views: Sequence, rows, w_s, w_v) -> Tensor:
    """Text-queried scores, one column per view: out[i, p] = q_i . (V_p w_v)_i.

    q = (1/S) sum_k (sem[k] @ w_s)[rows] averages the projected text rows
    of the S semantic blocks. Replaces a chain of 3S + 3P ops. Each
    projected block is checked before its rows are taken; everything after
    reaches the output.
    """
    if not sem or not views:
        raise ValueError("need at least one semantic block and one view")
    sem = [_wrap(t) for t in sem]
    views = [_wrap(t) for t in views]
    w_s, w_v = _wrap(w_s), _wrap(w_v)
    rows = np.asarray(rows, dtype=np.int64)
    q = None
    for block in sem:
        bw = np.matmul(block.data, w_s.data)
        _ensure_finite(bw)
        if rows.size and (rows.min() < 0 or rows.max() >= bw.shape[0]):
            raise ValueError("row index out of range")
        q = bw[rows] if q is None else q + bw[rows]
    scale = np.asarray(1.0 / len(sem), dtype=q.dtype)
    q = q * scale
    vps = [np.matmul(v.data, w_v.data) for v in views]
    out = np.stack([_add_reduce(q * vp, axis=1) for vp in vps], axis=1)
    need_q = w_s.requires_grad or any(t.requires_grad for t in sem)

    def backward(g):
        gq = gwv = None
        gviews = []
        for p, (v, vp) in enumerate(zip(views, vps)):
            gp = g[:, p:p + 1]
            if need_q:
                c = vp * gp
                gq = c if gq is None else gq + c
            gv = None
            if v.requires_grad or w_v.requires_grad:
                gv, c = _matmul_grads(v.data, w_v.data, q * gp, v.requires_grad,
                                      w_v.requires_grad)
                if c is not None:
                    gwv = c if gwv is None else gwv + c
            gviews.append(gv)
        gsem = [None] * len(sem)
        gws = None
        if need_q:
            gq = gq * scale
            for i, block in enumerate(sem):
                gbw = np.zeros((block.data.shape[0], gq.shape[1]), dtype=q.dtype)
                np.add.at(gbw, rows, gq)
                gsem[i], c = _matmul_grads(block.data, w_s.data, gbw,
                                           block.requires_grad, w_s.requires_grad)
                if c is not None:
                    gws = c if gws is None else gws + c
        return (*gviews[:-1], *gsem, gws, gviews[-1], gwv)

    # the parents in the order the unfused chain's graph walk meets them,
    # so that gradients of inputs shared with the rest of a graph add up
    # in the same order
    return _make(out, (*views[:-1], *sem, w_s, views[-1], w_v), backward)


def blend(views: Sequence, weights) -> Tensor:
    """sum_p views[p] * weights[:, p]: each row a weighted mix of the views.

    Replaces a chain of 3P - 1 ops; every link reaches the output, so only
    the output is checked.
    """
    views = [_wrap(t) for t in views]
    weights = _wrap(weights)
    if not views or weights.data.ndim != 2 or weights.data.shape[1] != len(views):
        raise ValueError("one weight column per view required")
    w = weights.data
    out = None
    for p, v in enumerate(views):
        term = v.data * w[:, p:p + 1]
        out = term if out is None else out + term

    def backward(g):
        gw = None
        if weights.requires_grad:
            gw = np.zeros_like(w)
            for p, v in enumerate(views):
                gw[:, p:p + 1] = _unbroadcast(g * v.data, (w.shape[0], 1))
        gviews = [g * w[:, p:p + 1] if v.requires_grad else None
                  for p, v in enumerate(views)]
        return (*gviews, gw)

    return _make(out, (*views, weights), backward)


def residual_tower(x, blocks: Sequence, adapters: Sequence | None = None) -> Tensor:
    """l2_normalize(h_L) for h_{l+1} = h_l + ffn(h_l, *blocks[l]) + ffn(h_l, *adapters[l]).

    h_0 = x; without adapters the last term is dropped. ``blocks`` and
    ``adapters`` hold one (w1, b1, w2, b2) tuple per layer. The block
    weights are frozen; x and the adapter weights take gradients when they
    require them. Replaces 4L + 1 ops (2L + 1 without adapters). Checks
    each pre-activation and the last layer's output; an earlier layer's
    output reaches the next pre-activation. Activations are kept for the
    backward only when a gradient will be taken.
    """
    x = _wrap(x)
    blocks = [tuple(map(_frozen, blk)) for blk in blocks]
    layers = None if adapters is None else [tuple(map(_wrap, a)) for a in adapters]
    parents = (x,) if layers is None else (x, *(t for a in layers for t in a))
    saved = [] if grad_enabled() and any(p.requires_grad for p in parents) else None
    h = x.data
    for i, blk in enumerate(blocks):
        mid, f = _ffn_forward(h, *blk)
        mid_a = None
        if layers is None:
            nh = h + f
        else:
            mid_a, fa = _ffn_forward(h, *(t.data for t in layers[i]))
            nh = (h + f) + fa
        if saved is not None:
            saved.append((h, mid, mid_a))
        h = nh
    _ensure_finite(h)
    y, n = _unit_rows(h)

    def backward(g):
        gh = _unit_rows_grad(g, y, n)
        grads: list = []
        for i in reversed(range(len(blocks))):
            h_in, mid, mid_a = saved[i]
            lower = i > 0 or x.requires_grad
            if layers is not None:
                a = layers[i]
                ga = _ffn_grads(h_in, *(t.data for t in a), mid_a, gh,
                                (lower, *(t.requires_grad for t in a)))
                grads[:0] = ga[1:]
            if lower:
                gf = _ffn_grads(h_in, *blocks[i], mid, gh,
                                (True, False, False, False, False))[0]
                gh = gh + gf
                if layers is not None:
                    gh = gh + ga[0]
        return (gh if x.requires_grad else None, *grads)

    return _make(y, parents, backward, checked=True)  # unit rows of finite h


def scalar(value, dtype=np.float64) -> Tensor:
    return Tensor(np.asarray(value, dtype=dtype))


def checksum(arrays: Iterable[np.ndarray]) -> str:
    """sha256 over dtype, shape and raw bytes of each array, in order."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


@dataclass
class GradCheckReport:
    tol: float
    per_param: dict[str, float] = field(default_factory=dict)

    @property
    def max_rel_err(self) -> float:
        return max(self.per_param.values(), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tol


def grad_check(
    loss_fn: Callable[[], Tensor],
    params: Sequence[Parameter],
    step: float = 1e-5,
    tol: float = 1e-6,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    The finite-difference probe always runs in float64 (float32 parameters
    are upcast for the probe and restored afterwards), so it stays a valid
    oracle for 32-bit analytic gradients. Per-parameter error is
    max|a - fd| / max(max|a|, max|fd|, 1): the unit floor stops roundoff
    noise on near-zero gradients from registering as huge relative error.

    ``loss_fn`` must read parameter values at call time and must not cache
    anything derived from them across calls.
    """
    named: list[tuple[str, Parameter]] = []
    for i, p in enumerate(params):
        name = p.name if p.name else f"param{i}"
        named.append((name, p))
    if len({n for n, _ in named}) != len(named):
        raise ValueError("parameter names must be unique")

    for _, p in named:
        p.grad = np.zeros_like(p.data)
    loss = loss_fn()
    if loss.data.size != 1:
        raise ValueError("grad_check expects a scalar loss")
    loss.backward()
    analytic = {n: np.array(p.grad, dtype=np.float64) for n, p in named}

    originals = {n: p.data for n, p in named}
    report = GradCheckReport(tol=tol)
    try:
        with no_grad():
            for _, p in named:
                p.data = p.data.astype(np.float64)
            for name, p in named:
                fd = np.zeros_like(p.data)
                flat = p.data.ravel()
                fd_flat = fd.ravel()
                for i in range(flat.size):
                    v = flat[i]
                    flat[i] = v + step
                    hi = float(loss_fn().data)
                    flat[i] = v - step
                    lo = float(loss_fn().data)
                    flat[i] = v
                    fd_flat[i] = (hi - lo) / (2.0 * step)
                a = analytic[name]
                denom = max(
                    np.abs(a).max(initial=0.0), np.abs(fd).max(initial=0.0), 1.0
                )
                report.per_param[name] = float(np.abs(a - fd).max(initial=0.0) / denom)
    finally:
        for n, p in named:
            p.data = originals[n]
    return report
