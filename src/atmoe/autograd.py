"""A small reverse-mode automatic differentiation engine over float64 numpy arrays.

Each op records its parents and a closure that pushes the upstream gradient
through the local Jacobian. ``backward()`` walks the graph in reverse
topological order. The op set is exactly what the transformer and routing
stack need; masks, token ids, temperatures and the frozen base weights enter
ops as plain numpy data, never as graph nodes.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

import numpy as np


def _sum_to_shape(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the shape of its source."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


class Tensor:
    """Node in the computation graph wrapping a float64 ndarray."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def _accumulate(self, g: np.ndarray) -> None:
        # Stored as handed over, later ones summed out of place: no stored
        # gradient is ever written, so nodes may share one (see ``add``).
        if g.shape != self.data.shape:
            raise ValueError(f"gradient of shape {g.shape} for a tensor of shape {self.data.shape}")
        self.grad = g if self.grad is None else self.grad + g

    def backward(self) -> None:
        """Reverse accumulation from this (scalar) node."""
        if self.data.size != 1:
            raise ValueError("backward() expects a scalar loss")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)

    def bwd(g):
        if a.requires_grad:
            a._accumulate(_sum_to_shape(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_sum_to_shape(g, b.data.shape))

    return _make(a.data + b.data, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)

    def bwd(g):
        if a.requires_grad:
            a._accumulate(_sum_to_shape(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_sum_to_shape(g * a.data, b.data.shape))

    return _make(a.data * b.data, (a, b), bwd)


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)

    def bwd(g):
        if a.requires_grad:
            ga = g @ np.swapaxes(b.data, -1, -2)
            a._accumulate(_sum_to_shape(ga, a.data.shape))
        if b.requires_grad:
            gb = np.swapaxes(a.data, -1, -2) @ g
            b._accumulate(_sum_to_shape(gb, b.data.shape))

    return _make(a.data @ b.data, (a, b), bwd)


def linear(x: Tensor, w: np.ndarray, b: np.ndarray | None = None) -> Tensor:
    """``x @ w.T (+ b)`` as one node: x is [N, d_in], the constants w
    [d_out, d_in] and b [d_out]. Only ``x`` gets a gradient."""

    def bwd(g):
        x._accumulate(g @ w)

    out = x.data @ w.T
    return _make(out if b is None else out + b, (x,), bwd)


def lora_mixture(x: Tensor, coef, As, Bs) -> Tensor:
    """``sum_e coef[:, e] * (x @ As[e].T) @ Bs[e].T`` as one node.

    ``x`` is [N, k] and ``coef`` [N, E], a Tensor or a constant array; each
    ``As[e]`` is [r_e, k] and ``Bs[e]`` [d, r_e]. A coefficient scales a whole
    row, so it is applied to the rank-r codes between the two factors, and
    every adapter runs in two GEMMs over the stacked factors.
    """
    coef = _wrap(coef)
    As, Bs = tuple(As), tuple(Bs)
    ranks = [a.data.shape[0] for a in As]
    starts = np.cumsum([0] + ranks[:-1])
    a_cat = np.concatenate([a.data for a in As])           # [R, k]
    b_cat = np.concatenate([b.data for b in Bs], axis=1)   # [d, R]
    z = x.data @ a_cat.T                                   # [N, R]

    def scaled(a):
        # Each row's coefficients, repeated over the rank of their adapter.
        # Recomputed rather than kept, so the graph holds one [N, R] array.
        return a * np.repeat(coef.data, ranks, axis=1)

    def bwd(g):
        if any(b.requires_grad for b in Bs):
            for b, gb in zip(Bs, np.split(g.T @ scaled(z), starts[1:], axis=1)):
                if b.requires_grad:
                    b._accumulate(gb)
        if not (x.requires_grad or coef.requires_grad or any(a.requires_grad for a in As)):
            return
        gzc = g @ b_cat
        if coef.requires_grad:
            coef._accumulate(np.add.reduceat(gzc * z, starts, axis=1))
        gz = scaled(gzc)
        if any(a.requires_grad for a in As):
            for a, ga in zip(As, np.split(gz.T @ x.data, starts[1:])):
                if a.requires_grad:
                    a._accumulate(ga)
        if x.requires_grad:
            x._accumulate(gz @ a_cat)

    return _make(scaled(z) @ b_cat.T, (x, coef, *As, *Bs), bwd)


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    inv = np.argsort(axes)

    def bwd(g):
        a._accumulate(g.transpose(inv))

    return _make(a.data.transpose(axes), (a,), bwd)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    orig = a.data.shape

    def bwd(g):
        a._accumulate(g.reshape(orig))

    return _make(a.data.reshape(shape), (a,), bwd)


def getitem(a: Tensor, key) -> Tensor:
    """Slice, int or index-array indexing; the selected elements must be
    disjoint, as the backward assigns each its gradient: an index array
    must not repeat an index."""

    def bwd(g):
        ga = np.zeros_like(a.data)
        ga[key] = g
        a._accumulate(ga)

    return _make(a.data[key], (a,), bwd)


_GELU_K = math.sqrt(2.0 / math.pi)


def gelu(a: Tensor) -> Tensor:
    """``0.5 x (1 + tanh(k (x + 0.044715 x^3)))``, k = sqrt(2/pi). Forward and
    backward work in place on fresh arrays, in the formula's operation order."""
    x = a.data
    t = x * x
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_K
    np.tanh(t, out=t)
    out = x * 0.5
    out *= t + 1.0

    def bwd(g):
        # g * (0.5 (1 + t) + 0.5 x (1 - t^2) du), du = k (1 + 3 * 0.044715 x^2)
        du = x * x
        du *= 3 * 0.044715
        du += 1.0
        du *= _GELU_K
        dt = t * t
        np.subtract(1.0, dt, out=dt)
        ga = x * 0.5
        ga *= dt
        ga *= du
        np.add(t, 1.0, out=dt)
        dt *= 0.5
        ga += dt
        ga *= g
        a._accumulate(ga)

    return _make(out, (a,), bwd)


def layer_norm(x: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalization over the last axis to zero mean and unit variance. Means
    are ``np.add.reduce / n``, which is what ``ndarray.mean`` computes; the
    rest works in place on fresh arrays, never on ``x.data`` or ``g``."""
    n = x.data.shape[-1]
    xhat = x.data - np.add.reduce(x.data, axis=-1, keepdims=True) / n
    var = np.add.reduce(xhat * xhat, axis=-1, keepdims=True) / n
    var += eps
    np.sqrt(var, out=var)
    inv = np.divide(1.0, var, out=var)
    xhat *= inv

    def bwd(g):
        m1 = np.add.reduce(g, axis=-1, keepdims=True) / n
        t = g * xhat
        m2 = np.add.reduce(t, axis=-1, keepdims=True) / n
        np.multiply(xhat, m2, out=t)
        ga = g - m1
        ga -= t
        ga *= inv
        x._accumulate(ga)

    return _make(xhat, (x,), bwd)


def masked_temp_softmax(logits: Tensor, mask: np.ndarray | None, tau: float) -> Tensor:
    """Softmax over the last axis after dividing by ``tau``.

    Slots where ``mask`` is False get probability exactly 0 and receive no
    gradient. Every row must keep at least one unmasked slot.
    """
    y = _masked_softmax(logits.data / tau, mask)

    def bwd(g):
        logits._accumulate(_sum_to_shape(_softmax_vjp(g, y) / tau, logits.data.shape))

    return _make(y, (logits,), bwd)


def _masked_softmax(z: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    """Softmax over the last axis, in place: ``z`` must be a fresh array.
    Masked slots get an additive -inf, so they come out exactly 0."""
    if mask is not None:
        z += np.where(mask, 0.0, -np.inf)
    # the row max column by column: numpy's reduction pays per row, and these
    # rows are short; a max is exact in any order
    top = z[..., 0].copy()
    for j in range(1, z.shape[-1]):
        np.maximum(top, z[..., j], out=top)
    z -= top[..., None]
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _softmax_vjp(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. the softmax input, given output ``y`` and upstream ``g``."""
    return (g - (g * y).sum(axis=-1, keepdims=True)) * y


def causal_attention(a: Tensor, wq: np.ndarray, wk: np.ndarray, wv: np.ndarray,
                     wo: np.ndarray, n_heads: int, q0: int = 0) -> Tensor:
    """Causal multi-head self-attention as one node.

    ``a`` is [B, T, d]; each weight is a constant [d, d] array, applied as
    ``x @ w.T``. Each query sees its own and earlier positions; scores are
    scaled by ``1/sqrt(d/n_heads)`` before the softmax. Only positions ``q0``
    and later are queries, so the output is [B, T - q0, d]; every position
    stays a key and a value. Only ``a`` gets a gradient.

    A head whose ``wv`` rows or ``wo`` columns are all zero adds exact zeros.
    The weights are sliced once to the span from the first live head to the
    last, and every GEMM, forward and backward, runs over that span alone.
    That drops whole outputs of the projections and exact-zero terms at the
    ends of the output and input-gradient contractions, so a GEMM that sums
    each output in order over its inner dimension keeps every bit (the
    README names the BLAS kernels that do not).
    """
    B, T, d = a.data.shape
    Tq = T - q0
    dh = d // n_heads
    scale = 1.0 / np.sqrt(dh)
    af = a.data.reshape(B * T, d)
    aq = a.data[:, q0:].reshape(B * Tq, d)
    live = np.flatnonzero(wv.reshape(n_heads, -1).any(axis=1)
                          & wo.reshape(d, n_heads, dh).any(axis=(0, 2)))
    lo, hi = (live[0] * dh, (live[-1] + 1) * dh) if len(live) else (0, 0)
    wq, wk, wv, wo = wq[lo:hi], wk[lo:hi], wv[lo:hi], wo[:, lo:hi]

    def split(xf):  # [B*n, hi - lo] -> [B, live heads, n, dh]
        return xf.reshape(B, len(xf) // B, (hi - lo) // dh, dh).transpose(0, 2, 1, 3)

    def merge(xh):  # [B, live heads, n, dh] -> [B*n, hi - lo]
        return xh.transpose(0, 2, 1, 3).reshape(B * xh.shape[2], hi - lo)

    q, k, v = split(aq @ wq.T), split(af @ wk.T), split(af @ wv.T)
    causal = np.arange(T)[None, :] <= np.arange(q0, T)[:, None]  # [T - q0, T]
    y = _masked_softmax((q @ k.transpose(0, 1, 3, 2)) * scale, causal)

    def bwd(g):
        go = split(g.reshape(B * Tq, d) @ wo)
        gs = _softmax_vjp(go @ v.transpose(0, 1, 3, 2), y) * scale
        gq, gk, gv = (merge(gh) for gh in (gs @ k, gs.transpose(0, 1, 3, 2) @ q,
                                            y.transpose(0, 1, 3, 2) @ go))
        # summed in the order (gq + gk) + gv, as when every position queries
        ga = np.zeros((B, T, d))
        ga[:, q0:] = (gq @ wq).reshape(B, Tq, d)
        ga += (gk @ wk).reshape(B, T, d)
        ga += (gv @ wv).reshape(B, T, d)
        a._accumulate(ga)

    return _make((merge(y @ v) @ wo.T).reshape(B, Tq, d), (a,), bwd)


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean of per-row ``-log p(target)``; ``logits`` is [N, V], ``targets``
    [N] int."""
    targets = np.asarray(targets, dtype=np.int64)
    n = len(targets)
    if n == 0:
        raise ValueError("cross_entropy: no rows to score")
    z = logits.data
    c = z.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z - c).sum(axis=-1, keepdims=True)) + c
    rows = np.arange(n)
    loss = (lse[:, 0] - z[rows, targets]).sum() / n

    def bwd(g):
        p = np.exp(z - lse)
        p[rows, targets] -= 1.0
        logits._accumulate(p * (1.0 / n) * g)

    return _make(np.asarray(loss), (logits,), bwd)


def parameters(arrays: dict[str, np.ndarray], trainable: Iterable[str]) -> dict[str, Tensor]:
    """Wrap a named array store as graph leaves, marking the trainable subset."""
    trainable = set(trainable)
    unknown = trainable - arrays.keys()
    if unknown:
        raise KeyError(f"unknown trainable parameters: {sorted(unknown)}")
    return {k: Tensor(v, requires_grad=(k in trainable)) for k, v in arrays.items()}
