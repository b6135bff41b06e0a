"""Dense float64 tensors with tape-based reverse-mode autodiff.

Everything in this repo computes on these tensors. The design is the usual
micrograd-style graph: each op wires a backward closure onto its output, and
``backward(loss)`` replays adjoints in reverse topological order. Compute is
float64 throughout so finite-difference gradient checks are tight.

Any non-finite value produced by a primitive aborts immediately with the name
of the offending op (silent NaN would poison every training test downstream).
"""

from __future__ import annotations

import itertools
import math

import numpy as np


class NonFiniteError(FloatingPointError):
    """A primitive produced NaN or Inf."""


class GraphError(RuntimeError):
    """backward() misuse: non-scalar loss or an already-consumed graph."""


_uid = itertools.count()


def _check_finite(arr, op):
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite value produced by op '{op}'")


def _unbroadcast(g, shape):
    """Sum gradient g down to `shape` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, size in enumerate(shape):
        if size == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "op", "uid",
                 "_prev", "_backward", "_released")

    def __init__(self, data, requires_grad=False, op="leaf", prev=()):
        arr = np.asarray(data, dtype=np.float64)
        _check_finite(arr, op)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.op = op
        self.uid = next(_uid)
        self._prev = prev
        self._backward = None
        self._released = False

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def zeros(*shape, requires_grad=False):
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape, requires_grad=False):
        return Tensor(np.ones(shape), requires_grad=requires_grad)

    @staticmethod
    def randn(rng, shape, scale=1.0, requires_grad=False):
        return Tensor(rng.normal(0.0, scale, shape), requires_grad=requires_grad)

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._scalar_err()

    def _scalar_err(self):
        raise GraphError(f"item() expects a scalar tensor, got shape {self.data.shape}")

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self.op}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        self.grad = None

    def _accum(self, g):
        if self.grad is None:
            self.grad = np.zeros(self.data.shape)
        self.grad += g

    # -- elementwise / arithmetic ---------------------------------------------

    def __add__(self, other):
        other = _as_tensor(other)
        out = _node(self.data + other.data, (self, other), "add")
        if out._prev:
            def bwd():
                if self.requires_grad:
                    self._accum(_unbroadcast(out.grad, self.data.shape))
                if other.requires_grad:
                    other._accum(_unbroadcast(out.grad, other.data.shape))
            out._backward = bwd
        return out

    __radd__ = __add__

    def __mul__(self, other):
        other = _as_tensor(other)
        out = _node(self.data * other.data, (self, other), "mul")
        if out._prev:
            def bwd():
                if self.requires_grad:
                    self._accum(_unbroadcast(out.grad * other.data, self.data.shape))
                if other.requires_grad:
                    other._accum(_unbroadcast(out.grad * self.data, other.data.shape))
            out._backward = bwd
        return out

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        return self + (-_as_tensor(other))

    def __rsub__(self, other):
        return _as_tensor(other) + (-self)

    def __truediv__(self, other):
        return self * (_as_tensor(other) ** -1.0)

    def __rtruediv__(self, other):
        return _as_tensor(other) * (self ** -1.0)

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        e = float(exponent)
        with np.errstate(all="ignore"):  # non-finite results raise below anyway
            data = self.data ** e
        out = _node(data, (self,), f"pow{e}")
        if out._prev:
            def bwd():
                if self.requires_grad:
                    self._accum(out.grad * e * self.data ** (e - 1.0))
            out._backward = bwd
        return out

    def __matmul__(self, other):
        return matmul(self, other)

    def exp(self):
        with np.errstate(all="ignore"):
            data = np.exp(self.data)
        out = _node(data, (self,), "exp")
        if out._prev:
            def bwd():
                if self.requires_grad:
                    self._accum(out.grad * out.data)
            out._backward = bwd
        return out

    def log(self):
        with np.errstate(all="ignore"):
            data = np.log(self.data)
        out = _node(data, (self,), "log")
        if out._prev:
            def bwd():
                if self.requires_grad:
                    self._accum(out.grad / self.data)
            out._backward = bwd
        return out

    def tanh(self):
        out = _node(np.tanh(self.data), (self,), "tanh")
        if out._prev:
            def bwd():
                if self.requires_grad:
                    self._accum(out.grad * (1.0 - out.data ** 2))
            out._backward = bwd
        return out

    def sigmoid(self):
        x = self.data
        s = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                     np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
        out = _node(s, (self,), "sigmoid")
        if out._prev:
            def bwd():
                if self.requires_grad:
                    self._accum(out.grad * out.data * (1.0 - out.data))
            out._backward = bwd
        return out

    def relu(self):
        out = _node(np.maximum(self.data, 0.0), (self,), "relu")
        if out._prev:
            def bwd():
                if self.requires_grad:
                    self._accum(out.grad * (self.data > 0.0))
            out._backward = bwd
        return out

    def gelu(self):
        # tanh approximation; smooth everywhere, which keeps grad checks clean
        c = math.sqrt(2.0 / math.pi)
        x = self.data
        inner = c * (x + 0.044715 * x ** 3)
        t = np.tanh(inner)
        out = _node(0.5 * x * (1.0 + t), (self,), "gelu")
        if out._prev:
            def bwd():
                if self.requires_grad:
                    d_inner = c * (1.0 + 3 * 0.044715 * x ** 2)
                    self._accum(out.grad * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t ** 2) * d_inner))
            out._backward = bwd
        return out

    # -- shape ops --------------------------------------------------------------

    def reshape(self, *shape):
        out = _node(self.data.reshape(shape), (self,), "reshape")
        if out._prev:
            def bwd():
                if self.requires_grad:
                    self._accum(out.grad.reshape(self.data.shape))
            out._backward = bwd
        return out

    def transpose(self):
        if self.data.ndim != 2:
            raise ValueError(f"transpose expects a 2-d tensor, got shape {self.data.shape}")
        out = _node(self.data.T.copy(), (self,), "transpose")
        if out._prev:
            def bwd():
                if self.requires_grad:
                    self._accum(out.grad.T)
            out._backward = bwd
        return out

    # -- reductions ---------------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        out = _node(self.data.sum(axis=axis, keepdims=keepdims), (self,), "sum")
        if out._prev:
            def bwd():
                if self.requires_grad:
                    g = out.grad
                    if axis is not None and not keepdims:
                        g = np.expand_dims(g, axis)
                    self._accum(np.broadcast_to(g, self.data.shape).copy())
            out._backward = bwd
        return out

    def mean(self, axis=None, keepdims=False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data, inputs, op):
    """Wire an op output into the graph (records only when grads can flow)."""
    requires_grad = any(t.requires_grad for t in inputs)
    return Tensor(data, requires_grad, op, tuple(inputs) if requires_grad else ())


# -- matrix / sequence primitives ------------------------------------------------


def matmul(a, b):
    """Standard 2-d matrix product with recorded adjoints."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError(f"matmul expects 2-d tensors, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul inner dimensions disagree: {a.data.shape} @ {b.data.shape}")
    out = _node(a.data @ b.data, (a, b), "matmul")
    if out._prev:
        def bwd():
            if a.requires_grad:
                a._accum(out.grad @ b.data.T)
            if b.requires_grad:
                b._accum(a.data.T @ out.grad)
        out._backward = bwd
    return out


def softmax(x, axis=-1):
    """Max-shifted softmax along `axis`; rows sum to 1 for any finite input."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    out = _node(y, (x,), "softmax")
    if out._prev:
        def bwd():
            if x.requires_grad:
                g = out.grad
                x._accum(y * (g - (g * y).sum(axis=axis, keepdims=True)))
        out._backward = bwd
    return out


def logsumexp(x, axis):
    """log(sum(exp(x))) along `axis`, max-shifted; adjoint is the softmax."""
    m = x.data.max(axis=axis, keepdims=True)
    e = np.exp(x.data - m)
    s = e.sum(axis=axis, keepdims=True)
    out = _node(np.squeeze(np.log(s) + m, axis=axis), (x,), "logsumexp")
    if out._prev:
        def bwd():
            if x.requires_grad:
                g = np.expand_dims(out.grad, axis)
                x._accum(g * e / s)
        out._backward = bwd
    return out


def layer_norm(x, gamma=None, beta=None, eps=1e-5):
    """Normalize the last axis to zero mean / unit variance, then affine.

    gamma/beta may be None, meaning the fixed identity affine (1, 0); only the
    projection path in this repo carries trainable affine parameters.
    """
    d = x.data.shape[-1]
    mu = x.data.mean(axis=-1, keepdims=True)
    var = ((x.data - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    gdata = gamma.data if gamma is not None else 1.0
    bdata = beta.data if beta is not None else 0.0
    inputs = [x] + [t for t in (gamma, beta) if t is not None]
    out = _node(xhat * gdata + bdata, tuple(inputs), "layer_norm")
    if out._prev:
        def bwd():
            g = out.grad
            if gamma is not None and gamma.requires_grad:
                gamma._accum((g * xhat).reshape(-1, d).sum(axis=0).reshape(gamma.data.shape))
            if beta is not None and beta.requires_grad:
                beta._accum(g.reshape(-1, d).sum(axis=0).reshape(beta.data.shape))
            if x.requires_grad:
                gx = g * gdata
                x._accum(inv * (gx - gx.mean(axis=-1, keepdims=True)
                                - xhat * (gx * xhat).mean(axis=-1, keepdims=True)))
        out._backward = bwd
    return out


def concat(tensors, axis=0):
    tensors = list(tensors)
    out = _node(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), "concat")
    if out._prev:
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def bwd():
            for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
                if t.requires_grad:
                    idx = [slice(None)] * out.grad.ndim
                    idx[axis] = slice(lo, hi)
                    t._accum(out.grad[tuple(idx)])
        out._backward = bwd
    return out


def gather_rows(x, indices):
    """Select rows of a 2-d tensor; duplicate indices accumulate gradient."""
    idx = np.asarray(indices, dtype=np.int64)
    out = _node(x.data[idx], (x,), "gather_rows")
    if out._prev:
        def bwd():
            if x.requires_grad:
                g = np.zeros_like(x.data)
                np.add.at(g, idx, out.grad)
                x._accum(g)
        out._backward = bwd
    return out


def take_per_row(x, cols):
    """out[i] = x[i, cols[i]] for a 2-d tensor."""
    cols = np.asarray(cols, dtype=np.int64)
    rows = np.arange(x.data.shape[0])
    out = _node(x.data[rows, cols], (x,), "take_per_row")
    if out._prev:
        def bwd():
            if x.requires_grad:
                g = np.zeros_like(x.data)
                np.add.at(g, (rows, cols), out.grad)
                x._accum(g)
        out._backward = bwd
    return out


def decay_scan(decay, u):
    """Linear recurrence h_i = decay * h_{i-1} + u_i over axis 0.

    decay has shape (C,), u has shape (N, C); one Python pass forward and one
    reverse pass backward, so cost is O(N*C).
    """
    if decay.data.ndim != 1 or u.data.ndim != 2 or decay.data.shape[0] != u.data.shape[1]:
        raise ValueError(f"decay_scan shapes disagree: decay {decay.data.shape}, u {u.data.shape}")
    a = decay.data
    h = np.empty_like(u.data)
    state = np.zeros_like(a)
    for i in range(u.data.shape[0]):
        state = a * state + u.data[i]
        h[i] = state
    out = _node(h, (decay, u), "decay_scan")
    if out._prev:
        def bwd():
            g = out.grad
            gbar = np.empty_like(g)
            acc = np.zeros_like(a)
            for i in range(g.shape[0] - 1, -1, -1):
                acc = g[i] + a * acc
                gbar[i] = acc
            if u.requires_grad:
                u._accum(gbar)
            if decay.requires_grad:
                # dL/da_c = sum_i gbar[i] * h[i-1], h[0-1] = 0
                decay._accum((gbar[1:] * h[:-1]).sum(axis=0))
        out._backward = bwd
    return out


def scaled_dot_attention(q, k, v):
    """softmax(q kᵀ / sqrt(C)) v. Returns (output, weights); weight rows sum to 1."""
    if q.data.ndim != 2 or k.data.ndim != 2 or v.data.ndim != 2:
        raise ValueError("scaled_dot_attention expects 2-d q, k, v")
    if q.data.shape[1] != k.data.shape[1] or k.data.shape[0] != v.data.shape[0]:
        raise ValueError(f"scaled_dot_attention shapes disagree: "
                         f"q {q.data.shape}, k {k.data.shape}, v {v.data.shape}")
    scale = 1.0 / math.sqrt(q.data.shape[1])
    weights = softmax(matmul(q, k.transpose()) * scale, axis=1)
    return matmul(weights, v), weights


# -- backward / verification ------------------------------------------------------


def _topological_order(root):
    """Every node reachable from root, each after all of its inputs."""
    topo = []
    seen = set()
    stack = [(root, False)]
    push, pop = stack.append, stack.pop
    while stack:
        t, done = pop()
        if done:
            topo.append(t)
        elif t not in seen:
            seen.add(t)
            push((t, True))
            for p in t._prev:
                if p not in seen:
                    push((p, False))
    return topo


def backward(loss):
    """Fill .grad of every requires_grad tensor reachable from a scalar loss.

    The graph is released afterwards; a second call on the same loss raises.
    """
    if loss.data.size != 1:
        raise GraphError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if loss._released:
        raise GraphError("computation graph already consumed; "
                         "rebuild the forward pass before calling backward again")
    topo = _topological_order(loss)
    loss.grad = np.ones_like(loss.data)
    for t in reversed(topo):
        if t._backward is not None:
            t._backward()
    for t in topo:
        t._released = True
        t._backward = None
        t._prev = ()


def computation_record(t):
    """Ordered (op, input_uids, output_uid) triples for the recorded graph.

    Topological: every output uid appears after all of its input uids.
    """
    return [(n.op, tuple(p.uid for p in n._prev), n.uid) for n in _topological_order(t)]


def grad_check(f, params, eps=1e-5):
    """Max relative error between autodiff and central-difference gradients.

    f maps the given parameter tensors to a scalar loss. Relative error per
    coordinate is |g_ad - g_fd| / max(1, |g_ad|, |g_fd|).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    for p in params:
        p.zero_grad()
    loss = f(params)
    backward(loss)
    ad_grads = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    worst = 0.0
    for p, g_ad in zip(params, ad_grads):
        flat = p.data.reshape(-1)
        g_flat = g_ad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = f(params).item()
            flat[i] = orig - eps
            lo = f(params).item()
            flat[i] = orig
            g_fd = (hi - lo) / (2.0 * eps)
            err = abs(g_flat[i] - g_fd) / max(1.0, abs(g_flat[i]), abs(g_fd))
            worst = max(worst, err)
    return worst
