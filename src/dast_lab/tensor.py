"""Dense float64 tensors with tape-based reverse-mode autodiff.

Everything in this repo computes on these tensors. The design is the usual
micrograd-style graph: each primitive computes its forward value and hands
``_node`` one vector-Jacobian product (VJP) per input; ``_node`` alone
decides whether to record the op, and ``backward(loss)`` runs the recorded
VJPs in reverse topological order, dropping each node's edges as soon as they
have run. Compute is float64 throughout so finite-difference gradient checks
are tight.

A batch of samples is a leading axis. ``matmul``, ``transpose``,
``decay_scan`` and ``scaled_dot_attention`` take (B, ...) stacks and compute
each sample as its own product, so a sample's values are the bits it would
get on its own. A parameter enters a batched graph through ``expand(p, B)``,
one read-only copy per sample; ``expand``'s VJP, which adds the B per-sample
gradients row after row from zero, is the only place where the backward pass
sums across samples (``sum_rows`` is its forward counterpart). That is the
order in which a graph of B separate per-sample forwards would accumulate
into the parameter, so a batched step and that graph give the same gradient
bits; one BLAS product over all B*N rows would not (it differs in the last
bits).

Any non-finite value produced by a primitive aborts immediately with the name
of the offending op (silent NaN would poison every training test downstream).
Ops that only move values (reshape, transpose, concat, gather_rows,
take_per_row, expand) skip that check: every tensor they read is finite
already, because leaves are checked when made and `pipeline.AdamW` refuses an
update that would make a parameter non-finite.
"""

from __future__ import annotations

import contextlib
import itertools
import math

import numpy as np


class NonFiniteError(FloatingPointError):
    """A primitive produced NaN or Inf."""


class GraphError(RuntimeError):
    """backward() misuse: non-scalar loss or an already-consumed graph."""


_uid = itertools.count()


# ops that only move values of their inputs: an output of one is finite when
# its inputs are, so it is not checked again
_MOVES = frozenset({"reshape", "transpose", "concat", "gather_rows", "take_per_row",
                    "expand"})


def _check_finite(arr, op):
    if op not in _MOVES and not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite value produced by op '{op}'")


def _unbroadcast(g, shape):
    """Sum gradient g down to `shape` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, size in enumerate(shape):
        if size == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "op", "uid", "_prev", "_released")

    def __init__(self, data, requires_grad=False, op="leaf", prev=()):
        arr = np.asarray(data, dtype=np.float64)
        _check_finite(arr, op)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.op = op
        self.uid = next(_uid)
        self._prev = prev  # (input, vjp) pairs of a recorded op, else ()
        self._released = False

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def randn(rng, shape, scale=1.0, requires_grad=False):
        return Tensor(rng.normal(0.0, scale, shape), requires_grad=requires_grad)

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        if self.data.size != 1:
            raise GraphError(f"item() expects a scalar tensor, got shape {self.data.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self.op}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        self.grad = None

    def _accum(self, g):
        if self.grad is None:
            # one pass into a fresh array; the bits of zeros + g, signed zeros too
            self.grad = np.add(g, 0.0, out=np.empty(self.data.shape))
        else:
            self.grad += g

    # -- elementwise / arithmetic ---------------------------------------------

    def __add__(self, other):
        other = _as_tensor(other)
        return _node(self.data + other.data, "add",
                     (self, lambda g: _unbroadcast(g, self.data.shape)),
                     (other, lambda g: _unbroadcast(g, other.data.shape)))

    __radd__ = __add__

    def __mul__(self, other):
        other = _as_tensor(other)
        return _node(self.data * other.data, "mul",
                     (self, lambda g: _unbroadcast(g * other.data, self.data.shape)),
                     (other, lambda g: _unbroadcast(g * self.data, other.data.shape)))

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
        return _node(data, f"pow{e}", (self, lambda g: g * e * self.data ** (e - 1.0)))

    def __matmul__(self, other):
        return matmul(self, other)

    def exp(self):
        with np.errstate(all="ignore"):
            data = np.exp(self.data)
        return _node(data, "exp", (self, lambda g: g * data))

    def log(self):
        with np.errstate(all="ignore"):
            data = np.log(self.data)
        return _node(data, "log", (self, lambda g: g / self.data))

    def tanh(self):
        data = np.tanh(self.data)
        return _node(data, "tanh", (self, lambda g: g * (1.0 - data ** 2)))

    def sigmoid(self):
        x = self.data
        z = np.exp(-np.abs(x))
        s = np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
        return _node(s, "sigmoid", (self, lambda g: g * s * (1.0 - s)))

    def relu(self):
        return _node(np.maximum(self.data, 0.0), "relu",
                     (self, lambda g: g * (self.data > 0.0)))

    def gelu(self):
        # tanh approximation; smooth everywhere, which keeps grad checks clean
        c = math.sqrt(2.0 / math.pi)
        x = self.data
        # x * x * x, not x ** 3: numpy's power takes a slow scalar path for
        # negative bases, about a hundred times slower
        inner = c * (x + 0.044715 * (x * x * x))
        t = np.tanh(inner)

        def vjp(g):
            d_inner = c * (1.0 + 3 * 0.044715 * x ** 2)
            return g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t ** 2) * d_inner)
        return _node(0.5 * x * (1.0 + t), "gelu", (self, vjp))

    # -- shape ops --------------------------------------------------------------

    def reshape(self, *shape):
        return _node(self.data.reshape(shape), "reshape",
                     (self, lambda g: g.reshape(self.data.shape)))

    def transpose(self):
        """Swap the last two axes of a 2-d tensor or of a (B, n, m) stack."""
        if self.data.ndim not in (2, 3):
            raise ValueError(f"transpose expects a 2-d tensor or a (B, n, m) stack, "
                             f"got shape {self.data.shape}")
        return _node(self.data.swapaxes(-1, -2).copy(), "transpose",
                     (self, lambda g: g.swapaxes(-1, -2)))

    # -- reductions ---------------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        def vjp(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return np.broadcast_to(g, self.data.shape)
        return _node(self.data.sum(axis=axis, keepdims=keepdims), "sum", (self, vjp))

    def mean(self, axis=None, keepdims=False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


_recording = True  # False inside no_grad()


@contextlib.contextmanager
def no_grad():
    """Ops inside the block record nothing: each output is an unrecorded
    tensor, as if no input required grad. Recording resumes on exit, also
    when the block raises."""
    global _recording
    was, _recording = _recording, False
    try:
        yield
    finally:
        _recording = was


def _node(data, op, *edges):
    """Wrap an op's output; edges are its (input, vjp) pairs in input order.

    Nothing is recorded inside no_grad() or unless some input requires grad.
    Otherwise the edges become the output's _prev, and backward adds
    vjp(out.grad) to the .grad of each input that requires grad at that time.
    The edges are kept as given rather than wrapped in a closure per node: on
    a stage-1 step that closure doubled the garbage collector's passes.
    """
    if _recording:
        for t, _ in edges:
            if t.requires_grad:
                return Tensor(data, True, op, edges)
    return Tensor(data, False, op)


# -- matrix / sequence primitives ------------------------------------------------


def matmul(a, b):
    """Matrix product of two 2-d tensors, or of (B, n, k) and (B, k, m) stacks.

    A stack is one product per sample, with the bits of the 2-d product. A
    stack times a shared 2-d weight is refused: its weight gradient would be
    one product over all B*n rows. Multiply by `expand(weight, B)` instead.
    """
    if a.data.ndim not in (2, 3) or b.data.ndim != a.data.ndim:
        raise ValueError(f"matmul expects two 2-d tensors or two 3-d stacks, "
                         f"got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[:-2] != b.data.shape[:-2] or a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(f"matmul dimensions disagree: {a.data.shape} @ {b.data.shape}")
    return _node(a.data @ b.data, "matmul",
                 (a, lambda g: g @ b.data.swapaxes(-1, -2)),
                 (b, lambda g: a.data.swapaxes(-1, -2) @ g))


def _sum_rows(arr):
    """Sum over the leading axis, row after row from zero."""
    total = np.zeros(arr.shape[1:])
    for row in arr:
        total += row
    return total


def expand(x, n):
    """x repeated along a new leading axis of n rows: (n, *x.shape).

    The forward is a read-only broadcast view. The VJP adds the n row
    gradients in row order from zero, as n separate uses of x would
    accumulate them; numpy's sum is free to pair terms up (it does along a
    contiguous axis), which rounds differently.
    """
    return _node(np.broadcast_to(x.data, (n,) + x.data.shape), "expand", (x, _sum_rows))


def sum_rows(x):
    """Sum over the leading axis, row after row from zero: the value of a
    chain of adds over per-sample terms (`expand` is its adjoint)."""
    return _node(_sum_rows(x.data), "sum_rows",
                 (x, lambda g: np.broadcast_to(g, x.data.shape)))


def softmax(x, axis=-1):
    """Max-shifted softmax along `axis`; rows sum to 1 for any finite input."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    return _node(y, "softmax", (x, lambda g: y * (g - (g * y).sum(axis=axis, keepdims=True))))


def logsumexp(x, axis):
    """log(sum(exp(x))) along `axis`, max-shifted; adjoint is the softmax."""
    m = x.data.max(axis=axis, keepdims=True)
    e = np.exp(x.data - m)
    s = e.sum(axis=axis, keepdims=True)
    return _node(np.squeeze(np.log(s) + m, axis=axis), "logsumexp",
                 (x, lambda g: np.expand_dims(g, axis) * e / s))


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

    def x_vjp(g):
        gx = g * gdata
        return inv * (gx - gx.mean(axis=-1, keepdims=True)
                      - xhat * (gx * xhat).mean(axis=-1, keepdims=True))
    edges = [(x, x_vjp)]
    if gamma is not None:
        edges.append((gamma, lambda g: (g * xhat).reshape(-1, d).sum(axis=0)
                      .reshape(gamma.data.shape)))
    if beta is not None:
        edges.append((beta, lambda g: g.reshape(-1, d).sum(axis=0).reshape(beta.data.shape)))
    return _node(xhat * gdata + bdata, "layer_norm", *edges)


def concat(tensors, axis=0):
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    edges, lo = [], 0
    for t in tensors:
        hi = lo + t.data.shape[axis]
        edges.append((t, lambda g, lo=lo, hi=hi: g[(slice(None),) * (axis % g.ndim)
                                                   + (slice(lo, hi),)]))
        lo = hi
    return _node(data, "concat", *edges)


def _scatter_add(like, index, g):
    """Zeros shaped like `like` with g added at `index`; repeats accumulate."""
    full = np.zeros_like(like)
    np.add.at(full, index, g)
    return full


def gather_rows(x, indices):
    """Select entries along axis 0; duplicate indices accumulate gradient."""
    idx = np.asarray(indices, dtype=np.int64)
    return _node(x.data[idx], "gather_rows", (x, lambda g: _scatter_add(x.data, idx, g)))


def take_per_row(x, cols):
    """out[i] = x[i, cols[i]] for a 2-d tensor."""
    cols = np.asarray(cols, dtype=np.int64)
    rows = np.arange(x.data.shape[0])
    return _node(x.data[rows, cols], "take_per_row",
                 (x, lambda g: _scatter_add(x.data, (rows, cols), g)))


def decay_scan(decay, u):
    """Linear recurrence h_i = decay * h_{i-1} + u_i along the token axis.

    decay (C,) with u (N, C), or a stack: decay (B, C) with u (B, N, C). One
    Python pass over N forward and one reverse pass backward, so cost is
    O(B*N*C); every step is elementwise, so each sample gets its own bits.
    """
    a, x = decay.data, u.data
    if a.ndim not in (1, 2) or x.ndim != a.ndim + 1 or a.shape[:-1] != x.shape[:-2] \
            or a.shape[-1] != x.shape[-1]:
        raise ValueError(f"decay_scan shapes disagree: decay {a.shape}, u {x.shape}")
    h = np.empty_like(x)
    # views with the token axis first, where indexing a step is cheapest
    xs, hs = x.swapaxes(0, -2), h.swapaxes(0, -2)
    state = np.zeros_like(a)
    for i in range(len(xs)):
        state = a * state + xs[i]
        hs[i] = state

    def reverse_scan(g):
        gbar = np.empty_like(g)
        gs, out = g.swapaxes(0, -2), gbar.swapaxes(0, -2)
        acc = np.zeros_like(a)
        for i in range(len(gs) - 1, -1, -1):
            acc = gs[i] + a * acc
            out[i] = acc
        return gbar

    # vjps run in input order, so decay's leaves its reverse scan for u's
    scanned = []

    def decay_vjp(g):
        scanned.append(reverse_scan(g))
        # dL/da_c = sum_i gbar[i] * h[i-1]
        return (scanned[0][..., 1:, :] * h[..., :-1, :]).sum(axis=-2)
    return _node(h, "decay_scan", (decay, decay_vjp),
                 (u, lambda g: scanned.pop() if scanned else reverse_scan(g)))


def scaled_dot_attention(q, k, v, mask=None):
    """softmax(q kᵀ / sqrt(C) [+ mask]) v over 2-d q, k, v or (B, ., C) stacks.

    Returns (output, weights); weight rows sum to 1.
    """
    nd = q.data.ndim
    if nd not in (2, 3) or k.data.ndim != nd or v.data.ndim != nd:
        raise ValueError("scaled_dot_attention expects 2-d q, k, v or three (B, ., C) stacks")
    if q.data.shape[-1] != k.data.shape[-1] or k.data.shape[-2] != v.data.shape[-2]:
        raise ValueError(f"scaled_dot_attention shapes disagree: "
                         f"q {q.data.shape}, k {k.data.shape}, v {v.data.shape}")
    scale = 1.0 / math.sqrt(q.data.shape[-1])
    scores = matmul(q, k.transpose()) * scale
    if mask is not None:
        scores = scores + mask
    weights = softmax(scores, axis=-1)
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
            for p, _ in t._prev:
                if p not in seen:
                    push((p, False))
    return topo


def backward(loss, sink=None):
    """Fill .grad of every requires_grad tensor reachable from a scalar loss.

    The graph is released as it runs: each node drops its edges once its
    VJPs have run, so an intermediate gradient nobody holds is freed at once
    rather than at the end. A second call on the same loss raises.

    With `sink`, a list, each contribution to a leaf (a tensor that records
    no inputs) is appended to it as a (leaf, gradient) pair instead, in the
    order a plain call adds it, and no leaf's .grad changes. Calling
    `leaf._accum(gradient)` over the pairs in order then gives the bits of a
    plain call.
    """
    if loss.data.size != 1:
        raise GraphError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if loss._released:
        raise GraphError("computation graph already consumed; "
                         "rebuild the forward pass before calling backward again")
    topo = _topological_order(loss)
    loss.grad = np.ones_like(loss.data)
    while topo:
        t = topo.pop()
        for p, vjp in t._prev:
            if p.requires_grad:
                if sink is None or p._prev:
                    p._accum(vjp(t.grad))
                else:
                    sink.append((p, vjp(t.grad)))
        t._released = True
        t._prev = ()


def computation_record(t):
    """Ordered (op, input_uids, output_uid) triples for the recorded graph.

    Topological: every output uid appears after all of its input uids.
    """
    return [(n.op, tuple(p.uid for p, _ in n._prev), n.uid) for n in _topological_order(t)]


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
