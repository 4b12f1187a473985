"""Minimal numpy tensor library with reverse-mode automatic differentiation.

Tensors hold float64 numpy arrays; only a constant made from a float32
array (proposal features, as stored) keeps it, and an op that reads it
computes in float64. Operations executed while a Tape is active are
recorded in execution (topological) order; ``backward`` walks the tape
once in reverse and accumulates gradients into every tensor that requires
them. The 17 ops are the ones the model runs. The loss's two
primitives are one node each: ``hinge`` sums the margin ranking hinge
max(0, neg - pos + delta) over a negatives axis and ``penalty`` is the frame
penalty -log 2c. So are each attention sublayer's ``residual_norm``,
layer_norm(x + dropout(y)), and the language head, ``language_head``;
``sigmoid`` serves graphs outside the model (demo 01, smooth test losses).
The only operator sugar is ``@`` (matmul), and negation is
``scale(x, -1.0)``. No op draws random numbers or knows a dropout
probability: dropout multiplies by an array planned before the forward pass.

Both two-layer MLPs (the proposal encoder and the attention feed-forward)
run as one ``mlp`` node, ``relu(dropout(x W1 + b1)) W2 + b2``. It upcasts a
float32 input one chunk of rows at a time, keeps only its hidden layer, and
forms its adjoints from the rows whose output adjoint is nonzero: the MIL
loss scores a (query, frame) by its best proposal, so most proposal rows
carry none.

A minibatch runs as one graph. ``matmul`` stays 2-D, so row-wise layers
see the batch as stacked rows; ``multi_head_attention`` takes B stacked
sequences, and ``similarity`` scores every pairing of the margin loss over
a batch axis at once. Ragged query counts are padded: ``masked_mean``
averages over the real entries only and the attention op's key mask gives
padded keys zero weight, so padding changes neither a value nor an adjoint.

The active tape is per context (a ``contextvars.ContextVar``): a ``Tape``
or ``no_grad`` entered in one thread leaves recording in every other
thread untouched. A tape and its tensors belong to the context that
recorded them. ``backward`` walks the active tape, so it runs inside the
tape's ``with`` block. Tensors hold no reference to their tape, so the tape
(which holds every node and, through the nodes' closures, every activation)
is freed by reference counting as soon as nothing names it, normally when
its ``with`` block ends.

A node's backward forms an adjoint for each of its inputs, and
``_accumulate`` keeps it only for a tensor that has ``requires_grad``; a
constant's adjoint is dropped. A tensor's first adjoint becomes its grad as
it is, and each later one is summed out of place (``grad = grad + g``). No op
writes into a grad or into the adjoint it is handed, so an adjoint passed
through unchanged (``add``, ``reshape``, the language head's column blocks)
may be shared by several grads.
"""

import contextvars
import math

import numpy as np


class ShapeError(ValueError):
    pass


# --------------------------------------------------------------------------
# tape machinery

_ACTIVE_TAPE = contextvars.ContextVar("groundbox_active_tape", default=None)


class Tape:
    """Ordered record of executed operations for one forward pass."""

    def __init__(self):
        self.nodes = []

    def __enter__(self):
        self._token = _ACTIVE_TAPE.set(self)
        return self

    def __exit__(self, *exc):
        _ACTIVE_TAPE.reset(self._token)
        return False


class no_grad:
    """Disable tape recording inside the block (inference mode)."""

    def __enter__(self):
        self._token = _ACTIVE_TAPE.set(None)
        return self

    def __exit__(self, *exc):
        _ACTIVE_TAPE.reset(self._token)
        return False


class _Node:
    __slots__ = ("name", "out", "backward_fn")

    def __init__(self, name, out, backward_fn):
        self.name = name
        self.out = out
        self.backward_fn = backward_fn


class Tensor:
    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad=False):
        # a float32 constant (proposal features) stays float32; ops that
        # combine it with float64 operands compute in float64
        if requires_grad or getattr(data, "dtype", None) != np.float32:
            data = np.asarray(data, dtype=np.float64)
        self.data = data
        self.grad = None
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def __matmul__(self, other):
        return matmul(self, other)


def _accumulate(t, g):
    """Add adjoint g into t.grad, out of place, if t requires grad; a
    constant's adjoint is dropped. g may be shared with other tensors' grads."""
    if t.requires_grad:
        t.grad = g if t.grad is None else t.grad + g


def _record(name, out, inputs, backward_fn):
    tape = _ACTIVE_TAPE.get()
    if tape is None or not any(t.requires_grad for t in inputs):
        return out
    out.requires_grad = True
    tape.nodes.append(_Node(name, out, backward_fn))
    return out


def backward(loss):
    """Accumulate d(loss)/d(leaf) into every requires_grad tensor on the
    active tape, walking back from the node that produced loss. Leaves keep
    what earlier calls added; the walked nodes' outputs start from no
    gradient, so each call propagates its own loss only.

    Raises ShapeError for a loss that is not a scalar or that no node of the
    active tape produced, and FloatingPointError naming the first node whose
    output is non-finite when the loss is.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward expects a scalar loss, got shape {loss.shape}")
    tape = _ACTIVE_TAPE.get()
    nodes = [] if tape is None else tape.nodes
    end = next((i for i in range(len(nodes) - 1, -1, -1) if nodes[i].out is loss), -1)
    if end < 0:
        raise ShapeError("backward: no node of the active tape produced this loss")
    if not np.isfinite(loss.data).all():
        culprit = next(n.name for n in nodes if not np.isfinite(n.out.data).all())
        raise FloatingPointError(f"non-finite loss; first offending op: {culprit}")
    for node in nodes[:end + 1]:
        node.out.grad = None
    loss.grad = np.ones_like(loss.data)
    for node in reversed(nodes[:end + 1]):
        if node.out.grad is not None:
            node.backward_fn(node.out.grad)


# --------------------------------------------------------------------------
# elementwise / structural ops

def _check_same_shape(a, b, opname):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{opname}: shape mismatch {a.data.shape} vs {b.data.shape}")


def add(a, b):
    _check_same_shape(a, b, "add")
    out = Tensor(a.data + b.data)

    def bwd(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return _record("add", out, (a, b), bwd)


def mul(a, b):
    """Hadamard product."""
    _check_same_shape(a, b, "mul")
    out = Tensor(a.data * b.data)

    def bwd(g):
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return _record("mul", out, (a, b), bwd)


def scale(a, s):
    out = Tensor(a.data * s)

    def bwd(g):
        _accumulate(a, g * s)

    return _record("scale", out, (a,), bwd)


def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: inner dimensions disagree, {a.data.shape} x {b.data.shape}")
    out = Tensor(a.data @ b.data)

    def bwd(g):
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    return _record("matmul", out, (a, b), bwd)


def reshape(a, shape):
    orig = a.data.shape
    out = Tensor(a.data.reshape(shape))

    def bwd(g):
        _accumulate(a, g.reshape(orig))

    return _record("reshape", out, (a,), bwd)


def take(a, indices):
    """Select rows (axis 0) by integer index; repeats accumulate in the adjoint."""
    idx = np.asarray(indices, dtype=np.intp)
    out = Tensor(a.data[idx])

    def bwd(g):
        # bincount adds the rows of g in index order, as np.add.at does
        n, width = len(a.data), math.prod(a.data.shape[1:])
        slots = (idx.ravel() % n)[:, None] * width + np.arange(width)
        ga = np.bincount(slots.ravel(), g.ravel(), minlength=n * width)
        _accumulate(a, ga.reshape(a.data.shape))

    return _record("take", out, (a,), bwd)


# --------------------------------------------------------------------------
# nonlinearities and reductions

def _sigmoid(z):
    """Logistic function of an array without overflow on either side:
    1/(1+e) for z >= 0 and e/(1+e) below, with e = exp(-|z|)."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def sigmoid(x):
    y = _sigmoid(x.data)
    out = Tensor(y)

    def bwd(g):
        _accumulate(x, g * y * (1.0 - y))

    return _record("sigmoid", out, (x,), bwd)


def similarity(q, p):
    """sigmoid(q p^T / sqrt(d)) for every pairing of the margin loss, as one node.

    q: (1+K', ..., m, d) positive then sentence-negative queries, p: (1+K,
    ..., n, d) positive then visual-negative proposals -> (1+K+K', ..., m, n):
    q[0] against each p[j], then each q[j>0] against p[0]. An adjoint that
    sums over pairings adds them from last to first.
    """
    if (q.data.ndim < 3 or q.data.ndim != p.data.ndim
            or q.data.shape[1:-2] != p.data.shape[1:-2]
            or q.data.shape[-1] != p.data.shape[-1]):
        raise ShapeError(f"similarity: shapes {q.data.shape} and {p.data.shape} "
                         "do not pair")
    K = p.data.shape[0] - 1
    s = 1.0 / math.sqrt(q.data.shape[-1])
    pt = p.data.swapaxes(-1, -2)
    z = np.empty((K + len(q.data),) + q.data.shape[1:-1] + pt.shape[-1:],
                 np.result_type(q.data, p.data))
    np.matmul(q.data[:1], pt, out=z[:K + 1])
    np.matmul(q.data[1:], pt[:1], out=z[K + 1:])
    y = _sigmoid(z * s)
    out = Tensor(y)

    def bwd(g):
        gz = g * y * (1.0 - y) * s
        g_vis, g_sent = gz[:K + 1], gz[K + 1:]      # q[0]'s pairings, q[j>0]'s
        gq = np.empty_like(q.data)
        gq[0] = (g_vis @ p.data)[::-1].sum(axis=0)
        gq[1:] = g_sent @ p.data[:1]
        _accumulate(q, gq)
        gp = g_vis.swapaxes(-1, -2) @ q.data[:1]
        gp[0] += (g_sent.swapaxes(-1, -2) @ q.data[1:])[::-1].sum(axis=0)
        _accumulate(p, gp)

    return _record("similarity", out, (q, p), bwd)


def hinge(s, delta):
    """sum_{j>0} max(0, s[j] - s[0] + delta), in order: the margin ranking hinge
    of each negative's score against the positive's s[0]; subgradient 0 at 0."""
    if s.data.ndim < 1 or s.data.shape[0] < 2:
        raise ShapeError(f"hinge: scores of shape {s.data.shape} hold no negative "
                         "after the positive")
    z = (s.data[1:] - s.data[0]) + delta
    mask = z > 0
    out = Tensor(np.where(mask, z, 0.0).sum(axis=0))

    def bwd(g):
        gm = g * mask
        gs = np.empty_like(s.data)
        gs[0] = -gm[::-1].sum(axis=0)
        gs[1:] = gm
        _accumulate(s, gs)

    return _record("hinge", out, (s,), bwd)


LOG_EPS = 1e-8  # sigmoid outputs cannot hit 0 analytically but can underflow


def penalty(c):
    """-log(max(2c, LOG_EPS)): the penalty D(c) = -log 2c of a frame weight c,
    negative (a reward) when c > 0.5; the floor's subgradient is 0."""
    x = c.data * 2.0
    mask = x > LOG_EPS
    x = np.where(mask, x, LOG_EPS)
    out = Tensor(-np.log(x))

    def bwd(g):
        _accumulate(c, -g / x * mask * 2.0)

    return _record("penalty", out, (c,), bwd)


def language_head(J, q, W, b, mask=None):
    """C_lang = (1/O) sum_k sigmoid([J_k; q_k] W + b) as one node, the mean over
    each sequence's real queries. J, q: one row per query; W: (width of [J; q],
    T'), b: (T',). mask: (..., O) real-query booleans, one entry per row, or
    None for one sequence of O = rows queries. Returns (..., T').
    """
    x = np.concatenate([J.data, q.data], axis=1)
    mask = np.ones(len(x), dtype=bool) if mask is None else mask
    if x.shape[1] != W.data.shape[0] or mask.size != len(x):
        raise ShapeError(f"language_head: [J; q] of shape {x.shape} and a mask of "
                         f"shape {mask.shape} do not fit W of shape {W.data.shape}")
    y = _sigmoid(x @ W.data + b.data)
    m = np.broadcast_to(mask[..., None], mask.shape + y.shape[1:])
    count = m.sum(axis=-2, keepdims=True)
    out = Tensor((y.reshape(m.shape) * m).sum(axis=-2) / np.squeeze(count, -2))

    def bwd(g):
        gz = (np.expand_dims(g, -2) / count * m).reshape(y.shape) * y * (1.0 - y)
        _accumulate(b, gz.sum(axis=0))
        _accumulate(W, x.T @ gz)
        gx, d = gz @ W.data.T, J.data.shape[1]
        _accumulate(J, gx[:, :d])
        _accumulate(q, gx[:, d:])

    return _record("language_head", out, (J, q, W, b), bwd)


def multi_head_attention(q, k, v, heads, key_mask=None):
    """softmax(q_h k_h^T / sqrt(w)) v_h for every head h of every sequence at once.

    q: (B*m, H*w), k: (B*n, H*w), v: (B*n, H*w_v) hold B sequences one after
    the other; the m query rows of sequence b attend to its n key rows only.
    Head h owns columns h*w..(h+1)*w of q and k and h*w_v..(h+1)*w_v of v.
    key_mask: (B, n) booleans; a key whose entry is False gets zero weight.
    None means one sequence (B = 1) with every key counted. Returns the heads
    side by side, (B*m, H*w_v), as one tape node.
    """
    for name, t in (("q", q), ("k", k), ("v", v)):
        if t.data.ndim != 2 or t.data.shape[1] % heads:
            raise ShapeError(f"multi_head_attention: {name} of shape {t.data.shape} "
                             f"does not split into {heads} heads")
    B, n = (1, k.data.shape[0]) if key_mask is None else key_mask.shape
    if k.data.shape[0] != B * n or q.data.shape[0] % B:
        raise ShapeError(f"multi_head_attention: q {q.data.shape} and k {k.data.shape} "
                         f"do not hold {B} sequences of {n} keys")
    m, w, wv = q.data.shape[0] // B, q.data.shape[1] // heads, v.data.shape[1] // heads

    def split(a, rows, width):                                 # -> (B, H, rows, width)
        return a.reshape(B, rows, heads, width).transpose(0, 2, 1, 3)

    def merge(a):                                              # inverse of split
        return a.transpose(0, 2, 1, 3).reshape(B * a.shape[2], heads * a.shape[3])

    qh, kh, vh = split(q.data, m, w), split(k.data, n, w), split(v.data, n, wv)
    s = 1.0 / math.sqrt(w)
    z = (qh @ kh.swapaxes(-1, -2)) * s                         # (B, H, m, n)
    if key_mask is not None:
        z = np.where(key_mask[:, None, None, :], z, -np.inf)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(merge(p @ vh))

    def bwd(g):
        gh = split(g, m, wv)                                   # (B, H, m, w_v)
        _accumulate(v, merge(p.swapaxes(-1, -2) @ gh))
        gp = gh @ vh.swapaxes(-1, -2)
        gz = p * (gp - (gp * p).sum(axis=-1, keepdims=True)) * s
        _accumulate(q, merge(gz @ kh))
        _accumulate(k, merge(gz.swapaxes(-1, -2) @ qh))

    return _record("multi_head_attention", out, (q, k, v), bwd)


def max_last(x):
    """Max over the last axis; the adjoint is one-hot at the argmax, ties
    taking the lowest index."""
    arg = np.argmax(x.data, axis=-1)
    out = Tensor(np.take_along_axis(x.data, arg[..., None], axis=-1)[..., 0])

    def bwd(g):
        gx = np.zeros_like(x.data)
        np.put_along_axis(gx, arg[..., None], g[..., None], axis=-1)
        _accumulate(x, gx)

    return _record("max_last", out, (x,), bwd)


def mean_all(x):
    n = x.data.size
    out = Tensor(x.data.mean())

    def bwd(g):
        _accumulate(x, np.full_like(x.data, float(g) / n))

    return _record("mean_all", out, (x,), bwd)


def masked_mean(x, axis, mask=None):
    """Mean over ``axis`` of the entries whose mask is set.

    mask: a boolean array that broadcasts against x, or None (every entry
    counts). A masked-out entry adds nothing to the mean and gets a zero
    adjoint, whatever its finite value; each mean needs one entry set.
    """
    m = np.ones(x.data.shape, dtype=bool) if mask is None else \
        np.broadcast_to(mask, x.data.shape)
    count = m.sum(axis=axis, keepdims=True)
    out = Tensor((x.data * m).sum(axis=axis) / np.squeeze(count, axis))

    def bwd(g):
        _accumulate(x, np.expand_dims(g, axis) / count * m)

    return _record("masked_mean", out, (x,), bwd)


def residual_norm(x, y, gain, bias, drop=None):
    """layer_norm(x + y * drop) of each row, then gain and bias, as one tape
    node: a residual sublayer of the attention stack. x, y: (m, n); gain,
    bias: (n,); drop: y's dropout multipliers, of y's shape, or None.
    """
    if x.data.ndim != 2 or y.data.shape != x.data.shape:
        raise ShapeError(f"residual_norm expects two equal 2-D shapes, got "
                         f"{x.data.shape} and {y.data.shape}")
    if drop is not None and drop.shape != y.data.shape:
        raise ShapeError(f"residual_norm: mask of shape {drop.shape} for input "
                         f"{y.data.shape}")
    s = x.data + (y.data if drop is None else y.data * drop)
    mu = s.mean(axis=-1, keepdims=True)
    sd = np.sqrt(s.var(axis=-1, keepdims=True) + 1e-6)
    xhat = (s - mu) / sd
    out = Tensor(xhat * gain.data + bias.data)

    def bwd(g):
        _accumulate(gain, (g * xhat).sum(axis=0))
        _accumulate(bias, g.sum(axis=0))
        dxhat = g * gain.data
        gs = (dxhat - dxhat.mean(axis=-1, keepdims=True)
              - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)) / sd
        _accumulate(x, gs)
        _accumulate(y, gs if drop is None else gs * drop)

    return _record("residual_norm", out, (x, y, gain, bias), bwd)


# mlp's first product runs over chunks of rows, so a float32 input is upcast
# one chunk at a time. A chunk holds at least _MLP_CHUNK input entries (8 MB
# as float64) in a multiple of _MLP_ROW_BLOCK rows, and the last chunk takes
# the leftover rows. Chunks like these start on OpenBLAS's row-block
# boundaries and stay above the product size (about 1e6 multiply-adds) below
# which it switches kernels, so each row comes out bit for bit as from one
# whole product wherever that product does not itself depend on the BLAS
# thread count (hidden widths that are multiples of 16, such as 512).
_MLP_CHUNK = 1 << 20
_MLP_ROW_BLOCK = 192


def _mlp_chunk_rows(n):
    """Rows per chunk of mlp's first product for an input n entries wide."""
    return _MLP_ROW_BLOCK * -(-_MLP_CHUNK // (_MLP_ROW_BLOCK * max(n, 1)))


def mlp(x, W1, b1, W2, b2, drop=None):
    """relu((x W1 + b1) * drop) W2 + b2 as one tape node.

    x: (m, n), W1: (n, h), b1: (h,), W2: (h, d), b2: (d,) -> (m, d). drop:
    the (m, h) dropout multipliers of the hidden layer, or None (no
    dropout). The hidden layer is one float64 buffer, written chunk by chunk
    and then biased, scaled and rectified in place; the node keeps only it.
    Backward gathers the rows whose output adjoint is nonzero (behind a max
    over proposals, most rows carry none), forms every adjoint from them and
    scatters x's into zeros.
    """
    if (x.data.ndim != 2 or W1.data.ndim != 2 or W2.data.ndim != 2
            or W1.data.shape[0] != x.data.shape[1] or b1.data.shape != W1.data.shape[1:]
            or W2.data.shape[0] != W1.data.shape[1] or b2.data.shape != W2.data.shape[1:]):
        raise ShapeError(f"mlp: shapes x {x.data.shape}, W1 {W1.data.shape}, "
                         f"b1 {b1.data.shape}, W2 {W2.data.shape}, b2 {b2.data.shape} "
                         "do not chain")
    (m, n), width = x.data.shape, W1.data.shape[1]
    if drop is not None and drop.shape != (m, width):
        raise ShapeError(f"mlp: mask of shape {drop.shape} for a hidden layer of "
                         f"{(m, width)}")
    h = np.empty((m, width))
    rows = _mlp_chunk_rows(n)
    bounds = [i * rows for i in range(max(1, m // rows))] + [m]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        np.matmul(x.data[lo:hi], W1.data, out=h[lo:hi])
    h += b1.data
    if drop is not None:
        h *= drop
    np.maximum(0.0, h, out=h)
    y = h @ W2.data
    y += b2.data
    out = Tensor(y)

    def bwd(g):
        rows = np.flatnonzero(g.any(axis=1))
        g, hr = g[rows], h[rows]
        _accumulate(b2, g.sum(axis=0))
        _accumulate(W2, hr.T @ g)
        gz = g @ W2.data.T
        gz *= hr > 0
        if drop is not None:
            gz *= drop[rows]
        _accumulate(b1, gz.sum(axis=0))
        _accumulate(W1, x.data[rows].T @ gz)
        if x.requires_grad:  # proposal features, the one large constant: skip an (m x n) adjoint
            gx = np.zeros(x.data.shape)
            gx[rows] = gz @ W1.data.T
            _accumulate(x, gx)

    return _record("mlp", out, (x, W1, b1, W2, b2), bwd)


# --------------------------------------------------------------------------
# init helper

def uniform_init(rng, shape, fan_in):
    """A trainable tensor drawn uniformly from [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
    bound = 1.0 / math.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)
