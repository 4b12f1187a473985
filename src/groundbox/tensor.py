"""Minimal dense-tensor library with reverse-mode automatic differentiation.

Tensors hold float64 numpy arrays; only a constant made from a float32
array (proposal features, as stored) keeps it, and an op that reads it
computes in float64. Operations executed while a Tape is active are
recorded in execution (topological) order; ``backward`` walks the tape
once in reverse and accumulates gradients into every tensor that requires
them. The 21 ops are the ones the model runs; the only operator sugar is
``@`` (matmul), and negation is ``scale(x, -1.0)``. Nothing in a graph
draws random numbers: ``dropout`` applies a boolean keep-mask planned
before the forward pass.

A minibatch runs as one graph. ``matmul`` stays 2-D, so row-wise layers
see the batch as stacked rows; ``similarity`` and ``multi_head_attention``
take a leading batch axis (the attention op as B stacked sequences), and
ragged query counts are padded: ``masked_mean`` averages over the real
entries only and the attention op's key mask gives padded keys zero
weight, so padding changes neither a value nor an adjoint.

The active tape is per context (a ``contextvars.ContextVar``): a ``Tape``
or ``no_grad`` entered in one thread leaves recording in every other
thread untouched. A tape and its tensors belong to the context that
recorded them.

A recorded tensor refers to its tape through a weak reference, so the tape
(which holds every node and, through the nodes' closures, every activation)
forms no reference cycle with its tensors: it is freed by reference
counting as soon as nothing names it, normally when its ``with`` block
ends. Run ``backward`` inside that block, or keep the tape
(``with Tape() as tape:``).

A node's backward computes an adjoint only for the inputs that have
``requires_grad``; the adjoint of a constant operand is never formed. The
first adjoint written into a tensor is assigned, later ones are added in
place. On that first write a tensor takes ownership of an array the op has
just computed, and shares an adjoint passed through unchanged (a view or
the incoming gradient itself) as a read-only view; a later write into a
shared grad makes a fresh array, so no write reaches another tensor's grad.
"""

import contextvars
import math
import weakref

import numpy as np


class ShapeError(ValueError):
    pass


class ConfigError(ValueError):
    pass


# --------------------------------------------------------------------------
# tape machinery

_ACTIVE_TAPE = contextvars.ContextVar("groundbox_active_tape", default=None)


class Tape:
    """Ordered record of executed operations for one forward pass."""

    def __init__(self):
        self.nodes = []
        self.ref = weakref.ref(self)  # what recorded tensors hold

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
    __slots__ = ("data", "grad", "requires_grad", "_tape_ref")

    def __init__(self, data, requires_grad=False):
        # a float32 constant (proposal features) stays float32; ops that
        # combine it with float64 operands compute in float64
        if requires_grad or getattr(data, "dtype", None) != np.float32:
            data = np.asarray(data, dtype=np.float64)
        self.data = data
        self.grad = None
        self.requires_grad = requires_grad
        self._tape_ref = None

    @property
    def tape(self):
        """The live tape that recorded this tensor, or None (never recorded, or freed)."""
        return None if self._tape_ref is None else self._tape_ref()

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def __matmul__(self, other):
        return matmul(self, other)


def _accumulate(t, g, owned=True):
    """Add adjoint g into t.grad; the caller has checked t.requires_grad.

    owned: g was just computed by the op and nothing else refers to it, so
    the first write may keep it. Pass owned=False for an adjoint passed
    through unchanged; the first write then keeps a read-only view of it,
    and a later write replaces that view with a fresh sum.
    """
    if t.grad is None:
        t.grad = np.asarray(g)
        if not owned:
            t.grad = t.grad.view()
            t.grad.flags.writeable = False
    elif t.grad.flags.writeable:
        t.grad += g
    else:
        t.grad = t.grad + g


def _record(name, out, inputs, backward_fn):
    tape = _ACTIVE_TAPE.get()
    if tape is None or not any(t.requires_grad for t in inputs):
        return out
    out.requires_grad = True
    out._tape_ref = tape.ref
    tape.nodes.append(_Node(name, out, backward_fn))
    return out


def backward(loss):
    """Accumulate d(loss)/d(leaf) into every requires_grad tensor on the tape."""
    if loss.data.size != 1:
        raise ShapeError(f"backward expects a scalar loss, got shape {loss.shape}")
    tape = loss.tape
    if tape is None or not tape.nodes:
        raise ShapeError("backward called on a tensor with no recorded tape")
    loss.grad = np.ones_like(loss.data)
    for node in reversed(tape.nodes):
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
        if a.requires_grad:
            _accumulate(a, g, owned=False)
        if b.requires_grad:
            _accumulate(b, g, owned=False)

    return _record("add", out, (a, b), bwd)


def sub(a, b):
    _check_same_shape(a, b, "sub")
    out = Tensor(a.data - b.data)

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, g, owned=False)
        if b.requires_grad:
            _accumulate(b, -g)

    return _record("sub", out, (a, b), bwd)


def mul(a, b):
    """Hadamard product."""
    _check_same_shape(a, b, "mul")
    out = Tensor(a.data * b.data)

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, g * b.data)
        if b.requires_grad:
            _accumulate(b, g * a.data)

    return _record("mul", out, (a, b), bwd)


def scale(a, s):
    out = Tensor(a.data * s)

    def bwd(g):
        _accumulate(a, g * s)

    return _record("scale", out, (a,), bwd)


def shift(a, c):
    out = Tensor(a.data + c)

    def bwd(g):
        _accumulate(a, g, owned=False)

    return _record("shift", out, (a,), bwd)


def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: inner dimensions disagree, {a.data.shape} x {b.data.shape}")
    out = Tensor(a.data @ b.data)

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, g @ b.data.T)
            if b.requires_grad:
                _accumulate(b, a.data.T @ g)
        elif b.requires_grad:
            # A constant left operand (proposal features) reaches the loss
            # through a max over proposals, so most rows of g are zero; the
            # weight adjoint sums only the rows that carry gradient.
            rows = np.flatnonzero(g.any(axis=1))
            _accumulate(b, a.data[rows].T @ g[rows])

    return _record("matmul", out, (a, b), bwd)


def reshape(a, shape):
    orig = a.data.shape
    out = Tensor(a.data.reshape(shape))

    def bwd(g):
        _accumulate(a, g.reshape(orig), owned=False)

    return _record("reshape", out, (a,), bwd)


def concat(tensors, axis=0):
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                _accumulate(t, g[tuple(sl)], owned=False)

    return _record("concat", out, tuple(tensors), bwd)


def take(a, indices):
    """Select rows (axis 0) by integer index; repeats accumulate in the adjoint."""
    idx = np.asarray(indices, dtype=np.intp)
    out = Tensor(a.data[idx])

    def bwd(g):
        distinct = np.unique(idx % len(a.data)).size == idx.size
        if distinct and a.grad is not None and a.grad.flags.writeable:
            a.grad[idx] += g  # no row is taken twice: add into the rows in place
            return
        ga = np.zeros_like(a.data)
        if distinct:
            ga[idx] = g  # assignment is the sum
        else:
            np.add.at(ga, idx, g)
        _accumulate(a, ga)

    return _record("take", out, (a,), bwd)


def add_rowvec(x, b):
    """x[m,n] + b[n] broadcast over rows; adjoint of b sums over rows."""
    if x.data.ndim != 2 or b.data.ndim != 1 or x.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"add_rowvec: incompatible shapes {x.data.shape} and {b.data.shape}")
    out = Tensor(x.data + b.data[None, :])

    def bwd(g):
        if x.requires_grad:
            _accumulate(x, g, owned=False)
        if b.requires_grad:
            _accumulate(b, g.sum(axis=0))

    return _record("add_rowvec", out, (x, b), bwd)


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
    """sigmoid(q p^T / sqrt(d)) for every leading index, as one tape node.

    q: (..., m, d), p: (..., n, d) with the same leading shape -> (..., m, n).
    """
    if (q.data.ndim < 2 or q.data.shape[:-2] != p.data.shape[:-2]
            or q.data.shape[-1] != p.data.shape[-1]):
        raise ShapeError(f"similarity: shapes {q.data.shape} and {p.data.shape} "
                         "do not pair")
    s = 1.0 / math.sqrt(q.data.shape[-1])
    y = _sigmoid((q.data @ p.data.swapaxes(-1, -2)) * s)
    out = Tensor(y)

    def bwd(g):
        gz = g * y * (1.0 - y) * s
        if q.requires_grad:
            _accumulate(q, gz @ p.data)
        if p.requires_grad:
            _accumulate(p, gz.swapaxes(-1, -2) @ q.data)

    return _record("similarity", out, (q, p), bwd)


def relu(x):
    mask = x.data > 0  # subgradient at 0 is 0
    out = Tensor(np.where(mask, x.data, 0.0))

    def bwd(g):
        _accumulate(x, g * mask)

    return _record("relu", out, (x,), bwd)


def log(x):
    if np.any(x.data <= 0):
        raise ValueError("log: non-positive input; clamp first (see clamp_min)")
    out = Tensor(np.log(x.data))

    def bwd(g):
        _accumulate(x, g / x.data)

    return _record("log", out, (x,), bwd)


def clamp_min(x, floor):
    mask = x.data > floor
    out = Tensor(np.where(mask, x.data, floor))

    def bwd(g):
        _accumulate(x, g * mask)

    return _record("clamp_min", out, (x,), bwd)


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
        if v.requires_grad:
            _accumulate(v, merge(p.swapaxes(-1, -2) @ gh))
        if q.requires_grad or k.requires_grad:
            gp = gh @ vh.swapaxes(-1, -2)
            gz = p * (gp - (gp * p).sum(axis=-1, keepdims=True)) * s
            if q.requires_grad:
                _accumulate(q, merge(gz @ kh))
            if k.requires_grad:
                _accumulate(k, merge(gz.swapaxes(-1, -2) @ qh))

    return _record("multi_head_attention", out, (q, k, v), bwd)


def max_last(x):
    """Max over the last axis. Returns (reduced tensor, argmax array).

    Gradient is one-hot at the argmax; ties break to the lowest index.
    """
    arg = np.argmax(x.data, axis=-1)
    out = Tensor(np.take_along_axis(x.data, arg[..., None], axis=-1)[..., 0])

    def bwd(g):
        gx = np.zeros_like(x.data)
        np.put_along_axis(gx, arg[..., None], g[..., None], axis=-1)
        _accumulate(x, gx)

    return _record("max_last", out, (x,), bwd), arg


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


def layer_norm_rows(x, gain, bias, eps=1e-6):
    """Normalize each row of a 2-D tensor to zero mean / unit variance, then affine."""
    if x.data.ndim != 2:
        raise ShapeError(f"layer_norm_rows expects 2-D, got {x.data.shape}")
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    sd = np.sqrt(var + eps)
    xhat = (x.data - mu) / sd
    out = Tensor(xhat * gain.data + bias.data)

    def bwd(g):
        if gain.requires_grad:
            _accumulate(gain, (g * xhat).sum(axis=0))
        if bias.requires_grad:
            _accumulate(bias, g.sum(axis=0))
        if x.requires_grad:
            dxhat = g * gain.data
            _accumulate(x, (dxhat - dxhat.mean(axis=-1, keepdims=True)
                            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)) / sd)

    return _record("layer_norm", out, (x, gain, bias), bwd)


def dropout(x, keep, p):
    """Inverted dropout with a planned mask: zero the entries whose ``keep``
    is False and scale the survivors by 1/(1-p). keep: booleans of x's shape,
    or None (no dropout: x itself). Draws nothing."""
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout probability must be in [0, 1), got {p}")
    if keep is None:
        return x
    if keep.shape != x.data.shape:
        raise ShapeError(f"dropout: mask of shape {keep.shape} for input {x.data.shape}")
    scale = 1.0 / (1.0 - p)
    out = Tensor(x.data * np.where(keep, scale, 0.0))

    def bwd(g):
        _accumulate(x, g * np.where(keep, scale, 0.0))

    return _record("dropout", out, (x,), bwd)


# --------------------------------------------------------------------------
# init helper

def uniform_init(rng, shape, fan_in, requires_grad=True):
    """Scaled-uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
    bound = 1.0 / math.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=requires_grad)
