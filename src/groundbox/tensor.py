"""Minimal dense-tensor library with reverse-mode automatic differentiation.

Tensors hold float64 numpy arrays. Operations executed while a Tape is
active are recorded in execution (topological) order; ``backward`` walks
the tape once in reverse and accumulates gradients into every tensor that
requires them.

The active tape is per context (a ``contextvars.ContextVar``): a ``Tape``
or ``no_grad`` entered in one thread leaves recording in every other
thread untouched. A tape and its tensors belong to the context that
recorded them.

A node's backward computes an adjoint only for the inputs that have
``requires_grad``; the adjoint of a constant operand is never formed. The
first adjoint written into a tensor is assigned, later ones are added in
place. On that first write a tensor takes ownership of an array the op has
just computed, and copies an adjoint passed through unchanged (a view or
the incoming gradient itself), so no two tensors share a grad buffer.
"""

import contextvars
import math

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
    __slots__ = ("data", "grad", "requires_grad", "tape")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self.tape = None

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # operator sugar; scalars fold into scale/shift ops
    def __add__(self, other):
        if isinstance(other, Tensor):
            return add(self, other)
        return shift(self, float(other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return sub(self, other)
        return shift(self, -float(other))

    def __rsub__(self, other):
        return shift(neg(self), float(other))

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return scale(self, float(other))

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    @property
    def T(self):
        return transpose(self)


def _accumulate(t, g, owned=True):
    """Add adjoint g into t.grad; the caller has checked t.requires_grad.

    owned: g was just computed by the op and nothing else refers to it, so
    the first write may keep it. Pass owned=False for an adjoint passed
    through unchanged; the first write then stores a copy.
    """
    if t.grad is None:
        t.grad = np.asarray(g) if owned else np.array(g)
    else:
        t.grad += g


def _record(name, out, inputs, backward_fn):
    tape = _ACTIVE_TAPE.get()
    if tape is None or not any(t.requires_grad for t in inputs):
        return out
    out.requires_grad = True
    out.tape = tape
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


def neg(a):
    return scale(a, -1.0)


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


def transpose(a):
    if a.data.ndim != 2:
        raise ShapeError(f"transpose expects 2-D, got {a.data.shape}")
    out = Tensor(a.data.T)

    def bwd(g):
        _accumulate(a, g.T, owned=False)

    return _record("transpose", out, (a,), bwd)


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
        ga = np.zeros_like(a.data)
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

def sigmoid(x):
    y = np.empty_like(x.data)
    pos = x.data >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-x.data[pos]))
    ex = np.exp(x.data[~pos])
    y[~pos] = ex / (1.0 + ex)
    out = Tensor(y)

    def bwd(g):
        _accumulate(x, g * y * (1.0 - y))

    return _record("sigmoid", out, (x,), bwd)


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


def softmax_rows(x):
    """Row-wise softmax over the last axis, shift-invariant."""
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y)

    def bwd(g):
        _accumulate(x, y * (g - (g * y).sum(axis=-1, keepdims=True)))

    return _record("softmax_rows", out, (x,), bwd)


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


def sum_all(x):
    out = Tensor(x.data.sum())

    def bwd(g):
        _accumulate(x, np.full_like(x.data, float(g)))

    return _record("sum_all", out, (x,), bwd)


def mean_axis0(x):
    """Column means of a 2-D tensor -> 1-D tensor."""
    if x.data.ndim != 2:
        raise ShapeError(f"mean_axis0 expects 2-D, got {x.data.shape}")
    m = x.data.shape[0]
    out = Tensor(x.data.mean(axis=0))

    def bwd(g):
        _accumulate(x, np.broadcast_to(g[None, :] / m, x.data.shape).copy())

    return _record("mean_axis0", out, (x,), bwd)


def layer_norm_rows(x, gain, bias, eps=1e-6):
    """Normalize each row to zero mean / unit variance, then affine."""
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    sd = np.sqrt(var + eps)
    xhat = (x.data - mu) / sd
    out = Tensor(xhat * gain.data + bias.data)

    def bwd(g):
        if gain.requires_grad:
            _accumulate(gain, (g * xhat).sum(axis=0) if g.ndim == 2 else g * xhat)
        if bias.requires_grad:
            if g.ndim == 2:
                _accumulate(bias, g.sum(axis=0))
            else:
                _accumulate(bias, g, owned=False)
        if x.requires_grad:
            dxhat = g * gain.data
            _accumulate(x, (dxhat - dxhat.mean(axis=-1, keepdims=True)
                            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)) / sd)

    return _record("layer_norm", out, (x, gain, bias), bwd)


def dropout(x, p, training, rng):
    """Inverted dropout: zero with probability p, scale survivors by 1/(1-p)."""
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    mask = (rng.random(x.data.shape) >= p) / (1.0 - p)
    out = Tensor(x.data * mask)

    def bwd(g):
        _accumulate(x, g * mask)

    return _record("dropout", out, (x,), bwd)


# --------------------------------------------------------------------------
# init helper

def uniform_init(rng, shape, fan_in, requires_grad=True):
    """Scaled-uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
    bound = 1.0 / math.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=requires_grad)
