"""Query / proposal encoders and sinusoidal positional encoding.

Object labels are one-hot, so the query encoder is a bias-free embedding
lookup. Proposal features pass through two linear layers with dropout and
ReLU after the first, reducing D_in down to the common width d.
"""

import math

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor


class VocabularyError(ValueError):
    pass


class QueryEncoder:
    """Bias-free linear layer over one-hot labels == row lookup into W."""

    def __init__(self, V, d, rng):
        self.V = V
        self.W = T.uniform_init(rng, (V, d), fan_in=V)

    def encode(self, label_indices):
        idx = np.asarray(label_indices, dtype=np.intp)
        if idx.size == 0:
            raise VocabularyError("encode_query: empty label list")
        if idx.min() < 0 or idx.max() >= self.V:
            raise VocabularyError(
                f"label index out of range [0, {self.V}): {label_indices}")
        return T.take(self.W, idx)  # idx.shape + (d,)

    def params(self, prefix="query"):
        return {f"{prefix}.W": self.W}


class ProposalEncoder:
    """Two-layer MLP D_in -> h -> d; dropout then ReLU after layer 1.

    Hidden width is round(sqrt(D_in * d)) since only the endpoints are fixed.
    """

    def __init__(self, D_in, d, rng):
        h = max(1, round(math.sqrt(D_in * d)))
        self.D_in = D_in
        self.W1 = T.uniform_init(rng, (D_in, h), fan_in=D_in)
        self.b1 = T.uniform_init(rng, (h,), fan_in=D_in)
        self.W2 = T.uniform_init(rng, (h, d), fan_in=h)
        self.b2 = T.uniform_init(rng, (d,), fan_in=h)

    def encode(self, features, drop=None):
        """features: (m, D_in) array or Tensor -> (m, d) Tensor.

        drop: (m, h) dropout multipliers of the hidden layer, or None (no dropout).
        """
        x = features if isinstance(features, Tensor) else Tensor(features)
        if x.data.ndim != 2 or x.data.shape[1] != self.D_in:
            raise ShapeError(
                f"proposal features must be (m, {self.D_in}), got {x.data.shape}")
        return T.mlp(x, self.W1, self.b1, self.W2, self.b2, drop)

    def params(self, prefix="prop"):
        return {f"{prefix}.W1": self.W1, f"{prefix}.b1": self.b1,
                f"{prefix}.W2": self.W2, f"{prefix}.b2": self.b2}


def positional_encoding(length, width):
    """Sinusoid rows 0..length-1: pe[pos, 2i] = sin(pos / 10000^(2i/width)),
    pe[pos, 2i+1] = cos of the same angle. Row pos depends only on pos and
    width, so any length is defined."""
    pos = np.arange(length, dtype=np.float64)[:, None]
    i2 = np.arange(0, width, 2, dtype=np.float64)
    angles = pos / np.power(10000.0, i2 / width)
    table = np.zeros((length, width))
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles[:, : table[:, 1::2].shape[1]])
    return table
