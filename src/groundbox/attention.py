"""Scaled dot-product attention and the multi-head self-attention stack
used to model interactions among the query objects.
"""

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor
from .encoders import positional_encoding


def scaled_dot_attention(q, K, V, heads=1, key_mask=None):
    """Softmax(q K^T / sqrt(d)) V, row convention, for each of ``heads`` heads.

    q: (m, d) queries, K: (Tk, d) keys, V: (Tk, d_v) values -> (m, d_v).
    With heads=H, head h attends with columns h*d/H..(h+1)*d/H of q and K
    (logits scaled by 1/sqrt(d/H)) over its slice of V's columns; the heads'
    outputs sit side by side. Each output row of a head is a convex combination of
    that head's value rows. key_mask: (B, n) booleans when the rows hold B
    sequences of n keys each (see tensor.multi_head_attention).
    """
    if K.data.shape[0] < 1:
        raise ShapeError("scaled_dot_attention: empty key set")
    if q.data.shape[1] != K.data.shape[1]:
        raise ShapeError(
            f"query/key width mismatch: {q.data.shape} vs {K.data.shape}")
    if K.data.shape[0] != V.data.shape[0]:
        raise ShapeError(
            f"key/value count mismatch: {K.data.shape} vs {V.data.shape}")
    return T.multi_head_attention(q, K, V, heads, key_mask)


class _AttentionLayer:
    def __init__(self, d, heads, head_dim, ff_hidden, rng):
        # head h's q, k and v blocks are drawn in turn and sit in columns
        # h*head_dim..(h+1)*head_dim of the layer's Wq, Wk and Wv
        draws = [T.uniform_init(rng, (d, head_dim), fan_in=d).data
                 for _ in range(3 * heads)]
        self.Wq, self.Wk, self.Wv = (Tensor(np.hstack(draws[j::3]), requires_grad=True)
                                     for j in range(3))
        self.n_heads = heads
        attn_width = heads * head_dim
        self.Wo = T.uniform_init(rng, (attn_width, d), fan_in=attn_width)
        self.ln1_g = Tensor([1.0] * d, requires_grad=True)
        self.ln1_b = Tensor([0.0] * d, requires_grad=True)
        self.W1 = T.uniform_init(rng, (d, ff_hidden), fan_in=d)
        self.b1 = T.uniform_init(rng, (ff_hidden,), fan_in=d)
        self.W2 = T.uniform_init(rng, (ff_hidden, d), fan_in=ff_hidden)
        self.b2 = T.uniform_init(rng, (d,), fan_in=ff_hidden)
        self.ln2_g = Tensor([1.0] * d, requires_grad=True)
        self.ln2_b = Tensor([0.0] * d, requires_grad=True)

    def forward(self, x, mask=None, drop=(None, None)):
        """drop: the dropout multipliers of the attention and feed-forward
        outputs, each of x's shape or None (no dropout)."""
        attn = scaled_dot_attention(x @ self.Wq, x @ self.Wk, x @ self.Wv,
                                    heads=self.n_heads, key_mask=mask) @ self.Wo
        x = T.residual_norm(x, attn, self.ln1_g, self.ln1_b, drop[0])
        ff = T.mlp(x, self.W1, self.b1, self.W2, self.b2)
        return T.residual_norm(x, ff, self.ln2_g, self.ln2_b, drop[1])

    def params(self, prefix):
        out = {f"{prefix}.Wq": self.Wq, f"{prefix}.Wk": self.Wk,
               f"{prefix}.Wv": self.Wv, f"{prefix}.Wo": self.Wo}
        out[f"{prefix}.ln1.g"] = self.ln1_g
        out[f"{prefix}.ln1.b"] = self.ln1_b
        out[f"{prefix}.ff.W1"] = self.W1
        out[f"{prefix}.ff.b1"] = self.b1
        out[f"{prefix}.ff.W2"] = self.W2
        out[f"{prefix}.ff.b2"] = self.b2
        out[f"{prefix}.ln2.g"] = self.ln2_g
        out[f"{prefix}.ln2.b"] = self.ln2_b
        return out


class MultiHeadAttentionStack:
    """Non-autoregressive self-attention over the object query sequence.

    The configured hidden size need not divide evenly by the head count;
    per-head width is hidden // heads so the internal attention width is the
    largest multiple of the head count not exceeding hidden. The feed-forward
    sublayer uses the full hidden width. Input and output width stay at d.
    Positional encoding is added once before layer 1, with rows computed
    for the sequence length it is given.

    A minibatch runs as one (B*O, d) block of B query sequences padded to O;
    a (B, O) mask marks the real queries, and padded ones receive no
    attention. Every other sublayer works row by row.
    """

    def __init__(self, d, layers=2, heads=6, hidden=256, *, rng):
        if heads > hidden:
            raise ShapeError(f"{heads} heads exceed the attention hidden width {hidden}")
        self.layers = [_AttentionLayer(d, heads, hidden // heads, hidden, rng)
                       for _ in range(layers)]

    def forward(self, queries, mask=None, drop=None):
        """queries: (B*O, d) Tensor -> (B*O, d) Tensor of interaction encodings.

        mask: (B, O) real-query booleans, or None for one sequence of O queries.
        drop: two (B*O, d) dropout multipliers per layer, in layer order, or
        None (no dropout).
        """
        drop = drop or [None] * (2 * len(self.layers))
        rows, width = queries.data.shape
        L = rows if mask is None else mask.shape[1]
        x = T.add(queries, Tensor(np.tile(positional_encoding(L, width), (rows // L, 1))))
        for i, layer in enumerate(self.layers):
            x = layer.forward(x, mask, drop[2 * i:2 * i + 2])
        return x

    def params(self, prefix="attn"):
        out = {}
        for i, layer in enumerate(self.layers):
            out.update(layer.params(f"{prefix}.l{i}"))
        return out

