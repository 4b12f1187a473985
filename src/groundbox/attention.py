"""Scaled dot-product attention and the multi-head self-attention stack
used to model interactions among the query objects.
"""

import math

from . import tensor as T
from .tensor import ShapeError, Tensor
from .encoders import PositionalEncoding


def scaled_dot_attention(q, K, V):
    """Softmax(q K^T / sqrt(d)) V, row convention.

    q: (m, d) queries, K: (Tk, d) keys, V: (Tk, d) values -> (m, d_v).
    Each output row is a convex combination of value rows.
    """
    if K.data.shape[0] < 1:
        raise ShapeError("scaled_dot_attention: empty key set")
    if q.data.shape[1] != K.data.shape[1]:
        raise ShapeError(
            f"query/key width mismatch: {q.data.shape} vs {K.data.shape}")
    if K.data.shape[0] != V.data.shape[0]:
        raise ShapeError(
            f"key/value count mismatch: {K.data.shape} vs {V.data.shape}")
    d = q.data.shape[1]
    weights = T.softmax_rows(T.scale(q @ K.T, 1.0 / math.sqrt(d)))
    return weights @ V


class _AttentionLayer:
    def __init__(self, d, heads, head_dim, ff_hidden, p_drop, rng):
        self.heads = []
        for _ in range(heads):
            self.heads.append((T.uniform_init(rng, (d, head_dim), fan_in=d),
                               T.uniform_init(rng, (d, head_dim), fan_in=d),
                               T.uniform_init(rng, (d, head_dim), fan_in=d)))
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
        self.p_drop = p_drop

    def forward(self, x, training, rng):
        head_outs = [scaled_dot_attention(x @ Wq, x @ Wk, x @ Wv)
                     for Wq, Wk, Wv in self.heads]
        attn = T.concat(head_outs, axis=1) @ self.Wo
        x = T.layer_norm_rows(T.add(x, T.dropout(attn, self.p_drop, training, rng)),
                              self.ln1_g, self.ln1_b)
        ff = T.add_rowvec(T.relu(T.add_rowvec(x @ self.W1, self.b1)) @ self.W2, self.b2)
        return T.layer_norm_rows(T.add(x, T.dropout(ff, self.p_drop, training, rng)),
                                 self.ln2_g, self.ln2_b)

    def params(self, prefix):
        out = {}
        for i, (Wq, Wk, Wv) in enumerate(self.heads):
            out[f"{prefix}.h{i}.Wq"] = Wq
            out[f"{prefix}.h{i}.Wk"] = Wk
            out[f"{prefix}.h{i}.Wv"] = Wv
        out[f"{prefix}.Wo"] = self.Wo
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
    Positional encoding is applied once before layer 1 (optional, so order
    sensitivity can be switched off).
    """

    def __init__(self, d, layers=2, heads=6, hidden=256, p_drop=0.2,
                 max_len=64, rng=None, positional=True):
        head_dim = max(hidden // heads, 1)
        self.layers = [_AttentionLayer(d, heads, head_dim, hidden, p_drop, rng)
                       for _ in range(layers)]
        self.pe = PositionalEncoding(max_len, d)
        self.positional = positional

    def forward(self, queries, training=False, rng=None):
        """queries: (O, d) Tensor -> (O, d) Tensor of interaction encodings."""
        x = self.pe.apply(queries) if self.positional else queries
        for layer in self.layers:
            x = layer.forward(x, training, rng)
        return x

    def params(self, prefix="attn"):
        out = {}
        for i, layer in enumerate(self.layers):
            out.update(layer.params(f"{prefix}.l{i}"))
        return out

