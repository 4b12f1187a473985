"""Demonstrate two properties of the self-attention stack over query objects:

1. Its layers alone, without the positional encoding the stack adds first,
   are permutation-equivariant: shuffling the input rows shuffles the
   output rows identically.
2. The full stack, positional encoding included, breaks that symmetry —
   order matters.
"""

import numpy as np

from groundbox.attention import MultiHeadAttentionStack
from groundbox.tensor import Tensor

rng = np.random.default_rng(0)
x = rng.standard_normal((6, 8))
perm = rng.permutation(6)

stack = MultiHeadAttentionStack(d=8, layers=2, heads=3, hidden=12,
                                rng=np.random.default_rng(1))


def layers_only(x):
    for layer in stack.layers:
        x = layer.forward(x)
    return x


for label, f in (("layers only", layers_only), ("full stack", stack.forward)):
    base = f(Tensor(x)).data
    shuffled = f(Tensor(x[perm])).data
    drift = np.max(np.abs(shuffled - base[perm]))
    print(f"{label}: max |f(Px) - P f(x)| = {drift:.3e}"
          f" -> {'equivariant' if drift < 1e-10 else 'order-sensitive'}")
