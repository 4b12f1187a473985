"""Walk through the tensor module: build a small computation, run backward,
and verify the gradients against central finite differences.
"""

import numpy as np

from groundbox import tensor as T
from groundbox.gradcheck import finite_diff_check
from groundbox.tensor import Tape, Tensor, backward

rng = np.random.default_rng(0)

# A two-layer network relu(x W1 + b1) W2 + b2, one mlp node as in the model's
# encoders, with a sigmoid head.
W1 = T.uniform_init(rng, (6, 4), fan_in=6)
b1 = T.uniform_init(rng, (4,), fan_in=6)
W2 = T.uniform_init(rng, (4, 3), fan_in=4)
b2 = T.uniform_init(rng, (3,), fan_in=4)
x = Tensor(rng.standard_normal((5, 6)))


def f():
    p = T.sigmoid(T.mlp(x, W1, b1, W2, b2))
    return T.mean_all(T.penalty(p))  # the loss's frame penalty -log 2p, averaged


with Tape():
    loss = f()
    backward(loss)

print(f"loss = {loss.item():.4f}")
print(f"dL/dW1 norm = {np.linalg.norm(W1.grad):.4f}")
print(f"dL/db1      = {np.round(b1.grad, 4)}")

# Every gradient above should agree with finite differences to ~1e-9.
err, name = finite_diff_check(f, {"W1": W1, "b1": b1, "W2": W2, "b2": b2}, step=1e-5)
print(f"worst finite-difference relative error: {err:.2e} (at {name})")
