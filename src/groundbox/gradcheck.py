"""Central finite-difference verification of reverse-mode gradients."""

import numpy as np

from .tensor import Tape, backward, no_grad


def finite_diff_check(f, params, step=1e-5):
    """Compare analytic gradients of ``f`` against central differences.

    ``f`` is a zero-argument callable returning a scalar Tensor, deterministic
    and differentiable in a neighborhood of the current parameter values
    (dropout off, no ties at max/relu kinks). ``params`` maps names to
    parameter Tensors. Returns the max over all parameter elements of

        |analytic - numeric| / max(|analytic|, |numeric|, 1e-4)

    and the element that attains it. Where both values lie below the 1e-4
    floor the reading is an absolute error: at a 1e-4 threshold such an entry
    passes only if it is off by at most 1e-8, so an exact entry far below the
    differencing noise is not failed on its relative error.
    """
    for t in params.values():
        t.grad = None
    with Tape():
        loss = f()
        backward(loss)
    analytic = {name: (np.zeros_like(t.data) if t.grad is None else t.grad.copy())
                for name, t in params.items()}

    worst = 0.0
    worst_name = None
    with no_grad():
        for name, t in params.items():
            flat = t.data.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                up = f().item()
                flat[i] = orig - step
                down = f().item()
                flat[i] = orig
                numeric = (up - down) / (2.0 * step)
                a = analytic[name].reshape(-1)[i]
                err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-4)
                if err > worst:
                    worst = err
                    worst_name = f"{name}[{i}]"
    return worst, worst_name
