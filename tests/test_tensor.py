import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groundbox import tensor as T
from groundbox.gradcheck import finite_diff_check
from groundbox.tensor import ConfigError, ShapeError, Tape, Tensor, backward


def test_matmul_identity():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    eye = Tensor(np.eye(2))
    assert np.allclose(T.matmul(eye, a).data, a.data)


def test_matmul_hand_example():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[1.0], [1.0]])
    assert np.allclose((a @ b).data, [[3.0], [7.0]])


def test_matmul_zero_annihilates():
    z = Tensor(np.zeros((2, 2)))
    a = Tensor([[5.0, 6.0], [7.0, 8.0]])
    assert np.all((z @ a).data == 0)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_matmul_gradients():
    a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
    b = Tensor(np.array([[5.0], [6.0]]), requires_grad=True)
    with Tape():
        loss = T.sum_all(a @ b)
        backward(loss)
    g = np.ones((2, 1))
    assert np.allclose(a.grad, g @ b.data.T)
    assert np.allclose(b.grad, a.data.T @ g)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5),
       st.booleans(), st.booleans(), st.integers(0, 2**31 - 1))
def test_matmul_adjoints_under_every_requires_grad_combination(m, k, n, a_grad,
                                                               b_grad, seed):
    rng = np.random.default_rng(seed)
    a = Tensor(rng.standard_normal((m, k)), requires_grad=a_grad)
    b = Tensor(rng.standard_normal((k, n)), requires_grad=b_grad)
    w = rng.standard_normal((m, n))
    w[rng.random(m) < 0.5] = 0.0  # rows of g = d(loss)/d(a @ b) that are zero
    weight = Tensor(w)

    def f():
        return T.sum_all(T.mul(a @ b, weight))

    params = {name: t for name, t in (("a", a), ("b", b)) if t.requires_grad}
    if not params:
        with Tape() as tape:
            f()
        assert tape.nodes == []
        return
    err, where = finite_diff_check(f, params, step=1e-5)
    assert err < 1e-6, where
    if a_grad:
        assert np.allclose(a.grad, w @ b.data.T, rtol=1e-12, atol=1e-12)
    if b_grad:
        assert np.allclose(b.grad, a.data.T @ w, rtol=1e-12, atol=1e-12)
    assert all(t.grad is None for t in (a, b, weight) if not t.requires_grad)


def test_pass_through_adjoints_do_not_share_grad_buffers():
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([3.0, 4.0], requires_grad=True)
    with Tape():
        p = T.scale(a, 3.0)    # recorded first, so its adjoint reaches a last
        s = T.add(a, b)
        backward(T.sum_all(T.add(s, p)))
    assert np.array_equal(a.grad, [4.0, 4.0])
    assert np.array_equal(b.grad, [1.0, 1.0])
    assert np.array_equal(s.grad, [1.0, 1.0])


def test_no_grad_in_another_thread_leaves_recording_alone():
    w = Tensor([1.0, 2.0], requires_grad=True)
    entered, release = threading.Event(), threading.Event()

    def inference():
        with T.no_grad():
            entered.set()
            release.wait(timeout=10)

    worker = threading.Thread(target=inference)
    try:
        with Tape() as tape:
            worker.start()
            assert entered.wait(timeout=10)
            loss = T.sum_all(T.mul(w, w))  # recorded while the worker is inside no_grad
            backward(loss)
    finally:
        release.set()
        worker.join(timeout=10)
    assert not worker.is_alive()
    assert [node.name for node in tape.nodes] == ["mul", "sum_all"]
    assert np.array_equal(w.grad, [2.0, 4.0])


def test_sigmoid_values():
    x = Tensor([0.0, 2.0])
    y = T.sigmoid(x)
    assert y.data[0] == 0.5
    assert abs(y.data[1] - 0.8807970779778823) < 1e-12


def test_sigmoid_odd_symmetry():
    x = np.linspace(-30, 30, 41)
    lo = T.sigmoid(Tensor(x)).data
    hi = T.sigmoid(Tensor(-x)).data
    assert np.allclose(lo, 1.0 - hi)


@given(st.lists(st.floats(-30, 30), min_size=1, max_size=30))
def test_sigmoid_strictly_inside_unit_interval(xs):
    # beyond ~|36| the float64 result rounds to exactly 0 or 1
    y = T.sigmoid(Tensor(xs)).data
    assert np.all(y > 0) and np.all(y < 1)


def test_sigmoid_saturates_without_overflow():
    y = T.sigmoid(Tensor([-1e4, 1e4])).data
    assert np.all(np.isfinite(y))
    assert y[0] == 0.0 and y[1] == 1.0


def test_softmax_uniform_row():
    y = T.softmax_rows(Tensor([[3.0, 3.0, 3.0, 3.0]])).data
    assert np.allclose(y, 0.25)


def test_softmax_shift_invariance():
    x = np.array([[1.0, -2.0, 0.5]])
    a = T.softmax_rows(Tensor(x)).data
    b = T.softmax_rows(Tensor(x + 123.0)).data
    assert np.allclose(a, b)


def test_softmax_closed_form():
    y = T.softmax_rows(Tensor([[0.0, math.log(3.0)]])).data
    assert np.allclose(y, [[0.25, 0.75]], atol=1e-12)


@settings(max_examples=50)
@given(st.integers(1, 6), st.integers(1, 8), st.integers(0, 2**31 - 1))
def test_softmax_rows_sum_to_one(m, n, seed):
    x = np.random.default_rng(seed).uniform(-50, 50, size=(m, n))
    y = T.softmax_rows(Tensor(x)).data
    assert np.all(np.abs(y.sum(axis=-1) - 1.0) < 1e-9)


def test_relu_and_subgradient_at_zero():
    x = Tensor([-3.0, 0.0, 2.0], requires_grad=True)
    with Tape():
        loss = T.sum_all(T.relu(x))
        backward(loss)
    assert np.allclose(T.relu(Tensor([-3.0])).data, 0.0)
    assert np.allclose(x.grad, [0.0, 0.0, 1.0])


def test_max_reduce_value_index_and_onehot_grad():
    x = Tensor([[0.2, 0.9, 0.4]], requires_grad=True)
    with Tape():
        m, arg = T.max_last(x)
        backward(T.sum_all(m))
    assert m.data[0] == 0.9 and arg[0] == 1
    assert np.allclose(x.grad, [[0.0, 1.0, 0.0]])


def test_max_reduce_tie_breaks_low_index():
    _, arg = T.max_last(Tensor([[0.5, 0.5]]))
    assert arg[0] == 0


def test_mean():
    assert T.mean_all(Tensor([1.0, 2.0, 3.0])).item() == 2.0


def test_concat_and_split_gradients():
    a = Tensor([[1.0, 2.0]], requires_grad=True)
    b = Tensor([[3.0, 4.0]], requires_grad=True)
    with Tape():
        c = T.concat([a, b], axis=1)
        backward(T.sum_all(T.mul(c, c)))
    assert np.allclose(a.grad, 2 * a.data)
    assert np.allclose(b.grad, 2 * b.data)


def test_log_rejects_nonpositive():
    with pytest.raises(ValueError, match="clamp"):
        T.log(Tensor([0.0]))


def test_dropout_eval_mode_is_identity():
    x = Tensor(np.random.default_rng(0).standard_normal(100))
    y = T.dropout(x, 0.5, training=False, rng=None)
    assert y is x


def test_dropout_p_zero_is_identity():
    x = Tensor([1.0, 2.0])
    assert T.dropout(x, 0.0, training=True,
                     rng=np.random.default_rng(0)) is x


def test_dropout_rejects_p_one():
    with pytest.raises(ConfigError):
        T.dropout(Tensor([1.0]), 1.0, training=True, rng=np.random.default_rng(0))


def test_dropout_zero_fraction_and_rescale():
    rng = np.random.default_rng(7)
    x = Tensor(np.ones(10_000))
    y = T.dropout(x, 0.5, training=True, rng=rng).data
    frac = np.mean(y == 0)
    assert abs(frac - 0.5) < 0.05
    assert np.allclose(y[y != 0], 2.0)  # survivors rescaled by 1/(1-p)


def test_backward_quadratic():
    w = Tensor([1.0, 2.0], requires_grad=True)
    with Tape():
        backward(T.sum_all(T.mul(w, w)))
    assert np.allclose(w.grad, [2.0, 4.0])


def test_backward_sigmoid_at_zero():
    w = Tensor([0.0], requires_grad=True)
    with Tape():
        backward(T.sum_all(T.sigmoid(w)))
    assert np.allclose(w.grad, 0.25)


def test_backward_rejects_nonscalar():
    w = Tensor([1.0, 2.0], requires_grad=True)
    with Tape():
        y = T.mul(w, w)
        with pytest.raises(ShapeError, match="scalar"):
            backward(y)


def test_no_grad_blocks_recording():
    w = Tensor([1.0], requires_grad=True)
    with Tape():
        with T.no_grad():
            y = T.sigmoid(w)
    assert y.tape is None and not y.requires_grad


def test_grad_accumulates_across_reuse():
    w = Tensor([2.0], requires_grad=True)
    with Tape():
        backward(T.sum_all(T.add(T.mul(w, w), T.mul(w, w))))
    assert np.allclose(w.grad, [8.0])


def test_finite_diff_composed_graph():
    # mixed graph exercising most adjoints at once
    rng = np.random.default_rng(3)
    W = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(3), requires_grad=True)
    x = Tensor(rng.standard_normal((5, 4)))

    def f():
        h = T.relu(T.add_rowvec(x @ W, b))
        s = T.softmax_rows(T.sigmoid(h))
        m, _ = T.max_last(s)
        return T.mean_all(T.log(T.clamp_min(m, 1e-8)))

    err, _ = finite_diff_check(f, {"W": W, "b": b}, step=1e-5)
    assert err < 1e-4
