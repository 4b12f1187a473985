import inspect
import itertools
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groundbox import tensor as T
from groundbox.attention import scaled_dot_attention
from groundbox.gradcheck import finite_diff_check
from groundbox.tensor import ShapeError, Tape, Tensor, backward


def _sum(x):
    """Sum of every entry; its adjoint is exactly 1 in every entry."""
    return T.scale(T.mean_all(x), x.data.size)


def _softmax_rows(x):
    """Row-wise softmax of a (m, n) Tensor, as the attention weights: with keys
    sqrt(n)*I_n and values I_n, scaled_dot_attention returns softmax(x)."""
    n = x.data.shape[1]
    return scaled_dot_attention(x, Tensor(math.sqrt(n) * np.eye(n)), Tensor(np.eye(n)))


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
        loss = _sum(a @ b)
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
        return _sum(T.mul(a @ b, weight))

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
        backward(_sum(T.add(s, p)))
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
            loss = _sum(T.mul(w, w))  # recorded while the worker is inside no_grad
            backward(loss)
    finally:
        release.set()
        worker.join(timeout=10)
    assert not worker.is_alive()
    assert [node.name for node in tape.nodes] == ["mul", "mean_all", "scale"]
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
    y = _softmax_rows(Tensor([[3.0, 3.0, 3.0, 3.0]])).data
    assert np.allclose(y, 0.25)


def test_softmax_shift_invariance():
    x = np.array([[1.0, -2.0, 0.5]])
    a = _softmax_rows(Tensor(x)).data
    b = _softmax_rows(Tensor(x + 123.0)).data
    assert np.allclose(a, b)


def test_softmax_closed_form():
    y = _softmax_rows(Tensor([[0.0, math.log(3.0)]])).data
    assert np.allclose(y, [[0.25, 0.75]], atol=1e-12)


@settings(max_examples=50)
@given(st.integers(1, 6), st.integers(1, 8), st.integers(0, 2**31 - 1))
def test_softmax_rows_sum_to_one(m, n, seed):
    x = np.random.default_rng(seed).uniform(-50, 50, size=(m, n))
    y = _softmax_rows(Tensor(x)).data
    assert np.all(np.abs(y.sum(axis=-1) - 1.0) < 1e-9)


def test_relu_and_subgradient_at_zero():
    # mlp's hidden pre-activations are exactly -3, 0 and 2: the relu passes
    # only the 2, and its subgradient at 0 is 0
    W1 = Tensor([[-3.0, 0.0, 2.0]], requires_grad=True)
    with Tape():
        out = T.mlp(Tensor([[1.0]]), W1, Tensor(np.zeros(3)), Tensor(np.ones((3, 1))),
                    Tensor([0.0]))
        backward(_sum(out))
    assert out.data.tolist() == [[2.0]]
    assert W1.grad.tolist() == [[0.0, 0.0, 1.0]]


def test_hinge_values_and_subgradient_at_zero():
    # rows: the positive, then two negatives
    s = Tensor([[0.5, 0.5, 0.5], [0.2, 0.5, 0.9], [0.7, 0.1, 0.5]], requires_grad=True)
    with Tape():
        out = T.hinge(s, 0.0)  # z = -0.3, 0 (the kink), 0.4 and 0.2, -0.4, 0
        backward(_sum(out))
    assert np.array_equal(out.data, [(0.7 - 0.5) + 0.0, 0.0, (0.9 - 0.5) + 0.0])
    assert np.array_equal(s.grad, [[-1.0, 0.0, -1.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    with pytest.raises(ShapeError, match="hinge"):
        T.hinge(Tensor([[1.0, 2.0]]), 0.1)


def test_penalty_floor_has_zero_subgradient():
    c = Tensor([0.0, 1e-12, 0.25], requires_grad=True)
    with Tape():
        out = T.penalty(c)
        backward(_sum(out))
    assert np.array_equal(out.data[:2], [-math.log(T.LOG_EPS)] * 2)
    assert out.data[2] == -math.log(0.5)
    assert np.array_equal(c.grad, [0.0, 0.0, -4.0])


def test_max_reduce_value_index_and_onehot_grad():
    x = Tensor([[0.2, 0.9, 0.4]], requires_grad=True)
    with Tape():
        m = T.max_last(x)
        backward(_sum(m))
    assert m.data[0] == 0.9  # the index shows in the one-hot adjoint
    assert np.allclose(x.grad, [[0.0, 1.0, 0.0]])


def test_max_reduce_tie_breaks_low_index():
    # the one-hot adjoint marks the index the max was taken at
    x = Tensor([[0.5, 0.5]], requires_grad=True)
    with Tape():
        backward(_sum(T.max_last(x)))
    assert np.array_equal(x.grad, [[1.0, 0.0]])


def test_mean():
    assert T.mean_all(Tensor([1.0, 2.0, 3.0])).item() == 2.0


def test_layer_norm_rows_rejects_non_2d():
    for shape in [(4,), (2, 2, 4)]:
        with pytest.raises(ShapeError, match="2-D"):
            T.residual_norm(Tensor(np.ones(shape)), Tensor(np.ones(shape)),
                            Tensor(np.ones(4)), Tensor(np.zeros(4)))


def _residual_inputs():
    """x and y of shape (3, 4), which need gradients, then gain and bias."""
    rng = np.random.default_rng(0)
    return (Tensor(rng.standard_normal((3, 4)), requires_grad=True),
            Tensor(rng.standard_normal((3, 4)), requires_grad=True),
            Tensor(rng.standard_normal(4)), Tensor(rng.standard_normal(4)))


def test_dropout_eval_mode_is_identity():
    # without multipliers y enters unscaled
    x, y, gain, bias = _residual_inputs()
    summed = T.residual_norm(Tensor(x.data + y.data), Tensor(np.zeros(x.shape)), gain, bias)
    assert np.array_equal(T.residual_norm(x, y, gain, bias, None).data, summed.data)


def test_dropout_p_zero_is_identity():
    x, y, gain, bias = _residual_inputs()
    keep_all = np.ones(y.shape)
    assert np.array_equal(T.residual_norm(x, y, gain, bias, keep_all).data,
                          T.residual_norm(x, y, gain, bias).data)


def test_dropout_rejects_a_mask_of_another_shape():
    x, y, gain, bias = _residual_inputs()
    with pytest.raises(ShapeError, match=r"mask of shape \(4, 3\)"):
        T.residual_norm(x, y, gain, bias, np.ones((4, 3)))


def test_dropout_zero_fraction_and_rescale():
    # the masked entries of y drop out of the sum and get no adjoint; the
    # survivors are scaled by 1/(1-p), in the value and in the adjoint
    keep = np.arange(12).reshape(3, 4) % 3 != 0
    x, y, gain, bias = _residual_inputs()
    rescale = np.where(keep, 1 / 0.75, 0.0)
    with Tape():
        out = T.residual_norm(x, y, gain, bias, rescale)
        backward(_sum(T.mul(out, Tensor(np.arange(12.0).reshape(3, 4)))))
    summed = T.residual_norm(Tensor(x.data + y.data * rescale), Tensor(np.zeros(x.shape)),
                             gain, bias)
    assert np.array_equal(out.data, summed.data)
    assert np.array_equal(y.grad == 0, ~keep)
    assert np.array_equal(y.grad, x.grad * rescale)


@pytest.mark.parametrize("masked", [False, True])
def test_residual_norm_adjoints_do_not_share_a_buffer(masked):
    # x and y get further adjoints after residual_norm's: without a mask both
    # receive the same array, and an in-place add into one must not reach
    # the other
    drop = np.where(np.arange(12).reshape(3, 4) % 2 == 0, 2.0, 0.0) if masked else None
    x, y, gain, bias = _residual_inputs()
    weight = Tensor(np.random.default_rng(1).standard_normal(x.shape))
    with Tape():
        backward(_sum(T.mul(T.residual_norm(x, y, gain, bias, drop), weight)))
    alone = x.grad.copy(), y.grad.copy()
    x.grad = y.grad = None
    with Tape():
        later = T.add(T.scale(x, 2.0), T.scale(y, 3.0))   # adjoints reach x, y last
        out = T.residual_norm(x, y, gain, bias, drop)
        backward(T.add(_sum(T.mul(out, weight)), _sum(later)))
    assert np.array_equal(x.grad, alone[0] + 2.0)
    assert np.array_equal(y.grad, alone[1] + 3.0)


def test_backward_quadratic():
    w = Tensor([1.0, 2.0], requires_grad=True)
    with Tape():
        backward(_sum(T.mul(w, w)))
    assert np.allclose(w.grad, [2.0, 4.0])


def test_second_backward_adds_the_same_leaf_gradient_again():
    w = Tensor([1.0, 2.0], requires_grad=True)
    with Tape():
        loss = T.mean_all(T.mul(T.scale(w, 3.0), w))
        backward(loss)
        backward(loss)
    assert np.array_equal(w.grad, [6.0, 12.0])


def test_two_losses_on_one_tape_give_the_sum_of_their_gradients():
    rng = np.random.default_rng(3)
    w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    b = Tensor(rng.standard_normal((3, 2)), requires_grad=True)

    def losses():
        h = T.sigmoid(T.add(w, b))
        return T.mean_all(T.mul(h, h)), _sum(T.scale(h, 0.5))

    alone = []
    for which in range(2):
        w.grad = b.grad = None
        with Tape():
            backward(losses()[which])
        alone.append((w.grad.copy(), b.grad.copy()))
    w.grad = b.grad = None
    with Tape():
        first, second = losses()
        backward(first)
        backward(second)
    assert np.allclose(w.grad, alone[0][0] + alone[1][0], rtol=1e-15, atol=0)
    assert np.allclose(b.grad, alone[0][1] + alone[1][1], rtol=1e-15, atol=0)


def test_backward_sigmoid_at_zero():
    w = Tensor([0.0], requires_grad=True)
    with Tape():
        backward(_sum(T.sigmoid(w)))
    assert np.allclose(w.grad, 0.25)


def test_backward_rejects_nonscalar():
    w = Tensor([1.0, 2.0], requires_grad=True)
    with Tape():
        y = T.mul(w, w)
        with pytest.raises(ShapeError, match="scalar"):
            backward(y)


def test_backward_refuses_a_loss_the_active_tape_did_not_record():
    w = Tensor([1.0, 2.0], requires_grad=True)
    with Tape():
        loss = _sum(T.mul(w, w))
    with pytest.raises(ShapeError, match="active tape"):
        backward(loss)                      # its tape has exited
    with Tape():
        with pytest.raises(ShapeError, match="active tape"):
            backward(loss)                  # another tape is active
    refused = []

    def in_worker():
        try:
            backward(loss)
        except ShapeError as exc:
            refused.append(exc)

    with Tape():
        loss = _sum(T.mul(w, w))
        worker = threading.Thread(target=in_worker)  # its context has no tape
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive() and len(refused) == 1
    assert w.grad is None


def test_no_grad_blocks_recording():
    w = Tensor([1.0], requires_grad=True)
    with Tape() as tape:
        with T.no_grad():
            y = T.sigmoid(w)
    assert tape.nodes == [] and not y.requires_grad


def test_grad_accumulates_across_reuse():
    w = Tensor([2.0], requires_grad=True)
    with Tape():
        backward(_sum(T.add(T.mul(w, w), T.mul(w, w))))
    assert np.allclose(w.grad, [8.0])


def test_finite_diff_composed_graph():
    # mixed graph exercising most adjoints at once
    rng = np.random.default_rng(3)
    W = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(3), requires_grad=True)
    x = Tensor(rng.standard_normal((5, 4)))
    W2, b2 = Tensor(rng.standard_normal((3, 3))), Tensor(rng.standard_normal(3))

    def f():
        h = T.mlp(x, W, b, W2, b2)
        s = _softmax_rows(T.sigmoid(h))
        m = T.max_last(s)
        return T.mean_all(T.penalty(m))

    err, _ = finite_diff_check(f, {"W": W, "b": b}, step=1e-5)
    assert err < 1e-4


def _off_scale(x, s, rel, off):
    """scale(x, s) recorded with an adjoint off by rel relative and off absolute."""
    out = Tensor(x.data * s)

    def bwd(g):
        T._accumulate(x, g * s * (1.0 + rel) + off)

    return T._record("scale", out, (x,), bwd)


@pytest.mark.parametrize("s, rel, off", [(1.0, 0.01, 0.0), (1e-6, 0.0, 1e-7)])
def test_finite_diff_check_rejects_a_wrong_adjoint(s, rel, off):
    # a 1% error on an O(1) entry, and a 1e-7 error on a 1e-6 entry
    x = Tensor([0.7], requires_grad=True)
    err, where = finite_diff_check(lambda: T.mean_all(_off_scale(x, s, rel, off)),
                                   {"x": x})
    assert err > 1e-4 and where == "x[0]"
    exact, _ = finite_diff_check(lambda: T.mean_all(_off_scale(x, s, 0.0, 0.0)),
                                 {"x": x})
    assert exact < 1e-6


def _attention_reference(q, k, v, heads):
    """Each head on its own column slices, then the heads side by side."""
    w, wv = q.shape[1] // heads, v.shape[1] // heads
    outs = []
    for h in range(heads):
        z = q[:, h * w:(h + 1) * w] @ k[:, h * w:(h + 1) * w].T / math.sqrt(w)
        p = np.exp(z - z.max(axis=1, keepdims=True))
        outs.append(p / p.sum(axis=1, keepdims=True) @ v[:, h * wv:(h + 1) * wv])
    return np.hstack(outs)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(1, 3),
       st.integers(1, 3), st.booleans(), st.booleans(), st.booleans(),
       st.integers(0, 2**31 - 1))
def test_multi_head_attention_matches_per_head_reference(m, n, heads, w, wv, q_grad,
                                                         k_grad, v_grad, seed):
    rng = np.random.default_rng(seed)
    q = Tensor(rng.standard_normal((m, heads * w)), requires_grad=q_grad)
    k = Tensor(rng.standard_normal((n, heads * w)), requires_grad=k_grad)
    v = Tensor(rng.standard_normal((n, heads * wv)), requires_grad=v_grad)
    weight = Tensor(rng.standard_normal((m, heads * wv)))
    out = T.multi_head_attention(q, k, v, heads)
    assert out.shape == (m, heads * wv)
    assert np.max(np.abs(out.data - _attention_reference(q.data, k.data, v.data,
                                                         heads))) < 1e-12

    def f():
        return _sum(T.mul(T.multi_head_attention(q, k, v, heads), weight)).item()

    with Tape() as tape:
        out = T.multi_head_attention(q, k, v, heads)
        if tape.nodes:
            backward(_sum(T.mul(out, weight)))
    assert [n.name for n in tape.nodes[:1]] == (
        ["multi_head_attention"] if q_grad or k_grad or v_grad else [])
    for t in (q, k, v):
        if not t.requires_grad:
            assert t.grad is None
            continue
        # central differences, compared with an absolute floor: softmax
        # saturation makes some adjoint entries ~1e-7, where a relative
        # error only measures the differencing noise
        numeric = np.zeros_like(t.data)
        for i in np.ndindex(t.data.shape):
            orig = t.data[i]
            t.data[i] = orig + 1e-6
            up = f()
            t.data[i] = orig - 1e-6
            numeric[i] = (up - f()) / 2e-6
            t.data[i] = orig
        assert np.allclose(t.grad, numeric, rtol=1e-6, atol=1e-8)


def test_multi_head_attention_rejects_widths_that_do_not_split():
    with pytest.raises(ShapeError, match="2 heads"):
        T.multi_head_attention(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 3))),
                               Tensor(np.ones((4, 4))), 2)
    with pytest.raises(ShapeError, match="v of shape"):
        T.multi_head_attention(Tensor(np.ones((2, 4))), Tensor(np.ones((4, 4))),
                               Tensor(np.ones((4, 3))), 2)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=4), st.integers(1, 3),
       st.integers(0, 2**31 - 1))
def test_multi_head_attention_batch_matches_each_sequence_alone(lengths, heads, seed):
    # B key sequences padded to the longest: each real query row must equal
    # attention over its own sequence's real keys alone, and padded keys must
    # get no adjoint
    rng = np.random.default_rng(seed)
    B, n, w = len(lengths), max(lengths), 2
    mask = np.arange(n)[None, :] < np.array(lengths)[:, None]
    q, k, v = (Tensor(rng.standard_normal((B * n, heads * w)), requires_grad=True)
               for _ in range(3))
    weight = rng.standard_normal((B * n, heads * w))
    with Tape():
        out = T.multi_head_attention(q, k, v, heads, key_mask=mask)
        backward(_sum(T.mul(out, Tensor(weight))))
    for b, L in enumerate(lengths):
        rows = slice(b * n, b * n + L)
        alone = _attention_reference(q.data[rows], k.data[rows], v.data[rows], heads)
        assert np.max(np.abs(out.data[rows] - alone)) < 1e-12
    assert not k.grad[~mask.reshape(-1)].any() and not v.grad[~mask.reshape(-1)].any()


def test_similarity_matches_scaled_sigmoid_of_each_product():
    # queries: the positive and one sentence negative; proposals: the
    # positive and two visual negatives; a middle axis of 3 segments
    rng = np.random.default_rng(6)
    q, p = rng.standard_normal((2, 3, 2, 4)), rng.standard_normal((3, 3, 5, 4))
    out = T.similarity(Tensor(q), Tensor(p)).data
    assert out.shape == (4, 3, 2, 5)
    for j, (qj, pj) in enumerate([(0, 0), (0, 1), (0, 2), (1, 0)]):
        for b in range(3):
            want = 1.0 / (1.0 + np.exp(-(q[qj, b] @ p[pj, b].T) / 2.0))
            assert np.allclose(out[j, b], want, rtol=0, atol=1e-15)
    with pytest.raises(ShapeError, match="do not pair"):
        T.similarity(Tensor(q), Tensor(p[:, :2]))


def test_take_repeated_indices_sum_and_unique_indices_assign():
    rng = np.random.default_rng(4)
    a = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
    g = rng.standard_normal((4, 3))
    for idx in ([3, 1, 3, 3], [4, 0, 2, -4]):  # -4 is row 1: no repeat
        a.grad = None
        with Tape():
            backward(_sum(T.mul(T.take(a, idx), Tensor(g))))
        want = np.zeros_like(a.data)
        np.add.at(want, np.asarray(idx), g)
        assert np.array_equal(a.grad, want)
    assert np.array_equal(a.grad[1], g[3])


_ADJOINT_ENTRIES = st.one_of(st.floats(-10, 10), st.sampled_from([0.0, -0.0, 1e300, -1e300]))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_take_adjoint_equals_add_at_byte_for_byte(data):
    n = data.draw(st.integers(1, 5))
    trailing = data.draw(st.lists(st.integers(1, 3), max_size=2))
    index_shape = data.draw(st.sampled_from([(), (4,), (7,), (2, 3)]))
    unique = index_shape == (4,) and n >= 4 and data.draw(st.booleans())
    if unique:  # a permutation's prefix, as nonnegative or negative indices
        shift = n * data.draw(st.integers(0, 1))
        idx = np.asarray(data.draw(st.permutations(range(n))))[:4] - shift
    else:
        idx = np.asarray(data.draw(st.lists(st.integers(-n, n - 1),
                                            min_size=math.prod(index_shape),
                                            max_size=math.prod(index_shape))),
                         dtype=np.intp).reshape(index_shape)
    g_shape = index_shape + tuple(trailing)
    g = np.asarray(data.draw(st.lists(_ADJOINT_ENTRIES, min_size=math.prod(g_shape),
                                      max_size=math.prod(g_shape)))).reshape(g_shape)
    a = Tensor(np.zeros((n, *trailing)), requires_grad=True)
    with Tape():
        backward(_sum(T.mul(T.take(a, idx), Tensor(g))))
    want = np.zeros_like(a.data)
    np.add.at(want, idx, g)
    assert a.grad.shape == want.shape and a.grad.tobytes() == want.tobytes()


# Gradient property test for every op that records a tape node. Inputs keep
# clear of the kink of hinge (0) and of ties in max_last, so
# central differences are exact up to rounding; penalty gets inputs clear of
# its floor and residual_norm rows with spread. matmul and
# multi_head_attention have their own property tests above.

def _normal(rng, shape):
    return rng.standard_normal(shape)


def _off_zero(rng, shape):
    return rng.choice([-1.0, 1.0], shape) * rng.uniform(0.1, 2.0, shape)


def _positive(rng, shape):
    return rng.uniform(0.5, 2.0, shape)


def _spread_rows(rng, shape):
    """Entries of each row at least 0.3 apart."""
    return (rng.permuted(np.tile(0.5 * np.arange(shape[-1]), (shape[0], 1)), axis=-1)
            + rng.uniform(-0.1, 0.1, shape))


def _residual_case(drop_of):
    """residual_norm of rows with spread x and a small y: even scaled by
    1/(1-p), y leaves the entries of each row of x + y at least 0.1 apart."""
    return ([_spread_rows, lambda rng, shape: rng.uniform(-0.05, 0.05, shape),
             lambda rng, shape: _normal(rng, shape[1:]),
             lambda rng, shape: _normal(rng, shape[1:])],
            lambda x, y, gain, bias: T.residual_norm(x, y, gain, bias, drop_of(x.shape)))


def _query_mask(m):
    """The (B, O) real-query mask of m rows: two sequences when m is even, else
    one; the last query of the first sequence is padding when it has company."""
    mask = np.ones((2, m // 2) if m % 2 == 0 else (1, m), dtype=bool)
    if mask.shape[1] > 1:
        mask[0, -1] = False
    return mask


def _checkerboard(shape):
    """Inverted-dropout multipliers at p = 0.4 that keep every other entry."""
    return np.where(np.indices(shape).sum(axis=0) % 2 == 0, 1 / 0.6, 0.0)


# op name -> (input makers, each called as maker(rng, (m, n)); op on the Tensors)
GRAD_CASES = {
    "add": ([_normal, _normal], T.add),
    "mul": ([_normal, _normal], T.mul),
    "scale": ([_normal], lambda x: T.scale(x, -1.7)),
    "reshape": ([_normal], lambda x: T.reshape(x, (-1,))),
    "take": ([_normal], lambda x: T.take(x, [x.data.shape[0] - 1, 0, -1])),
    "sigmoid": ([_normal], T.sigmoid),
    # K' = 2 sentence negatives of m queries, K = 2 visual negatives of m+1
    # proposals, over a middle axis of 2 segments
    "similarity": ([lambda rng, shape: _normal(rng, (3, 2) + shape),
                    lambda rng, shape: _normal(rng, (3, 2, shape[0] + 1, shape[1]))],
                   T.similarity),
    # a positive row and two negatives; neg - pos + delta is at least 0.06
    # away from the kink
    "hinge": ([lambda rng, shape: np.concatenate([rng.uniform(-0.04, 0.04, (1,) + shape),
                                                  _off_zero(rng, (2,) + shape) - 0.3])],
              lambda s: T.hinge(s, 0.3)),
    "penalty": ([_positive], T.penalty),
    "max_last": ([_spread_rows], T.max_last),
    "mean_all": ([_normal], T.mean_all),
    # the last row is padding wherever there is more than one
    "masked_mean": ([_normal], lambda x: T.masked_mean(
        x, 0, (np.arange(x.shape[0]) < max(1, x.shape[0] - 1))[:, None])),
    "residual_norm": _residual_case(lambda shape: None),
    # J (m, n) and q (m, n+1) split the head's input unevenly
    "language_head": ([_normal, lambda rng, shape: _normal(rng, (shape[0], shape[1] + 1)),
                       lambda rng, shape: _normal(rng, (2 * shape[1] + 1, 3)),
                       lambda rng, shape: _normal(rng, (3,))],
                      lambda J, q, W, b: T.language_head(J, q, W, b, _query_mask(J.shape[0]))),
}


# mlp on (m, n) inputs with a hidden width of 3 and an output width of 2; a
# fixed 0/1 row weight zeroes the adjoint of every odd output row, as the max
# over proposals does in the model
def _mlp_case(drop_of):
    def op(x, W1, b1, W2, b2):
        rows = (np.arange(x.shape[0]) % 2 == 0)[:, None] * np.ones(2)
        return T.mul(T.mlp(x, W1, b1, W2, b2, drop_of(x.shape[0])), Tensor(rows))
    return ([_normal, lambda rng, shape: _normal(rng, (shape[1], 3)),
             lambda rng, shape: _normal(rng, (3,)), lambda rng, shape: _normal(rng, (3, 2)),
             lambda rng, shape: _normal(rng, (2,))], op)


GRAD_CASES["mlp"] = _mlp_case(lambda m: None)
# the ops that apply dropout, with fixed checkerboard multipliers
MASK_CASES = {"mlp_dropout": _mlp_case(lambda m: _checkerboard((m, 3))),
              "residual_norm_dropout": _residual_case(_checkerboard)}


# Graphs where one tensor feeds two takes, or a take and a pass-through op:
# the second take's adjoint adds into the grad the first one left, and into a
# read-only grad shared with the pass-through op.
TAKE_CASES = {
    "take_twice": ([_normal], lambda x: T.add(
        T.take(x, np.arange(x.shape[0])[::-1]), T.take(x, -1 - np.arange(x.shape[0]) // 2))),
    "take_after_pass_through": ([_normal], lambda x: T.add(
        T.take(x, np.arange(x.shape[0])[::-1]), T.reshape(x, x.shape))),
}


def test_gradient_cases_cover_every_recording_op():
    recording = {name for name, fn in vars(T).items()
                 if callable(fn) and not name.startswith("_")
                 and getattr(fn, "__module__", None) == T.__name__
                 and "_record(" in inspect.getsource(fn)}
    assert recording == set(GRAD_CASES) | {"matmul", "multi_head_attention"}


def _check_gradients(makers, op, m, n, flags, seed):
    """The adjoints op records for the inputs whose flag is set, against
    central differences and byte for byte against the run where every input
    requires grad; inputs without one get none."""
    rng = np.random.default_rng(seed)
    inputs = [Tensor(make(rng, (m, n)), requires_grad=flag)
              for make, flag in zip(makers, flags)]
    weight = Tensor(rng.standard_normal(op(*inputs).shape))

    def f():
        return float(np.sum(op(*inputs).data * weight.data))

    def run(tensors):
        with Tape() as tape:
            out = op(*tensors)
            if tape.nodes:
                backward(_sum(T.mul(out, weight)))
        return tape

    tape = run(inputs)
    every = [Tensor(t.data.copy(), requires_grad=True) for t in inputs]
    run(every)
    if not any(t.requires_grad for t in inputs):
        assert tape.nodes == []
    for t, full in zip(inputs, every):
        if not t.requires_grad:
            assert t.grad is None
            continue
        assert ((t.grad.dtype, t.grad.shape, t.grad.tobytes())
                == (full.grad.dtype, full.grad.shape, full.grad.tobytes()))
        numeric = np.zeros_like(t.data)
        for i in np.ndindex(t.data.shape):
            orig = t.data[i]
            t.data[i] = orig + 1e-6
            up = f()
            t.data[i] = orig - 1e-6
            numeric[i] = (up - f()) / 2e-6
            t.data[i] = orig
        assert np.allclose(t.grad, numeric, rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("name", sorted(GRAD_CASES) + sorted(TAKE_CASES)
                         + sorted(MASK_CASES))
@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4),
       st.lists(st.booleans(), min_size=5, max_size=5), st.integers(0, 2**31 - 1))
def test_op_gradients_match_central_differences(name, m, n, flags, seed):
    _check_gradients(*{**GRAD_CASES, **TAKE_CASES, **MASK_CASES}[name], m, n, flags, seed)


@pytest.mark.parametrize("name", ["residual_norm", "residual_norm_dropout"])
@pytest.mark.parametrize("flags", list(itertools.product([False, True], repeat=4)))
def test_residual_norm_gradients_under_every_requires_grad_combination(name, flags):
    _check_gradients(*{**GRAD_CASES, **MASK_CASES}[name], 3, 4, flags, seed=7)


@pytest.mark.parametrize("flags", list(itertools.product([False, True], repeat=4)))
def test_language_head_gradients_under_every_requires_grad_combination(flags):
    # four rows: two sequences, the first one padded
    _check_gradients(*GRAD_CASES["language_head"], 4, 3, flags, seed=7)


def _add_bias(z, b):
    """z (m, n) plus b (n,) in every row; b enters through a product with a
    column of ones, which is exact in every entry."""
    return T.add(z, Tensor(np.ones((z.shape[0], 1))) @ T.reshape(b, (1, -1)))


def _mlp_reference(x, W1, b1, W2, b2, drop):
    """mlp as the ops it fuses, its dropout and its relu as products with
    the dropout multipliers and with the 0/1 mask of the positive entries
    (subgradient 0 at 0)."""
    z = _add_bias(x @ W1, b1)
    if drop is not None:
        z = T.mul(z, Tensor(drop))
    return _add_bias(T.mul(z, Tensor((z.data > 0).astype(np.float64))) @ W2, b2)


@settings(max_examples=30, deadline=None)
@given(st.booleans(), st.booleans(), st.lists(st.booleans(), min_size=5, max_size=5),
       st.integers(0, 2**31 - 1))
def test_mlp_matches_the_ops_it_fuses(chunked, masked, flags, seed):
    """Bitwise-equal values and adjoints within 1e-12 of the composed ops, for
    float32 inputs (as proposal features are stored) of one chunk or of
    several. Several chunks need inputs thousands of entries wide; their
    hidden widths are multiples of 16, where one whole product does not
    depend on the BLAS thread count (see tensor._MLP_CHUNK)."""
    rng = np.random.default_rng(seed)
    if chunked:
        n = int(rng.integers(2731, 5463))
        rows = T._mlp_chunk_rows(n)
        # two or three chunks; the last takes any leftover rows, one included
        m = int(rng.integers(2, 4)) * rows + int(rng.choice([0, 1, rng.integers(rows)]))
        h = 16 * int(rng.integers(1, 4))
    else:
        m, n, h = (int(v) for v in rng.integers(1, [40, 13, 13]))
    d = int(rng.integers(1, 7))
    arrays = [rng.standard_normal((m, n)).astype(np.float32),
              rng.standard_normal((n, h)) / math.sqrt(n), rng.standard_normal(h),
              rng.standard_normal((h, d)), rng.standard_normal(d)]
    drop = np.where(rng.random((m, h)) >= 0.3, 1 / 0.7, 0.0) if masked else None
    g = rng.standard_normal((m, d))
    g[rng.random(m) < 0.5] = 0.0  # output rows that carry no gradient

    def run(op):
        inputs = [Tensor(a, requires_grad=f) for a, f in zip(arrays, flags)]
        with Tape() as tape:
            out = op(*inputs, drop)
            if tape.nodes:
                backward(_sum(T.mul(out, Tensor(g))))
        return out.data, [t.grad for t in inputs], [node.name for node in tape.nodes]

    got, grads, nodes = run(T.mlp)
    want, want_grads, _ = run(_mlp_reference)
    assert np.array_equal(got, want)
    assert nodes == (["mlp", "mul", "mean_all", "scale"] if any(flags) else [])
    for grad, want_grad, flag in zip(grads, want_grads, flags):
        if not flag:
            assert grad is None
            continue
        assert np.allclose(grad, want_grad, rtol=1e-12, atol=1e-12)


def test_mlp_rejects_shapes_that_do_not_chain():
    x, W1, b1 = Tensor(np.ones((4, 3))), Tensor(np.ones((3, 5))), Tensor(np.ones(5))
    W2, b2 = Tensor(np.ones((5, 2))), Tensor(np.ones(2))
    with pytest.raises(ShapeError, match=r"W1 \(3, 5\).*W2 \(4, 2\)"):
        T.mlp(x, W1, b1, Tensor(np.ones((4, 2))), b2)
    with pytest.raises(ShapeError, match=r"b2 \(3,\)"):
        T.mlp(x, W1, b1, W2, Tensor(np.ones(3)))
    with pytest.raises(ShapeError, match=r"mask of shape \(4, 2\)"):
        T.mlp(x, W1, b1, W2, b2, np.ones((4, 2)))
