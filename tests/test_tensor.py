import inspect
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groundbox import tensor as T
from groundbox.attention import scaled_dot_attention
from groundbox.gradcheck import finite_diff_check
from groundbox.tensor import ConfigError, ShapeError, Tape, Tensor, backward


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
    x = Tensor([-3.0, 0.0, 2.0], requires_grad=True)
    with Tape():
        loss = _sum(T.relu(x))
        backward(loss)
    assert np.allclose(T.relu(Tensor([-3.0])).data, 0.0)
    assert np.allclose(x.grad, [0.0, 0.0, 1.0])


def test_max_reduce_value_index_and_onehot_grad():
    x = Tensor([[0.2, 0.9, 0.4]], requires_grad=True)
    with Tape():
        m, arg = T.max_last(x)
        backward(_sum(m))
    assert m.data[0] == 0.9 and arg[0] == 1
    assert np.allclose(x.grad, [[0.0, 1.0, 0.0]])


def test_max_reduce_tie_breaks_low_index():
    _, arg = T.max_last(Tensor([[0.5, 0.5]]))
    assert arg[0] == 0


def test_mean():
    assert T.mean_all(Tensor([1.0, 2.0, 3.0])).item() == 2.0


def test_layer_norm_rows_rejects_non_2d():
    for shape in [(4,), (2, 2, 4)]:
        with pytest.raises(ShapeError, match="2-D"):
            T.layer_norm_rows(Tensor(np.ones(shape)), Tensor(np.ones(4)), Tensor(np.zeros(4)))


def test_concat_and_split_gradients():
    a = Tensor([[1.0, 2.0]], requires_grad=True)
    b = Tensor([[3.0, 4.0]], requires_grad=True)
    with Tape():
        c = T.concat([a, b], axis=1)
        backward(_sum(T.mul(c, c)))
    assert np.allclose(a.grad, 2 * a.data)
    assert np.allclose(b.grad, 2 * b.data)


def test_log_rejects_nonpositive():
    with pytest.raises(ValueError, match="clamp"):
        T.log(Tensor([0.0]))


def test_dropout_eval_mode_is_identity():
    x = Tensor(np.random.default_rng(0).standard_normal(100))
    assert T.dropout(x, None, 0.5) is x


def test_dropout_p_zero_is_identity():
    x = Tensor([1.0, 2.0])
    assert np.array_equal(T.dropout(x, np.array([True, True]), 0.0).data, x.data)


def test_dropout_rejects_p_one():
    with pytest.raises(ConfigError):
        T.dropout(Tensor([1.0]), np.array([True]), 1.0)
    with pytest.raises(ConfigError):
        T.dropout(Tensor([1.0]), None, 1.0)


def test_dropout_rejects_a_mask_of_another_shape():
    with pytest.raises(ShapeError):
        T.dropout(Tensor(np.ones((2, 3))), np.ones((3, 2), dtype=bool), 0.5)


def test_dropout_zero_fraction_and_rescale():
    keep = np.arange(12).reshape(3, 4) % 3 != 0
    x = Tensor(np.arange(1.0, 13.0).reshape(3, 4), requires_grad=True)
    with Tape():
        y = T.dropout(x, keep, 0.25)
        backward(_sum(y))
    assert np.array_equal(y.data == 0, ~keep)
    assert np.allclose(y.data[keep], x.data[keep] / 0.75)  # survivors scaled by 1/(1-p)
    assert np.allclose(x.grad, np.where(keep, 1 / 0.75, 0.0))


def test_backward_quadratic():
    w = Tensor([1.0, 2.0], requires_grad=True)
    with Tape():
        backward(_sum(T.mul(w, w)))
    assert np.allclose(w.grad, [2.0, 4.0])


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


def test_no_grad_blocks_recording():
    w = Tensor([1.0], requires_grad=True)
    with Tape():
        with T.no_grad():
            y = T.sigmoid(w)
    assert y.tape is None and not y.requires_grad


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

    def f():
        h = T.relu(T.add_rowvec(x @ W, b))
        s = _softmax_rows(T.sigmoid(h))
        m, _ = T.max_last(s)
        return T.mean_all(T.log(T.clamp_min(m, 1e-8)))

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
    rng = np.random.default_rng(6)
    q, p = rng.standard_normal((3, 2, 4)), rng.standard_normal((3, 5, 4))
    out = T.similarity(Tensor(q), Tensor(p)).data
    for b in range(3):
        want = 1.0 / (1.0 + np.exp(-(q[b] @ p[b].T) / 2.0))
        assert np.allclose(out[b], want, rtol=0, atol=1e-15)
    with pytest.raises(ShapeError, match="do not pair"):
        T.similarity(Tensor(q), Tensor(p[:2]))


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


# Gradient property test for every op that records a tape node. Inputs keep
# clear of the kinks of relu and clamp_min (0) and of ties in max_last, so
# central differences are exact up to rounding; log gets positive inputs and
# layer_norm_rows rows with spread. matmul and multi_head_attention have
# their own property tests above.

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


# op name -> (input makers, each called as maker(rng, (m, n)); op on the Tensors)
GRAD_CASES = {
    "add": ([_normal, _normal], T.add),
    "sub": ([_normal, _normal], T.sub),
    "mul": ([_normal, _normal], T.mul),
    "scale": ([_normal], lambda x: T.scale(x, -1.7)),
    "shift": ([_normal], lambda x: T.shift(x, 0.3)),
    "reshape": ([_normal], lambda x: T.reshape(x, (-1,))),
    "concat": ([_normal, _normal], lambda a, b: T.concat([a, b, a], axis=1)),
    "take": ([_normal], lambda x: T.take(x, [x.data.shape[0] - 1, 0, -1])),
    "add_rowvec": ([_normal, lambda rng, shape: _normal(rng, shape[1:])], T.add_rowvec),
    "sigmoid": ([_normal], T.sigmoid),
    "similarity": ([_normal, _normal], T.similarity),
    "relu": ([_off_zero], T.relu),
    "log": ([_positive], T.log),
    "clamp_min": ([_off_zero], lambda x: T.clamp_min(x, 0.0)),
    "max_last": ([_spread_rows], lambda x: T.max_last(x)[0]),
    "mean_all": ([_normal], T.mean_all),
    # the last row is padding wherever there is more than one
    "masked_mean": ([_normal], lambda x: T.masked_mean(
        x, 0, (np.arange(x.shape[0]) < max(1, x.shape[0] - 1))[:, None])),
    "layer_norm_rows": ([_spread_rows, lambda rng, shape: _normal(rng, shape[1:]),
                         lambda rng, shape: _normal(rng, shape[1:])], T.layer_norm_rows),
    # a fixed checkerboard keep-mask
    "dropout": ([_normal], lambda x: T.dropout(
        x, np.indices(x.shape).sum(axis=0) % 2 == 0, 0.4)),
}


# Graphs where one tensor feeds two takes: the second take backward adds into
# the grad the first one left (in place, as no row repeats), and into a
# read-only grad shared with a pass-through op (never in place).
TAKE_CASES = {
    "take_twice": ([_normal], lambda x: T.concat(
        [T.take(x, np.arange(x.shape[0])[::-1]), T.take(x, [x.shape[0] - 1, 0, -1])])),
    "take_after_pass_through": ([_normal], lambda x: T.concat(
        [T.take(x, np.arange(x.shape[0])[::-1]), T.shift(x, 0.3)])),
}


def test_gradient_cases_cover_every_recording_op():
    recording = {name for name, fn in vars(T).items()
                 if callable(fn) and not name.startswith("_")
                 and getattr(fn, "__module__", None) == T.__name__
                 and "_record(" in inspect.getsource(fn)}
    assert recording == set(GRAD_CASES) | {"matmul", "multi_head_attention"}


@pytest.mark.parametrize("name", sorted(GRAD_CASES) + sorted(TAKE_CASES))
@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4),
       st.lists(st.booleans(), min_size=3, max_size=3), st.integers(0, 2**31 - 1))
def test_op_gradients_match_central_differences(name, m, n, flags, seed):
    makers, op = {**GRAD_CASES, **TAKE_CASES}[name]
    rng = np.random.default_rng(seed)
    inputs = [Tensor(make(rng, (m, n)), requires_grad=flag)
              for make, flag in zip(makers, flags)]
    weight = Tensor(rng.standard_normal(op(*inputs).shape))

    def f():
        return float(np.sum(op(*inputs).data * weight.data))

    with Tape() as tape:
        out = op(*inputs)
        if tape.nodes:
            backward(_sum(T.mul(out, weight)))
    if not any(t.requires_grad for t in inputs):
        assert tape.nodes == []
    for t in inputs:
        if not t.requires_grad:
            assert t.grad is None
            continue
        numeric = np.zeros_like(t.data)
        for i in np.ndindex(t.data.shape):
            orig = t.data[i]
            t.data[i] = orig + 1e-6
            up = f()
            t.data[i] = orig - 1e-6
            numeric[i] = (up - f()) / 2e-6
            t.data[i] = orig
        assert np.allclose(t.grad, numeric, rtol=1e-6, atol=1e-8)
