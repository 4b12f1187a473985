import math

import numpy as np
import pytest

from groundbox import tensor as T
from groundbox.attention import MultiHeadAttentionStack, scaled_dot_attention
from groundbox.encoders import positional_encoding
from groundbox.gradcheck import finite_diff_check
from groundbox.tensor import ShapeError, Tensor


def test_scaled_dot_single_key_returns_value():
    q = Tensor(np.random.default_rng(0).standard_normal((3, 4)))
    K = Tensor(np.random.default_rng(1).standard_normal((1, 4)))
    V = Tensor([[1.0, 2.0, 3.0, 4.0]])
    out = scaled_dot_attention(q, K, V)
    assert np.allclose(out.data, np.tile(V.data, (3, 1)))


def test_scaled_dot_closed_form():
    # d=1, logits [0, ln 3] -> weights [0.25, 0.75] -> 0.25*4 + 0.75*8 = 7
    q = Tensor([[1.0]])
    K = Tensor([[0.0], [math.log(3.0)]])
    V = Tensor([[4.0], [8.0]])
    assert abs(scaled_dot_attention(q, K, V).data[0, 0] - 7.0) < 1e-12


def test_scaled_dot_output_in_value_convex_hull():
    rng = np.random.default_rng(2)
    q = Tensor(rng.standard_normal((5, 6)))
    K = Tensor(rng.standard_normal((7, 6)))
    V = Tensor(rng.standard_normal((7, 3)))
    out = scaled_dot_attention(q, K, V).data
    assert np.all(out <= V.data.max(axis=0) + 1e-12)
    assert np.all(out >= V.data.min(axis=0) - 1e-12)


def test_scaled_dot_shape_errors():
    with pytest.raises(ShapeError):
        scaled_dot_attention(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))),
                             Tensor(np.ones((4, 5))))
    with pytest.raises(ShapeError):
        scaled_dot_attention(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 3))),
                             Tensor(np.ones((5, 3))))
    with pytest.raises(ShapeError):
        scaled_dot_attention(Tensor(np.ones((2, 3))), Tensor(np.ones((0, 3))),
                             Tensor(np.ones((0, 3))))


def _stack(d=8, seed=0):
    return MultiHeadAttentionStack(d=d, layers=2, heads=3, hidden=12,
                                   rng=np.random.default_rng(seed))


def _layers_only(stack, x):
    """The stack's layers without its positional encoding."""
    for layer in stack.layers:
        x = layer.forward(x)
    return x


def test_stack_preserves_shape():
    stack = _stack()
    x = Tensor(np.random.default_rng(1).standard_normal((5, 8)))
    assert stack.forward(x).shape == (5, 8)


def test_stack_permutation_equivariant_without_pe():
    stack = _stack()
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 8))
    base = _layers_only(stack, Tensor(x)).data
    for _ in range(5):
        perm = rng.permutation(6)
        permuted = _layers_only(stack, Tensor(x[perm])).data
        assert np.allclose(permuted, base[perm], atol=1e-10)


def test_stack_order_sensitive_with_pe():
    stack = _stack()
    x = np.random.default_rng(4).standard_normal((6, 8))
    base = stack.forward(Tensor(x)).data
    perm = np.array([1, 0, 2, 3, 4, 5])
    permuted = stack.forward(Tensor(x[perm])).data
    assert not np.allclose(permuted, base[perm])


def test_stack_rows_are_finite_and_normalized():
    stack = _stack()
    x = Tensor(np.random.default_rng(5).standard_normal((4, 8)) * 50)
    out = stack.forward(x).data
    assert np.all(np.isfinite(out))
    # final sublayer is a layer norm: rows have zero mean, unit variance
    assert np.allclose(out.mean(axis=1), 0.0, atol=1e-9)
    assert np.allclose(out.var(axis=1), 1.0, atol=1e-4)


def test_stack_param_count_and_names():
    stack = _stack()
    params = stack.params()
    assert "attn.l0.Wq" in params and "attn.l1.ff.W2" in params
    assert len(params) == 2 * (3 + 9)  # per layer: Wq/Wk/Wv for all heads + 9


def test_stack_gradcheck():
    stack = _stack(d=4, seed=6)
    x = np.random.default_rng(7).standard_normal((3, 4))

    def f():
        return T.mean_all(T.sigmoid(stack.forward(Tensor(x))))

    err, _ = finite_diff_check(f, stack.params(), step=1e-5)
    assert err < 1e-4


def test_stack_passes_two_keep_masks_per_layer_in_order():
    stack = MultiHeadAttentionStack(d=8, layers=2, heads=3, hidden=12,
                                    rng=np.random.default_rng(0))
    rng = np.random.default_rng(8)
    x = Tensor(rng.standard_normal((5, 8)))
    drop = [np.where(rng.random((5, 8)) >= 0.5, 2.0, 0.0) for _ in range(4)]
    want = T.add(x, Tensor(positional_encoding(5, 8)))
    for i, layer in enumerate(stack.layers):
        want = layer.forward(want, drop=drop[2 * i:2 * i + 2])
    assert np.array_equal(stack.forward(x, drop=drop).data, want.data)
    assert not np.allclose(stack.forward(x).data, want.data)


def test_stack_refuses_more_heads_than_hidden_columns():
    # 8 heads over 4 columns would be 8 heads of width 1, an attention width of 8
    rng = np.random.default_rng(0)
    assert MultiHeadAttentionStack(d=4, heads=4, hidden=4, rng=rng).layers[0].Wq.shape == (4, 4)
    with pytest.raises(ShapeError, match=r"^8 heads exceed the attention hidden width 4"):
        MultiHeadAttentionStack(d=4, heads=8, hidden=4, rng=rng)
    with pytest.raises(TypeError, match="rng"):
        MultiHeadAttentionStack(d=4)


def test_stack_runs_on_more_queries_than_any_table_length():
    # positions are computed for the sequence given, so 70 queries need no
    # table sized in advance
    x = np.random.default_rng(9).standard_normal((70, 8))
    out = _stack().forward(Tensor(x)).data
    assert out.shape == (70, 8) and np.isfinite(out).all()
