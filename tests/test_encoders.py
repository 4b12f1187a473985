import numpy as np
import pytest

from groundbox import tensor as T
from groundbox.attention import MultiHeadAttentionStack
from groundbox.encoders import (ProposalEncoder, QueryEncoder, VocabularyError,
                                positional_encoding)
from groundbox.gradcheck import finite_diff_check
from groundbox.tensor import ShapeError, Tape, Tensor, backward


def test_query_encoder_is_row_lookup():
    enc = QueryEncoder(V=7, d=4, rng=np.random.default_rng(0))
    q = enc.encode([3, 0, 3])
    assert q.shape == (3, 4)
    assert np.allclose(q.data[0], enc.W.data[3])
    assert np.allclose(q.data[1], enc.W.data[0])
    assert np.allclose(q.data[0], q.data[2])


def test_query_encoder_matches_onehot_matmul():
    enc = QueryEncoder(V=5, d=3, rng=np.random.default_rng(1))
    onehot = np.zeros((2, 5))
    onehot[0, 4] = 1.0
    onehot[1, 1] = 1.0
    assert np.allclose(enc.encode([4, 1]).data, onehot @ enc.W.data)


def test_query_encoder_rejects_out_of_range():
    enc = QueryEncoder(V=5, d=3, rng=np.random.default_rng(0))
    with pytest.raises(VocabularyError):
        enc.encode([5])
    with pytest.raises(VocabularyError):
        enc.encode([-1])
    with pytest.raises(VocabularyError):
        enc.encode([])


def test_query_encoder_gradient_accumulates_on_repeat():
    enc = QueryEncoder(V=4, d=2, rng=np.random.default_rng(0))
    with Tape():
        rows = enc.encode([2, 2])
        backward(T.scale(T.mean_all(rows), rows.data.size))
    g = enc.W.grad
    assert np.allclose(g[2], 2.0)  # row used twice
    assert np.allclose(g[[0, 1, 3]], 0.0)


def test_proposal_encoder_shapes_and_hidden_width():
    enc = ProposalEncoder(D_in=2048, d=128, rng=np.random.default_rng(0))
    assert enc.W1.shape == (2048, 512)  # round(sqrt(2048*128))
    out = enc.encode(np.zeros((6, 2048), dtype=np.float32))
    assert out.shape == (6, 128)


def test_proposal_encoder_rejects_wrong_width():
    enc = ProposalEncoder(D_in=10, d=4, rng=np.random.default_rng(0))
    with pytest.raises(ShapeError):
        enc.encode(np.zeros((3, 11)))


def test_proposal_encoder_eval_deterministic_train_stochastic():
    enc = ProposalEncoder(D_in=10, d=4, rng=np.random.default_rng(0))
    x = np.random.default_rng(1).standard_normal((3, 10))
    a = enc.encode(x).data
    b = enc.encode(x).data
    assert np.array_equal(a, b)
    h = enc.W1.data.shape[1]
    drop_c, drop_d = (np.where(np.random.default_rng(seed).random((3, h)) >= 0.5, 2.0, 0.0)
                      for seed in (2, 3))
    c = enc.encode(x, drop_c).data
    d = enc.encode(x, drop_d).data
    assert not np.array_equal(c, d)
    assert np.array_equal(enc.encode(x, drop_c).data, c)  # the mask is the only noise


def test_proposal_encoder_gradcheck():
    enc = ProposalEncoder(D_in=6, d=3, rng=np.random.default_rng(4))
    x = np.random.default_rng(5).standard_normal((4, 6))

    def f():
        return T.mean_all(T.sigmoid(enc.encode(x)))

    err, _ = finite_diff_check(f, enc.params(), step=1e-5)
    assert err < 1e-4


def test_positional_encoding_first_row_and_ranges():
    table = positional_encoding(16, 8)
    assert np.allclose(table[0, 0::2], 0.0)  # sin(0)
    assert np.allclose(table[0, 1::2], 1.0)  # cos(0)
    assert np.all(np.abs(table) <= 1.0)


def test_positional_encoding_known_entries():
    table = positional_encoding(4, 4)
    assert abs(table[1, 0] - np.sin(1.0)) < 1e-12
    assert abs(table[1, 2] - np.sin(1.0 / 10000.0 ** 0.5)) < 1e-12


def test_positional_encoding_distinguishes_positions():
    rows = positional_encoding(32, 16)
    for i in range(31):
        assert not np.allclose(rows[i], rows[i + 1])


def test_positional_encoding_rows_do_not_depend_on_length():
    # a length-L call gives the first L rows of a longer one, byte for byte,
    # at odd widths too
    for width in range(4, 131):
        longer = positional_encoding(64, width)
        for L in range(1, 65):
            assert positional_encoding(L, width).tobytes() == longer[:L].tobytes()


def test_positional_apply_adds_prefix_rows():
    # a stack without layers adds positions 0..L-1 to each sequence of L rows
    stack = MultiHeadAttentionStack(d=4, layers=0, rng=np.random.default_rng(0))
    x = Tensor(np.zeros((3, 4)))
    assert np.array_equal(stack.forward(x).data, positional_encoding(3, 4))
    batch = Tensor(np.zeros((6, 4)))
    mask = np.ones((2, 3), dtype=bool)
    assert np.array_equal(stack.forward(batch, mask).data,
                          np.tile(positional_encoding(3, 4), (2, 1)))
