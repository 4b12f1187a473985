import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from groundbox import grounding as G
from groundbox import tensor as T
from groundbox.gradcheck import finite_diff_check
from groundbox.tensor import ShapeError, Tensor


def _cube(*pairings):
    """The flat (P, O, T*N) score block, as similarity_cube lays it out, of
    the (O, T, N) arrays of P pairings: the positive, then each negative."""
    a = np.asarray(pairings, dtype=np.float64)
    return Tensor(a.reshape(a.shape[:2] + (-1,)))


def _scores(*pairings, mask=None):
    """C_t of every pairing's (O, T, N) scores, a (P, T) tensor."""
    return G.frame_scores(_cube(*pairings), np.shape(pairings)[2], mask)


def _frame_scores(values):
    """C_t of one pairing's (O, T, N) scores, a (T,) tensor."""
    return T.take(_scores(values), 0)


def test_similarity_cube_matches_sigmoid_of_scaled_dots():
    rng = np.random.default_rng(0)
    d = 4
    Q = Tensor(rng.standard_normal((1, 2, d)))
    P = Tensor(rng.standard_normal((1, 5 * 3, d)))  # 5 frames of 3 proposals
    a = G.similarity_cube(Q, P, 5)
    assert a.shape == (1, 2, 5 * 3)
    want = 1.0 / (1.0 + np.exp(-(Q.data[0] @ P.data[0, 3:6].T) / math.sqrt(d)))
    assert np.allclose(a.data[0, :, 3:6], want)
    assert np.all(a.data > 0) and np.all(a.data < 1)


def test_similarity_cube_stacks_positive_then_visual_then_sentence_pairings():
    rng = np.random.default_rng(5)
    Q = Tensor(rng.standard_normal((3, 2, 4)))      # positive + 2 sentence negatives
    P = Tensor(rng.standard_normal((2, 2 * 3, 4)))  # positive + 1 visual negative
    a = G.similarity_cube(Q, P, 2)
    assert a.shape == (4, 2, 2 * 3)
    for j, (q, p) in enumerate([(0, 0), (0, 1), (1, 0), (2, 0)]):
        alone = G.similarity_cube(Tensor(Q.data[q:q + 1]), Tensor(P.data[p:p + 1]), 2)
        assert np.array_equal(a.data[j], alone.data[0])


def test_similarity_cube_rejects_rows_that_do_not_split_into_frames():
    with pytest.raises(ShapeError, match="7 proposal rows"):
        G.similarity_cube(Tensor(np.zeros((1, 1, 2))), Tensor(np.zeros((1, 7, 2))), 3)


def test_frame_matching_score_mean_of_maxes():
    # two queries, one frame: maxes 0.9 and 0.5 -> C = 0.7
    c = _frame_scores([[[0.1, 0.9]], [[0.5, 0.2]]])
    assert abs(c.data[0] - 0.7) < 1e-12


def test_segment_score_max_over_frames_and_proposals():
    s = G.segment_score(_cube([[[0.1, 0.3], [0.8, 0.2]]]))  # O=1, T=2, N=2
    assert abs(s.data[0] - 0.8) < 1e-12


def test_scores_leave_padded_queries_out():
    # query 1 of the second pairing is padding: its 0.99 counts nowhere
    pairings = [[[0.6]], [[0.2]]], [[[0.4]], [[0.99]]]
    mask = np.array([[True, True], [True, False]])
    assert np.allclose(_scores(*pairings, mask=mask).data, [[0.4], [0.4]])
    assert np.allclose(G.segment_score(_cube(*pairings), mask).data, [0.4, 0.4])


def test_penalty_fixed_points():
    assert abs(G.penalty(0.5).item()) < 1e-12
    assert abs(G.penalty(0.25).item() - math.log(2.0)) < 1e-12
    assert abs(G.penalty(1.0).item() + math.log(2.0)) < 1e-12  # reward


@given(st.floats(1e-6, 1.0 - 1e-6))
def test_penalty_sign_switches_at_half(c):
    p = G.penalty(c).item()
    if c > 0.5:
        assert p < 0
    elif c < 0.5:
        assert p > 0


def test_penalty_clamps_instead_of_exploding():
    assert np.isfinite(G.penalty(0.0).item())


def test_frame_ranking_loss_hand_example():
    # S_pos = 0.9, one visual neg 0.5 (inactive), one sentence neg 0.85:
    # max(0, .5-.9+.1) + max(0, .85-.9+.1) = 0 + 0.05
    c = _scores([[[0.9]]], [[[0.5]]], [[[0.85]]])
    out = G.frame_ranking_loss(c, delta=0.1)
    assert out.shape == (1,)
    assert abs(out.data[0] - 0.05) < 1e-12


def test_frame_ranking_loss_nonnegative_and_zero_when_dominated():
    c = _scores([[[0.99]]], [[[0.01]]], [[[0.01]]])
    out = G.frame_ranking_loss(c, delta=0.1)
    assert out.data[0] == 0.0


def test_weighted_segment_loss_hand_example():
    # T=1, C=0.5 (penalty 0), L_rank=0.05, lam=0.9 -> 0.9*0.5*0.05 = 0.0225
    c = _frame_scores([[[0.5, 0.3]]])
    rank = Tensor([0.05])
    assert abs(G.weighted_segment_loss(c, rank, 0.9).item() - 0.0225) < 1e-12


def test_weighted_segment_loss_averages_over_frames():
    c = _frame_scores([[[0.5], [0.5]]])  # two frames, both C=0.5
    rank = Tensor([0.1, 0.3])
    want = 0.5 * (0.9 * 0.5 * 0.1 + 0.9 * 0.5 * 0.3)
    assert abs(G.weighted_segment_loss(c, rank, 0.9).item() - want) < 1e-12


def test_language_confidence_shape_and_range():
    rng = np.random.default_rng(1)
    d, O, Tp = 4, 3, 2
    J = Tensor(rng.standard_normal((O, d)))
    Q = Tensor(rng.standard_normal((O, d)))
    W = Tensor(rng.standard_normal((2 * d, Tp)))
    b = Tensor(np.zeros(Tp))
    out = G.language_confidence(J, Q, W, b)
    assert out.shape == (Tp,)
    assert np.all(out.data > 0) and np.all(out.data < 1)


def test_language_confidence_zero_weights_give_half():
    d, O, Tp = 3, 2, 4
    J = Tensor(np.ones((O, d)))
    Q = Tensor(np.ones((O, d)))
    out = G.language_confidence(J, Q, Tensor(np.zeros((2 * d, Tp))),
                                Tensor(np.zeros(Tp)))
    assert np.allclose(out.data, 0.5)


def test_language_confidence_width_check():
    with pytest.raises(ShapeError):
        G.language_confidence(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))),
                              Tensor(np.zeros((5, 2))), Tensor(np.zeros(2)))


def test_snippet_index_table_20_frames_5_snippets():
    want = [1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5]
    got = [G.snippet_index(t, 20, 5) for t in range(1, 21)]
    assert got == want


def test_snippet_index_identity_when_equal():
    assert [G.snippet_index(t, 5, 5) for t in range(1, 6)] == [1, 2, 3, 4, 5]


def test_snippet_index_clamps_to_num_snippets():
    # T=7, T'=3: ceil(7/3)=3, frame 7 -> ceil(7/3)=3 <= 3; T=10, T'=4:
    # ceil(10/4)=3, frame 10 -> ceil(10/3)=4; frame indices never exceed T'
    for Tn, Tp in [(7, 3), (10, 4), (9, 2), (13, 6)]:
        vals = [G.snippet_index(t, Tn, Tp) for t in range(1, Tn + 1)]
        assert max(vals) <= Tp and min(vals) == 1


@given(st.integers(1, 40), st.integers(1, 40))
def test_snippet_index_monotone_and_bounded(Tn, Tp):
    if Tp > Tn:
        return
    vals = [G.snippet_index(t, Tn, Tp) for t in range(1, Tn + 1)]
    assert vals == sorted(vals)
    # the ceil-of-ceil map can leave trailing snippets unused (e.g. T=4, T'=3),
    # so only the lower end is pinned
    assert vals[0] == 1
    assert all(1 <= v <= Tp for v in vals)


def test_snippet_index_rejects_bad_args():
    with pytest.raises(ValueError):
        G.snippet_index(0, 5, 2)
    with pytest.raises(ValueError):
        G.snippet_index(6, 5, 2)
    with pytest.raises(ValueError):
        G.snippet_index(1, 5, 6)


def test_combined_segment_loss_hand_example():
    # T=1, lam=0.9, C=0.6, C_lang=0.4, L_rank=0.1:
    # 0.9 * 0.5*(0.6+0.4) * 0.1 - 0.1 * log(1.0) = 0.045
    c = _frame_scores([[[0.6, 0.2]]])
    out = G.combined_segment_loss(c, Tensor([0.1]), Tensor([0.4]), 0.9)
    assert abs(out.item() - 0.045) < 1e-12


@given(st.integers(1, 8), st.data())
def test_combined_segment_loss_matches_printed_formula(Tn, data):
    # (1/T) sum_t [lam * (C_t + C_lang^{t_s})/2 * L_t - (1-lam) * log(C_t + C_lang^{t_s})]
    Tp = data.draw(st.integers(1, Tn))
    lam = data.draw(st.floats(0.0, 1.0))
    conf = st.floats(1e-3, 1.0 - 1e-3)
    c = data.draw(st.lists(conf, min_size=Tn, max_size=Tn))
    c_lang = data.draw(st.lists(conf, min_size=Tp, max_size=Tp))
    rank = data.draw(st.lists(st.floats(0.0, 2.0), min_size=Tn, max_size=Tn))
    ct = _frame_scores([[[ct] for ct in c]])  # O=1, N=1: C_t = c[t-1]
    out = G.combined_segment_loss(ct, Tensor(rank), Tensor(c_lang), lam)
    want = 0.0
    for t in range(1, Tn + 1):
        s = c[t - 1] + c_lang[G.snippet_index(t, Tn, Tp) - 1]
        want += lam * 0.5 * s * rank[t - 1] - (1.0 - lam) * math.log(s)
    assert abs(out.item() - want / Tn) < 1e-12


def test_combined_loss_spreads_snippets_over_frames():
    # T=4, T'=2: frames 1,2 -> snippet 1; frames 3,4 -> snippet 2
    c = _frame_scores([[[0.5]] * 4])
    c_lang = Tensor([0.5, 0.3])
    rank = Tensor([1.0, 1.0, 1.0, 1.0])
    out = G.combined_segment_loss(c, rank, c_lang, 1.0)
    want = np.mean([0.5, 0.5, 0.4, 0.4])
    assert abs(out.item() - want) < 1e-12


def test_language_weighted_loss_hand_example():
    # obj-interact: weight and penalty both from C_lang; C_lang=0.5 -> pen 0
    out = G.language_weighted_segment_loss(Tensor([0.05]), Tensor([0.5]), 0.9)
    assert abs(out.item() - 0.0225) < 1e-12


def test_dvsa_loss_hand_example():
    # positive, visual negative, sentence negative
    s = G.segment_score(_cube([[[0.2, 0.9]]], [[[0.85, 0.1]]], [[[0.3, 0.1]]]))
    out = G.dvsa_segment_loss(s, delta=0.1)
    assert abs(out.item() - 0.05) < 1e-12  # only the visual hinge is active


def test_losses_differentiable_end_to_end():
    rng = np.random.default_rng(2)
    d = 3
    Q = Tensor(rng.standard_normal((2, 2, d)), requires_grad=True)  # + a sentence neg
    feats = Tensor(rng.standard_normal((2, 4 * 3, d)))  # + a visual neg; 4 frames of 3

    def f():
        c = G.frame_scores(G.similarity_cube(Q, feats, 4), 4)
        rank = G.frame_ranking_loss(c, delta=0.5)
        return G.weighted_segment_loss(T.take(c, 0), rank, 0.9)

    err, _ = finite_diff_check(f, {"Q": Q}, step=1e-5)
    assert err < 1e-4
