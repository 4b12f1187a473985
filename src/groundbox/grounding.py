"""Grounding math: similarity cube, frame confidence, penalty, margin losses,
language confidence, snippet mapping.

Similarity between query k and proposal i of frame t is
sigmoid(q_k . r_i^t / sqrt(d)). A frame's matching score C_t is the mean over
queries of the best proposal similarity; the segment-level variant takes
the max over all (t, i) jointly.

The three weighted modes share one loss, mean_t[lam * w_t * L_rank^t +
(1-lam) * D(w_t)] with D(w) = -log(2w), and differ only in the frame weight
w_t: C_t, C_lang^{t_s}, or their mean.
"""

import math

from . import tensor as T
from .tensor import ShapeError, Tensor

LOG_EPS = 1e-8  # sigmoid outputs cannot hit 0 analytically but can underflow


class SimilarityCube:
    """a[k, t, i] in (0,1) for O queries, T frames, N proposals per frame."""

    def __init__(self, a):
        self.a = a            # Tensor (O, T, N)
        self.O, self.T, self.N = a.data.shape
        self._frame_scores = None

    def frame_scores(self):
        """C_t = (1/O) sum_k max_i a[k,t,i] for every frame, a (T,) tensor."""
        if self._frame_scores is None:
            frame_max, _ = T.max_last(self.a)          # (O, T)
            self._frame_scores = T.mean_axis0(frame_max)
        return self._frame_scores

    def segment_score(self):
        """Segment-level matching score: mean_k max_{t,i} a[k,t,i]."""
        flat = T.reshape(self.a, (self.O, self.T * self.N))
        best, _ = T.max_last(flat)                     # (O,)
        return T.mean_all(best)


def similarity_cube(Q, P, n_frames):
    """Q: (O, d) Tensor; P: (n_frames*N, d) Tensor holding the proposals of
    n_frames frames, frame-major, N per frame -> SimilarityCube.
    """
    O, d = Q.data.shape
    rows = P.data.shape[0]
    if n_frames < 1 or rows % n_frames:
        raise ShapeError(f"{rows} proposal rows do not split into {n_frames} frames")
    logits = T.scale(Q @ P.T, 1.0 / math.sqrt(d))
    return SimilarityCube(T.reshape(T.sigmoid(logits), (O, n_frames, rows // n_frames)))


def penalty(c):
    """D_t = -log(2 C_t); negative (a reward) when C_t > 0.5."""
    c = c if isinstance(c, Tensor) else Tensor(c)
    return T.scale(T.log(T.clamp_min(T.scale(c, 2.0), LOG_EPS)), -1.0)


def _hinge_sum(cube_pos, vis_neg_cubes, sent_neg_cubes, delta, score):
    """sum over both negative kinds of max(0, score(neg) - score(pos) + delta)."""
    if not vis_neg_cubes or not sent_neg_cubes:
        raise ShapeError("the margin loss needs >= 1 negative of each kind")
    s_pos = score(cube_pos)
    total = None
    for neg in [*vis_neg_cubes, *sent_neg_cubes]:
        term = T.relu(T.shift(T.sub(score(neg), s_pos), delta))
        total = term if total is None else T.add(total, term)
    return total


def frame_ranking_loss(cube_pos, vis_neg_cubes, sent_neg_cubes, delta):
    """Per-frame margin loss vector (T,), summed over both negative kinds.

    Visual negatives share the query set; sentence negatives share the
    positive frames. Hinge: max(0, S_neg - S_pos + delta) per pairing.
    """
    for neg in [*vis_neg_cubes, *sent_neg_cubes]:
        if neg.T != cube_pos.T:
            raise ShapeError(
                f"negative has {neg.T} frames, positive has {cube_pos.T}")
    return _hinge_sum(cube_pos, vis_neg_cubes, sent_neg_cubes, delta,
                      SimilarityCube.frame_scores)


def dvsa_segment_loss(cube_pos, vis_neg_cubes, sent_neg_cubes, delta):
    """Segment-level margin loss: the max runs over (t, i) jointly."""
    return _hinge_sum(cube_pos, vis_neg_cubes, sent_neg_cubes, delta,
                      SimilarityCube.segment_score)


def _frame_weighted_loss(w, rank_vec, lam):
    """(1/T) sum_t [lam * w_t * L_rank^t + (1-lam) * D(w_t)]."""
    return T.mean_all(T.add(T.scale(T.mul(w, rank_vec), lam),
                            T.scale(penalty(w), 1.0 - lam)))


def weighted_segment_loss(cube, rank_vec, lam):
    """Loss-weighting mode: frame weight w_t = C_t."""
    return _frame_weighted_loss(cube.frame_scores(), rank_vec, lam)


def language_weighted_segment_loss(cube, rank_vec, c_lang, lam):
    """Object-interaction mode: frame weight w_t = C_lang^{t_s}."""
    return _frame_weighted_loss(_per_frame(c_lang, cube.T), rank_vec, lam)


def combined_segment_loss(cube, rank_vec, c_lang, lam):
    """Full model: frame weight w_t = (C_t + C_lang^{t_s}) / 2, so the penalty
    is -log(C_t + C_lang^{t_s}) as printed.
    """
    w = T.scale(T.add(cube.frame_scores(), _per_frame(c_lang, cube.T)), 0.5)
    return _frame_weighted_loss(w, rank_vec, lam)


def language_confidence(J_out, Q, head_W, head_b):
    """C_lang = (1/O) sum_k sigmoid(W [J(q_k); q_k] + b), a (T',) tensor.

    head_W: (2d, T') Tensor, head_b: (T',) Tensor.
    """
    x = T.concat([J_out, Q], axis=1)                   # (O, 2d)
    if x.data.shape[1] != head_W.data.shape[0]:
        raise ShapeError(
            f"language head expects width {head_W.data.shape[0]}, got {x.data.shape[1]}")
    return T.mean_axis0(T.sigmoid(T.add_rowvec(x @ head_W, head_b)))


def snippet_index(t, n_frames, n_snippets):
    """Map 1-based frame index t to its snippet index t_s in 1..T'.

    t_s = min(ceil(t / ceil(T/T')), T'). The clamp is to T' (not T): C_lang
    has exactly T' entries and the inner expression never exceeds T' anyway.
    """
    if not 1 <= t <= n_frames:
        raise ValueError(f"frame index {t} outside 1..{n_frames}")
    if not 1 <= n_snippets <= n_frames:
        raise ValueError(f"need 1 <= T' <= T, got T'={n_snippets}, T={n_frames}")
    return min(math.ceil(t / math.ceil(n_frames / n_snippets)), n_snippets)


def _per_frame(c_lang, n_frames):
    """C_lang^{t_s} for frames t = 1..n_frames, a (n_frames,) tensor."""
    n_snippets = c_lang.data.shape[0]
    if n_snippets > n_frames:
        raise ShapeError(f"C_lang has {n_snippets} snippets for {n_frames} frames")
    return T.take(c_lang, [snippet_index(t, n_frames, n_snippets) - 1
                           for t in range(1, n_frames + 1)])
