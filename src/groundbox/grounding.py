"""Grounding math: similarity cube, frame confidence, penalty, margin losses,
language confidence, snippet mapping.

Similarity between query k and proposal i of frame t is
sigmoid(q_k . r_i^t / sqrt(d)). A frame's matching score C_t is the mean over
queries of the best proposal similarity; the segment-level variant takes
the max over all (t, i) jointly.

Every quantity may carry leading axes that index the segments of a
minibatch; the query counts of those segments are padded to one O, and a
(..., O) mask keeps padded queries out of every mean over queries.

The three weighted modes share one loss, mean_t[lam * w_t * L_rank^t +
(1-lam) * D(w_t)] with D(w) = -log(2w), and differ only in the frame weight
w_t: C_t, C_lang^{t_s}, or their mean.
"""

import math

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor

class SimilarityCube:
    """a[..., k, t, i] in (0,1) for O queries, T frames, N proposals per frame.

    Leading axes index segments. mask: (..., O) booleans marking the real
    queries of each segment, or None when every query is real; padded
    queries count in no mean over queries.
    """

    def __init__(self, a, mask=None):
        self.a = a            # Tensor (..., O, T, N)
        self.mask = mask
        self.O, self.T, self.N = a.data.shape[-3:]
        self._frame_scores = None

    def frame_scores(self):
        """C_t = (1/O) sum_k max_i a[k,t,i] for every frame, a (..., T) tensor."""
        if self._frame_scores is None:
            frame_max, _ = T.max_last(self.a)          # (..., O, T)
            self._frame_scores = T.masked_mean(
                frame_max, -2, None if self.mask is None else self.mask[..., None])
        return self._frame_scores

    def segment_score(self):
        """Segment-level matching score: mean_k max_{t,i} a[k,t,i], shape (...)."""
        flat = T.reshape(self.a, self.a.data.shape[:-2] + (self.T * self.N,))
        best, _ = T.max_last(flat)                     # (..., O)
        return T.masked_mean(best, -1, self.mask)


def similarity_cube(Q, P, n_frames, mask=None):
    """Q: (..., O, d) Tensor; P: (..., n_frames*N, d) Tensor holding the
    proposals of n_frames frames, frame-major, N per frame; mask: (..., O)
    real-query booleans or None -> SimilarityCube of shape (..., O, n_frames, N).
    """
    rows = P.data.shape[-2]
    if n_frames < 1 or rows % n_frames:
        raise ShapeError(f"{rows} proposal rows do not split into {n_frames} frames")
    a = T.similarity(Q, P)                             # (..., O, rows)
    return SimilarityCube(T.reshape(a, a.data.shape[:-1] + (n_frames, rows // n_frames)),
                          mask)


def penalty(c):
    """D_t = -log(2 C_t); negative (a reward) when C_t > 0.5."""
    return T.penalty(c if isinstance(c, Tensor) else Tensor(c))


def _hinge_sum(cube_pos, vis_neg_cubes, sent_neg_cubes, delta, score):
    """sum over both negative kinds of max(0, score(neg) - score(pos) + delta)."""
    if not vis_neg_cubes or not sent_neg_cubes:
        raise ShapeError("the margin loss needs >= 1 negative of each kind")
    s_pos = score(cube_pos)
    total = None
    for neg in [*vis_neg_cubes, *sent_neg_cubes]:
        term = T.hinge(score(neg), s_pos, delta)
        total = term if total is None else T.add(total, term)
    return total


def frame_ranking_loss(cube_pos, vis_neg_cubes, sent_neg_cubes, delta):
    """Per-frame margin loss (..., T), summed over both negative kinds.

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
    """Segment-level margin loss (...,): the max runs over (t, i) jointly."""
    return _hinge_sum(cube_pos, vis_neg_cubes, sent_neg_cubes, delta,
                      SimilarityCube.segment_score)


def _frame_weighted_loss(w, rank_vec, lam):
    """(1/T) sum_t [lam * w_t * L_rank^t + (1-lam) * D(w_t)] over the last axis."""
    return T.masked_mean(T.add(T.scale(T.mul(w, rank_vec), lam),
                               T.scale(penalty(w), 1.0 - lam)), -1)


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


def language_confidence(J_out, Q, head_W, head_b, mask=None):
    """C_lang = (1/O) sum_k sigmoid(W [J(q_k); q_k] + b).

    J_out, Q: (rows, d) Tensors, one row per query; head_W: (2d, T') Tensor,
    head_b: (T',) Tensor. mask: (..., O) real-query booleans, one entry per
    row, or None for one segment of O = rows queries. Returns (..., T'), the
    mean running over each segment's real queries.
    """
    x = T.concat([J_out, Q], axis=1)                   # (rows, 2d)
    if x.data.shape[1] != head_W.data.shape[0]:
        raise ShapeError(
            f"language head expects width {head_W.data.shape[0]}, got {x.data.shape[1]}")
    mask = np.ones(x.data.shape[0], dtype=bool) if mask is None else mask
    scores = T.sigmoid(T.add_rowvec(x @ head_W, head_b))
    per_query = T.reshape(scores, mask.shape + (head_W.data.shape[1],))
    return T.masked_mean(per_query, -2, mask[..., None])


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
    """C_lang^{t_s} for frames t = 1..n_frames: (..., T') -> (..., n_frames).

    One 2-D product of the C_lang rows with a constant 0/1 (T', n_frames)
    matrix whose column t picks snippet t_s.
    """
    n_snippets = c_lang.data.shape[-1]
    if n_snippets > n_frames:
        raise ShapeError(f"C_lang has {n_snippets} snippets for {n_frames} frames")
    pick = np.zeros((n_snippets, n_frames))
    pick[[snippet_index(t, n_frames, n_snippets) - 1 for t in range(1, n_frames + 1)],
         np.arange(n_frames)] = 1.0
    per_frame = T.reshape(c_lang, (-1, n_snippets)) @ Tensor(pick)
    return T.reshape(per_frame, c_lang.data.shape[:-1] + (n_frames,))
