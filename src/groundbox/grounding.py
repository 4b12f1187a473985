"""Grounding math: similarity cube, frame confidence, penalty, margin losses,
language confidence, snippet mapping.

Similarity between query k and proposal i of frame t is
sigmoid(q_k . r_i^t / sqrt(d)). A frame's matching score C_t is the mean over
queries of the best proposal similarity; the segment-level variant takes
the max over all (t, i) jointly.

One block holds every pairing of a minibatch: along axis 0 the positive,
the K visual negatives (other proposals, same queries), then the K' sentence
negatives (other queries, same proposals). The next axes index segments;
their query counts are padded to one O, and a (..., O) mask keeps padded
queries out of every mean over queries.

The three weighted modes share one loss, mean_t[lam * w_t * L_rank^t +
(1-lam) * D(w_t)] with D(w) = -log(2w), and differ only in the frame weight
w_t: the positive's C_t, C_lang^{t_s}, or their mean.
"""

import math

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor


def similarity_cube(Q, P, n_frames):
    """Q: (1+K', ..., O, d) query blocks; P: (1+K, ..., n_frames*N, d) proposal
    blocks, frame-major, N per frame -> a[j, ..., k, t*N + i] in (0,1) of
    shape (1+K+K', ..., O, n_frames*N), pairings laid out as T.similarity's.
    The block stays flat: frame_scores splits it into frames.
    """
    rows = P.data.shape[-2]
    if n_frames < 1 or rows % n_frames:
        raise ShapeError(f"{rows} proposal rows do not split into {n_frames} frames")
    return T.similarity(Q, P)


def frame_scores(a, n_frames, mask=None):
    """C_t = (1/O) sum_k max_i a[..., k, t*N + i] for every frame, a (..., T)
    tensor, from a flat (..., O, n_frames*N) block; mask: (..., O) real-query
    booleans, or None when every query is real."""
    per_frame = T.reshape(a, a.data.shape[:-1] + (n_frames, -1))
    frame_max = T.max_last(per_frame)                  # (..., O, T)
    return T.masked_mean(frame_max, -2, None if mask is None else mask[..., None])


def segment_score(a, mask=None):
    """Segment-level matching score: mean_k max_j a[..., k, j] over the flat
    (..., O, T*N) block, shape (...)."""
    best = T.max_last(a)                               # (..., O)
    return T.masked_mean(best, -1, mask)


def penalty(c):
    """D_t = -log(2 C_t); negative (a reward) when C_t > 0.5."""
    return T.penalty(c if isinstance(c, Tensor) else Tensor(c))


def frame_ranking_loss(c, delta):
    """Per-frame margin loss (..., T): sum over the negatives of
    max(0, C_neg - C_pos + delta), from frame scores c of shape (1+K+K', ..., T)."""
    return T.hinge(c, delta)


def dvsa_segment_loss(s, delta):
    """Segment-level margin loss (...,) from segment scores s of shape (1+K+K', ...)."""
    return T.hinge(s, delta)


def _frame_weighted_loss(w, rank_vec, lam):
    """(1/T) sum_t [lam * w_t * L_rank^t + (1-lam) * D(w_t)] over the last axis."""
    return T.masked_mean(T.add(T.scale(T.mul(w, rank_vec), lam),
                               T.scale(penalty(w), 1.0 - lam)), -1)


def weighted_segment_loss(c, rank_vec, lam):
    """Loss-weighting mode: frame weight w_t = C_t, the positive's frame scores."""
    return _frame_weighted_loss(c, rank_vec, lam)


def language_weighted_segment_loss(rank_vec, c_lang, lam):
    """Object-interaction mode: frame weight w_t = C_lang^{t_s}."""
    return _frame_weighted_loss(_per_frame(c_lang, rank_vec.data.shape[-1]), rank_vec, lam)


def combined_segment_loss(c, rank_vec, c_lang, lam):
    """Full model: frame weight w_t = (C_t + C_lang^{t_s}) / 2, so the penalty
    is -log(C_t + C_lang^{t_s}) as printed.
    """
    w = T.scale(T.add(c, _per_frame(c_lang, c.data.shape[-1])), 0.5)
    return _frame_weighted_loss(w, rank_vec, lam)


def language_confidence(J_out, Q, head_W, head_b, mask=None):
    """C_lang = (1/O) sum_k sigmoid(W [J(q_k); q_k] + b).

    J_out, Q: (rows, d) Tensors, one row per query; head_W: (2d, T') Tensor,
    head_b: (T',) Tensor. mask: (..., O) real-query booleans, one entry per
    row, or None for one segment of O = rows queries. Returns (..., T'), the
    mean running over each segment's real queries, as one tape node.
    """
    return T.language_head(J_out, Q, head_W, head_b, mask)


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
