"""Grounding math: similarity cube, confidence, penalty, margin losses,
language confidence, snippet mapping, and inference.

Similarity between query k and proposal i of frame t is
sigmoid(q_k . r_i^t / sqrt(d)). A frame's matching score is the mean over
queries of the best proposal similarity; the segment-level variant takes
the max over all (t, i) jointly.
"""

import math

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor

LOG_EPS = 1e-8  # sigmoid outputs cannot hit 0 analytically but can underflow


class SimilarityCube:
    """a[k, t, i] in (0,1) for O queries, T frames, N proposals per frame."""

    def __init__(self, a, argmax):
        self.a = a            # Tensor (O, T, N)
        self.argmax = argmax  # np.ndarray (O, T), lowest index on ties
        self.O, self.T, self.N = a.data.shape
        self._frame_scores = None

    def frame_scores(self):
        """C_t for every frame as a (T,) tensor (graph-recorded)."""
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
    a = T.reshape(T.sigmoid(logits), (O, n_frames, rows // n_frames))
    argmax = np.argmax(a.data, axis=-1)
    return SimilarityCube(a, argmax)


def frame_matching_score(cube, t):
    """S(Q, R_t) = (1/O) sum_k max_i a[k,t,i], as a scalar tensor."""
    return T.mean_all(T.take(cube.frame_scores(), [t]))


def confidence(cube, t):
    """C_t: alias of the frame-level matching score."""
    return frame_matching_score(cube, t)


def penalty(c):
    """D_t = -log(2 C_t); negative (a reward) when C_t > 0.5."""
    c = c if isinstance(c, Tensor) else Tensor(c)
    return T.neg(T.log(T.clamp_min(T.scale(c, 2.0), LOG_EPS)))


def frame_ranking_loss(cube_pos, vis_neg_cubes, sent_neg_cubes, delta):
    """Per-frame margin loss vector (T,), summed over both negative kinds.

    Visual negatives share the query set; sentence negatives share the
    positive frames. Hinge: max(0, S_neg - S_pos + delta) per pairing.
    """
    if not vis_neg_cubes or not sent_neg_cubes:
        raise ShapeError("frame_ranking_loss needs >= 1 negative of each kind")
    s_pos = cube_pos.frame_scores()                    # (T,)
    total = None
    for neg in list(vis_neg_cubes) + list(sent_neg_cubes):
        if neg.T != cube_pos.T:
            raise ShapeError(
                f"negative has {neg.T} frames, positive has {cube_pos.T}")
        term = T.relu(T.shift(T.sub(neg.frame_scores(), s_pos), delta))
        total = term if total is None else T.add(total, term)
    return total


def weighted_segment_loss(cube, rank_vec, lam):
    """(1/T) sum_t [lam * C_t * L_rank^t + (1-lam) * D_t]."""
    c = cube.frame_scores()
    pen = T.neg(T.log(T.clamp_min(T.scale(c, 2.0), LOG_EPS)))
    return T.mean_all(T.add(T.scale(T.mul(c, rank_vec), lam),
                            T.scale(pen, 1.0 - lam)))


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


def combined_segment_loss(cube, rank_vec, c_lang, lam, halved_sum=False):
    """Full-model loss mixing visual and language confidence:

    (1/T) sum_t [lam * 0.5*(C_t + C_lang^{t_s}) * L_rank^t
                 - (1-lam) * log(C_t + C_lang^{t_s})]

    The penalty log takes the un-halved sum as printed; halved_sum=True
    switches the log argument to the mean of the two confidences.
    """
    Tn = cube.T
    if c_lang.data.shape[0] > Tn:
        raise ShapeError(f"C_lang has {c_lang.data.shape[0]} snippets for {Tn} frames")
    idx = [snippet_index(t, Tn, c_lang.data.shape[0]) - 1 for t in range(1, Tn + 1)]
    cl = T.take(c_lang, idx)                           # (T,)
    s = T.add(cube.frame_scores(), cl)
    weight = T.scale(s, 0.5)
    log_arg = weight if halved_sum else s
    pen = T.neg(T.log(T.clamp_min(log_arg, LOG_EPS)))
    return T.mean_all(T.add(T.scale(T.mul(weight, rank_vec), lam),
                            T.scale(pen, 1.0 - lam)))


def language_weighted_segment_loss(cube, rank_vec, c_lang, lam):
    """Object-interaction mode: frame weights come from C_lang alone.

    Same shape as the weighted loss with C_t replaced by C_lang^{t_s}.
    """
    Tn = cube.T
    idx = [snippet_index(t, Tn, c_lang.data.shape[0]) - 1 for t in range(1, Tn + 1)]
    cl = T.take(c_lang, idx)
    pen = T.neg(T.log(T.clamp_min(T.scale(cl, 2.0), LOG_EPS)))
    return T.mean_all(T.add(T.scale(T.mul(cl, rank_vec), lam),
                            T.scale(pen, 1.0 - lam)))


def dvsa_segment_loss(cube_pos, vis_neg_cubes, sent_neg_cubes, delta):
    """Segment-level margin loss: the max runs over (t, i) jointly."""
    if not vis_neg_cubes or not sent_neg_cubes:
        raise ShapeError("dvsa_segment_loss needs >= 1 negative of each kind")
    s_pos = cube_pos.segment_score()
    total = None
    for neg in list(vis_neg_cubes) + list(sent_neg_cubes):
        term = T.relu(T.shift(T.sub(neg.segment_score(), s_pos), delta))
        total = term if total is None else T.add(total, term)
    return total


def ground_inference(cube):
    """Per (query, frame) proposal index with max similarity; lowest index wins ties."""
    return cube.argmax
