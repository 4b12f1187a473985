"""Model assembly: parameter construction, the per-segment losses for each
mode, and grounding inference over a segment.
"""

import numpy as np

from . import grounding as G
from . import tensor as T
from .attention import MultiHeadAttentionStack
from .config import LossMode
from .data import sample_frames
from .encoders import ProposalEncoder, QueryEncoder
from .tensor import Tensor, no_grad


class GroundingModel:
    """Encoders + attention stack + language head, built from a config."""

    def __init__(self, config, rng=None):
        rng = rng or np.random.default_rng(config.seed)
        self.config = config
        self.query_enc = QueryEncoder(config.V, config.d, rng)
        self.prop_enc = ProposalEncoder(config.D_in, config.d, rng,
                                        p_drop=config.dropout)
        self.attn = MultiHeadAttentionStack(
            config.d, layers=config.attn_layers, heads=config.attn_heads,
            hidden=config.attn_hidden, p_drop=config.dropout,
            max_len=config.pe_max_len, rng=rng)
        self.lang_W = T.uniform_init(rng, (2 * config.d, config.T_prime),
                                     fan_in=2 * config.d)
        self.lang_b = T.uniform_init(rng, (config.T_prime,), fan_in=2 * config.d)

    def params(self):
        out = {}
        out.update(self.query_enc.params())
        out.update(self.prop_enc.params())
        out.update(self.attn.params())
        out["lang.W"] = self.lang_W
        out["lang.b"] = self.lang_b
        return out

    def trainable_params(self):
        """Parameters touched by the configured loss mode.

        DVSA and pure loss weighting never reach the attention stack or the
        language head, so those stay at their init.
        """
        if self.config.mode in (LossMode.DVSA, LossMode.LOSS_WEIGHTING):
            return {**self.query_enc.params(), **self.prop_enc.params()}
        return self.params()

    # ------------------------------------------------------------------
    # forward pieces

    def segment_loss(self, segment, neg_visual, neg_sentences,
                     training=True, rng=None, frame_indices=None):
        """Mode-dispatched loss for one positive segment.

        neg_visual: list of segments supplying R_t' (frame-index aligned,
        clamped to their own length); neg_sentences: list of label lists Q'.
        """
        cfg = self.config
        mode = cfg.mode
        if frame_indices is None:
            frame_indices = sample_frames(segment.n_frames, cfg.T,
                                          "train" if training else "eval", rng)
        Tn = len(frame_indices)
        Q = self.query_enc.encode(segment.query_labels)
        blocks = [(segment, frame_indices)] + [
            (neg, [min(f, neg.n_frames - 1) for f in frame_indices])
            for neg in neg_visual]
        # one dropout draw over the stacked block consumes the rng exactly
        # as one draw per block would
        encoded = self.prop_enc.encode(stack_features(blocks), training=training,
                                       rng=rng)
        rows = encoded.data.shape[0] // len(blocks)
        pos, *vis = [T.take(encoded, np.arange(b * rows, (b + 1) * rows))
                     for b in range(len(blocks))]
        cube_pos = G.similarity_cube(Q, pos, Tn)
        vis_cubes = [G.similarity_cube(Q, P, Tn) for P in vis]
        sent_cubes = [G.similarity_cube(self.query_enc.encode(labels), pos, Tn)
                      for labels in neg_sentences]

        if mode is LossMode.DVSA:
            return G.dvsa_segment_loss(cube_pos, vis_cubes, sent_cubes, cfg.delta)

        rank_vec = G.frame_ranking_loss(cube_pos, vis_cubes, sent_cubes, cfg.delta)
        if mode is LossMode.LOSS_WEIGHTING:
            return G.weighted_segment_loss(cube_pos, rank_vec, cfg.lam)

        J = self.attn.forward(Q, training=training, rng=rng)
        c_lang = G.language_confidence(J, Q, self.lang_W, self.lang_b)
        if mode is LossMode.OBJECT_INTERACTION:
            return G.language_weighted_segment_loss(cube_pos, rank_vec, c_lang,
                                                    cfg.lam)
        return G.combined_segment_loss(cube_pos, rank_vec, c_lang, cfg.lam)

    # ------------------------------------------------------------------
    # inference

    def predict(self, segment, frame_indices=None):
        """Ground every query at every requested frame (default: frames
        carrying a gt record, else all frames). Returns
        {(query_idx, frame_idx): index of the chosen proposal}.
        """
        if frame_indices is None:
            if segment.gt is not None and len(segment.gt):
                frame_indices = np.unique(segment.gt.frame).tolist()
            else:
                frame_indices = list(range(segment.n_frames))
        with no_grad():
            Q = self.query_enc.encode(segment.query_labels)
            P = self.prop_enc.encode(stack_features([(segment, frame_indices)]))
            cube = G.similarity_cube(Q, P, len(frame_indices))
        # (O, len(frame_indices)); np.argmax takes the lowest index on ties
        pick = np.argmax(cube.a.data, axis=-1).tolist()
        return {(k, f): pick[k][t]
                for k in range(len(segment.query_labels))
                for t, f in enumerate(frame_indices)}


def stack_features(blocks):
    """Proposal features of every (segment, frame_indices) block as one
    (sum of T*N, D_in) float64 array, frame-major."""
    feats = np.stack([segment.frames.feature[frame_indices]
                      for segment, frame_indices in blocks])
    return feats.reshape(-1, feats.shape[-1]).astype(np.float64)


def load_into_model(model, flat_params):
    """Copy a {name: array} mapping into a model's parameters."""
    params = model.params()
    missing = set(params) - set(flat_params)
    extra = set(flat_params) - set(params)
    if missing or extra:
        raise T.ShapeError(
            f"parameter set mismatch: missing {sorted(missing)}, extra {sorted(extra)}")
    for name, t in params.items():
        arr = np.asarray(flat_params[name], dtype=np.float64)
        if arr.shape != t.data.shape:
            raise T.ShapeError(
                f"parameter {name}: checkpoint shape {arr.shape} != model {t.data.shape}")
        t.data = arr.copy()
