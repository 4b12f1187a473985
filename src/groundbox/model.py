"""Model assembly: parameter construction, the per-segment losses for each
mode, and grounding inference over a segment.
"""

import numpy as np

from . import grounding as G
from . import tensor as T
from .attention import MultiHeadAttentionStack, self_attend
from .config import LossMode
from .data import DataError, sample_frames
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

    def encode_frames(self, blocks, training, rng):
        """Encode the proposals of every (segment, frame_indices) block in one
        pass -> one (sum of T*N, d) tensor, block after block, frame-major.
        """
        feats = stack_features(blocks)
        return self.prop_enc.encode(feats, training=training, rng=rng)

    def cube(self, segment, frame_indices, training=False, rng=None, queries=None):
        Q = queries if queries is not None \
            else self.query_enc.encode(segment.query_labels)
        P = self.encode_frames([(segment, frame_indices)], training, rng)
        return G.similarity_cube(Q, P, len(frame_indices))

    def language_scores(self, Q, training, rng):
        J = self_attend(Q, self.attn, training=training, rng=rng)
        return G.language_confidence(J, Q, self.lang_W, self.lang_b)

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
        encoded = self.encode_frames(blocks, training, rng)
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

        c_lang = self.language_scores(Q, training, rng)
        if mode is LossMode.OBJECT_INTERACTION:
            return G.language_weighted_segment_loss(cube_pos, rank_vec, c_lang,
                                                    cfg.lam)
        return G.combined_segment_loss(cube_pos, rank_vec, c_lang, cfg.lam,
                                       halved_sum=cfg.penalty_halved_sum)

    # ------------------------------------------------------------------
    # inference

    def predict(self, segment, frame_indices=None):
        """Ground every query at every requested frame (default: frames
        carrying a gt record, else all frames). Returns
        {(query_idx, frame_idx): Proposal}.
        """
        if frame_indices is None:
            if segment.gt:
                frame_indices = sorted({g.frame for g in segment.gt})
            else:
                frame_indices = list(range(segment.n_frames))
        with no_grad():
            cube = self.cube(segment, frame_indices, training=False)
        pick = G.ground_inference(cube)  # (O, len(frame_indices))
        return {(k, f): segment.frames[f][pick[k, t]]
                for k in range(len(segment.query_labels))
                for t, f in enumerate(frame_indices)}


def stack_features(blocks):
    """Proposal features of every (segment, frame_indices) block as one
    (sum of T*N, D_in) array, frame-major. Every stacked frame must hold the
    same number N of proposals: the similarity cube is (O, T, N).
    """
    rows = []
    first = None
    for segment, frame_indices in blocks:
        for f in frame_indices:
            proposals = segment.frames[f]
            if first is None:
                first = (segment.segment_id, f, len(proposals))
            elif len(proposals) != first[2]:
                raise DataError(
                    f"segment {segment.segment_id} frame {f} has {len(proposals)} "
                    f"proposals, but segment {first[0]} frame {first[1]} has "
                    f"{first[2]}; every frame needs the same count")
            rows.extend(p.feature for p in proposals)
    return np.stack(rows).astype(np.float64)


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
