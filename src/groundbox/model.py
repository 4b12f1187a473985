"""Model assembly: parameter construction, the per-segment losses of a
minibatch for each mode, and grounding inference over a minibatch.
"""

import numpy as np

from . import grounding as G
from . import tensor as T
from .attention import MultiHeadAttentionStack
from .config import LossMode
from .encoders import ProposalEncoder, QueryEncoder, VocabularyError
from .tensor import ShapeError, Tensor, no_grad


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

    def segment_loss(self, batch, noise=None):
        """Mode-dispatched losses of a minibatch, recorded as one graph.

        batch: list of (segment, neg_visual, neg_sentences, frame_indices):
        neg_visual is a list of segments supplying R_t' (frame-index aligned,
        clamped to their own length), neg_sentences a list of label lists Q'.
        Every item needs the same number of frames and of each negative kind.
        noise: each item's draw_dropout keep-masks, or None (no dropout).
        Returns the (B,) tensor of per-segment losses.
        """
        cfg = self.config
        mode = cfg.mode
        segments, neg_visual, neg_sentences, frames = zip(*batch)
        Tn, n_vis, n_sent = len(frames[0]), len(neg_visual[0]), len(neg_sentences[0])
        if any((len(f), len(v), len(s)) != (Tn, n_vis, n_sent)
               for f, v, s in zip(frames, neg_visual, neg_sentences)):
            raise ShapeError("every item of a batch needs the same number of frames "
                             "and of each negative kind")
        Q, mask = self._queries([seg.query_labels for seg in segments])
        # block-major: every segment's positive block, then every segment's
        # first visual negative, ...
        blocks = list(zip(segments, frames)) + [
            (negs[j], [min(f, negs[j].n_frames - 1) for f in fr])
            for j in range(n_vis) for negs, fr in zip(neg_visual, frames)]
        keep = self._batch_noise(noise, n_vis, mask)
        encoded = self.prop_enc.encode(stack_features(blocks), keep[0] if keep else None)
        B, d = len(batch), encoded.data.shape[1]
        P = T.reshape(encoded, (1 + n_vis, B, encoded.data.shape[0] // len(blocks), d))
        pos, *vis = [T.take(P, j) for j in range(1 + n_vis)]    # (B, T*N, d) each
        cube_pos = G.similarity_cube(Q, pos, Tn, mask)
        vis_cubes = [G.similarity_cube(Q, P_j, Tn, mask) for P_j in vis]
        sent_cubes = []
        for j in range(n_sent):
            Q_neg, neg_mask = self._queries([s[j] for s in neg_sentences])
            sent_cubes.append(G.similarity_cube(Q_neg, pos, Tn, neg_mask))

        if mode is LossMode.DVSA:
            return G.dvsa_segment_loss(cube_pos, vis_cubes, sent_cubes, cfg.delta)

        rank_vec = G.frame_ranking_loss(cube_pos, vis_cubes, sent_cubes, cfg.delta)
        if mode is LossMode.LOSS_WEIGHTING:
            return G.weighted_segment_loss(cube_pos, rank_vec, cfg.lam)

        rows = T.reshape(Q, (-1, d))                    # (B*O, d), row-wise layers
        J = self.attn.forward(rows, mask, keep[1:])
        c_lang = G.language_confidence(J, rows, self.lang_W, self.lang_b, mask)
        if mode is LossMode.OBJECT_INTERACTION:
            return G.language_weighted_segment_loss(cube_pos, rank_vec, c_lang,
                                                    cfg.lam)
        return G.combined_segment_loss(cube_pos, rank_vec, c_lang, cfg.lam)

    def draw_dropout(self, segment, n_vis, n_frames, rng):
        """The dropout keep-masks of one training item, as booleans.

        They come from rng in the order a graph of this item alone draws
        them: its (1+n_vis)*n_frames*N proposal rows, then two (O, d) blocks
        per attention layer in the modes that run the stack. Drawing them
        when the item is planned keeps training's rng stream what it is with
        a graph per segment. Empty when dropout is off.
        """
        cfg = self.config
        if cfg.dropout == 0.0:
            return []
        shapes = [((1 + n_vis) * n_frames * segment.frames.shape[1],
                   self.prop_enc.W1.data.shape[1])]
        if cfg.mode in (LossMode.OBJECT_INTERACTION, LossMode.FULL_MODEL):
            shapes += [(len(segment.query_labels), cfg.d)] * (2 * len(self.attn.layers))
        return [rng.random(shape) >= cfg.dropout for shape in shapes]

    def _batch_noise(self, noise, n_vis, mask):
        """The items' draw_dropout keep-masks in the batch graph's layout:
        proposal rows block-major, attention rows padded to (B*O, d)."""
        if not noise or not noise[0]:
            return []
        B, O = mask.shape
        prop = np.stack([u[0] for u in noise])                  # (B, (1+K)*T*N, h)
        prop = prop.reshape(B, 1 + n_vis, -1, prop.shape[-1]).swapaxes(0, 1)
        out = [prop.reshape(-1, prop.shape[-1])]
        for site in range(1, len(noise[0])):
            rows = np.ones((B, O, self.config.d), dtype=bool)
            for b, u in enumerate(noise):
                rows[b, :len(u[site])] = u[site]
            out.append(rows.reshape(B * O, -1))
        return out

    def _queries(self, label_lists):
        """Query embeddings of B label lists padded to the longest, (B, O, d),
        and the (B, O) mask of the real ones."""
        counts = [len(labels) for labels in label_lists]
        if not all(counts):
            raise VocabularyError("encode_query: empty label list")
        O = max(counts)
        idx = [list(labels) + [0] * (O - len(labels)) for labels in label_lists]
        return self.query_enc.encode(idx), np.arange(O) < np.array(counts)[:, None]

    # ------------------------------------------------------------------
    # inference

    def predict(self, segments):
        """Ground every query of each segment at each frame that carries a gt
        record (every frame of a segment without one), in one no_grad pass.

        Proposal rows of all segments go through the MLP as one block, are
        scattered into a (B, F_max*N, d) block padded with whole zero frames,
        and meet the padded queries in one similarity cube. Returns, per
        segment, {(query_idx, frame_idx): index of the chosen proposal}.
        """
        if not segments:
            return []
        N = segments[0].frames.shape[1]
        if any(seg.frames.shape[1] != N for seg in segments):
            raise ShapeError("every segment of a predict batch needs the same "
                             "number of proposals per frame")
        frames = [np.unique(seg.gt["frame"]) if seg.gt is not None and len(seg.gt)
                  else np.arange(seg.n_frames) for seg in segments]
        counts = np.array([len(f) for f in frames]) * N      # proposal rows per segment
        width = counts.max()
        with no_grad():
            Q, mask = self._queries([seg.query_labels for seg in segments])
            feats = np.concatenate([seg.frames["feature"][f].reshape(-1, self.prop_enc.D_in)
                                    for seg, f in zip(segments, frames)])
            encoded = self.prop_enc.encode(feats).data
            P = np.zeros((len(segments), width, encoded.shape[1]))
            P[np.arange(width) < counts[:, None]] = encoded
            cube = G.similarity_cube(Q, Tensor(P), width // N, mask)
        # (B, O, F_max); padding is whole frames, so np.argmax still takes
        # the lowest index on ties
        pick = np.argmax(cube.a.data, axis=-1)
        out = []
        for seg, f, p in zip(segments, frames, pick):
            p = p[:len(seg.query_labels), :len(f)].tolist()
            f = f.tolist()
            out.append({(k, fr): row[t] for k, row in enumerate(p)
                        for t, fr in enumerate(f)})
        return out


def stack_features(blocks):
    """Proposal features of every (segment, frame_indices) block as one
    (sum of T*N, D_in) array, frame-major, in the stored float32."""
    feats = np.stack([segment.frames.feature[frame_indices]
                      for segment, frame_indices in blocks])
    return feats.reshape(-1, feats.shape[-1])


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
