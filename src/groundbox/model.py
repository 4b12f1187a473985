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
        self.prop_enc = ProposalEncoder(config.D_in, config.d, rng)
        self.attn = MultiHeadAttentionStack(
            config.d, layers=config.attn_layers, heads=config.attn_heads,
            hidden=config.attn_hidden, rng=rng)
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
        if not n_vis or not n_sent:
            raise ShapeError("the margin loss needs >= 1 negative of each kind")
        Q, mask = self._queries([[seg.query_labels for seg in segments]] +
                                [[s[j] for s in neg_sentences] for j in range(n_sent)])
        # block-major: every segment's positive block, then every segment's
        # first visual negative, ...
        blocks = list(zip(segments, frames)) + [
            (negs[j], [min(f, negs[j].n_frames - 1) for f in fr])
            for j in range(n_vis) for negs, fr in zip(neg_visual, frames)]
        drop = self._batch_noise(noise, n_vis, mask[0])
        encoded = self.prop_enc.encode(stack_features(blocks), drop[0] if drop else None)
        B, d = len(batch), encoded.data.shape[1]
        P = T.reshape(encoded, (1 + n_vis, B, encoded.data.shape[0] // len(blocks), d))
        a = G.similarity_cube(Q, P, Tn)                 # (1+K+K', B, O, T*N)
        # the positive and visual pairings score Q[0], sentence negative j Q[j]
        pair_mask = mask[[0] * (1 + n_vis) + list(range(1, 1 + n_sent))]

        if mode is LossMode.DVSA:
            return G.dvsa_segment_loss(G.segment_score(a, pair_mask), cfg.delta)

        c = G.frame_scores(a, Tn, pair_mask)            # (1+K+K', B, T)
        rank_vec = G.frame_ranking_loss(c, cfg.delta)
        if mode is LossMode.LOSS_WEIGHTING:
            return G.weighted_segment_loss(T.take(c, 0), rank_vec, cfg.lam)

        rows = T.reshape(T.take(Q, 0), (-1, d))         # (B*O, d), row-wise layers
        J = self.attn.forward(rows, mask[0], drop[1:])
        c_lang = G.language_confidence(J, rows, self.lang_W, self.lang_b, mask[0])
        if mode is LossMode.OBJECT_INTERACTION:
            return G.language_weighted_segment_loss(rank_vec, c_lang, cfg.lam)
        return G.combined_segment_loss(T.take(c, 0), rank_vec, c_lang, cfg.lam)

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
        """The items' draw_dropout keep-masks as the batch graph's dropout
        multipliers, 1/(1-p) or 0, the one place p scales anything: proposal
        rows block-major, attention rows padded to (B*O, d), padding kept."""
        if not noise or not noise[0]:
            return []
        B, O = mask.shape
        prop = np.stack([u[0] for u in noise])                  # (B, (1+K)*T*N, h)
        prop = prop.reshape(B, 1 + n_vis, -1, prop.shape[-1]).swapaxes(0, 1)
        keep = [prop.reshape(-1, prop.shape[-1])]
        for site in range(1, len(noise[0])):
            rows = np.ones((B, O, self.config.d), dtype=bool)
            for b, u in enumerate(noise):
                rows[b, :len(u[site])] = u[site]
            keep.append(rows.reshape(B * O, -1))
        return [np.where(k, 1.0 / (1.0 - self.config.dropout), 0.0) for k in keep]

    def _queries(self, blocks):
        """Query embeddings of blocks of B label lists each, every list padded
        to the longest of all, from one lookup: (len(blocks), B, O, d), and
        the (len(blocks), B, O) mask of the real ones."""
        counts = [[len(labels) for labels in block] for block in blocks]
        if not all(map(all, counts)):
            raise VocabularyError("encode_query: empty label list")
        O = max(map(max, counts))
        idx = [[list(labels) + [0] * (O - len(labels)) for labels in block]
               for block in blocks]
        return self.query_enc.encode(idx), np.arange(O) < np.array(counts)[..., None]

    # ------------------------------------------------------------------
    # inference

    def predict(self, segments, frames=None):
        """Ground every query of each segment at each of its frames, in one
        no_grad pass.

        frames: per segment, the distinct frame indices to score; None scores
        scored_frames(segments), and [np.arange(seg.n_frames) for seg in
        segments] scores every frame. Proposal rows of all segments go through
        the MLP as one block, are scattered into a (B, W*N, d) block padded
        with whole zero frames (W: the most frames a segment scores), and meet
        the padded queries in one similarity cube. Returns one (B, O_max,
        F_max) np.intp block: block[b, k, f] is the chosen proposal of query k
        at frame f of segment b, -1 at frames it did not score and at padded
        queries and frames; ties take the lowest index.
        """
        B = len(segments)
        if not B:
            return np.empty((0, 0, 0), dtype=np.intp)
        N = segments[0].frames.shape[1]
        if any(seg.frames.shape[1] != N for seg in segments):
            raise ShapeError("every segment of a predict batch needs the same "
                             "number of proposals per frame")
        if frames is None:
            frames = scored_frames(segments)
        scored = np.array([len(f) for f in frames])      # frames per segment
        W = scored.max()
        block = np.full((B, max(len(seg.query_labels) for seg in segments),
                         max(seg.n_frames for seg in segments)), -1, dtype=np.intp)
        if not W:
            return block
        real = np.arange(W) < scored[:, None]            # (B, W) scored frames
        with no_grad():
            Q, mask = self._queries([[seg.query_labels for seg in segments]])
            encoded = self.prop_enc.encode(stack_features(zip(segments, frames))).data
            d = encoded.shape[1]
            P = np.zeros((1, B, W, N, d))
            P[0, real] = encoded.reshape(-1, N, d)
            a = G.similarity_cube(Q, Tensor(P.reshape(1, B, W * N, d)), W).data
        O = mask.shape[-1]
        # (B, O, W); padding is whole frames, so np.argmax still takes the
        # lowest index on ties
        pick = np.argmax(a[0].reshape(B, O, W, N), axis=-1)
        pick[~mask[0]] = -1
        block.swapaxes(1, 2)[np.repeat(np.arange(B), scored), np.concatenate(frames)] = \
            pick.swapaxes(1, 2)[real]
        return block


def scored_frames(segments):
    """Per segment, the sorted distinct frames of its gt records (none for a
    segment without any): the frames predict scores by default. One
    np.unique over segment * F_max + frame serves the whole list."""
    width = max(seg.n_frames for seg in segments)
    gts = [np.empty(0, dtype=np.intp) if seg.gt is None else seg.gt["frame"]
           for seg in segments]
    keys = np.unique(np.repeat(np.arange(len(segments)) * width, [len(f) for f in gts])
                     + np.concatenate(gts))
    cuts = np.searchsorted(keys, np.arange(len(segments) + 1) * width).tolist()
    frames = keys % width
    return [frames[lo:hi] for lo, hi in zip(cuts[:-1], cuts[1:])]


def stack_features(blocks):
    """Proposal features of every (segment, frame_indices) block as one
    (sum of len(frame_indices)*N, D_in) array, frame-major, in the stored
    float32; blocks may hold different numbers of frames."""
    stacked = np.concatenate([segment.frames["feature"][frame_indices]
                              for segment, frame_indices in blocks])
    return stacked.reshape(-1, stacked.shape[-1])


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
        t.data = arr.copy()   # checkpoint_load returns views of one blob
