"""A plain-numpy reference for the losses of the four modes.

It follows the formulas of the README and of Zhou et al. (arXiv 1805.02834,
§3) one segment at a time, with no tape and no groundbox.tensor:

- similarity of query k and proposal i of frame t: sigmoid(q_k . r_i^t / sqrt(d));
- frame confidence C_t = (1/O) sum_k max_i of it, segment score
  (1/O) sum_k max_{t,i};
- the hinge sum_j max(0, s_j - s_0 + delta) over the K visual and the K'
  sentence negatives, and the penalty D(w) = -log 2w;
- the attention stack J: sinusoidal positional rows added to the queries,
  then per layer x <- LN(x + concat_h softmax(x Wq_h (x Wk_h)^T / sqrt(w)) x Wv_h Wo)
  and x <- LN(x + relu(x W1 + b1) W2 + b2), each segment attending over its
  own queries only, as the key mask of a padded batch makes it;
- C_lang = (1/O) sum_k sigmoid(W [J(q_k); q_k] + b), frame t's snippet
  t_s = min(ceil(t / ceil(T/T')), T'), and the frame weights C_t,
  C_lang^{t_s} and their mean;
- the weighted loss (1/T) sum_t [lam w_t L_rank^t + (1-lam) D(w_t)];
- grounding: at each frame, each query picks its most similar proposal;
- dropout: a keep-mask of the item's own (its draw_dropout masks) turns
  into the multipliers where(keep, 1/(1-p), 0), applied to the proposal
  MLP's hidden layer before the relu and to the sublayer output y of each
  LN(x + y) of the attention stack.
"""

import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from groundbox.config import GroundingConfig, LossMode
from groundbox.data import generate_synthetic
from groundbox.model import GroundingModel
from groundbox.tensor import no_grad

BASE = GroundingConfig(d=8, D_in=6, V=16, N=4, attn_layers=1, attn_heads=2,
                       attn_hidden=8, dropout=0.0, frames_per_segment=5,
                       min_objects=3, max_objects=3, train_segments=8,
                       val_segments=0, test_segments=0, sigma=0.1, seed=0)
POOL = generate_synthetic(BASE)[1]["train"]


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _encode(model, segment, frames, drop=1.0):
    """(T, N, d) proposal encodings of segment at frames; drop: the (T, N, h)
    dropout multipliers of the hidden layer, or 1 (dropout off)."""
    enc = model.prop_enc
    x = segment.frames["feature"][frames].astype(np.float64)
    h = np.maximum((x @ enc.W1.data + enc.b1.data) * drop, 0.0)
    return h @ enc.W2.data + enc.b2.data


def _scores(q, r):
    """(O, T, N) similarities of queries q (O, d) and proposals r (T, N, d)."""
    return _sigmoid(np.einsum("kd,tnd->ktn", q, r) / math.sqrt(q.shape[-1]))


def _hinge(pos, negs, delta):
    return sum(np.maximum(0.0, neg - pos + delta) for neg in negs)


def _softmax(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _layer_norm(x, gain, bias):
    mu = x.mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-6) * gain + bias


def _attention(model, q, drops):
    """(O, d) interaction encodings J of one segment's queries q (O, d);
    drops: two (O, d) dropout multipliers per layer, attention sublayer
    first, or 1 for each (dropout off)."""
    O, d = q.shape
    j = np.arange(d)
    angle = np.arange(O)[:, None] / 10000.0 ** (2 * (j // 2) / d)
    x = q + np.where(j % 2 == 0, np.sin(angle), np.cos(angle))
    for layer, drop_attn, drop_ff in zip(model.attn.layers, drops[0::2], drops[1::2]):
        Q, K, V = (x @ W.data for W in (layer.Wq, layer.Wk, layer.Wv))
        w = Q.shape[1] // layer.n_heads
        heads = []
        for h in range(layer.n_heads):
            c = slice(h * w, (h + 1) * w)
            heads.append(_softmax(Q[:, c] @ K[:, c].T / math.sqrt(w)) @ V[:, c])
        attn = np.hstack(heads) @ layer.Wo.data
        x = _layer_norm(x + attn * drop_attn, layer.ln1_g.data, layer.ln1_b.data)
        ff = np.maximum(x @ layer.W1.data + layer.b1.data, 0.0) @ layer.W2.data + layer.b2.data
        x = _layer_norm(x + ff * drop_ff, layer.ln2_g.data, layer.ln2_b.data)
    return x


def _c_lang(model, q, drops):
    """(T',) language confidence of one segment's queries q (O, d)."""
    x = np.concatenate([_attention(model, q, drops), q], axis=1)
    return _sigmoid(x @ model.lang_W.data + model.lang_b.data).mean(axis=0)


def reference_loss(model, item, keep=()):
    """The loss of one (segment, visual negatives, sentence negatives, frames)
    item under the model's configured mode. keep: the item's draw_dropout
    keep-masks, or none (dropout off)."""
    cfg = model.config
    segment, neg_visual, neg_sentences, frames = item
    blocks, N = 1 + len(neg_visual), segment.frames.shape[1]
    drops = [np.where(k, 1.0 / (1.0 - cfg.dropout), 0.0) for k in keep]
    # the proposal mask holds the item's blocks one after the other, each
    # frame-major; the attention masks follow in layer order
    prop = drops[0].reshape(blocks, len(frames), N, -1) if drops else [1.0] * blocks
    drops = drops[1:] or [1.0] * (2 * len(model.attn.layers))
    W = model.query_enc.W.data
    q = W[segment.query_labels]
    r = _encode(model, segment, frames, prop[0])
    pairings = [_scores(q, r)]
    pairings += [_scores(q, _encode(model, neg, [min(f, neg.n_frames - 1) for f in frames],
                                    drop))
                 for neg, drop in zip(neg_visual, prop[1:])]
    pairings += [_scores(W[labels], r) for labels in neg_sentences]
    if cfg.mode is LossMode.DVSA:
        s = [a.max(axis=(1, 2)).mean() for a in pairings]
        return _hinge(s[0], s[1:], cfg.delta)
    c = [a.max(axis=2).mean(axis=0) for a in pairings]          # each (T,)
    rank = _hinge(c[0], c[1:], cfg.delta)
    n_frames = len(frames)
    if cfg.mode is LossMode.LOSS_WEIGHTING:
        w = c[0]
    else:
        c_lang = _c_lang(model, q, drops)
        Tp = len(c_lang)
        snippet = [min(math.ceil(t / math.ceil(n_frames / Tp)), Tp)
                   for t in range(1, n_frames + 1)]
        lang = c_lang[np.array(snippet) - 1]
        w = lang if cfg.mode is LossMode.OBJECT_INTERACTION else (c[0] + lang) / 2
    return np.mean(cfg.lam * w * rank + (1 - cfg.lam) * -np.log(2 * w))


def reference_picks(model, segment, frames):
    """(O, len(frames)): the proposal each query of segment picks at frames."""
    q = model.query_enc.W.data[segment.query_labels]
    return _scores(q, _encode(model, segment, frames)).argmax(axis=2)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(list(LossMode)), st.integers(1, 2), st.integers(1, 2),
       st.integers(1, BASE.frames_per_segment), st.sampled_from([0.0, 0.3]), st.data())
def test_segment_loss_matches_the_numpy_reference(mode, K, K_sent, n_frames, p, data):
    Tp = data.draw(st.integers(1, n_frames))
    config = BASE.replace(mode=mode.value, T=n_frames, T_prime=Tp, dropout=p,
                          seed=data.draw(st.integers(0, 2**31 - 1)))
    model = GroundingModel(config)
    index = st.integers(0, len(POOL) - 1)
    frame = st.integers(0, BASE.frames_per_segment - 1)
    labels = st.lists(st.integers(0, BASE.V - 1), min_size=1, max_size=3)
    batch = []
    for _ in range(data.draw(st.integers(1, 4))):
        seg = POOL[data.draw(index)]
        O = data.draw(st.integers(1, 3))
        batch.append((dataclasses.replace(seg, query_labels=seg.query_labels[:O]),
                      [POOL[data.draw(index)] for _ in range(K)],
                      [data.draw(labels) for _ in range(K_sent)],
                      sorted(data.draw(st.lists(frame, min_size=n_frames,
                                                max_size=n_frames)))))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    noise = [model.draw_dropout(item[0], K, n_frames, rng) for item in batch]
    with no_grad():
        got = model.segment_loss(batch, noise).data
    want = np.array([reference_loss(model, item, keep) for item, keep in zip(batch, noise)])
    assert np.allclose(got, want, rtol=1e-12, atol=0)
    scored = [np.unique(item[3]) for item in batch]
    picks = model.predict([item[0] for item in batch], scored)
    for block, (segment, *_), frames in zip(picks, batch, scored):
        O = len(segment.query_labels)
        assert np.array_equal(block[:O, frames], reference_picks(model, segment, frames))
