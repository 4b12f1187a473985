import dataclasses
import gc
import json
import math
import os
import re
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groundbox import tensor as T
from groundbox.cli import GRADCHECK_DEFAULTS, GRADCHECK_TOLERANCE, gradcheck_all_modes
from groundbox.config import ConfigError, GroundingConfig, LossMode
from groundbox.data import (GT_DTYPE, DataError, IntegrityError, SamplingError,
                            SegmentSample, disjoint_rows, generate_synthetic,
                            label_members, load_segments, sample_frames,
                            sample_negative_sentence, save_segments)
from groundbox.encoders import ProposalEncoder
from groundbox.evaluate import (EvalReport, box_accuracy, evaluate_model, iou,
                                per_class_delta, upper_bound)
from groundbox.model import GroundingModel, load_into_model, scored_frames
from groundbox.tensor import ShapeError, Tape, Tensor, backward
from groundbox.train import NesterovSGD, checkpoint_load, checkpoint_save, train


def _sum(x):
    """Sum of every entry; its adjoint is exactly 1 in every entry."""
    return T.scale(T.mean_all(x), x.data.size)


TINY = GroundingConfig(d=8, D_in=6, V=12, N=4, T=3, T_prime=2,
                       attn_layers=1, attn_heads=2, attn_hidden=8,
                       dropout=0.0, frames_per_segment=4,
                       train_segments=6, val_segments=3, test_segments=3,
                       epochs=2, batch=3, lr=0.1, sigma=0.1, seed=0)


# --------------------------------------------------------------------------
# optimizer

def test_nesterov_drives_quadratic_to_zero():
    # minimize |theta|^2 with the default schedule; 200 steps suffice
    theta = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = NesterovSGD({"theta": theta}, lr=0.05, momentum=0.9)
    for _ in range(200):
        opt.zero_grad()
        opt.lookahead()
        with Tape():
            backward(_sum(T.mul(theta, theta)))
        opt.step()
    assert np.max(np.abs(theta.data)) < 1e-3


def test_nesterov_lr_zero_is_noop():
    theta = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    opt = NesterovSGD({"theta": theta}, lr=0.0, momentum=0.9)
    for _ in range(5):
        opt.zero_grad()
        opt.lookahead()
        with Tape():
            backward(_sum(T.mul(theta, theta)))
        opt.step()
    assert np.array_equal(theta.data, [1.0, 2.0])


def test_nesterov_first_step_matches_hand_update():
    # v0=0: lookahead leaves theta; v1 = -lr*g(theta); theta1 = theta + v1
    theta = Tensor(np.array([3.0]), requires_grad=True)
    opt = NesterovSGD({"theta": theta}, lr=0.1, momentum=0.9)
    opt.lookahead()
    with Tape():
        backward(_sum(T.mul(theta, theta)))  # g = 2*theta = 6
    opt.step()
    assert np.allclose(theta.data, [3.0 - 0.1 * 6.0])


def test_nesterov_second_step_uses_lookahead_gradient():
    theta = Tensor(np.array([3.0]), requires_grad=True)
    opt = NesterovSGD({"theta": theta}, lr=0.1, momentum=0.9)
    for _ in range(2):
        opt.zero_grad()
        opt.lookahead()
        with Tape():
            backward(_sum(T.mul(theta, theta)))
        opt.step()
    # hand roll: v1=-0.6, th1=2.4; lookahead 2.4-0.54=1.86, g=3.72,
    # v2=0.9*(-0.6)-0.372=-0.912, th2=2.4-0.912=1.488
    assert np.allclose(theta.data, [1.488])


def test_nesterov_in_place_update_is_bit_identical_to_out_of_place_formulas():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((6, 6))
    start = {"a": rng.standard_normal((2, 3)), "b": rng.standard_normal(5)}

    def grad(theta):  # a gradient that depends on where it is taken
        return A[:theta.size, :theta.size] @ theta.reshape(-1) + np.sin(theta).reshape(-1)

    params = {n: Tensor(a.copy(), requires_grad=True) for n, a in start.items()}
    opt = NesterovSGD(params, lr=0.07, momentum=0.9)
    ref = {n: a.copy() for n, a in start.items()}
    vel = {n: np.zeros_like(a) for n, a in start.items()}
    for _ in range(20):
        opt.zero_grad()
        opt.lookahead()
        for n, t in params.items():
            t.grad = grad(t.data).reshape(t.data.shape)
        opt.step()
        for n in ref:  # the formulas written out of place, as they were
            base = ref[n].copy()
            ahead = ref[n] + 0.9 * vel[n]
            vel[n] = 0.9 * vel[n] - 0.07 * grad(ahead).reshape(ahead.shape)
            ref[n] = base + vel[n]
    for n, t in params.items():
        assert np.array_equal(t.data, ref[n]) and np.array_equal(opt.velocity[n], vel[n])


def test_nesterov_step_without_grad_raises():
    theta = Tensor(np.array([1.0]), requires_grad=True)
    opt = NesterovSGD({"theta": theta}, lr=0.1, momentum=0.9)
    with pytest.raises(ShapeError, match="theta"):
        opt.step()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
def test_check_nan_names_first_offending_op():
    # backward refuses a non-finite loss before it writes any gradient
    x = Tensor(np.array([1e200]), requires_grad=True)
    with Tape():
        loss = T.mean_all(T.mul(T.mul(x, x), T.mul(x, x)))  # overflows to inf
        with pytest.raises(FloatingPointError,
                           match="non-finite loss; first offending op: mul"):
            backward(loss)
    assert x.grad is None and loss.grad is None


# --------------------------------------------------------------------------
# model plumbing

def _scored(seg):
    """Which frames predict scores: those with a gt record, none without gt."""
    return np.isin(np.arange(seg.n_frames), [] if seg.gt is None else seg.gt["frame"])


def _check_block(segments, block, scored=_scored):
    """A (B, O_max, F_max) np.intp pick block: a proposal index at each
    segment's scored frames of its real queries, -1 everywhere else."""
    assert block.dtype == np.intp
    assert block.shape == (len(segments), max(len(s.query_labels) for s in segments),
                           max(s.n_frames for s in segments))
    for seg, picks in zip(segments, block):
        want = np.zeros(picks.shape, dtype=bool)
        want[:len(seg.query_labels), :seg.n_frames] = scored(seg)
        assert np.array_equal(picks >= 0, want)
        assert (picks < seg.frames.shape[1]).all() and (picks >= -1).all()


def test_model_predict_covers_all_gt_frames():
    vocab, splits = generate_synthetic(TINY)
    model = GroundingModel(TINY, np.random.default_rng(0))
    seg = splits["val"][0]
    block = model.predict([seg])
    _check_block([seg], block)
    assert (block[0, seg.gt["query"], seg.gt["frame"]] >= 0).all()


def test_predict_takes_lowest_index_on_ties():
    # every proposal of the segment's one gt frame carries the same feature,
    # so every query ties across all of them
    _, splits = generate_synthetic(TINY)
    seg = splits["val"][0]
    seg.gt = seg.gt[:1]
    f = int(seg.gt["frame"][0])
    seg.frames["feature"][f] = seg.frames["feature"][f, 0]
    model = GroundingModel(TINY, np.random.default_rng(0))
    block = model.predict([seg])
    _check_block([seg], block)
    assert (block[0, :, f] == 0).all()


def test_scored_frames_are_the_sorted_gt_frames():
    _, splits = generate_synthetic(TINY.replace(frames_per_segment=5))
    seg = splits["test"][0]
    gt = np.zeros(4, dtype=GT_DTYPE)
    gt["frame"] = [3, 0, 3, 4]
    segments = [SegmentSample("gt", "test", seg.query_labels, seg.frames, gt),
                SegmentSample("none", "test", seg.query_labels, seg.frames[:3]),
                SegmentSample("empty", "test", seg.query_labels, seg.frames[:4], gt[:0])]
    assert [f.tolist() for f in scored_frames(segments)] == [[0, 3, 4], [], []]
    assert [f.tolist() for f in scored_frames(segments[1:])] == [[], []]


def test_predict_scores_the_frames_it_is_given():
    # a chosen subset is scored exactly; every frame fills every real column
    # and agrees with the default at the frames both score; query and frame
    # padding reads -1 either way; by default a segment without gt (the
    # train one) scores no frame, and a call where none scores reads all -1
    _, splits = generate_synthetic(TINY.replace(frames_per_segment=5))
    short = splits["test"][1]
    short = SegmentSample("short", "test", short.query_labels[:1], short.frames[:3],
                          short.gt[(short.gt["frame"] < 3) & (short.gt["query"] == 0)])
    segments = [splits["test"][0], short, splits["train"][0]]
    model = GroundingModel(TINY, np.random.default_rng(1))
    default = model.predict(segments)
    _check_block(segments, default)
    chosen = [[1, 3], [2], [0, 4]]
    subset = model.predict(segments, [np.array(f) for f in chosen])
    by_id = {seg.segment_id: f for seg, f in zip(segments, chosen)}
    _check_block(segments, subset,
                 lambda seg: np.isin(np.arange(seg.n_frames), by_id[seg.segment_id]))
    every = model.predict(segments, [np.arange(s.n_frames) for s in segments])
    _check_block(segments, every, lambda seg: np.ones(seg.n_frames, dtype=bool))
    assert (every[1, 1:] == -1).all() and (every[1, :, 3:] == -1).all()
    for block in (default, subset):
        scored = block >= 0
        assert np.array_equal(every[scored], block[scored])
    none = model.predict(segments[2:])
    assert none.shape == (1, len(segments[2].query_labels), 5) and (none == -1).all()


_, PREDICT_SPLITS = generate_synthetic(TINY.replace(test_segments=8))
PREDICT_POOL = PREDICT_SPLITS["val"] + PREDICT_SPLITS["test"]


def _predict_item(draw, b):
    """A pool segment cut to a drawn query count and gt-frame count (none:
    no gt at all), with its first grounded frame's proposals tied or not."""
    seg = PREDICT_POOL[draw(st.integers(0, len(PREDICT_POOL) - 1))]
    n_queries = draw(st.integers(1, len(seg.query_labels)))
    gt = seg.gt[seg.gt["query"] < n_queries]
    gt_frames = np.unique(gt["frame"])
    gt = gt[np.isin(gt["frame"], gt_frames[:draw(st.integers(0, len(gt_frames)))])]
    frames = seg.frames.copy()
    tie_frame = None
    if draw(st.booleans()) and len(gt):
        tie_frame = int(gt["frame"][0])
        frames["feature"][tie_frame] = frames["feature"][tie_frame, 0]
    item = SegmentSample(f"b{b}", "test", seg.query_labels[:n_queries], frames,
                         gt if len(gt) else None)
    return item, tie_frame


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_batched_predict_matches_one_segment_at_a_time(data):
    model = GroundingModel(TINY, np.random.default_rng(5))
    items = [_predict_item(data.draw, b) for b in range(data.draw(st.integers(1, 5)))]
    segments = [seg for seg, _ in items]
    block = model.predict(segments)
    _check_block(segments, block)
    for b, (seg, tie_frame) in enumerate(items):
        [single] = model.predict([seg])
        O, F = single.shape
        assert np.array_equal(block[b, :O, :F], single)
        if tie_frame is not None:
            assert (single[:, tie_frame] == 0).all()


def test_trainable_params_by_mode():
    base = GroundingModel(TINY, np.random.default_rng(0))
    full = set(base.params())
    for mode in (LossMode.DVSA, LossMode.LOSS_WEIGHTING):
        m = GroundingModel(TINY.replace(mode=mode.value), np.random.default_rng(0))
        names = set(m.trainable_params())
        assert not any(n.startswith(("attn.", "lang.")) for n in names)
        assert names < full
    for mode in (LossMode.OBJECT_INTERACTION, LossMode.FULL_MODEL):
        m = GroundingModel(TINY.replace(mode=mode.value), np.random.default_rng(0))
        assert set(m.trainable_params()) == full


def test_segment_loss_finite_in_every_mode():
    _, splits = generate_synthetic(TINY)
    seg, nv, ns = splits["train"][:3]
    for mode in LossMode:
        cfg = TINY.replace(mode=mode.value)
        model = GroundingModel(cfg, np.random.default_rng(1))
        rng = np.random.default_rng(2)
        with Tape():
            loss = T.mean_all(model.segment_loss(
                [(seg, [nv], [ns.query_labels], [0, 1, 2])],
                noise=[model.draw_dropout(seg, 1, 3, rng)]))
            backward(loss)
        assert np.isfinite(loss.item())


@pytest.mark.parametrize("mode", list(LossMode))
def test_draw_dropout_shapes_order_and_keep_fraction(mode):
    _, splits = generate_synthetic(TINY)
    seg = splits["train"][0]
    O, K, p = len(seg.query_labels), 2, 0.3
    model = GroundingModel(TINY.replace(mode=mode.value, dropout=p),
                           np.random.default_rng(1))
    masks = model.draw_dropout(seg, K, TINY.T, np.random.default_rng(2))
    shapes = [((1 + K) * TINY.T * TINY.N, model.prop_enc.W1.data.shape[1])]
    if mode in (LossMode.OBJECT_INTERACTION, LossMode.FULL_MODEL):
        shapes += [(O, TINY.d)] * (2 * TINY.attn_layers)
    assert [m.shape for m in masks] == shapes
    # proposal rows first, then each attention layer's two sites, from one stream
    rng = np.random.default_rng(2)
    for m, shape in zip(masks, shapes):
        assert m.dtype == bool and np.array_equal(m, rng.random(shape) >= p)
    rng = np.random.default_rng(3)
    kept = np.concatenate([m.ravel() for _ in range(40)
                           for m in model.draw_dropout(seg, K, TINY.T, rng)])
    assert abs(kept.mean() - (1 - p)) < 0.03
    off = GroundingModel(TINY.replace(mode=mode.value), np.random.default_rng(1))
    assert off.draw_dropout(seg, K, TINY.T, np.random.default_rng(2)) == []


def test_model_rejects_ragged_frames(tmp_path):
    # frames of 4 and 5 proposals used to drop a proposal silently and
    # mis-assign rows; frames of 5 and 3 raised a bare IndexError. A segment's
    # proposals are now one (F, N) array and the dataset has one N, so a
    # segment whose frames hold another count shows as rows that do not tile,
    # and load_segments refuses it before any frame reaches the model.
    vocab, splits = generate_synthetic(TINY)
    F = TINY.frames_per_segment
    for N in (TINY.N - 1, TINY.N + 1):
        data = tmp_path / f"ragged{N}"
        save_segments(data, vocab, splits)
        path = data / "features.json"
        path.write_text(json.dumps(dict(json.loads(path.read_text()), N=N)))
        want = (f"segments.jsonl:2: row: {F * TINY.N}, but the rows before it end "
                f"at {F * N}")
        with pytest.raises(DataError, match=re.escape(want)):
            load_segments(data)


def test_segment_loss_encodes_proposals_once_per_segment(monkeypatch):
    _, splits = generate_synthetic(TINY)
    seg, nv1, nv2, ns = splits["train"][:4]
    calls = []
    encode = ProposalEncoder.encode

    def counting(self, features, *args, **kwargs):
        calls.append(features.shape[0])
        return encode(self, features, *args, **kwargs)

    monkeypatch.setattr(ProposalEncoder, "encode", counting)
    for mode in LossMode:
        model = GroundingModel(TINY.replace(mode=mode.value),
                               np.random.default_rng(1))
        calls.clear()
        with Tape():
            backward(T.mean_all(model.segment_loss(
                [(seg, [nv1, nv2], [ns.query_labels], [0, 1, 2]),
                 (nv1, [nv2, seg], [ns.query_labels], [1, 2, 3])])))
        # both positives and all four visual negatives in one
        # (B*(1+K)*T*N, D_in) block
        assert calls == [2 * 3 * TINY.T * TINY.N]


def test_gradcheck_all_modes_at_a_second_shape():
    # three blocks (positive + two visual negatives) of T=3 frames with N=6
    # proposals each, O=3 queries, and two sentence negatives: five pairings
    # per segment; most proposal rows carry no gradient
    cfg = GroundingConfig.from_dict({
        **GRADCHECK_DEFAULTS, "N": 6, "T": 3, "frames_per_segment": 3,
        "min_objects": 3, "max_objects": 3, "negatives": 2})
    results = gradcheck_all_modes(cfg)
    assert set(results) == set(LossMode)
    worst = max(err for err, _ in results.values())
    assert worst < GRADCHECK_TOLERANCE, results


def test_load_into_model_mismatch_errors():
    model = GroundingModel(TINY, np.random.default_rng(0))
    good = {n: t.data.copy() for n, t in model.params().items()}
    missing = dict(good)
    name = next(iter(missing))
    del missing[name]
    with pytest.raises(ShapeError, match=name.replace(".", r"\.")):
        load_into_model(model, missing)
    wrong = dict(good)
    wrong[name] = np.zeros((1, 1))
    with pytest.raises(ShapeError, match=name.replace(".", r"\.")):
        load_into_model(model, wrong)


# --------------------------------------------------------------------------
# training loop

def test_train_runs_and_reduces_loss():
    _, splits = generate_synthetic(TINY)
    model, history = train(TINY.replace(epochs=4, lr=0.5), splits)
    assert len(history) == 4
    losses = [h[1] for h in history]
    assert all(np.isfinite(l) for l in losses)
    assert losses[-1] < losses[0]


def test_train_writes_artifacts(tmp_path):
    _, splits = generate_synthetic(TINY)
    train(TINY, splits, out_dir=tmp_path)
    assert (tmp_path / "checkpoint.bin").exists()
    assert (tmp_path / "checkpoint.json").exists()
    lines = (tmp_path / "trainlog.csv").read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_accuracy"
    assert len(lines) == 1 + TINY.epochs
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["checkpoint.bin", "checkpoint.json", "trainlog.csv"]  # no temp file left


@pytest.mark.parametrize("dropout", [0.0, 0.2])
def test_train_deterministic_loss_log(dropout):
    config = TINY.replace(dropout=dropout)
    _, splits = generate_synthetic(config)
    m1, h1 = train(config, splits)
    _, splits2 = generate_synthetic(config)
    m2, h2 = train(config, splits2)
    assert h1 == h2
    for name, t in m1.params().items():
        assert t.data.tobytes() == m2.params()[name].data.tobytes(), name


def test_checkpoint_round_trip(tmp_path):
    model = GroundingModel(TINY, np.random.default_rng(0))
    checkpoint_save(tmp_path / "ck", model.params(), TINY)
    loaded, cfg_dict = checkpoint_load(tmp_path / "ck")
    assert cfg_dict == TINY.to_dict()
    for name, t in model.params().items():
        assert np.array_equal(loaded[name], t.data)
    other = GroundingModel(TINY, np.random.default_rng(9))
    load_into_model(other, loaded)
    for name, t in model.params().items():
        assert np.array_equal(other.params()[name].data, t.data)


def test_checkpoint_corrupt_manifest(tmp_path):
    model = GroundingModel(TINY, np.random.default_rng(0))
    checkpoint_save(tmp_path / "ck", model.params())
    p = tmp_path / "ck.json"
    p.write_text(p.read_text()[:40])
    with pytest.raises(IntegrityError, match=re.escape(str(p))):
        checkpoint_load(tmp_path / "ck")


def test_checkpoint_truncated_blob(tmp_path):
    model = GroundingModel(TINY, np.random.default_rng(0))
    checkpoint_save(tmp_path / "ck", model.params())
    blob = (tmp_path / "ck.bin").read_bytes()
    (tmp_path / "ck.bin").write_bytes(blob[:-8])
    with pytest.raises(IntegrityError, match=re.escape(str(tmp_path / "ck.bin"))):
        checkpoint_load(tmp_path / "ck")


class _UnwritableConfig:
    def to_dict(self):
        return {"lr": object()}  # no JSON form


@pytest.mark.parametrize("where", ["mid-blob", "manifest"])
def test_checkpoint_save_that_fails_keeps_the_earlier_checkpoint(tmp_path, where):
    model = GroundingModel(TINY, np.random.default_rng(0))
    checkpoint_save(tmp_path / "ck", model.params(), TINY)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    params = GroundingModel(TINY, np.random.default_rng(1)).params()
    config = TINY
    if where == "mid-blob":
        # the last parameter has no float64 form: the save fails after
        # streaming every other parameter
        params = dict(params, zz=Tensor(np.zeros(2)))
        params["zz"].data = np.array(["x", "y"])
    else:
        config = _UnwritableConfig()  # the manifest fails after the whole blob
    with pytest.raises((ValueError, TypeError)):
        checkpoint_save(tmp_path / "ck", params, config)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def _save_dataset(directory, seed):
    save_segments(directory, *generate_synthetic(TINY, seed=seed))


def _save_checkpoint(directory, seed):
    model = GroundingModel(TINY, np.random.default_rng(seed))
    checkpoint_save(directory / "checkpoint", model.params(), TINY)


@pytest.mark.parametrize("save, load, manifest", [
    (_save_dataset, load_segments, "features.json"),
    (_save_checkpoint, lambda d: checkpoint_load(d / "checkpoint"), "checkpoint.json"),
], ids=["dataset", "checkpoint"])
def test_a_save_that_fails_while_replacing_leaves_no_manifest(tmp_path, monkeypatch,
                                                              save, load, manifest):
    save(tmp_path, 0)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    replaced = []
    os_replace = os.replace

    def replace_once(src, dst):
        if replaced:
            raise OSError("disk full")
        replaced.append(Path(dst).name)
        os_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace_once)
    with pytest.raises(OSError, match="disk full"):
        save(tmp_path, 1)
    monkeypatch.undo()
    after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert not [name for name in after if name.endswith(".tmp")]
    assert manifest not in after
    # every target after the first, but the manifest, stays as it was
    assert {name: after[name] for name in after if name not in replaced} == \
        {name: before[name] for name in before if name not in (manifest, *replaced)}
    with pytest.raises(FileNotFoundError, match=re.escape(str(tmp_path / manifest))):
        load(tmp_path)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.lists(st.integers(0, 3), max_size=3), min_size=1, max_size=4),
       st.integers(0, 2**31 - 1))
def test_checkpoint_survives_save_load_save_byte_for_byte(shapes, seed):
    rng = np.random.default_rng(seed)
    params = {f"p{i}": Tensor(rng.standard_normal(shape)) for i, shape in enumerate(shapes)}
    params["p0"].data.flat[:1] = -0.0
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "a"), Path(tmp, "b")
        checkpoint_save(first, params, TINY)
        flat, config = checkpoint_load(first)
        checkpoint_save(second, {name: Tensor(a) for name, a in flat.items()},
                        GroundingConfig.from_dict(config))
        for suffix in (".bin", ".json"):
            assert first.with_suffix(suffix).read_bytes() == \
                second.with_suffix(suffix).read_bytes()
        blob = b"".join(t.data.astype("<f8").tobytes() for t in params.values())
        assert first.with_suffix(".bin").read_bytes() == blob
        assert sorted(p.name for p in Path(tmp).iterdir()) == \
            ["a.bin", "a.json", "b.bin", "b.json"]


@pytest.mark.parametrize("shape, want", [
    ([8, -1], "-1 is negative"), ([8.0, 1], "8.0 is not a JSON integer"),
    ("8", "'8' is not a JSON integer"), ([True], "True is not a JSON integer")])
def test_checkpoint_shapes_are_nonnegative_integers(tmp_path, shape, want):
    model = GroundingModel(TINY, np.random.default_rng(0))
    checkpoint_save(tmp_path / "ck", model.params())
    p = tmp_path / "ck.json"
    manifest = json.loads(p.read_text())
    manifest["params"]["query.W"] = shape
    p.write_text(json.dumps(manifest))
    with pytest.raises(IntegrityError, match=re.escape(f"{p}: ") + ".*"
                       + re.escape(f"params.query.W: {want}")):
        checkpoint_load(tmp_path / "ck")


# --------------------------------------------------------------------------
# evaluation

def _one_gt_sample():
    vocab, splits = generate_synthetic(TINY)
    return vocab, splits["val"]


def test_iou_hand_values():
    a = np.array([0, 0, 10, 10])
    assert abs(iou(a, np.array([5, 0, 15, 10])) - 1 / 3) < 1e-12
    assert iou(a, a) == 1.0
    assert iou(a, np.array([20, 20, 30, 30])) == 0.0


def test_box_accuracy_perfect_predictions():
    vocab, samples = _one_gt_sample()
    perfect = {(s.segment_id, g.query, g.frame): g.box
               for s in samples for g in s.gt}
    rep = box_accuracy(samples, perfect, vocab)
    assert rep.macro_accuracy == 1.0
    assert all(v["acc"] == 1.0 for v in rep.per_class.values())


def test_iou_exactly_half_is_a_miss():
    gt = np.array([0, 0, 10, 10])
    # shifted so inter=50, union=... pick a box with IoU exactly 0.5:
    # (0,0,10,5) vs gt: inter 50, union 100 -> 0.5
    pred = np.array([0, 0, 10, 5])
    assert abs(iou(pred, gt) - 0.5) < 1e-12
    seg_gt = np.rec.fromrecords([(0, 0, gt)], dtype=GT_DTYPE)
    seg = type("S", (), {"segment_id": "s", "query_labels": [0], "gt": seg_gt,
                         "frames": [[]]})()
    rep = box_accuracy([seg], {("s", 0, 0): pred}, {0: "a"})
    assert rep.macro_accuracy == 0.0


def test_box_accuracy_missing_prediction_warns_and_misses():
    vocab, samples = _one_gt_sample()
    with pytest.warns(UserWarning, match="counted as miss"):
        rep = box_accuracy(samples, {}, vocab)
    assert rep.macro_accuracy == 0.0


def test_upper_bound_is_one_on_synthetic():
    vocab, samples = _one_gt_sample()
    assert upper_bound(samples, vocab) == 1.0


def test_upper_bound_dominates_any_prediction():
    vocab, samples = _one_gt_sample()
    rng = np.random.default_rng(0)
    ub = upper_bound(samples, vocab)
    for trial in range(20):
        preds = {}
        for s in samples:
            for g in s.gt:
                props = s.frames[g.frame]
                preds[(s.segment_id, g.query, g.frame)] = \
                    props[int(rng.integers(len(props)))].box
        assert box_accuracy(samples, preds, vocab).macro_accuracy <= ub


def test_evaluate_model_order_invariance():
    vocab, samples = _one_gt_sample()
    model = GroundingModel(TINY, np.random.default_rng(3))
    r1 = evaluate_model(model, samples, vocab=vocab)
    r2 = evaluate_model(model, samples[::-1], vocab=vocab)
    assert r1.per_class == r2.per_class
    assert r1.macro_accuracy == r2.macro_accuracy
    assert r1.upper_bound == r2.upper_bound


def _reference_report(samples, predictions, vocab):
    """box_accuracy and upper_bound tallied one segment at a time, as
    (per_class, macro_accuracy, upper bound)."""
    def tally(hits_of):
        hits, counts = {}, {}
        for seg in samples:
            if seg.gt is not None:
                for k, hit in zip(seg.gt["query"].tolist(), hits_of(seg).tolist()):
                    label = vocab[seg.query_labels[k]]
                    counts[label] = counts.get(label, 0) + 1
                    hits[label] = hits.get(label, 0) + hit
        per_class = {label: {"acc": hits.get(label, 0) / n, "n": n}
                     for label, n in counts.items()}
        macro = (sum(v["acc"] for v in per_class.values()) / len(per_class)
                 if per_class else 0.0)
        return per_class, macro

    def predicted(seg):
        boxes = [predictions.get((seg.segment_id, q, f))
                 for q, f in zip(seg.gt["query"].tolist(), seg.gt["frame"].tolist())]
        missing = [j for j, box in enumerate(boxes) if box is None]
        hit = iou(np.reshape([seg.gt["box"][j] if box is None else box
                              for j, box in enumerate(boxes)], (-1, 4)),
                  seg.gt["box"]) > 0.5
        hit[missing] = False
        return hit

    def best(seg):
        return (iou(seg.frames["box"][seg.gt["frame"]], seg.gt["box"][:, None])
                > 0.5).any(axis=-1)

    per_class, macro = tally(predicted)
    return per_class, macro, tally(best)[1]


@pytest.mark.filterwarnings("ignore:no prediction")
@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_split_tally_matches_per_segment_reference(seed):
    rng = np.random.default_rng(seed)
    pool = PREDICT_POOL + PREDICT_SPLITS["train"][:2]       # train segments: no gt
    samples = [pool[i] for i in rng.permutation(len(pool))[:rng.integers(1, len(pool))]]
    vocab = [f"v{i}" for i in rng.permutation(TINY.V)]
    predictions = {}
    for seg in samples:
        for g in seg.gt if seg.gt is not None else []:
            draw = rng.random()
            if draw < 0.2:
                continue                                     # missing: a miss
            box = g.box if draw < 0.5 else seg.frames[g.frame][rng.integers(TINY.N)].box
            predictions[(seg.segment_id, g.query, g.frame)] = box
    per_class, macro, bound = _reference_report(samples, predictions, vocab)
    report = box_accuracy(samples, predictions, vocab)
    assert list(report.per_class.items()) == list(per_class.items())
    assert report.macro_accuracy == macro
    assert upper_bound(samples, vocab) == bound


def _dict_report(model, samples, vocab):
    """The report tallied the dict way: model.predict's picks, config.batch
    segments per call, turned into a {(segment_id, query, frame): box} dict
    for box_accuracy, plus upper_bound."""
    predictions = {}
    step = model.config.batch
    for start in range(0, len(samples), step):
        chunk = samples[start:start + step]
        for seg, picks in zip(chunk, model.predict(chunk)):
            for k, f in zip(*np.nonzero(picks >= 0)):
                predictions[(seg.segment_id, int(k), int(f))] = \
                    seg.frames["box"][f, picks[k, f]]
    report = box_accuracy(samples, predictions, vocab)
    return report, upper_bound(samples, vocab)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_evaluate_model_matches_the_dict_tally(seed):
    # splits of 1..11 segments (TINY.batch is 3) mixing segments with gt,
    # without gt and with an empty gt array
    rng = np.random.default_rng(seed)
    model = GroundingModel(TINY, np.random.default_rng(int(rng.integers(1 << 16))))
    samples = []
    for i in range(rng.integers(1, 12)):
        seg = PREDICT_POOL[rng.integers(len(PREDICT_POOL))]
        gt = [seg.gt, None, seg.gt[:0]][rng.choice(3, p=[0.6, 0.2, 0.2])]
        samples.append(SegmentSample(f"s{i}", "test", seg.query_labels, seg.frames, gt))
    vocab = [f"v{i}" for i in rng.permutation(TINY.V)]
    want, bound = _dict_report(model, samples, vocab)
    report = evaluate_model(model, samples, vocab=vocab)
    assert list(report.per_class.items()) == list(want.per_class.items())
    assert report.macro_accuracy == want.macro_accuracy
    assert report.upper_bound == bound


@pytest.mark.parametrize("gts", [[], [None] * 4, ["empty"] * 4, [None, "empty"] * 2],
                         ids=["no-segments", "no-gt", "empty-gt", "mixed"])
def test_evaluate_model_without_gt_records_matches_the_dict_tally(gts):
    model = GroundingModel(TINY, np.random.default_rng(0))
    seg = PREDICT_POOL[0]
    samples = [SegmentSample(f"s{i}", "test", seg.query_labels, seg.frames,
                             None if gt is None else seg.gt[:0]) for i, gt in enumerate(gts)]
    vocab = [f"v{i}" for i in range(TINY.V)]
    want, bound = _dict_report(model, samples, vocab)
    report = evaluate_model(model, samples, vocab=vocab)
    assert (report.per_class, report.macro_accuracy, report.upper_bound) == \
        (want.per_class, want.macro_accuracy, bound)


def test_evaluate_model_does_not_predict_without_gt(monkeypatch):
    model = GroundingModel(TINY, np.random.default_rng(0))
    seg = PREDICT_POOL[0]
    monkeypatch.setattr(model, "predict", None)   # a call would raise
    no_gt = [SegmentSample(f"s{i}", "train", seg.query_labels, seg.frames)
             for i in range(4)]
    for samples in ([], no_gt):
        report = evaluate_model(model, samples)
        assert (report.per_class, report.macro_accuracy, report.upper_bound) == \
            ({}, 0.0, 0.0)


def test_evaluate_model_of_no_segments_is_empty():
    model = GroundingModel(TINY, np.random.default_rng(0))
    report = evaluate_model(model, [])
    assert (report.per_class, report.macro_accuracy, report.upper_bound) == ({}, 0.0, 0.0)


def test_report_save_load_round_trip(tmp_path):
    rep = EvalReport(per_class={"a": {"acc": 0.5, "n": 2}},
                     macro_accuracy=0.5, upper_bound=1.0)
    rep.save(tmp_path / "report.json", mode="full", split="test")
    loaded, d = EvalReport.load(tmp_path / "report.json")
    assert d["mode"] == "full" and d["split"] == "test"
    assert loaded.per_class == rep.per_class
    assert loaded.macro_accuracy == rep.macro_accuracy
    assert loaded.upper_bound == rep.upper_bound


def test_report_save_that_fails_keeps_the_earlier_report(tmp_path):
    path = tmp_path / "report.json"
    EvalReport(per_class={"a": {"acc": 0.5, "n": 2}}, macro_accuracy=0.5).save(path)
    before = path.read_bytes()
    bad = EvalReport(per_class={"a": {"acc": 0.5, "n": 2}, "b": {"acc": object()}},
                     macro_accuracy=0.5)
    with pytest.raises(TypeError):                        # fails mid-dump
        bad.save(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_per_class_delta_ordering_and_ties():
    a = EvalReport(per_class={"x": {"acc": 0.9, "n": 1}, "y": {"acc": 0.2, "n": 1},
                              "z": {"acc": 0.6, "n": 1}})
    b = EvalReport(per_class={"x": {"acc": 0.5, "n": 1}, "y": {"acc": 0.2, "n": 1},
                              "z": {"acc": 0.2, "n": 1}})
    out = per_class_delta(a, b)
    assert [k for k, _ in out] == ["x", "z", "y"]  # 0.4, 0.4 tie -> a-order, then 0
    assert abs(out[0][1] - 0.4) < 1e-12


def test_per_class_delta_rejects_mismatched_classes():
    a = EvalReport(per_class={"x": {"acc": 1.0, "n": 1}})
    b = EvalReport(per_class={"y": {"acc": 1.0, "n": 1}})
    with pytest.raises(ValueError):
        per_class_delta(a, b)


@pytest.mark.parametrize("mode", list(LossMode))
def test_tape_is_freed_by_reference_counting(mode):
    _, splits = generate_synthetic(TINY)
    seg, nv, ns = splits["train"][:3]
    model = GroundingModel(TINY.replace(mode=mode.value), np.random.default_rng(1))
    tape = Tape()
    ref = weakref.ref(tape)
    gc.disable()
    try:
        with tape:
            loss = T.mean_all(model.segment_loss(
                [(seg, [nv], [ns.query_labels], [0, 1, 2])]))
            backward(loss)
        assert len(tape.nodes) >= 8
        del tape
        assert ref() is None
    finally:
        gc.enable()


def test_nesterov_step_rejects_non_finite_gradient():
    theta = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    other = Tensor(np.array([3.0]), requires_grad=True)
    opt = NesterovSGD({"other": other, "theta": theta}, lr=0.1, momentum=0.9)
    other.grad = np.array([1.0])
    theta.grad = np.array([1.0, np.inf])
    with pytest.raises(FloatingPointError, match="non-finite gradient in theta"):
        opt.step()
    assert other.data[0] == 3.0  # no parameter moved


def test_train_validates_its_config():
    _, splits = generate_synthetic(TINY)
    with pytest.raises(ConfigError, match="lr"):
        train(TINY.replace(lr=math.nan), splits)


def test_train_names_a_segment_without_negatives():
    _, splits = generate_synthetic(TINY)
    pool = splits["train"]
    loner = dataclasses.replace(pool[2], segment_id="loner",
                                query_labels=sorted({lab for s in pool
                                                     for lab in s.query_labels}))
    splits = dict(splits, train=pool[:2] + [loner] + pool[3:])
    with pytest.raises(SamplingError, match="'loner'"):
        train(TINY, splits)


@pytest.mark.parametrize("splits", [{}, {"train": []}], ids=["missing", "empty"])
def test_train_refuses_a_missing_or_empty_train_split(splits):
    with pytest.raises(DataError, match="the train split holds no segment"):
        train(TINY, splits)


def test_train_warns_once_per_run_about_short_segments(caplog):
    # 4-frame segments drawn at T=5 over two epochs: one warning, not one per
    # draw, and one INFO line per epoch
    _, splits = generate_synthetic(TINY)
    with caplog.at_level("INFO", logger="groundbox"):
        train(TINY.replace(T=5), splits)
    records = [(r.name, r.levelname) for r in caplog.records]
    assert records == [("groundbox.train", "WARNING")] + \
        [("groundbox.train", "INFO")] * TINY.epochs
    assert caplog.records[0].getMessage() == (
        "6 train segments have fewer than T=5 frames (the shortest 4); "
        "their last frame pads each draw")
    assert caplog.records[1].getMessage().startswith("epoch 0: train_loss=")


# --------------------------------------------------------------------------
# one graph per minibatch

PARITY = TINY.replace(min_objects=3, max_objects=3, V=16, train_segments=8)
_, PARITY_SPLITS = generate_synthetic(PARITY)


def _loss_and_grads(model, batch, noise=None):
    """(per-segment losses, {name: gradient of their mean}) of one batch."""
    params = model.params()
    for t in params.values():
        t.grad = None
    with Tape():
        losses = model.segment_loss(batch, noise)
        backward(T.mean_all(losses))
    return losses.data.copy(), {n: np.zeros_like(t.data) if t.grad is None else t.grad
                                for n, t in params.items()}


# the small-full benchmark shape (criterion 3's), with small splits
SMALL_FULL = GroundingConfig(d=32, D_in=16, V=20, N=10, T=5, T_prime=5, sigma=0.1,
                             lr=2.0, train_segments=40, val_segments=4,
                             test_segments=4, seed=3)


@pytest.mark.parametrize("negatives", [1, 2])
@pytest.mark.parametrize("mode, nodes", [("dvsa", 8), ("loss-weight", 16),
                                         ("obj-interact", 38), ("full", 41)])
def test_tape_nodes_per_planned_batch(mode, nodes, negatives):
    # every pairing of the margin loss sits in one similarity block and one
    # hinge node; the counts depend on neither the number of negatives nor
    # the batch's size or content
    config = SMALL_FULL.replace(mode=mode, negatives=negatives)
    rng = np.random.default_rng(config.seed)
    _, splits = generate_synthetic(config)
    pool = splits["train"]
    members = label_members(pool)
    model = GroundingModel(config, rng)
    batch, noise = [], []
    for seg in pool[:config.batch]:
        rows = disjoint_rows(pool, members, seg)
        draw = [sample_negative_sentence(pool, seg, rng, rows) for _ in range(2 * negatives)]
        batch.append((seg, draw[:negatives], [s.query_labels for s in draw[negatives:]],
                      sample_frames(seg.n_frames, config.T, rng)))
        noise.append(model.draw_dropout(seg, negatives, config.T, rng))
    with Tape() as tape:
        backward(T.mean_all(model.segment_loss(batch, noise)))
    assert len(tape.nodes) == nodes


def test_segment_loss_needs_both_negative_kinds():
    seg, nv, ns = PARITY_SPLITS["train"][:3]
    model = GroundingModel(PARITY, np.random.default_rng(0))
    for vis, sent in (([], [ns.query_labels]), ([nv], [])):
        with pytest.raises(ShapeError, match="each kind"):
            model.segment_loss([(seg, vis, sent, [0, 1, 2])])


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(list(LossMode)), st.integers(1, 2), st.sampled_from([0.0, 0.3]),
       st.data())
def test_batched_losses_and_gradients_match_batches_of_one(mode, K, p_drop, data):
    # with dropout on, every item keeps the draws it was planned with
    pool = PARITY_SPLITS["train"]
    model = GroundingModel(PARITY.replace(mode=mode.value, negatives=K,
                                          dropout=p_drop), np.random.default_rng(3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    index = st.integers(0, len(pool) - 1)
    batch = []
    for _ in range(data.draw(st.integers(1, 5))):
        seg = pool[data.draw(index)]
        O = data.draw(st.integers(1, PARITY.max_objects))  # the default 1..3
        labels = st.lists(st.integers(0, PARITY.V - 1), min_size=1,
                          max_size=PARITY.max_objects)
        batch.append((dataclasses.replace(seg, query_labels=seg.query_labels[:O]),
                      [pool[data.draw(index)] for _ in range(K)],
                      [data.draw(labels) for _ in range(K)],
                      sorted(data.draw(st.lists(st.integers(0, 3), min_size=PARITY.T,
                                                max_size=PARITY.T)))))
    noise = [model.draw_dropout(seg, K, PARITY.T, rng) for seg, *_ in batch]
    losses, grads = _loss_and_grads(model, batch, noise)
    alone = [_loss_and_grads(model, [item], [u]) for item, u in zip(batch, noise)]
    assert losses.shape == (len(batch),)
    assert np.max(np.abs(losses - [l[0] for l, _ in alone])) <= 1e-12
    for name, g in grads.items():
        mean = sum(gs[name] for _, gs in alone) / len(batch)
        assert np.allclose(g, mean, rtol=1e-9, atol=1e-12), name


@pytest.mark.parametrize("mode", list(LossMode))
def test_padded_query_labels_change_no_loss_and_no_gradient(mode, monkeypatch):
    # segment 0 has one query and two sentence-negative labels, segment 1
    # three queries and one label, so the positive and the sentence-negative
    # label blocks are padded in different columns
    pool = PARITY_SPLITS["train"]
    short = dataclasses.replace(pool[0], query_labels=pool[0].query_labels[:1])
    batch = [(short, [pool[2]], [[9, 8]], [0, 1, 2]),
             (pool[1], [pool[3]], [[10]], [1, 2, 3])]
    model = GroundingModel(PARITY.replace(mode=mode.value), np.random.default_rng(4))
    encode = model.query_enc.encode
    results = []
    for pad in (0, 5, 15):
        def padded(idx, pad=pad):
            idx = np.array(idx)                   # (1+K', B, O)
            idx[0, 0, 1:] = idx[1, 0, 2:] = idx[1, 1, 1:] = pad
            return encode(idx)

        monkeypatch.setattr(model.query_enc, "encode", padded)
        results.append(_loss_and_grads(model, batch))
    (loss0, grads0), *rest = results
    for loss, grads in rest:
        assert np.array_equal(loss, loss0)
        assert all(np.array_equal(grads[n], grads0[n]) for n in grads0)
