import dataclasses
import json

import numpy as np
import pytest

from groundbox import tensor as T
from groundbox.cli import GRADCHECK_DEFAULTS, GRADCHECK_TOLERANCE, gradcheck_all_modes
from groundbox.config import GroundingConfig, LossMode
from groundbox.data import (BoundingBox, DataError, IntegrityError,
                            generate_synthetic)
from groundbox.encoders import ProposalEncoder
from groundbox.evaluate import (EvalReport, box_accuracy, evaluate_model, iou,
                                per_class_delta, upper_bound)
from groundbox.model import GroundingModel, load_into_model
from groundbox.tensor import ShapeError, Tape, Tensor, backward
from groundbox.train import (NesterovSGD, _check_nan, checkpoint_load,
                             checkpoint_save, train)

TINY = GroundingConfig(d=8, D_in=6, V=12, N=4, T=3, T_prime=2,
                       attn_layers=1, attn_heads=2, attn_hidden=8,
                       pe_max_len=8, dropout=0.0, frames_per_segment=4,
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
            backward(T.sum_all(T.mul(theta, theta)))
        opt.step()
    assert np.max(np.abs(theta.data)) < 1e-3


def test_nesterov_lr_zero_is_noop():
    theta = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    opt = NesterovSGD({"theta": theta}, lr=0.0, momentum=0.9)
    for _ in range(5):
        opt.zero_grad()
        opt.lookahead()
        with Tape():
            backward(T.sum_all(T.mul(theta, theta)))
        opt.step()
    assert np.array_equal(theta.data, [1.0, 2.0])


def test_nesterov_first_step_matches_hand_update():
    # v0=0: lookahead leaves theta; v1 = -lr*g(theta); theta1 = theta + v1
    theta = Tensor(np.array([3.0]), requires_grad=True)
    opt = NesterovSGD({"theta": theta}, lr=0.1, momentum=0.9)
    opt.lookahead()
    with Tape():
        backward(T.sum_all(T.mul(theta, theta)))  # g = 2*theta = 6
    opt.step()
    assert np.allclose(theta.data, [3.0 - 0.1 * 6.0])


def test_nesterov_second_step_uses_lookahead_gradient():
    theta = Tensor(np.array([3.0]), requires_grad=True)
    opt = NesterovSGD({"theta": theta}, lr=0.1, momentum=0.9)
    for _ in range(2):
        opt.zero_grad()
        opt.lookahead()
        with Tape():
            backward(T.sum_all(T.mul(theta, theta)))
        opt.step()
    # hand roll: v1=-0.6, th1=2.4; lookahead 2.4-0.54=1.86, g=3.72,
    # v2=0.9*(-0.6)-0.372=-0.912, th2=2.4-0.912=1.488
    assert np.allclose(theta.data, [1.488])


def test_nesterov_step_without_grad_raises():
    theta = Tensor(np.array([1.0]), requires_grad=True)
    opt = NesterovSGD({"theta": theta}, lr=0.1, momentum=0.9)
    with pytest.raises(ShapeError, match="theta"):
        opt.step()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
def test_check_nan_names_first_offending_op():
    x = Tensor(np.array([1e200]), requires_grad=True)
    with Tape():
        loss = T.sum_all(T.mul(T.mul(x, x), T.mul(x, x)))  # overflows to inf
        bad = T.mul(loss, loss)
    with pytest.raises(FloatingPointError, match="mul"):
        _check_nan(bad)


# --------------------------------------------------------------------------
# model plumbing

def test_model_predict_covers_all_gt_frames():
    vocab, splits = generate_synthetic(TINY)
    model = GroundingModel(TINY, np.random.default_rng(0))
    seg = splits["val"][0]
    preds = model.predict(seg)
    want = {(g.query, g.frame) for g in seg.gt}
    assert want <= set(preds)
    for prop in preds.values():
        assert any(prop.box == p.box for fr in seg.frames for p in fr)


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
            loss = model.segment_loss(seg, [nv], [ns.query_labels],
                                      training=True, rng=rng)
            backward(loss)
        assert np.isfinite(loss.item())


def test_model_rejects_ragged_frames():
    # frames of 4 and 5 proposals used to drop a proposal silently and
    # mis-assign rows; frames of 5 and 3 raised a bare IndexError
    _, splits = generate_synthetic(TINY)
    seg = splits["val"][0]
    pool = seg.frames[0] + seg.frames[1]
    model = GroundingModel(TINY, np.random.default_rng(0))
    for first, second in ((4, 5), (5, 3)):
        ragged = dataclasses.replace(seg, frames=[pool[:first], pool[:second]],
                                     gt=[])
        want = (rf"segment {seg.segment_id} frame 1 has {second} proposals, "
                rf"but segment {seg.segment_id} frame 0 has {first}")
        with pytest.raises(DataError, match=want):
            model.predict(ragged)
        with pytest.raises(DataError, match=want):
            model.segment_loss(ragged, [seg], [[0]], training=False,
                               frame_indices=[0, 1])


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
            backward(model.segment_loss(seg, [nv1, nv2], [ns.query_labels],
                                        training=True,
                                        rng=np.random.default_rng(2)))
        # the positive and both visual negatives in one (3*T*N, D_in) block
        assert calls == [3 * TINY.T * TINY.N]


def test_gradcheck_all_modes_at_a_second_shape():
    # three blocks (positive + two visual negatives) of T=3 frames with N=6
    # proposals each, O=3 queries: most proposal rows carry no gradient
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


def test_train_deterministic_loss_log():
    _, splits = generate_synthetic(TINY)
    _, h1 = train(TINY, splits)
    _, splits2 = generate_synthetic(TINY)
    _, h2 = train(TINY, splits2)
    assert h1 == h2


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
    with pytest.raises(IntegrityError):
        checkpoint_load(tmp_path / "ck")


def test_checkpoint_truncated_blob(tmp_path):
    model = GroundingModel(TINY, np.random.default_rng(0))
    checkpoint_save(tmp_path / "ck", model.params())
    blob = (tmp_path / "ck.bin").read_bytes()
    (tmp_path / "ck.bin").write_bytes(blob[:-8])
    with pytest.raises(IntegrityError):
        checkpoint_load(tmp_path / "ck")


# --------------------------------------------------------------------------
# evaluation

def _one_gt_sample():
    vocab, splits = generate_synthetic(TINY)
    return vocab, splits["val"]


def test_iou_hand_values():
    a = BoundingBox(0, 0, 10, 10)
    assert abs(iou(a, BoundingBox(5, 0, 15, 10)) - 1 / 3) < 1e-12
    assert iou(a, a) == 1.0


def test_box_accuracy_perfect_predictions():
    vocab, samples = _one_gt_sample()
    perfect = {(s.segment_id, g.query, g.frame): g.box
               for s in samples for g in s.gt}
    rep = box_accuracy(samples, perfect, vocab)
    assert rep.macro_accuracy == 1.0
    assert all(v["acc"] == 1.0 for v in rep.per_class.values())


def test_iou_exactly_half_is_a_miss():
    gt = BoundingBox(0, 0, 10, 10)
    # shifted so inter=50, union=... pick a box with IoU exactly 0.5:
    # (0,0,10,5) vs gt: inter 50, union 100 -> 0.5
    pred = BoundingBox(0, 0, 10, 5)
    assert abs(iou(pred, gt) - 0.5) < 1e-12
    seg_gt = [type("G", (), {"query": 0, "frame": 0, "box": gt, "visible": True})()]
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


def test_evaluate_model_worker_invariance():
    vocab, samples = _one_gt_sample()
    model = GroundingModel(TINY, np.random.default_rng(3))
    r1 = evaluate_model(model, samples, workers=1, vocab=vocab)
    r4 = evaluate_model(model, samples, workers=4, vocab=vocab)
    assert r1.per_class == r4.per_class
    assert r1.macro_accuracy == r4.macro_accuracy
    assert r1.upper_bound == r4.upper_bound


def test_report_save_load_round_trip(tmp_path):
    rep = EvalReport(per_class={"a": {"acc": 0.5, "n": 2}},
                     macro_accuracy=0.5, upper_bound=1.0)
    rep.save(tmp_path / "report.json", mode="full", split="test")
    loaded, d = EvalReport.load(tmp_path / "report.json")
    assert d["mode"] == "full" and d["split"] == "test"
    assert loaded.per_class == rep.per_class
    assert loaded.macro_accuracy == rep.macro_accuracy
    assert loaded.upper_bound == rep.upper_bound


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
