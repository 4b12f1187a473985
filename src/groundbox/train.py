"""SGD with Nesterov momentum, the training loop, and checkpoint I/O."""

import csv
import json
import logging
from pathlib import Path

import numpy as np

from . import tensor as T
from .data import (DataError, IntegrityError, SamplingError, checked_counts,
                   disjoint_rows, label_members, sample_frames,
                   sample_negative_sentence)
from .evaluate import evaluate_model
from .model import GroundingModel, load_into_model
from .tensor import ShapeError, Tape, backward

log = logging.getLogger(__name__)


class NesterovSGD:
    """Lookahead Nesterov: gradients are taken at theta + mu*v, then
    v <- mu*v - lr*g and theta <- theta + v.

    Updates are written in place: theta is kept in one buffer per parameter
    while the parameter holds the lookahead point, and the parameter's own
    array is the scratch space of step, so no step allocates.
    """

    def __init__(self, params, lr, momentum):
        self.params = params
        self.lr = lr
        self.momentum = momentum
        self.velocity = {name: np.zeros_like(t.data) for name, t in params.items()}
        self._theta = {name: np.empty_like(t.data) for name, t in params.items()}
        self._ahead = False

    def zero_grad(self):
        for t in self.params.values():
            t.grad = None

    def lookahead(self):
        """Shift parameters to theta + mu*v before computing gradients."""
        for name, t in self.params.items():
            np.copyto(self._theta[name], t.data)
            if self.momentum != 0.0:
                np.multiply(self.momentum, self.velocity[name], out=t.data)
                np.add(self._theta[name], t.data, out=t.data)
        self._ahead = True

    def step(self):
        """Apply the update using gradients accumulated at the lookahead point.

        Every gradient is checked before any parameter moves: a missing one
        raises ShapeError, a non-finite one FloatingPointError naming it.
        """
        for name, t in self.params.items():
            if t.grad is None:
                raise ShapeError(f"parameter {name} has no gradient; "
                                 "run backward before step")
            if not np.isfinite(t.grad).all():
                raise FloatingPointError(f"non-finite gradient in {name}")
        for name, t in self.params.items():
            theta, v = self._theta[name], self.velocity[name]
            if not self._ahead:  # grads were taken at theta itself
                np.copyto(theta, t.data)
            np.multiply(self.momentum, v, out=v)
            np.multiply(self.lr, t.grad, out=t.data)   # the lookahead point is spent
            np.subtract(v, t.data, out=v)
            np.add(theta, v, out=t.data)
        self._ahead = False


def _check_nan(loss):
    if np.isnan(loss.data).any() or np.isinf(loss.data).any():
        tape = loss.tape
        culprit = "loss"
        if tape is not None:
            for node in tape.nodes:
                if not np.isfinite(node.out.data).all():
                    culprit = node.name
                    break
        raise FloatingPointError(f"non-finite loss; first offending op: {culprit}")


def train(config, splits, out_dir=None, log_every=0):
    """Train a model in the configured mode; returns (model, history).

    history rows: (epoch, train_loss, val_accuracy). The checkpoint with the
    best validation macro accuracy wins; it is restored into the returned
    model and written to out_dir if given. Raises SamplingError before the
    first epoch when a train segment has no label-disjoint negative, and
    ConfigError naming the field when the config does not validate.
    """
    config.validate()
    rng = np.random.default_rng(config.seed)
    model = GroundingModel(config, rng)
    params = model.trainable_params()
    opt = NesterovSGD(params, config.lr, config.momentum)
    train_set = splits["train"]
    val_set = splits.get("val", [])
    members = label_members(train_set)
    for seg in train_set:
        if len(disjoint_rows(train_set, members, seg)) == 0:
            raise SamplingError(
                f"train segment {seg.segment_id!r} has no negative: every other "
                f"segment shares a label with {sorted(set(seg.query_labels))}")

    history = []
    best_acc = -1.0
    best_params = None
    for epoch in range(config.epochs):
        order = rng.permutation(len(train_set))
        losses = []
        for start in range(0, len(order), config.batch):
            batch, noise = [], []
            for i in order[start:start + config.batch]:
                seg = train_set[i]
                # both negative kinds come from label-disjoint pool segments:
                # a visual negative that contains the query object would
                # penalize the very match being learned
                neg_viss = [sample_negative_sentence(train_set, seg, rng, members)
                            for _ in range(config.negatives)]
                neg_sents = [sample_negative_sentence(train_set, seg, rng,
                                                      members).query_labels
                             for _ in range(config.negatives)]
                frames = sample_frames(seg.n_frames, config.T, "train", rng)
                batch.append((seg, neg_viss, neg_sents, frames))
                noise.append(model.draw_dropout(seg, len(neg_viss), len(frames), rng))
            opt.zero_grad()
            opt.lookahead()
            with Tape():
                seg_losses = model.segment_loss(batch, noise)
                loss = T.mean_all(seg_losses)
                _check_nan(loss)
                backward(loss)
            losses.extend(seg_losses.data.tolist())
            opt.step()
        train_loss = float(np.mean(losses)) if losses else 0.0

        val_acc = float("nan")
        if val_set:
            report = evaluate_model(model, val_set)
            val_acc = report.macro_accuracy
            if val_acc > best_acc:
                best_acc = val_acc
                best_params = {n: t.data.copy()
                               for n, t in model.params().items()}
        history.append((epoch, train_loss, val_acc))
        if log_every and epoch % log_every == 0:
            log.info("epoch %d: train_loss=%.4f val_acc=%.4f",
                     epoch, train_loss, val_acc)

    if best_params is not None:
        load_into_model(model, best_params)

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        checkpoint_save(out_dir / "checkpoint", model.params(), config)
        with open(out_dir / "trainlog.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "train_loss", "val_accuracy"])
            writer.writerows(history)
    return model, history


# --------------------------------------------------------------------------
# checkpoints: flat float64 binary + JSON manifest of named shapes

def checkpoint_save(path_prefix, params, config=None):
    path_prefix = Path(path_prefix)
    manifest = {"params": {name: list(t.data.shape) for name, t in params.items()}}
    if config is not None:
        manifest["config"] = config.to_dict()
    blob = b"".join(params[name].data.astype("<f8").tobytes()
                    for name in manifest["params"])
    path_prefix.with_suffix(".bin").write_bytes(blob)
    path_prefix.with_suffix(".json").write_text(json.dumps(manifest, indent=1),
                                                encoding="utf-8")


def checkpoint_load(path_prefix):
    """Returns ({name: float64 array}, config dict or None)."""
    path_prefix = Path(path_prefix)
    json_path, bin_path = path_prefix.with_suffix(".json"), path_prefix.with_suffix(".bin")
    try:
        manifest = json.loads(json_path.read_text(encoding="utf-8"))
        shapes = {name: tuple(checked_counts(f"params.{name}", s))
                  for name, s in manifest["params"].items()}
    except (json.JSONDecodeError, DataError, KeyError, TypeError) as exc:
        raise IntegrityError(f"{json_path}: corrupt checkpoint manifest: {exc}") from exc
    raw = bin_path.read_bytes()
    expected = sum(int(np.prod(s)) for s in shapes.values()) * 8
    if len(raw) != expected:
        raise IntegrityError(
            f"{bin_path} holds {len(raw)} bytes, {json_path.name} expects {expected}")
    flat = np.frombuffer(raw, dtype="<f8")
    out = {}
    offset = 0
    for name, shape in shapes.items():
        n = int(np.prod(shape))
        out[name] = flat[offset:offset + n].reshape(shape).copy()
        offset += n
    return out, manifest.get("config")
