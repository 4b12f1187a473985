"""IoU, box accuracy, the proposal upper bound, and report comparison.

A prediction counts as a hit only if its IoU with the ground-truth box is
strictly over 0.5. Per-class accuracy is hits/instances over (query, frame)
ground-truth records; the macro average is the unweighted mean over classes
with at least one instance.
"""

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

IOU_THRESHOLD = 0.5


@dataclass
class EvalReport:
    per_class: dict = field(default_factory=dict)  # label -> {"acc","n"}
    macro_accuracy: float = 0.0
    upper_bound: float = None

    def to_dict(self, mode=None, split=None):
        return {"mode": mode, "split": split,
                "macro_accuracy": self.macro_accuracy,
                "upper_bound": self.upper_bound,
                "per_class": self.per_class}

    def save(self, path, mode=None, split=None):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(mode, split), fh, indent=1)

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            d = json.load(fh)
        return cls(per_class=d["per_class"], macro_accuracy=d["macro_accuracy"],
                   upper_bound=d.get("upper_bound")), d


def iou(a, b):
    """Intersection area over union area of boxes (x1, y1, x2, y2) along the
    last axis of a and b, which broadcast against each other."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    lo, hi = np.maximum(a[..., :2], b[..., :2]), np.minimum(a[..., 2:], b[..., 2:])
    inter = np.prod(np.maximum(0.0, hi - lo), axis=-1)
    area_a = np.prod(a[..., 2:] - a[..., :2], axis=-1)
    return inter / (area_a + np.prod(b[..., 2:] - b[..., :2], axis=-1) - inter)


def _tally(samples, vocab, hits_of):
    """Per-class (hits, instances) over every gt record of every sample;
    hits_of(seg) tests all of seg.gt at once."""
    hits = {}
    counts = {}
    for seg in samples:
        if seg.gt is not None:
            for k, hit in zip(seg.gt.query.tolist(), hits_of(seg).tolist()):
                label = vocab[seg.query_labels[k]]
                counts[label] = counts.get(label, 0) + 1
                hits[label] = hits.get(label, 0) + hit
    return hits, counts


def _report_from_tally(hits, counts):
    per_class = {label: {"acc": hits.get(label, 0) / n, "n": n}
                 for label, n in counts.items() if n > 0}
    macro = (sum(v["acc"] for v in per_class.values()) / len(per_class)
             if per_class else 0.0)
    return EvalReport(per_class=per_class, macro_accuracy=macro)


def box_accuracy(samples, predictions, vocab):
    """predictions: {(segment_id, query_idx, frame_idx): box (x1, y1, x2, y2)}."""
    def hits_of(seg):
        gt = seg.gt
        boxes = [predictions.get((seg.segment_id, q, f))
                 for q, f in zip(gt.query.tolist(), gt.frame.tolist())]
        missing = [j for j, box in enumerate(boxes) if box is None]
        for j in missing:
            warnings.warn(f"no prediction for {seg.segment_id} query "
                          f"{gt.query[j]} frame {gt.frame[j]}; counted as miss")
            boxes[j] = gt.box[j]
        hit = iou(np.reshape(boxes, (-1, 4)), gt.box) > IOU_THRESHOLD
        hit[missing] = False
        return hit

    return _report_from_tally(*_tally(samples, vocab, hits_of))


def upper_bound(samples, vocab):
    """Accuracy if the best of the N proposals were always chosen."""
    def hits_of(seg):
        proposals = seg.frames.box[seg.gt.frame]            # (G, N, 4)
        return (iou(proposals, seg.gt.box[:, None]) > IOU_THRESHOLD).any(axis=-1)

    return _report_from_tally(*_tally(samples, vocab, hits_of)).macro_accuracy


def evaluate_model(model, samples, vocab=None):
    """Ground every gt (query, frame) with the model and report box accuracy."""
    if vocab is None:  # synthetic in-memory runs know only the vocab ids
        vocab = [f"label{i:03d}" for i in range(model.config.V)]
    predictions = {}
    for seg in samples:
        boxes = seg.frames.box
        predictions.update(((seg.segment_id, k, f), boxes[f, i])
                           for (k, f), i in model.predict(seg).items())
    report = box_accuracy(samples, predictions, vocab)
    report.upper_bound = upper_bound(samples, vocab)
    return report


def per_class_delta(report_a, report_b):
    """Classes ranked by accuracy difference (a - b), descending.

    Both reports must cover the same classes; ties keep the order classes
    appear in report_a (vocabulary order).
    """
    if set(report_a.per_class) != set(report_b.per_class):
        raise ValueError("reports cover different class sets; "
                         "same-vocabulary runs required")
    order = {label: i for i, label in enumerate(report_a.per_class)}
    deltas = [(label, report_a.per_class[label]["acc"]
               - report_b.per_class[label]["acc"])
              for label in report_a.per_class]
    return sorted(deltas, key=lambda kv: (-kv[1], order[kv[0]]))
