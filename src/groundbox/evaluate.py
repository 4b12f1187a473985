"""IoU, box accuracy, the proposal upper bound, and report comparison.

A prediction counts as a hit only if its IoU with the ground-truth box is
strictly over 0.5. Per-class accuracy is hits/instances over (query, frame)
ground-truth records; the macro average is the unweighted mean over classes
with at least one instance.
"""

import json
import warnings
from dataclasses import dataclass, field

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
    """Intersection area over union area of two boxes."""
    ix = max(0.0, min(a.x2, b.x2) - max(a.x1, b.x1))
    iy = max(0.0, min(a.y2, b.y2) - max(a.y1, b.y1))
    inter = ix * iy
    return inter / (a.area() + b.area() - inter)


def _tally(samples, vocab, hit_fn, warn_missing=False):
    """Per-class (hits, instances) over every gt record of every sample."""
    hits = {}
    counts = {}
    for seg in samples:
        for g in seg.gt or ():
            label = vocab[seg.query_labels[g.query]]
            counts[label] = counts.get(label, 0) + 1
            hit = hit_fn(seg, g)
            if hit is None:
                if warn_missing:
                    warnings.warn(f"no prediction for {seg.segment_id} "
                                  f"query {g.query} frame {g.frame}; counted as miss")
                hit = False
            hits[label] = hits.get(label, 0) + bool(hit)
    return hits, counts


def _report_from_tally(hits, counts):
    per_class = {label: {"acc": hits.get(label, 0) / n, "n": n}
                 for label, n in counts.items() if n > 0}
    macro = (sum(v["acc"] for v in per_class.values()) / len(per_class)
             if per_class else 0.0)
    return EvalReport(per_class=per_class, macro_accuracy=macro)


def box_accuracy(samples, predictions, vocab):
    """predictions: {(segment_id, query_idx, frame_idx): BoundingBox}."""
    def hit_fn(seg, g):
        box = predictions.get((seg.segment_id, g.query, g.frame))
        if box is None:
            return None
        return iou(box, g.box) > IOU_THRESHOLD

    return _report_from_tally(*_tally(samples, vocab, hit_fn, warn_missing=True))


def upper_bound(samples, vocab):
    """Accuracy if the best of the N proposals were always chosen."""
    def hit_fn(seg, g):
        return any(iou(p.box, g.box) > IOU_THRESHOLD
                   for p in seg.frames[g.frame])

    return _report_from_tally(*_tally(samples, vocab, hit_fn)).macro_accuracy


def evaluate_model(model, samples, vocab=None):
    """Ground every gt (query, frame) with the model and report box accuracy."""
    if vocab is None:
        vocab = _IndexVocab(model.config.V)
    predictions = {(seg.segment_id, k, f): proposal.box
                   for seg in samples
                   for (k, f), proposal in model.predict(seg).items()}
    report = box_accuracy(samples, predictions, vocab)
    report.upper_bound = upper_bound(samples, vocab)
    return report


class _IndexVocab:
    """Label lookup when only vocab ids are known (synthetic in-memory runs)."""

    def __init__(self, V):
        self.V = V

    def __getitem__(self, i):
        return f"label{i:03d}"


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
