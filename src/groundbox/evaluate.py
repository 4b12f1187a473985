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

from .data import DataError, checked_list, read_object, replacing

IOU_THRESHOLD = 0.5


@dataclass
class EvalReport:
    per_class: dict = field(default_factory=dict)  # label -> {"acc","n"}
    macro_accuracy: float = 0.0
    upper_bound: float = None

    def save(self, path, mode=None, split=None):
        """Write the report as JSON through data.replacing."""
        report = {"mode": mode, "split": split,
                  "macro_accuracy": self.macro_accuracy,
                  "upper_bound": self.upper_bound,
                  "per_class": self.per_class}
        with replacing(path) as (tmp,):
            tmp.write_text(json.dumps(report, indent=1), encoding="utf-8")

    @classmethod
    def load(cls, path):
        """(report, its JSON object); DataError naming path, and the class
        where there is one, unless the file is a JSON object whose
        macro_accuracy and per_class accs are JSON numbers."""
        d = read_object(path)
        missing = [key for key in ("per_class", "macro_accuracy") if key not in d]
        if missing:
            raise DataError(f"{path}: report lacks {missing}")
        if not isinstance(d["per_class"], dict):
            raise DataError(f"{path}: per_class is not an object")
        checked_list(f"{path}: macro_accuracy", [d["macro_accuracy"]], "number")
        for label, entry in d["per_class"].items():
            if not isinstance(entry, dict) or "acc" not in entry:
                raise DataError(f"{path}: per_class entry {label!r} has no \"acc\"")
            checked_list(f"{path}: per_class entry {label!r}: acc", [entry["acc"]],
                         "number")
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


def _gt_columns(samples):
    """(segments that carry gt, the vocab id of each gt record's query, the
    (R, 4) gt boxes), records concatenated in sample order; None when no
    segment carries gt."""
    scored = [seg for seg in samples if seg.gt is not None]
    if not scored:
        return None
    label_ids = np.concatenate([np.asarray(seg.query_labels, dtype=np.intp)[seg.gt["query"]]
                                for seg in scored])
    return scored, label_ids, np.concatenate([seg.gt["box"] for seg in scored])


def _report(hit, label_ids, vocab):
    """Per-class hits/instances of the gt records, classes in the order they
    first appear; the macro average is the plain mean over those classes."""
    ids, first, inverse = np.unique(label_ids, return_index=True, return_inverse=True)
    counts = np.bincount(inverse, minlength=len(ids)).tolist()
    hits = np.bincount(inverse, weights=hit, minlength=len(ids)).tolist()
    ids = ids.tolist()
    per_class = {vocab[ids[c]]: {"acc": hits[c] / counts[c], "n": counts[c]}
                 for c in np.argsort(first, kind="stable").tolist()}
    macro = (sum(v["acc"] for v in per_class.values()) / len(per_class)
             if per_class else 0.0)
    return EvalReport(per_class=per_class, macro_accuracy=macro)


def _hits(boxes, gt_box):
    return iou(boxes, gt_box) > IOU_THRESHOLD


def _candidates(scored):
    """(R, N, 4): the proposal boxes at the frame of every gt record."""
    return np.concatenate([seg.frames["box"][seg.gt["frame"]] for seg in scored])


def _bound(candidates, gt_box, label_ids, vocab):
    """Macro accuracy if the best candidate of every gt record were chosen."""
    hit = _hits(candidates, gt_box[:, None]).any(axis=-1)
    return _report(hit, label_ids, vocab).macro_accuracy


def box_accuracy(samples, predictions, vocab):
    """predictions: {(segment_id, query_idx, frame_idx): box (x1, y1, x2, y2)}.

    Every gt record of the split is tested in one IoU expression; a record
    without a prediction warns and counts as a miss.
    """
    columns = _gt_columns(samples)
    if columns is None:
        return EvalReport()
    scored, label_ids, gt_box = columns
    keys = [(seg.segment_id, q, f) for seg in scored
            for q, f in zip(seg.gt["query"].tolist(), seg.gt["frame"].tolist())]
    boxes = [predictions.get(key) for key in keys]
    missing = [j for j, box in enumerate(boxes) if box is None]
    for j in missing:
        sid, q, f = keys[j]
        warnings.warn(f"no prediction for {sid} query {q} frame {f}; counted as miss")
        boxes[j] = gt_box[j]
    hit = _hits(np.reshape(boxes, (-1, 4)), gt_box)
    hit[missing] = False
    return _report(hit, label_ids, vocab)


def upper_bound(samples, vocab):
    """Accuracy if the best of the N proposals were always chosen."""
    columns = _gt_columns(samples)
    if columns is None:
        return 0.0
    scored, label_ids, gt_box = columns
    return _bound(_candidates(scored), gt_box, label_ids, vocab)


def evaluate_model(model, samples, vocab=None):
    """Ground every gt (query, frame) with the model and report box accuracy
    and the proposal upper bound, the split tallied in two IoU calls.

    The model predicts config.batch segments per pass, so no eval block is
    larger than a training minibatch.
    """
    if vocab is None:  # synthetic in-memory runs know only the vocab ids
        vocab = [f"label{i:03d}" for i in range(model.config.V)]
    columns = _gt_columns(samples)
    if columns is None:
        return EvalReport(upper_bound=0.0)
    scored, label_ids, gt_box = columns
    picks = []                  # the chosen proposal of every gt record
    step = model.config.batch
    for start in range(0, len(samples), step):
        chunk = samples[start:start + step]
        picks += [p[seg.gt["query"], seg.gt["frame"]]
                  for seg, p in zip(chunk, model.predict(chunk)) if seg.gt is not None]
    candidates = _candidates(scored)
    chosen = candidates[np.arange(len(candidates)), np.concatenate(picks)]
    report = _report(_hits(chosen, gt_box), label_ids, vocab)
    report.upper_bound = _bound(candidates, gt_box, label_ids, vocab)
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
