"""Box accuracy, the proposal upper bound, and report comparison.

A prediction counts as a hit only if its IoU (data.iou) with the ground-truth
box is strictly over IOU_THRESHOLD, 0.5. Per-class accuracy is hits/instances
over (query, frame) ground-truth records; the macro average is the unweighted
mean over classes with at least one instance.
"""

import json
import warnings
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

from .data import (GT_DTYPE, IOU_THRESHOLD, DataError, checked_list, iou, read_object,
                   replacing)


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


class _GtIndex(NamedTuple):
    """Every gt record of a list of samples as columns, in sample order."""
    seg: np.ndarray      # (R,) position in samples of the record's segment
    query: np.ndarray    # (R,) its query, an index into query_labels
    frame: np.ndarray    # (R,) its frame
    box: np.ndarray      # (R, 4) its gt box
    label: np.ndarray    # (R,) the vocab id of its query
    starts: np.ndarray   # (len(samples) + 1,) the first record of each segment


_NO_GT = np.empty(0, dtype=GT_DTYPE)


def _gt_index(samples):
    """The _GtIndex of samples, each field concatenated once; None when no
    segment carries gt."""
    if all(sample.gt is None for sample in samples):
        return None
    gts = [_NO_GT if sample.gt is None else sample.gt for sample in samples]
    counts = [len(gt) for gt in gts]
    seg = np.repeat(np.arange(len(samples)), counts)
    query = np.concatenate([gt["query"] for gt in gts])
    labels = [sample.query_labels for sample in samples]
    first_label = np.cumsum([0] + [len(ids) for ids in labels[:-1]])
    label = np.fromiter(chain.from_iterable(labels), dtype=np.intp)[first_label[seg] + query]
    return _GtIndex(seg, query, np.concatenate([gt["frame"] for gt in gts]),
                    np.concatenate([gt["box"] for gt in gts]), label,
                    np.cumsum([0] + counts))


def _ious(samples, gt):
    """(R, N): the IoU of every proposal at a gt record's frame with its box."""
    first_frame = np.cumsum([0] + [seg.n_frames for seg in samples[:-1]])
    boxes = np.concatenate([seg.frames["box"] for seg in samples])   # (sum F, N, 4)
    return iou(boxes[first_frame[gt.seg] + gt.frame], gt.box[:, None])


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


def _bound(ious, label_ids, vocab):
    """Macro accuracy if the best candidate of every gt record were chosen."""
    return _report((ious > IOU_THRESHOLD).any(axis=-1), label_ids, vocab).macro_accuracy


def box_accuracy(samples, predictions, vocab):
    """predictions: {(segment_id, query_idx, frame_idx): box (x1, y1, x2, y2)}.

    Every gt record of the split is tested in one IoU expression; a record
    without a prediction warns and counts as a miss.
    """
    gt = _gt_index(samples)
    if gt is None:
        return EvalReport()
    keys = list(zip([samples[b].segment_id for b in gt.seg.tolist()],
                    gt.query.tolist(), gt.frame.tolist()))
    boxes = [predictions.get(key) for key in keys]
    missing = [j for j, box in enumerate(boxes) if box is None]
    for j in missing:
        sid, q, f = keys[j]
        warnings.warn(f"no prediction for {sid} query {q} frame {f}; counted as miss")
        boxes[j] = gt.box[j]
    hit = iou(np.reshape(boxes, (-1, 4)), gt.box) > IOU_THRESHOLD
    hit[missing] = False
    return _report(hit, gt.label, vocab)


def upper_bound(samples, vocab):
    """Accuracy if the best of the N proposals were always chosen."""
    gt = _gt_index(samples)
    return 0.0 if gt is None else _bound(_ious(samples, gt), gt.label, vocab)


def evaluate_model(model, samples, vocab=None):
    """Ground every gt (query, frame) with the model and report box accuracy
    and the proposal upper bound, both read from one IoU matrix of the split.

    The model predicts config.batch segments per pass at its default frames
    (model.scored_frames), so no eval block is larger than a training
    minibatch.
    """
    if vocab is None:  # synthetic in-memory runs know only the vocab ids
        vocab = [f"label{i:03d}" for i in range(model.config.V)]
    gt = _gt_index(samples)
    if gt is None:
        return EvalReport(upper_bound=0.0)
    pick = np.empty(len(gt.seg), dtype=np.intp)   # the chosen proposal of each record
    step = model.config.batch
    for start in range(0, len(samples), step):
        stop = min(start + step, len(samples))
        block = model.predict(samples[start:stop])
        rows = slice(gt.starts[start], gt.starts[stop])
        pick[rows] = block[gt.seg[rows] - start, gt.query[rows], gt.frame[rows]]
    ious = _ious(samples, gt)
    report = _report(ious[np.arange(len(pick)), pick] > IOU_THRESHOLD, gt.label, vocab)
    report.upper_bound = _bound(ious, gt.label, vocab)
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
