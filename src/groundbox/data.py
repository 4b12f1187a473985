"""Dataset model, deterministic synthetic generation with planted ground
truth, frame / negative sampling, and on-disk formats.

On-disk layout (one directory):
  vocabulary.txt  - one label per line
  segments.jsonl  - one JSON object per segment
  features.bin    - little-endian float32, row-major
  features.json   - {"rows": int, "dim": int}
"""

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .tensor import ConfigError

log = logging.getLogger(__name__)

REFERRING_EXPRESSIONS = ("it", "them", "that", "they")


class DataError(ValueError):
    pass


class IntegrityError(RuntimeError):
    pass


class SamplingError(RuntimeError):
    pass


def proposal_dtype(D_in):
    """Record of one proposal: its box (x1, y1, x2, y2) and its feature row."""
    return np.dtype([("box", "<f8", (4,)), ("feature", "<f4", (D_in,))])


# one ground-truth record: query (index into query_labels) is visible at
# frame (raw frame id within the segment) inside box
GT_DTYPE = np.dtype([("query", "<i8"), ("frame", "<i8"), ("box", "<f8", (4,)),
                     ("visible", "?")])


@dataclass
class SegmentSample:
    segment_id: str
    split: str
    query_labels: list        # ordered vocab ids, as in the sentence
    frames: np.recarray       # (F, N) proposal_dtype records
    gt: np.recarray = None    # (G,) GT_DTYPE records; present iff split is val/test

    @property
    def n_frames(self):
        return len(self.frames)


@dataclass
class Vocabulary:
    labels: list = field(default_factory=list)

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise DataError("vocabulary labels must be unique")

    @property
    def size(self):
        return len(self.labels)

    def __getitem__(self, i):
        return self.labels[i]


# --------------------------------------------------------------------------
# synthetic generation

def _random_box(rng, canvas):
    w = rng.uniform(0.08, 0.35) * canvas
    h = rng.uniform(0.08, 0.35) * canvas
    x1 = rng.uniform(0, canvas - w)
    y1 = rng.uniform(0, canvas - h)
    return (round(x1, 2), round(y1, 2), round(x1 + w, 2), round(y1 + h, 2))


def _iou4(a, b):
    """evaluate.iou of two 4-tuples in Python floats: the distractor test runs
    once per candidate box, where a numpy call costs several times more."""
    ix = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    iy = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = ix * iy
    return inter / ((a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1])
                    - inter)


def _distractor_box(rng, canvas, avoid):
    # grounding to a distractor must be unambiguously wrong: IoU < 0.5
    for _ in range(200):
        box = _random_box(rng, canvas)
        if all(_iou4(box, a) < 0.5 for a in avoid):
            return box
    raise SamplingError("could not place a distractor box with IoU < 0.5")


def generate_synthetic(config, seed=None):
    """Build train/val/test splits with planted ground truth.

    Every vocab label owns a latent prototype feature (referring expressions
    reuse their referent's prototype). Per segment, each query object gets
    one designated true proposal per frame of a contiguous span covering
    ~presence of the frames; its feature is prototype + N(0, sigma) noise and
    its box is recorded as ground truth for val/test. Distractor proposals
    get fresh noise features at prototype scale and boxes with IoU < 0.5
    against every true box.
    """
    seed = config.seed if seed is None else seed
    rng = np.random.default_rng(seed)
    V, D_in = config.V, config.D_in

    n_refer = 4 if V >= 8 else 0
    labels = [f"obj{i:02d}" for i in range(V - n_refer)]
    labels += list(REFERRING_EXPRESSIONS[:n_refer])
    vocab = Vocabulary(labels)

    protos = rng.standard_normal((V, D_in))
    proto_of = list(range(V))
    for j in range(n_refer):
        # referring expression shares the referent's prototype (and boxes)
        proto_of[V - n_refer + j] = j
        protos[V - n_refer + j] = protos[j]

    def make_segment(sid, split):
        F, N = config.frames_per_segment, config.N
        O = int(rng.integers(config.min_objects, config.max_objects + 1))
        query_labels = [int(x) for x in rng.choice(V, size=O, replace=False)]

        span = max(1, round(config.presence * F))
        spans = []
        true_boxes = []
        for _ in range(O):
            start = int(rng.integers(0, F - span + 1))
            spans.append(range(start, start + span))
            true_boxes.append(_random_box(rng, config.canvas))

        frames = np.recarray((F, N), dtype=proposal_dtype(D_in))
        features, boxes = frames.feature, frames.box
        gt = []
        for f in range(F):
            present = [k for k in range(O) if f in spans[k]]
            slots = rng.permutation(N)[: len(present)]
            owner_of = dict(zip(slots.tolist(), present))
            avoid = [true_boxes[k] for k in present]
            for i in range(N):
                owner = owner_of.get(i)
                # a distractor gets fresh noise at prototype scale, so it never
                # echoes a planted prototype and cross-segment negatives stay
                # clean; its feature is drawn before its box
                base = rng.standard_normal(D_in) if owner is None \
                    else protos[proto_of[query_labels[owner]]]
                features[f, i] = base + config.sigma * rng.standard_normal(D_in)
                boxes[f, i] = _distractor_box(rng, config.canvas, avoid) \
                    if owner is None else true_boxes[owner]
            gt.extend((k, f, true_boxes[k], True) for k in present)

        return SegmentSample(segment_id=sid, split=split, query_labels=query_labels,
                             frames=frames, gt=None if split == "train" else
                             np.array(gt, dtype=GT_DTYPE).view(np.recarray))

    splits = {}
    for split, count in (("train", config.train_segments),
                         ("val", config.val_segments),
                         ("test", config.test_segments)):
        splits[split] = [make_segment(f"{split}{i:05d}", split) for i in range(count)]
    return vocab, splits


# --------------------------------------------------------------------------
# sampling

def sample_frames(n_frames, T, mode, rng=None):
    """Divide a segment evenly into T clips and pick one frame per clip.

    Train mode picks uniformly within each clip; eval mode picks the clip
    center floor((start+end)/2). Segments shorter than T repeat the last
    frame as padding.
    """
    if T < 1:
        raise ConfigError(f"frame count T must be >= 1, got {T}")
    if n_frames < T:
        log.warning("segment has %d frames < T=%d; padding with last frame",
                    n_frames, T)
        base = sample_frames(n_frames, n_frames, mode, rng)
        return base + [n_frames - 1] * (T - n_frames)
    bounds = [n_frames * i // T for i in range(T + 1)]
    if mode == "eval":
        return [(lo + hi) // 2 for lo, hi in zip(bounds[:-1], bounds[1:])]
    if mode == "train":
        return [int(rng.integers(lo, hi)) for lo, hi in zip(bounds[:-1], bounds[1:])]
    raise ConfigError(f"unknown sampling mode {mode!r}")


def label_members(pool):
    """Boolean index of shape (len(pool), 1 + largest label): row i marks pool[i]'s labels."""
    width = 1 + max((lab for s in pool for lab in s.query_labels), default=-1)
    members = np.zeros((len(pool), width), dtype=bool)
    for i, s in enumerate(pool):
        members[i, s.query_labels] = True
    return members


def disjoint_rows(pool, members, positive):
    """Positions, in pool order, of the segments other than positive whose
    labels are disjoint from positive's; members is label_members(pool)."""
    labels = [lab for lab in positive.query_labels if lab < members.shape[1]]
    rows = np.flatnonzero(~members[:, labels].any(axis=1))
    if not labels:  # nothing to share, so only identity excludes the positive
        rows = [i for i in rows if pool[i] is not positive]
    return rows


def sample_negative_sentence(pool, positive, rng, members=None):
    """Uniformly pick a pool segment whose label set is disjoint from the positive's.

    members: label_members(pool), for callers that sample from one pool many
    times; built here when omitted.
    """
    if members is None:
        members = label_members(pool)
    rows = disjoint_rows(pool, members, positive)
    if len(rows) == 0:
        raise SamplingError(
            f"no sentence with labels disjoint from {sorted(set(positive.query_labels))}")
    return pool[rows[int(rng.integers(len(rows)))]]


# --------------------------------------------------------------------------
# persistence

def save_segments(out_dir, vocab, splits):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "vocabulary.txt").write_text(
        "".join(lab + "\n" for lab in vocab.labels), encoding="utf-8")

    blocks, lines, n_rows = [], [], 0
    for split in sorted(splits):
        for seg in splits[split]:
            F, N = seg.frames.shape
            frames_json = [{"proposals": [{"box": box, "feat_row": n_rows + f * N + i}
                                          for i, box in enumerate(frame)]}
                           for f, frame in enumerate(seg.frames.box.tolist())]
            n_rows += F * N
            blocks.append(seg.frames.feature.reshape(F * N, -1))
            gt = seg.gt
            rec = {"segment_id": seg.segment_id, "split": split,
                   "query_labels": seg.query_labels, "frames": frames_json,
                   "gt": None if gt is None else
                   [{"query": q, "frame": f, "box": box, "visible": v}
                    for q, f, box, v in zip(gt.query.tolist(), gt.frame.tolist(),
                                            gt.box.tolist(), gt.visible.tolist())]}
            lines.append(json.dumps(rec, separators=(",", ":")))
    (out_dir / "segments.jsonl").write_text("".join(l + "\n" for l in lines),
                                            encoding="utf-8")

    feat = np.concatenate(blocks) if n_rows else np.zeros((0, 0), dtype="<f4")
    (out_dir / "features.bin").write_bytes(feat.tobytes())
    (out_dir / "features.json").write_text(
        json.dumps({"rows": int(feat.shape[0]),
                    "dim": int(feat.shape[1]) if feat.size else 0}),
        encoding="utf-8")


def load_segments(data_dir):
    """Inverse of save_segments; returns (vocab, {split: [SegmentSample]}).

    Every record is validated as it is read; a fault raises DataError naming
    segments.jsonl:<line> and the field.
    """
    data_dir = Path(data_dir)
    vocab = Vocabulary((data_dir / "vocabulary.txt")
                       .read_text(encoding="utf-8").splitlines())

    path = data_dir / "features.json"
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
        rows, dim = (checked_counts(key, [manifest[key]])[0] for key in ("rows", "dim"))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    except KeyError as exc:
        raise DataError(f"{path}: missing field {exc}") from None
    except (ValueError, TypeError) as exc:  # bad JSON, or JSON but no object
        raise DataError(f"{path}: not a JSON object: {exc}") from exc
    raw = (data_dir / "features.bin").read_bytes()
    if len(raw) != rows * dim * 4:
        raise IntegrityError(f"{data_dir / 'features.bin'} holds {len(raw)} bytes, "
                             f"{path.name} expects {rows * dim * 4}")
    feats = np.frombuffer(raw, dtype="<f4").reshape(rows, dim)

    splits = {}
    first = None  # (proposals per frame, line) of the first record
    path = data_dir / "segments.jsonl"
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                seg = _segment_from_json(json.loads(line), feats, vocab.size)
            except DataError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise DataError(f"{path}:{lineno}: malformed record: {exc}") from exc
            N = seg.frames.shape[1]
            first = first or (N, lineno)
            if N != first[0]:
                raise DataError(f"{path}:{lineno}: frames.proposals: {N} per frame, "
                                f"but line {first[1]} has {first[0]}")
            splits.setdefault(seg.split, []).append(seg)
    return vocab, splits


def _segment_from_json(rec, feats, n_labels):
    """One segments.jsonl record as a SegmentSample, proposal features gathered
    from feats; DataError names the faulty field."""
    counts = sorted({len(fr["proposals"]) for fr in rec["frames"]})
    if len(counts) > 1:
        raise DataError(f"frames.proposals: frames hold {counts} proposals; "
                        f"every frame needs the same count")
    F, N = len(rec["frames"]), counts[0] if counts else 0
    props = [p for fr in rec["frames"] for p in fr["proposals"]]
    boxes = _checked_list("frames.proposals.box", [c for p in props for c in p["box"]],
                          "number")
    boxes = np.array(boxes, dtype=np.float64).reshape(F, N, 4)
    rows = _checked_list("frames.proposals.feat_row", [p["feat_row"] for p in props],
                         "integer")
    rows = np.array(rows, dtype=np.int64).reshape(F, N)
    labels = _checked_list("query_labels", rec["query_labels"], "integer")
    _check_range("query_labels", np.array(labels, dtype=np.int64), n_labels,
                 "vocabulary.txt labels")
    _check_range("frames.proposals.feat_row", rows, len(feats), "features.bin rows")
    _check_boxes("frames.proposals.box", boxes)

    gt = rec["gt"]
    if gt is not None:
        for key, kind in (("query", "integer"), ("frame", "integer"),
                          ("visible", "boolean")):
            _checked_list(f"gt.{key}", [g[key] for g in gt], kind)
        _checked_list("gt.box", [c for g in gt for c in g["box"]], "number")
        gt = np.array([(g["query"], g["frame"], g["box"], g["visible"]) for g in gt],
                      dtype=GT_DTYPE).view(np.recarray)
        _check_range("gt.query", gt.query, len(labels), "query labels")
        _check_range("gt.frame", gt.frame, F, "frames")
        _check_boxes("gt.box", gt.box)

    frames = np.recarray((F, N), dtype=proposal_dtype(feats.shape[1]))
    frames.box = boxes
    frames.feature = feats[rows]
    return SegmentSample(rec["segment_id"], rec["split"], list(labels), frames, gt)


_JSON_TYPES = {"integer": (int,), "boolean": (bool,), "number": (int, float)}


def _checked_list(field, values, kind):
    """values, if each is a JSON value of that kind ("integer", "boolean" or
    "number"); types match exactly, so a bool is neither an integer nor a
    number and a float is no integer. Else DataError naming field."""
    bad = [v for v in values if type(v) not in _JSON_TYPES[kind]]
    if bad:
        raise DataError(f"{field}: {bad[0]!r} is not a JSON {kind}")
    return values


def checked_counts(field, values):
    """values, if each is a nonnegative JSON integer; else DataError naming field."""
    bad = [v for v in _checked_list(field, values, "integer") if v < 0]
    if bad:
        raise DataError(f"{field}: {bad[0]} is negative")
    return values


def _check_range(field, values, n, of_what):
    bad = values[(values < 0) | (values >= n)]
    if bad.size:
        raise DataError(f"{field}: {bad.tolist()} outside the {n} {of_what}")


def _check_boxes(field, boxes):
    bad = ~(np.isfinite(boxes) & (boxes >= 0)).all(axis=-1) \
        | (boxes[..., 2:] <= boxes[..., :2]).any(axis=-1)
    if bad.any():
        raise DataError(f"{field}: {boxes[bad][0].tolist()} must be finite and "
                        f"nonnegative with x1 < x2 and y1 < y2")
