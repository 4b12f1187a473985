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
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .evaluate import iou
from .tensor import ConfigError

log = logging.getLogger(__name__)

REFERRING_EXPRESSIONS = ("it", "them", "that", "they")


class DataError(ValueError):
    pass


class IntegrityError(RuntimeError):
    pass


class SamplingError(RuntimeError):
    pass


@dataclass(frozen=True)
class BoundingBox:
    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        vals = (self.x1, self.y1, self.x2, self.y2)
        if not all(math.isfinite(v) and v >= 0 for v in vals):
            raise DataError(f"box coordinates must be finite and nonnegative: {vals}")
        if not (self.x1 < self.x2 and self.y1 < self.y2):
            raise DataError(f"box must have positive area: {vals}")

    def area(self):
        return (self.x2 - self.x1) * (self.y2 - self.y1)

    def as_list(self):
        return [self.x1, self.y1, self.x2, self.y2]


@dataclass
class Proposal:
    box: BoundingBox
    feature: np.ndarray  # (D_in,) float32


@dataclass
class GtRecord:
    query: int   # index into query_labels
    frame: int   # raw frame id within the segment
    box: BoundingBox
    visible: bool = True


@dataclass
class SegmentSample:
    segment_id: str
    split: str
    query_labels: list        # ordered vocab ids, as in the sentence
    frames: list              # frames[t] = list of N Proposals
    gt: list = None           # GtRecords; present iff split is val/test

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
    return BoundingBox(round(x1, 2), round(y1, 2), round(x1 + w, 2), round(y1 + h, 2))


def _distractor_box(rng, canvas, avoid):
    # grounding to a distractor must be unambiguously wrong: IoU < 0.5
    for _ in range(200):
        box = _random_box(rng, canvas)
        if all(iou(box, a) < 0.5 for a in avoid):
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

        frames = []
        gt = []
        for f in range(F):
            present = [k for k in range(O) if f in spans[k]]
            slots = rng.permutation(N)[: len(present)]
            slot_of = dict(zip(present, slots))
            avoid = [true_boxes[k] for k in present]
            proposals = []
            for i in range(N):
                owner = next((k for k, s in slot_of.items() if s == i), None)
                if owner is not None:
                    feat = protos[proto_of[query_labels[owner]]] \
                        + config.sigma * rng.standard_normal(D_in)
                    proposals.append(Proposal(true_boxes[owner],
                                              feat.astype(np.float32)))
                else:
                    # fresh noise at prototype scale: distractors never echo a
                    # planted prototype, so cross-segment negatives stay clean
                    feat = rng.standard_normal(D_in) \
                        + config.sigma * rng.standard_normal(D_in)
                    proposals.append(Proposal(_distractor_box(rng, config.canvas, avoid),
                                              feat.astype(np.float32)))
            frames.append(proposals)
            for k in present:
                gt.append(GtRecord(query=k, frame=f, box=true_boxes[k], visible=True))

        return SegmentSample(segment_id=sid, split=split, query_labels=query_labels,
                             frames=frames, gt=gt if split != "train" else None)

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

    rows = []
    lines = []
    for split in sorted(splits):
        for seg in splits[split]:
            frames_json = []
            for props in seg.frames:
                frame_json = []
                for p in props:
                    frame_json.append({"box": p.box.as_list(), "feat_row": len(rows)})
                    rows.append(p.feature)
                frames_json.append({"proposals": frame_json})
            rec = {"segment_id": seg.segment_id, "split": split,
                   "query_labels": seg.query_labels, "frames": frames_json,
                   "gt": None if seg.gt is None else
                   [{"query": g.query, "frame": g.frame, "box": g.box.as_list(),
                     "visible": g.visible} for g in seg.gt]}
            lines.append(json.dumps(rec, separators=(",", ":")))
    (out_dir / "segments.jsonl").write_text("".join(l + "\n" for l in lines),
                                            encoding="utf-8")

    feat = np.stack(rows).astype("<f4") if rows else np.zeros((0, 0), dtype="<f4")
    (out_dir / "features.bin").write_bytes(feat.tobytes())
    (out_dir / "features.json").write_text(
        json.dumps({"rows": int(feat.shape[0]),
                    "dim": int(feat.shape[1]) if feat.size else 0}),
        encoding="utf-8")


def load_segments(data_dir):
    """Inverse of save_segments; returns (vocab, {split: [SegmentSample]})."""
    data_dir = Path(data_dir)
    vocab = Vocabulary((data_dir / "vocabulary.txt")
                       .read_text(encoding="utf-8").splitlines())

    manifest = json.loads((data_dir / "features.json").read_text(encoding="utf-8"))
    raw = (data_dir / "features.bin").read_bytes()
    expected = manifest["rows"] * manifest["dim"] * 4
    if len(raw) != expected:
        raise IntegrityError(
            f"features.bin holds {len(raw)} bytes, manifest expects {expected}")
    feats = np.frombuffer(raw, dtype="<f4").reshape(manifest["rows"], manifest["dim"]) \
        if manifest["rows"] else np.zeros((0, 0), dtype="<f4")

    splits = {}
    path = data_dir / "segments.jsonl"
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{lineno}: malformed record: {exc}") from exc
            try:
                frames = [[Proposal(BoundingBox(*p["box"]),
                                    feats[p["feat_row"]].copy())
                           for p in fr["proposals"]] for fr in rec["frames"]]
                gt = None if rec["gt"] is None else \
                    [GtRecord(g["query"], g["frame"], BoundingBox(*g["box"]),
                              g["visible"]) for g in rec["gt"]]
                seg = SegmentSample(rec["segment_id"], rec["split"],
                                    list(rec["query_labels"]), frames, gt)
            except (KeyError, IndexError, TypeError) as exc:
                raise DataError(f"{path}:{lineno}: malformed record: {exc}") from exc
            splits.setdefault(rec["split"], []).append(seg)
    return vocab, splits
