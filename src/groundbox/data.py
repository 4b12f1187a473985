"""Dataset model, deterministic synthetic generation with planted ground
truth, frame / negative sampling, and on-disk formats.

On-disk layout (one directory, format 2). Proposals are stored as rows:
segment after segment in file order, a segment's F x N proposals frame by
frame, so row r of boxes.bin and row r of features.bin are one proposal.
  vocabulary.txt  - one label per line
  segments.jsonl  - one JSON object per segment: segment_id (a string,
                    unique), split (train, val or test), query_labels,
                    frames (its frame count F), row (its first row) and gt
                    ([{query, frame, box}] on val and test, null on train)
  boxes.bin       - little-endian float64, rows x 4 (x1, y1, x2, y2)
  features.bin    - little-endian float32, rows x dim, every value finite
  features.json   - {"format": 2, "rows": int, "dim": int, "N": int}; N is
                    the proposal count of every frame
"""

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import ConfigError

REFERRING_EXPRESSIONS = ("it", "them", "that", "they")
FORMAT = 2  # of the dataset directory; features.json names it
SPLITS = ("train", "val", "test")
CANVAS = 1000  # side of the square frame that synthetic boxes lie in


class DataError(ValueError):
    pass


class IntegrityError(RuntimeError):
    pass


class SamplingError(RuntimeError):
    pass


def proposal_dtype(D_in):
    """Record of one proposal: its box (x1, y1, x2, y2) and its feature row.

    Arrays of it are plain ndarrays, read by field (frames["feature"]); an
    element is an np.record, so one proposal also reads p.box, p.feature."""
    return np.dtype((np.record, [("box", "<f8", (4,)), ("feature", "<f4", (D_in,))]))


# one ground-truth record: query (index into query_labels) is visible at
# frame (raw frame id within the segment) inside box; records, like
# proposals, read g.query, g.frame, g.box
GT_DTYPE = np.dtype((np.record, [("query", "<i8"), ("frame", "<i8"), ("box", "<f8", (4,))]))


@dataclass
class SegmentSample:
    segment_id: str
    split: str
    query_labels: list        # ordered vocab ids, as in the sentence
    frames: np.ndarray        # (F, N) proposal_dtype records
    gt: np.ndarray = None     # (G,) GT_DTYPE records; present iff split is val/test

    @property
    def n_frames(self):
        return len(self.frames)


@dataclass
class Vocabulary:
    labels: list = field(default_factory=list)  # labels[i] is vocabulary.txt line i+1

    def __post_init__(self):
        first = {}  # label -> the line that holds it
        for line, label in enumerate(self.labels, start=1):
            if label in first:
                raise DataError(f"line {line}: label {label!r} repeats line "
                                f"{first[label]}; vocabulary labels must be unique")
            first[label] = line

    @property
    def size(self):
        return len(self.labels)

    def __getitem__(self, i):
        return self.labels[i]


# --------------------------------------------------------------------------
# synthetic generation

def _random_box(rng, canvas):
    # rng.uniform(lo, hi) is lo + (hi - lo) * rng.random(): one call draws all
    # four, in the order four uniform calls would (Python's round, not np.round)
    uw, uh, ux, uy = rng.random(4).tolist()
    w = (0.08 + (0.35 - 0.08) * uw) * canvas
    h = (0.08 + (0.35 - 0.08) * uh) * canvas
    x1 = (canvas - w) * ux
    y1 = (canvas - h) * uy
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
    # a referring expression's row is a copy of its referent's prototype
    protos[V - n_refer:] = protos[:n_refer]

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
            true_boxes.append(_random_box(rng, CANVAS))

        # draws[f, i] is proposal i's (base, noise) pair: a distractor's base
        # is fresh noise at prototype scale, so it never echoes a planted
        # prototype and cross-segment negatives stay clean; an owner's base
        # is its prototype. A distractor's two draws come before its box.
        draws = np.empty((F, N, 2, D_in))
        boxes = []
        gt = []
        for f in range(F):
            present = [k for k in range(O) if f in spans[k]]
            slots = rng.permutation(N)[: len(present)]
            owner_of = dict(zip(slots.tolist(), present))
            avoid = [true_boxes[k] for k in present]
            for i in range(N):
                owner = owner_of.get(i)
                if owner is None:
                    rng.standard_normal(out=draws[f, i])
                    boxes.append(_distractor_box(rng, CANVAS, avoid))
                else:
                    draws[f, i, 0] = protos[query_labels[owner]]
                    rng.standard_normal(out=draws[f, i, 1])
                    boxes.append(true_boxes[owner])
            gt.extend((k, f, true_boxes[k]) for k in present)

        frames = np.empty((F, N), dtype=proposal_dtype(D_in))
        frames["feature"] = draws[:, :, 0] + config.sigma * draws[:, :, 1]
        frames["box"] = np.array(boxes).reshape(F, N, 4)
        return SegmentSample(segment_id=sid, split=split, query_labels=query_labels,
                             frames=frames, gt=None if split == "train" else
                             np.array(gt, dtype=GT_DTYPE))

    splits = {}
    for split, count in (("train", config.train_segments),
                         ("val", config.val_segments),
                         ("test", config.test_segments)):
        splits[split] = [make_segment(f"{split}{i:05d}", split) for i in range(count)]
    return vocab, splits


# --------------------------------------------------------------------------
# sampling

def sample_frames(n_frames, T, rng):
    """Divide a segment evenly into k = min(n_frames, T) clips and draw one
    frame uniformly within each clip; a segment shorter than T repeats its
    last frame as padding up to T frames.
    """
    if T < 1:
        raise ConfigError(f"frame count T must be >= 1, got {T}")
    k = min(n_frames, T)
    # one call draws the k clips in order, as k scalar integers calls would
    bounds = np.arange(k + 1) * n_frames // k
    return rng.integers(bounds[:-1], bounds[1:]).tolist() + [n_frames - 1] * (T - k)


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


def sample_negative_sentence(pool, positive, rng, rows=None):
    """Uniformly pick a pool segment whose label set is disjoint from the positive's.

    rows: disjoint_rows(pool, label_members(pool), positive), for callers that
    sample for one positive many times; computed here when omitted.
    """
    if rows is None:
        rows = disjoint_rows(pool, label_members(pool), positive)
    if len(rows) == 0:
        raise SamplingError(
            f"no sentence with labels disjoint from {sorted(set(positive.query_labels))}")
    return pool[rows[int(rng.integers(len(rows)))]]


# --------------------------------------------------------------------------
# persistence

@contextmanager
def replacing(*paths):
    """Write paths through temp files: the save protocol of every artifact.

    Creates the targets' directories, then yields a list of one temp path per
    target, .<name>.<pid>.tmp beside it, for the block to write. When the
    block ends they replace their targets in order. With more than one target
    the last is a manifest of the others: the old one is removed before
    anything is replaced, so no manifest ever describes files it was not
    written with. If the block or a replace raises, the temp files left are
    removed and every target not yet replaced stays as it was.
    """
    paths = [Path(path) for path in paths]
    tmp = [path.with_name(f".{path.name}.{os.getpid()}.tmp") for path in paths]
    for path in paths:
        path.parent.mkdir(parents=True, exist_ok=True)
    try:
        yield tmp
        if len(paths) > 1:
            paths[-1].unlink(missing_ok=True)
        for path, target in zip(tmp, paths):
            os.replace(path, target)
    except BaseException:
        for path in tmp:
            path.unlink(missing_ok=True)
        raise


def read_object(path):
    """The JSON object in the file at path; DataError naming path if the file
    holds anything else."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise DataError(f"{path}: not a JSON object: {exc}") from None
    if not isinstance(obj, dict):
        raise DataError(f"{path}: not a JSON object: {type(obj).__name__}")
    return obj


def save_segments(out_dir, vocab, splits):
    """Write vocab and splits as a format-2 dataset directory through
    replacing, the manifest features.json last, feature and box rows
    streamed segment by segment. Every segment must hold the first one's
    proposals per frame and feature width (DataError).
    """
    out_dir = Path(out_dir)
    names = ("vocabulary.txt", "segments.jsonl", "boxes.bin", "features.bin",
             "features.json")
    with replacing(*(out_dir / name for name in names)) as (
            vocab_tmp, lines_tmp, boxes_tmp, feats_tmp, manifest_tmp):
        vocab_tmp.write_text("".join(lab + "\n" for lab in vocab.labels),
                             encoding="utf-8")
        shape = None  # (N, dim) of the first segment
        row = 0
        with open(lines_tmp, "w", encoding="utf-8") as lines, \
                open(boxes_tmp, "wb") as boxes, open(feats_tmp, "wb") as feats:
            for split in sorted(splits):
                for seg in splits[split]:
                    (F, N), dim = seg.frames.shape, seg.frames["feature"].shape[-1]
                    shape = shape or (N, dim)
                    if (N, dim) != shape:
                        raise DataError(
                            f"segment {seg.segment_id!r}: {N} proposals of dim {dim} "
                            f"per frame, but the first segment has {shape[0]} of dim "
                            f"{shape[1]}")
                    boxes.write(np.ascontiguousarray(seg.frames["box"], dtype="<f8"))
                    feats.write(np.ascontiguousarray(seg.frames["feature"], dtype="<f4"))
                    gt = seg.gt
                    rec = {"segment_id": seg.segment_id, "split": split,
                           "query_labels": seg.query_labels, "frames": F, "row": row,
                           "gt": None if gt is None else
                           [{"query": q, "frame": f, "box": box} for q, f, box in
                            zip(gt["query"].tolist(), gt["frame"].tolist(),
                                gt["box"].tolist())]}
                    lines.write(json.dumps(rec, separators=(",", ":")) + "\n")
                    row += F * N
        N, dim = shape or (0, 0)
        manifest_tmp.write_text(
            json.dumps({"format": FORMAT, "rows": row, "dim": dim, "N": N}),
            encoding="utf-8")


def load_segments(data_dir):
    """Inverse of save_segments; returns (vocab, {split: [SegmentSample]}).

    Every field is validated as it is read. A fault raises DataError naming
    the file and the field: vocabulary.txt and the line of a repeated label,
    features.json and its field, boxes.bin and the row of a bad proposal box,
    segments.jsonl:<line> and the field of a bad record, features.bin and the
    first row of a segment whose feature block holds a NaN or an infinity. A
    blob whose size the manifest does not predict raises IntegrityError
    naming it. Segments' rows must tile [0, rows) in file order, and each
    segment's feature block is read on its own. Segment ids are unique strings, splits are train, val or test, and
    gt is null exactly on train records.
    """
    data_dir = Path(data_dir)
    vocab_path = data_dir / "vocabulary.txt"
    try:
        vocab = Vocabulary(vocab_path.read_text(encoding="utf-8").splitlines())
    except DataError as exc:
        raise DataError(f"{vocab_path}: {exc}") from None
    manifest = data_dir / "features.json"
    rows, dim, N = _read_manifest(manifest)
    box_path, feat_path = data_dir / "boxes.bin", data_dir / "features.bin"
    for blob, width in ((box_path, 4 * 8), (feat_path, dim * 4)):
        size = blob.stat().st_size
        if size != rows * width:
            raise IntegrityError(f"{blob} holds {size} bytes, {manifest.name} "
                                 f"expects {rows * width}")
    boxes = np.fromfile(box_path, dtype="<f8").reshape(rows, 4)
    bad = _bad_boxes(boxes)
    if bad.any():
        r = int(np.flatnonzero(bad)[0])
        raise DataError(f"{box_path}: row {r}: box {boxes[r].tolist()} {_BOX_RULE}")

    splits = {}
    at = 0  # the first row no segment has claimed yet
    line_of = {}  # segment id -> the line that holds it
    path = data_dir / "segments.jsonl"
    with open(path, encoding="utf-8") as fh, open(feat_path, "rb") as feats:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                sid, split, labels, F, gt = _fields_of(rec, at, N, rows, vocab.size)
                if sid in line_of:
                    raise DataError(f"segment_id: {sid!r} is already the id of "
                                    f"line {line_of[sid]}")
            except DataError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise DataError(f"{path}:{lineno}: malformed record: {exc}") from exc
            line_of[sid] = lineno
            block = np.frombuffer(feats.read(F * N * dim * 4), dtype="<f4")
            if not np.isfinite(block).all():
                i = int(np.flatnonzero(~np.isfinite(block))[0])
                raise DataError(f"{feat_path}: row {at + i // dim}: feature {i % dim} "
                                f"is {block[i]}, not a finite number")
            frames = np.empty((F, N), dtype=proposal_dtype(dim))
            frames["box"] = boxes[at:at + F * N].reshape(F, N, 4)
            frames["feature"] = block.reshape(F, N, dim)
            at += F * N
            splits.setdefault(split, []).append(
                SegmentSample(sid, split, labels, frames, gt))
    if at != rows:
        raise DataError(f"{path}: its segments' rows end at {at}, but "
                        f"{manifest.name} has rows {rows}")
    return vocab, splits


def _read_manifest(path):
    """(rows, dim, N) of a format-2 features.json; DataError naming path and
    the field."""
    manifest = read_object(path)
    version = manifest.get("format")
    if type(version) is not int or version != FORMAT:
        raise DataError(f"{path}: format: {version!r}, but this version reads only "
                        f"format {FORMAT} datasets; re-run gen-data to rewrite it")
    try:
        return [checked_counts(f"{path}: {key}", [manifest[key]])[0]
                for key in ("rows", "dim", "N")]
    except KeyError as exc:
        raise DataError(f"{path}: missing field {exc}") from None


def _fields_of(rec, at, N, rows, n_labels):
    """(segment_id, split, query_labels, F, gt) of one segments.jsonl record
    whose rows should start at row at; DataError names the faulty field."""
    sid, split, gt = rec["segment_id"], rec["split"], rec["gt"]
    if type(sid) is not str:
        raise DataError(f"segment_id: {sid!r} is not a JSON string")
    if split not in SPLITS:
        raise DataError(f"split: {split!r} is not one of {', '.join(SPLITS)}")
    if (gt is None) != (split == "train"):
        raise DataError(f"gt: {'null' if gt is None else 'a list'} on a {split} "
                        "record, but gt is null exactly on train records")
    labels = checked_list("query_labels", rec["query_labels"], "integer")
    if not labels:
        raise DataError("query_labels: [], but a segment needs at least one query")
    _check_range("query_labels", np.array(labels, dtype=np.int64), n_labels,
                 "vocabulary.txt labels")
    F, row = (checked_counts(key, [rec[key]])[0] for key in ("frames", "row"))
    if not F:
        raise DataError("frames: 0, but a segment needs at least one frame")
    if not N:
        raise DataError(f"frames: {F}, but features.json has N=0 proposals per frame")
    if row != at:
        raise DataError(f"row: {row}, but the rows before it end at {at}: segments "
                        f"must tile [0, {rows}) in order, N={N} rows per frame")
    if at + F * N > rows:
        raise DataError(f"frames: {F} frames of N={N} proposals run to row "
                        f"{at + F * N}, past the {rows} rows of features.json")

    if gt is not None:
        for key in ("query", "frame"):
            checked_list(f"gt.{key}", [g[key] for g in gt], "integer")
        checked_list("gt.box", [c for g in gt for c in g["box"]], "number")
        gt = np.array([(g["query"], g["frame"], g["box"]) for g in gt],
                      dtype=GT_DTYPE)
        _check_range("gt.query", gt["query"], len(labels), "query labels")
        _check_range("gt.frame", gt["frame"], F, "frames")
        bad = _bad_boxes(gt["box"])
        if bad.any():
            raise DataError(f"gt.box: {gt['box'][bad][0].tolist()} {_BOX_RULE}")
    return sid, split, list(labels), F, gt


_JSON_TYPES = {"integer": (int,), "number": (int, float)}


def checked_list(field, values, kind):
    """values, if each is a JSON value of that kind ("integer" or "number");
    types match exactly, so a bool is neither an integer nor a number and a
    float is no integer. Else DataError naming field."""
    bad = [v for v in values if type(v) not in _JSON_TYPES[kind]]
    if bad:
        raise DataError(f"{field}: {bad[0]!r} is not a JSON {kind}")
    return values


def checked_counts(field, values):
    """values, if each is a nonnegative JSON integer; else DataError naming field."""
    bad = [v for v in checked_list(field, values, "integer") if v < 0]
    if bad:
        raise DataError(f"{field}: {bad[0]} is negative")
    return values


def _check_range(field, values, n, of_what):
    bad = values[(values < 0) | (values >= n)]
    if bad.size:
        raise DataError(f"{field}: {bad.tolist()} outside the {n} {of_what}")


_BOX_RULE = "must be finite and nonnegative with x1 < x2 and y1 < y2"


def _bad_boxes(boxes):
    """Mask over the leading axes of (..., 4) boxes: which break _BOX_RULE."""
    return ~(np.isfinite(boxes) & (boxes >= 0)).all(axis=-1) \
        | (boxes[..., 2:] <= boxes[..., :2]).any(axis=-1)
