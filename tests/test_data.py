import dataclasses
import hashlib
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groundbox.config import GroundingConfig
from groundbox.data import (DataError, IntegrityError, SamplingError,
                            SegmentSample, Vocabulary, _iou4, _random_box,
                            disjoint_rows, generate_synthetic, label_members,
                            load_segments, sample_frames,
                            sample_negative_sentence, save_segments)
from groundbox.evaluate import iou

SMALL = GroundingConfig(V=12, D_in=8, N=5, frames_per_segment=6,
                        train_segments=4, val_segments=3, test_segments=3,
                        sigma=0.1, seed=0)
DATASET_FILES = ("vocabulary.txt", "segments.jsonl", "boxes.bin", "features.bin",
                 "features.json")


def test_vocabulary_rejects_duplicates():
    with pytest.raises(DataError):
        Vocabulary(["a", "b", "a"])


def test_load_names_a_repeated_vocabulary_label_and_its_line(tmp_path):
    vocab, splits = generate_synthetic(SMALL)
    save_segments(tmp_path, vocab, splits)
    path = tmp_path / "vocabulary.txt"
    labels = path.read_text().splitlines()
    labels[1] = "obj00"
    path.write_text("".join(lab + "\n" for lab in labels))
    want = f"{path}: line 2: label 'obj00' repeats line 1"
    with pytest.raises(DataError, match=re.escape(want)):
        load_segments(tmp_path)


def test_generate_counts_and_shapes():
    vocab, splits = generate_synthetic(SMALL)
    assert vocab.size == 12
    assert [len(splits[s]) for s in ("train", "val", "test")] == [4, 3, 3]
    seg = splits["val"][0]
    assert seg.n_frames == 6
    assert all(len(fr) == 5 for fr in seg.frames)
    assert all(p.feature.dtype == np.float32 and p.feature.shape == (8,)
               for fr in seg.frames for p in fr)
    assert 1 <= len(seg.query_labels) <= 3


def test_generate_gt_only_on_eval_splits():
    _, splits = generate_synthetic(SMALL)
    assert all(s.gt is None for s in splits["train"])
    assert all(s.gt is not None and len(s.gt) for s in splits["val"] + splits["test"])


def test_generate_presence_span_is_contiguous():
    _, splits = generate_synthetic(SMALL)
    span = round(0.6 * 6)
    for seg in splits["val"]:
        for k in range(len(seg.query_labels)):
            frames = sorted(g.frame for g in seg.gt if g.query == k)
            assert len(frames) == span
            assert frames == list(range(frames[0], frames[0] + span))


def test_generate_distractor_boxes_clear_of_truth():
    _, splits = generate_synthetic(SMALL)
    for seg in splits["val"]:
        truth = {(g.frame, tuple(g.box.tolist())) for g in seg.gt}
        for f, props in enumerate(seg.frames):
            gt_boxes = [b for (fr, b) in truth if fr == f]
            for p in props:
                if tuple(p.box.tolist()) in gt_boxes:
                    continue
                for b in gt_boxes:
                    assert iou(p.box, b) < 0.5


def test_generate_boxes_inside_canvas():
    _, splits = generate_synthetic(SMALL)
    for seg in splits["test"]:
        for props in seg.frames:
            for p in props:
                x1, y1, x2, y2 = p.box
                assert 0 <= x1 < x2 <= 1000
                assert 0 <= y1 < y2 <= 1000


def test_generate_referring_expressions_present():
    vocab, _ = generate_synthetic(SMALL)
    assert vocab.labels[-4:] == ["it", "them", "that", "they"]


def test_generate_deterministic_per_seed():
    v1, s1 = generate_synthetic(SMALL, seed=9)
    v2, s2 = generate_synthetic(SMALL, seed=9)
    assert v1.labels == v2.labels
    a = s1["train"][0].frames[0][0]
    b = s2["train"][0].frames[0][0]
    assert np.array_equal(a.feature, b.feature) and np.array_equal(a.box, b.box)
    _, s3 = generate_synthetic(SMALL, seed=10)
    assert not np.array_equal(a.feature, s3["train"][0].frames[0][0].feature)


def _splits_digest(splits):
    """blake2b of everything generation puts in the splits, in split order."""
    h = hashlib.blake2b(digest_size=16)
    for split in sorted(splits):
        for seg in splits[split]:
            h.update(seg.segment_id.encode())
            h.update(np.asarray(seg.query_labels, dtype="<i8").tobytes())
            h.update(np.ascontiguousarray(seg.frames["feature"]).tobytes())
            h.update(np.ascontiguousarray(seg.frames["box"]).tobytes())
            if seg.gt is not None:
                for column, dtype in (("query", "<i8"), ("frame", "<i8"), ("box", "<f8")):
                    h.update(np.ascontiguousarray(seg.gt[column], dtype=dtype).tobytes())
    return h.hexdigest()


# The criterion-3 shape and a paper-width one. The digests pin the rng
# stream: a change that draws the same numbers in another order, or rounds a
# box another way, changes every trained model downstream.
CRITERION_3 = GroundingConfig(d=32, D_in=16, V=20, N=10, T=5, T_prime=5,
                              sigma=0.1, train_segments=500, val_segments=100,
                              test_segments=100, epochs=15, lr=2.0, seed=0)
PAPER_WIDTH = GroundingConfig(D_in=2048, train_segments=3, val_segments=2,
                              test_segments=2, seed=0)


@pytest.mark.parametrize("config, seed, digest", [
    (CRITERION_3, 0, "c8032f041357a31b4965561553a0fdb7"),
    (CRITERION_3, 7, "63f574b3c2b5f16d6d8fc067958544ad"),
    (PAPER_WIDTH, 0, "684199b741a93e918691da92fd84bf16"),
    (PAPER_WIDTH, 7, "7b874ff31140c323ee82d59557628b47"),
], ids=["criterion3-seed0", "criterion3-seed7", "paper-width-seed0",
        "paper-width-seed7"])
def test_generation_stream_is_pinned(config, seed, digest):
    assert _splits_digest(generate_synthetic(config, seed)[1]) == digest


def test_sample_frames_train_within_clips():
    rng = np.random.default_rng(0)
    for _ in range(20):
        idx = sample_frames(10, 5, rng)
        assert len(idx) == 5
        for j, t in enumerate(idx):
            assert 2 * j <= t < 2 * (j + 1)


def test_sample_frames_pads_short_segments():
    idx = sample_frames(3, 5, np.random.default_rng(0))
    assert idx == [0, 1, 2, 2, 2]


@given(st.integers(1, 60), st.integers(1, 12), st.integers(0, 2**31 - 1))
def test_sample_frames_eval_sorted_in_range(n, T, seed):
    idx = sample_frames(n, T, np.random.default_rng(seed))
    assert len(idx) == T
    assert idx == sorted(idx)
    assert all(0 <= t < n for t in idx)


@given(st.integers(1, 60), st.integers(1, 12), st.integers(0, 2**31 - 1))
def test_sample_frames_draws_as_one_scalar_call_per_clip(n, T, seed):
    # the same frames, and the rng left where T scalar draws leave it; one-frame
    # clips included
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sample_frames(n, T, rng)
    if n < T:
        want = [int(ref.integers(t, t + 1)) for t in range(n)] + [n - 1] * (T - n)
    else:
        want = [int(ref.integers(n * i // T, n * (i + 1) // T)) for i in range(T)]
    assert got == want and all(type(t) is int for t in got)
    assert rng.integers(0, 2**62) == ref.integers(0, 2**62)


def test_sample_negative_sentence_disjoint():
    rng = np.random.default_rng(1)
    _, splits = generate_synthetic(SMALL)
    pool = splits["train"]
    pos = pool[0]
    for _ in range(10):
        neg = sample_negative_sentence(pool, pos, rng)
        assert not set(neg.query_labels) & set(pos.query_labels)
        assert neg is not pos


def test_sample_negative_sentence_exhausted():
    seg = SegmentSample("a", "train", [1, 2], [[]], None)
    other = SegmentSample("b", "train", [2, 3], [[]], None)
    with pytest.raises(SamplingError):
        sample_negative_sentence([seg, other], seg, np.random.default_rng(0))


def _scan_negative(pool, positive, rng):
    """The pool scan that label_members replaced, kept as the reference."""
    pos_labels = set(positive.query_labels)
    eligible = [s for s in pool
                if s is not positive and not pos_labels & set(s.query_labels)]
    if not eligible:
        raise SamplingError("none")
    return eligible[int(rng.integers(len(eligible)))]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(st.integers(0, 7), max_size=4), min_size=1, max_size=12),
       st.lists(st.integers(0, 9), max_size=4), st.integers(-1, 11),
       st.integers(0, 2**31 - 1))
def test_indexed_negative_sampling_matches_pool_scan(label_sets, outside_labels,
                                                    pos_at, seed):
    pool = [SegmentSample(f"s{i}", "train", labels, [[]], None)
            for i, labels in enumerate(label_sets)]
    # pos_at indexes the pool, or names a positive from outside it
    positive = (pool[pos_at] if 0 <= pos_at < len(pool)
                else SegmentSample("out", "train", outside_labels, [[]], None))
    rows = disjoint_rows(pool, label_members(pool), positive)
    for draw in range(3):
        rng_scan, rng_index = (np.random.default_rng(seed + draw) for _ in range(2))
        try:
            want = _scan_negative(pool, positive, rng_scan)
        except SamplingError:
            with pytest.raises(SamplingError):
                sample_negative_sentence(pool, positive, rng_index, rows)
            continue
        assert sample_negative_sentence(pool, positive, rng_index, rows) is want
        assert rng_index.bit_generator.state == rng_scan.bit_generator.state
        assert sample_negative_sentence(pool, positive,
                                        np.random.default_rng(seed + draw)) is want


def test_save_load_round_trip(tmp_path):
    vocab, splits = generate_synthetic(SMALL)
    save_segments(tmp_path, vocab, splits)
    assert (tmp_path / "vocabulary.txt").exists()
    assert (tmp_path / "segments.jsonl").exists()
    assert (tmp_path / "boxes.bin").exists()
    assert (tmp_path / "features.bin").exists()
    assert (tmp_path / "features.json").exists()

    vocab2, splits2 = load_segments(tmp_path)
    assert vocab2.labels == vocab.labels
    for split in splits:
        assert len(splits2[split]) == len(splits[split])
        for a, b in zip(splits[split], splits2[split]):
            assert a.segment_id == b.segment_id
            assert a.query_labels == b.query_labels
            assert (a.gt is None) == (b.gt is None)
            for fa, fb in zip(a.frames, b.frames):
                for pa, pb in zip(fa, fb):
                    assert np.array_equal(pa.box, pb.box)
                    assert np.array_equal(pa.feature, pb.feature)
            if a.gt is not None:
                assert [(g.query, g.frame, g.box.tolist()) for g in a.gt] == \
                       [(g.query, g.frame, g.box.tolist()) for g in b.gt]


def test_splits_hold_plain_record_arrays(tmp_path):
    # frames and gt are plain ndarrays read by field; a single record still
    # reads by attribute, as bench/pipeline.py and demo 03 read it
    vocab, generated = generate_synthetic(SMALL)
    save_segments(tmp_path, vocab, generated)
    _, loaded = load_segments(tmp_path)
    for splits in (generated, loaded):
        for seg in (segs[0] for segs in splits.values()):
            assert type(seg.frames) is np.ndarray
            assert seg.frames["feature"].shape == (6, SMALL.N, SMALL.D_in)
            p = seg.frames[1][2]
            assert np.array_equal(p.feature, seg.frames["feature"][1, 2])
            assert np.array_equal(p.box, seg.frames["box"][1, 2])
            if seg.gt is not None:
                assert type(seg.gt) is np.ndarray
                g = seg.gt[-1]
                assert (g.query, g.frame, g.box.tolist()) == (
                    seg.gt["query"][-1], seg.gt["frame"][-1], seg.gt["box"][-1].tolist())


def test_save_is_byte_deterministic(tmp_path):
    vocab, splits = generate_synthetic(SMALL, seed=5)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    save_segments(d1, vocab, splits)
    vocab2, splits2 = generate_synthetic(SMALL, seed=5)
    save_segments(d2, vocab2, splits2)
    for name in DATASET_FILES:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_features_bin_is_le_float32(tmp_path):
    vocab, splits = generate_synthetic(SMALL)
    save_segments(tmp_path, vocab, splits)
    manifest = json.loads((tmp_path / "features.json").read_text())
    assert manifest == {"format": 2, "rows": 10 * 6 * 5, "dim": 8, "N": 5}
    raw = (tmp_path / "features.bin").read_bytes()
    assert len(raw) == manifest["rows"] * manifest["dim"] * 4
    # rows are written in sorted-split order, so "test" comes first
    first = splits["test"][0].frames[0][0].feature
    got = np.frombuffer(raw[: 4 * manifest["dim"]], dtype="<f4")
    assert np.array_equal(got, first)
    # boxes.bin is row-aligned: little-endian float64, 4 per row
    boxes = np.fromfile(tmp_path / "boxes.bin", dtype="<f8")
    assert boxes.shape == (manifest["rows"] * 4,)
    assert np.array_equal(boxes[4 * 7:4 * 8], splits["test"][0].frames[1][2].box)


def test_load_detects_truncated_features(tmp_path):
    vocab, splits = generate_synthetic(SMALL)
    save_segments(tmp_path, vocab, splits)
    blob = (tmp_path / "features.bin").read_bytes()
    (tmp_path / "features.bin").write_bytes(blob[:-4])
    with pytest.raises(IntegrityError, match=re.escape(str(tmp_path / "features.bin"))):
        load_segments(tmp_path)


def test_load_detects_short_boxes_bin(tmp_path):
    vocab, splits = generate_synthetic(SMALL)
    save_segments(tmp_path, vocab, splits)
    blob = (tmp_path / "boxes.bin").read_bytes()
    (tmp_path / "boxes.bin").write_bytes(blob[:-8])
    want = f"{tmp_path / 'boxes.bin'} holds {len(blob) - 8} bytes, features.json expects"
    with pytest.raises(IntegrityError, match=re.escape(want)):
        load_segments(tmp_path)


@pytest.mark.parametrize("text, want", [
    ('{"rows": 10}', "missing field 'dim'"),
    ('{"rows": "x", "dim": 4}', "rows: 'x' is not a JSON integer"),
    ('{"rows": 10, "dim": 4.0}', "dim: 4.0 is not a JSON integer"),
    ('{"rows": -1, "dim": 4}', "rows: -1 is negative"),
    ('{"rows": 10, "dim": ', "not a JSON object"),
    ('[10, 4]', "not a JSON object"),
])
def test_load_names_features_json_and_the_field(tmp_path, text, want):
    vocab, splits = generate_synthetic(SMALL)
    save_segments(tmp_path, vocab, splits)
    # each object case is a format-2 manifest with one fault
    (tmp_path / "features.json").write_text(text.replace("{", '{"format": 2, ', 1))
    with pytest.raises(DataError, match=re.escape(f"{tmp_path / 'features.json'}: {want}")):
        load_segments(tmp_path)


@pytest.mark.parametrize("manifest", [
    {"rows": 300, "dim": 8},                     # a format-1 manifest
    {"format": 1, "rows": 300, "dim": 8, "N": 5},
    {"format": 2.0, "rows": 300, "dim": 8, "N": 5},
    {"format": "2", "rows": 300, "dim": 8, "N": 5},
], ids=["no-format", "format-1", "float-format", "string-format"])
def test_load_refuses_a_dataset_of_another_format(tmp_path, manifest):
    vocab, splits = generate_synthetic(SMALL)
    save_segments(tmp_path, vocab, splits)
    (tmp_path / "features.json").write_text(json.dumps(manifest))
    want = (f"{tmp_path / 'features.json'}: format: {manifest.get('format')!r}, but "
            "this version reads only format 2 datasets; re-run gen-data")
    with pytest.raises(DataError, match=re.escape(want)):
        load_segments(tmp_path)


def test_load_reports_malformed_line_number(tmp_path):
    vocab, splits = generate_synthetic(SMALL)
    save_segments(tmp_path, vocab, splits)
    lines = (tmp_path / "segments.jsonl").read_text().splitlines()
    lines[2] = lines[2][:-5]
    (tmp_path / "segments.jsonl").write_text("".join(l + "\n" for l in lines))
    with pytest.raises(DataError, match="segments.jsonl:3"):
        load_segments(tmp_path)



def test_iou4_matches_evaluate_iou_bit_for_bit():
    # the distractor test's scalar IoU must agree with the metric's exactly,
    # or generation could keep a box the metric scores at >= 0.5
    rng = np.random.default_rng(0)
    a = [_random_box(rng, 1000) for _ in range(5000)]
    b = [_random_box(rng, 1000) for _ in range(5000)]
    b[:50] = a[:50]                                  # identical boxes
    b[50:100] = [(x1, y1, x2, (y1 + y2) / 2) for x1, y1, x2, y2 in a[50:100]]
    scalar = np.array([_iou4(x, y) for x, y in zip(a, b)])
    assert np.array_equal(scalar, iou(np.array(a), np.array(b)))
    assert (scalar == 0).any() and (scalar == 1).any()


def test_iou_broadcasts_over_leading_axes():
    rng = np.random.default_rng(1)
    props = np.array([[_random_box(rng, 100) for _ in range(4)] for _ in range(3)])
    gt = np.array([_random_box(rng, 100) for _ in range(3)])
    got = iou(props, gt[:, None])
    assert got.shape == (3, 4)
    assert got.tolist() == [[_iou4(tuple(p), tuple(g)) for p in row]
                            for row, g in zip(props.tolist(), gt.tolist())]


# --------------------------------------------------------------------------
# load-time validation: each fault names segments.jsonl:<line> and the field.
# SMALL saves the test split first, so line 1 is a test segment with gt.

def _saved_with_edit(tmp_path, lineno, edit):
    vocab, splits = generate_synthetic(SMALL)
    save_segments(tmp_path, vocab, splits)
    path = tmp_path / "segments.jsonl"
    lines = path.read_text().splitlines()
    rec = json.loads(lines[lineno - 1])
    edit(rec)
    lines[lineno - 1] = json.dumps(rec)
    path.write_text("".join(l + "\n" for l in lines))
    return tmp_path


def _load_error(data_dir):
    with pytest.raises(DataError) as exc:
        load_segments(data_dir)
    return str(exc.value)


def test_load_rejects_label_outside_vocabulary(tmp_path):
    def edit(rec):
        rec["query_labels"][0] = 99
    err = _load_error(_saved_with_edit(tmp_path, 1, edit))
    assert "segments.jsonl:1: query_labels: [99] outside the 12 vocabulary.txt" in err


def test_load_rejects_gt_query_out_of_range(tmp_path):
    def edit(rec):
        rec["gt"][0]["query"] = len(rec["query_labels"])
    err = _load_error(_saved_with_edit(tmp_path, 2, edit))
    assert "segments.jsonl:2: gt.query:" in err


def test_load_rejects_gt_frame_out_of_range(tmp_path):
    def edit(rec):
        rec["gt"][0]["frame"] = 99
    err = _load_error(_saved_with_edit(tmp_path, 1, edit))
    assert "segments.jsonl:1: gt.frame: [99] outside the 6 frames" in err


# SMALL's segments hold 6 frames of 5 proposals: 30 rows each, 300 in all
@pytest.mark.parametrize("lineno, key, value, want", [
    (5, "row", 121, "segments.jsonl:5: row: 121, but the rows before it end at 120"),
    (5, "row", -1, "segments.jsonl:5: row: -1 is negative"),
    (5, "frames", 5, "segments.jsonl:6: row: 150, but the rows before it end at 145"),
    (10, "frames", 7, "segments.jsonl:10: frames: 7 frames of N=5 proposals run to "
     "row 305, past the 300 rows of features.json"),
    (10, "frames", 5, "segments.jsonl: its segments' rows end at 295, but "
     "features.json has rows 300"),
], ids=["row-gap", "row-negative", "frames-short", "frames-past-end",
        "rows-left-over"])
def test_load_rejects_rows_that_do_not_tile(tmp_path, lineno, key, value, want):
    def edit(rec):
        rec[key] = value
    assert want in _load_error(_saved_with_edit(tmp_path, lineno, edit))


# a float or bool where a JSON integer belongs, a bool or string where a
# box coordinate (a JSON number) belongs; each would otherwise load silently
# cast (6.5 as label 6, true as 1.0)
@pytest.mark.parametrize("field, path, value", [
    ("query_labels", ("query_labels", 0), 6.5),
    ("row", ("row",), 1.5),
    ("frames", ("frames",), 6.0),
    ("gt.query", ("gt", 0, "query"), 0.7),
    ("gt.frame", ("gt", 0, "frame"), True),
    ("gt.box", ("gt", 0, "box", 0), "253.45"),
], ids=["query_labels", "row", "frames", "gt.query", "gt.frame", "gt.box"])
def test_load_rejects_values_of_the_wrong_json_type(tmp_path, field, path, value):
    def edit(rec):
        for key in path[:-1]:
            rec = rec[key]
        rec[path[-1]] = value
    err = _load_error(_saved_with_edit(tmp_path, 1, edit))
    assert f"segments.jsonl:1: {field}: {value!r} is not a JSON " in err


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_load_refuses_non_finite_features(tmp_path, value):
    vocab, splits = generate_synthetic(SMALL)
    save_segments(tmp_path, vocab, splits)
    feats = np.fromfile(tmp_path / "features.bin", dtype="<f4").reshape(-1, 8)
    feats[70, 3] = value  # row 70 is segment 3's frame 2, proposal 0
    feats.tofile(tmp_path / "features.bin")
    err = _load_error(tmp_path)
    assert f"{tmp_path / 'features.bin'}: row 70: feature 3 is {np.float32(value)}, " \
        "not a finite number" in err


# SMALL saves its splits in sorted order: lines 1-3 are test, 4-7 train and
# 8-10 val records
@pytest.mark.parametrize("value", [5, ["test00000"], None])
def test_load_rejects_a_segment_id_that_is_not_a_string(tmp_path, value):
    def edit(rec):
        rec["segment_id"] = value
    err = _load_error(_saved_with_edit(tmp_path, 2, edit))
    assert f"segments.jsonl:2: segment_id: {value!r} is not a JSON string" in err


def test_load_rejects_a_repeated_segment_id(tmp_path):
    def edit(rec):
        rec["segment_id"] = "test00000"
    err = _load_error(_saved_with_edit(tmp_path, 9, edit))
    assert "segments.jsonl:9: segment_id: 'test00000' is already the id of line 1" in err


@pytest.mark.parametrize("value", [5, "dev", "Train", ["test"]])
def test_load_rejects_an_unknown_split(tmp_path, value):
    def edit(rec):
        rec["split"] = value
    err = _load_error(_saved_with_edit(tmp_path, 1, edit))
    assert f"segments.jsonl:1: split: {value!r} is not one of train, val, test" in err


@pytest.mark.parametrize("lineno, edit, want", [
    (1, lambda rec: rec.update(gt=None), "gt: null on a test record"),
    (8, lambda rec: rec.update(gt=None), "gt: null on a val record"),
    (4, lambda rec: rec.update(gt=[]), "gt: a list on a train record"),
    (2, lambda rec: rec.update(split="train"), "gt: a list on a train record"),
], ids=["test-null", "val-null", "train-list", "moved-to-train"])
def test_load_requires_gt_null_exactly_on_train_records(tmp_path, lineno, edit, want):
    err = _load_error(_saved_with_edit(tmp_path, lineno, edit))
    assert f"segments.jsonl:{lineno}: {want}, but gt is null exactly on train records" \
        in err


# the BoundingBox rules: zero width, inverted, negative coordinate, NaN,
# zero height, and the inverted box [5, 5, 1, 1]
BAD_BOXES = [[1, 0, 1, 1], [2, 0, 1, 1], [-1, 0, 1, 1], [math.nan, 0, 1, 1],
             [0, 1, 1, 1], [5, 5, 1, 1]]


def _saved_with_box(data_dir, row, box):
    vocab, splits = generate_synthetic(SMALL)
    save_segments(data_dir, vocab, splits)
    boxes = np.fromfile(data_dir / "boxes.bin", dtype="<f8").reshape(-1, 4)
    boxes[row] = box
    boxes.tofile(data_dir / "boxes.bin")
    return data_dir


def _set_gt_box(box):
    def edit(rec):
        rec["gt"][-1]["box"] = box
    return edit


def test_bounding_box_validation(tmp_path):
    # row 70 is segment 3's frame 2, proposal 0
    load_segments(_saved_with_box(tmp_path / "good", 70, [0, 0, 1, 1]))
    for i, box in enumerate(BAD_BOXES):
        data = _saved_with_box(tmp_path / f"p{i}", 70, box)
        err = _load_error(data)
        assert f"{data / 'boxes.bin'}: row 70: box " in err, box
        err = _load_error(_saved_with_edit(tmp_path / f"g{i}", 9, _set_gt_box(box)))
        assert "segments.jsonl:9: gt.box: " in err, box


@pytest.mark.parametrize("N, want", [
    (4, "segments.jsonl:2: row: 30, but the rows before it end at 24"),
    (6, "segments.jsonl:2: row: 30, but the rows before it end at 36"),
], ids=["N-4", "N-6"])
def test_load_rejects_an_n_that_does_not_tile_the_rows(tmp_path, N, want):
    # proposals per frame are one N for the whole dataset, so a segment whose
    # frames hold another count shows as rows that do not tile with N
    vocab, splits = generate_synthetic(SMALL)
    save_segments(tmp_path, vocab, splits)
    path = tmp_path / "features.json"
    path.write_text(json.dumps(dict(json.loads(path.read_text()), N=N)))
    err = _load_error(tmp_path)
    assert want in err and f"N={N} rows per frame" in err


# SMALL saves test, train, val in that order, so line 7 is the last train segment
@pytest.mark.parametrize("edit, want", [
    (lambda seg: dataclasses.replace(seg, query_labels=[]),
     "segments.jsonl:7: query_labels: [], but a segment needs at least one query"),
    (lambda seg: dataclasses.replace(seg, frames=seg.frames[:0]),
     "segments.jsonl:7: frames: 0, but a segment needs at least one frame"),
], ids=["no-query", "no-frame"])
def test_load_rejects_an_empty_segment(tmp_path, edit, want):
    vocab, splits = generate_synthetic(SMALL)
    splits["train"][-1] = edit(splits["train"][-1])
    save_segments(tmp_path, vocab, splits)
    assert want in _load_error(tmp_path)


def test_load_rejects_n_0_under_segments_with_frames(tmp_path):
    vocab, splits = generate_synthetic(SMALL)
    save_segments(tmp_path, vocab, {
        split: [dataclasses.replace(seg, frames=seg.frames[:, :0]) for seg in segments]
        for split, segments in splits.items()})
    assert ("segments.jsonl:1: frames: 6, but features.json has N=0 proposals per "
            "frame") in _load_error(tmp_path)


def test_a_dataset_without_segments_loads(tmp_path):
    vocab, _ = generate_synthetic(SMALL)
    save_segments(tmp_path, vocab, {})
    assert json.loads((tmp_path / "features.json").read_text())["N"] == 0
    assert load_segments(tmp_path) == (vocab, {})


def _listing(data_dir):
    return {p.name: p.read_bytes() for p in data_dir.iterdir()}


def test_failed_save_leaves_no_manifest_and_no_temp_file(tmp_path):
    vocab, splits = generate_synthetic(SMALL)
    _, wide = generate_synthetic(SMALL.replace(D_in=9))
    # the second test segment is 9 wide: the save raises after streaming rows
    broken = dict(splits, test=splits["test"][:1] + wide["test"][1:2])
    fresh = tmp_path / "fresh"
    with pytest.raises(DataError, match="'test00001': 5 proposals of dim 9 per frame, "
                                        "but the first segment has 5 of dim 8"):
        save_segments(fresh, vocab, broken)
    assert _listing(fresh) == {}
    # over an earlier dataset, a failed save leaves every file of it as it was
    kept = tmp_path / "kept"
    save_segments(kept, vocab, splits)
    before = _listing(kept)
    with pytest.raises(DataError):
        save_segments(kept, vocab, broken)
    assert _listing(kept) == before


def _same_records(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and all(
        np.array_equal(a[name], b[name]) for name in a.dtype.names)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 5),
       st.floats(0.05, 1.0), st.lists(st.integers(0, 3), min_size=3, max_size=3),
       st.integers(3, 10), st.integers(0, 2**31 - 1))
def test_dataset_round_trip(N, F, D_in, presence, sizes, V, seed):
    cfg = GroundingConfig(N=N, frames_per_segment=F, D_in=D_in, presence=presence,
                          train_segments=sizes[0], val_segments=sizes[1],
                          test_segments=sizes[2], V=V, max_objects=min(3, N, V),
                          seed=seed).validate()
    vocab, splits = generate_synthetic(cfg)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "a"), Path(tmp, "b")
        save_segments(first, vocab, splits)
        vocab2, loaded = load_segments(first)
        save_segments(second, vocab2, loaded)
        for name in DATASET_FILES:
            assert (first / name).read_bytes() == (second / name).read_bytes()
    assert vocab2.labels == vocab.labels
    assert {k: len(v) for k, v in loaded.items()} == \
        {k: len(v) for k, v in splits.items() if v}
    for split, segs in loaded.items():
        for a, b in zip(splits[split], segs):
            assert (a.segment_id, a.split, a.query_labels) == \
                (b.segment_id, b.split, b.query_labels)
            assert _same_records(a.frames, b.frames)
            assert (a.gt is None) == (b.gt is None)
            assert a.gt is None or _same_records(a.gt, b.gt)
