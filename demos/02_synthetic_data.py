"""Generate a small synthetic grounding dataset and inspect its structure.

Each segment is a short clip with 1-3 query objects. Every query object has
one planted "true" proposal per frame of a contiguous span covering ~60% of
the frames; the remaining proposals are distractors whose boxes overlap no
true box above 0.5 IoU. Ground truth is attached to val/test only —
training is weakly supervised.
"""

from groundbox.config import GroundingConfig
from groundbox.data import generate_synthetic
from groundbox.evaluate import upper_bound

cfg = GroundingConfig(V=16, D_in=12, N=6, frames_per_segment=8,
                      train_segments=20, val_segments=5, test_segments=5,
                      sigma=0.2, seed=0).validate()
vocab, splits = generate_synthetic(cfg)

print("vocabulary:", ", ".join(vocab.labels))
seg = splits["val"][0]
print(f"\nsegment {seg.segment_id}: {seg.n_frames} frames, "
      f"{len(seg.frames[0])} proposals/frame")
print("query objects:", [vocab[i] for i in seg.query_labels])
for g in seg.gt[:6]:
    print(f"  gt: query {vocab[seg.query_labels[g.query]]:>6s} "
          f"frame {g.frame} box {[round(v, 1) for v in g.box.tolist()]}")

print("\ntrain segments carry no ground truth:",
      all(s.gt is None for s in splits["train"]))
print("proposal upper bound on val:", upper_bound(splits["val"], vocab))
