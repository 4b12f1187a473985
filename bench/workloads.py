"""The benchmark's workloads: one fixed config shape and mode each.

Sizes and epochs are chosen so that one training round takes a few seconds
on one BLAS thread, leaving room for several rounds, and so medians, within
a run. The seed is not part of a workload: it comes from the command line
and seeds both the synthetic data and the model.
"""

from dataclasses import dataclass, field

# Acceptance shape of criterion 3 (tests/test_acceptance.py).
SMALL_SHAPE = dict(d=32, D_in=16, V=20, N=10, T=5, T_prime=5, sigma=0.1, lr=2.0)

# Split sizes of the small workloads. The train-split size sets the cost of
# negative sampling, which scans the whole train pool on every call. Eval
# cost varies with the number of gt records, so the test split is large
# enough for that to average out between seeds: over seeds 201-210 the
# quartile spread of the test split's gt records is 0.05 at 150 segments.
SMALL_SIZES = dict(train_segments=300, val_segments=30, test_segments=300, epochs=2)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict = field(default_factory=dict)
    # test evaluations per round: one evaluation of a small test split is
    # too short to time on its own
    eval_repeats: int = 1
    # gate: test accuracy must beat the random-proposal baseline
    acc_gate: bool = False


WORKLOADS = {w.name: w for w in (
    Workload(
        name="paper-full",
        why=("paper shape (d=128, D_in=2048, N=20, T=5, 2x6-head attention) in "
             "mode full: BLAS-bound proposal MLP and the heaviest data layer"),
        config=dict(mode="full", train_segments=32, val_segments=8,
                    test_segments=32, epochs=1),
        eval_repeats=2,
    ),
    Workload(
        name="small-full",
        why=("criterion-3 shape (d=32, D_in=16, N=10, T=5) in mode full: Python "
             "tape overhead and the attention stack dominate"),
        config=dict(SMALL_SHAPE, mode="full", **SMALL_SIZES),
        eval_repeats=4,
        acc_gate=True,
    ),
    Workload(
        name="small-dvsa",
        why=("criterion-3 shape in mode dvsa: bypasses attention and the language "
             "head; negative sampling over a 300-segment pool is a large share"),
        config=dict(SMALL_SHAPE, mode="dvsa", **SMALL_SIZES),
        eval_repeats=4,
    ),
)}
