"""Read the paper's claims over seeds, the data seed apart from the model seed.

    python tools/claims.py --seeds 0-19 --out claims.json

For each seed s the data come from generate_synthetic(cfg, seed=1000 + s) and
the model from seed s. Criterion 4's config (tests/test_acceptance.py) runs
in all four modes, criterion 5's in loss-weight and dvsa at T=5 and T=20.
Each seed's test accuracies print as they come; then each claim prints the
mean, median, wins and bootstrap 95% interval of its paired differences
over the seeds, and the whole reading is written to --out as JSON. It runs
at one BLAS thread, as bench/run.py does, so its figures compare with the
acceptance criteria's; about 8 s per seed on one core.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DATA_SEED_OFFSET = 1000
BOOTSTRAP_SEED = 0
BOOTSTRAP_RESAMPLES = 10000

CRITERION_4 = dict(d=32, D_in=16, V=20, N=10, T=5, T_prime=5, sigma=1.0, presence=0.6,
                   train_segments=200, val_segments=50, test_segments=50, epochs=12,
                   lr=2.0)
CRITERION_5 = dict(d=32, D_in=16, V=20, N=10, T_prime=5, sigma=2.0, presence=0.6,
                   frames_per_segment=20, train_segments=150, val_segments=40,
                   test_segments=40, epochs=10, lr=2.0)
# run name -> its config fields
RUNS = {
    **{mode: dict(CRITERION_4, mode=mode)
       for mode in ("full", "obj-interact", "loss-weight", "dvsa")},
    **{f"{mode} T={T}": dict(CRITERION_5, mode=mode, T=T)
       for mode in ("loss-weight", "dvsa") for T in (5, 20)},
}
# claim -> its paired difference, from one seed's {run name: accuracy}
CLAIMS = {
    "full - loss-weight": lambda acc: acc["full"] - acc["loss-weight"],
    "obj-interact - loss-weight": lambda acc: acc["obj-interact"] - acc["loss-weight"],
    "loss-weight - dvsa": lambda acc: acc["loss-weight"] - acc["dvsa"],
    "dvsa drop - loss-weight drop": lambda acc: (acc["dvsa T=5"] - acc["dvsa T=20"])
    - (acc["loss-weight T=5"] - acc["loss-weight T=20"]),
}


def seed_range(text):
    """'a-b' as range(a, b + 1); a single integer as a one-seed range."""
    first, _, last = text.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    if not seeds:
        raise argparse.ArgumentTypeError(f"{text!r} is not a range a-b of seeds with a <= b")
    return seeds


def seed_accuracies(seed):
    """{run name: test macro accuracy} of every run in RUNS at model seed seed."""
    from groundbox.config import GroundingConfig
    from groundbox.data import generate_synthetic
    from groundbox.evaluate import evaluate_model
    from groundbox.train import train

    accs = {}
    for name, fields in RUNS.items():
        cfg = GroundingConfig(**fields, seed=seed).validate()
        vocab, splits = generate_synthetic(cfg, seed=DATA_SEED_OFFSET + seed)
        model, _ = train(cfg, splits)
        accs[name] = evaluate_model(model, splits["test"], vocab=vocab).macro_accuracy
    return accs


def summarize(accs):
    """{claim: mean, median, wins, n and the bootstrap 95% interval (ci_low,
    ci_high) of its paired differences}, from a list of per-seed {run name:
    accuracy}. Wins count the seeds where the difference is above 0; the
    interval resamples seeds BOOTSTRAP_RESAMPLES times from BOOTSTRAP_SEED."""
    import numpy as np

    summary = {}
    for claim, difference in CLAIMS.items():
        d = np.array([difference(acc) for acc in accs])
        rng = np.random.default_rng(BOOTSTRAP_SEED)
        means = d[rng.integers(len(d), size=(BOOTSTRAP_RESAMPLES, len(d)))].mean(axis=1)
        low, high = np.percentile(means, [2.5, 97.5])
        summary[claim] = {"mean": float(d.mean()), "median": float(np.median(d)),
                          "wins": int((d > 0).sum()), "n": len(d),
                          "ci_low": float(low), "ci_high": float(high)}
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(prog="tools/claims.py")
    parser.add_argument("--seeds", type=seed_range, required=True,
                        help="model seeds a-b; the data seed is 1000 + the model seed")
    parser.add_argument("--out", required=True, help="JSON file to write the reading to")
    args = parser.parse_args(argv)
    # OpenBLAS reads its thread count once, when numpy first loads it.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from groundbox.data import replacing

    accs = []
    for seed in args.seeds:
        accs.append(seed_accuracies(seed))
        print(f"seed {seed}: " + ", ".join(f"{name} {acc:.3f}"
                                           for name, acc in accs[-1].items()), flush=True)
    summary = summarize(accs)
    for claim, s in summary.items():
        print(f"{claim}: mean {s['mean']:+.3f} [{s['ci_low']:+.3f}, {s['ci_high']:+.3f}], "
              f"median {s['median']:+.3f}, {s['wins']}/{s['n']} wins")
    reading = {"data_seed_offset": DATA_SEED_OFFSET, "seeds": list(args.seeds),
               "accuracies": accs, "claims": summary}
    with replacing(args.out) as (tmp,):
        tmp.write_text(json.dumps(reading, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
