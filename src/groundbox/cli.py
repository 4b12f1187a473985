"""Command-line surface: gen-data, train, eval, gradcheck, compare.

Config precedence: CLI flag > config-file key > built-in default. The
optional GROUNDBOX_SEED environment variable overrides the seed unless
--seed is given explicitly. Exit codes: 0 success, 1 runtime failure,
2 usage error. Diagnostics go to stderr.
"""

import argparse
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from . import tensor as T
from .config import MODE_NAMES, ConfigError, GroundingConfig, parse_config_file
from .data import DataError, generate_synthetic, load_segments, save_segments
from .evaluate import EvalReport, per_class_delta, evaluate_model
from .gradcheck import finite_diff_check
from .model import GroundingModel, load_into_model
from .tensor import ShapeError
from .train import checkpoint_load, train

GRADCHECK_TOLERANCE = 1e-4

# Small instance keeps the finite-difference sweep under a minute. delta is
# lowered so the loss magnitude (and with it the cancellation noise of the
# central differences at step 1e-5) stays well below the 1e-4 tolerance.
GRADCHECK_DEFAULTS = dict(
    d=8, D_in=6, V=6, N=3, T=4, T_prime=2, min_objects=2, max_objects=2,
    attn_layers=2, attn_heads=3, attn_hidden=12,
    frames_per_segment=4, train_segments=2, val_segments=0, test_segments=0,
    dropout=0.0, batch=2, epochs=1, delta=0.01, seed=2,
)


def _build_parser():
    parser = argparse.ArgumentParser(prog="groundbox")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--lam", type=float, default=None)
        p.add_argument("--delta", type=float, default=None)
        p.add_argument("--T", type=int, default=None)
        p.add_argument("--N", type=int, default=None)

    p = sub.add_parser("gen-data", help="write a synthetic dataset")
    add_config_flags(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train one loss mode")
    add_config_flags(p)
    p.add_argument("--data", required=True)
    p.add_argument("--mode", choices=sorted(MODE_NAMES), default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True, help="path prefix (no extension)")
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=["val", "test"], default="test")
    p.add_argument("--out", required=True, help="report.json path")

    p = sub.add_parser("gradcheck",
                       help="finite-difference check of every loss mode")
    add_config_flags(p)

    p = sub.add_parser("compare", help="per-class accuracy deltas of two reports")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    return parser


def _config_from_args(args, extra_defaults=None):
    # precedence: flag > GROUNDBOX_SEED env (seed only) > file key > default;
    # an error names the file unless the flags and the env alone raise it
    defaults = dict(extra_defaults or {})
    from_file = parse_config_file(args.config) if getattr(args, "config", None) else {}
    overrides = {}
    if args.seed is None and "GROUNDBOX_SEED" in os.environ:
        try:
            overrides["seed"] = int(os.environ["GROUNDBOX_SEED"])
        except ValueError as exc:
            raise ConfigError(f"GROUNDBOX_SEED: {exc}") from exc
    for key in ("seed", "lam", "delta", "T", "N"):
        val = getattr(args, key, None)
        if val is not None:
            overrides[key] = val
    if getattr(args, "mode", None):
        overrides["mode"] = args.mode
    try:
        return GroundingConfig.from_dict({**defaults, **from_file, **overrides})
    except ConfigError as exc:
        try:
            GroundingConfig.from_dict({**defaults, **overrides})
        except ConfigError as bare:
            if str(bare) == str(exc):
                raise exc
        raise ConfigError(f"{args.config}: {exc}") from exc


def _load_dataset(data_dir, config, source):
    """load_segments, refusing a dataset whose V or D_in differs from source's."""
    vocab, splits = load_segments(data_dir)
    if vocab.size != config.V:
        raise DataError(f"{Path(data_dir) / 'vocabulary.txt'} holds {vocab.size} "
                        f"labels, but {source} has V={config.V}")
    dims = {seg.frames["feature"].shape[-1] for segs in splits.values() for seg in segs}
    if dims - {config.D_in}:
        raise DataError(f"{Path(data_dir) / 'features.json'}: dim {dims.pop()}, "
                        f"but {source} has D_in={config.D_in}")
    return vocab, splits


def _cmd_gen_data(args):
    config = _config_from_args(args)
    vocab, splits = generate_synthetic(config)
    save_segments(args.out, vocab, splits)
    print(f"wrote {sum(len(v) for v in splits.values())} segments to {args.out}",
          file=sys.stderr)
    return 0


def _cmd_train(args):
    config = _config_from_args(args)
    vocab, splits = _load_dataset(args.data, config, "the config")
    try:
        model, history = train(config, splits, out_dir=args.out)
    except DataError as exc:
        raise DataError(f"{args.data}: {exc}") from exc
    print(f"trained {config.mode.value} for {config.epochs} epochs; "
          f"final train_loss={history[-1][1]:.4f}", file=sys.stderr)
    return 0


def _cmd_eval(args):
    flat, config_dict = checkpoint_load(args.checkpoint)
    manifest = Path(args.checkpoint).with_suffix(".json")
    if config_dict is None:
        raise ValueError(f"{manifest}: checkpoint carries no config; cannot rebuild model")
    try:
        config = GroundingConfig.from_dict(config_dict)
    except ConfigError as exc:
        raise ConfigError(f"{manifest}: {exc}") from exc
    vocab, splits = _load_dataset(args.data, config, manifest)
    samples = splits.get(args.split, [])
    if not any(len(seg.gt) for seg in samples):
        raise DataError(f"{args.data}: the {args.split} split holds no gt record "
                        "to evaluate against")
    model = GroundingModel(config, np.random.default_rng(config.seed))
    try:
        load_into_model(model, flat)
    except ShapeError as exc:
        raise ShapeError(f"{manifest}: {exc}") from exc
    report = evaluate_model(model, samples, vocab=vocab)
    report.save(args.out, mode=config.mode.value, split=args.split)
    print(f"{args.split} macro accuracy {report.macro_accuracy:.4f} "
          f"(upper bound {report.upper_bound:.4f})", file=sys.stderr)
    return 0


def gradcheck_all_modes(config=None, step=1e-5):
    """Run finite_diff_check on every loss mode; returns {mode: (err, name)}.

    Uses a deterministic synthetic instance with dropout off and the first
    T frames of each segment, the last repeated. The loss is the mean over a
    batch of two segments with different query counts: the first train
    segment cut to one query and the second train segment whole. Both take
    the next ``negatives`` train segments as visual negatives, and as
    sentence negatives ``negatives`` lists of up to O labels they do not
    hold, the j-th from the j-th such label on.
    """
    from .config import LossMode

    base = GroundingConfig.from_dict(GRADCHECK_DEFAULTS) if config is None else config
    results = {}
    for mode in LossMode:
        cfg = base.replace(mode=mode, dropout=0.0, train_segments=max(
            base.train_segments, 2 + base.negatives)).validate()
        rng = np.random.default_rng(cfg.seed)
        vocab, splits = generate_synthetic(cfg, seed=cfg.seed + 1)
        first, second = splits["train"][:2]
        segs = [dataclasses.replace(first, query_labels=first.query_labels[:1]), second]
        negs = splits["train"][2:2 + cfg.negatives]
        model = GroundingModel(cfg, rng)
        batch = []
        for seg in segs:
            others = [lab for lab in range(cfg.V) if lab not in seg.query_labels]
            neg_labels = [others[j % len(others):][: len(seg.query_labels)]
                          for j in range(cfg.negatives)]
            frame_indices = list(range(min(cfg.T, seg.n_frames)))
            frame_indices += [frame_indices[-1]] * (cfg.T - len(frame_indices))
            batch.append((seg, negs, neg_labels, frame_indices))

        def f():
            return T.mean_all(model.segment_loss(batch))

        results[mode] = finite_diff_check(f, model.params(), step=step)
    return results


def _cmd_gradcheck(args):
    config = _config_from_args(args, extra_defaults=GRADCHECK_DEFAULTS)
    results = gradcheck_all_modes(config)
    worst_mode, (worst_err, worst_name) = max(results.items(),
                                              key=lambda kv: kv[1][0])
    for mode, (err, name) in results.items():
        print(f"{mode.value}: max relative error {err:.3e} ({name})")
    ok = worst_err < GRADCHECK_TOLERANCE
    print(f"worst offender: {worst_mode.value} {worst_name} "
          f"err={worst_err:.3e} -> {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_compare(args):
    report_a, _ = EvalReport.load(args.a)
    report_b, _ = EvalReport.load(args.b)
    try:
        deltas = per_class_delta(report_a, report_b)
    except ValueError as exc:
        raise ValueError(f"{args.a} and {args.b}: {exc}") from exc
    print("top 10 increases (a - b):")
    for label, diff in deltas[:10]:
        print(f"  {label:>12s}  {diff:+.4f}")
    print("top 10 decreases (a - b):")
    for label, diff in deltas[-10:]:
        print(f"  {label:>12s}  {diff:+.4f}")
    return 0


_COMMANDS = {"gen-data": _cmd_gen_data, "train": _cmd_train, "eval": _cmd_eval,
             "gradcheck": _cmd_gradcheck, "compare": _cmd_compare}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:  # runtime failure -> exit 1, diagnostic on stderr
        print(f"groundbox {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
