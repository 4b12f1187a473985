"""The measured pipeline: gen-data -> train -> eval through the public
functions the groundbox CLI calls, in CLI order, all in this process.

One client, closed loop: each step starts when the previous one returns.
Every groundbox call goes through its module attribute, so the wrappers that
tracing.Tracer installs are the ones called.
"""

import ctypes
import gc
import json
import math
import resource
import statistics
import time
import traceback

import numpy as np

from groundbox import GroundingConfig

from tracing import TAPE_OPS, gb_data, gb_evaluate, gb_model, gb_train

SETUP_REPEATS = 3   # setup_s is the median of these
MIN_ROUNDS = 3      # train+eval rounds of an untraced run, whatever --seconds is
TRACE_ROUNDS = 2    # a traced run does fixed work, so its counts repeat exactly


def _malloc_trim():
    """glibc's malloc_trim, or None where the C library has none."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


MALLOC_TRIM = _malloc_trim()


def release_freed_memory():
    """Collect garbage and hand freed heap pages back to the OS.

    Each groundbox command runs in a fresh process, so memory one phase
    frees is not resident in the next. Without the trim, pages an earlier
    phase freed stay resident in whatever pattern the allocator left them,
    and peak RSS at the paper shape moved by 90 MB between processes.
    """
    gc.collect()
    if MALLOC_TRIM is not None:
        MALLOC_TRIM(0)


def setup(config, data_dir):
    """gen-data, then the load the train command starts with, then the model."""
    vocab, splits = gb_data.generate_synthetic(config)
    gb_data.save_segments(data_dir, vocab, splits)
    vocab, loaded = gb_data.load_segments(data_dir)
    gb_model.GroundingModel(config, np.random.default_rng(config.seed))
    return splits, vocab, loaded


def evaluate(checkpoint, samples, vocab):
    """What the eval command does after loading the data."""
    flat, config_dict = gb_train.checkpoint_load(checkpoint)
    config = GroundingConfig.from_dict(config_dict)
    model = gb_model.GroundingModel(config, np.random.default_rng(config.seed))
    gb_model.load_into_model(model, flat)
    return gb_evaluate.evaluate_model(model, samples, vocab=vocab)


def _segment_bytes(seg):
    return b"".join(p.feature.tobytes() for frame in seg.frames for p in frame)


def same_features(generated, loaded):
    """Whether every proposal feature came back from disk byte for byte."""
    return generated.keys() == loaded.keys() and all(
        len(generated[k]) == len(loaded[k])
        and all(_segment_bytes(a) == _segment_bytes(b)
                for a, b in zip(generated[k], loaded[k]))
        for k in generated)


def random_baseline(samples, vocab, n_proposals, seed):
    """Test accuracy of a uniformly random proposal choice (about 1/N)."""
    rng = np.random.default_rng(seed)
    predictions = {(s.segment_id, g.query, g.frame):
                   s.frames[g.frame][int(rng.integers(n_proposals))].box
                   for s in samples for g in s.gt}
    return gb_evaluate.box_accuracy(samples, predictions, vocab).macro_accuracy


class Bench:
    """One benchmark run of one workload: its phases, gates and outcome counts.

    attempted/failed count segment operations: one per training segment per
    epoch and one per evaluated test segment. A phase that raises or fails a
    gate counts all its segments as failed; a run that cannot go on counts
    the segments of the round it could not run.
    """

    def __init__(self, workload, seed, work_dir):
        self.workload = workload
        self.config = GroundingConfig.from_dict(dict(workload.config, seed=seed))
        self.data_dir = work_dir / "data"
        self.checkpoint = work_dir / "run" / "checkpoint"
        self.train_ops = self.config.train_segments * self.config.epochs
        self.eval_ops = self.config.test_segments
        self.round_ops = self.train_ops + self.eval_ops * workload.eval_repeats
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.splits = self.vocab = None
        self.baseline = None
        self.test_acc = None

    @property
    def correct(self):
        return not self.failures

    def fail(self, what, ops):
        self.failed += ops
        self.failures.append(what)

    def _phase(self, name, ops, fn, *args, **kwargs):
        """(result, seconds) of fn, or (None, None) after counting a failure."""
        self.attempted += ops
        # garbage of earlier phases is not collected on this one's clock
        release_freed_memory()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:  # the run goes on to report the failure
            traceback.print_exc()
            self.fail(f"{name} raised", ops)
            return None, None
        return result, time.perf_counter() - start

    def skip(self, what, ops):
        """Segments that cannot run because an earlier phase failed."""
        self.attempted += ops
        self.fail(what, ops)

    def setup(self):
        """Set up once; returns seconds, or None if it failed (run aborted)."""
        self.splits = self.vocab = None  # no earlier data set adds to peak RSS
        out, seconds = self._phase("setup", 0, setup, self.config, self.data_dir)
        if out is None:
            return None
        generated, self.vocab, self.splits = out
        if not same_features(generated, self.splits):
            self.fail("save->load changed feature bytes", 0)
            return None
        if self.workload.acc_gate and self.baseline is None:
            self.baseline = random_baseline(self.splits["test"], self.vocab,
                                            self.config.N, self.config.seed)
        return seconds

    def train(self):
        """Train once; returns (history, seconds) or (None, None)."""
        out, seconds = self._phase(
            "train", self.train_ops, lambda: gb_train.train(
                self.config, self.splits, out_dir=self.checkpoint.parent))
        if out is None:
            return None, None
        history = out[1]
        if not all(math.isfinite(loss) for _, loss, _ in history):
            self.fail("non-finite train loss", self.train_ops)
        return history, seconds

    def evaluate(self):
        """Evaluate the checkpoint on the test split; returns seconds or None."""
        report, seconds = self._phase("eval", self.eval_ops, evaluate,
                                      self.checkpoint, self.splits["test"], self.vocab)
        if report is None:
            return None
        acc = report.macro_accuracy
        if report.upper_bound != 1.0:
            self.fail(f"test upper bound {report.upper_bound} != 1.0", self.eval_ops)
        if self.baseline is not None and not acc > self.baseline:
            self.fail(f"test_acc {acc} not above random baseline {self.baseline}",
                      self.eval_ops)
        if self.test_acc is not None and acc != self.test_acc:
            self.fail(f"test_acc {acc} differs from the earlier {self.test_acc}",
                      self.eval_ops)
        self.test_acc = acc
        return seconds

    def run_round(self):
        """Train, then evaluate eval_repeats times.

        Returns (history, train seconds, [eval seconds]), or None if a phase
        raised.
        """
        history, train_s = self.train()
        evals = self.workload.eval_repeats
        if history is None:
            self.skip("eval not run", self.eval_ops * evals)
            return None
        eval_times = [self.evaluate() for _ in range(evals)]
        return None if None in eval_times else (history, train_s, eval_times)


def measure(bench, seconds):
    """Untraced run: end-to-end metrics, each a median over repeats."""
    setup_times = []
    for _ in range(SETUP_REPEATS):
        setup_times.append(bench.setup())
        if setup_times[-1] is None:
            bench.skip("no data set", bench.round_ops)
            return {}
    train_times, eval_times = [], []
    deadline = time.perf_counter() + seconds
    while len(train_times) < MIN_ROUNDS or time.perf_counter() < deadline:
        done = bench.run_round()
        if done is None:
            break
        train_times.append(done[1])
        eval_times.extend(done[2])
    if not train_times:
        return {}
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "train_seg_per_s": (bench.train_ops / statistics.median(train_times), "seg/s"),
        "eval_seg_per_s": (bench.eval_ops / statistics.median(eval_times), "seg/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "success_rate": ((bench.attempted - bench.failed) / bench.attempted, "share"),
    }


def trace(bench, tracer):
    """Traced run: fixed work, per-layer metrics from spans and counts.

    Each round trains once untraced, as the reference for the tracing
    overhead, then trains and evaluates traced.
    """
    with tracer.installed():
        ok = bench.setup() is not None
    if not ok:
        bench.skip("no data set", bench.round_ops)
        return {}
    plain, traced = [], []
    for _ in range(TRACE_ROUNDS):
        history, seconds = bench.train()
        if history is None:
            return {}
        plain.append(seconds)
        with tracer.installed():
            done = bench.run_round()
        if done is None:
            return {}
        traced.append(done[1])
        if done[0] != history:
            bench.fail("tracing changed the training history", bench.train_ops)
    overhead = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
    return layer_metrics(tracer, overhead, bench.test_acc)


def layer_metrics(tracer, overhead_pct, test_acc):
    calls, total, own = tracer.summary()
    count = tracer.counts
    steps = count["tapes"]                                   # training segments
    passes = calls["model.forward"] + calls["model.predict"]  # segments run through the model

    def per(value, n):
        return value / n if n else 0.0

    def ms(name, n):
        return per(1e3 * total[name], n)

    seg_ms = tracer.seg_ms()
    p50, p99 = (statistics.quantiles(seg_ms, n=100, method="inclusive")[i]
                for i in (49, 98))
    nodes = sum(tracer.tape_ops.values())
    other = nodes - sum(tracer.tape_ops[op] for op in TAPE_OPS)
    step_s = total["train.zero_grad"] + total["train.lookahead"] + total["train.step"]
    return {
        "tensor.nodes_per_seg": (per(nodes, steps), "count"),
        **{f"tensor.nodes.{op}": (per(tracer.tape_ops[op], steps), "count")
           for op in TAPE_OPS},
        "tensor.nodes.other": (per(other, steps), "count"),
        "tensor.matmul_gflop_per_seg": (per(count["matmul_flop"] / 1e9, steps),
                                        "GFLOP-computed"),
        "tensor.backward_ms_per_seg": (ms("tensor.backward", steps), "ms"),
        "encoders.proposal_ms_per_seg": (ms("encoders.proposal", passes), "ms"),
        "encoders.proposal_rows_per_seg": (per(count["encoders.proposal_rows"], passes),
                                           "count"),
        "encoders.query_ms_per_seg": (ms("encoders.query", passes), "ms"),
        "attention.ms_per_seg": (ms("attention.stack", steps), "ms"),
        "attention.calls_per_seg": (per(calls["attention.head"], steps), "count"),
        "grounding.cube_ms_per_seg": (ms("grounding.cube", passes), "ms"),
        "grounding.cubes_per_seg": (per(calls["grounding.cube"], passes), "count"),
        "grounding.loss_ms_per_seg": (ms("grounding.loss", steps), "ms"),
        "grounding.lang_head_ms_per_seg": (ms("grounding.lang_head", steps), "ms"),
        "model.forward_ms_per_seg": (ms("model.forward", steps), "ms"),
        "model.forward_self_ms_per_seg": (per(1e3 * own["model.forward"], steps), "ms"),
        "model.predict_ms_per_seg": (ms("model.predict", calls["model.predict"]), "ms"),
        "data.gen_ms_per_seg": (ms("data.gen", count["data.gen_segments"]), "ms"),
        "data.save_ms_per_seg": (ms("data.save", count["data.save_segments"]), "ms"),
        "data.load_ms_per_seg": (ms("data.load", count["data.load_segments"]), "ms"),
        "data.bytes_written": (per(count["data.bytes_written"], calls["data.save"]),
                               "bytes"),
        "data.neg_sample_ms_per_seg": (ms("data.neg_sample", steps), "ms"),
        "data.neg_sample_calls_per_seg": (per(calls["data.neg_sample"], steps), "count"),
        "train.seg_ms.p50": (p50, "ms"),
        "train.seg_ms.p99": (p99, "ms"),
        "train.seg_ms.n": (len(seg_ms), "count"),
        "train.step_ms_per_batch": (per(1e3 * step_s, calls["train.step"]), "ms"),
        "train.val_ms_per_epoch": (ms("train.val", calls["train.val"]), "ms"),
        "train.checkpoint_ms": (ms("train.checkpoint", calls["train.checkpoint"]), "ms"),
        "train.self_ms_per_seg": (per(1e3 * own["train.loop"], steps), "ms"),
        "evaluate.tally_ms_per_seg": (ms("evaluate.tally", count["evaluate.segments"]),
                                      "ms"),
        "evaluate.checkpoint_load_ms": (ms("evaluate.checkpoint_load",
                                           calls["evaluate.checkpoint_load"]), "ms"),
        "evaluate.test_acc": (test_acc, "fraction"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }


def write_trace(path, tracer, header):
    """Spans and their per-layer self time, written once the run is over."""
    calls, total, own = tracer.summary()
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**header,
                   "layer_self_s": tracer.layer_self_seconds(),
                   "spans_by_name": {name: {"calls": calls[name], "total_s": total[name],
                                            "self_s": own[name]} for name in calls},
                   "tape_ops": dict(tracer.tape_ops),
                   "counts": dict(tracer.counts),
                   "span_fields": ["name", "start", "end", "parent"],
                   "spans": tracer.spans}, fh, separators=(",", ":"))
