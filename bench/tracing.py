"""Spans and counts for the traced benchmark run, recorded from outside the
program by wrapping groundbox's public functions.

Each wrapper records a span (name, start, end, parent) in memory. The name's
prefix before the first dot is the layer the span belongs to. Counts are
taken at the same boundaries: tape nodes per op name, computed matmul FLOPs,
proposal rows, segments generated, saved and loaded, and bytes written.

Wrappers are installed only inside ``Tracer.installed()`` and the original
bindings are restored on exit, so an untraced run executes the program
unchanged.
"""

import functools
import importlib
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

# ``groundbox/__init__.py`` rebinds the attribute ``groundbox.train`` to the
# train *function*, so ``import groundbox.train as m`` yields the function.
# import_module returns the module object from sys.modules.
gb_attention = importlib.import_module("groundbox.attention")
gb_data = importlib.import_module("groundbox.data")
gb_encoders = importlib.import_module("groundbox.encoders")
gb_evaluate = importlib.import_module("groundbox.evaluate")
gb_grounding = importlib.import_module("groundbox.grounding")
gb_model = importlib.import_module("groundbox.model")
gb_tensor = importlib.import_module("groundbox.tensor")
gb_train = importlib.import_module("groundbox.train")

# Every op name tensor.py records on the tape; anything else counts as "other".
TAPE_OPS = ("add", "sub", "mul", "scale", "shift", "matmul", "transpose",
            "reshape", "concat", "take", "add_rowvec", "sigmoid", "relu", "log",
            "clamp_min", "softmax_rows", "max_last", "mean_all", "sum_all",
            "mean_axis0", "layer_norm", "dropout")

LOSS_FUNCTIONS = ("frame_ranking_loss", "dvsa_segment_loss",
                  "weighted_segment_loss", "language_weighted_segment_loss",
                  "combined_segment_loss")


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self._stack = []
        self.counts = Counter()
        self.tape_ops = Counter()
        self._tape_depth = 0

    def _open(self, name):
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def wrap(self, name, fn, after=None):
        """fn inside a span called name; after(result, *args, **kw) counts work."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if after is not None:
                after(result, *args, **kwargs)
            return result
        return traced

    def _tape_class(self):
        tracer = self

        class CountingTape(gb_tensor.Tape):
            """One instance per training segment: the forward+backward block."""

            def __enter__(self):
                tracer._open("train.segment")
                tracer._tape_depth += 1
                return super().__enter__()

            def __exit__(self, *exc):
                result = super().__exit__(*exc)
                tracer._tape_depth -= 1
                tracer.counts["tapes"] += 1
                tracer.tape_ops.update(node.name for node in self.nodes)
                tracer._close()
                return result

        return CountingTape

    def _counting_matmul(self, matmul):
        def counted(a, b):
            out = matmul(a, b)
            if self._tape_depth:
                (m, k), n = a.data.shape, b.data.shape[1]
                self.counts["matmul_flop"] += 2 * m * k * n
            return out
        return counted

    def _replacements(self):
        """(owner, attribute, replacement) for every binding the trace patches.

        A name is patched where its caller looks it up at call time:
        - train.py imports Tape, backward, sample_negative_sentence and
          evaluate_model by name, and train() finds checkpoint_save in its
          own module, so these are replaced in the groundbox.train namespace;
        - model.py calls grounding through the module (G.similarity_cube), so
          grounding functions are replaced on the grounding module;
        - Tensor.__matmul__ and every T.matmul call resolve
          groundbox.tensor.matmul at call time, so one replacement there also
          catches ``@``;
        - methods are replaced on their classes.
        The benchmark itself calls gen/save/load, train, checkpoint_load,
        load_into_model and evaluate_model through their modules.
        """
        count = self.counts

        def segs(splits):
            return sum(len(v) for v in splits.values())

        def on_gen(result, config, seed=None):
            count["data.gen_segments"] += segs(result[1])

        def on_save(result, out_dir, vocab, splits):
            count["data.save_segments"] += segs(splits)
            count["data.bytes_written"] += sum(
                f.stat().st_size for f in Path(out_dir).iterdir() if f.is_file())

        def on_load(result, data_dir):
            count["data.load_segments"] += segs(result[1])

        def on_proposals(result, *args, **kwargs):
            count["encoders.proposal_rows"] += result.data.shape[0]

        def on_evaluate(result, model, samples, *args, **kwargs):
            count["evaluate.segments"] += len(samples)

        w = self.wrap
        out = [
            (gb_data, "generate_synthetic",
             w("data.gen", gb_data.generate_synthetic, on_gen)),
            (gb_data, "save_segments", w("data.save", gb_data.save_segments, on_save)),
            (gb_data, "load_segments", w("data.load", gb_data.load_segments, on_load)),
            (gb_train, "sample_negative_sentence",
             w("data.neg_sample", gb_train.sample_negative_sentence)),
            (gb_encoders.ProposalEncoder, "encode",
             w("encoders.proposal", gb_encoders.ProposalEncoder.encode, on_proposals)),
            (gb_encoders.QueryEncoder, "encode",
             w("encoders.query", gb_encoders.QueryEncoder.encode)),
            (gb_attention.MultiHeadAttentionStack, "forward",
             w("attention.stack", gb_attention.MultiHeadAttentionStack.forward)),
            (gb_attention, "scaled_dot_attention",
             w("attention.head", gb_attention.scaled_dot_attention)),
            (gb_grounding, "similarity_cube",
             w("grounding.cube", gb_grounding.similarity_cube)),
            (gb_grounding, "language_confidence",
             w("grounding.lang_head", gb_grounding.language_confidence)),
            (gb_model.GroundingModel, "segment_loss",
             w("model.forward", gb_model.GroundingModel.segment_loss)),
            (gb_model.GroundingModel, "predict",
             w("model.predict", gb_model.GroundingModel.predict)),
            (gb_model, "load_into_model",
             w("model.load", gb_model.load_into_model)),
            (gb_tensor, "matmul", self._counting_matmul(gb_tensor.matmul)),
            (gb_train, "Tape", self._tape_class()),
            (gb_train, "backward", w("tensor.backward", gb_train.backward)),
            (gb_train, "train", w("train.loop", gb_train.train)),
            (gb_train, "evaluate_model",
             w("train.val", gb_train.evaluate_model, on_evaluate)),
            (gb_train, "checkpoint_save",
             w("train.checkpoint", gb_train.checkpoint_save)),
            (gb_train, "checkpoint_load",
             w("evaluate.checkpoint_load", gb_train.checkpoint_load)),
            (gb_evaluate, "evaluate_model",
             w("evaluate.model", gb_evaluate.evaluate_model, on_evaluate)),
            (gb_evaluate, "box_accuracy",
             w("evaluate.tally", gb_evaluate.box_accuracy)),
            (gb_evaluate, "upper_bound",
             w("evaluate.tally", gb_evaluate.upper_bound)),
        ]
        for method in ("zero_grad", "lookahead", "step"):
            out.append((gb_train.NesterovSGD, method,
                        w(f"train.{method}", getattr(gb_train.NesterovSGD, method))))
        for fn in LOSS_FUNCTIONS:
            out.append((gb_grounding, fn, w("grounding.loss", getattr(gb_grounding, fn))))
        return out

    @contextmanager
    def installed(self):
        """Install every wrapper; restore the original bindings on exit."""
        saved = []
        try:
            for owner, attr, replacement in self._replacements():
                saved.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def summary(self):
        """Per span name: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, total, own = Counter(), Counter(), Counter()
        for (name, start, end, _), c in zip(self.spans, child):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - c
        return calls, total, own

    def layer_self_seconds(self):
        """Self time summed per layer (span-name prefix before the first dot)."""
        _, _, own = self.summary()
        layers = Counter()
        for name, seconds in own.items():
            layers[name.split(".", 1)[0]] += seconds
        return dict(layers)

    def seg_ms(self):
        """Forward+backward milliseconds of every training segment, in order."""
        return [1e3 * (end - start) for name, start, end, _ in self.spans
                if name == "train.segment"]
