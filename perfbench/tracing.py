"""In-memory span recorder and the run-time wrappers that feed it.

Nothing under ``src/`` is edited: :class:`Instrumentation` replaces public
functions of ``mmfuse`` modules with timing wrappers while it is installed and
puts the originals back when it is removed. Each name is wrapped where its
caller looks it up (``training`` and ``cli`` import several functions by name).

Spans nest strictly because the program is single-threaded, so the recorder
keeps a stack of open spans and computes self time online: a span's self time
is its duration minus the durations of its direct children. Primitive ops run
thousands of times per step, so they are aggregated per name (calls, self
time) instead of being kept one record per call; every other span is kept.
"""

from __future__ import annotations

import functools
import json
import os
import time

import numpy as np

# Public primitives of mmfuse.autodiff.ops that some workload calls. Every
# layer reaches them through the ``ops`` module attribute, so wrapping the
# module attribute sees every forward call. sub, power, exp, log, sum_ and
# mean_ run in no workload; they would read 0 on every run, so they are left out.
PRIMITIVES = (
    "add", "mul", "matmul", "relu", "sigmoid", "tanh", "reshape", "concat",
    "tile_spatial", "conv2d", "dynamic_conv1x1", "avg_pool_spatial", "batch_norm",
    "dropout", "embedding", "softmax", "softmax_cross_entropy",
)

# The loss runs once per step; its spans are kept so the loss shows per step.
KEPT_PRIMITIVES = ("softmax_cross_entropy",)


class Span:
    __slots__ = ("id", "name", "run", "parent", "start", "end", "child_s", "nodes", "attrs")

    def __init__(self, span_id, name, run, parent, start):
        self.id = span_id
        self.name = name
        self.run = run
        self.parent = parent
        self.start = start
        self.end = None
        self.child_s = 0.0
        self.nodes = 0  # tape nodes created while this span was open
        self.attrs = None

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s

    def to_json(self):
        return {
            "id": self.id, "name": self.name, "run": self.run, "parent": self.parent,
            "start": self.start, "end": self.end, "self": self.self_s,
            "nodes": self.nodes, **(self.attrs or {}),
        }


class SpanRecorder:
    """Spans with name, start, end, parent span and run id, kept in memory."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.run = 0
        self.op_calls = {}
        self.op_self_s = {}
        self._next_id = 0
        self._last_node = None

    def begin(self, name):
        parent = self.stack[-1].id if self.stack else None
        span = Span(self._next_id, name, self.run, parent, time.perf_counter())
        self._next_id += 1
        self.stack.append(span)
        return span

    def end(self, keep=True):
        span = self.stack.pop()
        span.end = time.perf_counter()
        if self.stack:
            self.stack[-1].child_s += span.duration
        if keep:
            self.spans.append(span)
        else:
            self.op_calls[span.name] = self.op_calls.get(span.name, 0) + 1
            self.op_self_s[span.name] = self.op_self_s.get(span.name, 0.0) + span.self_s
        return span

    def end_until(self, span):
        """Close every span opened above ``span`` (left open by an early return)."""
        while self.stack and self.stack[-1] is not span:
            self.end()

    def current_name(self):
        return self.stack[-1].name if self.stack else None

    def count_node(self, tensor):
        """Count an op output that joins the tape (it has ``requires_grad``).

        A composite primitive returns the output of the last primitive it
        called; that tensor is counted once.
        """
        if not getattr(tensor, "requires_grad", False) or tensor is self._last_node:
            return
        self._last_node = tensor
        for span in self.stack:
            span.nodes += 1

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json()) + "\n")


class Instrumentation:
    """Install and remove the timing wrappers around mmfuse's public functions."""

    def __init__(self, recorder):
        self.recorder = recorder
        self._saved = []

    def _replace(self, owner, attr, wrapper):
        original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        replacement = wrapper(original)
        if isinstance(owner, dict):
            owner[attr] = replacement
        else:
            setattr(owner, attr, replacement)

    def _span(self, owner, attr, name, on_exit=None):
        rec = self.recorder

        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                span = rec.begin(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec.end_until(span)
                    rec.end()
                if on_exit is not None:
                    on_exit(span, args, result)
                return result

            return wrapper

        self._replace(owner, attr, wrap)

    def _op(self, module, attr):
        rec = self.recorder
        name = "ops." + attr
        keep = attr in KEPT_PRIMITIVES

        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                rec.begin(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    rec.end(keep)
                rec.count_node(out)
                return out

            return wrapper

        self._replace(module, attr, wrap)

    def _batch(self, model_data_cls):
        """``ModelData.subset``; inside ``train`` it also opens the step span.

        A training step runs subset -> forward -> loss -> backward -> adam_step,
        so the step span opens before the batch is taken and closes when
        ``adam_step`` returns (see :meth:`install`).
        """
        rec = self.recorder

        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if rec.current_name() == "training.train":
                    rec.begin("training.step")
                rec.begin("training.batch")
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec.end()

            return wrapper

        self._replace(model_data_cls, "subset", wrap)

    def install(self):
        from mmfuse import cli, dataset, evaluation, fusion, synth, training
        from mmfuse.autodiff import ops
        from mmfuse.encoders import text, vision

        rec = self.recorder

        def close_step(span, args, result):
            if rec.current_name() == "training.step":
                rec.end()

        def checkpoint_size(span, args, result):
            span.attrs = {"bytes": os.path.getsize(args[0])}

        self._batch(training.ModelData)
        for owner in (training, cli):
            self._span(owner, "train", "training.train")
            self._span(owner, "score_dataset", "training.score")
        self._span(training, "backward", "autodiff.backward")
        self._span(training, "adam_step", "optim.adam", on_exit=close_step)
        self._span(text.TextEncoder, "encode", "text.encode")
        self._span(vision.VisionBackbone, "__call__", "vision.backbone")
        self._span(fusion.FusionHead, "__call__", "fusion.head")
        self._span(evaluation, "evaluate", "evaluation.evaluate")
        self._span(cli, "save_arrays", "checkpoint.save", on_exit=checkpoint_size)
        self._span(cli, "load_arrays", "checkpoint.load")
        self._span(cli, "load_split", "cli.load_split")
        self._span(cli, "write_manifest", "cli.manifest")
        for verb in ("synth", "train", "eval"):
            self._span(cli.COMMANDS, verb, "cli.verb." + verb)
        self._span(dataset, "export_corpus", "dataset.export")
        self._span(dataset, "import_corpus", "dataset.import")
        self._span(dataset, "label_corpus", "dataset.label")
        self._span(synth, "generate", "synth.generate")
        self._span(synth, "to_records", "synth.to_records")
        for prim in PRIMITIVES:
            self._op(ops, prim)

    def remove(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics from the recorded spans

STEP_LAYERS = {
    "training.batch_ms": "training.batch",
    "text.encode_ms": "text.encode",
    "vision.backbone_ms": "vision.backbone",
    "fusion.head_ms": "fusion.head",
    "training.loss_ms": "ops.softmax_cross_entropy",
    "autodiff.backward_ms": "autodiff.backward",
    "optim.adam_ms": "optim.adam",
}

CYCLE_LAYERS = {
    "dataset.export_ms": "dataset.export",
    "dataset.import_ms": "dataset.import",
    "dataset.label_ms": "dataset.label",
    "synth.generate_ms": "synth.generate",
    "synth.to_records_ms": "synth.to_records",
    "cli.load_split_ms": "cli.load_split",
    "cli.manifest_ms": "cli.manifest",
    "evaluation.evaluate_ms": "evaluation.evaluate",
}


def layer_metrics(recorder, cycles):
    """Reduce the spans of ``cycles`` traced cycles to the per-layer metrics.

    Per-step figures are medians over training steps; per-cycle figures are
    totals divided by the number of traced cycles. Layers that did not run
    report 0.
    """
    spans = recorder.spans
    by_id = {s.id: s for s in spans}
    steps = [s for s in spans if s.name == "training.step"]
    step_of = {}
    for span in spans:
        parent = span.parent
        while parent is not None and by_id[parent].name != "training.step":
            parent = by_id[parent].parent
        if parent is not None:
            step_of[span.id] = parent

    per_step = {key: {s.id: 0.0 for s in steps} for key in STEP_LAYERS}
    text_nodes = {s.id: 0 for s in steps}
    for span in spans:
        step = step_of.get(span.id)
        if step is None:
            continue
        for key, name in STEP_LAYERS.items():
            if span.name == name:
                per_step[key][step] += span.duration
        if span.name == "text.encode":
            text_nodes[step] += span.nodes

    def median(values, scale=1.0):
        return float(np.median(values)) * scale if len(values) else 0.0

    m = {}
    durations = [s.duration for s in steps]
    m["training.step_ms.p50"] = median(durations, 1e3)
    m["training.step_ms.p90"] = float(np.percentile(durations, 90)) * 1e3 if steps else 0.0
    m["training.unaccounted_ms"] = median([s.self_s for s in steps], 1e3)
    for key, values in per_step.items():
        m[key] = median(list(values.values()), 1e3)
    m["text.tape_nodes"] = median(list(text_nodes.values()))
    m["autodiff.tape_nodes"] = median([s.nodes for s in steps])

    trains = [s for s in spans if s.name == "training.train"]
    val_scores = [
        s for s in spans if s.name == "training.score" and s.parent is not None
        and by_id[s.parent].name == "training.train"
    ]
    m["training.val_score_ms"] = (
        sum(s.duration for s in val_scores) / len(trains) * 1e3 if trains else 0.0
    )
    scores = [s for s in spans if s.name == "training.score"]
    score_ids = {s.id for s in scores}
    score_batches = sum(
        1 for s in spans if s.name == "training.batch" and s.parent in score_ids
    )
    m["autodiff.eval_tape_nodes"] = (
        sum(s.nodes for s in scores) / score_batches if score_batches else 0.0
    )

    saves = [s for s in spans if s.name == "checkpoint.save"]
    loads = [s for s in spans if s.name == "checkpoint.load"]
    m["checkpoint.save_ms"] = median([s.duration for s in saves], 1e3)
    m["checkpoint.load_ms"] = median([s.duration for s in loads], 1e3)
    m["checkpoint.mb"] = median([s.attrs["bytes"] for s in saves], 1e-6)
    for key, name in CYCLE_LAYERS.items():
        m[key] = sum(s.duration for s in spans if s.name == name) / cycles * 1e3
    for prim in PRIMITIVES:
        name = "ops." + prim
        kept = [s for s in spans if s.name == name]
        calls = recorder.op_calls.get(name, 0) + len(kept)
        self_s = recorder.op_self_s.get(name, 0.0) + sum(s.self_s for s in kept)
        m[f"ops.{prim}.ms"] = self_s / cycles * 1e3
        m[f"ops.{prim}.calls"] = calls / cycles
    return m
