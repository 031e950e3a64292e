"""Span tracer for the traced runs: per-layer self time and counts.

The tracer wraps the public functions of seca's modules from outside the
package, so nothing under ``src/`` changes. Each wrapped call is a span
with a name, a start, an end and the span that called it. A span's self
time is its duration minus the time of the spans it calls directly.

Kernel ops (``seca.tensor``'s public functions) run about 50k times per
gradient-suite instance, so they are counted and timed but not stored one
by one; every other span is kept in memory up to ``SPAN_CAP`` and written
out when the run ends.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time

SPAN_CAP = 200_000

# The public ops of the autodiff kernel.
TENSOR_OPS = (
    "add", "mul", "div", "matmul", "ffn", "transpose", "reshape", "exp", "log",
    "tanh", "maximum0", "tsum", "tmean", "diag", "take_rows", "pick_rows",
    "col", "stack_cols", "concat_rows", "layernorm", "l2_normalize",
    "softmax_temp", "cosine_sim", "cross_entropy", "cross_entropy_rows",
    "kl_div", "kl_div_rows", "scalar",
)


def _rows(x) -> int:
    return int(getattr(x, "data", x).shape[0])


def _count_rows(key):
    def hook(counts, args, _out):
        counts[key] = counts.get(key, 0) + _rows(args[1])
    return hook


def _count_prunes(counts, _args, out):
    if out is not None:
        counts["sgakt.pool_prunes"] = counts.get("sgakt.pool_prunes", 0) + 1


def _count_ckpt_bytes(counts, args, _out):
    counts["trainer.ckpt_bytes"] = (counts.get("trainer.ckpt_bytes", 0)
                                    + os.path.getsize(args[0]))


# (module, attribute, span name, hook). Several functions may share one
# span name; their times and calls add up. ``cli.run_stream`` is patched in
# the cli module only, so it marks the leaves of a matrix and nothing else.
LAYER_FUNCS = (
    ("seca.tensor", "Tensor.backward", "tensor.backward", None),
    ("seca.tensor", "grad_check", "tensor.grad_check", None),
    ("seca.encoder", "VisualBackbone.forward", "encoder.backbone_forward",
     _count_rows("encoder.backbone_rows")),
    ("seca.encoder", "text_features", "encoder.text_features", None),
    ("seca.sgakt", "teacher_result", "sgakt.teacher", None),
    ("seca.sgakt", "pooled_views", "sgakt.pooled_views", None),
    ("seca.sgakt", "relevance_scores", "sgakt.relevance", None),
    ("seca.sgakt", "semantic_vectors", "sgakt.semantic_vectors", None),
    ("seca.sgakt", "loss_sgakt", "sgakt.distill_loss", None),
    ("seca.sgakt", "loss_agg", "sgakt.distill_loss", None),
    ("seca.sgakt", "AdapterPool.admit_and_prune", "sgakt.admit_and_prune",
     _count_prunes),
    ("seca.sevpr", "affinity_matrix", "sevpr.affinity", None),
    ("seca.sevpr", "refine_prototypes", "sevpr.refine", None),
    ("seca.sevpr", "loss_ce_v", "sevpr.ce_v", None),
    ("seca.sevpr", "loss_reg", "sevpr.reg", None),
    ("seca.sevpr", "raw_prototypes", "sevpr.prototypes", None),
    ("seca.sevpr", "adapted_prototypes", "sevpr.prototypes", None),
    ("seca.sevpr", "snapshot_prototypes", "sevpr.prototypes", None),
    ("seca.replay", "draw_pseudo_batch", "replay.draw", None),
    ("seca.replay", "replay_losses", "replay.losses", None),
    ("seca.replay", "fit_gaussians", "replay.fit", None),
    ("seca.trainer", "batch_loss", "trainer.batch_loss", None),
    ("seca.trainer", "Adam.step", "trainer.adam", None),
    ("seca.trainer", "train_task", "trainer.boundary", None),
    ("seca.trainer", "predict", "trainer.predict",
     _count_rows("trainer.predict_rows")),
    ("seca.trainer", "predict_scores", "trainer.predict", None),
    ("seca.trainer", "save_checkpoint", "trainer.ckpt_save",
     _count_ckpt_bytes),
    ("seca.trainer", "load_checkpoint", "trainer.ckpt_load", None),
    ("seca.datastream", "gen_synthetic", "datastream.gen", None),
    ("seca.cli", "_run_matrix", "cli.matrix", None),
    ("seca.cli", "run_stream", "cli.leaf", None),
)

# Per-layer metric -> (unit, how it is read). "self:" is a span name's self
# time in seconds, "calls:" its call count, "count:" a hook's count.
LAYER_METRICS = {
    "tensor.backward_s": ("s", "self:tensor.backward"),
    "tensor.backward_calls": ("count", "calls:tensor.backward"),
    "tensor.grad_check_s": ("s", "self:tensor.grad_check"),
    "encoder.backbone_forward_s": ("s", "self:encoder.backbone_forward"),
    "encoder.backbone_forward_calls": ("count",
                                       "calls:encoder.backbone_forward"),
    "encoder.backbone_rows": ("count", "count:encoder.backbone_rows"),
    "encoder.text_features_s": ("s", "self:encoder.text_features"),
    "encoder.text_features_calls": ("count", "calls:encoder.text_features"),
    "sgakt.teacher_s": ("s", "self:sgakt.teacher"),
    "sgakt.pooled_views_s": ("s", "self:sgakt.pooled_views"),
    "sgakt.relevance_s": ("s", "self:sgakt.relevance"),
    "sgakt.semantic_vectors_s": ("s", "self:sgakt.semantic_vectors"),
    "sgakt.distill_loss_s": ("s", "self:sgakt.distill_loss"),
    "sgakt.pool_admissions": ("count", "calls:sgakt.admit_and_prune"),
    "sgakt.pool_prunes": ("count", "count:sgakt.pool_prunes"),
    "sevpr.affinity_s": ("s", "self:sevpr.affinity"),
    "sevpr.refine_s": ("s", "self:sevpr.refine"),
    "sevpr.ce_v_s": ("s", "self:sevpr.ce_v"),
    "sevpr.reg_s": ("s", "self:sevpr.reg"),
    "sevpr.prototypes_s": ("s", "self:sevpr.prototypes"),
    "replay.draw_s": ("s", "self:replay.draw"),
    "replay.losses_s": ("s", "self:replay.losses"),
    "replay.fit_s": ("s", "self:replay.fit"),
    "replay.draws": ("count", "calls:replay.draw"),
    "trainer.steps": ("count", "calls:trainer.batch_loss"),
    "trainer.batch_loss_s": ("s", "self:trainer.batch_loss"),
    "trainer.adam_s": ("s", "self:trainer.adam"),
    "trainer.boundary_s": ("s", "self:trainer.boundary"),
    "trainer.predict_s": ("s", "self:trainer.predict"),
    "trainer.predict_rows": ("count", "count:trainer.predict_rows"),
    "trainer.ckpt_save_s": ("s", "self:trainer.ckpt_save"),
    "trainer.ckpt_load_s": ("s", "self:trainer.ckpt_load"),
    "trainer.ckpt_bytes": ("B", "count:trainer.ckpt_bytes"),
    "datastream.gen_s": ("s", "self:datastream.gen"),
}


class _ThreadState:
    __slots__ = ("stack", "agg", "counts", "spans", "ident")

    def __init__(self):
        # frames are [child time, id of the nearest recorded span]
        self.stack = [[0.0, None]]
        self.agg: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.ident = threading.get_ident()


class Tracer:
    """Installs the span wrappers; one per traced process."""

    def __init__(self):
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._recorded = 0
        self.dropped = 0

    def _state(self) -> _ThreadState:
        try:
            return self._local.st
        except AttributeError:
            st = _ThreadState()
            self._local.st = st
            with self._lock:
                self._threads.append(st)
            return st

    def _span_wrapper(self, fn, name, hook):
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            parent = stack[-1][1]
            frame = [0.0, next(tracer._ids)]
            stack.append(frame)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                stack[-1][0] += dur
                agg = st.agg.get(name)
                if agg is None:
                    agg = st.agg[name] = [0, 0.0]
                agg[0] += 1
                agg[1] += dur - frame[0]
                if tracer._recorded < SPAN_CAP:
                    tracer._recorded += 1
                    st.spans.append((name, t0, t1, frame[1], parent))
                else:
                    tracer.dropped += 1
            if hook is not None:
                hook(st.counts, args, out)
            return out

        return wrapper

    def _op_wrapper(self, fn):
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            frame = [0.0, stack[-1][1]]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
                stack[-1][0] += dur
                agg = st.agg.get("tensor.op")
                if agg is None:
                    agg = st.agg["tensor.op"] = [0, 0.0]
                agg[0] += 1
                agg[1] += dur - frame[0]

        return wrapper

    def _rebind(self, module, attr, wrapper) -> None:
        """Point every binding of ``module.attr`` at ``wrapper``.

        seca's modules import functions by name from each other, so the
        function object is replaced wherever it is bound, not only where it
        is defined. Names on the cli module are bound there only, so that
        ``cli.run_stream`` marks matrix leaves and no other call.
        """
        if "." in attr:
            cls_name, meth = attr.split(".")
            setattr(getattr(module, cls_name), meth, wrapper)
            return
        if module.__name__ == "seca.cli":
            setattr(module, attr, wrapper)
            return
        orig = getattr(module, attr)
        mods = [m for n, m in list(sys.modules.items())
                if n == "seca" or n.startswith("seca.")]
        for mod in mods:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapper)

    def install(self) -> None:
        import importlib
        importlib.import_module("seca.cli")  # binds every module's names
        tensor = importlib.import_module("seca.tensor")
        for op in TENSOR_OPS:
            self._rebind(tensor, op, self._op_wrapper(getattr(tensor, op)))
        for mod_name, attr, name, hook in LAYER_FUNCS:
            module = importlib.import_module(mod_name)
            fn = module
            for part in attr.split("."):
                fn = getattr(fn, part)
            self._rebind(module, attr, self._span_wrapper(fn, name, hook))

    def totals(self) -> tuple[dict[str, list], dict[str, int]]:
        """Calls and self time per span name, and hook counts, all threads."""
        agg: dict[str, list] = {}
        counts: dict[str, int] = {}
        for st in self._threads:
            for name, (calls, self_s) in st.agg.items():
                cur = agg.setdefault(name, [0, 0.0])
                cur[0] += calls
                cur[1] += self_s
            for key, val in st.counts.items():
                counts[key] = counts.get(key, 0) + val
        return agg, counts

    def layer_metrics(self) -> dict[str, dict]:
        agg, counts = self.totals()
        ops, op_self = agg.get("tensor.op", [0, 0.0])
        out = {
            "tensor.ops": {"value": ops, "unit": "count"},
            "tensor.op_self_us": {"value": 1e6 * op_self / ops if ops else 0.0,
                                  "unit": "us"},
        }
        for metric, (unit, source) in LAYER_METRICS.items():
            kind, key = source.split(":")
            if kind == "count":
                value = counts.get(key, 0)
            else:
                calls, self_s = agg.get(key, [0, 0.0])
                value = self_s if kind == "self" else calls
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path, header: dict) -> None:
        """Aggregates first, then one JSON line per recorded span."""
        agg, counts = self.totals()
        head = dict(header, dropped_spans=self.dropped,
                    self_s={k: v[1] for k, v in sorted(agg.items())},
                    calls={k: v[0] for k, v in sorted(agg.items())},
                    counts=dict(sorted(counts.items())))
        with open(path, "w") as fh:
            fh.write(json.dumps(head) + "\n")
            for st in self._threads:
                for name, t0, t1, sid, parent in st.spans:
                    fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                         "id": sid, "parent": parent,
                                         "thread": st.ident}) + "\n")
