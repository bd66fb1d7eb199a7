"""Spans around the calls into each catdiff layer, installed from outside.

Every wrapped function is patched where its caller looks it up (for
example ``catdiff.sampler.posterior_matrix``, because the sampler imports
the name), so the program itself is not edited. ``installed`` restores
every patched attribute on exit, also when the traced code raises.

Spans live in memory as parallel lists (name, start, end, parent, failed)
and are written out only after the timed region. Self time is a span's
duration minus the durations of its direct children; all calls are made
from one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

GUIDANCE_SPANS = ("guidance.cbg_exact", "guidance.cbg_taylor")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _size(array, drop_last=0) -> int:
    shape = getattr(array, "shape", ())
    count = 1
    for dim in shape[:len(shape) - drop_last]:
        count *= int(dim)
    return count


def _posterior_rows(tracer, args, kwargs):
    z = _arg(args, kwargs, 0, "z_seq")
    prior = _arg(args, kwargs, 4, "prior")
    rows = _size(z)
    tracer.add("forward.posterior_matrix.rows", rows)
    if prior.kind == "absorbing":
        # unmasked tokens are fixed points of the absorbing reverse process
        live = int((z == prior.mask_index).sum())
    else:
        live = rows
    tracer.add("forward.posterior_matrix.live_rows", live)


def _classifier_row(tracer, args, kwargs):
    if tracer.inside(GUIDANCE_SPANS):
        tracer.add("guidance.classifier_rows", 1)


def _checkpoint_bytes(tracer, args, kwargs):
    tracer.add("checkpoint.load_checkpoint.bytes",
               os.path.getsize(_arg(args, kwargs, 0, "path")))


def _rows_of(span, index, name, drop_last):
    def count(tracer, args, kwargs):
        tracer.add(span + ".rows", _size(_arg(args, kwargs, index, name),
                                         drop_last))
    return count


@dataclass(frozen=True)
class Target:
    """One wrapped function: the span name says which layer function it
    is; (module, attr) says where its caller looks it up; on_call(tracer,
    args, kwargs) adds counts before each call. ``<span>.rows`` counts the
    categorical rows (one per sequence position) the call handles."""

    span: str
    module: str
    attr: str
    on_call: Optional[Callable] = None
    has_rows: bool = False


TARGETS = (
    Target("model.denoise_batch", "catdiff.model", "denoise_batch",
           _rows_of("model.denoise_batch", 1, "z_batch", 0), True),
    Target("model.classify", "catdiff.model", "classify", _classifier_row),
    Target("model.classify_grad_wrt_onehot", "catdiff.model",
           "classify_grad_wrt_onehot", _classifier_row),
    Target("model.denoise", "catdiff.model", "denoise"),
    Target("model.denoiser_logprob_rows", "catdiff.model",
           "denoiser_logprob_rows"),
    Target("model.classifier_logprobs", "catdiff.model",
           "classifier_logprobs"),
    Target("model.AdamState.step", "catdiff.model", "AdamState.step"),
    Target("autodiff.backprop", "catdiff.autodiff", "backprop"),
    Target("forward.posterior_matrix", "catdiff.sampler", "posterior_matrix",
           _posterior_rows, True),
    Target("core.sample_rows", "catdiff.sampler", "sample_rows",
           _rows_of("core.sample_rows", 0, "rows", 1), True),
    Target("guidance.cfg_combine", "catdiff.sampler", "cfg_combine",
           _rows_of("guidance.cfg_combine", 0, "cond_rows", 1), True),
    Target("guidance.cbg_exact", "catdiff.sampler", "cbg_exact"),
    Target("guidance.cbg_taylor", "catdiff.sampler", "cbg_taylor"),
    Target("sampler.generate", "catdiff.sampler", "generate"),
    Target("loss.training_loss_node", "catdiff.loss", "training_loss_node"),
    Target("loss.nelbo_discrete", "catdiff.loss", "nelbo_discrete"),
    Target("data.load_text_dataset", "catdiff.cli", "load_text_dataset"),
    Target("checkpoint.load_checkpoint", "catdiff.cli", "load_checkpoint",
           _checkpoint_bytes),
    Target("cli.main", "catdiff.cli", "main"),
)

# Node construction is counted, not timed: a span per node would cost more
# than the node itself.
NODE_COUNTER = ("catdiff.autodiff", "Node.__init__")


def per_layer_names() -> list:
    """(name, unit) of every per-layer metric, in output order."""
    out = []
    for target in TARGETS:
        out += [(target.span + ".calls", "count"), (target.span + ".s", "s"),
                (target.span + ".self_s", "s"),
                (target.span + ".fail", "count")]
        if target.has_rows:
            out.append((target.span + ".rows", "count"))
    out += [
        ("forward.posterior_matrix.live_frac", "ratio"),
        ("checkpoint.load_checkpoint.bytes", "bytes"),
        ("autodiff.nodes", "count"),
        ("guidance.classifier_rows", "count"),
        ("trace.unattributed_frac", "ratio"),
        ("trace.overhead_frac", "ratio"),
    ]
    return out


class Tracer:
    """In-memory spans and counters of one traced pass."""

    def __init__(self) -> None:
        self.names: list = []
        self.start: list = []
        self.end: list = []
        self.parent: list = []
        self.failed: list = []
        self.counters: dict = defaultdict(int)
        self._open: list = []

    def add(self, counter: str, amount: int) -> None:
        self.counters[counter] += amount

    def inside(self, spans: tuple) -> bool:
        return any(self.names[i] in spans for i in self._open)

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parent.append(self._open[-1] if self._open else -1)
        self.failed.append(False)
        self.end.append(0.0)
        self._open.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._open.pop()

    def self_times(self) -> list:
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - child[i]
                for i in range(len(self.names))]

    def root_seconds(self) -> float:
        return sum(self.end[i] - self.start[i]
                   for i, p in enumerate(self.parent) if p < 0)

    def metrics(self, wall_s: float, overhead_frac: float) -> dict:
        """Every per-layer metric as name -> value; wall_s is the traced
        pass's timed wall, overhead_frac its excess over the untraced
        pass of the same operations."""
        calls, busy, own, fail = (defaultdict(int), defaultdict(float),
                                  defaultdict(float), defaultdict(int))
        for i, (name, self_s) in enumerate(zip(self.names, self.self_times())):
            calls[name] += 1
            busy[name] += self.end[i] - self.start[i]
            own[name] += self_s
            fail[name] += int(self.failed[i])
        out = {}
        for target in TARGETS:
            span = target.span
            out[span + ".calls"] = calls[span]
            out[span + ".s"] = busy[span]
            out[span + ".self_s"] = own[span]
            out[span + ".fail"] = fail[span]
            if target.has_rows:
                out[span + ".rows"] = self.counters[span + ".rows"]
        rows = self.counters["forward.posterior_matrix.rows"]
        live = self.counters["forward.posterior_matrix.live_rows"]
        out["forward.posterior_matrix.live_frac"] = (live / rows if rows
                                                     else 0.0)
        for name in ("checkpoint.load_checkpoint.bytes", "autodiff.nodes",
                     "guidance.classifier_rows"):
            out[name] = self.counters[name]
        out["trace.unattributed_frac"] = (1.0 - self.root_seconds() / wall_s
                                          if wall_s > 0 else 0.0)
        out["trace.overhead_frac"] = overhead_frac
        return out

    def write(self, path: str) -> None:
        """One JSON line per span: name, start/end in seconds from the
        first span, parent span index (-1 for a root), and failure."""
        origin = self.start[0] if self.start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "id": i, "name": name, "parent": self.parent[i],
                    "start": self.start[i] - origin,
                    "end": self.end[i] - origin, "failed": self.failed[i],
                }) + "\n")


def _owner(module: str, attr: str):
    """(object holding the attribute, attribute name) for 'a.b' paths."""
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def _span_wrapper(tracer: Tracer, target: Target, fn):
    on_call = target.on_call

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if on_call is not None:
            on_call(tracer, args, kwargs)
        index = tracer.open(target.span)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            tracer.failed[index] = True
            raise
        finally:
            tracer.close(index)

    return traced


def _node_counter(tracer: Tracer, init):
    @functools.wraps(init)
    def counted(self, *args, **kwargs):
        tracer.counters["autodiff.nodes"] += 1
        init(self, *args, **kwargs)

    return counted


@contextmanager
def installed(tracer: Tracer):
    """Patch every target for the duration of the block, then put back
    the exact objects that were there before."""
    patched = []
    try:
        for target in TARGETS:
            owner, leaf = _owner(target.module, target.attr)
            original = getattr(owner, leaf)
            setattr(owner, leaf, _span_wrapper(tracer, target, original))
            patched.append((owner, leaf, original))
        owner, leaf = _owner(*NODE_COUNTER)
        original = getattr(owner, leaf)
        setattr(owner, leaf, _node_counter(tracer, original))
        patched.append((owner, leaf, original))
        yield tracer
    finally:
        for owner, leaf, original in reversed(patched):
            setattr(owner, leaf, original)
