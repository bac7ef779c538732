"""Span tracing of spikelat from outside the package.

A :class:`Tracer` replaces public functions and methods of the package with
wrappers that record one span per call: name, parent span, start and end
(``time.perf_counter`` seconds). Spans live in flat in-memory lists and are
written to a JSON file when the run ends. A span's self time is its
duration minus the durations of its child spans; calls are sequential, so
children never overlap.

Names bound with ``from .x import f`` are patched in every spikelat module
that holds them, so a call made through any module is seen. ``close``
restores every patched attribute.
"""
from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from functools import wraps

# (attribute, span name) of the wrapped public functions
FUNCTIONS = (
    ("conv2d", "autodiff.conv2d"),
    ("batchnorm2d", "autodiff.batchnorm2d"),
    ("linear", "autodiff.linear"),
    ("lif_unroll", "lif.unroll"),
    ("tad_loss", "loss.tad"),
    ("decode_batch", "decoder.decode"),
    ("evaluate", "trainer.evaluate"),
    ("save_checkpoint", "trainer.checkpoint_save"),
    ("load_checkpoint", "trainer.checkpoint_load"),
    ("synth_digits", "data.synth"),
    ("synth_blobs", "data.synth"),
    ("corrupt", "data.corrupt"),
    ("model_energy", "analysis.energy"),
    ("temporal_similarity", "analysis.similarity"),
    ("robustness_eval", "analysis.robustness"),
)

# (module, class, method, span name) of the wrapped public methods
METHODS = (
    ("spikelat.trainer", "AdamW", "step", "trainer.optimizer"),
    ("spikelat.network", "Model", "forward", "network.forward"),
    ("spikelat.encoder", "LatencyEncoder", "encode", "encoder.encode"),
)


def tape_size(root):
    """(nodes, bytes of node values) reachable from ``root`` through ``parents``."""
    seen = {id(root)}
    stack = [root]
    nbytes = 0
    while stack:
        node = stack.pop()
        nbytes += node.data.nbytes
        for p in node.parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen), nbytes


class Tracer:
    """Span recorder; :meth:`install` wraps the package, :meth:`close` unwraps it."""

    def __init__(self):
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.samples = []      # (name, value, index of the enclosing top-level span)
        self._stack = []
        self._undo = []

    # -- recording -------------------------------------------------------------

    def open(self, name):
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(float("nan"))
        self._stack.append(sid)
        self.starts.append(time.perf_counter())
        return sid

    def close_span(self, sid):
        self.ends[sid] = time.perf_counter()
        if self._stack and self._stack[-1] == sid:
            self._stack.pop()

    @contextmanager
    def span(self, name):
        sid = self.open(name)
        try:
            yield
        finally:
            self.close_span(sid)

    def sample(self, name, value):
        """Record a value (a count, a rate) against the current top-level span."""
        self.samples.append((name, value, self._stack[0] if self._stack else -1))

    def top(self):
        return self.names[self._stack[-1]] if self._stack else None

    # -- wrappers --------------------------------------------------------------

    def _timed(self, fn, name):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close_span(sid)
        return wrapper

    def _stage(self, fn):
        @wraps(fn)
        def wrapper(stage, *args, **kwargs):
            name = f"network.{stage.name}.forward"
            if self.top() == name:   # a residual block unrolling its own conv path
                return fn(stage, *args, **kwargs)
            sid = self.open(name)
            try:
                return fn(stage, *args, **kwargs)
            finally:
                self.close_span(sid)
        return wrapper

    def _backward(self, fn):
        @wraps(fn)
        def wrapper(root, *args, **kwargs):
            nodes, nbytes = tape_size(root)
            self.sample("autodiff.tape_nodes", nodes)
            self.sample("autodiff.tape_bytes", nbytes)
            sid = self.open("autodiff.backward")
            try:
                return fn(root, *args, **kwargs)
            finally:
                self.close_span(sid)
        return wrapper

    def _sparsity(self, fn):
        @wraps(fn)
        def wrapper(record, *args, **kwargs):
            value = fn(record, *args, **kwargs)
            self.sample("network.spike_rate", value)
            return value
        return wrapper

    def _batches(self, fn):
        """Each fetch is a ``data.batches`` span; the consumer's work on the
        batch, until it asks for the next one, is a ``batch`` span."""
        @wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                with self.span("data.batches"):
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                with self.span("batch"):
                    yield item
        return wrapper

    # -- installation ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_everywhere(self, attr, make):
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "spikelat" or mod_name.startswith("spikelat.")) \
                    and callable(getattr(mod, attr, None)):
                self._set(mod, attr, make(getattr(mod, attr)))

    def install(self):
        import spikelat.analysis  # noqa: F401  (loads every module the benchmark calls)
        from spikelat import autodiff, network

        for attr, name in FUNCTIONS:
            self._patch_everywhere(attr, lambda fn, name=name: self._timed(fn, name))
        self._patch_everywhere("batches", self._batches)
        for mod_name, cls_name, meth, name in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            self._set(cls, meth, self._timed(getattr(cls, meth), name))
        self._set(autodiff.Tensor, "backward", self._backward(autodiff.Tensor.backward))
        self._set(network.ForwardRecord, "sparsity",
                  self._sparsity(network.ForwardRecord.sparsity))
        for cls in vars(network).values():
            if isinstance(cls, type) and cls.__module__ == network.__name__ \
                    and "unroll" in vars(cls):
                self._set(cls, "unroll", self._stage(cls.unroll))
        return self

    def close(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- analysis ----------------------------------------------------------------

    def table(self):
        """Per span: (name, top-level span name, duration, self time), in start order."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        top = [""] * n
        for i in range(n):
            p = self.parents[i]
            if p < 0:
                top[i] = self.names[i]
            else:
                top[i] = top[p]
                child[p] += dur[i]
        return [(self.names[i], top[i], dur[i], dur[i] - child[i]) for i in range(n)]

    def write(self, path, meta):
        t0 = self.starts[0] if self.starts else 0.0
        spans = [[self.names[i], self.parents[i], round(self.starts[i] - t0, 9),
                  round(self.ends[i] - t0, 9)] for i in range(len(self.names))]
        samples = [[name, value, top] for name, value, top in self.samples]
        with open(path, "w") as f:
            json.dump({"meta": meta, "fields": ["name", "parent", "start_s", "end_s"],
                       "spans": spans, "samples": samples}, f, separators=(",", ":"))
