"""Span tracing of mono3dkit's layers from outside the program.

:class:`Tracer` replaces every public function of the traced modules with
a wrapper that records one span per call: (id, parent, name, start, end,
thread).  Calls inside mono3dkit resolve through module globals
(``dataio.read_depth``, ``geometry.to_virtual``, ``iou3d`` inside eval3d),
so the wrappers see every call without any change to the program.

The CLI's thread pool is replaced the same way, by a subclass of the
class ``cli`` imported: each task it runs becomes a ``cli.process`` span
on its pool thread, and each wait of the main thread for a task's result
becomes a ``cli.pool_wait`` span.  Waiting is not self time of any layer.

Spans stay in memory; :meth:`Tracer.write_spans` writes them out once the
op is over, and :meth:`Tracer.op_metrics` reduces them to the per-layer
metrics of one op.  Self time is computed per thread: a span's self time
is its duration minus the spans it directly caused on the same thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import resource
import threading
import time

LAYERS = ("cli", "dataio", "pseudolabel", "geometry", "eval3d", "kernels")

# The main thread's waits for pool results: time spent, but no layer's work.
WAIT = "cli.pool_wait"

# The differentiable kernels that `gradcheck` probes; summed as
# `kernels.forward`.
KERNELS = (
    "query_gate",
    "diversity_loss",
    "bin_centers",
    "depth_kl",
    "dice_loss",
    "bce_loss",
    "region_loss",
    "consistency_loss",
    "l2_reg",
)


def public_functions(module):
    """Names of the functions a module defines without a leading underscore."""
    return sorted(
        name
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
    )


class Tracer:
    """Wraps the public functions of the mono3dkit layers and records spans."""

    def __init__(self):
        self.spans = []  # (id, parent, name, start, end, thread)
        self.counters = {
            "select_projection_point.fallback": 0,
            "select_projection_point.conflict": 0,
            "generate_pseudo_labels.detections": 0,
            "generate_pseudo_labels.emitted": 0,
            "iou3d.nonzero": 0,
            "read_depth.minflt": 0,
        }
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_thread = threading.get_ident()
        self._root = 0
        self._lock = threading.Lock()
        self._saved = []

    # -------------------------------------------------------------- install

    def install(self):
        for layer in LAYERS:
            module = importlib.import_module(f"mono3dkit.{layer}")
            for name in public_functions(module):
                fn = getattr(module, name)
                setattr(module, name, self._wrap(f"{layer}.{name}", fn))
                self._saved.append((module, name, fn))
        cli = importlib.import_module("mono3dkit.cli")
        pool = getattr(cli, "ThreadPoolExecutor", None)
        if pool is not None:
            setattr(cli, "ThreadPoolExecutor", self._traced_pool(pool))
            self._saved.append((cli, "ThreadPoolExecutor", pool))

    def _traced_pool(self, base):
        tracer = self

        class TracedPool(base):
            def map(self, fn, *iterables, **kwargs):
                results = super().map(tracer._wrap("cli.process", fn), *iterables, **kwargs)
                return tracer._waits(results)

        return TracedPool

    def _waits(self, results):
        """Yield `results`, recording each wait for the next one as a span."""
        it = iter(results)
        while True:
            start = time.perf_counter()
            try:
                item = next(it)
            except StopIteration:
                self._record(WAIT, start)
                return
            self._record(WAIT, start)
            yield item

    def _record(self, name, start):
        """A leaf span from `start` to now under the thread's open span."""
        end = time.perf_counter()
        stack = getattr(self._local, "stack", None)
        parent = stack[-1] if stack else self._root
        self.spans.append((next(self._ids), parent, name, start, end, threading.get_ident()))

    def uninstall(self):
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()

    def _hooks(self, name):
        """(before, after) observers for the functions that feed ratios."""
        counters, lock = self.counters, self._lock

        def add(key, amount):
            with lock:
                counters[key] += amount

        if name == "dataio.read_depth":
            return (
                lambda args: resource.getrusage(resource.RUSAGE_THREAD).ru_minflt,
                lambda args, result, before: add(
                    "read_depth.minflt", resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before
                ),
            )
        if name == "pseudolabel.select_projection_point":

            def after(args, point, _):
                # The fallback grid ran iff the center was not returned
                # clean; an occluded center is never a grid answer.
                if point.conflict or (point.u, point.v) != args[0].center:
                    add("select_projection_point.fallback", 1)
                if point.conflict:
                    add("select_projection_point.conflict", 1)

            return None, after
        if name == "pseudolabel.generate_pseudo_labels":

            def after(args, result, _):
                add("generate_pseudo_labels.detections", result.diagnostics.n_detections)
                add("generate_pseudo_labels.emitted", result.diagnostics.n_emitted)

            return None, after
        if name == "eval3d.iou3d":
            return None, lambda args, value, _: add("iou3d.nonzero", 1) if value > 0 else None
        return None, None

    def _wrap(self, name, fn):
        before, after = self._hooks(name)
        spans, ids, local = self.spans, self._ids, self._local
        clock, ident = time.perf_counter, threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            if stack:
                parent = stack[-1]
            elif ident() == self._main_thread:
                parent = 0
                self._root = sid
            else:
                # Pool threads start with no open span: the op caused them.
                parent = self._root
            state = before(args) if before else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, ident()))
            if after:
                after(args, result, state)
            return result

        return wrapper

    # --------------------------------------------------------------- output

    def write_spans(self, fh, op_id):
        """Append this op's spans as CSV: op,id,parent,thread,name,start,end."""
        threads = {}
        for sid, parent, name, start, end, thread in self.spans:
            tid = threads.setdefault(thread, len(threads))
            fh.write(f"{op_id},{sid},{parent},{tid},{name},{start:.9f},{end:.9f}\n")

    def op_metrics(self, op_s: float, pairs: int) -> dict:
        """Per-layer metrics of the one op whose spans were recorded."""
        by_id = {s[0]: s for s in self.spans}
        child_time = {}
        for sid, parent, name, start, end, thread in self.spans:
            p = by_id.get(parent)
            if p is not None and p[5] == thread:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)

        calls, busy, self_s = {}, {}, {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        cli_main_self = 0.0
        forward_calls, forward_busy = 0, 0.0
        kernel_names = {f"kernels.{k}" for k in KERNELS}
        for sid, parent, name, start, end, thread in self.spans:
            dur = end - start
            own = dur - child_time.get(sid, 0.0)
            calls[name] = calls.get(name, 0) + 1
            busy[name] = busy.get(name, 0.0) + dur
            self_s[name] = self_s.get(name, 0.0) + own
            if name != WAIT:
                layer = name.split(".", 1)[0]
                layer_self[layer] += own
                if layer == "cli" and thread == self._main_thread:
                    cli_main_self += own
            if name in kernel_names:
                forward_calls += 1
                if not self._nested_in(by_id, parent, thread, kernel_names):
                    forward_busy += dur

        c = self.counters

        def ratio(num, den):
            return num / den if den else 0.0

        spp = calls.get("pseudolabel.select_projection_point", 0)
        iou_calls = calls.get("eval3d.iou3d", 0)
        out = {
            "cli.self_s": cli_main_self,
            "cli.pool_wait_s": busy.get(WAIT, 0.0),
            "dataio.read_depth.minflt": c["read_depth.minflt"],
            "pseudolabel.select_projection_point.fallback_frac": ratio(c["select_projection_point.fallback"], spp),
            "pseudolabel.select_projection_point.conflict_frac": ratio(c["select_projection_point.conflict"], spp),
            "pseudolabel.emitted_frac": ratio(
                c["generate_pseudo_labels.emitted"], c["generate_pseudo_labels.detections"]
            ),
            "eval3d.iou3d.calls_per_pair": ratio(iou_calls, pairs),
            "eval3d.iou3d.nonzero_frac": ratio(c["iou3d.nonzero"], iou_calls),
            "kernels.forward.calls": forward_calls,
            "kernels.forward.busy_s": forward_busy,
        }
        for layer in LAYERS:
            out[f"{layer}.share"] = ratio(layer_self[layer], op_s)
        out["_calls"] = calls
        out["_busy_s"] = busy
        out["_self_s"] = self_s
        return out

    @staticmethod
    def _nested_in(by_id, parent, thread, names):
        while parent:
            span = by_id.get(parent)
            if span is None or span[5] != thread:
                return False
            if span[2] in names:
                return True
            parent = span[1]
        return False
