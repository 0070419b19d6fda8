"""Layer spans recorded around calls into bsurf's public functions.

``Tracer.install`` replaces every public function of each layer module,
and every name other layer modules bound to it (``prisms.classify_pieces``,
``lutz.carried_surface``, ...), with a wrapper that records a span when
control crosses into the layer.  A call that stays inside its own layer
opens no span, so a layer's spans never nest in themselves and its self
time is span time minus the time of nested spans of other layers.  The
crossing check of ``DividingSet`` runs in its ``__post_init__``, which is
wrapped as ``dividing.DividingSet`` so that load-time work lands in the
layer that does it.  Spans are kept in memory and written out at the end.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import os
import statistics
import time
from collections import defaultdict

LAYERS = ("io", "cli", "hilbert", "lutz", "surface", "dividing", "prisms", "domain")

def _weights_sum(a, r):
    return {"surface.sheet_copies": sum(int(x) for x in a[1]),
            "surface.components": len(r.components)}


def _vertical_faces(a, r):
    return {"prisms.vertical_faces": sum(len(p.vertical_faces) for _, p in a[0].all_prisms())}


# Work counters per function, applied to (args, result) of every call.
COUNTERS = {
    "io.loads": lambda a, r: {"io.bytes_read": len(a[0].encode("utf-8"))},
    "io.save": lambda a, r: {"io.bytes_written": os.path.getsize(a[1])},
    "hilbert.minimal_generators": lambda a, r: {"hilbert.generators": len(r)},
    "hilbert.decompose": lambda a, r: {"hilbert.weights_decomposed": 1,
                                       "hilbert.decompose_steps": sum(r.coefficients)},
    "lutz.plan_for": lambda a, r: {"lutz.plan_coeff_sum": r.total},
    "surface.carried_surface": _weights_sum,
    "dividing.classify_pieces": lambda a, r: {"dividing.classify_calls": 1,
                                              "dividing.pieces": r.total},
    "prisms.admissible": _vertical_faces,
    "prisms.coverage_report": _vertical_faces,
    "domain.prune_to_closed": lambda a, r: {"domain.structures": len(a[1]),
                                            "domain.terminal_classes": len(r)},
    "domain.prune": lambda a, r: {"domain.prune_steps": 1},
}

# Input size of each layer's main call, for the log-log scaling slope.
SIZES = {
    "io.load": lambda a: os.path.getsize(a[0]),
    "hilbert.minimal_generators": lambda a: a[0].dimension,
    "surface.carried_surface": lambda a: sum(int(x) for x in a[1]),
    "dividing.classify_pieces": lambda a: len(a[0].arcs),
}
SCALING = {"io": "io.load", "hilbert": "hilbert.minimal_generators",
           "surface": "surface.carried_surface", "dividing": "dividing.classify_pieces"}


def _arcs_in(args) -> int:
    """Arcs of the dividing sets a dividing-layer call was entered with."""
    n = 0
    for a in args:
        if hasattr(a, "arcs") and hasattr(a, "face"):
            n += len(a.arcs)
        elif isinstance(a, (list, tuple)):
            n += sum(len(x.arcs) for x in a if hasattr(x, "arcs") and hasattr(x, "face"))
    return n


class Tracer:
    def __init__(self):
        self.active = False
        self.op = None                 # id shared by the spans of one operation
        self.spans = []                # (id, parent, op, name, start, end, failed)
        self.stack = []                # open spans: [id, layer, start, child time]
        self.counts = defaultdict(float)
        self.sized = defaultdict(list)  # main-call name -> [(size, seconds)]
        self._undo = []

    @property
    def installed(self) -> bool:
        return bool(self._undo)

    # -- spans ------------------------------------------------------------
    def _enter(self, layer):
        sid = len(self.spans) + len(self.stack)
        self.stack.append([sid, layer, time.perf_counter(), 0.0])

    def _exit(self, name, failed, size=None, call=True):
        sid, layer, start, child = self.stack.pop()
        end = time.perf_counter()
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += end - start
        self.spans.append((sid, parent[0] if parent else None, self.op, name, start, end, failed))
        self.counts[f"{layer}.calls"] += call
        self.counts[f"{layer}.self_s"] += (end - start) - child
        if failed:
            self.counts[f"{layer}.failed"] += 1
        if size is not None:
            self.sized[name].append((size, end - start))

    def _count(self, name, args, result, boundary):
        hook = COUNTERS.get(name)
        if hook is not None:
            for k, v in hook(args, result).items():
                self.counts[k] += v
        if boundary and name.startswith("dividing."):
            self.counts["dividing.arcs"] += _arcs_in(args)
            if name == "dividing.classify_pieces" and self.stack and self.stack[-1][1] == "prisms":
                self.counts["prisms.classify_calls"] += 1

    def _wrap(self, layer, name, fn):
        tracer = self
        size_of = SIZES.get(name)

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                # one span per resume; only the first counts as a call
                it = fn(*args, **kwargs)
                n = 0
                while True:
                    boundary = tracer.active and not (tracer.stack and tracer.stack[-1][1] == layer)
                    if boundary:
                        tracer._enter(layer)
                    try:
                        item = next(it)
                    except StopIteration:
                        if boundary:
                            tracer._exit(name, False, call=n == 0)
                        if tracer.active and name == "lutz.enumerate_structures":
                            tracer.counts["lutz.weights_enumerated"] += n
                        return
                    except BaseException:
                        if boundary:
                            tracer._exit(name, True, call=n == 0)
                        raise
                    if boundary:
                        tracer._exit(name, False, call=n == 0)
                    n += 1
                    yield item
            return gen_wrapper

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if tracer.stack and tracer.stack[-1][1] == layer:
                result = fn(*args, **kwargs)
                tracer._count(name, args, result, False)
                return result
            tracer._enter(layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(name, True)
                raise
            tracer._exit(name, False, size_of(args) if size_of else None)
            tracer._count(name, args, result, True)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / remove -------------------------------------------------
    def install(self):
        modules = {layer: importlib.import_module(f"bsurf.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[obj] = self._wrap(layer, f"{layer}.{attr}", obj)
        for mod in list(modules.values()) + [importlib.import_module("bsurf")]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])
        cls = modules["dividing"].DividingSet
        post_init = cls.__post_init__
        self._undo.append((cls, "__post_init__", post_init))
        setattr(cls, "__post_init__", self._wrap("dividing", "dividing.DividingSet", post_init))

    def uninstall(self):
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()

    # -- report -------------------------------------------------------------
    def write(self, path, meta):
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"meta": meta,
                       "fields": ["id", "parent", "op", "name", "start", "end", "failed"],
                       "spans": self.spans}, f)

    def metrics(self):
        """Per-layer metrics: calls, self_s, failed, work counts, slopes."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (self.counts[f"{layer}.calls"], "count")
            out[f"{layer}.self_s"] = (self.counts[f"{layer}.self_s"], "s")
            out[f"{layer}.failed"] = (self.counts[f"{layer}.failed"], "count")
        for name, unit in (("io.bytes_read", "B"), ("io.bytes_written", "B"),
                           ("cli.stdout_bytes", "B"), ("hilbert.generators", "count"),
                           ("hilbert.weights_decomposed", "count"),
                           ("hilbert.decompose_steps", "count"),
                           ("lutz.plan_coeff_sum", "count"), ("lutz.weights_enumerated", "count"),
                           ("surface.sheet_copies", "count"), ("surface.components", "count"),
                           ("dividing.arcs", "count"), ("dividing.pieces", "count"),
                           ("dividing.classify_calls", "count"),
                           ("prisms.vertical_faces", "count"),
                           ("domain.structures", "count"), ("domain.prune_steps", "count"),
                           ("domain.terminal_classes", "count")):
            out[name] = (self.counts[name], unit)
        vf = self.counts["prisms.vertical_faces"]
        out["prisms.classify_per_vertical_face"] = (
            self.counts["prisms.classify_calls"] / vf if vf else 0.0, "ratio")
        for layer, main in SCALING.items():
            out[f"{layer}.scaling_exponent"] = (loglog_slope(self.sized[main]), "slope")
        return out


def loglog_slope(samples) -> float:
    """Least-squares slope of log(median seconds) against log(size).

    0.0 when the workload gives the call fewer than two distinct sizes.
    """
    by_size = defaultdict(list)
    for size, dt in samples:
        if size > 0 and dt > 0:
            by_size[size].append(dt)
    if len(by_size) < 2:
        return 0.0
    xs = [math.log(s) for s in by_size]
    ys = [math.log(statistics.median(v)) for v in by_size.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
