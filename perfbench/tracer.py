"""Span tracer that instruments tubekit from outside the package.

``install`` wraps every public function of the traced modules and the
two ``SoftSkeletonTape`` methods, and rebinds each wrapper in every
``tubekit`` module namespace that imported the function by name (for
example ``metrics.hard_skeleton``, ``losses.reconnect`` and
``cli.load_tvol``), so calls keep their spans whichever module makes
them.  ``uninstall`` restores the originals.

Spans are kept in memory: name, start, end, parent, peak traced memory
and counters.  Peak memory comes from ``tracemalloc``, which must be
running while spans are recorded; each span's peak is the highest
traced total inside it minus the total at its start, with children's
peaks folded into their parents.
"""

import inspect
import os
import sys
import time
import tracemalloc

TRACED_MODULES = ("volume", "vesselness", "skeleton", "losses", "metrics")
MB = 1024.0 * 1024.0


def _count_spatial_pairs(args, kwargs, out):
    return {"pairs": int(out[2])}


def _count_segments(args, kwargs, out):
    return {"segments": len(out.segments)}


def _count_saved_bytes(args, kwargs, out):  # save_tvol(obj, path, ...)
    return {"bytes": os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])}


def _count_loaded_bytes(args, kwargs, out):  # load_tvol(path)
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


# Counters read from a traced call's arguments and result, keyed by span.
COUNTERS = {
    "losses.loss_spatial_array": _count_spatial_pairs,
    "skeleton.reconnect": _count_segments,
    "volume.save_tvol": _count_saved_bytes,
    "volume.load_tvol": _count_loaded_bytes,
}


class Span:
    __slots__ = ("case", "name", "parent", "start", "end", "base", "top",
                 "counters")

    def __init__(self, case, name, parent, base):
        self.case = case
        self.name = name
        self.parent = parent
        self.base = base  # traced bytes at entry
        self.top = base   # highest traced bytes seen inside the span
        self.start = self.end = 0.0
        self.counters = {}

    @property
    def peak_mb(self):
        return (self.top - self.base) / MB

    def to_dict(self, index):
        return {"id": index, "case": self.case, "name": self.name,
                "parent": self.parent, "start": self.start, "end": self.end,
                "peak_mb": self.peak_mb, "counters": self.counters}


class Tracer:
    """Records nested spans of one process; not thread-safe."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.case = None

    def enter(self, name):
        cur, peak = tracemalloc.get_traced_memory()
        parent = None
        if self._stack:
            parent = self._stack[-1]
            top = self.spans[parent]
            top.top = max(top.top, peak)
        tracemalloc.reset_peak()
        span = Span(self.case, name, parent, cur)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        return span

    def exit(self, span):
        span.end = time.perf_counter()
        _, peak = tracemalloc.get_traced_memory()
        self._stack.pop()
        span.top = max(span.top, peak)
        if self._stack:
            parent = self.spans[self._stack[-1]]
            parent.top = max(parent.top, span.top)
        tracemalloc.reset_peak()

    def wrap(self, name, fn):
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            span = self.enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.exit(span)
            if count is not None:
                span.counters.update(count(args, kwargs, out))
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        """Patch tubekit; returns the (owner, attribute, original) list."""
        import tubekit.cli  # noqa: F401  (loads every module that imports by name)
        wrappers = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"tubekit.{short}"]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self.wrap(f"{short}.{attr}", obj)
        patched = []
        for modname, mod in list(sys.modules.items()):
            if modname != "tubekit" and not modname.startswith("tubekit."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        tape = sys.modules["tubekit.skeleton"].SoftSkeletonTape
        for attr, span_name in (("__init__", "forward"), ("backward", "backward")):
            orig = vars(tape)[attr]
            patched.append((tape, attr, orig))
            setattr(tape, attr,
                    self.wrap(f"skeleton.SoftSkeletonTape.{span_name}", orig))
        return patched

    @staticmethod
    def uninstall(patched):
        for owner, attr, orig in reversed(patched):
            setattr(owner, attr, orig)


def aggregate(spans):
    """Per span name: calls, total and self seconds, peak MB, counters.

    Self time is a span's duration minus its direct children's; spans of
    one thread nest strictly, so children never overlap.
    """
    child_s = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_s[s.parent] += s.end - s.start
    out = {}
    for i, s in enumerate(spans):
        row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                      "peak_mb": 0.0, "counters": {}})
        dur = s.end - s.start
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += dur - child_s[i]
        row["peak_mb"] = max(row["peak_mb"], s.peak_mb)
        for k, v in s.counters.items():
            row["counters"][k] = row["counters"].get(k, 0) + v
    return out
