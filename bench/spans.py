"""Span recorder for the traced benchmark run.

The traced run wraps public functions of every `biderlie` module from the
outside: the wrapper replaces the function in its defining module and in
every module that imported it by name, and methods are replaced on their
class. Each wrapped call records a span (name, start, end, parent). Spans
stay in flat arrays in memory and are written out once, after the run.

A span's self time is its duration minus the time its child spans cover.
Counts that describe the work of a call (rows, nonzeros, rank, ...) are
taken from its arguments and result inside a separate `trace.count` span,
so the cost of counting shows up as tracing overhead and not as the self
time of the layer that was counted.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable

LAYERS = ("linalg", "algebras", "derivations", "biderivations", "bilinear", "brackets",
          "scalar_maps", "formats", "verify", "cli", "report")

COUNT_SPAN = "trace.count"


class Recorder:
    """In-memory span store. Spans are appended in start order."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("l")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []
        self.enabled = False
        self.counts: dict[str, float] = {}
        self.maxima: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def maximum(self, key: str, value: float) -> None:
        if value > self.maxima.get(key, float("-inf")):
            self.maxima[key] = value

    def write_tsv(self, path) -> None:
        """Gzipped, one line per span: index, parent index, name, start and end in seconds."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\tname\tstart_s\tend_s\n")
            names = self.names
            for i, (nid, parent, start, end) in enumerate(
                    zip(self.name_ids, self.parents, self.starts, self.ends)):
                fh.write(f"{i}\t{parent}\t{names[nid]}\t{start:.9f}\t{end:.9f}\n")


def self_times(starts, ends, parents) -> list[float]:
    """Duration of each span minus the part of it that its children cover.

    Spans must be listed in start order with each child inside its parent's
    interval, which is what a single-threaded recorder produces. Children of
    one parent are then met in start order, so the covered time is a running
    union of their intervals.
    """
    n = len(starts)
    covered = [0.0] * n
    last_end = [float("-inf")] * n
    for i in range(n):
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], starts[p], last_end[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
        if ends[i] > last_end[p]:
            last_end[p] = ends[i]
    return [ends[i] - starts[i] - covered[i] for i in range(n)]


@dataclass(frozen=True)
class Target:
    """One function or method to wrap.

    `name` is the span name, or a function of the call's positional and
    keyword arguments that returns it. `counter(rec, args, kwargs, result)`
    records counts for the call.
    """

    module: str
    attr: str
    name: str | Callable
    layer: str
    counter: Callable | None = None


def _wrap(fn, rec: Recorder, name, counter):
    fixed = rec.name_id(name) if isinstance(name, str) else None
    count_id = rec.name_id(COUNT_SPAN)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        nid = fixed if fixed is not None else rec.name_id(name(args, kwargs))
        idx = rec.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if counter is not None:
            cidx = rec.open(count_id)
            try:
                counter(rec, args, kwargs, result)
            finally:
                rec.close(cidx)
        return result

    return wrapper


def install(rec: Recorder, targets, package: str = "biderlie") -> Callable[[], None]:
    """Wrap every target; returns a function that puts the originals back.

    A module-level function is replaced wherever a module of `package`
    holds it by name, since consumers import functions with `from ... import`.
    """
    restore: list[tuple[object, str, object]] = []
    for t in targets:
        mod = importlib.import_module(t.module)
        if "." in t.attr:
            cls_name, meth = t.attr.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                wrapped = classmethod(_wrap(raw.__func__, rec, t.name, t.counter))
            else:
                wrapped = _wrap(raw, rec, t.name, t.counter)
            restore.append((cls, meth, raw))
            setattr(cls, meth, wrapped)
            continue
        original = getattr(mod, t.attr)
        wrapped = _wrap(original, rec, t.name, t.counter)
        for m in list(sys.modules.values()):
            mname = getattr(m, "__name__", "")
            if mname != package and not mname.startswith(package + "."):
                continue
            for key, value in list(vars(m).items()):
                if value is original:
                    restore.append((m, key, original))
                    setattr(m, key, wrapped)

    def uninstall() -> None:
        for obj, key, value in reversed(restore):
            setattr(obj, key, value)

    return uninstall


def summarize(rec: Recorder, layer_of: dict[str, str]) -> dict:
    """Per span name: calls, self seconds and inclusive seconds; per layer: self seconds.

    Names missing from `layer_of` fall into the `trace` layer (the count spans).
    """
    selfs = self_times(rec.starts, rec.ends, rec.parents)
    per_name: dict[str, list[float]] = {}
    roots_s = 0.0
    for i, s in enumerate(selfs):
        name = rec.names[rec.name_ids[i]]
        agg = per_name.setdefault(name, [0, 0.0, 0.0])
        dur = rec.ends[i] - rec.starts[i]
        agg[0] += 1
        agg[1] += s
        agg[2] += dur
        if rec.parents[i] < 0:
            roots_s += dur
    layers = {layer: 0.0 for layer in LAYERS + ("trace",)}
    for name, (_, s, _) in per_name.items():
        layers[layer_of.get(name, "trace")] += s
    return {"names": per_name, "layers": layers, "roots_s": roots_s}
