"""In-memory span tracer that wraps setnet's public functions.

Each layer module lists its public API in ``__all__``.  ``Tracer.install``
replaces every function named there, in every loaded ``setnet`` module that
binds it, so calls between layers are caught as well as calls from the CLI.
Classes are left alone: constructing them counts as the caller's self time.

Per-element scalar kernels get count-only wrappers (no span), which keeps
the tracing overhead and the span store bounded; their time is part of the
caller's self time.  Spans are kept as (name, start, end, parent) in flat
arrays and written out once the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("numerics", "cardloss", "cardnet", "mlmetrics", "detect", "formats",
          "synth", "setinfer")

# Called once per element (sample, box pair, pmf term): counted, not spanned.
COUNT_ONLY = frozenset({
    "numerics.log_gamma", "numerics.digamma", "numerics.nb_log_pmf",
    "detect.iou", "cardloss.sigmoid",
})


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    # -- wrapping ----------------------------------------------------------

    def _span_wrapper(self, fn, qualname: str):
        nid = self.name_id(qualname)
        open_, close = self.open, self.close
        post = _POST.get(qualname)
        pre = _PRE.get(qualname)
        counts = self.counts

        def wrapped(*args, **kwargs):
            if pre is not None:
                args = pre(counts, args)
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if post is not None:
                post(counts, result)
            return result

        return wrapped

    def _count_wrapper(self, fn, qualname: str):
        counts = self.counts

        def wrapped(*args, **kwargs):
            counts[qualname] += 1
            return fn(*args, **kwargs)

        return wrapped

    def install(self) -> None:
        """Wrap every function in each layer's ``__all__`` wherever it is bound."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "setnet" or name.startswith("setnet."))]
        for layer in LAYERS:
            mod = importlib.import_module(f"setnet.{layer}")
            for fname in mod.__all__:
                fn = getattr(mod, fname)
                if not inspect.isfunction(fn):
                    continue
                qualname = f"{layer}.{fname}"
                make = self._count_wrapper if qualname in COUNT_ONLY else self._span_wrapper
                wrapped = make(fn, qualname)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            self._patches.append((m, attr, fn))
                            setattr(m, attr, wrapped)

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._patches):
            setattr(m, attr, fn)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        name = np.frombuffer(self.span_name, dtype=np.int32)
        start = np.frombuffer(self.span_start, dtype=np.float64)
        end = np.frombuffer(self.span_end, dtype=np.float64)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {"name": name, "start": start, "end": end, "parent": parent,
                "dur": dur, "self": dur - child}

    def save(self, path: str) -> None:
        a = self.arrays()
        np.savez(path, names=np.asarray(self.names), name=a["name"],
                 start=a["start"], end=a["end"], parent=a["parent"])


def _counted_rows(counts: Counter, key: str, rows):
    for row in rows:
        counts[key] += 1
        yield row


def _counted_boxes(counts: Counter, key: str, images):
    for image_id, boxes in images:
        boxes = list(boxes)
        counts[key] += len(boxes)
        yield image_id, boxes


# Row counters at the formats boundary: reads are counted from the result,
# writes by passing the row iterable through a counting generator.
_PRE = {
    "formats.write_jsonl": lambda c, a: (a[0], a[1], _counted_rows(c, "formats.rows_written", a[2])) + a[3:],
    "formats.write_boxes": lambda c, a: (a[0], a[1], _counted_boxes(c, "formats.rows_written", a[2])) + a[3:],
}
_POST = {
    "formats.read_jsonl": lambda c, r: c.update({"formats.rows_read": len(r[1])}),
    "formats.read_boxes": lambda c, r: c.update({"formats.rows_read": sum(len(v) for v in r.values())}),
}
