"""Span recorder for the traced benchmark run.

``Recorder.time_imports`` records one span per framemult module import,
and ``Recorder.install`` replaces every module-level binding of each public
function in ``framemult.*`` with a wrapper that records one span per call,
and does the same for the ``numpy.linalg`` factorizations the package
uses. ``BlockSystem.block`` gets a plain call counter instead of a span,
because it is called once per block of every sweep.

A span is (name, start, end, parent span, operation id). Spans are kept in
flat arrays while the program runs and written to one file at the end;
``summarize`` turns that file into per-name self time, total time and
call counts, leaving out spans recorded with a negative operation id.
The program itself is not edited.
"""

from __future__ import annotations

import array
import functools
import importlib
import importlib.abc
import importlib.machinery
import inspect
import json
import sys
import time

import numpy as np

FRAMEMULT_MODULES = ("framemult", "framemult.numerics", "framemult.errors",
                     "framemult.frames", "framemult.multipliers",
                     "framemult.blockseq", "framemult.formats", "framemult.cli")
FACTORIZATIONS = ("svd", "inv", "solve", "eigvalsh", "pinv")


class Recorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack: list[int] = []
        self.current_op = 0
        self.blocks = 0

    def _wrap(self, fn, span_name: str):
        if span_name not in self.name_ids:
            self.name_ids[span_name] = len(self.names)
            self.names.append(span_name)
        name_id = self.name_ids[span_name]
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()

        return span

    def time_imports(self) -> None:
        """Record a span around the execution of every framemult module as it is imported.

        Must run before anything imports framemult; the spans are named
        ``<layer>.import``, so import cost counts towards each layer's self time.
        """
        recorder = self

        class ImportTimer(importlib.abc.MetaPathFinder):
            def find_spec(self, fullname, path, target=None):
                if fullname.split(".")[0] != "framemult":
                    return None
                spec = importlib.machinery.PathFinder.find_spec(fullname, path, target)
                if spec is not None and spec.loader is not None:
                    layer = fullname.rsplit(".", 1)[-1]
                    spec.loader.exec_module = recorder._wrap(spec.loader.exec_module,
                                                             f"{layer}.import")
                return spec

        sys.meta_path.insert(0, ImportTimer())

    def install(self) -> None:
        """Patch framemult's public functions and the numpy factorizations."""
        modules = [importlib.import_module(name) for name in FRAMEMULT_MODULES]
        wrappers: dict[object, object] = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or not value.__module__.startswith("framemult.")
                        or value.__name__.startswith("_")):
                    continue
                if value not in wrappers:
                    layer = value.__module__.rsplit(".", 1)[-1]
                    wrappers[value] = self._wrap(value, f"{layer}.{value.__name__}")
                setattr(module, attr, wrappers[value])

        for attr in FACTORIZATIONS:
            original = getattr(np.linalg, attr)
            setattr(np.linalg, attr, self._wrap(original, f"numerics.linalg.{attr}"))

        blockseq = importlib.import_module("framemult.blockseq")
        block = blockseq.BlockSystem.block

        @functools.wraps(block)
        def counted_block(system, k):
            self.blocks += 1
            return block(system, k)

        blockseq.BlockSystem.block = counted_block

    def dump(self, path: str) -> None:
        """Write the spans: a JSON header line, then the five raw arrays."""
        header = {"names": self.names, "count": len(self.start), "blocks": self.blocks}
        with open(path, "wb") as handle:
            handle.write((json.dumps(header) + "\n").encode())
            for arr in (self.name, self.parent, self.op, self.start, self.end):
                arr.tofile(handle)


def summarize(path: str) -> dict:
    """Per-name self seconds, total seconds and calls from a dump file, for ops >= 0."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        count = header["count"]
        columns = {}
        for key, code in (("name", "i"), ("parent", "i"), ("op", "i"),
                          ("start", "d"), ("end", "d")):
            arr = array.array(code)
            arr.fromfile(handle, count)
            columns[key] = np.frombuffer(arr, dtype=np.int32 if code == "i" else np.float64)
    names = header["names"]
    duration = columns["end"] - columns["start"]
    parent = columns["parent"]
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=duration[nested], minlength=count)
    self_time = duration - child
    kept = columns["op"] >= 0
    ids = columns["name"][kept]
    size = len(names)
    calls = np.bincount(ids, minlength=size)
    self_by = np.bincount(ids, weights=self_time[kept], minlength=size)
    total_by = np.bincount(ids, weights=duration[kept], minlength=size)
    return {
        "spans": int(kept.sum()),
        "blocks": header["blocks"],
        "by_name": {name: {"calls": int(calls[i]), "self_s": float(self_by[i]),
                           "total_s": float(total_by[i])}
                    for i, name in enumerate(names) if calls[i]},
    }
