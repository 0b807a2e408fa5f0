"""Span recorder installed around the program's public entry points.

Each entry point is replaced where its callers look it up: methods on their
class, module functions in every `combipyramid` module that imported them.
A span keeps its name, start, end and parent; spans stay in memory until
the run writes them out. Self time is a span's duration minus the time its
direct children cover, which is exact for the single-threaded program.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from typing import Callable

# (span name, owner, attribute): owner is "module" for a module function or
# "module.Class" for a method. Only public names, so a private rewrite inside
# the program never breaks the trace.
ENTRY_POINTS = [
    ("netpbm.load_image", "netpbm", "load_image"),
    ("map_core.build_grid_map", "map_core", "build_grid_map"),
    ("map_core.cycles", "map_core.CombinatorialMap", "cycles"),
    ("segmentation.run", "segmentation.SegmentedImage", "run"),
    ("segmentation.merge_level", "segmentation.SegmentedImage", "merge_level"),
    ("pyramid.apply_kernel", "pyramid.Pyramid", "apply_kernel"),
    ("pyramid.compute_rkesl", "pyramid.Pyramid", "compute_rkesl"),
    ("pyramid.compute_rkede", "pyramid.Pyramid", "compute_rkede"),
    ("pyramid.reconstruct_level", "pyramid.Pyramid", "reconstruct_level"),
    ("pyramid.redundant_darts", "pyramid.Pyramid", "redundant_darts"),
    ("pyramid.composed_of", "pyramid.Pyramid", "composed_of"),
    ("pyramid.pixel_labels", "pyramid.Pyramid", "pixel_labels"),
    ("pyramid.to_json", "pyramid.Pyramid", "to_json"),
    ("pyramid.from_json", "pyramid.Pyramid", "from_json"),
    ("containment.contains", "containment", "contains"),
    ("containment.inside_all", "containment", "inside_all"),
    ("containment.inside_direct", "containment", "inside_direct"),
    ("containment.starting_darts", "containment", "starting_darts"),
    ("containment.require_clean_level", "containment", "require_clean_level"),
    ("relations.relation_report", "relations", "relation_report"),
    ("relations.rag_export", "relations", "rag_export"),
    ("relations.region_ids", "relations", "region_ids"),
    ("relations.infinite_region", "relations", "infinite_region"),
    ("relations.meets_each", "relations", "meets_each"),
    ("boundary.segment", "boundary", "segment"),
]

PACKAGE = "combipyramid"


class MissingEntryPoint(RuntimeError):
    """A listed entry point is gone or never ran: the trace map is stale."""


class Tracer:
    """Spans in flat arrays: name index, start and end in ns, parent index."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        # a span nested in a span of the same name is left out of totals
        self.nested = array("b")
        self._stack: list[int] = []
        self._open: dict[int, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        k = self._name_ids.get(name)
        if k is None:
            k = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return k

    def wrap(self, name: str, fn: Callable) -> Callable:
        k = self._name_id(name)
        stack, opened = self._stack, self._open
        name_of, start, end, parent, nested = self.name_of, self.start, self.end, self.parent, self.nested
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(k)
            parent.append(stack[-1] if stack else -1)
            depth = opened.get(k, 0)
            nested.append(1 if depth else 0)
            opened[k] = depth + 1
            stack.append(idx)
            end.append(0)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                opened[k] = depth

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def span(self, name: str, fn: Callable, *args):
        """Run fn(*args) as a span opened by the benchmark itself."""
        return self.wrap(name, fn)(*args)

    # -- installing around the program -------------------------------------------

    def install(self) -> None:
        for name, owner, attr in ENTRY_POINTS:
            module_name, _, cls_name = owner.partition(".")
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            if module is None:
                raise MissingEntryPoint(f"module {PACKAGE}.{module_name} is not loaded")
            if cls_name:
                cls = getattr(module, cls_name, None)
                raw = None if cls is None else cls.__dict__.get(attr)
                if raw is None:
                    raise MissingEntryPoint(f"{owner}.{attr} does not exist")
                if isinstance(raw, classmethod):
                    patched = classmethod(self.wrap(name, raw.__func__))
                else:
                    patched = self.wrap(name, raw)
                self._patch(cls, attr, raw, patched)
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                raise MissingEntryPoint(f"{owner}.{attr} does not exist")
            traced = self.wrap(name, fn)
            # every module that did `from .x import fn` holds its own name
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == PACKAGE or mod_name.startswith(PACKAGE + "."):
                    if getattr(mod, attr, None) is fn:
                        self._patch(mod, attr, fn, traced)

    def _patch(self, target: object, attr: str, original: object, patched: object) -> None:
        setattr(target, attr, patched)
        self._patches.append((target, attr, original))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    # -- summaries -----------------------------------------------------------------

    def mark(self) -> int:
        """Index of the next span, for summarising one stretch of spans."""
        return len(self.start)

    def summary(self, first: int = 0, last: int | None = None) -> dict[str, dict[str, float]]:
        """Per name: calls, total seconds and self seconds of spans in
        [first, last). Nested same-name spans count as calls only."""
        last = len(self.start) if last is None else last
        child = {}
        for i in range(first, last):
            p = self.parent[i]
            if p >= first:
                child[p] = child.get(p, 0) + self.end[i] - self.start[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(first, last):
            rec = out.setdefault(self.names[self.name_of[i]], {"calls": 0, "s": 0.0, "self_s": 0.0})
            dur = self.end[i] - self.start[i]
            rec["calls"] += 1
            rec["self_s"] += (dur - child.get(i, 0)) / 1e9
            if not self.nested[i]:
                rec["s"] += dur / 1e9
        return out

    def silent_entry_points(self, first: int = 0, last: int | None = None) -> list[str]:
        fired = self.summary(first, last)
        return [name for name, _, _ in ENTRY_POINTS if name not in fired]

    def write(self, path: str, first: int = 0, last: int | None = None) -> None:
        """Spans in [first, last) as JSON columns, times in ns from the first."""
        last = len(self.start) if last is None else last
        t0 = self.start[first] if last > first else 0
        doc = {
            "names": self.names,
            "name": self.name_of[first:last].tolist(),
            "start_ns": [t - t0 for t in self.start[first:last]],
            "end_ns": [t - t0 for t in self.end[first:last]],
            "parent": [p - first if p >= first else -1 for p in self.parent[first:last]],
        }
        with open(path, "w", encoding="ascii") as fh:
            json.dump(doc, fh, separators=(",", ":"))
