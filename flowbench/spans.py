"""In-memory spans around the flow's layer entry points.

The benchmark measures end-to-end metrics with the program untouched.
For the separate traced pass, :class:`Layers` replaces the names that
``repro.core.flow``, ``repro.synth.sizing`` and the variation engine
call with timing wrappers, and puts the originals back afterwards.
Each call becomes one span (name, start, end, parent), kept in memory.

Pool workers are forked from the traced process, so they inherit the
wrappers.  Each worker starts with an empty span list whose parent is
the span that was open when the pool forked, and writes its spans to
one JSON file when it exits.  :meth:`Recorder.collect` merges those
files, so worker spans are part of the same tree.
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing.util
import os
import time
from contextlib import contextmanager
from pathlib import Path


def _sizing_counts(rec: "Recorder", report) -> None:
    rec.count("synth.buffers_added", report.buffers_added)
    rec.count("synth.sizing_iterations", report.iterations)


def _routing_counts(rec: "Recorder", result) -> None:
    rec.count("pnr.routing.rrr_iterations", result.iterations)
    rec.count("pnr.routing.overflow_edges", result.overflow_edges)
    rec.count("pnr.routing.drv", result.drv_count)


def _sample_counts(rec: "Recorder", outcome) -> None:
    good, bad = outcome
    rec.count("variation.samples", len(good) + len(bad))
    rec.count("variation.failed", len(bad))


#: (module, attribute, span name, result hook).  The attribute is the
#: name the caller looks up at call time, so wrapping it times exactly
#: the calls that module makes; ``Class.method`` wraps a method.
LAYER_ENTRY_POINTS = (
    ("repro.core.flow", "prepare_library", "cells.prepare_library", None),
    ("repro.netlist", "Netlist.bind", "netlist.bind", None),
    ("repro.core.flow", "size_for_target", "synth.size_for_target",
     _sizing_counts),
    ("repro.synth.sizing", "buffer_high_fanout", "synth.buffer_high_fanout",
     None),
    ("repro.synth.sizing", "estimate_parasitics",
     "synth.estimate_parasitics", None),
    ("repro.synth.sizing", "analyze_timing", "synth.analyze_timing", None),
    ("repro.core.flow", "plan_floor", "pnr.plan_floor", None),
    ("repro.core.flow", "place", "pnr.place", None),
    ("repro.core.flow", "synthesize_clock_tree", "pnr.synthesize_clock_tree",
     None),
    ("repro.core.flow", "legalize", "pnr.legalize", None),
    ("repro.core.flow", "build_grid", "pnr.routing.build_grid", None),
    ("repro.core.flow", "decompose_nets", "pnr.routing.decompose_nets", None),
    ("repro.core.flow", "GlobalRouter.route_all", "pnr.routing.route_all",
     _routing_counts),
    ("repro.core.flow", "def_from_routing", "lefdef.def_from_routing", None),
    ("repro.core.flow", "merge_defs", "lefdef.merge_defs", None),
    ("repro.core.flow", "extract_design", "extract.extract_design", None),
    ("repro.core.flow", "analyze_timing", "sta.analyze_timing", None),
    ("repro.core.flow", "analyze_power", "power.analyze_power", None),
    ("repro.variation.engine", "nominal_bundle", "variation.nominal_bundle",
     None),
    ("repro.variation.engine", "run_samples", "variation.run_samples",
     _sample_counts),
    ("repro.variation.engine", "evaluate_sample", "variation.evaluate_sample",
     None),
)


class Recorder:
    """Spans and counts of one traced process, held in memory.

    The flow runs single-threaded in each process, so one stack of
    open spans per process is enough.
    """

    def __init__(self, spill_dir: Path) -> None:
        self.spill_dir = Path(spill_dir)
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[str] = []
        self._seq = 0
        multiprocessing.util.register_after_fork(self, Recorder._in_child)

    def _in_child(self) -> None:
        # A fresh worker keeps the inherited open-span stack (so its
        # spans hang under the span that forked it) and starts empty.
        self.pid = os.getpid()
        self.spans, self.counts, self._seq = [], {}, 0
        multiprocessing.util.Finalize(None, self._spill, exitpriority=10)

    def _spill(self) -> None:
        if not (self.spans or self.counts):
            return
        path = self.spill_dir / f"spans-{self.pid}.json"
        path.write_text(json.dumps({"spans": self.spans,
                                    "counts": self.counts}))

    @contextmanager
    def span(self, name: str):
        self._seq += 1
        span_id = f"{self.pid}.{self._seq}"
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append({"id": span_id, "name": name, "start": start,
                               "end": end, "parent": parent,
                               "pid": self.pid})

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def collect(self) -> tuple[list[dict], dict[str, float]]:
        """This process's spans plus every exited worker's; resets all."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], {}
        for path in sorted(self.spill_dir.glob("spans-*.json")):
            data = json.loads(path.read_text())
            path.unlink()
            spans.extend(data["spans"])
            for name, value in data["counts"].items():
                counts[name] = counts.get(name, 0) + value
        return spans, counts


def _resolve(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


class Layers:
    """Wraps every :data:`LAYER_ENTRY_POINTS` name while active.

    The entry points' modules are imported here, not on entry, so no
    import lands inside a timed pass.
    """

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._targets = [(*_resolve(module_name, attr), name, hook)
                         for module_name, attr, name, hook
                         in LAYER_ENTRY_POINTS]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, hook):
        rec = self.recorder

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            with rec.span(name):
                out = fn(*args, **kwargs)
            rec.count(f"{name}.calls", 1)
            if hook is not None:
                hook(rec, out)
            return out
        return timed

    def __enter__(self) -> "Layers":
        for owner, leaf, name, hook in self._targets:
            original = owner.__dict__[leaf]
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, name, hook))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)


def self_times(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive and self seconds.

    Self time is a span's duration minus the part of its interval that
    its children cover (children of one span may overlap when they run
    in parallel workers, so their union is subtracted, not their sum).
    """
    children: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    table: dict[str, dict[str, float]] = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for lo, hi in sorted(children.get(s["id"], ())):
            lo, hi = max(lo, reach), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        row = table.setdefault(s["name"],
                               {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s["end"] - s["start"]
        row["self_s"] += s["end"] - s["start"] - covered
    return table
