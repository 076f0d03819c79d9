"""In-memory spans around fogsim's layer calls, and the arithmetic on them.

A span records one call of a wrapped function: its name, start and end
(``time.perf_counter`` seconds), the span open around it, the thread it ran
on, the workload and run id, and counts taken from the call's arguments and
result.  Recording happens in the traced launcher process; ``chain_layers``
turns the spans of one five-command chain into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import itertools
import os
import statistics
import threading
import time
from functools import wraps


def _io(rows=None):
    """Counter of an io_formats call: file size in bytes and table rows."""
    def count(args, result):
        attrs = {"bytes": os.path.getsize(args[0])}
        if rows is not None:
            attrs["rows"] = rows(args, result)
        return attrs
    return count


def _estimate_counts(args, result):
    flags = result[2]
    return {"ok": flags.count("ok"), "estimated": len(flags)}


def _allan_counts(args, result):
    return {"origin": args[0].origin, "terms": int(result.n_terms.sum())}


# (module the caller looks the name up in, attribute, span name, counter).
# The package binds these names with ``from .x import y``, so the wrapper
# replaces the binding in the calling module, not the defining one.
WRAPPED = [
    ("fogsim.cli", "load_config", "config.load_config", None),
    ("fogsim.cli", "fisher_information", "model.fisher_information", None),
    ("fogsim.cli", "simulate_run", "simulate.simulate_run",
     lambda args, result: {"bins": len(result)}),
    ("fogsim.cli", "simulate_bright_scan", "simulate.simulate_bright_scan", None),
    ("fogsim.cli", "simulate_calibration_scan", "simulate.simulate_calibration_scan", None),
    ("fogsim.simulate", "block_uniforms", "philox.block_uniforms",
     lambda args, result: {"blocks": len(result)}),
    ("fogsim.simulate", "click_probabilities", "model.click_probabilities", None),
    ("fogsim.cli", "fit_fringe", "calibration.fit_fringe",
     lambda args, result: {"iterations": result.n_iterations}),
    ("fogsim.cli", "contrast_points_from_scan", "calibration.contrast_points_from_scan",
     lambda args, result: {"degenerate_steps": sum(p.degenerate for p in result)}),
    ("fogsim.cli", "fit_linear_calibration", "calibration.fit_linear_calibration", None),
    ("fogsim.cli", "estimate_delays", "calibration.estimate_delays", _estimate_counts),
    ("fogsim.cli", "even_odd_split", "stability.even_odd_split", None),
    ("fogsim.cli", "overlapping_allan_deviation", "stability.overlapping_allan_deviation",
     _allan_counts),
    ("fogsim.cli", "write_count_series", "io_formats.write_count_series",
     _io(lambda args, result: len(args[1]))),
    ("fogsim.cli", "read_count_series", "io_formats.read_count_series",
     _io(lambda args, result: len(result))),
    ("fogsim.cli", "write_delay_series", "io_formats.write_delay_series",
     _io(lambda args, result: len(args[1]))),
    ("fogsim.cli", "read_delay_series", "io_formats.read_delay_series",
     _io(lambda args, result: len(result[0]))),
    ("fogsim.cli", "write_allan_curves", "io_formats.write_allan_curves",
     _io(lambda args, result: sum(len(curve.m) for curve in args[1].values()))),
    ("fogsim.cli", "write_calibration_set", "io_formats.write_calibration_set", _io()),
    ("fogsim.cli", "read_calibration_set", "io_formats.read_calibration_set", _io()),
    ("fogsim.cli", "write_report", "io_formats.write_report", _io()),
    ("fogsim.cli", "write_manifest", "io_formats.write_manifest", _io()),
    ("fogsim.cli", "file_digest", "io_formats.file_digest", _io()),
]

COMMANDS = ("fisher", "simulate", "calibrate", "estimate", "stability")


class Tracer:
    """Collects spans; one per traced process."""

    def __init__(self, workload: str, run_id: str):
        self.workload = workload
        self.run_id = run_id
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        # A worker thread's first span belongs to the call that is waiting
        # on the pool, which is the innermost span open on the main thread.
        return self._main_stack[-1] if self._main_stack else None

    def record(self, name: str, call, *args, counter=None, **kwargs):
        """Run ``call(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = self._parent(stack)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = call(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        attrs = counter(args, result) if counter else {}
        self.spans.append({
            "id": span_id, "name": name, "start": start, "end": end,
            "parent": parent, "thread": threading.get_ident(),
            "workload": self.workload, "run_id": self.run_id, "attrs": attrs,
        })
        return result

    def wrap(self, name: str, func, counter=None):
        @wraps(func)
        def traced(*args, **kwargs):
            return self.record(name, func, *args, counter=counter, **kwargs)
        return traced

    def install(self) -> None:
        """Replace every ``WRAPPED`` module attribute by its traced wrapper."""
        for module_name, attr, name, counter in WRAPPED:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(name, getattr(module, attr), counter))


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover.

    Children may overlap each other (worker threads); their union counts
    once.  Child intervals are clipped to the parent's.
    """
    by_id = {s["id"]: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = {i: [] for i in by_id}
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None:
            children[parent["id"]].append((max(s["start"], parent["start"]),
                                           min(s["end"], parent["end"])))
    return {i: (s["end"] - s["start"]) - covered(children[i]) for i, s in by_id.items()}


def chain_layers(processes) -> dict[str, float]:
    """Per-layer metrics of one chain from each traced process's spans.

    ``processes`` is a list of span lists, one per command.  Every layer
    gets ``<name>.s`` and ``<name>.self_s``, summed over its calls in the
    chain (across threads); counts are summed likewise.  ``cli.import_s``
    is the median import time over the processes.
    """
    sums: dict[str, float] = {}

    def add(key, value):
        sums[key] = sums.get(key, 0.0) + value

    imports = []
    ok = estimated = 0
    for spans in processes:
        selfs = self_times(spans)
        for s in spans:
            name, attrs = s["name"], s["attrs"]
            duration = s["end"] - s["start"]
            if name == "cli.import":
                imports.append(duration)
                continue
            add(f"{name}.self_s", selfs[s["id"]])
            if name == "stability.overlapping_allan_deviation":
                add(f"{name}.{attrs['origin']}.s", duration)
                add(f"{name}.terms", attrs["terms"])
            else:
                add(f"{name}.s", duration)
            if name == "calibration.estimate_delays":
                ok += attrs["ok"]
                estimated += attrs["estimated"]
            for key in ("bins", "blocks", "iterations", "degenerate_steps"):
                if key in attrs:
                    add(f"{name}.{key}", attrs[key])
            for key in ("rows", "bytes"):
                if key in attrs:
                    add(f"io_formats.{key}", attrs[key])
    if estimated:
        sums["calibration.estimate_delays.ok_ratio"] = ok / estimated
    if imports:
        sums["cli.import_s"] = statistics.median(imports)
    return sums
