"""In-memory span tracer that wraps pomtrans module attributes.

The benchmark records spans from its own files only: it swaps the public
functions listed in ``TARGETS`` for wrappers while a traced op runs, then
puts the originals back.  Calls resolved through a module attribute, including
by-name re-imports such as ``analysis.efficiency``, pass through the
wrappers; nothing under ``src/`` changes.

Each span is ``[name, start, end, parent, op]``: ``parent`` is the index of
the enclosing span (-1 for an op's root) and ``op`` the op id.  Spans stay in
memory and are written once, when the workload process exits.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import Counter


def _to_csv_measure(extra, args, kwargs, result):
    extra["sweep.to_csv.rows"] += len(args[0])
    extra["sweep.to_csv.bytes"] += len(result)


def _trapezoid_measure(extra, args, kwargs, result):
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    extra["coupling.bytes_computed"] += math.prod(grid.counts) * 16


# (module, attribute, span name, mode, measure).  "span" records timing;
# "count" only counts calls, for functions called once per grid cell, where
# a span would cost more than the work it times.  Their time stays in the
# caller's self time.
TARGETS = (
    ("cli", "main", "cli.main", "span", None),
    ("dynamics", "load_params", "dynamics.load_params", "span", None),
    ("analysis", "apply_preset", "analysis.apply_preset", "span", None),
    ("dynamics", "efficiency", "dynamics.efficiency", "span", None),
    ("analysis", "efficiency", "dynamics.efficiency", "span", None),
    ("dynamics", "pump_power_to_photons", "dynamics.pump_power_to_photons", "span", None),
    ("analysis", "pump_power_to_photons", "dynamics.pump_power_to_photons", "span", None),
    ("dynamics", "derived_rates", "dynamics.derived_rates", "count", None),
    ("analysis", "derived_rates", "dynamics.derived_rates", "count", None),
    ("analysis", "max_efficiency", "analysis.max_efficiency", "count", None),
    ("analysis", "efficiency_spectrum", "analysis.efficiency_spectrum", "span", None),
    ("analysis", "max_efficiency_contour", "analysis.max_efficiency_contour", "span", None),
    ("analysis", "power_curve", "analysis.power_curve", "span", None),
    ("sweep.SweepResult", "to_csv", "sweep.to_csv", "span", _to_csv_measure),
    ("coupling", "load_mode_field", "coupling.load_mode_field", "span", None),
    ("coupling", "strain_field", "coupling.strain_field", "span", None),
    ("coupling", "trapezoid_3d", "coupling.trapezoid_3d", "span", _trapezoid_measure),
    ("coupling", "optomech_coupling", "coupling.optomech_coupling", "span", None),
    ("coupling", "piezo_coupling_total", "coupling.piezo_coupling_total", "span", None),
    ("coupling", "em_mode_volume", "coupling.mode_volume", "span", None),
    ("coupling", "mech_mode_volume", "coupling.mode_volume", "span", None),
    ("rings", "transmission_spectrum", "rings.transmission_spectrum", "span", None),
    ("materials", "load_materials", "materials.load_materials", "span", None),
    ("materials", "rank", "materials.rank", "span", None),
)


class Tracer:
    """Span and call-count recorder for one workload process."""

    def __init__(self, package):
        self.spans = []
        self.stack = []
        self.calls = Counter()
        self.extra = Counter()
        self.op = -1
        self._patches = []
        for owner_path, attr, name, mode, measure in TARGETS:
            owner = functools.reduce(getattr, owner_path.split("."), package)
            original = getattr(owner, attr)
            wrapper = (self._span(name, original, measure) if mode == "span"
                       else self._count(name, original))
            self._patches.append((owner, attr, original, wrapper))

    def _span(self, name, fn, measure):
        spans, stack, calls, extra = self.spans, self.stack, self.calls, self.extra
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            calls[name] += 1
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if measure is not None:
                measure(extra, args, kwargs, result)
            return result

        return wrapped

    def _count(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    def install(self, op):
        self.op = op
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        self.stack.clear()

    def durations(self):
        """Per span name: (inclusive seconds, self seconds), summed over all spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        inclusive, self_time = Counter(), Counter()
        for (name, start, end, _, _), inner in zip(self.spans, child):
            inclusive[name] += end - start
            self_time[name] += end - start - inner
        return inclusive, self_time

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["name", "start", "end", "parent", "op"],
                "names": names,
                "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
            }, fh)
