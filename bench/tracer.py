"""Span tracing from outside the package.

A :class:`Tracer` replaces public functions with wrappers at the module
attribute their caller looks them up by (``farfield.gss.wpe`` is the
name ``gss_enhance`` calls), records one span per call and puts the
originals back on exit. Spans stay in memory; :meth:`Tracer.rows`
hands them out for writing when the run ends.

A span is ``(name, start, end, parent)``: ``name`` is the defining
module and function (``wpe.wpe``), times are ``perf_counter`` seconds
and ``parent`` is the index of the enclosing span or -1. Work counts
(frames, cells, bytes) and tracemalloc peaks are kept per span too.
"""

from __future__ import annotations

import functools
import importlib
import os
import tracemalloc
from collections import defaultdict
from time import perf_counter


def _frames(args, kwargs):
    return {"frames": args[0].frames}


def _bin_frames(args, kwargs):
    return {"frames": args[0].frames, "bin_frames": args[0].frames * args[0].bins}


def _edit_cells(args, kwargs):
    return {"cells": len(args[0]) * len(args[1])}


def _wtn_cells(args, kwargs):
    return {"cells": len(args[0].slots) * len(args[1])}


def _file_bytes(args, kwargs):
    return {"bytes": os.path.getsize(args[0])}


# (site module, attribute, span name, work counter or None, track memory)
SITES = (
    ("farfield.cli", "main", "cli.main", None, False),
    ("farfield.cli", "gss_enhance", "gss.gss_enhance", None, False),
    ("farfield.cli", "read_wav", "wavio.read_wav", None, False),
    ("farfield.cli", "write_wav", "wavio.write_wav", _file_bytes, False),
    ("farfield.formats", "read_rttm", "formats.read_rttm", None, False),
    ("farfield.formats", "sha256_file", "formats.sha256_file", None, False),
    ("farfield.gss", "stft", "signal.stft", None, False),
    ("farfield.gss", "istft", "signal.istft", None, False),
    ("farfield.gss", "wpe", "wpe.wpe", _frames, True),
    ("farfield.gss", "fit_cacgmm", "gss.fit_cacgmm", _bin_frames, True),
    ("farfield.gss", "cacgmm_posteriors", "gss.cacgmm_posteriors", None, False),
    ("farfield.gss", "mvdr_beamform", "gss.mvdr_beamform", None, False),
    ("farfield.gss", "spatial_covariance", "gss.spatial_covariance", None, False),
    ("farfield.gss", "mvdr_weights", "gss.mvdr_weights", None, False),
    ("farfield.simulate", "make_meeting", "simulate.make_meeting", None, False),
    ("farfield.simulate", "image_source_rir", "simulate.image_source_rir", None, False),
    ("farfield.metrics", "cpcer", "metrics.cpcer", None, False),
    ("farfield.metrics", "edit_distance", "metrics.edit_distance", _edit_cells, False),
    ("farfield.metrics", "der", "metrics.der", None, False),
    ("farfield.rover", "rover", "rover.rover", None, False),
    ("farfield.rover", "align_into_wtn", "rover.align_into_wtn", _wtn_cells, False),
)


class Tracer:
    """Context manager that wraps :data:`SITES` while active."""

    def __init__(self, track_memory: bool = False):
        self.track_memory = track_memory
        self.spans = []  # [name, start, end, parent]
        self.work = []  # per span: {quantity: count} or None
        self.peak = []  # per span: tracemalloc peak above entry, bytes, or None
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name, counter, memory):
        memory = memory and self.track_memory

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, 0.0, 0.0, parent])
            self.work.append(None)
            self.peak.append(None)
            self._stack.append(index)
            if memory:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index][1:3] = [start, end]
            if memory:
                self.peak[index] = tracemalloc.get_traced_memory()[1] - base
            if counter is not None:
                self.work[index] = counter(args, kwargs)
            return result

        return traced

    def __enter__(self):
        if self.track_memory:
            tracemalloc.start()
        for module_name, attr, name, counter, memory in SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter, memory))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        if self.track_memory:
            tracemalloc.stop()
        return False

    def layer_totals(self) -> dict:
        """name -> {calls, self_s, peak_bytes, <work quantities>} over all spans.

        Self time is a span's duration minus the durations of its direct
        children; children nest inside their parent, so this is the
        part of the interval no child covers.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _) in enumerate(self.spans):
            t = totals[name]
            t["calls"] += 1
            t["self_s"] += (end - start) - child_time[i]
            for quantity, count in (self.work[i] or {}).items():
                t[quantity] += count
            if self.peak[i] is not None:
                t["peak_bytes"] = max(t["peak_bytes"], self.peak[i])
        return {name: dict(t) for name, t in totals.items()}

    def rows(self) -> list:
        """The spans as [name, start, end, parent, work] rows."""
        return [span + [work] for span, work in zip(self.spans, self.work)]
