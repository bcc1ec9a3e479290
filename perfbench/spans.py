"""In-memory span recorder for the benchmark's traced runs.

A span is opened around each public call a workload makes into lapasym.
It records name, start, end, parent span and run id, the process's
system-CPU seconds and minor page faults spent inside the call
(``getrusage(RUSAGE_SELF)`` deltas, so worker threads count), and, when
``track_alloc`` is on, the ``tracemalloc`` peak above the allocation level
at entry.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import resource
import time
import tracemalloc
from contextlib import contextmanager


class Tracer:
    """Collects spans for one pass of a workload.

    A disabled tracer yields a throwaway attribute dict and records
    nothing, so the same workload code runs traced and untraced.
    """

    def __init__(self, run_id: str, enabled: bool = True,
                 track_alloc: bool = False, origin: float | None = None):
        self.run_id = run_id
        self.enabled = enabled
        self.track_alloc = track_alloc and enabled
        self.origin = time.perf_counter() if origin is None else origin
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    def __enter__(self):
        if self.track_alloc:
            tracemalloc.start()
        return self

    def __exit__(self, *exc):
        if self.track_alloc:
            tracemalloc.stop()
        return False

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield attrs
            return
        parent = self._stack[-1] if self._stack else None
        rec = {"id": len(self.spans), "parent": parent["id"] if parent else None,
               "run": self.run_id, "name": name}
        self.spans.append(rec)
        if self.track_alloc:
            # resetting the peak would hide the parent's peak so far: fold it in
            if parent is not None:
                parent["_peak"] = max(parent["_peak"], tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            rec["_base"] = tracemalloc.get_traced_memory()[0]
            rec["_peak"] = 0
        self._stack.append(rec)
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        rec["start"] = time.perf_counter() - self.origin
        try:
            yield attrs
        finally:
            rec["end"] = time.perf_counter() - self.origin
            ru1 = resource.getrusage(resource.RUSAGE_SELF)
            rec["sys_s"] = ru1.ru_stime - ru0.ru_stime
            rec["minflt"] = ru1.ru_minflt - ru0.ru_minflt
            self._stack.pop()
            if self.track_alloc:
                peak = max(rec.pop("_peak"), tracemalloc.get_traced_memory()[1])
                rec["peak_alloc_b"] = peak - rec.pop("_base")
                if parent is not None:
                    parent["_peak"] = max(parent["_peak"], peak)
            rec.update(attrs)


def duration(span: dict) -> float:
    return span["end"] - span["start"]
