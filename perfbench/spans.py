"""Spans around the benchmark's calls into the package, plus Ray Data's
per-operator statistics.

Spans are kept in memory and written out once, at the end of a traced
run.  The operator statistics come from Ray's structured
``DatasetStats`` (the object ``Dataset._get_stats_summary()`` summarises),
walked through its ``parents`` so every operator of the executed plan
reports task time, rows, bytes and block counts.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np


class Tracer:
    """Records ``(id, name, start, end, parent)`` spans when enabled; a
    disabled tracer costs one attribute test per span."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: "list[dict]" = []
        self._open: "list[int]" = []

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield None
            return
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> "list[float]":
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def children(self, span_id: int) -> "list[dict]":
        return [s for s in self.spans if s["parent"] == span_id]


def operators(ds) -> "list[dict]":
    """One record per executed operator of ``ds`` (parents included)."""
    out: "list[dict]" = []

    def walk(stats) -> None:
        for name, blocks in stats.metadata.items():
            ex = [b.exec_stats for b in blocks if b.exec_stats is not None]
            starts = [e.start_time_s for e in ex if e.start_time_s is not None]
            ends = [e.end_time_s for e in ex if e.end_time_s is not None]
            out.append(
                {
                    "name": name,
                    "blocks": len(blocks),
                    "rows": [int(b.num_rows or 0) for b in blocks],
                    "bytes": int(sum(b.size_bytes or 0 for b in blocks)),
                    "task_s": float(sum(e.wall_time_s or 0.0 for e in ex)),
                    "cpu_s": float(sum(e.cpu_time_s or 0.0 for e in ex)),
                    "udf_s": float(sum(e.udf_time_s or 0.0 for e in ex)),
                    "wall_s": float(max(ends) - min(starts)) if starts and ends else 0.0,
                    "start": min(starts) if starts else None,
                    "end": max(ends) if ends else None,
                }
            )
        for parent in stats.parents or []:
            walk(parent)

    walk(ds._plan.stats())
    return out


def spilled_bytes(ds) -> int:
    return int(ds._get_stats_summary().global_bytes_spilled or 0)


EXCHANGE_FIGURES = (
    "exchange_wall_s",
    "exchange_task_s",
    "exchange_wait_s",
    "exchange_bytes",
    "exchange_in_blocks",
    "skew_max_over_median",
)


def exchange(ops: "list[dict]") -> "dict | None":
    """Layer figures for the keyed exchange (Ray's sort-based shuffle:
    the ``SortMap`` / ``SortReduce`` sub-operators); None when the plan
    has no such operators or they report no times."""
    smap = [o for o in ops if o["name"] == "SortMap"]
    sred = [o for o in ops if o["name"] == "SortReduce"]
    parts = smap + sred
    starts = [o["start"] for o in parts if o["start"] is not None]
    ends = [o["end"] for o in parts if o["end"] is not None]
    rows = [r for o in sred for r in o["rows"]]
    if not (smap and sred and starts and ends and rows):
        return None
    wall = max(ends) - min(starts)
    task = sum(o["task_s"] for o in parts)
    return {
        "exchange_wall_s": wall,
        "exchange_task_s": task,
        "exchange_wait_s": wall - task,
        "exchange_bytes": sum(o["bytes"] for o in smap),
        "exchange_in_blocks": sum(o["blocks"] for o in smap),
        "skew_max_over_median": float(max(rows) / max(np.median(rows), 1.0)),
    }


def fused_op(ops: "list[dict]", marker: str) -> "dict | None":
    """The first operator whose (fused) name contains ``marker``."""
    return next((o for o in ops if marker in o["name"]), None)
