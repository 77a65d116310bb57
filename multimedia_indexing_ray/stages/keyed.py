"""One sorted, segmented scan per key over any keyed table.

The transcript feature engine (stages/features.py) is specialised to the
transcript schema; `keyed_scan` is the same plan for an arbitrary keyed
table: one keyed exchange, then each group of whole keys sorted by
``(key, *order)`` and handed to a vectorized numpy body together with
the row index where each key's run starts (SURVEY.md §2.5 A1
"sort-within-partition + vectorized segmented reduction" mapping).  The
window and session helpers below are the pieces those bodies repeat.

Time deltas stay in integer microseconds so results are bit-identical to
a SQL oracle (no float round-trips).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
import pyarrow as pa

import ray.data

from multimedia_indexing_ray.functions import segments as sg
from multimedia_indexing_ray.stages.partition import map_partitions_by_key


def keyed_scan(
    ds: "ray.data.Dataset",
    key: str,
    order: Sequence[str],
    body: Callable[[pa.Table, np.ndarray], pa.Table],
) -> "ray.data.Dataset":
    """Exchange `ds` on `key`, sort each group of whole keys by
    ``(key, *order)`` and return ``body(t, starts)`` per group.

    `t` is the sorted, non-empty group; `starts` holds the first row of
    each key's run (int64, ascending, ``starts[0] == 0``).  Every key's
    rows are in one call, so a body may scan across a whole key.  The
    sort is stable: rows that tie on every sort column keep their input
    order."""
    sort_keys = [(c, "ascending") for c in (key, *order)]

    def kernel(table: pa.Table) -> pa.Table:
        t = table.sort_by(sort_keys)
        return body(t, sg.segment_starts(t[key].to_numpy()))

    return map_partitions_by_key(ds, key, kernel)


def trailing_window(
    ts_us: np.ndarray, starts: np.ndarray, width_us: int
) -> "tuple[np.ndarray, np.ndarray]":
    """Rows ``[lo, hi)`` of each row's ``RANGE BETWEEN width PRECEDING
    AND CURRENT ROW`` frame within its key: every row of the same key
    with ``ts - width <= ts' <= ts``, equal-ts peers included, so
    ``lo <= i < hi`` for every row i.  `ts_us` is sorted within each
    key's run."""
    adj = sg.adjusted_ts(ts_us, starts, width_us + 1)
    return sg.sliding_lo(adj, width_us, "both"), sg.visible_hi(adj)


def session_ids(ts_us: np.ndarray, starts: np.ndarray, gap_us: int) -> np.ndarray:
    """0-based session ordinal of each row within its key: a new session
    starts where the gap to the key's previous row STRICTLY exceeds
    `gap_us` (inactivity-gap sessionization, integer-µs compare)."""
    gap = sg.seg_gap_us(ts_us, starts)
    bound = sg.session_boundaries(gap.astype(np.float64), starts, float(gap_us))
    gid = sg.group_index(bound)
    key_bound = np.zeros(len(ts_us), dtype=bool)
    key_bound[starts] = True
    return (gid - gid[sg.group_start_rows(key_bound)]).astype(np.int64)
