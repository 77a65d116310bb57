"""Sequence packing — greedy next-fit of documents into fixed
token-capacity context windows, the training-batch assembly step of an
LLM data pipeline (the no-straddle sibling of the `token_shard_docs`
offset sharder: there a document may span shard boundaries; here a
document that does not fit CLOSES the bin and opens the next).

Semantics (deterministic, per packing group, in doc_id order):
``fill`` starts at 0; a document with ``n`` tokens joins the current
bin iff ``fill + n <= capacity`` or the bin is empty (an oversized
document occupies — and overflows — a bin alone, rather than being
silently dropped); otherwise it opens the next bin.  Zero-token
documents join at the current offset whenever the bin's fill is within
capacity (after an oversized document they open the next bin, like
everything else — the rule has no special cases).

Scale design: packing is a sequential recurrence, so the parallelism
unit is a GROUP (``doc_id // group_size``) — exactly how production
training pipelines pack per shard.  Groups are independent, so the
result is bit-identical under any partitioning that keeps a group's
rows together (one hash exchange of slim (doc_id, n) pairs does it),
and global bin ids need no second pass: ``bin_id = group * 2^20 +
local_bin`` (local bins per group are bounded by group_size <= 2^20).

The kernel is a VECTORIZED FRONTIER iteration rather than a per-row
loop: each pass assigns, for every still-open group simultaneously,
the maximal prefix of unassigned docs whose running sum fits the
capacity (the segmented-cumsum + first-row-always rule below is
equivalent to the sequential next-fit recurrence because the running
sum is monotone).  Passes = max bins in any group <= group_size, with
each pass one O(remaining) numpy sweep — the same shape as the
unrolled-round SQL oracle (a recursive CTE assigning one bin per group
per iteration), which is what makes the operator hash-checkable.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

BIN_ID_STRIDE = 1 << 20  # bin_id = group * STRIDE + local_bin


def pack_next_fit(
    grp: np.ndarray, n_tokens: np.ndarray, capacity: int
) -> "tuple[np.ndarray, np.ndarray]":
    """(sorted-by-(grp, order) token counts) -> (local bin index,
    offset within bin) under the next-fit rule above.  ``grp`` must be
    nondecreasing; rows within a group must already be in packing order.
    """
    rows = len(n_tokens)
    if rows == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    if np.any(np.diff(grp) < 0):
        raise ValueError("pack_next_fit requires grp to be nondecreasing")
    n = n_tokens.astype(np.int64, copy=False)
    if n.min() < 0:
        raise ValueError("negative token counts")
    bin_loc = np.full(rows, -1, np.int64)
    bin_off = np.zeros(rows, np.int64)
    unassigned = np.ones(rows, bool)
    cap = np.int64(capacity)
    it = 0
    while True:
        idx = np.flatnonzero(unassigned)
        if idx.size == 0:
            break
        g = grp[idx]
        nn = n[idx]
        # segmented running sum over the remaining rows of each group
        starts = np.flatnonzero(np.r_[True, g[1:] != g[:-1]])
        cs = np.cumsum(nn)
        seg_base = np.repeat(
            cs[starts] - nn[starts], np.diff(np.r_[starts, idx.size])
        )
        cum = cs - seg_base  # running sum INCLUDING the row itself
        first = np.zeros(idx.size, bool)
        first[starts] = True
        take = (cum <= cap) | first  # monotone cum => this prefix = next-fit bin
        sel = idx[take]
        bin_loc[sel] = it
        bin_off[sel] = (cum - nn)[take]
        unassigned[sel] = False
        it += 1
    return bin_loc, bin_off


def pack_partition(
    table: pa.Table,
    capacity: int,
    group_size: int,
    id_col: str = "doc_id",
    n_col: str = "n_tokens",
) -> pa.Table:
    """Partition-group kernel for `map_partitions_by_key` on the packing
    group: sorts by (group, id), packs, emits
    (id, n_tokens, bin_id, bin_offset)."""
    if group_size > BIN_ID_STRIDE:
        raise ValueError("group_size exceeds the bin_id stride")
    ids = table[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    n = table[n_col].to_numpy(zero_copy_only=False).astype(np.int64)
    grp = ids // np.int64(group_size)
    order = np.lexsort((ids, grp))
    ids, n, grp = ids[order], n[order], grp[order]
    bin_loc, bin_off = pack_next_fit(grp, n, capacity)
    return pa.table(
        {
            id_col: pa.array(ids, pa.int64()),
            n_col: pa.array(n, pa.int64()),
            "bin_id": pa.array(grp * BIN_ID_STRIDE + bin_loc, pa.int64()),
            "bin_offset": pa.array(bin_off, pa.int64()),
        }
    )


def debounce_frontier(
    grp: np.ndarray, ts: np.ndarray, window: int
) -> np.ndarray:
    """Greedy DEBOUNCE (cooldown/rate-limit) keep mask: per group, the
    first event is kept and every later event is kept iff it is at
    least ``window`` after the LAST KEPT event — the classic
    suppress-repeats rule (alert dedup, at-most-one-per-cooldown
    emission).  Unlike sessionize (whose break depends only on the
    PREVIOUS row's gap, hence one vectorized cumsum), the debounce
    recurrence depends on the last *kept* row, so it is sequential per
    key.  It still vectorizes: each row's successor ``next[i]`` (the
    first later row of its group at least ``window`` after it) comes
    from one batched binary search, and the kept rows are exactly the
    successor chain from each group's first row, marked by pointer
    doubling.  Both take O(log n) numpy passes, so the kernel is
    O(n log n) whatever the data (one hot key with sparse events
    included).  ``grp`` must be nondecreasing; rows within a group must
    be in (ts, tiebreak) order.  Returns the boolean keep mask aligned
    to the input rows.
    """
    rows = len(ts)
    if rows == 0:
        return np.zeros(0, bool)
    if np.any(np.diff(grp) < 0):
        raise ValueError("debounce_frontier requires grp to be nondecreasing")
    t = ts.astype(np.int64, copy=False)
    starts = np.flatnonzero(np.r_[True, grp[1:] != grp[:-1]])
    end = np.repeat(np.r_[starts[1:], rows], np.diff(np.r_[starts, rows]))
    # next[i] = searchsorted(t[i+1:end], t[i] + window) within the group
    target = t + np.int64(window)
    lo = np.arange(1, rows + 1)
    hi = end.copy()
    while True:
        live = lo < hi
        if not live.any():
            break
        mid = (lo + hi) // 2
        below = live & (t[np.minimum(mid, rows - 1)] < target)
        lo = np.where(below, mid + 1, lo)
        hi = np.where(live & ~below, mid, hi)
    # row `rows` is the chain end: it jumps to itself
    jump = np.r_[np.where(lo < end, lo, rows), rows]
    kept = np.zeros(rows + 1, bool)
    kept[starts] = True
    # invariant: kept = chain rows within 2^k steps of a start, jump = next^(2^k)
    while True:
        kept[jump[np.flatnonzero(kept)]] = True
        if (jump[:rows] == rows).all():
            break
        jump = jump[jump]
    return kept[:rows]
