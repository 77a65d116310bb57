"""Vectorized segmented kernels over sorted conversation partitions.

All kernels operate on numpy arrays for a batch that (a) contains whole
conversations and (b) is sorted by ``(conv_id, ts, turn_idx)`` — the stable
turn-ordering invariant (SURVEY.md §2.6 K6).  Conversations are identified
by an int64 ``codes`` array (dense, nondecreasing under the sort).

The design replaces the reference's record-at-a-time inner loops
(`visual/aggregation/VladAggregator.java:35-70` accumulates one descriptor
at a time; `visual/datastructures/Linear.java:138-163` scans one vector at
a time) with O(n) segmented prefix-sum / searchsorted kernels:

- ``adjusted_ts`` folds (conversation, ts) into ONE monotone int64 axis so
  a single global ``np.searchsorted`` implements the gallop-search as-of
  cursor and every sliding-window bound without per-conversation Python
  loops.  This is the same trick the reference's flat ``iid*vectorLength``
  array plays for scan locality (`Linear.java:32-34,143-161`).
- window aggregates = prefix-sum differences (exact for integer-valued
  float64 inputs below 2**53).

Visibility rule everywhere: a row at ``ts`` sees rows of the same
conversation with ``ts' <= ts`` (ties mutually visible; zero temporal
leakage otherwise).
"""

from __future__ import annotations

import numpy as np


def segment_starts(codes: np.ndarray) -> np.ndarray:
    """Start indices of each code segment (codes sorted nondecreasing)."""
    n = len(codes)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    change = np.flatnonzero(codes[1:] != codes[:-1]) + 1
    return np.concatenate([[0], change]).astype(np.int64)


def segment_counts(starts: np.ndarray, n: int) -> np.ndarray:
    return np.diff(np.concatenate([starts, [n]])).astype(np.int64)


def rel_index(starts: np.ndarray, n: int) -> np.ndarray:
    """0-based position of each row within its segment."""
    counts = segment_counts(starts, n)
    return np.arange(n, dtype=np.int64) - np.repeat(starts, counts)


def seg_lag(x: np.ndarray, starts: np.ndarray, k: int, fill: float = 0.0) -> np.ndarray:
    """x shifted k rows back within each segment; `fill` where unavailable."""
    n = len(x)
    out = np.empty(n, dtype=np.float64)
    out[:k] = fill
    if n > k:
        out[k:] = x[:-k]
    rel = rel_index(starts, n)
    out[rel < k] = fill
    return out


def seg_lead(x: np.ndarray, starts: np.ndarray, k: int, fill: float = 0.0) -> np.ndarray:
    """x shifted k rows forward within each segment (label-side feature)."""
    n = len(x)
    out = np.empty(n, dtype=np.float64)
    if n > k:
        out[:-k] = x[k:]
    out[n - k :] = fill
    counts = segment_counts(starts, n)
    rel = rel_index(starts, n)
    from_end = np.repeat(counts, counts) - 1 - rel
    out[from_end < k] = fill
    return out


def seg_gap_us(ts_us: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Inactivity gap in microseconds; 0 at each conversation's first row."""
    n = len(ts_us)
    gap = np.zeros(n, dtype=np.int64)
    if n > 1:
        gap[1:] = ts_us[1:] - ts_us[:-1]
    gap[starts] = 0
    return gap


def seg_ffill(x: np.ndarray, valid: np.ndarray, starts: np.ndarray, fill: float = 0.0) -> np.ndarray:
    """Forward-fill: last `valid` value within the segment, else `fill`.

    The backfill primitive of the north_rule. O(n) via index carry.
    """
    n = len(x)
    idx = np.where(valid, np.arange(n), -1)
    # reset carry at segment starts: a start row may only use itself
    seg_of = np.repeat(np.arange(len(starts)), segment_counts(starts, n))
    # carry last valid index forward, but not across segments:
    # encode (segment, idx) so accumulate can't cross segments
    big = n + 1
    key = np.where(idx >= 0, seg_of * big + idx, seg_of * big - 1)
    np.maximum.accumulate(key, out=key)
    got = key - seg_of * big
    out = np.where(got >= 0, x[np.clip(got, 0, n - 1)], fill)
    return out.astype(np.float64)


def session_boundaries(gap_s: np.ndarray, starts: np.ndarray, threshold_s: float) -> np.ndarray:
    """True where a NEW session starts: conversation start, or gap strictly
    greater than the threshold (gap == threshold stays in-session)."""
    b = gap_s > threshold_s
    b[starts] = True
    return b


def group_index(boundaries: np.ndarray) -> np.ndarray:
    """Dense 0-based group id per row from a boundary mask (True = start)."""
    return np.cumsum(boundaries) - 1


def group_start_rows(boundaries: np.ndarray) -> np.ndarray:
    """Per-row index of the row's group start."""
    starts = np.flatnonzero(boundaries)
    return starts[group_index(boundaries)]


def segment_offsets(spans: np.ndarray, margin_us: int, op_name: str) -> np.ndarray:
    """Start of each segment on a fused int64 axis: the exclusive cumsum
    of ``span + margin + 2``, so consecutive segments sit more than
    `margin_us` apart.  The axis must stay below 2**62."""
    pad = int(margin_us) + 2
    total = float(spans.sum(dtype=np.float64)) + len(spans) * float(pad)
    if total >= 2**62:
        raise OverflowError(
            f"{op_name} overflow: sum of (span + margin + 2) over {len(spans)} "
            f"segments is {total:.4g}, not below 2**62"
        )
    off = np.zeros(len(spans), dtype=np.int64)
    np.cumsum(spans[:-1] + pad, out=off[1:])
    return off


def adjusted_ts(ts_us: np.ndarray, starts: np.ndarray, margin_us: int) -> np.ndarray:
    """Fold (conversation, ts) into one strictly-segment-separated monotone
    int64 axis: offset(conv) + (ts - conv_first_ts), with each offset
    more than `margin_us` past the previous conversation's last ts, so no
    window of width <= margin can cross a conversation boundary.  Enables
    a single global searchsorted for as-of cursors and window bounds (the
    gallop-search analog)."""
    n = len(ts_us)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    counts = segment_counts(starts, n)
    rel = ts_us - np.repeat(ts_us[starts], counts)
    if rel.min() < 0:
        raise ValueError("ts not sorted nondecreasing within segments")
    spans = np.maximum.reduceat(rel, starts)
    return np.repeat(segment_offsets(spans, margin_us, "adjusted_ts"), counts) + rel


def visible_hi(ts_adj: np.ndarray) -> np.ndarray:
    """For each row i: 1 + index of the LAST row with ts' <= ts_i (same
    conversation guaranteed by adjusted_ts). Equal-ts rows are mutually
    visible — the FIXTURES.md conv-000001 tie rule."""
    return np.searchsorted(ts_adj, ts_adj, side="right")


def sliding_lo(ts_adj: np.ndarray, width_us: int, closed: str = "right") -> np.ndarray:
    """Index of the first row inside the sliding window ending at each row.

    closed="right": window (t-W, t]   (engine default)
    closed="both":  window [t-W, t]   (matches SQL RANGE frames)
    """
    side = "right" if closed == "right" else "left"
    return np.searchsorted(ts_adj, ts_adj - int(width_us), side=side)


def prefix_sums(values: np.ndarray) -> np.ndarray:
    """(n, m) -> (n+1, m) exclusive prefix sums, float64."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim == 1:
        v = v[:, None]
    out = np.empty((v.shape[0] + 1, v.shape[1]), dtype=np.float64)
    out[0] = 0.0
    np.cumsum(v, axis=0, out=out[1:])
    return out


def prefix_sums_int(values: np.ndarray) -> np.ndarray:
    """(n, m) int64 -> (n+1, m) EXCLUSIVE prefix sums in int64 — exact
    (no float rounding), for second-moment window statistics whose
    bitwise SQL parity depends on exact integer sums (the SQL side sums
    BIGINTs exactly too, so both engines cast the SAME integer to
    double).  Caller owns the overflow budget: max |value| x
    rows-per-partition must stay below 2**63 (cents-squared products at
    <=2.4e9 each leave room for ~3.8e9 rows per partition group)."""
    v = np.asarray(values, dtype=np.int64)
    if v.ndim == 1:
        v = v[:, None]
    out = np.empty((v.shape[0] + 1, v.shape[1]), dtype=np.int64)
    out[0] = 0
    np.cumsum(v, axis=0, out=out[1:])
    return out


def range_sums(prefix: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Sum of rows [lo, hi) per output row, from exclusive prefix sums."""
    return prefix[hi] - prefix[lo]


def sorted_member(haystack: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Vectorized membership probe against a SORTED haystack: boolean
    mask per needle.  The one shared implementation of the
    searchsorted+clip+equality idiom (empty-haystack safe) used by the
    broadcast anti-join / blocklist / closing-edge probes."""
    if len(haystack) == 0:
        return np.zeros(len(needles), dtype=bool)
    pos = np.searchsorted(haystack, needles)
    np.clip(pos, 0, len(haystack) - 1, out=pos)
    return haystack[pos] == needles


def range_minmax(
    x: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """(min, max) of ``x[lo[i]:hi[i]]`` per output row, vectorized.

    Sliding-window extrema cannot come from prefix sums (min/max are not
    invertible), so this builds power-of-two sparse tables (Bender &
    Farach-Colton RMQ): level j holds the extreme of every window of
    length 2**j — O(n log W) build where W = the longest query range —
    and each query is the overlap of two power-of-two blocks, answered
    for all rows of a level in one fancy-index step.  Replaces the
    reference's per-vector scan loop shape (`Linear.java:138-163`) for
    ordered extrema.  Empty ranges (hi <= lo) return (+inf, -inf).
    """
    nq = len(lo)
    out_min = np.full(nq, np.inf)
    out_max = np.full(nq, -np.inf)
    if nq == 0 or len(x) == 0:
        return out_min, out_max
    length = hi - lo
    max_len = int(length.max()) if nq else 0
    if max_len <= 0:
        return out_min, out_max
    xf = np.asarray(x, dtype=np.float64)
    mins, maxs = [xf], [xf]
    jmax = max_len.bit_length() - 1
    for j in range(1, jmax + 1):
        half = 1 << (j - 1)
        prev_min, prev_max = mins[-1], maxs[-1]
        m = len(prev_min) - half
        if m <= 0:
            break
        mins.append(np.minimum(prev_min[:m], prev_min[half : half + m]))
        maxs.append(np.maximum(prev_max[:m], prev_max[half : half + m]))
    valid = np.flatnonzero(length > 0)
    lv, hv = lo[valid], hi[valid]
    # floor(log2(length)) — exact via frexp for any int64 < 2**53
    j_of = np.frexp(length[valid].astype(np.float64))[1].astype(np.int64) - 1
    j_of = np.minimum(j_of, len(mins) - 1)
    for j in np.unique(j_of):
        sel = j_of == j
        size = 1 << int(j)
        a, b = lv[sel], hv[sel] - size
        idx = valid[sel]
        out_min[idx] = np.minimum(mins[j][a], mins[j][b])
        out_max[idx] = np.maximum(maxs[j][a], maxs[j][b])
    return out_min, out_max


def range_median(
    x: np.ndarray, lo: np.ndarray, hi: np.ndarray, mass_cap: int = 1 << 23
) -> np.ndarray:
    """Exact median of ``x[lo[i]:hi[i]]`` per output row, vectorized.

    Median is HOLISTIC — prefix sums don't apply (not decomposable) and
    sparse tables don't either (medians of overlapping power-of-two
    halves don't merge), so each window's members are materialized once
    into a CSR expansion, all windows are sorted together with ONE
    ``np.lexsort`` (value within row), and the two middle elements are
    fancy-indexed out.  ``(m_lo + m_hi) / 2`` is ``np.median``'s
    even-count rule and matches DuckDB's ``quantile_cont(0.5)``
    bit-exactly on doubles (odd counts have ``m_lo == m_hi``).

    Peak memory is bounded by WINDOW MASS, not row count: rows are
    processed in chunks whose summed window lengths stay <= ``mass_cap``
    (~8M members = ~190 MB transient with the lexsort workspace), so a
    hot key whose trailing windows hold millions of rows degrades to
    more chunks, never to a larger allocation — the same bounded-expand
    discipline as the n-gram dedup CSR verify (`stages/dedup.py`).
    Empty ranges (hi <= lo) return NaN.
    """
    nq = len(lo)
    out = np.full(nq, np.nan)
    if nq == 0 or len(x) == 0:
        return out
    for start, ln, offs, sv in _csr_sorted_windows(x, lo, hi, mass_cap):
        valid = np.flatnonzero(ln > 0)
        m_lo = offs[valid] + (ln[valid] - 1) // 2
        m_hi = offs[valid] + ln[valid] // 2
        out[start + valid] = (sv[m_lo] + sv[m_hi]) / 2.0
    return out


def _csr_sorted_windows(x: np.ndarray, lo: np.ndarray, hi: np.ndarray, mass_cap: int):
    """Yield ``(start, lengths, offsets, sorted_values)`` for row chunks
    whose summed window mass stays <= ``mass_cap``: each chunk CSR-expands
    its windows' members once and sorts ALL of them with ONE lexsort
    (value within row).  Shared engine for the holistic order-statistic
    window kernels (:func:`range_median`, :func:`range_quantile_disc`)."""
    xf = np.asarray(x, dtype=np.float64)
    length = (hi - lo).astype(np.int64)
    np.maximum(length, 0, out=length)
    cum = np.cumsum(length)
    nq = len(lo)
    start = 0
    while start < nq:
        base = int(cum[start - 1]) if start else 0
        end = int(np.searchsorted(cum, base + mass_cap, side="right"))
        end = max(end, start + 1)  # always progress, even on one huge window
        ln = length[start:end]
        m = int(ln.sum())
        if m == 0:
            start = end
            continue
        offs = np.concatenate([[0], np.cumsum(ln)])
        rows = np.repeat(np.arange(end - start, dtype=np.int64), ln)
        member = (
            np.arange(m, dtype=np.int64)
            - np.repeat(offs[:-1], ln)
            + np.repeat(lo[start:end], ln)
        )
        sv = xf[member]
        sv = sv[np.lexsort((sv, rows))]
        yield start, ln, offs, sv
        start = end


def range_quantile_disc(
    x: np.ndarray, lo: np.ndarray, hi: np.ndarray, q_pct: int, mass_cap: int = 1 << 23
) -> np.ndarray:
    """Exact DISCRETE quantile of ``x[lo[i]:hi[i]]`` per output row: the
    window element at 0-based sorted index ``ceil(q*m) - 1``, stated in
    pure integer arithmetic ``(q_pct*m + 99)//100 - 1`` (the repo's
    standing discrete-quantile rule, `pipelines/queries.py`
    value_quantiles_by_type) — bit-identical to DuckDB's
    ``quantile_disc(x, q)`` (verified exhaustively for m <= 3000 at
    q = 0.5/0.9/0.99: the selected value IS an input double, so there is
    no interpolation ULP hazard).  Same CSR + single-lexsort engine and
    window-MASS-bounded chunking as :func:`range_median`.  Empty ranges
    return NaN."""
    return range_quantile_disc_multi(x, lo, hi, (q_pct,), mass_cap)[0]


def range_quantile_disc_multi(
    x: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    q_pcts: "tuple[int, ...]",
    mass_cap: int = 1 << 23,
) -> "list[np.ndarray]":
    """Several discrete quantiles of the SAME windows in one pass —
    identical selection rule to :func:`range_quantile_disc` but the CSR
    expand + lexsort (the dominant cost) is shared across all q's
    (robust-spread features like IQR need p25 and p75 of one window).
    Returns one array per q_pct, in order."""
    for q in q_pcts:
        if not 0 < q <= 100:
            raise ValueError(q)
    nq = len(lo)
    outs = [np.full(nq, np.nan) for _ in q_pcts]
    if nq == 0 or len(x) == 0:
        return outs
    for start, ln, offs, sv in _csr_sorted_windows(x, lo, hi, mass_cap):
        valid = np.flatnonzero(ln > 0)
        for qi, q in enumerate(q_pcts):
            k = offs[valid] + (q * ln[valid] + 99) // 100 - 1
            outs[qi][start + valid] = sv[k]
    return outs


def range_rank_le(
    x: np.ndarray, lo: np.ndarray, hi: np.ndarray, mass_cap: int = 1 << 23
) -> np.ndarray:
    """Per row: COUNT of window values <= the row's OWN value (the
    windowed dominance rank behind percent-rank features), comparing the
    RAW doubles exactly (ties included) — NOT a quantized proxy: the
    values of a CSR chunk are dense-ranked via one ``np.unique`` (order-
    isomorphic exact integer codes), then the window-disjoint key trick
    applies: sorted window codes get the key ``row_id * span + code`` so
    windows become disjoint integer ranges and ONE global searchsorted
    answers every row's in-window rank, no per-window loop.  Same
    mass-capped CSR engine as the order-statistic kernels; empty windows
    rank 0; values must be non-NaN.

    SELF-RANK contract (unlike the positional siblings): output row i
    probes ``x[i]``, so ``len(lo) == len(hi) == len(x)`` is required."""
    nq = len(lo)
    if not (nq == len(hi) == len(x)):
        raise ValueError(
            f"range_rank_le is a self-rank kernel: len(lo)={nq}, "
            f"len(hi)={len(hi)}, len(x)={len(x)} must all match"
        )
    out = np.zeros(nq, dtype=np.int64)
    if nq == 0:
        return out
    xf = np.asarray(x, dtype=np.float64)
    for start, ln, offs, sv in _csr_sorted_windows(x, lo, hi, mass_cap):
        valid = np.flatnonzero(ln > 0)
        probes_f = xf[start + valid]
        uni = np.unique(np.concatenate([sv, probes_f]))
        codes = np.searchsorted(uni, sv)
        pcode = np.searchsorted(uni, probes_f)
        span = len(uni) + 1
        rows = np.repeat(np.arange(len(ln), dtype=np.int64), ln)
        key = rows * span + codes
        probe = valid * span + pcode
        out[start + valid] = np.searchsorted(key, probe, side="right") - offs[:-1][valid]
    return out


def range_mode(
    codes: np.ndarray, lo: np.ndarray, hi: np.ndarray, mass_cap: int = 1 << 23
) -> np.ndarray:
    """Exact MODE of integer ``codes[lo[i]:hi[i]]`` per output row — the
    CATEGORICAL holistic window statistic (most frequent value in the
    trailing window), tie rule = SMALLEST code among the max-count values
    (factorize categories with a sorted ``np.unique`` so code order ==
    lexicographic order and the tie rule becomes "alphabetically first").

    Same mass-capped CSR engine as the order-statistic kernels: members
    expand once and sort within rows, so equal codes form runs; run
    lengths come from one reduceat, and the per-row winner is the FIRST
    run under a (row, -count, code) lexsort — no per-window loop.  Empty
    windows return -1."""
    nq = len(lo)
    out = np.full(nq, -1, dtype=np.int64)
    if nq == 0 or len(codes) == 0:
        return out
    for start, ln, offs, sv in _csr_sorted_windows(codes, lo, hi, mass_cap):
        rows = np.repeat(np.arange(len(ln), dtype=np.int64), ln)
        is_start = np.empty(len(sv), bool)
        is_start[0] = True
        is_start[1:] = (rows[1:] != rows[:-1]) | (sv[1:] != sv[:-1])
        rstarts = np.flatnonzero(is_start)
        rlen = np.diff(np.concatenate([rstarts, [len(sv)]]))
        rrow = rows[rstarts]
        rval = sv[rstarts]
        order = np.lexsort((rval, -rlen, rrow))
        rrow_s = rrow[order]
        win = segment_starts(rrow_s)
        out[start + rrow_s[win]] = rval[order][win].astype(np.int64)
    return out


def seg_next_true_idx(mask: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """For each row, the index of the NEAREST STRICTLY-LATER row within
    its segment where ``mask`` is True, else -1 — the suffix scan the
    ordered-chain operators (window funnel) build on.  O(n) via the
    same encoded index-carry as `seg_ffill`, run on the reversed
    arrays: scanning right-to-left, the most recently seen True row is
    exactly the nearest one to the right; the strict shift then drops
    the row itself."""
    n = len(mask)
    if n == 0:
        return np.empty(0, np.int64)
    seg_of = np.repeat(np.arange(len(starts)), segment_counts(starts, n))
    # reversed scan: carry the nearest True index from the right
    idx = np.where(mask, np.arange(n), -1)[::-1]
    seg_rev = seg_of[::-1]
    big = n + 1
    # reversed segment ids are descending; negate so accumulate works
    key = np.where(idx >= 0, (-seg_rev) * big + (n - 1 - idx),
                   (-seg_rev) * big - 1)
    np.maximum.accumulate(key, out=key)
    got = key - (-seg_rev) * big
    incl = np.where(got >= 0, n - 1 - np.clip(got, 0, n - 1), -1)[::-1]
    # inclusive-nearest at position >= i  ->  strictly-later: shift by 1
    out = np.r_[incl[1:], -1]
    ends = np.r_[starts[1:], n] - 1
    out[ends] = -1
    return out.astype(np.int64)
