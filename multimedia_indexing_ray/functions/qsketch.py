"""Deterministic mergeable quantile summary (Manku–Rajagopalan–Lindsay
one-level compress, "Approximate Medians and other Quantiles in One Pass
and with Limited Memory", SIGMOD 1998): each partial compresses a sorted
block of int64 values to at most ``k`` (value, weight) pairs whose
cumulative weights track true local ranks within ``ceil(n_block / k)``;
merging is weighted concatenation + value sort, so the merged summary's
cumulative weight tracks the true global rank of any value within
``sum_blocks ceil(n_b / k) <= n/k + n_blocks``.  No randomness anywhere —
the same input partitioned any way yields estimates within the same
deterministic error envelope (the envelope, not the estimate, is the
partition-invariant; the conformance query checks the envelope against an
EXACT second-pass rank count).

This is the at-scale replacement for the exact CSR quantile kernels
(`segments.range_quantile_disc`): at 100 TB an exact per-group quantile
needs every value of a group co-located, while the summary ships at most
``k`` rows per (group, block) and never moves raw values.

Reference analog: the sketch-not-sort mindset of the heavy-hitter
sketches (Misra–Gries) applied to order statistics.
"""

from __future__ import annotations

import numpy as np


def compress_block(values: np.ndarray, k: int) -> "tuple[np.ndarray, np.ndarray]":
    """Compress int64 ``values`` (any order) to <= k (value, weight) pairs.

    Returns (vals, weights), vals strictly increasing, sum(weights) ==
    len(values).  Pair i carries the count of inputs in the rank interval
    (r_{i-1}, r_i], and vals[i] is the TRUE value at rank r_i (1-based),
    so for every selected value the summary's cumulative weight equals
    its exact local rank; between selected values the rank drift is at
    most the interval width ceil(n/k)."""
    n = len(values)
    if n == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    s = np.sort(values)
    if n <= k:
        ranks = np.arange(1, n + 1, dtype=np.int64)
    else:
        # k rank cut points 1 <= r_1 < ... < r_k = n, evenly spaced
        ranks = np.ceil(np.arange(1, k + 1) * (n / k)).astype(np.int64)
        ranks[-1] = n
    vals = s[ranks - 1]
    weights = np.diff(np.concatenate([[0], ranks]))
    # collapse duplicate selected values (heavy ties) — keeps vals strictly
    # increasing, weights exact
    keep = np.empty(len(vals), bool)
    keep[:-1] = vals[:-1] != vals[1:]
    keep[-1] = True
    if not keep.all():
        idx = np.flatnonzero(keep)
        cum = np.cumsum(weights)
        weights = np.diff(np.concatenate([[0], cum[idx]]))
        vals = vals[idx]
    return vals, weights


def merge_estimate(
    vals: np.ndarray, weights: np.ndarray, q_milli: np.ndarray
) -> np.ndarray:
    """Merge concatenated summary rows (any order) and answer quantiles.

    ``q_milli`` holds quantiles in thousandths (500 = median).  The answer
    for q is the smallest summary value whose cumulative weight reaches
    the lower target rank ``ceil(q * n)`` (discrete lower-quantile rule,
    matching ``segments.range_quantile_disc``)."""
    order = np.argsort(vals, kind="stable")
    v, w = vals[order], weights[order]
    cum = np.cumsum(w)
    n = int(cum[-1]) if len(cum) else 0
    if n == 0:
        return np.full(len(q_milli), 0, np.int64)
    # exact integer ceil(q*n/1000) — float division could misround at
    # integral targets
    t = -(-(q_milli.astype(np.int64) * n) // 1000)
    t = np.maximum(t, 1)
    pos = np.searchsorted(cum, t, side="left")
    return v[np.minimum(pos, len(v) - 1)]
