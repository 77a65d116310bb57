"""Unit tests for the segmented numpy kernels on tiny hand-built arrays."""

import numpy as np
import pytest

from multimedia_indexing_ray.functions import segments as sg


CODES = np.array([0, 0, 0, 1, 1, 2])
TS = np.array([10, 20, 40, 5, 6, 100], dtype=np.int64)


def test_segment_starts():
    np.testing.assert_array_equal(sg.segment_starts(CODES), [0, 3, 5])
    assert sg.segment_starts(np.array([], dtype=int)).size == 0


def test_rel_index():
    starts = sg.segment_starts(CODES)
    np.testing.assert_array_equal(sg.rel_index(starts, 6), [0, 1, 2, 0, 1, 0])


def test_lag_lead():
    starts = sg.segment_starts(CODES)
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    np.testing.assert_array_equal(sg.seg_lag(x, starts, 1, 0.0), [0, 1, 2, 0, 4, 0])
    np.testing.assert_array_equal(sg.seg_lag(x, starts, 2, -1.0), [-1, -1, 1, -1, -1, -1])
    np.testing.assert_array_equal(sg.seg_lead(x, starts, 1, 0.0), [2, 3, 0, 5, 0, 0])


def test_gap():
    starts = sg.segment_starts(CODES)
    np.testing.assert_array_equal(sg.seg_gap_us(TS, starts), [0, 10, 20, 0, 1, 0])


def test_ffill():
    starts = sg.segment_starts(CODES)
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    valid = np.array([True, False, False, False, True, False])
    # carries last valid value, resets at segment starts
    np.testing.assert_array_equal(
        sg.seg_ffill(x, valid, starts, fill=-9.0), [1, 1, 1, -9, 5, -9]
    )


def test_session_boundaries_threshold_not_strict():
    starts = np.array([0])
    gap = np.array([0.0, 10.0, 30.0, 30.0001])
    b = sg.session_boundaries(gap, starts, 30.0)
    np.testing.assert_array_equal(b, [True, False, False, True])  # == threshold stays


def test_adjusted_ts_separates_conversations():
    starts = sg.segment_starts(CODES)
    adj = sg.adjusted_ts(TS, starts, margin_us=50)
    assert np.all(np.diff(adj) > 0)
    # window of width 50 can't reach across segments
    assert adj[3] - adj[2] > 50


def test_adjusted_ts_rejects_unsorted():
    with pytest.raises(ValueError):
        sg.adjusted_ts(np.array([10, 5], dtype=np.int64), np.array([0]), 10)


def _many_keys_with_long_spans():
    """30,009 sorted segments of 1-3 rows within an hour, except three
    that span about six years: one fused axis step per segment sized by
    the longest span would need 30,009 x 6 years > 2**62 us."""
    rng = np.random.default_rng(17)
    n_segs = 30_009
    six_years = 6 * 365 * 86_400 * 10**6
    sizes = rng.integers(1, 4, n_segs)
    hot = [0, 15_004, n_segs - 1]
    sizes[hot] = 50
    starts = np.r_[0, np.cumsum(sizes)[:-1]].astype(np.int64)
    base = rng.integers(0, 10**15, n_segs)
    parts = []
    for i, m in enumerate(sizes):
        span = six_years if i in hot else 3600 * 10**6
        rel = np.sort(rng.integers(0, span, m))
        rel[0], rel[-1] = 0, (span if i in hot else rel[-1])
        parts.append(base[i] + rel)
    return np.concatenate(parts).astype(np.int64), starts


def test_fused_axis_holds_many_keys_with_long_spans():
    """`adjusted_ts` and `_adjusted_pair` place each key after the
    previous key's own span, so three long-lived keys among 30,009 fit
    the int64 axis; window bounds and as-of cursors on it equal a
    per-segment search."""
    from multimedia_indexing_ray.stages.asof_join import _adjusted_pair

    ts, starts = _many_keys_with_long_spans()
    n = len(ts)
    ends = np.r_[starts[1:], n]
    width = 3600 * 10**6
    adj = sg.adjusted_ts(ts, starts, width + 1)
    lo, hi = sg.sliding_lo(adj, width, "both"), sg.visible_hi(adj)
    for a, b in zip(starts, ends):
        seg = ts[a:b]
        np.testing.assert_array_equal(hi[a:b], a + np.searchsorted(seg, seg, "right"))
        np.testing.assert_array_equal(lo[a:b], a + np.searchsorted(seg, seg - width, "left"))

    # as-of: left rows are the segments under shuffled key values, right
    # rows probe every 7th key around its own span
    rng = np.random.default_rng(5)
    key_of_seg = rng.permutation(len(starts)) * 3
    order = np.argsort(key_of_seg, kind="stable")
    k_l = np.concatenate([np.full(ends[i] - starts[i], key_of_seg[i]) for i in order])
    t_l = np.concatenate([ts[starts[i]:ends[i]] for i in order])
    probe = order[::7]
    k_r = np.repeat(key_of_seg[probe], 2)
    t_r = np.concatenate([[ts[starts[i]] - 1, ts[ends[i] - 1] - 1] for i in probe])
    adj_l, adj_r, c_l, c_r = _adjusted_pair(k_l, k_r, t_l, t_r, 0, "asof_join")
    idx = np.searchsorted(adj_l, adj_r, side="right") - 1
    ok = (idx >= 0) & (c_l[np.clip(idx, 0, None)] == c_r)
    for j in range(len(k_r)):
        rows = np.flatnonzero((k_l == k_r[j]) & (t_l <= t_r[j]))
        assert ok[j] == bool(len(rows))
        if len(rows):
            assert idx[j] == rows[-1]


def test_fused_axis_overflow_names_the_sum():
    span = np.int64(2**60)
    with pytest.raises(OverflowError, match="sum of"):
        sg.adjusted_ts(np.array([0, span, 0, span, 0, span, 0, span]), np.array([0, 2, 4, 6]), 1)


def test_visible_hi_ties():
    adj = np.array([1, 5, 5, 9], dtype=np.int64)
    np.testing.assert_array_equal(sg.visible_hi(adj), [1, 3, 3, 4])


def test_sliding_window_bounds():
    adj = np.array([0, 10, 20, 30], dtype=np.int64)
    lo_open = sg.sliding_lo(adj, 10, "right")  # (t-10, t]
    np.testing.assert_array_equal(lo_open, [0, 1, 2, 3])
    lo_closed = sg.sliding_lo(adj, 10, "both")  # [t-10, t]
    np.testing.assert_array_equal(lo_closed, [0, 0, 1, 2])


def test_prefix_range_sums():
    vals = np.array([[1.0], [2.0], [3.0]])
    p = sg.prefix_sums(vals)
    np.testing.assert_array_equal(
        sg.range_sums(p, np.array([0, 1, 0]), np.array([2, 3, 3]))[:, 0], [3, 5, 6]
    )


def test_group_start_rows():
    b = np.array([True, False, True, True, False])
    np.testing.assert_array_equal(sg.group_start_rows(b), [0, 0, 2, 3, 3])


def test_range_minmax_brute_force():
    rng = np.random.default_rng(7)
    for n in (0, 1, 2, 5, 63, 64, 65, 500):
        x = rng.normal(size=n)
        if n:
            lo = rng.integers(0, n, size=40)
            hi = lo + rng.integers(0, n, size=40)
            np.clip(hi, 0, n, out=hi)
        else:
            lo = np.array([0], dtype=np.int64)
            hi = np.array([0], dtype=np.int64)
        mn, mx = sg.range_minmax(x, lo, hi)
        for i in range(len(lo)):
            seg = x[lo[i] : hi[i]]
            if len(seg):
                assert mn[i] == seg.min() and mx[i] == seg.max()
            else:
                assert mn[i] == np.inf and mx[i] == -np.inf


def test_range_minmax_full_and_single():
    x = np.array([3.0, -1.0, 2.0, 7.0, 0.0])
    mn, mx = sg.range_minmax(x, np.array([0, 2]), np.array([5, 3]))
    np.testing.assert_array_equal(mn, [-1.0, 2.0])
    np.testing.assert_array_equal(mx, [7.0, 2.0])


def test_range_median_brute_force():
    rng = np.random.default_rng(11)
    for n in (0, 1, 2, 5, 63, 64, 65, 500):
        x = rng.normal(size=n)
        if n:
            lo = rng.integers(0, n, size=40)
            hi = lo + rng.integers(0, n, size=40)
            np.clip(hi, 0, n, out=hi)
        else:
            lo = np.array([0], dtype=np.int64)
            hi = np.array([0], dtype=np.int64)
        med = sg.range_median(x, lo, hi)
        for i in range(len(lo)):
            seg = x[lo[i] : hi[i]]
            if len(seg):
                assert med[i] == np.median(seg)
            else:
                assert np.isnan(med[i])


def test_range_median_mass_cap_chunking():
    # Tiny cap forces many chunks, including a single window larger than
    # the cap (must still make progress and stay exact).
    rng = np.random.default_rng(12)
    x = rng.normal(size=300)
    lo = rng.integers(0, 300, size=120)
    hi = np.clip(lo + rng.integers(0, 300, size=120), 0, 300)
    big = sg.range_median(x, lo, hi)
    small = sg.range_median(x, lo, hi, mass_cap=17)
    np.testing.assert_array_equal(np.isnan(big), np.isnan(small))
    m = ~np.isnan(big)
    np.testing.assert_array_equal(big[m], small[m])


def test_range_quantile_disc_brute_force():
    rng = np.random.default_rng(13)
    for q_pct in (50, 90, 99):
        for n in (0, 1, 2, 5, 64, 500):
            x = rng.normal(size=n)
            if n:
                lo = rng.integers(0, n, size=40)
                hi = np.clip(lo + rng.integers(0, n, size=40), 0, n)
            else:
                lo = np.array([0], dtype=np.int64)
                hi = np.array([0], dtype=np.int64)
            got = sg.range_quantile_disc(x, lo, hi, q_pct, mass_cap=97)
            for i in range(len(lo)):
                seg = np.sort(x[lo[i] : hi[i]])
                m = len(seg)
                if m:
                    assert got[i] == seg[(q_pct * m + 99) // 100 - 1]
                else:
                    assert np.isnan(got[i])


def test_prefix_sums_int_exact_beyond_float53():
    """int64 prefix sums stay exact where float64 would round — the
    property second-moment window stats (rolling corr) depend on."""
    big = (1 << 53) + 1  # not representable in float64
    v = np.array([[big], [1], [1]], dtype=np.int64)
    p = sg.prefix_sums_int(v)
    assert p[3, 0] == big + 2  # float64 path would lose the +1
    np.testing.assert_array_equal(p[:, 0], [0, big, big + 1, big + 2])
    s = sg.range_sums(p, np.array([1]), np.array([3]))
    assert s[0, 0] == 2


def test_range_rank_le_brute_force():
    """Windowed dominance rank vs brute force, including sub-cent value
    ties (the distinction that rules out any quantized comparison)."""
    rng = np.random.default_rng(1)
    for _ in range(120):
        n = int(rng.integers(1, 40))
        x = rng.integers(-50, 50, n).astype(float) + rng.choice(
            [0.0, 0.005, -0.005], n
        )
        lo = rng.integers(0, n, n)
        hi = rng.integers(0, n + 1, n)
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
        got = sg.range_rank_le(
            x, lo.astype(np.int64), hi.astype(np.int64), mass_cap=64
        )
        for i in range(n):
            assert got[i] == int((x[lo[i] : hi[i]] <= x[i]).sum())
