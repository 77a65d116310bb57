"""Codepoint windows over an Arrow string column.

Every gram, pair and winnowing kernel sees a batch of documents the same
way: ONE flat ``uint32`` codepoint array plus per-document codepoint
starts (``starts[i]:starts[i + 1]`` is document ``i``; SQL ``length`` /
``substr`` count the same codepoints).  The batch's UTF-8 data buffer is
decoded once; windows, pairs and coverage masks are then offset
arithmetic on that array — no Python loop over documents, no padding to
the longest document.  This is the document form of the reference's
variable-length set of fixed-width local records per item
(`extraction/AbstractFeatureExtractor.java:13-15`): a document's records
are its K-codepoint windows.

Null text counts as the empty document.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def decode(col) -> "tuple[np.ndarray, np.ndarray]":
    """(codepoints uint32, starts int64 of length n + 1) for a string
    column (Array, ChunkedArray, or anything ``pa.array`` takes)."""
    if not isinstance(col, (pa.Array, pa.ChunkedArray)):
        col = pa.array(col, pa.string())
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if col.null_count:
        col = pc.fill_null(col, "")
    n = len(col)
    starts = np.zeros(n + 1, np.int64)
    np.cumsum(pc.utf8_length(col).to_numpy(zero_copy_only=False), out=starts[1:])
    if starts[-1] == 0:
        return np.empty(0, np.uint32), starts
    wide = pa.types.is_large_string(col.type)
    offs = np.frombuffer(col.buffers()[1], np.int64 if wide else np.int32)
    lo, hi = int(offs[col.offset]), int(offs[col.offset + n])
    text = str(memoryview(col.buffers()[2])[lo:hi], "utf-8")
    cp = np.frombuffer(text.encode("utf-32-le"), np.uint32)
    assert len(cp) == starts[-1]
    return cp, starts


def encode(cp: np.ndarray, starts: np.ndarray) -> pa.Array:
    """The inverse of `decode`: a ``string`` array whose value ``i`` is
    ``cp[starts[i]:starts[i + 1]]``."""
    cp = np.ascontiguousarray(cp, np.uint32)
    width = 1 + (cp >= 0x80).astype(np.int64) + (cp >= 0x800) + (cp >= 0x10000)
    byte_at = np.zeros(len(cp) + 1, np.int64)
    np.cumsum(width, out=byte_at[1:])
    data = cp.tobytes().decode("utf-32-le").encode("utf-8")
    return pa.LargeStringArray.from_buffers(
        len(starts) - 1, pa.py_buffer(byte_at[starts]), pa.py_buffer(data)
    ).cast(pa.string())


def windows(starts: np.ndarray, k: int) -> "tuple[np.ndarray, np.ndarray]":
    """Every k-wide window lying inside one segment of ``starts``, in
    segment then position order: (segment index, flat index of the
    window's first element).  The window's 1-based position in its
    segment — SQL ``substr``'s ``i`` — is ``first - starts[seg] + 1``."""
    m = np.maximum(np.diff(starts) - (k - 1), 0)
    seg = np.repeat(np.arange(len(m), dtype=np.int64), m)
    shift = starts[:-1] - (np.cumsum(m) - m)
    return seg, np.arange(len(seg), dtype=np.int64) + shift[seg]


def window_values(cp: np.ndarray, first: np.ndarray, k: int) -> np.ndarray:
    """The k codepoints of each window as one ``V{4k}`` item — exact
    bytes (not a hash), so numpy compares and sorts grams directly."""
    if len(first) == 0:
        return np.empty(0, f"V{4 * k}")
    rows = np.lib.stride_tricks.sliding_window_view(cp, k)[first]
    return rows.view(f"V{4 * k}").reshape(-1)


def to_binary(values: np.ndarray) -> pa.Array:
    """``V{w}`` items -> Arrow ``fixed_size_binary(w)``."""
    w = values.dtype.itemsize
    return pa.FixedSizeBinaryArray.from_buffers(
        pa.binary(w), len(values), [None, pa.py_buffer(np.ascontiguousarray(values))]
    )


def binary_view(col) -> np.ndarray:
    """Arrow ``fixed_size_binary(w)`` column -> zero-copy ``V{w}`` view."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    w = col.type.byte_width
    if len(col) == 0:
        return np.empty(0, f"V{w}")
    return np.frombuffer(col.buffers()[1], f"V{w}")[col.offset : col.offset + len(col)]


def distinct(values: np.ndarray, key: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Distinct (value, key) rows, sorted by value then key."""
    order = np.lexsort((key, values))
    values, key = values[order], key[order]
    if len(values) < 2:
        return values, key
    keep = np.r_[True, (values[1:] != values[:-1]) | (key[1:] != key[:-1])]
    return values[keep], key[keep]


def pair_counts(
    cp: np.ndarray, starts: np.ndarray, skip: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Adjacent codepoint pairs inside one document with neither
    codepoint in ``skip``: (distinct keys ``first << 32 | second`` as
    int64, ascending; occurrence counts)."""
    ok = ~np.isin(cp, skip)
    ok = ok[:-1] & ok[1:]
    cut = starts[1:-1]
    ok[cut[(cut > 0) & (cut < len(cp))] - 1] = False  # pairs across documents
    key = (cp[:-1][ok].astype(np.int64) << 32) | cp[1:][ok]
    keys, n = np.unique(key, return_counts=True)
    return keys, n.astype(np.int64)


def pair_strings(keys: np.ndarray) -> pa.Array:
    """The two-codepoint strings of `pair_counts` keys."""
    cp = np.stack([keys >> 32, keys & 0xFFFFFFFF], axis=1).reshape(-1)
    return encode(cp, np.arange(0, len(cp) + 1, 2, dtype=np.int64))
