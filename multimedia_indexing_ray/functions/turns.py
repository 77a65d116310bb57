"""Per-turn base featurizers — vectorized pyarrow.compute kernels.

The analog of the reference's per-image local-descriptor extraction
(`visual/extraction/SURFExtractor.java:44-59` — image → per-point rows):
here each turn row yields scalar per-turn features (SURVEY.md §2.2 M4).
All kernels are Arrow-native; no Python row loops.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# RE2's \s (its Perl class): tab, newline, form feed, carriage return and
# space; vertical tab, NBSP and the other Unicode spaces are not in it
_SPACE = np.zeros(256, dtype=bool)
_SPACE[[0x09, 0x0A, 0x0C, 0x0D, 0x20]] = True


def text_len(text: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Character count (utf8 code points) as float64; '' -> 0."""
    return pc.utf8_length(text).to_numpy(zero_copy_only=False).astype(np.float64)


def _chunk_tokens(arr: pa.Array) -> np.ndarray:
    if not (pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type)):
        arr = arr.cast(pa.large_string())
    width = np.int64 if pa.types.is_large_string(arr.type) else np.int32
    _, offs, data = arr.buffers()
    offs = np.frombuffer(offs, width, len(arr) + 1, arr.offset * np.dtype(width).itemsize)
    lo = int(offs[0])
    body = np.frombuffer(data, np.uint8, int(offs[-1]) - lo, lo) if data else np.empty(0, np.uint8)
    word = ~_SPACE[body]
    first = word.copy()
    first[1:] &= ~word[:-1]
    # a string's first byte starts a token whatever the byte before it
    heads = offs[:-1] - lo
    heads = heads[heads < len(body)]
    first[heads] = word[heads]
    counts = np.diff(np.searchsorted(np.flatnonzero(first), offs - lo)).astype(np.float64)
    if arr.null_count:
        counts[~arr.is_valid().to_numpy(zero_copy_only=False)] = np.nan
    return counts


def n_tokens(text: pa.ChunkedArray | pa.Array) -> np.ndarray:
    r"""Whitespace-delimited token count, the count of RE2 `\S+` matches,
    as float64 (NaN for a null string).

    One pass over the UTF-8 bytes: a token starts at a byte outside
    RE2's \s = [\t\n\f\r ] that begins its string or follows one of
    those bytes.  Bytes of multi-byte characters are >= 0x80, so NBSP
    and the other Unicode spaces are token bytes, as in RE2 and the
    DuckDB oracle's `regexp_extract_all(text, '\S+')`;
    utf8_split_whitespace (splits NBSP) and ascii_split_whitespace
    (splits vertical tab) both differ.  Half the time of
    `pc.count_substring_regex(text, r"\S+")` on the same counts."""
    chunks = text.chunks if isinstance(text, pa.ChunkedArray) else [text]
    if not chunks:
        return np.empty(0, np.float64)
    return np.concatenate([_chunk_tokens(c) for c in chunks])


def role_onehots(role: pa.ChunkedArray | pa.Array) -> dict:
    out = {}
    for name, value in (
        ("is_user", "user"),
        ("is_assistant", "assistant"),
        ("is_system", "system"),
        ("is_tool_role", "tool"),
    ):
        out[name] = (
            pc.equal(role, value).to_numpy(zero_copy_only=False).astype(np.float64)
        )
    return out


def has_tool(tool: pa.ChunkedArray | pa.Array) -> np.ndarray:
    return pc.is_valid(tool).to_numpy(zero_copy_only=False).astype(np.float64)


def base_turn_features(batch: pa.Table) -> dict:
    """All base per-turn features except gap_s (which needs sorted order).

    Returns a dict of float64 numpy arrays keyed by specs.BASE_FEATURES
    names (gap_s excluded — computed by the window kernel after sorting).
    """
    feats = {
        "text_len": text_len(batch["text"]),
        "n_tokens": n_tokens(batch["text"]),
    }
    feats.update(role_onehots(batch["role"]))
    feats["has_tool"] = has_tool(batch["tool"])
    return feats
