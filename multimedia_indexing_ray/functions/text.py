"""Text analysis kernels: token stats, language-ID heuristic, quality,
fingerprinting (rolling hash), shingles/minhash/simhash primitives.

Large-scale training-data-pipeline operators (engine extensions beyond the
reference; SURVEY.md §2 maps the reference's per-image descriptor stats
`visual/extraction/AbstractFeatureExtractor.java:20-24` to per-document
scalar features).  Counting kernels use RE2 via pyarrow.compute so a SQL
oracle using the same RE2 patterns (DuckDB regexp_*) matches exactly.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from multimedia_indexing_ray.functions import grams
from multimedia_indexing_ray.functions.turns import n_tokens

# BPE-ish pre-tokenizer (GPT-2 style, minus the RE2-unsupported
# lookahead and the whitespace-run branch): contraction suffixes,
# space-prefixed letter/digit runs, space-prefixed symbol runs.
# RE2-compatible so the pyarrow kernel and DuckDB count identically.
BPE_RE = r"'(?:s|t|re|ve|m|ll|d)| ?[a-zA-Z]+| ?[0-9]+| ?[^a-zA-Z0-9\s]+"
PUNCT_RE = r"[.,!?;:]"
STOPWORDS = ("the", "and", "of", "a", "to", "in", "is", "it")
STOP_RE = r"\b(" + "|".join(STOPWORDS) + r")\b"

# tiny per-language stopword lists for the n-gram/stopword language-ID
# heuristic (deterministic; ties broken by this ordering)
LANG_MARKERS = {
    "en": ("the", "and", "of", "to", "is"),
    "de": ("der", "die", "und", "das", "ist"),
    "fr": ("le", "la", "et", "les", "est"),
    "es": ("el", "la", "que", "los", "es"),
    "zh": ("de", "shi", "le", "zai", "he"),
}


def token_count(text) -> np.ndarray:
    r"""Whitespace token count as int64: `turns.n_tokens`, the exact count
    of RE2 `\S+` matches that the DuckDB oracle computes."""
    return n_tokens(text).astype(np.int64)


def bpe_token_count(text) -> np.ndarray:
    """Count of BPE-ish pre-tokens — the cheap token-budget estimator
    for training-data pipelines."""
    return pc.count_substring_regex(text, BPE_RE).to_numpy(zero_copy_only=False).astype(np.int64)


def char_count(text) -> np.ndarray:
    return pc.utf8_length(text).to_numpy(zero_copy_only=False).astype(np.int64)


def punct_count(text) -> np.ndarray:
    return pc.count_substring_regex(text, PUNCT_RE).to_numpy(zero_copy_only=False).astype(np.int64)


def stopword_count(text) -> np.ndarray:
    return pc.count_substring_regex(text, STOP_RE).to_numpy(zero_copy_only=False).astype(np.int64)


# PII-style scrub patterns (RE2, shared verbatim with the DuckDB oracle).
# Email/phone are the classic training-data redaction targets; TERM_RE is
# the domain-term redaction list exercised by the synthetic corpus (whose
# 31-word vocabulary contains no digits/@ — emails/phones verify as zero).
PII_EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PII_PHONE_RE = r"\+?[0-9][0-9 ().-]{7,}[0-9]"
REDACT_TERM_RE = r"\b(customer|order|value)\b"
REDACT_TOKEN = "[REDACTED]"


def scrub_count(text, pattern: str) -> np.ndarray:
    """Non-overlapping RE2 match count for a scrub pattern."""
    return pc.count_substring_regex(text, pattern).to_numpy(zero_copy_only=False).astype(np.int64)


def scrub_replace(text, pattern: str, replacement: str = REDACT_TOKEN) -> pa.Array:
    """Replace every RE2 match with a redaction token (PII scrub).

    Vectorized `pc.replace_substring_regex`; semantics identical to
    DuckDB `regexp_replace(text, pattern, replacement, 'g')` (both RE2),
    so the scrubbed text is hash-verifiable against the SQL oracle.
    Reference analog: the name-mangling string rewrites of
    `examples/FolderIndexingMT.java:136` generalized to regex redaction.
    """
    out = pc.replace_substring_regex(text, pattern=pattern, replacement=replacement)
    return out.combine_chunks() if isinstance(out, pa.ChunkedArray) else out


def langid(text) -> np.ndarray:
    """Stopword-marker language-ID heuristic; 'und' when no marker hits."""
    scores = []
    for lang, words in LANG_MARKERS.items():
        patt = r"\b(" + "|".join(words) + r")\b"
        scores.append(pc.count_substring_regex(text, patt).to_numpy(zero_copy_only=False))
    mat = np.stack(scores, axis=1)
    best = np.argmax(mat, axis=1)  # first max wins — deterministic tie rule
    langs = np.array(list(LANG_MARKERS.keys()), dtype=object)
    out = langs[best]
    out[mat.max(axis=1) == 0] = "und"
    return out


def md5_fingerprint(texts: "list[str]") -> "list[str]":
    """Exact content fingerprint (dedup key)."""
    return [hashlib.md5(t.encode("utf-8")).hexdigest() for t in texts]


def _hash64(tokens: np.ndarray, seed: int) -> np.ndarray:
    """Stable 64-bit hashes of a string array (seeded)."""
    import pandas as pd

    return pd.util.hash_array(tokens, hash_key=f"{seed:016d}"[:16], categorize=False)


def tokenize(text: str) -> "list[str]":
    r"""Whitespace tokens of one string, split where RE2's ``\s`` is
    (``[\t\n\f\r ]``), so they equal `flat_tokens`' Arrow split and
    the oracle's ``\S+``."""
    return [t for t in re.split(r"[\t\n\f\r ]+", text) if t]


# FNV-1a over Unicode code points — a stable hash BOTH numpy (vectorized,
# no per-row loop) and DuckDB SQL (list_reduce over split(s,'') + ascii)
# can compute bit-identically, making sketch operators oracle-checkable.
FNV_BASIS = 2166136261
FNV_BASIS2 = 40389339  # second pass basis for the 64-bit composition
FNV_PRIME = 16777619


def fnv1a32_str(strings, basis: int = FNV_BASIS) -> np.ndarray:
    """Vectorized FNV-1a-32 over each string's code points.

    Empty-string convention matches the DuckDB fold exactly: DuckDB's
    split('', '') yields [''] with ascii('') = 0, i.e. ONE fold step with
    code point 0 — so an empty string hashes to (basis ^ 0) * prime,
    NOT the bare basis (verified against the SQL).  Iterates over
    CHARACTER POSITIONS of the batch's one codepoint array (`grams`),
    each step a numpy op over the strings still that long — no per-row
    Python; U+0000 is an ordinary code point."""
    cp, starts = grams.decode(strings)
    lens = np.diff(starts)
    h = np.full(len(lens), basis, dtype=np.uint64)
    prime = np.uint64(FNV_PRIME)
    mask32 = np.uint64(0xFFFFFFFF)
    for p in range(int(lens.max()) if len(lens) else 0):
        live = np.flatnonzero(lens > p)
        h[live] = ((h[live] ^ cp[starts[live] + p]) * prime) & mask32
    h[lens == 0] = (np.uint64(basis) * prime) & mask32
    return h


def fnv64_str(strings: np.ndarray) -> np.ndarray:
    """64-bit hash = (fnv32(basis1) << 32) | fnv32(basis2) — SQL:
    CAST(pass1 AS UBIGINT) * 4294967296 + pass2."""
    hi = fnv1a32_str(strings, FNV_BASIS)
    lo = fnv1a32_str(strings, FNV_BASIS2)
    return (hi << np.uint64(32)) | lo


def shingles(tokens: "list[str]", k: int = 3) -> "list[str]":
    if len(tokens) < k:
        return [" ".join(tokens)] if tokens else []
    return [" ".join(tokens[i : i + k]) for i in range(len(tokens) - k + 1)]


def minhash_signature(shingle_list: "list[str]", num_hashes: int = 64) -> np.ndarray:
    """Min-wise signature via seeded 64-bit hash families (k=num_hashes).

    One base hash per shingle + (a*h+b) universal rehash per family —
    the standard mergeable-sketch construction."""
    if not shingle_list:
        return np.full(num_hashes, np.uint64(2**64 - 1), dtype=np.uint64)
    base = _hash64(np.array(shingle_list, dtype=object), 0)
    rng = np.random.default_rng(12345)
    a = rng.integers(1, 2**61, num_hashes, dtype=np.uint64) | np.uint64(1)
    b = rng.integers(0, 2**61, num_hashes, dtype=np.uint64)
    # (num_hashes, n_shingles) universal hashing, wrap-around arithmetic
    vals = (a[:, None] * base[None, :] + b[:, None])  # uint64 overflow wraps
    return vals.min(axis=1)


def simhash64(tokens: "list[str]") -> np.uint64:
    """64-bit SimHash over token hashes (unweighted, FNV-based so a DuckDB
    oracle can recompute it)."""
    if not tokens:
        return np.uint64(0)
    h = fnv64_str(np.array(tokens, dtype=object))
    bits = ((h[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)).astype(
        np.int64
    )
    votes = (2 * bits - 1).sum(axis=0)
    out = np.uint64(0)
    for i in range(64):
        if votes[i] > 0:
            out |= np.uint64(1) << np.uint64(i)
    return out


def flat_tokens(text_col) -> "tuple[np.ndarray, np.ndarray]":
    """Whitespace tokens for a whole Arrow string column, flattened:
    (flat object array of tokens, per-doc token counts).  Tokenization is
    the Arrow C kernel split_pattern_regex — no per-doc Python loop; empty
    tokens from leading/trailing whitespace are dropped (== re.findall)."""
    if isinstance(text_col, pa.Table):
        raise TypeError("pass a column")
    if isinstance(text_col, pa.ChunkedArray):
        text_col = text_col.combine_chunks()
    toks = pc.split_pattern_regex(text_col, pattern=r"\s+")
    n_docs = len(toks)
    counts = np.diff(toks.offsets.to_numpy())
    vals = toks.flatten()
    # empty-token mask computed by the Arrow kernel (not a per-token
    # Python comprehension over an object array)
    nonempty = pc.greater(pc.utf8_length(vals), 0).to_numpy(zero_copy_only=False)
    flat = vals.to_numpy(zero_copy_only=False)
    if not nonempty.all():
        doc_of = np.repeat(np.arange(n_docs), counts)
        flat = flat[nonempty]
        counts = np.bincount(doc_of[nonempty], minlength=n_docs)
    return flat, counts.astype(np.int64)


def distinct_doc_token_pairs(
    text_col,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """DISTINCT (document, token) pairs for a whole Arrow string column:
    (doc_idx int64, tok_id int64, uniq_tokens) — the shared kernel behind
    every document-frequency partial (tf-idf, BM25, chi-square): encode
    pairs as doc*|batch_vocab|+tok in int64 (safe while batch_docs x
    batch_vocab < 2^63 — any practical batch), one np.unique dedups.
    A df partial is then ``np.bincount(tok_id, minlength=len(uniq))``."""
    flat, counts = flat_tokens(text_col)
    if len(flat) == 0:
        e = np.array([], np.int64)
        return e, e, np.array([], object)
    doc_of = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    uniq, tok_id = np.unique(flat, return_inverse=True)
    pair = np.unique(doc_of * np.int64(len(uniq)) + tok_id)
    return pair // len(uniq), pair % len(uniq), uniq


def repetition_stats(text_col) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """Gopher-style repetition signals per document, fully vectorized:
    (n_tokens, n_distinct, top_token_n, top_bigram_n).

    top_token_n = occurrences of the most frequent token; top_bigram_n =
    occurrences of the most frequent adjacent token pair (0 when < 2
    tokens).  Counts (not fractions) so the SQL oracle compares int64
    bit-exactly; quality *ratios* are single divisions downstream.
    Tokenization = the `\\S+` family via flat_tokens (RE2 parity)."""
    flat, counts = flat_tokens(text_col)
    n_docs = len(counts)
    n_distinct = np.zeros(n_docs, np.int64)
    top_token = np.zeros(n_docs, np.int64)
    top_bigram = np.zeros(n_docs, np.int64)
    if len(flat):
        doc_of = np.repeat(np.arange(n_docs, dtype=np.int64), counts)
        uniq, tok_id = np.unique(flat, return_inverse=True)
        nv = np.int64(len(uniq))
        key = doc_of * nv + tok_id
        ukey, kcount = np.unique(key, return_counts=True)
        kdoc = ukey // nv
        n_distinct = np.bincount(kdoc, minlength=n_docs).astype(np.int64)
        np.maximum.at(top_token, kdoc, kcount)
        # adjacent pairs within a doc: factorize the pair id first so the
        # (doc, pair) composite key stays within int64
        same = doc_of[1:] == doc_of[:-1]
        if same.any():
            pair = tok_id[:-1][same] * nv + tok_id[1:][same]
            upair, pinv = np.unique(pair, return_inverse=True)
            bkey = doc_of[:-1][same] * np.int64(len(upair)) + pinv
            ub, bcount = np.unique(bkey, return_counts=True)
            np.maximum.at(top_bigram, ub // np.int64(len(upair)), bcount)
    return counts, n_distinct, top_token, top_bigram


def top_term_batch(
    text_col, vocab: np.ndarray, df: np.ndarray
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """Salient-term extraction per document: the token maximizing
    (tf DESC, corpus df ASC, token ASC) — the integer-exact analog of
    tf-idf argmax (rarest-in-corpus breaks tf ties; no float idf, so the
    SQL oracle's row_number() picks the identical term).

    `vocab` must be sorted ascending with `df[i]` = number of docs in the
    WHOLE corpus containing vocab[i] (the broadcast small side).  Returns
    (doc_mask, top_term, tf, df_of_term) where doc_mask marks docs with
    >= 1 token."""
    flat, counts = flat_tokens(text_col)
    n_docs = len(counts)
    mask = counts > 0
    terms = np.empty(n_docs, object)
    tfs = np.zeros(n_docs, np.int64)
    dfs = np.zeros(n_docs, np.int64)
    if len(flat):
        doc_of = np.repeat(np.arange(n_docs, dtype=np.int64), counts)
        uniq, tok_id = np.unique(flat, return_inverse=True)
        nv = np.int64(len(uniq))
        ukey, tf = np.unique(doc_of * nv + tok_id, return_counts=True)
        kdoc, ktok = ukey // nv, ukey % nv
        # corpus df lookup for each distinct (doc, token); the contract
        # requires vocab to cover the corpus — verify membership so a
        # missing token fails loudly instead of reading a neighbor's df
        pos = np.clip(np.searchsorted(vocab, uniq[ktok]), 0, len(vocab) - 1)
        if len(vocab) == 0 or not np.all(vocab[pos] == uniq[ktok]):
            missing = uniq[ktok][~(vocab[pos] == uniq[ktok])][:5] if len(vocab) else uniq[:5]
            raise ValueError(f"top_term_batch: tokens missing from vocab: {missing!r}")
        kdf = df[pos]
        # first row per doc after ordering by (tf desc, df asc, token asc);
        # ukey is already sorted by (doc, token asc), so a stable lexsort
        # on (df, -tf, doc) keeps token-asc as the final tie rule
        order = np.lexsort((kdf, -tf, kdoc))
        first = np.unique(kdoc[order], return_index=True)[1]
        sel = order[first]
        terms[kdoc[sel]] = uniq[ktok[sel]]
        tfs[kdoc[sel]] = tf[sel]
        dfs[kdoc[sel]] = kdf[sel]
    return mask, terms, tfs, dfs


def simhash64_batch(text_col) -> np.ndarray:
    """Vectorized SimHash for a whole column: tokenize (Arrow), hash
    (vectorized FNV), per-doc bit votes via segmented reduceat.  Returns
    int64 (two's-complement of the uint64 hash); empty docs -> 0."""
    flat, counts = flat_tokens(text_col)
    n_docs = len(counts)
    sim = np.zeros(n_docs, dtype=np.uint64)
    if len(flat):
        h = fnv64_str(flat)
        bits = ((h[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)).astype(np.int64)
        contrib = 2 * bits - 1
        nz = counts > 0
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])[nz].astype(np.int64)
        votes = np.add.reduceat(contrib, starts, axis=0)
        bitvals = (votes > 0).astype(np.uint64)
        sim[nz] = (bitvals << np.arange(64, dtype=np.uint64)[None, :]).sum(axis=1)
    return sim.astype(np.int64)


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    x = np.bitwise_xor(a, b)
    return np.array([bin(int(v)).count("1") for v in np.atleast_1d(x)], dtype=np.int64)


def winnow_fingerprints(text: str, k: int = 8, window: int = 4) -> "list[int]":
    """Winnowing document fingerprint: k-gram rolling hashes, min per
    window (Schleimer et al., SIGMOD 2003 — public algorithm)."""
    if len(text) < k:
        return []
    grams = np.array([text[i : i + k] for i in range(len(text) - k + 1)], dtype=object)
    h = fnv1a32_str(grams)  # SQL-recomputable (substr + the same fold)
    if len(h) <= window:
        return [int(h.min())]
    from numpy.lib.stride_tricks import sliding_window_view

    mins = sliding_window_view(h, window).min(axis=1)
    return sorted(set(int(v) for v in mins))


def winnow_sets_batch(text_col, k: int = 8, window: int = 4) -> "tuple[np.ndarray, np.ndarray]":
    """Full distinct fingerprint SETS per doc of a string column (the
    winnowing index the n_fp/min_fp summary is derived from): returns
    (flat int64 fingerprints in doc order, per-doc counts); each doc's
    slice is sorted ascending, identical to winnow_fingerprints.

    Ragged windows over the batch's one codepoint array (`grams`): FNV
    over every k-gram in k vector steps, then the min of every `window`
    consecutive grams of a doc (a doc with fewer grams keeps the min of
    all of them) — no per-doc Python, no padding."""
    cp, starts = grams.decode(text_col)
    doc, first = grams.windows(starts, k)
    h = np.full(len(first), FNV_BASIS, dtype=np.uint64)
    prime = np.uint64(FNV_PRIME)
    mask32 = np.uint64(0xFFFFFFFF)
    for j in range(k):
        h = ((h ^ cp[first + j]) * prime) & mask32
    n_grams = np.bincount(doc, minlength=len(starts) - 1)
    g_starts = np.concatenate([[0], np.cumsum(n_grams)])
    wdoc, wfirst = grams.windows(g_starts, window)
    wmin = h[wfirst]
    for j in range(1, window):
        wmin = np.minimum(wmin, h[wfirst + j])
    has = n_grams > 0
    few = n_grams[has] < window
    doc_min = np.minimum.reduceat(h, g_starts[:-1][has])[few]
    # (doc << 32 | fp): one np.unique sorts and dedups per doc
    key = np.unique(
        np.concatenate(
            [
                (wdoc.astype(np.uint64) << np.uint64(32)) | wmin,
                (np.flatnonzero(has)[few].astype(np.uint64) << np.uint64(32)) | doc_min,
            ]
        )
    )
    counts = np.bincount((key >> np.uint64(32)).astype(np.int64), minlength=len(n_grams))
    return (key & mask32).astype(np.int64), counts.astype(np.int64)


def winnow_batch(text_col, k: int = 8, window: int = 4) -> "tuple[np.ndarray, np.ndarray]":
    """Per-doc (n_fingerprints int64, min_fingerprint int64; 0 for a doc
    without fingerprints) of a string column, identical to
    winnow_fingerprints."""
    fp, n_fp = winnow_sets_batch(text_col, k, window)
    min_fp = np.zeros(len(n_fp), dtype=np.int64)
    has = n_fp > 0
    min_fp[has] = fp[(np.cumsum(n_fp) - n_fp)[has]]
    return n_fp, min_fp


def jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def normalize_nfc_truncate(texts: "list[str]", max_chars: int) -> "tuple[list[str], list[int]]":
    """NFC-normalize + truncate to max_chars codepoints (the text analog
    of the reference's max-pixels rescale, `visual/extraction/ImageScaling.java:96-155`).

    Uses unicodedata (matches DuckDB's nfc_normalize); pyarrow's
    utf8_normalize was observed NOT to compose in this environment.
    """
    import unicodedata

    norm = [unicodedata.normalize("NFC", t) for t in texts]
    return [t[:max_chars] for t in norm], [len(t) for t in norm]


def chunk_tokens(text_col, doc_ids: np.ndarray, width: int):
    """Token-budget chunking for a whole batch: returns (doc_id,
    chunk_idx, chunk_text, n_tokens) numpy/Arrow arrays.  Chunks tile the
    batch's flat token array exactly, so the batch needs ONE ListArray
    build and ONE Arrow binary_join — no per-doc Python.  Empty docs emit
    no chunks."""
    flat, counts = flat_tokens(text_col)
    if len(flat) == 0:
        e = np.empty(0, np.int64)
        return e, e, pa.array([], pa.string()), e
    n_chunks = -(-counts // width)
    doc_of_chunk = np.repeat(np.arange(len(counts), dtype=np.int64), n_chunks)
    total = int(n_chunks.sum())
    inner = np.arange(total, dtype=np.int64) - np.repeat(
        np.concatenate([[0], np.cumsum(n_chunks)[:-1]]), n_chunks
    )
    doc_start = np.concatenate([[0], np.cumsum(counts)[:-1]])
    starts = doc_start[doc_of_chunk] + width * inner
    offsets = np.concatenate([starts, [len(flat)]]).astype(np.int64)
    lst = pa.ListArray.from_arrays(
        pa.array(offsets, pa.int32()) if len(flat) < 2**31 else pa.array(offsets),
        pa.array(flat, pa.string()),
    )
    import pyarrow.compute as _pc

    return (
        doc_ids[doc_of_chunk],
        inner,
        _pc.binary_join(lst, " "),
        np.diff(offsets).astype(np.int64),
    )
