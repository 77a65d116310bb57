"""Deduplication operators: exact, key-based, MinHash-LSH, SimHash,
embedding near-dup.

The reference's only dedup is the exact already-indexed gate
(`visual/datastructures/AbstractSearchStructure.java:237-240` +
`visual/examples/FolderIndexingMT.java:109-112`); the approximate family
here is the training-data-pipeline extension (public algorithms: Broder
minhash/LSH, Charikar simhash).

Scale notes: every variant is ONE shuffle on a content/bucket hash with
vectorized per-batch sketching before it; sketches are carried through the
shuffle instead of text wherever possible.
"""

from __future__ import annotations

import logging
from typing import Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from multimedia_indexing_ray.functions import text as tx
from multimedia_indexing_ray.stages.knn import _batch_matrix, _unit
from multimedia_indexing_ray.stages.partition import (
    BROADCAST_IDS,
    PAIR_COALESCE_ROWS,
    fits,
    gather,
    map_partitions_by_key,
)

logger = logging.getLogger(__name__)

# A degenerate LSH bucket (one band value shared by huge numbers of docs,
# e.g. many near-empty texts) would make the in-bucket pair compare
# O(b^2); buckets above this cap are dropped with a logged count instead
# of exploding a partition.
DEFAULT_BUCKET_CAP = 1024


def _shingle_arrays(
    text_col, k: int
) -> "tuple[np.ndarray, np.ndarray, int]":
    """All k-token shingles for a whole Arrow text column, vectorized.

    Returns (flat shingle object array, doc index per shingle — sorted by
    doc, n_docs).  Docs with 0 < len < k tokens contribute one joined-
    tokens shingle (same convention as tx.shingles); empty docs none."""
    flat, counts = tx.flat_tokens(text_col)
    n_docs = len(counts)
    doc_of = np.repeat(np.arange(n_docs), counts)
    sh_parts, doc_parts = [], []
    if len(flat) >= k:
        idx = np.arange(len(flat) - k + 1)
        valid = doc_of[idx] == doc_of[idx + k - 1]
        vi = idx[valid]
        if len(vi):
            sep = np.full(len(vi), " ", dtype=object)
            out = flat[vi]
            for j in range(1, k):
                out = out + sep + flat[vi + j]
            sh_parts.append(out)
            doc_parts.append(doc_of[vi])
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.int64)
    for d in np.flatnonzero((counts > 0) & (counts < k)):  # rare short docs
        s = starts[d]
        sh_parts.append(np.array([" ".join(flat[s : s + counts[d]])], dtype=object))
        doc_parts.append(np.array([d], dtype=np.int64))
    if not sh_parts:
        return np.empty(0, dtype=object), np.empty(0, dtype=np.int64), n_docs
    sh = np.concatenate(sh_parts)
    docs = np.concatenate(doc_parts)
    order = np.argsort(docs, kind="stable")
    return sh[order], docs[order], n_docs


def _sig_column(sig: np.ndarray) -> pa.Array:
    return pa.FixedSizeListArray.from_arrays(pa.array(sig.reshape(-1)), sig.shape[1])


def _sig_matrix(col) -> np.ndarray:
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    h = col.type.list_size
    return col.flatten().to_numpy(zero_copy_only=False).reshape(-1, h)


def add_fingerprint(ds: "ray.data.Dataset", text_col: str, out_col: str = "fp") -> "ray.data.Dataset":
    def _fn(batch: pa.Table) -> pa.Table:
        fps = tx.md5_fingerprint(batch[text_col].to_pylist())
        return batch.append_column(out_col, pa.array(fps, pa.string()))

    return ds.map_batches(_fn, batch_format="pyarrow")


def exact_dedup_stats(
    ds: "ray.data.Dataset",
    text_col: str,
    id_col: str,
) -> "ray.data.Dataset":
    """Per distinct text: MIN(id) and copy count.  Hash-partition
    directly on the text (the partitioner stable-hashes key values — no
    per-row md5 loop needed); group on the full text within partition
    (collision safe)."""

    def kernel(table: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(table.select([id_col, text_col]), text_col).aggregate(
            [(id_col, "min"), (id_col, "count")]
        )
        return pa.table(
            {
                id_col: g[f"{id_col}_min"].cast(pa.int64()),
                "n_copies": g[f"{id_col}_count"].cast(pa.int64()),
            }
        )

    return map_partitions_by_key(ds, text_col, kernel)


def dedup_by_key(
    ds: "ray.data.Dataset",
    keys: Sequence[str],
    order_by: Sequence[str],
) -> "ray.data.Dataset":
    """Keep the FIRST row per key group under `order_by` — the idempotent
    ingest gate (FIXTURES.md T3: first-by-ts wins on duplicated
    (conv_id, turn_idx))."""
    keys = list(keys)

    def kernel(table: pa.Table) -> pa.Table:
        sort_keys = [(k, "ascending") for k in [*keys, *order_by]]
        t = table.take(pc.sort_indices(table, sort_keys=sort_keys))
        df_keys = [t[k].to_numpy(zero_copy_only=False) for k in keys]
        change = np.zeros(t.num_rows, dtype=bool)
        if t.num_rows:
            change[0] = True
            for arr in df_keys:
                change[1:] |= arr[1:] != arr[:-1]
        return t.filter(pa.array(change))

    return map_partitions_by_key(ds, keys, kernel)


class MinHashSketcher:
    """Actor-pool stage: minhash signatures + LSH band explosion for a
    whole batch — fully vectorized (no per-doc/per-band Python loops).

    State (the universal hash family) built once per actor (`__init__`) —
    the codebook-singleton pattern
    (`visual/vectorization/ImageVectorization.java:52-65`)."""

    def __init__(self, text_col: str, id_col: str, num_hashes: int = 64, bands: int = 16, shingle_k: int = 3):
        self.text_col = text_col
        self.id_col = id_col
        self.num_hashes = num_hashes
        self.bands = bands
        self.rows_per_band = num_hashes // bands
        self.shingle_k = shingle_k
        rng = np.random.default_rng(12345)  # same family as tx.minhash_signature
        self.a = rng.integers(1, 2**61, num_hashes, dtype=np.uint64) | np.uint64(1)
        self.b = rng.integers(0, 2**61, num_hashes, dtype=np.uint64)

    def signatures(self, text_col) -> np.ndarray:
        """(n_docs, num_hashes) uint64 signature matrix for a column."""
        sh, docs, n_docs = _shingle_arrays(text_col, self.shingle_k)
        sig = np.full((n_docs, self.num_hashes), np.uint64(2**64 - 1), dtype=np.uint64)
        if len(sh):
            base = tx._hash64(sh, 0)
            vals = self.a[:, None] * base[None, :] + self.b[:, None]  # (H, S) wraps
            seg = np.flatnonzero(np.concatenate([[True], docs[1:] != docs[:-1]]))
            mins = np.minimum.reduceat(vals, seg, axis=1)  # (H, n_seg)
            sig[docs[seg]] = mins.T
        return sig

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch[self.id_col].to_numpy()
        sig = self.signatures(batch[self.text_col])
        n_docs = len(ids)
        # band digests: fold each band's rows with a 64-bit polynomial mix
        sigr = sig.reshape(n_docs, self.bands, self.rows_per_band)
        digest = sigr[:, :, 0].copy()
        prime = np.uint64(0x100000001B3)
        for r in range(1, self.rows_per_band):
            digest = digest * prime ^ sigr[:, :, r]
        band_hash = (digest & np.uint64(0x7FFFFFFFFFFFFFFF)).astype(np.int64)
        return pa.table(
            {
                self.id_col: pa.array(np.repeat(ids, self.bands), pa.int64()),
                "band_id": pa.array(
                    np.tile(np.arange(self.bands, dtype=np.int32), n_docs)
                ),
                "band_hash": pa.array(band_hash.reshape(-1)),
                "sig": _sig_column(np.repeat(sig, self.bands, axis=0)),
            }
        )


def _first_per_pair_block(batch: pa.Table, value_col: str) -> pa.Table:
    """First row per (a_id, b_id) ordered by value_col, within ONE block
    — the tie rule both pair-dedup plans (coalesced and distributed)
    must share so forced plan flips stay bit-identical."""
    t = batch.take(
        pc.sort_indices(
            batch,
            sort_keys=[
                ("a_id", "ascending"),
                ("b_id", "ascending"),
                (value_col, "ascending"),
            ],
        )
    )
    a = t["a_id"].to_numpy()
    b = t["b_id"].to_numpy()
    first = np.r_[True, (a[1:] != a[:-1]) | (b[1:] != b[:-1])]
    return t.filter(pa.array(first))


def _dedup_pairs(pairs: "ray.data.Dataset", value_col: str) -> "ray.data.Dataset":
    """Cross-band/bucket pair dedup (first row per (a_id, b_id) ordered
    by value_col).  Candidate sets are normally tiny relative to the
    corpus and a keyed exchange costs ~1-2s of fixed sort overhead, so
    sets that fit ``PAIR_COALESCE_ROWS`` dedup in ONE coalesced block; the
    distributed first-per-key path remains for larger sets."""
    pairs = pairs.materialize()
    if fits(pairs.count(), PAIR_COALESCE_ROWS):
        return gather(pairs, lambda b: _first_per_pair_block(b, value_col))
    return dedup_by_key(pairs, ["a_id", "b_id"], [value_col])


def minhash_lsh_pairs(
    ds: "ray.data.Dataset",
    text_col: str,
    id_col: str,
    num_hashes: int = 64,
    bands: int = 16,
    shingle_k: int = 3,
    threshold: float = 0.8,
    concurrency: int = 4,
    bucket_cap: int = DEFAULT_BUCKET_CAP,
) -> "ray.data.Dataset":
    """Candidate near-duplicate pairs (a_id < b_id) whose signature-
    estimated Jaccard >= threshold.  shingle->minhash->band->bucket
    groupby->verify, signatures carried through the shuffle (no text);
    buckets over `bucket_cap` members are dropped with a logged count
    (skew guard), and the in-bucket compare is one matrix equality."""
    exploded = ds.map_batches(
        MinHashSketcher(text_col, id_col, num_hashes, bands, shingle_k),
        batch_format="pyarrow",
        concurrency=concurrency,
    )

    def kernel(table: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "a_id": pa.array([], pa.int64()),
                "b_id": pa.array([], pa.int64()),
                "est_jaccard": pa.array([], pa.float64()),
            }
        )
        if table.num_rows == 0:
            return empty
        t = table.take(
            pc.sort_indices(
                table,
                sort_keys=[("band_id", "ascending"), ("band_hash", "ascending"), (id_col, "ascending")],
            )
        )
        ids = t[id_col].to_numpy()
        bid = t["band_id"].to_numpy()
        bh = t["band_hash"].to_numpy()
        sig = _sig_matrix(t["sig"])
        change = np.concatenate([[True], (bid[1:] != bid[:-1]) | (bh[1:] != bh[:-1])])
        starts = np.flatnonzero(change)
        ends = np.concatenate([starts[1:], [len(ids)]])
        a_out, b_out, e_out = [], [], []
        dropped = 0
        for s, e in zip(starts, ends):
            if e - s < 2:
                continue
            if e - s > bucket_cap:
                dropped += 1
                continue
            ids_b, first = np.unique(ids[s:e], return_index=True)  # sorted unique
            if len(ids_b) < 2:
                continue
            su = sig[s:e][first]
            eq = (su[:, None, :] == su[None, :, :]).mean(axis=2)
            iu = np.triu_indices(len(ids_b), 1)
            est = eq[iu]
            m = est >= threshold
            a_out.append(ids_b[iu[0][m]])
            b_out.append(ids_b[iu[1][m]])
            e_out.append(est[m])
        if dropped:
            logger.warning("minhash_lsh_pairs: dropped %d oversize buckets (> %d)", dropped, bucket_cap)
        if not a_out:
            return empty
        return pa.table(
            {
                "a_id": pa.array(np.concatenate(a_out), pa.int64()),
                "b_id": pa.array(np.concatenate(b_out), pa.int64()),
                "est_jaccard": pa.array(np.concatenate(e_out), pa.float64()),
            }
        )

    pairs = map_partitions_by_key(exploded, ["band_id", "band_hash"], kernel)
    # same pair can surface from multiple bands -> exact dedup on the pair
    return _dedup_pairs(pairs, "est_jaccard")


def exact_jaccard_verify(
    pairs: "ray.data.Dataset",
    docs: "ray.data.Dataset",
    text_col: str,
    id_col: str,
    shingle_k: int = 3,
    threshold: float = 0.8,
) -> "ray.data.Dataset":
    """EXACT-Jaccard verification of candidate pairs (a_id, b_id) against
    the corpus — the standard second stage after MinHash-LSH candidate
    generation, so the final pair set is oracle-checkable (all-pairs SQL)
    while only O(candidates) shingle sets ever move.

    When the candidate id set fits ``BROADCAST_IDS`` (the normal dedup
    case: candidates << corpus) it is broadcast as an
    ``is_in`` filter so only candidate docs are even SHINGLED; otherwise
    every doc is shingled and the join prunes (same result).

    Two slim shuffles after that: (1) pair sides + doc shingle sets
    co-partition on doc id to attach each side's set; (2) sides
    co-partition on the pair key to compute |a∩b| / |a∪b| exactly.
    Never ships text."""
    pairs = pairs.materialize()  # consumed twice (id broadcast + melt)
    n_pairs = pairs.count()
    if fits(2 * n_pairs, BROADCAST_IDS):
        import pyarrow.compute as _pc

        # one verify row per DISTINCT candidate pair (LSH generators can
        # emit a pair once per band; the distributed path dedups the
        # same way in its group kernel)
        pdf = pairs.to_pandas().drop_duplicates()
        need = pa.array(
            np.unique(np.concatenate([pdf["a_id"].to_numpy(), pdf["b_id"].to_numpy()]))
            .astype(np.int64)
            if len(pdf)
            else np.array([], np.int64)
        )

        def _prune(batch: pa.Table) -> pa.Table:
            return batch.filter(_pc.is_in(batch[id_col], value_set=need))

        docs = docs.map_batches(_prune, batch_format="pyarrow")
        # fast path: candidate docs' shingle sets fit on the driver (they
        # are bounded by the candidate count, not the corpus), so the two
        # fixed-cost exchanges below collapse to one distributed shingling
        # pass + a vectorized driver-side intersect
        a_ids = pdf["a_id"].to_numpy()
        b_ids = pdf["b_id"].to_numpy()
        sk_small = docs.map_batches(
            ShingleAnchor(text_col, id_col, shingle_k), batch_format="pyarrow", concurrency=2
        )
        tabs = [b for b in sk_small.iter_batches(batch_size=None, batch_format="pyarrow")]
        empty = pa.table(
            {
                "a_id": pa.array([], pa.int64()),
                "b_id": pa.array([], pa.int64()),
                "jaccard": pa.array([], pa.float64()),
            }
        )
        if not tabs or n_pairs == 0:
            return ray.data.from_arrow(empty)
        sk_t = pa.concat_tables([t.select([id_col, "sh"]) for t in tabs])
        d_ids = sk_t[id_col].to_numpy()
        sh_col = sk_t["sh"].combine_chunks()
        offs = sh_col.offsets.to_numpy().astype(np.int64)
        _, sid = np.unique(sh_col.values.to_numpy(zero_copy_only=False), return_inverse=True)
        dorder = np.argsort(d_ids)
        ds_sorted = d_ids[dorder]
        pos_a = np.searchsorted(ds_sorted, a_ids)
        pos_b = np.searchsorted(ds_sorted, b_ids)
        ok = (
            (pos_a < len(ds_sorted)) & (pos_b < len(ds_sorted))
            & (ds_sorted[np.clip(pos_a, 0, len(ds_sorted) - 1)] == a_ids)
            & (ds_sorted[np.clip(pos_b, 0, len(ds_sorted) - 1)] == b_ids)
        )
        # vectorized intersect over ALL pairs (shingles are unique per
        # doc): gather each pair's two id-sets, key by (pair, shingle),
        # count duplicate keys — |A∩B| per pair in one unique() pass.
        # Chunked so memory is O(chunk * avg_set_size), not O(all pairs).
        rows = np.flatnonzero(ok)
        ai = dorder[pos_a[rows]]
        bi = dorder[pos_b[rows]]
        lens = np.diff(offs)
        n_sid = int(sid.max()) + 1 if len(sid) else 1

        def _ragged_gather(starts, counts):
            total = int(counts.sum())
            within = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
            return np.repeat(starts, counts) + within

        a_out, b_out, j_out = [], [], []
        chunk = 200_000
        for lo in range(0, len(rows), chunk):
            ca, cb = ai[lo : lo + chunk], bi[lo : lo + chunk]
            # key order is irrelevant to duplicate counting: a-side keys
            # then b-side keys, no interleave needed
            pair_of = np.concatenate(
                [
                    np.repeat(np.arange(len(ca), dtype=np.int64), lens[ca]),
                    np.repeat(np.arange(len(cb), dtype=np.int64), lens[cb]),
                ]
            )
            idx = np.concatenate(
                [_ragged_gather(offs[ca], lens[ca]), _ragged_gather(offs[cb], lens[cb])]
            )
            key = pair_of * np.int64(n_sid) + sid[idx]
            uk, uc = np.unique(key, return_counts=True)
            inter = np.bincount((uk // np.int64(n_sid))[uc == 2], minlength=len(ca))
            union = lens[ca] + lens[cb] - inter
            jac = np.where(union > 0, inter / np.maximum(union, 1), 1.0)
            keep = jac >= threshold
            sel = rows[lo : lo + chunk][keep]
            a_out.append(a_ids[sel].astype(np.int64))
            b_out.append(b_ids[sel].astype(np.int64))
            j_out.append(jac[keep])
        if not a_out or not sum(len(x) for x in a_out):
            return ray.data.from_arrow(empty)
        return ray.data.from_arrow(
            pa.table(
                {
                    "a_id": pa.array(np.concatenate(a_out), pa.int64()),
                    "b_id": pa.array(np.concatenate(b_out), pa.int64()),
                    "jaccard": pa.array(np.concatenate(j_out), pa.float64()),
                }
            )
        )
    sk = docs.map_batches(
        ShingleAnchor(text_col, id_col, shingle_k), batch_format="pyarrow", concurrency=2
    )

    def _melt(batch: pa.Table) -> pa.Table:
        a = batch["a_id"].to_numpy()
        b = batch["b_id"].to_numpy()
        return pa.table(
            {
                "doc": pa.array(np.concatenate([a, b]), pa.int64()),
                "pa_id": pa.array(np.concatenate([a, a]), pa.int64()),
                "pb_id": pa.array(np.concatenate([b, b]), pa.int64()),
                "side": pa.array(
                    np.concatenate(
                        [np.zeros(len(a), np.int8), np.ones(len(b), np.int8)]
                    )
                ),
                "sh": pa.nulls(2 * len(a), pa.list_(pa.string())),
            }
        )

    def _docs_side(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "doc": batch[id_col].cast(pa.int64()),
                "pa_id": pa.nulls(n, pa.int64()),
                "pb_id": pa.nulls(n, pa.int64()),
                "side": pa.array(np.full(n, 2, np.int8)),
                "sh": batch["sh"],
            }
        )

    melted = pairs.map_batches(_melt, batch_format="pyarrow")
    union1 = melted.union(sk.map_batches(_docs_side, batch_format="pyarrow"))

    def _attach(table: pa.Table) -> pa.Table:
        side = table["side"].to_numpy()
        doc = table["doc"].to_numpy()
        is_doc = side == 2
        # map doc id -> its shingle list offset (docs unique per id)
        d_ids = doc[is_doc]
        order = np.argsort(d_ids)
        sh_col = table["sh"].combine_chunks()
        doc_rows = np.flatnonzero(is_doc)
        need = np.flatnonzero(~is_doc)
        if len(need) == 0 or len(d_ids) == 0:
            return pa.table(
                {
                    "pa_id": pa.array([], pa.int64()),
                    "pb_id": pa.array([], pa.int64()),
                    "side": pa.array([], pa.int8()),
                    "sh": pa.array([], pa.list_(pa.string())),
                }
            )
        pos = np.searchsorted(d_ids[order], doc[need])
        pos = np.clip(pos, 0, len(d_ids) - 1)
        ok = d_ids[order][pos] == doc[need]
        src = doc_rows[order[pos[ok]]]
        keep = need[ok]
        t_keep = table.take(pa.array(keep))
        return pa.table(
            {
                "pa_id": t_keep["pa_id"],
                "pb_id": t_keep["pb_id"],
                "side": t_keep["side"],
                "sh": sh_col.take(pa.array(src)),
            }
        )

    attached = map_partitions_by_key(union1, "doc", _attach)

    def _verify(table: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "a_id": pa.array([], pa.int64()),
                "b_id": pa.array([], pa.int64()),
                "jaccard": pa.array([], pa.float64()),
            }
        )
        if table.num_rows == 0:
            return empty
        t = table.take(
            pc.sort_indices(
                table,
                sort_keys=[("pa_id", "ascending"), ("pb_id", "ascending"), ("side", "ascending")],
            )
        )
        a = t["pa_id"].to_numpy()
        b = t["pb_id"].to_numpy()
        side = t["side"].to_numpy()
        sets = t["sh"].to_pylist()
        starts = np.flatnonzero(
            np.concatenate([[True], (a[1:] != a[:-1]) | (b[1:] != b[:-1])])
        )
        ends = np.concatenate([starts[1:], [len(a)]])
        a_out, b_out, j_out = [], [], []
        for s, e in zip(starts, ends):
            # duplicate candidates (same pair proposed by several bands /
            # batches) make >2 rows per group: use the first row of each
            # side; a group missing a side (doc had no shingles) drops
            grp = side[s:e]
            has0 = np.flatnonzero(grp == 0)
            has1 = np.flatnonzero(grp == 1)
            if len(has0) == 0 or len(has1) == 0:
                continue
            sa, sb = set(sets[s + has0[0]]), set(sets[s + has1[0]])
            union = len(sa | sb)
            jac = len(sa & sb) / union if union else 1.0
            if jac >= threshold:
                a_out.append(int(a[s]))
                b_out.append(int(b[s]))
                j_out.append(jac)
        if not a_out:
            return empty
        return pa.table(
            {
                "a_id": pa.array(a_out, pa.int64()),
                "b_id": pa.array(b_out, pa.int64()),
                "jaccard": pa.array(j_out, pa.float64()),
            }
        )

    return map_partitions_by_key(attached, ["pa_id", "pb_id"], _verify)


class SimHasher:
    """Actor-pool stage computing 64-bit SimHash per document —
    vectorized over the whole batch (Arrow tokenizer + FNV hashing +
    segmented bit votes; see tx.simhash64_batch)."""

    def __init__(self, text_col: str, id_col: str):
        self.text_col = text_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                self.id_col: batch[self.id_col],
                "simhash": pa.array(tx.simhash64_batch(batch[self.text_col])),
            }
        )


def simhash_table(ds: "ray.data.Dataset", text_col: str, id_col: str, concurrency: int = 4) -> "ray.data.Dataset":
    return ds.map_batches(SimHasher(text_col, id_col), batch_format="pyarrow", concurrency=concurrency)


def simhash_pairs(
    ds: "ray.data.Dataset",
    text_col: str,
    id_col: str,
    max_hamming: int = 3,
    bucket_cap: int = DEFAULT_BUCKET_CAP,
) -> "ray.data.Dataset":
    """Near-dup pairs by SimHash: band on 4x16-bit chunks (any pair within
    hamming<=3 of a 64-bit hash shares at least one exact 16-bit chunk),
    verify hamming distance in-bucket.  Buckets over ``bucket_cap`` are
    dropped with a logged count — heavily-duplicated corpora land exactly
    there, so callers can raise the cap to recover those pairs."""
    sims = simhash_table(ds, text_col, id_col)

    def _explode(batch: pa.Table) -> pa.Table:
        h = batch["simhash"].to_numpy().astype(np.uint64)
        ids = batch[id_col].to_numpy()
        out_id, out_chunk, out_key, out_h = [], [], [], []
        for c in range(4):
            chunk = (h >> np.uint64(16 * c)) & np.uint64(0xFFFF)
            out_id.append(ids)
            out_chunk.append(np.full(len(h), c, dtype=np.int64))
            out_key.append(chunk.astype(np.int64) * 4 + c)
            out_h.append(h)
        return pa.table(
            {
                id_col: pa.array(np.concatenate(out_id), pa.int64()),
                "bucket": pa.array(np.concatenate(out_key), pa.int64()),
                "simhash": pa.array(np.concatenate(out_h).astype(np.int64)),
            }
        )

    def kernel(table: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "a_id": pa.array([], pa.int64()),
                "b_id": pa.array([], pa.int64()),
                "hamming": pa.array([], pa.int64()),
            }
        )
        if table.num_rows == 0:
            return empty
        t = table.take(
            pc.sort_indices(table, sort_keys=[("bucket", "ascending"), (id_col, "ascending")])
        )
        ids = t[id_col].to_numpy()
        bk = t["bucket"].to_numpy()
        hs = t["simhash"].to_numpy().astype(np.uint64)
        starts = np.flatnonzero(np.concatenate([[True], bk[1:] != bk[:-1]]))
        ends = np.concatenate([starts[1:], [len(ids)]])
        a_out, b_out, d_out = [], [], []
        dropped = 0
        for s, e in zip(starts, ends):
            if e - s < 2:
                continue
            if e - s > bucket_cap:
                dropped += 1
                continue
            ids_b, first = np.unique(ids[s:e], return_index=True)
            if len(ids_b) < 2:
                continue
            hu = hs[s:e][first]
            x = hu[:, None] ^ hu[None, :]  # (b, b) uint64
            # vectorized popcount: view as bytes, unpack bits, sum
            ham = np.unpackbits(x.view(np.uint8).reshape(len(ids_b), len(ids_b), 8), axis=2).sum(axis=2)
            iu = np.triu_indices(len(ids_b), 1)
            d = ham[iu]
            m = d <= max_hamming
            a_out.append(ids_b[iu[0][m]])
            b_out.append(ids_b[iu[1][m]])
            d_out.append(d[m].astype(np.int64))
        if dropped:
            logger.warning("simhash_pairs: dropped %d oversize buckets (> %d)", dropped, bucket_cap)
        if not a_out:
            return empty
        return pa.table(
            {
                "a_id": pa.array(np.concatenate(a_out), pa.int64()),
                "b_id": pa.array(np.concatenate(b_out), pa.int64()),
                "hamming": pa.array(np.concatenate(d_out), pa.int64()),
            }
        )

    pairs = map_partitions_by_key(
        sims.map_batches(_explode, batch_format="pyarrow"), "bucket", kernel
    )
    return _dedup_pairs(pairs, "hamming")


class ShingleMultiAnchor:
    """Actor-pool stage: per-doc DISTINCT k-token shingle set emitted
    once per ANCHOR, where the anchors are the ``n_anchors`` smallest
    distinct shingles — multi-probe blocking for the ASYMMETRIC
    containment measure.  A subset-duplicate pair (A ⊂ B) often
    disagrees on the single min shingle (B's extra shingles can win the
    lexicographic min), so one-anchor blocking has a recall hole exactly
    on the pairs containment exists to catch; probing the j smallest
    shingles means the pair co-blocks whenever ANY of A's first
    ``n_anchors`` shingles is among B's first ``n_anchors`` (in
    particular always when A's min survives in B).  Exchange payload is
    ≤ ``n_anchors``× the one-anchor payload — bounded, and still
    sets-not-text.  `ShingleAnchor` is the ``n_anchors=1`` case, so the
    tokenization / short-doc / empty-doc rules are shared by
    construction and the SQL oracles reproduce the blocks with
    ``list_min(sh)`` / ``list_sort(sh)[1:n]`` + unnest."""

    def __init__(self, text_col: str, id_col: str, k: int = 3, n_anchors: int = 2):
        self.text_col = text_col
        self.id_col = id_col
        self.k = k
        self.n_anchors = n_anchors

    def __call__(self, batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                self.id_col: pa.array([], pa.int64()),
                "anchor": pa.array([], pa.string()),
                "sh": pa.array([], pa.list_(pa.string())),
            }
        )
        ids = batch[self.id_col].to_numpy()
        sh, docs, _ = _shingle_arrays(batch[self.text_col], self.k)
        if len(sh) == 0:
            return empty
        df = pd.DataFrame({"d": docs, "s": sh}).drop_duplicates()
        df = df.sort_values(["d", "s"], kind="mergesort")
        d2 = df["d"].to_numpy()
        s2 = df["s"].to_numpy()
        seg = np.flatnonzero(np.concatenate([[True], d2[1:] != d2[:-1]]))
        counts = np.diff(np.concatenate([seg, [len(d2)]]))
        offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        sh_col = pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()), pa.array(s2.tolist(), pa.string())
        )
        doc_ids = pa.array(ids[d2[seg]], pa.int64())
        # anchor j per doc = j-th smallest distinct shingle (segments are
        # sorted); docs with fewer shingles than n_anchors emit fewer rows
        parts = []
        base = pa.table({self.id_col: doc_ids, "sh": sh_col})
        for j in range(self.n_anchors):
            has = counts > j
            if not has.any():
                break
            t = base.filter(pa.array(has))
            anchors = s2[seg[has] + j]
            parts.append(
                pa.table(
                    {
                        self.id_col: t[self.id_col],
                        "anchor": pa.array(anchors.tolist(), pa.string()),
                        "sh": t["sh"],
                    }
                )
            )
        return pa.concat_tables(parts) if parts else empty


class ShingleAnchor(ShingleMultiAnchor):
    """Actor-pool stage: per-doc DISTINCT k-token shingle set + anchor
    (lexicographic min shingle) — the blocking key for exact n-gram
    Jaccard.  Near-identical docs share their min shingle with high
    probability, and the blocking rule is deterministic on both engine
    and SQL sides, so the pair output is oracle-checkable.  Exactly
    `ShingleMultiAnchor` with one anchor per doc."""

    def __init__(self, text_col: str, id_col: str, k: int = 3):
        super().__init__(text_col, id_col, k, n_anchors=1)


def _anchor_block_pairs_kernel(
    id_col: str,
    metric: str,
    threshold: float,
    bucket_cap: "int | None",
):
    """Shared CSR-style in-block pair verifier for anchor-blocked set
    similarity: sort by (anchor, id), dictionary-encode shingles per
    block, generate co-occurrence pair keys per shingle segment, count
    intersections for ALL pairs in one ``np.unique`` — then apply the
    ``metric``: ``jaccard`` = inter / (|A|+|B|-inter), kept when
    STRICTLY above ``threshold``; ``containment`` = inter / min(|A|,|B|)
    (Broder's asymmetric measure), kept when >= ``threshold``.  Returns
    a kernel usable both per keyed partition and once in-process."""
    out_col = metric

    empty = pa.table(
        {
            "a_id": pa.array([], pa.int64()),
            "b_id": pa.array([], pa.int64()),
            out_col: pa.array([], pa.float64()),
        }
    )

    def kernel(table: pa.Table) -> pa.Table:
        if table.num_rows == 0:
            return empty
        t = table.take(
            pc.sort_indices(table, sort_keys=[("anchor", "ascending"), (id_col, "ascending")])
        )
        ids = t[id_col].to_numpy()
        anchors = t["anchor"].to_numpy(zero_copy_only=False)
        sh_col = t["sh"].combine_chunks()
        offsets = sh_col.offsets.to_numpy().astype(np.int64)
        flat = sh_col.values.to_numpy(zero_copy_only=False)
        starts = np.flatnonzero(np.concatenate([[True], anchors[1:] != anchors[:-1]]))
        ends = np.concatenate([starts[1:], [len(ids)]])
        a_out, b_out, v_out = [], [], []
        dropped = 0
        for s, e in zip(starts, ends):
            b = e - s
            if b < 2:
                continue
            if bucket_cap is not None and b > bucket_cap:
                dropped += 1
                continue
            sz = offsets[s + 1 : e + 1] - offsets[s:e]  # distinct-shingle count per doc
            doc_of = np.repeat(np.arange(b, dtype=np.int64), sz)
            _, sid = np.unique(flat[offsets[s] : offsets[e]], return_inverse=True)
            order = np.argsort(sid, kind="stable")
            sid_s, doc_s = sid[order], doc_of[order]
            seg = np.flatnonzero(np.concatenate([[True], sid_s[1:] != sid_s[:-1]]))
            seg_end = np.concatenate([seg[1:], [len(sid_s)]])
            keys = []
            for ss, ee in zip(seg, seg_end):
                L = ee - ss
                if L < 2:
                    continue
                dl = np.sort(doc_s[ss:ee])
                ii, jj = np.triu_indices(L, 1)
                keys.append(dl[ii] * b + dl[jj])
            if not keys:
                continue
            pk, inter = np.unique(np.concatenate(keys), return_counts=True)
            i, j = pk // b, pk % b
            if metric == "jaccard":
                union = sz[i] + sz[j] - inter
                val = np.where(union > 0, inter / np.maximum(union, 1), 1.0)
                m = val > threshold
            else:  # containment: min size >= 1 always, direct division
                val = inter / np.minimum(sz[i], sz[j])
                m = val >= threshold
            a_out.append(ids[s + i[m]])
            b_out.append(ids[s + j[m]])
            v_out.append(val[m])
        if dropped:
            logger.warning(
                "%s pairs: dropped %d oversize blocks (> %d)", metric, dropped, bucket_cap
            )
        if not a_out:
            return empty
        return pa.table(
            {
                "a_id": pa.array(np.concatenate(a_out), pa.int64()),
                "b_id": pa.array(np.concatenate(b_out), pa.int64()),
                out_col: pa.array(np.concatenate(v_out), pa.float64()),
            }
        )

    return kernel, empty


def anchor_jaccard_pairs(
    ds: "ray.data.Dataset",
    text_col: str,
    id_col: str,
    shingle_k: int = 3,
    threshold: float = 0.3,
    concurrency: int = 4,
    bucket_cap: "int | None" = None,
    coalesce: bool = False,
) -> "ray.data.Dataset":
    """Exact n-gram-Jaccard near-dup pairs within anchor blocks: ONE
    shuffle on the anchor key, shingle SETS (never text) cross the wire,
    all-pairs verification inside blocks.  Replaces the round-1
    broadcast-the-whole-corpus verify (a driver-side materialization).

    ``coalesce=True`` runs the identical kernel once in-process instead
    of through the keyed exchange — for CANDIDATE-SIZED corpora where
    the exchange's ~1-1.5s fixed cost dwarfs the kernel (same rule as
    `_dedup_pairs`); callers gate it on a metadata-only row count, so
    the at-scale path never materializes.

    ``bucket_cap`` defaults to None (NO cap): this operator is exact and
    SQL-oracled, and a cap would silently drop pairs the oracle computes.
    Pass a cap only for uncurated corpora where mass-duplicate anchors
    are expected AND oracle parity is not required (run exact dedup
    first instead where possible).

    In-block verify is CSR-style, not per-pair Python set ops: shingles
    are dictionary-encoded per block, co-occurrence pair keys are
    generated per shingle segment and counted in one ``np.unique`` —
    intersection sizes for ALL pairs at once; union = |A| + |B| - inter.
    A mass-duplicate anchor block stays O(b^2) pairs (that IS the exact
    operator's output complexity) but runs at numpy speed."""
    sk = ds.map_batches(
        ShingleAnchor(text_col, id_col, shingle_k),
        batch_format="pyarrow",
        concurrency=concurrency,
    )
    kernel, empty = _anchor_block_pairs_kernel(id_col, "jaccard", threshold, bucket_cap)

    if coalesce:
        import ray as _ray

        import ray.data as _rd

        tables = [
            t
            for t in _ray.get(sk.to_arrow_refs())
            if t.num_rows  # empty Ray blocks can carry a FIELDLESS schema
        ]
        if not tables:
            return _rd.from_arrow(empty)
        return _rd.from_arrow(kernel(pa.concat_tables(tables)))
    return map_partitions_by_key(sk, "anchor", kernel)


def anchor_containment_pairs(
    ds: "ray.data.Dataset",
    text_col: str,
    id_col: str,
    shingle_k: int = 3,
    threshold: float = 0.8,
    concurrency: int = 4,
    n_anchors: int = 2,
    bucket_cap: "int | None" = None,
    coalesce: bool = False,
) -> "ray.data.Dataset":
    """Exact n-gram CONTAINMENT near-dup pairs — Broder's asymmetric
    resemblance companion: ``|A ∩ B| / min(|A|, |B|)``.  Symmetric
    Jaccard misses subset-duplicates (a doc embedded verbatim inside a
    much longer one has Jaccard ≈ |A|/|B| → 0 but containment = 1);
    this is the measure an LLM-training dedup pass needs for
    quote/boilerplate/prefix duplication (Broder 1997, "On the
    resemblance and containment of documents").

    Same shape as `anchor_jaccard_pairs` (reference parity:
    the blocked verify mirrors how `utilities/Answer.java`-style result
    lists are verified against exact distances): multi-anchor blocking
    (`ShingleMultiAnchor`, ``n_anchors`` smallest shingles per doc) →
    ONE keyed exchange of shingle SETS → CSR co-occurrence verify inside
    blocks → `_dedup_pairs` first-per-(a,b) pass to collapse pairs found
    under more than one shared anchor (containment is deterministic per
    pair, so which copy survives is value-identical).

    ``coalesce=True`` runs both kernels in-process for candidate-sized
    corpora (gated by callers on a metadata-only row count; the
    distributed plan is the same code, flipped in the scale rehearsal).
    Within any one anchor block ids are unique (a doc's two anchors are
    distinct shingles), so the CSR verifier's pair keys are well-formed;
    ``bucket_cap`` follows `anchor_jaccard_pairs`' contract (None = exact
    + oracle parity; set it only for uncurated corpora)."""
    sk = ds.map_batches(
        ShingleMultiAnchor(text_col, id_col, shingle_k, n_anchors),
        batch_format="pyarrow",
        concurrency=concurrency,
    )
    kernel, empty = _anchor_block_pairs_kernel(
        id_col, "containment", threshold, bucket_cap
    )

    if coalesce:
        import ray as _ray

        import ray.data as _rd

        tables = [
            t
            for t in _ray.get(sk.to_arrow_refs())
            if t.num_rows  # empty Ray blocks can carry a FIELDLESS schema
        ]
        if not tables:
            return _rd.from_arrow(empty)
        raw = kernel(pa.concat_tables(tables))
        if raw.num_rows == 0:
            return _rd.from_arrow(empty)
        # in-process first-per-(a,b): same tie rule as _dedup_pairs
        return _rd.from_arrow(_first_per_pair_block(raw, "containment"))
    pairs = map_partitions_by_key(sk, "anchor", kernel)
    return _dedup_pairs(pairs, "containment")


class TextAnchor:
    """Actor-pool stage: (id, anchor, text) — ShingleAnchor's min-shingle
    blocking key WITHOUT the shingle-set payload, for verifiers (edit
    distance) that need the raw strings co-located in the block rather
    than a set sketch.  Tokenization, short-doc rule, and the empty-doc
    drop are byte-identical to ShingleAnchor so the SQL oracle's
    ``list_min(sh)`` blocking reproduces the same blocks."""

    def __init__(self, text_col: str, id_col: str, k: int = 3):
        self.text_col = text_col
        self.id_col = id_col
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                self.id_col: pa.array([], pa.int64()),
                "anchor": pa.array([], pa.string()),
                self.text_col: pa.array([], pa.string()),
            }
        )
        ids = batch[self.id_col].to_numpy()
        sh, docs, _ = _shingle_arrays(batch[self.text_col], self.k)
        if len(sh) == 0:
            return empty
        df = pd.DataFrame({"d": docs, "s": sh}).sort_values(
            ["d", "s"], kind="mergesort"
        )
        d2 = df["d"].to_numpy()
        s2 = df["s"].to_numpy()
        seg = np.flatnonzero(np.concatenate([[True], d2[1:] != d2[:-1]]))
        keep = d2[seg]
        return pa.table(
            {
                self.id_col: pa.array(ids[keep], pa.int64()),
                "anchor": pa.array(s2[seg].tolist(), pa.string()),
                self.text_col: batch[self.text_col].take(pa.array(keep, pa.int64())),
            }
        )


def anchor_editdist_pairs(
    ds: "ray.data.Dataset",
    text_col: str,
    id_col: str,
    shingle_k: int = 3,
    max_dist: int = 16,
    concurrency: int = 4,
    coalesce: bool = False,
) -> "ray.data.Dataset":
    """Edit-distance (Levenshtein) near-dup pairs within anchor blocks —
    the string-METRIC member of the near-dup family (exact char-level
    edit budget, where minhash/jaccard/simhash measure set overlap).

    Raw TEXT crosses the ONE anchor shuffle: unlike Jaccard there is no
    sketch that preserves edit distance, so the verifier needs the
    strings co-located (documented partitioning assumption; blocks are
    min-shingle anchors, so block size tracks near-dup cluster size, not
    corpus size).  In-block verify is all pairs i<j with the length
    prefilter |len(a)-len(b)| <= max_dist, then the VECTORIZED banded
    Ukkonen DP over the whole pair batch at once
    (`functions/editdist.py` — no per-pair Python DP).  Output rows are
    (a_id, b_id, edit_distance) with distance <= max_dist, a_id < b_id.

    ``coalesce=True`` runs the identical kernel once in-process for
    candidate-sized corpora (same gate discipline as
    ``anchor_jaccard_pairs``)."""
    from multimedia_indexing_ray.functions.editdist import (
        banded_levenshtein_pairs,
        utf8_codes,
    )

    ank = ds.map_batches(
        TextAnchor(text_col, id_col, shingle_k),
        batch_format="pyarrow",
        concurrency=concurrency,
    )

    def kernel(table: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "a_id": pa.array([], pa.int64()),
                "b_id": pa.array([], pa.int64()),
                "edit_distance": pa.array([], pa.int64()),
            }
        )
        if table.num_rows == 0:
            return empty
        t = table.take(
            pc.sort_indices(
                table, sort_keys=[("anchor", "ascending"), (id_col, "ascending")]
            )
        )
        ids = t[id_col].to_numpy()
        anchors = t["anchor"].to_numpy(zero_copy_only=False)
        texts = t[text_col].to_pylist()
        cps = [utf8_codes(s) for s in texts]
        starts = np.flatnonzero(np.concatenate([[True], anchors[1:] != anchors[:-1]]))
        ends = np.concatenate([starts[1:], [len(ids)]])
        # pair generation is LENGTH-WINDOWED, not triu over the block:
        # |len(a)-len(b)| > K pairs can never pass the verify, so a block
        # of mutually-distant docs (spread lengths) generates ~0 pairs
        # instead of b^2/2 index entries.  A block of same-length true
        # duplicates still yields O(b^2) pairs — that IS the exact
        # operator's output (same caveat as anchor_jaccard_pairs).
        blens = np.fromiter((len(c) for c in cps), np.int64, len(cps))
        ai_parts, bi_parts = [], []
        for s, e in zip(starts, ends):
            b = e - s
            if b < 2:
                continue
            ordl = s + np.argsort(blens[s:e], kind="stable")
            ls = blens[ordl]
            cnt = np.searchsorted(ls, ls + max_dist, side="right") - np.arange(b) - 1
            np.maximum(cnt, 0, out=cnt)
            tot = int(cnt.sum())
            if tot == 0:
                continue
            p_of = np.repeat(np.arange(b), cnt)
            offs = np.concatenate([[0], np.cumsum(cnt)[:-1]])
            q_of = np.arange(tot) - np.repeat(offs, cnt) + p_of + 1
            i_idx = ordl[p_of]
            j_idx = ordl[q_of]
            ai_parts.append(np.minimum(i_idx, j_idx))  # rows sorted by id
            bi_parts.append(np.maximum(i_idx, j_idx))
        if not ai_parts:
            return empty
        ai = np.concatenate(ai_parts)
        bi = np.concatenate(bi_parts)
        # identical-text short-circuit: a mass-duplicate anchor (the
        # worst case: b identical docs -> b^2/2 pairs) would otherwise
        # push every pair through the DP at full text length; byte-equal
        # pairs are distance 0 by definition.  One hash per DOC, then a
        # confirmed equality check only on hash-equal pairs.
        h = np.fromiter((hash(s) for s in texts), np.int64, len(texts))
        cand = np.flatnonzero(h[ai] == h[bi])
        conf = np.fromiter(
            (texts[ai[k]] == texts[bi[k]] for k in cand), bool, len(cand)
        )
        dist = np.full(len(ai), max_dist + 1, dtype=np.int64)
        dist[cand[conf]] = 0
        rest = np.flatnonzero(dist != 0)
        if rest.size:
            # chunk the DP so transient state (band matrix + padded text
            # planes, ~4*maxlen bytes/pair) stays bounded regardless of
            # how many pairs a partition holds
            maxlen = max(len(c) for c in cps) or 1
            chunk = max(1024, (1 << 28) // (4 * maxlen))
            for lo_i in range(0, rest.size, chunk):
                part = rest[lo_i : lo_i + chunk]
                dist[part] = banded_levenshtein_pairs(
                    [cps[i] for i in ai[part]], [cps[j] for j in bi[part]], max_dist
                )
        m = dist <= max_dist
        return pa.table(
            {
                "a_id": pa.array(ids[ai[m]], pa.int64()),
                "b_id": pa.array(ids[bi[m]], pa.int64()),
                "edit_distance": pa.array(dist[m], pa.int64()),
            }
        )

    if coalesce:
        import ray as _ray

        import ray.data as _rd

        tables = [t for t in _ray.get(ank.to_arrow_refs()) if t.num_rows]
        if not tables:
            return _rd.from_arrow(
                pa.table(
                    {
                        "a_id": pa.array([], pa.int64()),
                        "b_id": pa.array([], pa.int64()),
                        "edit_distance": pa.array([], pa.int64()),
                    }
                )
            )
        return _rd.from_arrow(kernel(pa.concat_tables(tables)))
    return map_partitions_by_key(ank, "anchor", kernel)


def embedding_neardup_pairs(
    ds: "ray.data.Dataset",
    vec_col: str,
    id_col: str,
    block_col: str,
    threshold: float = 0.95,
) -> "ray.data.Dataset":
    """Near-duplicate pairs by embedding cosine within a blocking key
    (e.g. label or LSH bucket): all-pairs cosine per block, vectorized."""

    def kernel(table: pa.Table) -> pa.Table:
        # a hash partition may hold several blocks — group per block value
        t = table.take(
            pc.sort_indices(table, sort_keys=[(block_col, "ascending"), (id_col, "ascending")])
        )
        blocks = t[block_col].to_numpy(zero_copy_only=False)
        ids_all = t[id_col].to_numpy()
        mat_all = np.stack([np.asarray(v, dtype=np.float64) for v in t[vec_col].to_pylist()])
        a_out, b_out = [], []
        bstarts = np.concatenate(
            [[0], np.flatnonzero(blocks[1:] != blocks[:-1]) + 1, [len(blocks)]]
        )
        for s, e in zip(bstarts[:-1], bstarts[1:]):
            ids, mat = ids_all[s:e], mat_all[s:e]
            norms = np.linalg.norm(mat, axis=1, keepdims=True)
            norms[norms == 0] = 1.0
            unit = mat / norms
            sims = unit @ unit.T
            iu = np.triu_indices(len(ids), k=1)
            mask = sims[iu] > threshold
            a_out.append(ids[iu[0][mask]])
            b_out.append(ids[iu[1][mask]])
        a = np.concatenate(a_out) if a_out else np.empty(0, np.int64)
        b = np.concatenate(b_out) if b_out else np.empty(0, np.int64)
        return pa.table({"a_id": pa.array(a, pa.int64()), "b_id": pa.array(b, pa.int64())})

    return map_partitions_by_key(ds, block_col, kernel)


class SrpBander:
    """Actor-pool stage: signed-random-projection LSH bands for an
    embedding column.  `n_bands` bands of `bits_per_band` hyperplane
    signs each; two vectors collide in a band with probability
    (1 - theta/pi)^bits — near-dups (small angle) collide in >= 1 band
    w.h.p.  Projection matrix is seeded actor state (built once)."""

    def __init__(self, vec_col: str, id_col: str, dim: int, n_bands: int = 4,
                 bits_per_band: int = 4, seed: int = 1):
        self.vec_col = vec_col
        self.id_col = id_col
        self.n_bands = n_bands
        self.bits = bits_per_band
        rng = np.random.default_rng(seed)
        self.planes = rng.normal(size=(dim, n_bands * bits_per_band))

    def __call__(self, batch: pa.Table) -> pa.Table:
        mat = _batch_matrix(batch, self.vec_col)
        ids = batch[self.id_col].to_numpy()
        signs = (mat @ self.planes > 0).astype(np.int64)  # (n, bands*bits)
        weights = 1 << np.arange(self.bits, dtype=np.int64)
        codes = signs.reshape(len(ids), self.n_bands, self.bits) @ weights  # (n, bands)
        bucket = codes * self.n_bands + np.arange(self.n_bands, dtype=np.int64)[None, :]
        n = len(ids)
        return pa.table(
            {
                self.id_col: pa.array(np.repeat(ids, self.n_bands), pa.int64()),
                "bucket": pa.array(bucket.reshape(-1)),
                self.vec_col: batch[self.vec_col]
                .combine_chunks()
                .take(pa.array(np.repeat(np.arange(n, dtype=np.int64), self.n_bands))),
            }
        )


def embedding_neardup_lsh(
    ds: "ray.data.Dataset",
    vec_col: str,
    id_col: str,
    dim: int,
    threshold: float = 0.95,
    n_bands: int = 4,
    bits_per_band: int = 4,
    seed: int = 1,
    concurrency: int = 4,
    bucket_cap: int = DEFAULT_BUCKET_CAP,
) -> "ray.data.Dataset":
    """Embedding-cosine near-dup pairs blocked by SRP-LSH band buckets —
    the 100-TB path when no natural blocking key (label) exists: the only
    shuffle is on the bucket hash, all-pairs cosine runs inside bounded
    buckets (cap + logged drops), pairs deduped across bands."""
    banded = ds.map_batches(
        SrpBander(vec_col, id_col, dim, n_bands, bits_per_band, seed),
        batch_format="pyarrow",
        concurrency=concurrency,
    )

    def kernel(table: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "a_id": pa.array([], pa.int64()),
                "b_id": pa.array([], pa.int64()),
                "cos_sim": pa.array([], pa.float64()),
            }
        )
        if table.num_rows == 0:
            return empty
        t = table.take(
            pc.sort_indices(table, sort_keys=[("bucket", "ascending"), (id_col, "ascending")])
        )
        ids = t[id_col].to_numpy()
        bk = t["bucket"].to_numpy()
        mat = _batch_matrix(t, vec_col)
        starts = np.flatnonzero(np.concatenate([[True], bk[1:] != bk[:-1]]))
        ends = np.concatenate([starts[1:], [len(ids)]])
        a_out, b_out, s_out = [], [], []
        dropped = 0
        for s, e in zip(starts, ends):
            if e - s < 2:
                continue
            if e - s > bucket_cap:
                dropped += 1
                continue
            ids_b, first = np.unique(ids[s:e], return_index=True)
            if len(ids_b) < 2:
                continue
            unit = _unit(mat[s:e][first])
            sims = unit @ unit.T
            iu = np.triu_indices(len(ids_b), 1)
            sv = sims[iu]
            m = sv > threshold
            a_out.append(ids_b[iu[0][m]])
            b_out.append(ids_b[iu[1][m]])
            s_out.append(sv[m])
        if dropped:
            logger.warning("embedding_neardup_lsh: dropped %d oversize buckets (> %d)", dropped, bucket_cap)
        if not a_out:
            return empty
        return pa.table(
            {
                "a_id": pa.array(np.concatenate(a_out), pa.int64()),
                "b_id": pa.array(np.concatenate(b_out), pa.int64()),
                "cos_sim": pa.array(np.concatenate(s_out), pa.float64()),
            }
        )

    pairs = map_partitions_by_key(banded, "bucket", kernel)
    return _dedup_pairs(pairs, "cos_sim")
