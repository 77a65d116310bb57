"""Similarity search over an embedding column.

The Ray re-expression of the reference's search structures:

- ``brute_force_knn`` = the Linear exhaustive scan
  (`visual/datastructures/Linear.java:138-163`): broadcast query matrix
  (ray.put once), per-batch vectorized cosine, per-batch partial top-k,
  then a tiny global merge — the BoundedPriorityQueue+early-abandon loop
  becomes one numpy matmul + argpartition per batch.
- ``ivf_knn`` = the IVFPQ coarse-partition probe
  (`visual/datastructures/IVFPQ.java:93-97,408-450`): k-means coarse
  centroids fit on a driver-side sample, batches filtered to the probed
  lists per query before the exact scan (the scale path: scan cost drops
  by ~num_lists/probe_width).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from multimedia_indexing_ray.functions import segments as sg
from multimedia_indexing_ray.stages.keyed import keyed_scan


def _unit(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return mat / norms


def _batch_matrix(table: pa.Table, vec_col: str) -> np.ndarray:
    col = table[vec_col].combine_chunks()
    if pa.types.is_fixed_size_list(col.type):
        dim = col.type.list_size
        return col.flatten().to_numpy(zero_copy_only=False).reshape(-1, dim).astype(np.float64)
    if (
        (pa.types.is_list(col.type) or pa.types.is_large_list(col.type))
        and col.null_count == 0
        and len(col)
    ):
        lens = np.diff(col.offsets.to_numpy())
        if (lens == lens[0]).all() and lens[0] > 0:
            # uniform-length list column: zero-copy flatten + reshape
            # instead of a per-row to_pylist loop
            return (
                col.flatten()
                .to_numpy(zero_copy_only=False)
                .reshape(-1, int(lens[0]))
                .astype(np.float64)
            )
    return np.stack([np.asarray(v, dtype=np.float64) for v in col.to_pylist()])


def topk_rows(qi, ids, key, k):
    """Per-query partial top-k over a (nq, n) key matrix (smaller =
    better; np.inf = excluded).  One argpartition for the whole query
    batch, then an EXACT (key, id) tie-rule lexsort restricted to each
    row's <= k-ish boundary-tied survivors — never a per-query
    full-batch rescan/sort."""
    out_q, out_n, out_s = [], [], []
    n = key.shape[1]
    if n == 0 or len(qi) == 0:
        return out_q, out_n, out_s
    kk = min(k, n)
    # NaN (corrupt vector) sorts as +inf: without this a NaN landing in
    # the argpartition slice makes thresh NaN and the <= mask all-False,
    # silently dropping every finite candidate for that query
    key = np.where(np.isnan(key), np.inf, key)
    part = np.argpartition(key, kk - 1, axis=1)[:, :kk]
    thresh = np.take_along_axis(key, part, axis=1).max(axis=1)  # worst kept
    for row in range(len(qi)):
        # boundary ties included so the (key, id) rule picks the same
        # winners as a full sort; rows with < kk finite entries get
        # thresh = inf and fall back to every finite candidate
        cand = np.flatnonzero(np.isfinite(key[row]) & (key[row] <= thresh[row]))
        if len(cand) == 0:
            continue
        kr = min(k, len(cand))
        order = np.lexsort((ids[cand], key[row, cand]))[:kr]
        top = cand[order]
        out_q.append(np.full(kr, qi[row], dtype=np.int64))
        out_n.append(ids[top])
        out_s.append(key[row, top])
    return out_q, out_n, out_s


def _pack_candidates(out_q, out_n, out_s, score_col: str, negate: bool = False) -> pa.Table:
    if not out_q:
        return pa.table(
            {
                "query_id": pa.array([], pa.int64()),
                "neighbor_id": pa.array([], pa.int64()),
                score_col: pa.array([], pa.float64()),
            }
        )
    sc = np.concatenate(out_s)
    return pa.table(
        {
            "query_id": pa.array(np.concatenate(out_q), pa.int64()),
            "neighbor_id": pa.array(np.concatenate(out_n), pa.int64()),
            score_col: pa.array(-sc if negate else sc, pa.float64()),
        }
    )


def topk_merge(
    candidates: "ray.data.Dataset", k: int, score_col: str, ascending: bool
) -> "ray.data.Dataset":
    """Tiny global merge of per-batch partial top-k candidates into the
    final (query_id, neighbor_id, rank) — the BoundedPriorityQueue drain
    (`visual/utilities/Answer.java:8-60`): one `keyed_scan` on query_id
    ordered by score, then neighbor_id (the per-batch partials' tie
    rule), keeping each query's first k rows."""

    def _order(batch: pa.Table) -> pa.Table:
        s = batch[score_col]
        return batch.append_column("__s", s if ascending else pc.negate(s))

    def _first_k(t: pa.Table, starts: np.ndarray) -> pa.Table:
        pos = sg.rel_index(starts, t.num_rows)
        keep = pos < k
        return pa.table(
            {
                "query_id": t["query_id"].to_numpy()[keep],
                "neighbor_id": t["neighbor_id"].to_numpy()[keep],
                "rank": pos[keep] + 1,
            }
        )

    return keyed_scan(
        candidates.map_batches(_order, batch_format="pyarrow"),
        "query_id",
        ["__s", "neighbor_id"],
        _first_k,
    )


def brute_force_knn(
    ds: "ray.data.Dataset",
    queries: "Tuple[np.ndarray, np.ndarray]",
    vec_col: str,
    id_col: str,
    k: int = 5,
    exclude_self: bool = True,
) -> "ray.data.Dataset":
    """Exact top-k cosine neighbours for each query.

    queries: (query_ids int64 array, query matrix [nq, d]).
    Output: (query_id, neighbor_id, rank) with rank 1..k, ordered by
    cosine desc then neighbor_id asc (fixed tie rule)."""
    q_ids, q_mat = queries
    q_ref = ray.put((np.asarray(q_ids, dtype=np.int64), _unit(np.asarray(q_mat, dtype=np.float64))))

    def _partial(batch: pa.Table) -> pa.Table:
        qi, qm = ray.get(q_ref)
        mat = _unit(_batch_matrix(batch, vec_col))
        ids = batch[id_col].to_numpy()
        # deterministic tie rule (cos desc, id asc) holds at the batch
        # boundary too (topk_rows keeps boundary-tied survivors), else a
        # tied lower-id neighbor could be dropped before the global merge
        key = -(qm @ mat.T)  # smaller = better
        if exclude_self:
            key[qi[:, None] == ids[None, :]] = np.inf
        return _pack_candidates(*topk_rows(qi, ids, key, k), "cos_sim", negate=True)

    candidates = ds.map_batches(_partial, batch_format="pyarrow")
    return topk_merge(candidates, k, "cos_sim", ascending=False)


def kmeans_fit(
    sample: np.ndarray, n_clusters: int, seed: int = 1, iters: int = 20, repeats: int = 3
) -> np.ndarray:
    """Seeded kmeans++ Lloyd with best-of-`repeats` by SSE on a driver-side
    sample — the coarse-quantizer learning analog
    (`visual/quantization/CoarseQuantizerLearning.java:39-72` +
    `AbstractQuantizerLearning.java:39-81`: Weka SimpleKMeans, kmeans++
    option, fixed seed, best of numKmeansRepeats).  Delegates to the
    single Lloyd implementation in functions/pq.py (no sentinel padding
    for the coarse quantizer)."""
    from multimedia_indexing_ray.functions.pq import _kmeans

    smp = np.asarray(sample, dtype=np.float64)
    best = None
    for r in range(repeats):
        cent, sse = _kmeans(smp, n_clusters, seed + 7 * r, iters, pad_sentinel=False)
        if best is None or sse < best[1]:
            best = (cent, sse)
    return best[0]


def ivf_knn(
    ds: "ray.data.Dataset",
    queries: "Tuple[np.ndarray, np.ndarray]",
    vec_col: str,
    id_col: str,
    k: int = 5,
    n_lists: int = 16,
    probe: int = 4,
    sample_size: int = 2048,
    seed: int = 1,
    exclude_self: bool = True,
) -> "ray.data.Dataset":
    """Approximate top-k: coarse k-means lists, probe `probe` nearest
    lists per query, exact cosine inside the probed subset.

    Default probe width mirrors the reference's w = 10%..25% of lists
    (`visual/datastructures/IVFPQ.java:188`)."""
    q_ids, q_mat = queries
    sample = []
    for batch in ds.iter_batches(batch_size=sample_size, batch_format="pyarrow"):
        sample.append(_batch_matrix(batch, vec_col))
        if sum(len(s) for s in sample) >= sample_size:
            break
    cent = kmeans_fit(np.concatenate(sample)[:sample_size], n_lists, seed)
    qm = np.asarray(q_mat, dtype=np.float64)
    qd = ((qm[:, None, :] - cent[None, :, :]) ** 2).sum(axis=2)
    probed = np.argsort(qd, axis=1)[:, :probe]  # (nq, probe)
    ref = ray.put((np.asarray(q_ids, dtype=np.int64), _unit(qm), cent, probed))

    # (nq, n_lists) probe membership — one gather per batch, no np.isin
    n_lists_eff = cent.shape[0]
    pmask = np.zeros((len(np.asarray(q_ids)), n_lists_eff), dtype=bool)
    np.put_along_axis(pmask, probed, True, axis=1)
    ref2 = ray.put(pmask)

    def _partial(batch: pa.Table) -> pa.Table:
        qi, qmu, cc, pr = ray.get(ref)
        pm = ray.get(ref2)
        mat = _batch_matrix(batch, vec_col)
        ids = batch[id_col].to_numpy()
        d = ((mat[:, None, :] - cc[None, :, :]) ** 2).sum(axis=2)
        assign = d.argmin(axis=1)
        key = -(qmu @ _unit(mat).T)
        key[~pm[:, assign]] = np.inf
        if exclude_self:
            key[qi[:, None] == ids[None, :]] = np.inf
        return _pack_candidates(*topk_rows(qi, ids, key, k), "cos_sim", negate=True)

    candidates = ds.map_batches(_partial, batch_format="pyarrow")
    return topk_merge(candidates, k, "cos_sim", ascending=False)


def pq_knn(
    ds: "ray.data.Dataset",
    queries: "Tuple[np.ndarray, np.ndarray]",
    vec_col: str,
    id_col: str,
    k: int = 5,
    m: int = 8,
    ks: int = 256,
    sample_size: int = 2048,
    seed: int = 1,
    exclude_self: bool = True,
) -> "ray.data.Dataset":
    """Approximate top-k by squared L2 over PQ codes with ADC scanning —
    the PQ index analog (`visual/datastructures/PQ.java:290-322`): the
    codebook is learned on a driver-side sample, broadcast once, and each
    batch is encoded + scanned with one table-gather per query."""
    from multimedia_indexing_ray.functions import pq as pqf

    q_ids, q_mat = queries
    sample = []
    for batch in ds.iter_batches(batch_size=sample_size, batch_format="pyarrow"):
        sample.append(_batch_matrix(batch, vec_col))
        if sum(len(s) for s in sample) >= sample_size:
            break
    model = pqf.fit_pq(np.concatenate(sample)[:sample_size], m=m, ks=ks, seed=seed)
    qm = np.asarray(q_mat, dtype=np.float64)
    tables = np.stack([pqf.adc_table(q, model) for q in qm])  # (nq, m, ks)
    ref = ray.put((np.asarray(q_ids, dtype=np.int64), tables, model))

    def _partial(batch: pa.Table) -> pa.Table:
        qi, tabs, mdl = ray.get(ref)
        mat = _batch_matrix(batch, vec_col)
        ids = batch[id_col].to_numpy()
        codes = pqf.pq_encode(mat, mdl)
        key = pqf.adc_distances_multi(codes, tabs, mdl.ks)  # (nq, n)
        if exclude_self:
            key[qi[:, None] == ids[None, :]] = np.inf
        return _pack_candidates(*topk_rows(qi, ids, key, k), "adc_dist")

    candidates = ds.map_batches(_partial, batch_format="pyarrow")
    return topk_merge(candidates, k, "adc_dist", ascending=True)


def ivfpq_knn(
    ds: "ray.data.Dataset",
    queries: "Tuple[np.ndarray, np.ndarray]",
    vec_col: str,
    id_col: str,
    k: int = 5,
    n_lists: int = 16,
    probe: int = 4,
    m: int = 8,
    ks: int = 256,
    sample_size: int = 2048,
    seed: int = 1,
    exclude_self: bool = True,
) -> "ray.data.Dataset":
    """The reference's flagship structure re-expressed: coarse k-means
    lists + PQ over RESIDUALS (centroid - v sign convention,
    `visual/datastructures/IVFPQ.java:642-648`), query probes `probe`
    nearest lists with a per-(query, list) ADC table
    (`IVFPQ.java:408-450`)."""
    from multimedia_indexing_ray.functions import pq as pqf
    from multimedia_indexing_ray.functions.normalize import residual

    q_ids, q_mat = queries
    sample = []
    for batch in ds.iter_batches(batch_size=sample_size, batch_format="pyarrow"):
        sample.append(_batch_matrix(batch, vec_col))
        if sum(len(s) for s in sample) >= sample_size:
            break
    smp = np.concatenate(sample)[:sample_size]
    coarse = kmeans_fit(smp, n_lists, seed)
    d = ((smp[:, None, :] - coarse[None, :, :]) ** 2).sum(axis=2)
    assign = d.argmin(axis=1)
    model = pqf.fit_pq(residual(smp, coarse, assign), m=m, ks=ks, seed=seed)

    qm = np.asarray(q_mat, dtype=np.float64)
    qd = ((qm[:, None, :] - coarse[None, :, :]) ** 2).sum(axis=2)
    probed = np.argsort(qd, axis=1)[:, :probe]  # (nq, probe)
    # per (query, probed list) ADC table over the query's residual to that list
    tabs = np.stack(
        [
            np.stack([pqf.adc_table(coarse[lst] - q, model) for lst in probed[i]])
            for i, q in enumerate(qm)
        ]
    )  # (nq, probe, m, ks)
    ref = ray.put((np.asarray(q_ids, dtype=np.int64), coarse, probed, tabs, model))

    # wpos[q, l] = position of list l in query q's probe order (-1 = not
    # probed) — batch rows processed per ASSIGNED LIST with all of that
    # list's queries at once (same shape as ann_index.ann_search)
    wpos = np.full((len(np.asarray(q_ids)), n_lists), -1, dtype=np.int64)
    np.put_along_axis(wpos, probed, np.arange(probed.shape[1])[None, :], axis=1)
    ref2 = ray.put(wpos)

    def _partial(batch: pa.Table) -> pa.Table:
        qi, cc, pr, tb, mdl = ray.get(ref)
        wp = ray.get(ref2)
        mat = _batch_matrix(batch, vec_col)
        ids = batch[id_col].to_numpy()
        dd = ((mat[:, None, :] - cc[None, :, :]) ** 2).sum(axis=2)
        asn = dd.argmin(axis=1)
        codes = pqf.pq_encode(residual(mat, cc, asn), mdl)
        nq = len(qi)
        order = np.argsort(asn, kind="stable")
        asn_s = asn[order]
        starts = np.flatnonzero(np.concatenate([[True], asn_s[1:] != asn_s[:-1]]))
        ends = np.concatenate([starts[1:], [len(asn_s)]])
        key = np.full((nq, len(ids)), np.inf)
        for s, e in zip(starts, ends):
            lst = int(asn_s[s])
            rows = order[s:e]
            qs = np.flatnonzero(wp[:, lst] >= 0)
            if len(qs) == 0:
                continue
            sub = pqf.adc_distances_multi(codes[rows], tb[qs, wp[qs, lst]], mdl.ks)
            key[np.ix_(qs, rows)] = sub
        if exclude_self:
            key[qi[:, None] == ids[None, :]] = np.inf
        return _pack_candidates(*topk_rows(qi, ids, key, k), "adc_dist")

    candidates = ds.map_batches(_partial, batch_format="pyarrow")
    return topk_merge(candidates, k, "adc_dist", ascending=True)
