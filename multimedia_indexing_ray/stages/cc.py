"""Distributed connected components over near-duplicate pair sets.

The dedup finisher the reference never needed (its index keys are unique
by construction — `IndexingMT.java` skips already-indexed names) but any
100-TB corpus-dedup pipeline does: MinHash / SimHash / Jaccard stages
emit PAIRS; turning pairs into transitive duplicate CLUSTERS (and one
canonical survivor per cluster) is a connected-components problem.

Algorithm: alternating large-star / small-star (Kiveris, Lattanzi,
Mirrokni, Rastogi, Vassilvitskii — "Connected Components in MapReduce
and Beyond", SoCC 2014).  Each round is ONE hash shuffle of the EDGE
set only — the near-dup pairs, which are orders of magnitude smaller
than the corpus — and converges in O(log^2 n) rounds (2-4 in practice
for dup clusters, whose diameter is tiny).  The per-round kernel is
fully vectorized (sort + segment mins + mask emits); no Python loop
over edges.

Scale notes:
- Iteration state is only ``(u, v)`` int64 edges; each round
  materializes that slim set (required for iteration — otherwise the
  lazy lineage would re-run every prior round) and re-shuffles it.
- Attaching cluster ids back onto the corpus is one slim
  ``(id, cluster)`` exchange (`resolve_clusters`), never a broadcast of
  the corpus.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

from multimedia_indexing_ray.functions import segments as sg
from multimedia_indexing_ray.stages.partition import (
    DRIVER_EDGES,
    cluster_cpus,
    fits,
    gather,
    map_partitions_by_key,
    stable_hash,
)

_EDGE_SCHEMA = pa.schema([("u", pa.int64()), ("v", pa.int64())])


def _dedup_uv(u: np.ndarray, v: np.ndarray) -> pa.Table:
    if len(u) == 0:
        return _EDGE_SCHEMA.empty_table()
    uv = np.stack([u, v], axis=1)
    uv = np.unique(uv, axis=0)
    return pa.table({"u": uv[:, 0], "v": uv[:, 1]}, schema=_EDGE_SCHEMA)


def _segments(u: np.ndarray):
    """Sort order + segment starts for grouping by u."""
    order = np.argsort(u, kind="stable")
    su = u[order]
    starts = np.flatnonzero(np.r_[True, su[1:] != su[:-1]])
    return order, su, starts


def _seg_min(vals: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per-segment minimum, broadcast back to every row of the segment."""
    mins = np.minimum.reduceat(vals, starts)
    counts = np.diff(np.r_[starts, len(vals)])
    return np.repeat(mins, counts)


def _symmetrize(batch: pa.Table) -> pa.Table:
    """Emit both orientations BEFORE the shuffle so each node's full
    neighborhood lands in its hash partition."""
    a = batch["u"].to_numpy(zero_copy_only=False)
    b = batch["v"].to_numpy(zero_copy_only=False)
    return pa.table(
        {"u": np.concatenate([a, b]), "v": np.concatenate([b, a])},
        schema=_EDGE_SCHEMA,
    )


def _orient_max(batch: pa.Table) -> pa.Table:
    """Orient min-ward (u = max endpoint) BEFORE the shuffle — small-star
    groups by the larger endpoint."""
    a = batch["u"].to_numpy(zero_copy_only=False)
    b = batch["v"].to_numpy(zero_copy_only=False)
    return pa.table(
        {"u": np.maximum(a, b), "v": np.minimum(a, b)}, schema=_EDGE_SCHEMA
    )


def _large_star(table: pa.Table) -> pa.Table:
    """Group (pre-symmetrized) edges by u; connect every neighbor v > u
    to m = min(N(u) + {u})."""
    u = table["u"].to_numpy(zero_copy_only=False)
    v = table["v"].to_numpy(zero_copy_only=False)
    order, su, starts = _segments(u)
    sv = v[order]
    m = np.minimum(_seg_min(sv, starts), su)
    keep = sv > su
    return _dedup_uv(sv[keep], m[keep])


def _small_star(table: pa.Table) -> pa.Table:
    """Group (pre-oriented, u = max endpoint) edges by u; connect u and
    every smaller neighbor to m = min(N(u) + {u})."""
    u = table["u"].to_numpy(zero_copy_only=False)
    v = table["v"].to_numpy(zero_copy_only=False)
    order, su, starts = _segments(u)
    sv = v[order]
    m = np.minimum(_seg_min(sv, starts), su)
    keep = sv != m
    out_u = np.concatenate([sv[keep], su[starts]])
    out_m = np.concatenate([m[keep], m[starts]])
    keep2 = out_u != out_m
    return _dedup_uv(out_u[keep2], out_m[keep2])


def _fingerprint(edges: "ray.data.Dataset") -> tuple:
    """Cheap order-independent identity of the edge set: (count, sum of
    a stable per-edge hash).  Equal fingerprints across rounds ==
    converged (probabilistically; the round bound is the backstop)."""

    def _h(batch: pa.Table) -> pa.Table:
        u = batch["u"].to_numpy(zero_copy_only=False)
        v = batch["v"].to_numpy(zero_copy_only=False)
        h = stable_hash(u) * np.uint64(1000003) ^ stable_hash(v)
        s = int(h.sum(dtype=np.uint64)) & ((1 << 63) - 1)
        return pa.table({"n": [len(u)], "s": [s]})

    parts = edges.map_batches(_h, batch_format="pyarrow").take_all()
    n = sum(r["n"] for r in parts)
    s = sum(r["s"] for r in parts) % (1 << 63)
    return (n, s)


def _compact(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """Bound and densify the block structure of a slim iteration input.

    Ray 2.49's sort scheduler can DEADLOCK when an iterative union+sort
    pipeline is fed many mostly-empty input blocks (observed: a 32-block
    pair set with a handful of non-empty blocks hangs the per-round
    keyed exchanges of kcore forever, while the same edges compacted to
    a few dense blocks finish in seconds).  Every distributed graph
    kernel compacts its edge set ONCE before iterating, to one block per
    CPU of the cluster; the cost is one small repartition of the slim
    (u, v) int64 set.  Per-round state that is unioned back into the
    next round (pagerank scores, label propagation labels, kcore's alive
    set) is compacted every round: the sort exchange emits one block per
    input block, so without it the block count, and each round's task
    count, grows every round."""
    return ds.repartition(cluster_cpus()).materialize()


def _local_cc(table: pa.Table, max_rounds: int) -> pa.Table:
    """Same alternating star rounds on one in-memory table — the
    small-edge-set fast path (a few M int64 pairs is tens of MB; the
    per-round shuffle's fixed cost would dominate the work)."""
    prev = None
    for _ in range(max_rounds):
        table = _large_star(_symmetrize(table))
        table = _small_star(_orient_max(table))
        fp = (table.num_rows, hash(table["u"].to_numpy().tobytes()) ^ hash(table["v"].to_numpy().tobytes()))
        if fp == prev:
            return table
        prev = fp
    raise RuntimeError(f"connected_components did not converge in {max_rounds} rounds")


def connected_components(
    pairs: "ray.data.Dataset",
    a_col: str = "a_id",
    b_col: str = "b_id",
    max_rounds: int = 30,
) -> "ray.data.Dataset":
    """Star edges ``(u, root)`` for every non-root node of every
    component; root = min node id of the component.  Nodes that appear
    in no pair are absent (their cluster is themselves —
    `resolve_clusters` fills that in).

    Edge sets that fit ``DRIVER_EDGES`` rows (`partition.fits`) run the
    identical star rounds in one in-memory loop (near-dup pair sets are
    usually tiny relative to the corpus; per-round shuffle overhead would
    dominate); larger sets iterate distributed.  ``GRAFT_FORCE_SCALE_PLAN=1``
    forces the distributed path."""

    def _init(batch: pa.Table) -> pa.Table:
        u = batch[a_col].to_numpy(zero_copy_only=False).astype(np.int64)
        v = batch[b_col].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = u != v
        return _dedup_uv(u[keep], v[keep])

    edges = pairs.map_batches(_init, batch_format="pyarrow").materialize()
    n_edges = edges.count()
    if n_edges == 0:
        return ray.data.from_arrow(_EDGE_SCHEMA.empty_table())
    if fits(n_edges, DRIVER_EDGES):
        import ray as _ray

        local = pa.concat_tables(
            # skip empty blocks — they can carry a fieldless schema
            t.select(["u", "v"])
            for t in _ray.get(edges.to_arrow_refs())
            if t.num_rows
        ).combine_chunks()
        return ray.data.from_arrow(_local_cc(local, max_rounds))

    edges = _compact(edges)
    prev = None
    for _ in range(max_rounds):
        edges = map_partitions_by_key(
            edges.map_batches(_symmetrize, batch_format="pyarrow"),
            "u",
            _large_star,
        )
        edges = map_partitions_by_key(
            edges.map_batches(_orient_max, batch_format="pyarrow"),
            "u",
            _small_star,
        ).materialize()
        fp = _fingerprint(edges)
        if fp == prev:
            break
        prev = fp
    else:
        raise RuntimeError(f"connected_components did not converge in {max_rounds} rounds")
    # at fixpoint edges are (node, root) stars, oriented u > v == root
    return edges


def resolve_clusters(
    docs: "ray.data.Dataset",
    id_col: str,
    pairs: "ray.data.Dataset",
    a_col: str = "a_id",
    b_col: str = "b_id",
) -> "ray.data.Dataset":
    """Every doc -> (doc_id, cluster_id, is_canonical): cluster_id is the
    min doc id of its near-dup component (itself for singletons) and the
    canonical survivor is the root.  One slim (id, cluster) exchange
    over the corpus ids (coalesced into one block when the corpus is
    small — the keyed exchange's fixed sort cost dominates then); the
    CC iteration touches only the pair set."""
    stars = connected_components(pairs, a_col=a_col, b_col=b_col)

    def _self_edges(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"u": ids, "v": ids}, schema=_EDGE_SCHEMA)

    both = docs.map_batches(_self_edges, batch_format="pyarrow").union(stars)
    both = both.materialize()

    def _min_label(table: pa.Table) -> pa.Table:
        u = table["u"].to_numpy(zero_copy_only=False)
        v = table["v"].to_numpy(zero_copy_only=False)
        order, su, starts = _segments(u)
        m = np.minimum.reduceat(v[order], starts)
        node = su[starts]
        return pa.table(
            {
                "doc_id": node,
                "cluster_id": m,
                "is_canonical": node == m,
            },
            schema=pa.schema(
                [
                    ("doc_id", pa.int64()),
                    ("cluster_id", pa.int64()),
                    ("is_canonical", pa.bool_()),
                ]
            ),
        )

    if fits(both.count(), DRIVER_EDGES):
        return gather(both, _min_label)
    return map_partitions_by_key(both, "u", _min_label)


def resolve_clusters_best(
    docs: "ray.data.Dataset",
    id_col: str,
    score_col: str,
    pairs: "ray.data.Dataset",
    a_col: str = "a_id",
    b_col: str = "b_id",
) -> "ray.data.Dataset":
    """Quality-weighted cluster resolution: the canonical survivor of
    each near-dup cluster is the HIGHEST-``score_col`` member (min
    doc id breaks ties) — the keep-the-best-copy policy curation
    pipelines actually want, vs `resolve_clusters`' keep-min-id.

    Two slim exchanges: (1) docs' (id, id, score) self-rows union the
    star edges, grouped by node to attach cluster ids (the score rides
    the self-row); (2) (doc, cluster, score) grouped by cluster for the
    per-cluster argmax.  Vectors/text never cross either."""
    stars = connected_components(pairs, a_col=a_col, b_col=b_col)
    # scores stay float64 so float quality scores (classifier outputs in
    # [0,1]) and negative scores survive; -inf marks the score-less star
    # rows and loses every max
    schema = pa.schema(
        [("u", pa.int64()), ("v", pa.int64()), ("score", pa.float64())]
    )

    def _self_rows(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        sc = batch[score_col].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({"u": ids, "v": ids, "score": sc}, schema=schema)

    def _star_rows(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "u": batch["u"],
                "v": batch["v"],
                "score": pa.array(np.full(batch.num_rows, -np.inf), pa.float64()),
            },
            schema=schema,
        )

    both = docs.map_batches(_self_rows, batch_format="pyarrow").union(
        stars.map_batches(_star_rows, batch_format="pyarrow")
    )

    def _attach(table: pa.Table) -> pa.Table:
        u = table["u"].to_numpy(zero_copy_only=False)
        v = table["v"].to_numpy(zero_copy_only=False)
        sc = table["score"].to_numpy(zero_copy_only=False)
        order, su, starts = _segments(u)
        cluster = np.minimum.reduceat(v[order], starts)
        score = np.maximum.reduceat(sc[order], starts)  # the self-row's score
        return pa.table(
            {
                "doc_id": su[starts],
                "cluster_id": cluster,
                "score": score,
            },
            schema=pa.schema(
                [("doc_id", pa.int64()), ("cluster_id", pa.int64()), ("score", pa.float64())]
            ),
        )

    def _argmax(table: pa.Table) -> pa.Table:
        d = table["doc_id"].to_numpy(zero_copy_only=False)
        c = table["cluster_id"].to_numpy(zero_copy_only=False)
        s = table["score"].to_numpy(zero_copy_only=False)
        # per cluster: winner = (score desc, doc_id asc) first
        order = np.lexsort((d, -s, c))
        cs = c[order]
        starts = np.flatnonzero(np.r_[True, cs[1:] != cs[:-1]])
        counts = np.diff(np.r_[starts, len(cs)])
        winner = np.repeat(d[order][starts], counts)
        return pa.table(
            {
                "doc_id": pa.array(d[order], pa.int64()),
                "cluster_id": pa.array(cs, pa.int64()),
                "keep": pa.array(d[order] == winner, pa.bool_()),
            }
        )

    # small corpora: collapse both fixed-cost keyed exchanges into one
    # gathered block (same kernels, batch = everything)
    both = both.materialize()
    if fits(both.count(), DRIVER_EDGES):
        return gather(both, lambda t: _argmax(_attach(t)))
    assigned = map_partitions_by_key(both, "u", _attach)
    return map_partitions_by_key(assigned, "cluster_id", _argmax)


def pagerank(
    pairs: "ray.data.Dataset",
    a_col: str = "a_id",
    b_col: str = "b_id",
    rounds: int = 3,
    total: int = 10**12,
    damping_num: int = 85,
    damping_den: int = 100,
) -> "ray.data.Dataset":
    """Integer-quantized PageRank over a symmetrized pair graph
    (Brin & Page 1998): centrality scoring of near-duplicate / citation
    graphs — the second graph-analytics finisher after connected
    components.

    Everything is int64 "micro-mass" arithmetic so the result is
    DETERMINISTIC and order-independent (sums of integers commute
    exactly; float PageRank would diverge between engines by summation
    order): m0 = total // N, and each round
    ``m'(v) = (15*(total//N))//100 + (85 * Σ_{u→v} m(u)//deg(u)) // 100``
    (floor division throughout; damping 85/100).  A SQL engine unrolling
    the same K rounds reproduces the scores bit-for-bit.

    Scale shape: like `connected_components` — per-round state is the
    slim (node, mass) set, each distributed round is two keyed exchanges
    of edge-sized tables (group-by-source emit contributions,
    group-by-target sum); edge sets that fit ``DRIVER_EDGES`` run the
    identical integer kernels in one in-memory loop, where per-round
    exchange fixed costs would dominate.  Isolated nodes (no pairs) are
    absent — their score is the teleport floor by definition.
    """

    def _init(batch: pa.Table) -> pa.Table:
        u = batch[a_col].to_numpy(zero_copy_only=False).astype(np.int64)
        v = batch[b_col].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = u != v
        u, v = u[keep], v[keep]
        return _dedup_uv(np.concatenate([u, v]), np.concatenate([v, u]))

    edges = pairs.map_batches(_init, batch_format="pyarrow").materialize()
    n_edges = edges.count()
    out_schema = pa.schema(
        [("doc_id", pa.int64()), ("pr_micro", pa.int64()), ("degree", pa.int64())]
    )
    if n_edges == 0:
        return ray.data.from_arrow(out_schema.empty_table())

    if fits(n_edges, DRIVER_EDGES):
        import ray as _ray

        t = pa.concat_tables(
            tb.select(["u", "v"]) for tb in _ray.get(edges.to_arrow_refs()) if tb.num_rows
        ).combine_chunks()
        uv = np.unique(
            np.stack(
                [t["u"].to_numpy(zero_copy_only=False), t["v"].to_numpy(zero_copy_only=False)],
                axis=1,
            ),
            axis=0,
        )
        u_arr, v_arr = uv[:, 0], uv[:, 1]
        nodes, u_idx = np.unique(u_arr, return_inverse=True)
        v_idx = np.searchsorted(nodes, v_arr)  # symmetric graph: always present
        n = len(nodes)
        deg = np.bincount(u_idx, minlength=n).astype(np.int64)
        init = total // n
        base = (damping_den - damping_num) * init // damping_den
        m = np.full(n, init, dtype=np.int64)
        for _ in range(rounds):
            contrib = m // deg
            s = np.zeros(n, dtype=np.int64)
            np.add.at(s, v_idx, contrib[u_idx])
            m = base + (damping_num * s) // damping_den
        return ray.data.from_arrow(
            pa.table(
                {"doc_id": nodes, "pr_micro": m, "degree": deg}, schema=out_schema
            )
        )

    # distributed path: first a keyed pass drops cross-block duplicate
    # edges (each (u, *) neighborhood is whole inside its group, so
    # in-group dedup IS global dedup — the coalesced path and the SQL
    # oracle's UNION-distinct edges do the same), then N and per-node
    # degree, then `rounds` x (scatter by source, gather by target)
    def _dedup_group(table: pa.Table) -> pa.Table:
        return _dedup_uv(
            table["u"].to_numpy(zero_copy_only=False),
            table["v"].to_numpy(zero_copy_only=False),
        )

    edges = map_partitions_by_key(_compact(edges), "u", _dedup_group).materialize()

    def _count_nodes(table: pa.Table) -> pa.Table:
        u = table["u"].to_numpy(zero_copy_only=False)
        return pa.table({"n": pa.array([len(np.unique(u))], pa.int64())})

    node_parts = map_partitions_by_key(edges, "u", _count_nodes).take_all()
    n = int(sum(r["n"] for r in node_parts))
    init = total // n
    base = (damping_den - damping_num) * init // damping_den

    _SCORE_SCHEMA = pa.schema([("u", pa.int64()), ("m", pa.int64())])

    def _init_scores(table: pa.Table) -> pa.Table:
        u = np.unique(table["u"].to_numpy(zero_copy_only=False))
        return pa.table(
            {"u": u, "m": np.full(len(u), init, dtype=np.int64)}, schema=_SCORE_SCHEMA
        )

    scores = map_partitions_by_key(edges, "u", _init_scores).materialize()

    _CONTRIB_SCHEMA = pa.schema([("u", pa.int64()), ("c", pa.int64())])

    def _edge_rows(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "u": batch["u"],
                "v": batch["v"],
                "m": pa.array(np.full(batch.num_rows, -1, np.int64), pa.int64()),
            }
        )

    def _score_rows(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "u": batch["u"],
                "v": pa.array(np.full(batch.num_rows, -1, np.int64), pa.int64()),
                "m": batch["m"],
            }
        )

    def _scatter(table: pa.Table) -> pa.Table:
        # per source u: deg = # edge rows, m = its score row; emit (v, m//deg)
        u = table["u"].to_numpy(zero_copy_only=False)
        v = table["v"].to_numpy(zero_copy_only=False)
        mm = table["m"].to_numpy(zero_copy_only=False)
        is_edge = v >= 0
        order, su, starts = _segments(u)
        sv, sm, se = v[order], mm[order], is_edge[order]
        counts = np.diff(np.r_[starts, len(su)])
        gid = np.repeat(np.arange(len(starts)), counts)
        deg = np.bincount(gid, weights=se).astype(np.int64)
        score = np.zeros(len(starts), dtype=np.int64)
        srow = ~se
        score[gid[srow]] = sm[srow]
        ok = deg > 0
        contrib = np.zeros(len(starts), dtype=np.int64)
        contrib[ok] = score[ok] // deg[ok]
        keep = se & ok[gid]
        return pa.table(
            {"u": pa.array(sv[keep], pa.int64()), "c": pa.array(contrib[gid[keep]], pa.int64())},
            schema=_CONTRIB_SCHEMA,
        )

    def _gather(table: pa.Table) -> pa.Table:
        u = table["u"].to_numpy(zero_copy_only=False)
        c = table["c"].to_numpy(zero_copy_only=False)
        nodes_p, inv = np.unique(u, return_inverse=True)
        s = np.zeros(len(nodes_p), dtype=np.int64)
        np.add.at(s, inv, c)
        return pa.table(
            {"u": nodes_p, "m": base + (damping_num * s) // damping_den},
            schema=_SCORE_SCHEMA,
        )

    edge_tagged = edges.map_batches(_edge_rows, batch_format="pyarrow").materialize()
    for _ in range(rounds):
        mixed = edge_tagged.union(scores.map_batches(_score_rows, batch_format="pyarrow"))
        contribs = map_partitions_by_key(mixed, "u", _scatter)
        scores = _compact(map_partitions_by_key(contribs, "u", _gather))

    def _decorate(table: pa.Table) -> pa.Table:
        # final deg attach: group edges+scores once more
        u = table["u"].to_numpy(zero_copy_only=False)
        v = table["v"].to_numpy(zero_copy_only=False)
        mm = table["m"].to_numpy(zero_copy_only=False)
        is_edge = v >= 0
        order, su, starts = _segments(u)
        se = is_edge[order]
        sm = mm[order]
        counts = np.diff(np.r_[starts, len(su)])
        gid = np.repeat(np.arange(len(starts)), counts)
        deg = np.bincount(gid, weights=se).astype(np.int64)
        score = np.zeros(len(starts), dtype=np.int64)
        srow = ~se
        score[gid[srow]] = sm[srow]
        return pa.table(
            {
                "doc_id": pa.array(su[starts], pa.int64()),
                "pr_micro": pa.array(score, pa.int64()),
                "degree": pa.array(deg, pa.int64()),
            },
            schema=out_schema,
        )

    mixed = edge_tagged.union(scores.map_batches(_score_rows, batch_format="pyarrow"))
    return map_partitions_by_key(mixed, "u", _decorate)


def _mode_labels(tgt: np.ndarray, lbl: np.ndarray):
    """Per-target mode label with the deterministic (count desc, label
    asc) tie rule — the label-propagation update, fully vectorized:
    one lexsort groups (target, label) runs, a second lexsort picks each
    target's winning run.  Returns (targets, winning_labels), targets
    ascending unique."""
    order = np.lexsort((lbl, tgt))
    st, sl = tgt[order], lbl[order]
    rs = np.flatnonzero(np.r_[True, (st[1:] != st[:-1]) | (sl[1:] != sl[:-1])])
    rc = np.diff(np.r_[rs, len(st)]).astype(np.int64)
    rt, rl = st[rs], sl[rs]
    o2 = np.lexsort((rl, -rc, rt))
    rt2, rl2 = rt[o2], rl[o2]
    first = np.flatnonzero(np.r_[True, rt2[1:] != rt2[:-1]])
    return rt2[first], rl2[first]


def label_propagation(
    pairs: "ray.data.Dataset",
    a_col: str = "a_id",
    b_col: str = "b_id",
    rounds: int = 4,
) -> "ray.data.Dataset":
    """Synchronous label propagation (Raghavan, Albert & Kumara 2007)
    over the symmetrized near-dup pair graph — COMMUNITY detection, the
    fifth graph kernel: where connected components fuses everything
    reachable into one cluster, LP's mode-label update finds the dense
    cores inside a weakly-bridged component (two template families
    joined by one incidental pair stay separate communities).

    Deterministic formulation so a SQL engine unrolling the same K
    rounds matches bit-for-bit: label_0(v) = v; each round every node
    takes the MOST FREQUENT label among its neighbors, ties broken by
    the smallest label; exactly ``rounds`` synchronous updates (no
    convergence test — fixpoint order would differ between engines).
    Isolated nodes never appear (every node in a pair set has degree
    >= 1 after symmetrization).

    Scale shape: identical to `pagerank` — per-round state is the slim
    (node, label) set; each distributed round is two keyed exchanges of
    edge-sized tables (group-by-source emit (neighbor, my_label)
    messages, group-by-target mode-update); edge sets that fit
    ``DRIVER_EDGES`` run the identical integer kernels in one in-memory
    loop where per-round exchange fixed costs would dominate.
    """

    def _init(batch: pa.Table) -> pa.Table:
        u = batch[a_col].to_numpy(zero_copy_only=False).astype(np.int64)
        v = batch[b_col].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = u != v
        u, v = u[keep], v[keep]
        return _dedup_uv(np.concatenate([u, v]), np.concatenate([v, u]))

    edges = pairs.map_batches(_init, batch_format="pyarrow").materialize()
    out_schema = pa.schema([("doc_id", pa.int64()), ("community", pa.int64())])
    n_edges = edges.count()
    if n_edges == 0:
        return ray.data.from_arrow(out_schema.empty_table())

    if fits(n_edges, DRIVER_EDGES):
        import ray as _ray

        t = pa.concat_tables(
            tb.select(["u", "v"]) for tb in _ray.get(edges.to_arrow_refs()) if tb.num_rows
        ).combine_chunks()
        uv = np.unique(
            np.stack(
                [t["u"].to_numpy(zero_copy_only=False), t["v"].to_numpy(zero_copy_only=False)],
                axis=1,
            ),
            axis=0,
        )
        u_arr, v_arr = uv[:, 0], uv[:, 1]
        nodes, u_idx = np.unique(u_arr, return_inverse=True)
        v_idx = np.searchsorted(nodes, v_arr)  # symmetric graph: always present
        lbl = nodes.copy()
        for _ in range(rounds):
            # message u -> v carries u's label; mode per target
            t_nodes, t_lbl = _mode_labels(v_idx, lbl[u_idx])
            lbl = lbl.copy()
            lbl[t_nodes] = t_lbl  # symmetric: t_nodes covers every node
        return ray.data.from_arrow(
            pa.table({"doc_id": nodes, "community": lbl}, schema=out_schema)
        )

    # distributed path: keyed dedup pass (whole (u, *) neighborhood local,
    # so in-group dedup IS global dedup), then `rounds` x (scatter
    # messages by source, mode-gather by target) — the pagerank skeleton
    # with the gather swapped for the mode-label kernel
    def _dedup_group(table: pa.Table) -> pa.Table:
        return _dedup_uv(
            table["u"].to_numpy(zero_copy_only=False),
            table["v"].to_numpy(zero_copy_only=False),
        )

    edges = map_partitions_by_key(_compact(edges), "u", _dedup_group).materialize()

    _LBL_SCHEMA = pa.schema([("u", pa.int64()), ("lbl", pa.int64())])
    _MIXED_SCHEMA = pa.schema(
        [("u", pa.int64()), ("v", pa.int64()), ("lbl", pa.int64())]
    )

    def _init_labels(table: pa.Table) -> pa.Table:
        u = np.unique(table["u"].to_numpy(zero_copy_only=False))
        return pa.table({"u": u, "lbl": u}, schema=_LBL_SCHEMA)

    labels = map_partitions_by_key(edges, "u", _init_labels).materialize()

    def _edge_rows(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "u": batch["u"],
                "v": batch["v"],
                "lbl": pa.array(np.full(batch.num_rows, -1, np.int64), pa.int64()),
            },
            schema=_MIXED_SCHEMA,
        )

    def _label_rows(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "u": batch["u"],
                "v": pa.array(np.full(batch.num_rows, -1, np.int64), pa.int64()),
                "lbl": batch["lbl"],
            },
            schema=_MIXED_SCHEMA,
        )

    _MSG_SCHEMA = pa.schema([("u", pa.int64()), ("lbl", pa.int64())])

    def _scatter(table: pa.Table) -> pa.Table:
        # per source u: one label row + its edge rows; emit (v, lbl)
        u = table["u"].to_numpy(zero_copy_only=False)
        v = table["v"].to_numpy(zero_copy_only=False)
        ml = table["lbl"].to_numpy(zero_copy_only=False)
        is_edge = v >= 0
        order, su, starts = _segments(u)
        sv, sl, se = v[order], ml[order], is_edge[order]
        counts = np.diff(np.r_[starts, len(su)])
        gid = np.repeat(np.arange(len(starts)), counts)
        lbl_of = np.zeros(len(starts), dtype=np.int64)
        srow = ~se
        lbl_of[gid[srow]] = sl[srow]
        return pa.table(
            {"u": sv[se], "lbl": lbl_of[gid[se]]}, schema=_MSG_SCHEMA
        )

    def _gather(table: pa.Table) -> pa.Table:
        t_nodes, t_lbl = _mode_labels(
            table["u"].to_numpy(zero_copy_only=False),
            table["lbl"].to_numpy(zero_copy_only=False),
        )
        return pa.table({"u": t_nodes, "lbl": t_lbl}, schema=_LBL_SCHEMA)

    edge_tagged = edges.map_batches(_edge_rows, batch_format="pyarrow").materialize()
    for _ in range(rounds):
        mixed = edge_tagged.union(labels.map_batches(_label_rows, batch_format="pyarrow"))
        msgs = map_partitions_by_key(mixed, "u", _scatter)
        labels = _compact(map_partitions_by_key(msgs, "u", _gather))

    def _finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": batch["u"], "community": batch["lbl"]}, schema=out_schema
        )

    return labels.map_batches(_finish, batch_format="pyarrow")


def _pack64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pack two non-negative int32-range ids into one sortable int64.
    Raises for out-of-range ids — a silent collision would corrupt the
    closing-edge probe."""
    if len(a) and (
        int(a.min()) < 0 or int(b.min()) < 0
        or int(a.max()) >= 2**31 or int(b.max()) >= 2**31
    ):
        raise ValueError("_pack64: ids must be in [0, 2**31)")
    return a.astype(np.int64) * np.int64(2**31) + b.astype(np.int64)


def _ordered_wedges(u: np.ndarray, v: np.ndarray, wedge_cap: int):
    """All ordered wedges (apex, w1 < w2) over min->max oriented distinct
    edges: each apex's out-neighbor pairs, fully vectorized (rank ->
    upper-triangular (i, j) via the closed-form quadratic inverse with a
    two-sided integer correction).  Apexes with out-degree > wedge_cap
    are skipped (logged): hub wedge sets are quadratic.  Returns (apex,
    w1, w2)."""
    import logging

    order, su, starts = _segments(u)
    counts = np.diff(np.r_[starts, len(su)])
    drop = counts > wedge_cap
    if drop.any():
        logging.getLogger(__name__).warning(
            "triangle_counts: skipping %d hub nodes with out-degree > %d",
            int(drop.sum()), wedge_cap,
        )
    # neighbor lists sorted within each apex segment so (i < j) => (w1 < w2)
    o2 = np.lexsort((v, u))
    sv = v[o2]
    segs = np.flatnonzero(~drop)
    d = counts[segs]
    n_w = (d * (d - 1)) // 2
    total = int(n_w.sum())
    if total == 0:
        e = np.empty(0, np.int64)
        return e, e, e
    seg_of = np.repeat(np.arange(len(segs)), n_w)
    base = np.repeat(np.concatenate([[0], np.cumsum(n_w)[:-1]]), n_w)
    k = np.arange(total, dtype=np.int64) - base  # wedge rank within its apex
    dk = d[seg_of]
    # row-major upper triangle: k = i*(2d-i-1)/2 + (j-i-1); invert for i
    df = dk.astype(np.float64)
    i = np.floor(df - 0.5 - np.sqrt((df - 0.5) ** 2 - 2.0 * k)).astype(np.int64)
    np.clip(i, 0, dk - 2, out=i)
    for _ in range(2):  # two-sided float-edge correction (±1 suffices)
        cum_i = i * (2 * dk - i - 1) // 2
        i -= (cum_i > k).astype(np.int64)
        nxt = (i + 1) * (2 * dk - i - 2) // 2
        i += (nxt <= k).astype(np.int64)
        np.clip(i, 0, dk - 2, out=i)
    cum_i = i * (2 * dk - i - 1) // 2
    j = (k - cum_i) + i + 1
    pos0 = np.repeat(starts[segs], n_w)
    return np.repeat(su[starts[segs]], n_w), sv[pos0 + i], sv[pos0 + j]


def triangle_counts(
    pairs: "ray.data.Dataset",
    a_col: str = "a_id",
    b_col: str = "b_id",
    wedge_cap: int = 4096,
) -> "ray.data.Dataset":
    """Per-node triangle participation counts over the (deduplicated,
    low->high oriented) pair graph — the wedge-join graph kernel
    (Suri & Vassilvitskii, WWW'11 MR-friendly triangle counting): a
    node's triangle count measures how CLIQUE-like its duplicate
    neighborhood is (template farms score high, chains score low).

    Algorithm (both paths identical arithmetic): orient every edge
    min->max; each node's out-neighbor list emits its ordered wedges
    (v1 < v2); a wedge closes iff (v1, v2) is itself an edge — one
    sorted-membership probe against the packed edge-key set.  Each
    triangle (a < b < c) is generated exactly once (at apex a), so the
    per-node counts are deterministic ints.

    Scale shape: one keyed shuffle groups edges by source for wedge
    emission; wedge rows (the only superlinear set, Σ d(d-1)/2) stream
    through a second keyed exchange on their first endpoint where the
    closing-edge probe runs; per-node counts reduce on a third slim
    exchange.  Nodes with out-degree > ``wedge_cap`` are skipped with a
    logged drop (the bucket-cap discipline of the LSH stages) — a hub's
    wedge set is quadratic and such nodes are degenerate dup-cluster
    cores, not signal.  Edge sets that fit ``DRIVER_EDGES`` run the same
    kernels coalesced in one process."""
    def _init(batch: pa.Table) -> pa.Table:
        u = batch[a_col].to_numpy(zero_copy_only=False).astype(np.int64)
        v = batch[b_col].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = u != v
        u, v = u[keep], v[keep]
        return _dedup_uv(np.minimum(u, v), np.maximum(u, v))

    edges = pairs.map_batches(_init, batch_format="pyarrow").materialize()
    out_schema = pa.schema([("doc_id", pa.int64()), ("n_triangles", pa.int64())])
    if edges.count() == 0:
        return ray.data.from_arrow(out_schema.empty_table())

    if fits(edges.count(), DRIVER_EDGES):
        import ray as _ray

        t = pa.concat_tables(
            tb.select(["u", "v"]) for tb in _ray.get(edges.to_arrow_refs()) if tb.num_rows
        ).combine_chunks()
        uv = np.unique(
            np.stack(
                [t["u"].to_numpy(zero_copy_only=False), t["v"].to_numpy(zero_copy_only=False)],
                axis=1,
            ),
            axis=0,
        )
        u, v = uv[:, 0], uv[:, 1]
        apex, w1, w2 = _ordered_wedges(u, v, wedge_cap)
        hit = sg.sorted_member(np.sort(_pack64(u, v)), _pack64(w1, w2))
        nodes = np.concatenate([apex[hit], w1[hit], w2[hit]])
        ids, cnt = np.unique(nodes, return_counts=True)
        return ray.data.from_arrow(
            pa.table({"doc_id": ids, "n_triangles": cnt.astype(np.int64)}, schema=out_schema)
        )

    edges = _compact(edges)

    _W_SCHEMA = pa.schema(
        [("u", pa.int64()), ("v", pa.int64()), ("apex", pa.int64())]
    )

    def _emit_wedges(table: pa.Table) -> pa.Table:
        # the keyed kernel sees every (u, *) row of its groups TOGETHER
        # (a plain map_batches could see a big group split across blocks
        # and silently miss cross-fragment wedges); cross-block duplicate
        # edges are dropped here, where the whole neighborhood is local
        d = _dedup_uv(
            table["u"].to_numpy(zero_copy_only=False),
            table["v"].to_numpy(zero_copy_only=False),
        )
        u = d["u"].to_numpy(zero_copy_only=False)
        v = d["v"].to_numpy(zero_copy_only=False)
        apex, w1, w2 = _ordered_wedges(u, v, wedge_cap)
        return pa.table({"u": w1, "v": w2, "apex": apex}, schema=_W_SCHEMA)

    wedges = map_partitions_by_key(edges, "u", _emit_wedges)

    def _edge_tag(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "u": batch["u"],
                "v": batch["v"],
                "apex": pa.array(np.full(batch.num_rows, -1, np.int64), pa.int64()),
            },
            schema=_W_SCHEMA,
        )

    mixed = edges.map_batches(_edge_tag, batch_format="pyarrow").union(wedges)

    _N_SCHEMA = pa.schema([("doc_id", pa.int64()), ("n", pa.int64())])

    def _close(table: pa.Table) -> pa.Table:
        # co-located by first endpoint: probe wedge (u,v) against edge set
        u = table["u"].to_numpy(zero_copy_only=False)
        v = table["v"].to_numpy(zero_copy_only=False)
        apex = table["apex"].to_numpy(zero_copy_only=False)
        is_edge = apex < 0
        hit = sg.sorted_member(
            np.sort(_pack64(u[is_edge], v[is_edge])), _pack64(u[~is_edge], v[~is_edge])
        )
        nodes = np.concatenate(
            [apex[~is_edge][hit], u[~is_edge][hit], v[~is_edge][hit]]
        )
        ids, cnt = np.unique(nodes, return_counts=True)
        return pa.table({"doc_id": ids, "n": cnt.astype(np.int64)}, schema=_N_SCHEMA)

    partial = map_partitions_by_key(mixed, "u", _close)

    def _reduce(table: pa.Table) -> pa.Table:
        ids = table["doc_id"].to_numpy(zero_copy_only=False)
        nn = table["n"].to_numpy(zero_copy_only=False)
        u_ids, inv = np.unique(ids, return_inverse=True)
        s = np.zeros(len(u_ids), np.int64)
        np.add.at(s, inv, nn)
        return pa.table({"doc_id": u_ids, "n_triangles": s}, schema=out_schema)

    return map_partitions_by_key(partial, "doc_id", _reduce)


def kcore(
    pairs: "ray.data.Dataset",
    a_col: str = "a_id",
    b_col: str = "b_id",
    k: int = 2,
    rounds: int = 5,
) -> "ray.data.Dataset":
    """R-round k-core peeling over a symmetrized pair graph (Seidman
    1983): iteratively drop nodes with degree < k in the surviving
    subgraph — the density filter that separates tight duplicate
    communities from incidental pair noise.  EXACTLY ``rounds`` peels
    are applied (deterministic whether or not a fixpoint is reached, so
    an unrolled SQL oracle matches bit-for-bit; when the graph converges
    earlier the extra rounds are no-ops and the result IS the k-core).

    Output: surviving (doc_id, core_degree) — degree measured in the
    final surviving subgraph.  Scale shape: per-round state is the slim
    alive-node set; a distributed round is two keyed semi-joins (filter
    edges by alive u, then alive v) plus one degree group-by; edge sets
    that fit ``DRIVER_EDGES`` run the identical peel in-memory."""

    def _init(batch: pa.Table) -> pa.Table:
        u = batch[a_col].to_numpy(zero_copy_only=False).astype(np.int64)
        v = batch[b_col].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = u != v
        u, v = u[keep], v[keep]
        return _dedup_uv(np.concatenate([u, v]), np.concatenate([v, u]))

    edges = pairs.map_batches(_init, batch_format="pyarrow").materialize()
    out_schema = pa.schema([("doc_id", pa.int64()), ("core_degree", pa.int64())])
    n_edges = edges.count()
    if n_edges == 0:
        return ray.data.from_arrow(out_schema.empty_table())

    if fits(n_edges, DRIVER_EDGES):
        import ray as _ray

        t = pa.concat_tables(
            tb.select(["u", "v"]) for tb in _ray.get(edges.to_arrow_refs()) if tb.num_rows
        ).combine_chunks()
        uv = np.unique(
            np.stack(
                [t["u"].to_numpy(zero_copy_only=False), t["v"].to_numpy(zero_copy_only=False)],
                axis=1,
            ),
            axis=0,
        )
        u_arr, v_arr = uv[:, 0], uv[:, 1]
        nodes, u_idx = np.unique(u_arr, return_inverse=True)
        v_idx = np.searchsorted(nodes, v_arr)
        alive = np.ones(len(nodes), dtype=bool)
        for _ in range(rounds):
            live = alive[u_idx] & alive[v_idx]
            deg = np.bincount(u_idx[live], minlength=len(nodes))
            alive = alive & (deg >= k)
        live = alive[u_idx] & alive[v_idx]
        deg = np.bincount(u_idx[live], minlength=len(nodes)).astype(np.int64)
        # drop alive-but-edgeless nodes (possible when `rounds` stops
        # short of the fixpoint) so this path matches the distributed
        # _final_deg/GROUP BY semantics and the unrolled SQL oracle
        sel = np.flatnonzero(alive & (deg > 0))
        return ray.data.from_arrow(
            pa.table(
                {"doc_id": nodes[sel], "core_degree": deg[sel]}, schema=out_schema
            )
        )

    # distributed: in-group dedup once (neighborhoods are whole per
    # group), then rounds x (semi-join alive on u / on v, degree)
    def _dedup_group(table: pa.Table) -> pa.Table:
        return _dedup_uv(
            table["u"].to_numpy(zero_copy_only=False),
            table["v"].to_numpy(zero_copy_only=False),
        )

    edges = map_partitions_by_key(
        _compact(edges), "u", _dedup_group,
    ).materialize()

    _ALIVE_SCHEMA = pa.schema([("u", pa.int64()), ("side", pa.int64())])

    def _all_nodes(table: pa.Table) -> pa.Table:
        u = np.unique(table["u"].to_numpy(zero_copy_only=False))
        return pa.table(
            {"u": u, "side": np.zeros(len(u), dtype=np.int64)}, schema=_ALIVE_SCHEMA
        )

    alive = map_partitions_by_key(edges, "u", _all_nodes).materialize()

    def _semi(edge_tbl: "ray.data.Dataset", col: str) -> "ray.data.Dataset":
        # union edges (side=1 rows) with alive markers (side=0) keyed on
        # `col`; groups whose key is alive keep their edge rows
        def _mark(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "key": batch[col],
                    "u": batch["u"],
                    "v": batch["v"],
                    "side": pa.array(np.ones(batch.num_rows, np.int64), pa.int64()),
                }
            )

        def _alias(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "key": batch["u"],
                    "u": batch["u"],
                    "v": batch["u"],
                    "side": pa.array(np.zeros(batch.num_rows, np.int64), pa.int64()),
                }
            )

        both = edge_tbl.map_batches(_mark, batch_format="pyarrow").union(
            alive.map_batches(_alias, batch_format="pyarrow")
        )

        def _filter(table: pa.Table) -> pa.Table:
            key = table["key"].to_numpy(zero_copy_only=False)
            side = table["side"].to_numpy(zero_copy_only=False)
            ok_keys = np.unique(key[side == 0])
            m = (side == 1) & sg.sorted_member(ok_keys, key)
            return pa.table(
                {
                    "u": table["u"].filter(pa.array(m)),
                    "v": table["v"].filter(pa.array(m)),
                }
            )

        return map_partitions_by_key(both, "key", _filter)

    def _deg_alive(table: pa.Table) -> pa.Table:
        u = table["u"].to_numpy(zero_copy_only=False)
        uniq, cnt = np.unique(u, return_counts=True)
        keep = cnt >= k
        return pa.table(
            {
                "u": pa.array(uniq[keep], pa.int64()),
                "side": pa.array(np.zeros(int(keep.sum()), np.int64), pa.int64()),
            },
            schema=_ALIVE_SCHEMA,
        )

    for _ in range(rounds):
        live_edges = _semi(_semi(edges, "u"), "v")
        alive = _compact(map_partitions_by_key(live_edges, "u", _deg_alive))

    final_edges = _semi(_semi(edges, "u"), "v")

    def _final_deg(table: pa.Table) -> pa.Table:
        u = table["u"].to_numpy(zero_copy_only=False)
        uniq, cnt = np.unique(u, return_counts=True)
        return pa.table(
            {
                "doc_id": pa.array(uniq, pa.int64()),
                "core_degree": pa.array(cnt.astype(np.int64), pa.int64()),
            },
            schema=out_schema,
        )

    return map_partitions_by_key(final_edges, "u", _final_deg)
