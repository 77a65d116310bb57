"""Connected components (stages/cc.py) vs a brute-force union-find."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest


def _union_find(n_nodes, pairs):
    parent = list(range(n_nodes))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    # root = min of component
    comp = {}
    for x in range(n_nodes):
        r = find(x)
        comp.setdefault(r, []).append(x)
    label = {}
    for members in comp.values():
        m = min(members)
        for x in members:
            label[x] = m
    return label


# GRAFT_FORCE_SCALE_PLAN=1 drives every size gate onto its at-scale plan
FORCE = "GRAFT_FORCE_SCALE_PLAN"


def _pairs_ds(ray, pairs):
    a = pa.array([p[0] for p in pairs], pa.int64())
    b = pa.array([p[1] for p in pairs], pa.int64())
    return ray.data.from_arrow(pa.table({"a_id": a, "b_id": b})).repartition(4)


@pytest.mark.parametrize("forced", [False, True], ids=["local", "distributed"])
@pytest.mark.parametrize("seed,n,m", [(0, 60, 40), (1, 200, 260), (2, 500, 180)])
def test_cc_random_vs_union_find(ray_session, monkeypatch, seed, n, m, forced):
    from multimedia_indexing_ray.stages.cc import connected_components

    if forced:
        monkeypatch.setenv(FORCE, "1")
    rng = np.random.default_rng(seed)
    pairs = [tuple(sorted(p)) for p in rng.integers(0, n, size=(m, 2)) if p[0] != p[1]]
    stars = connected_components(_pairs_ds(ray_session, pairs)).take_all()
    want = _union_find(n, pairs)
    got = {r["u"]: r["v"] for r in stars}
    for node, root in want.items():
        if node == root:
            assert node not in got or got[node] == node
        else:
            assert got[node] == root, (node, got.get(node), root)


def test_cc_path_graph_worst_diameter(ray_session):
    """A 300-node chain: log-round convergence must still be exact."""
    from multimedia_indexing_ray.stages.cc import connected_components

    pairs = [(i, i + 1) for i in range(299)]
    stars = connected_components(_pairs_ds(ray_session, pairs)).take_all()
    got = {r["u"]: r["v"] for r in stars}
    assert set(got.keys()) == set(range(1, 300))
    assert set(got.values()) == {0}


def test_cc_empty_pairs(ray_session):
    from multimedia_indexing_ray.stages.cc import connected_components

    stars = connected_components(_pairs_ds(ray_session, [])).take_all()
    assert stars == []


def test_resolve_clusters(ray_session):
    from multimedia_indexing_ray.stages.cc import resolve_clusters

    # docs 0..9; dup clusters {1,3,5} and {2,8}; rest singletons
    docs = ray_session.data.from_arrow(
        pa.table({"doc_id": pa.array(list(range(10)), pa.int64())})
    ).repartition(3)
    pairs = [(3, 1), (3, 5), (8, 2)]
    out = resolve_clusters(docs, "doc_id", _pairs_ds(ray_session, pairs)).take_all()
    got = {r["doc_id"]: (r["cluster_id"], r["is_canonical"]) for r in out}
    assert len(got) == 10
    assert got[1] == (1, True) and got[3] == (1, False) and got[5] == (1, False)
    assert got[2] == (2, True) and got[8] == (2, False)
    for d in (0, 4, 6, 7, 9):
        assert got[d] == (d, True)


def test_local_cc_hypothesis_random_graphs():
    """Property: the in-memory star rounds equal union-find on arbitrary
    graphs (hypothesis-driven edge lists, including self-dense wiring)."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    import pyarrow as pa

    from multimedia_indexing_ray.stages.cc import _local_cc

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 40), st.integers(0, 40)).filter(
                lambda p: p[0] != p[1]
            ),
            min_size=1,
            max_size=120,
        )
    )
    def run(pairs):
        t = pa.table(
            {
                "u": pa.array([p[0] for p in pairs], pa.int64()),
                "v": pa.array([p[1] for p in pairs], pa.int64()),
            }
        )
        stars = _local_cc(t, max_rounds=40)
        got = dict(zip(stars["u"].to_pylist(), stars["v"].to_pylist()))
        want = _union_find(41, pairs)
        for node, root in want.items():
            if node == root:
                assert got.get(node, node) == node
            else:
                assert got[node] == root

    run()


def test_resolve_clusters_best_float_scores(ray_session):
    """Float quality scores rank correctly (the review-found truncation
    bug: 0.93 vs 0.21 must NOT both collapse to 0)."""
    import pyarrow as pa

    from multimedia_indexing_ray.stages.cc import resolve_clusters_best

    docs = ray_session.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                "q": pa.array([0.21, 0.93, -0.5, 0.0], pa.float64()),
            }
        )
    )
    out = resolve_clusters_best(
        docs, "doc_id", "q", _pairs_ds(ray_session, [(1, 2), (3, 4)])
    ).take_all()
    got = {r["doc_id"]: (r["cluster_id"], r["keep"]) for r in out}
    assert got[2] == (1, True) and got[1] == (1, False)  # 0.93 beats 0.21
    assert got[4] == (3, True) and got[3] == (3, False)  # 0.0 beats -0.5


def test_resolvers_distributed_path_matches_coalesced(ray_session, monkeypatch):
    """Force the keyed-exchange (large-corpus) branch of both resolvers
    and check it equals the coalesced fast path row-for-row."""
    import pyarrow as pa

    from multimedia_indexing_ray.stages import cc

    docs = ray_session.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(list(range(12)), pa.int64()),
                "q": pa.array([float(i % 5) for i in range(12)], pa.float64()),
            }
        )
    ).repartition(3)
    pairs = _pairs_ds(ray_session, [(0, 3), (3, 6), (2, 7), (10, 11)])

    def run_both(fn, *args, **kw):
        out_small = fn(*args, **kw).take_all()
        monkeypatch.setenv(FORCE, "1")
        out_large = fn(*args, **kw).take_all()
        monkeypatch.delenv(FORCE)
        key = lambda r: tuple(sorted(r.items()))
        assert sorted(map(key, out_small)) == sorted(map(key, out_large))
        return out_small

    out = run_both(
        cc.resolve_clusters, docs.select_columns(["doc_id"]), "doc_id", pairs
    )
    assert {r["doc_id"]: r["cluster_id"] for r in out}[6] == 0
    out2 = run_both(cc.resolve_clusters_best, docs, "doc_id", "q", pairs)
    got = {r["doc_id"]: (r["cluster_id"], r["keep"]) for r in out2}
    # cluster {0,3,6}: scores 0.0, 3.0, 1.0 -> winner 3
    assert got[3] == (0, True) and got[0] == (0, False) and got[6] == (0, False)


@pytest.mark.parametrize("seed,n,m", [(0, 40, 60), (3, 150, 300)])
def test_pagerank_paths_agree_and_reference(ray_session, monkeypatch, seed, n, m):
    """Distributed PageRank rounds == the coalesced integer kernel == a
    straight numpy reference of the quantized recurrence; mass sanity:
    every score >= the teleport floor and top score lands on a max-degree
    node of a star graph."""
    from multimedia_indexing_ray.stages import cc

    rng = np.random.default_rng(seed)
    raw = [tuple(sorted(p)) for p in rng.integers(0, n, size=(m, 2)) if p[0] != p[1]]
    pairs = sorted(set(raw))
    ds = _pairs_ds(ray_session, pairs)

    out_small = {r["doc_id"]: (r["pr_micro"], r["degree"]) for r in cc.pagerank(ds).take_all()}
    monkeypatch.setenv(FORCE, "1")
    out_large = {
        r["doc_id"]: (r["pr_micro"], r["degree"])
        for r in cc.pagerank(ds).take_all()
    }
    assert out_small == out_large

    # numpy reference of the same integer recurrence
    u = np.array([p[0] for p in pairs] + [p[1] for p in pairs], np.int64)
    v = np.array([p[1] for p in pairs] + [p[0] for p in pairs], np.int64)
    nodes, ui = np.unique(u, return_inverse=True)
    vi = np.searchsorted(nodes, v)
    deg = np.bincount(ui, minlength=len(nodes)).astype(np.int64)
    total = 10**12
    init = total // len(nodes)
    base = 15 * init // 100
    mvec = np.full(len(nodes), init, np.int64)
    for _ in range(3):
        contrib = mvec // deg
        s = np.zeros(len(nodes), np.int64)
        np.add.at(s, vi, contrib[ui])
        mvec = base + (85 * s) // 100
    ref = {int(nd): (int(mm), int(dd)) for nd, mm, dd in zip(nodes, mvec, deg)}
    assert out_small == ref
    assert all(mm >= base for mm, _ in out_small.values())


def test_pagerank_star_graph(ray_session):
    """Hub of a star gets the top score."""
    from multimedia_indexing_ray.stages.cc import pagerank

    pairs = [(0, i) for i in range(1, 9)]
    out = {r["doc_id"]: r["pr_micro"] for r in pagerank(_pairs_ds(ray_session, pairs)).take_all()}
    assert max(out, key=out.get) == 0


@pytest.mark.parametrize("seed,n,m", [(0, 25, 70), (5, 80, 200)])
def test_triangle_counts_paths_vs_brute_force(ray_session, monkeypatch, seed, n, m):
    from multimedia_indexing_ray.stages import cc
    import itertools

    rng = np.random.default_rng(seed)
    raw = [tuple(sorted(p)) for p in rng.integers(0, n, size=(m, 2)) if p[0] != p[1]]
    pairs = sorted(set(raw))
    ds = _pairs_ds(ray_session, pairs)
    out_small = {r["doc_id"]: r["n_triangles"] for r in cc.triangle_counts(ds).take_all()}
    monkeypatch.setenv(FORCE, "1")
    out_large = {
        r["doc_id"]: r["n_triangles"]
        for r in cc.triangle_counts(ds).take_all()
    }
    assert out_small == out_large
    es = set(pairs)
    ref = {}
    nodes = sorted({x for e in es for x in e})
    for a, b, c in itertools.combinations(nodes, 3):
        if (a, b) in es and (b, c) in es and (a, c) in es:
            for x in (a, b, c):
                ref[x] = ref.get(x, 0) + 1
    assert out_small == ref


def test_triangle_counts_wedge_cap_drops_hub(ray_session):
    """A hub above the wedge cap is skipped: triangles through it vanish,
    others survive."""
    from multimedia_indexing_ray.stages.cc import triangle_counts

    # hub 0 connected to 1..9 (deg 9), plus a separate triangle (20,21,22)
    pairs = [(0, i) for i in range(1, 10)] + [(1, 2), (20, 21), (21, 22), (20, 22)]
    ds = _pairs_ds(ray_session, pairs)
    full = {r["doc_id"]: r["n_triangles"] for r in triangle_counts(ds).take_all()}
    assert full[0] == 1 and full[20] == 1  # hub triangle (0,1,2) + separate
    capped = {
        r["doc_id"]: r["n_triangles"]
        for r in triangle_counts(ds, wedge_cap=5).take_all()
    }
    assert 0 not in capped and capped[20] == 1


def test_graph_ops_tolerate_duplicate_and_reversed_pairs(ray_session, monkeypatch):
    """Cross-block duplicate pairs and reversed orientations must not
    inflate degrees, scores, or wedge counts (the pair sets are deduped
    inside the first keyed group, where each neighborhood is whole)."""
    from multimedia_indexing_ray.stages import cc

    base = [(0, 1), (1, 2), (0, 2), (2, 3)]
    noisy = base + [(b, a) for a, b in base] + base  # dupes + reversals
    for fn, forced, blocks in [
        (cc.pagerank, False, 4),
        (cc.pagerank, True, 1),
        (cc.pagerank, True, 4),
        (cc.triangle_counts, False, 4),
        (cc.triangle_counts, True, 1),
        (cc.triangle_counts, True, 4),
    ]:
        monkeypatch.setenv(FORCE, "1" if forced else "0")
        clean_ds = _pairs_ds(ray_session, base).repartition(blocks)
        noisy_ds = _pairs_ds(ray_session, noisy).repartition(blocks)
        a = sorted(tuple(sorted(r.items())) for r in fn(clean_ds).take_all())
        b = sorted(tuple(sorted(r.items())) for r in fn(noisy_ds).take_all())
        assert a == b, (fn.__name__, forced, blocks)


def test_pack64_rejects_out_of_range_ids(ray_session):
    from multimedia_indexing_ray.stages.cc import triangle_counts

    big = 2**31
    ds = _pairs_ds(ray_session, [(big, big + 1), (big + 1, big + 2), (big, big + 2)])
    import pytest as _pytest

    with _pytest.raises(Exception, match="_pack64|2\\*\\*31"):
        triangle_counts(ds).take_all()


def test_kcore_distributed_matches_coalesced_and_reference(ray_session, monkeypatch):
    """Distributed k-core peel rounds == the coalesced kernel == a
    straight numpy reference (2 rounds: each distributed round costs
    five keyed exchanges, so the equality check keeps the round count
    small; round-count-independence is covered by the coalesced
    reference loop)."""
    from multimedia_indexing_ray.stages import cc

    rng = np.random.default_rng(5)
    raw = [tuple(sorted(p)) for p in rng.integers(0, 40, size=(90, 2)) if p[0] != p[1]]
    pairs = sorted(set(raw))
    ds = _pairs_ds(ray_session, pairs)

    out_small = {r["doc_id"]: r["core_degree"] for r in cc.kcore(ds, rounds=2).take_all()}
    monkeypatch.setenv(FORCE, "1")
    out_large = {
        r["doc_id"]: r["core_degree"]
        for r in cc.kcore(ds, rounds=2).take_all()
    }
    assert out_small == out_large

    # numpy reference peel
    u = np.array([p[0] for p in pairs] + [p[1] for p in pairs], np.int64)
    v = np.array([p[1] for p in pairs] + [p[0] for p in pairs], np.int64)
    nodes, ui = np.unique(u, return_inverse=True)
    vi = np.searchsorted(nodes, v)
    alive = np.ones(len(nodes), bool)
    for _ in range(2):
        live = alive[ui] & alive[vi]
        deg = np.bincount(ui[live], minlength=len(nodes))
        alive = alive & (deg >= 2)
    live = alive[ui] & alive[vi]
    deg = np.bincount(ui[live], minlength=len(nodes))
    keep = alive & (deg > 0)  # alive-but-edgeless nodes are omitted
    ref = {int(nd): int(dd) for nd, dd in zip(nodes[keep], deg[keep])}
    assert out_small == ref


def test_kcore_peels_path_keeps_triangle(ray_session):
    """A triangle with a pendant path: the 2-core is exactly the
    triangle (degree 2 each); the path peels away over rounds."""
    from multimedia_indexing_ray.stages import cc

    pairs = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)]
    ds = _pairs_ds(ray_session, pairs)
    out = {r["doc_id"]: r["core_degree"] for r in cc.kcore(ds).take_all()}
    assert out == {0: 2, 1: 2, 2: 2}


def test_kcore_distributed_sparse_block_input_completes(ray_session, monkeypatch):
    """Regression for the Ray 2.49 sort-scheduler deadlock: an iterative
    union+sort pipeline fed an edge set spread over many mostly-empty
    blocks hung forever before the `_compact` step (observed live on a
    32-block anchor-exchange pair set).  signal.alarm is the watchdog —
    on regression this test ABORTS instead of hanging the suite."""
    import signal

    from multimedia_indexing_ray.stages import cc

    pairs = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    ds = _pairs_ds(ray_session, pairs).repartition(32)

    def _abort(signum, frame):
        raise TimeoutError("kcore distributed deadlocked on sparse-block input")

    monkeypatch.setenv(FORCE, "1")
    old = signal.signal(signal.SIGALRM, _abort)
    signal.alarm(300)
    try:
        out = {
            r["doc_id"]: r["core_degree"]
            for r in cc.kcore(ds, k=2, rounds=1).take_all()
        }
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert out == {i: 2 for i in range(6)}  # two triangles, all 2-core


def test_kcore_pendant_star_unconverged_paths_agree(ray_session, monkeypatch):
    """Pendant star {0-1, 0-2} at k=2, rounds=1: the single peel kills
    the leaves, leaving the hub alive but edgeless.  BOTH paths must
    omit it (degree measured in the surviving subgraph is 0), matching
    the unrolled SQL oracle's final GROUP BY semantics."""
    from multimedia_indexing_ray.stages import cc

    ds = _pairs_ds(ray_session, [(0, 1), (0, 2)])
    out_coalesced = cc.kcore(ds, k=2, rounds=1).take_all()
    monkeypatch.setenv(FORCE, "1")
    out_distributed = cc.kcore(ds, k=2, rounds=1).take_all()
    assert out_coalesced == []
    assert out_distributed == []


@pytest.mark.parametrize("fn", ["kcore", "pagerank", "label_propagation"])
def test_distributed_rounds_keep_block_count(ray_session, monkeypatch, fn):
    """Each distributed round unions its state back into the next keyed
    exchange, which emits one block per input block.  Uncompacted, the
    state's block count (and every later round's task count) grew each
    round; kcore's doubled.  The output's block count must not depend
    on the number of rounds."""
    from multimedia_indexing_ray.stages import cc

    monkeypatch.setenv(FORCE, "1")
    ds = _pairs_ds(ray_session, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)])
    blocks = [
        getattr(cc, fn)(ds, rounds=r).materialize().num_blocks()
        for r in (1, 2)
    ]
    assert blocks[0] == blocks[1], blocks


def _brute_labelprop(pairs, rounds):
    """Reference sync label propagation: mode of neighbor labels, ties
    to the smallest label, exactly `rounds` updates."""
    adj = {}
    for a, b in pairs:
        if a == b:
            continue
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    lbl = {v: v for v in adj}
    for _ in range(rounds):
        new = {}
        for v, nbrs in adj.items():
            counts = {}
            for u in nbrs:
                counts[lbl[u]] = counts.get(lbl[u], 0) + 1
            new[v] = min(counts, key=lambda l: (-counts[l], l))
        lbl = new
    return lbl


@pytest.mark.parametrize("forced", [False, True], ids=["local", "distributed"])
@pytest.mark.parametrize("seed,n,m", [(3, 40, 55), (4, 120, 150)])
def test_label_propagation_vs_brute_force(ray_session, monkeypatch, seed, n, m, forced):
    from multimedia_indexing_ray.stages.cc import label_propagation

    if forced:
        monkeypatch.setenv(FORCE, "1")
    rng = np.random.default_rng(seed)
    pairs = [tuple(p) for p in rng.integers(0, n, size=(m, 2)) if p[0] != p[1]]
    got = {
        r["doc_id"]: r["community"]
        for r in label_propagation(_pairs_ds(ray_session, pairs), rounds=4).take_all()
    }
    want = _brute_labelprop(pairs, 4)
    assert got == want


def test_label_propagation_two_cliques_one_bridge(ray_session):
    """CC would merge the two triangles across the bridge; LP keeps them
    distinct communities."""
    from multimedia_indexing_ray.stages.cc import (
        connected_components,
        label_propagation,
    )

    tri1 = [(0, 1), (1, 2), (0, 2)]
    tri2 = [(10, 11), (11, 12), (10, 12)]
    bridge = [(2, 10)]
    pairs = tri1 + tri2 + bridge
    lp = {
        r["doc_id"]: r["community"]
        for r in label_propagation(_pairs_ds(ray_session, pairs), rounds=4).take_all()
    }
    # each triangle converges to ONE internal label, and the two stay
    # distinct communities (CC would fuse them across the bridge); the
    # exact labels follow the deterministic update (the bridge carries
    # label 2 into the second triangle)
    assert lp == _brute_labelprop(pairs, 4)
    assert lp[0] == lp[1] == lp[2] == 0
    assert lp[10] == lp[11] == lp[12] == 2
    assert lp[0] != lp[10]
    cc = connected_components(_pairs_ds(ray_session, pairs)).take_all()
    roots = {r["u"] for r in cc} | {r["v"] for r in cc}
    assert 0 in {min(roots)}  # single CC component rooted at 0


def test_mode_labels_tie_rule():
    from multimedia_indexing_ray.stages.cc import _mode_labels

    # target 7 sees labels [5, 3, 5, 3] -> tie on count, smaller label 3 wins
    tgt = np.array([7, 7, 7, 7, 8], dtype=np.int64)
    lbl = np.array([5, 3, 5, 3, 9], dtype=np.int64)
    t, l = _mode_labels(tgt, lbl)
    assert list(t) == [7, 8]
    assert list(l) == [3, 9]
