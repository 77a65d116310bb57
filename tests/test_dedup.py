"""Dedup operator tests: T3 first-by-key gate, exact stats, minhash/
simhash near-dup detection on planted duplicates, embedding near-dup."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from multimedia_indexing_ray.fixtures import generate_dup_transcripts


def test_dedup_by_key_first_by_ts(ray_session):
    """T3: duplicated (conv_id, turn_idx) -> first-by-ts wins."""
    import ray.data as rd

    from multimedia_indexing_ray.stages.dedup import dedup_by_key

    dup = generate_dup_transcripts()
    out = dedup_by_key(
        rd.from_arrow(dup), ["conv_id", "turn_idx"], ["ts"]
    ).to_pandas()
    df = dup.to_pandas()
    # expected: pandas groupby first-by-ts
    exp = (
        df.sort_values(["conv_id", "turn_idx", "ts"], kind="mergesort")
        .drop_duplicates(subset=["conv_id", "turn_idx"], keep="first")
        .sort_values(["conv_id", "turn_idx"], kind="mergesort")
        .reset_index(drop=True)
    )
    got = out.sort_values(["conv_id", "turn_idx"], kind="mergesort").reset_index(drop=True)
    assert len(got) == len(exp)
    assert got["text"].tolist() == exp["text"].tolist()
    assert not got["text"].str.endswith("DUPLICATE-VARIANT").any() or (
        # a key-dup variant survives only if its ts was earliest — the
        # fixture adds +1s so the original always wins
        False
    )


def _planted_docs():
    base = [
        "the quick brown fox jumps over the lazy dog again and again today",
        "completely different text about ray data pipelines and arrow tables",
        "a third document mentioning windowed aggregation over conversations",
    ]
    docs = []
    for i, t in enumerate(base):
        docs.append({"doc_id": i, "text": t})
    # near-duplicate of doc 0 (one token changed)
    docs.append({"doc_id": 100, "text": base[0].replace("lazy", "sleepy")})
    # exact duplicate of doc 1
    docs.append({"doc_id": 101, "text": base[1]})
    return pa.Table.from_pylist(docs)


def test_minhash_finds_planted_near_dups(ray_session):
    import ray.data as rd

    from multimedia_indexing_ray.stages.dedup import minhash_lsh_pairs

    pairs = minhash_lsh_pairs(
        rd.from_arrow(_planted_docs()), "text", "doc_id", threshold=0.5, concurrency=1
    ).to_pandas()
    found = set(map(tuple, pairs[["a_id", "b_id"]].to_numpy()))
    assert (0, 100) in found  # near-dup
    assert (1, 101) in found  # exact dup
    assert not any({a, b} == {0, 1} for a, b in found)  # unrelated not paired


def test_simhash_pairs_detect_exact_and_near(ray_session):
    import ray.data as rd

    from multimedia_indexing_ray.stages.dedup import simhash_pairs

    pairs = simhash_pairs(
        rd.from_arrow(_planted_docs()), "text", "doc_id", max_hamming=6
    ).to_pandas()
    found = set(map(tuple, pairs[["a_id", "b_id"]].to_numpy()))
    assert (1, 101) in found  # exact dup -> hamming 0
    assert (0, 100) in found  # near-dup -> small hamming


def test_exact_dedup_stats(ray_session):
    import ray.data as rd

    from multimedia_indexing_ray.stages.dedup import exact_dedup_stats

    out = exact_dedup_stats(
        rd.from_arrow(_planted_docs()), "text", "doc_id"
    ).to_pandas()
    assert len(out) == 4  # 5 docs, one exact dup collapses
    row = out[out["doc_id"] == 1]
    assert row["n_copies"].iloc[0] == 2


def test_embedding_neardup_blocked(ray_session):
    import ray.data as rd

    from multimedia_indexing_ray.stages.dedup import embedding_neardup_pairs

    rng = np.random.default_rng(3)
    vecs = rng.standard_normal((20, 8)).astype(np.float32)
    vecs[7] = vecs[3] + 0.001  # planted near-dup, same label block
    labels = np.zeros(20, dtype=np.int32)
    labels[10:] = 1
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(20), pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in vecs]),
            "label": pa.array(labels),
        }
    )
    pairs = embedding_neardup_pairs(
        rd.from_arrow(t), "embedding", "vec_id", "label", threshold=0.99
    ).to_pandas()
    assert (3, 7) in set(map(tuple, pairs[["a_id", "b_id"]].to_numpy()))


def test_embedding_neardup_lsh_finds_planted_pairs(ray_session):
    """Planted near-identical vectors must surface from the SRP-LSH
    blocked path (no label key), with no false positives at a high
    threshold."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from multimedia_indexing_ray.stages.dedup import embedding_neardup_lsh

    rng = np.random.default_rng(7)
    dim = 32
    base = rng.normal(size=(40, dim))
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    dups = base[:10] + rng.normal(scale=0.01, size=(10, dim))  # 100+i ~= i
    mat = np.vstack([base, dups])
    ids = np.concatenate([np.arange(40), 100 + np.arange(10)])
    t = pa.table(
        {
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(mat.reshape(-1), pa.float64()), dim
            ),
        }
    )
    out = embedding_neardup_lsh(
        rd.from_arrow(t), "embedding", "vec_id", dim,
        threshold=0.99, n_bands=8, bits_per_band=4,
    ).to_pandas()
    got = set(zip(out["a_id"], out["b_id"]))
    planted = {(i, 100 + i) for i in range(10)}
    assert got == planted, (planted - got, got - planted)


def test_embedding_neardup_lsh_bucket_cap(ray_session):
    """A degenerate bucket (every vector identical direction) is dropped
    at the cap instead of doing O(b^2) work."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from multimedia_indexing_ray.stages.dedup import embedding_neardup_lsh

    dim = 8
    mat = np.tile(np.ones((1, dim)), (300, 1))
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(300), pa.int64()),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(mat.reshape(-1), pa.float64()), dim
            ),
        }
    )
    out = embedding_neardup_lsh(
        rd.from_arrow(t), "embedding", "vec_id", dim,
        threshold=0.5, n_bands=2, bits_per_band=2,
        bucket_cap=100,
    ).to_pandas()
    assert len(out) == 0  # all buckets oversize -> dropped, not exploded


def test_minhash_planted_skew_bucket_completes(ray_session):
    """One degenerate band bucket with thousands of members (identical
    docs) must be dropped at the cap, not explode O(b^2) — and distinct
    near-dup pairs elsewhere must still be found."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from multimedia_indexing_ray.stages.dedup import minhash_lsh_pairs

    n_skew = 5000
    texts = ["the same degenerate document text repeated here"] * n_skew
    # two planted near-dup docs (distinct from the skew blob)
    texts += [
        "alpha beta gamma delta epsilon zeta eta theta iota kappa",
        "alpha beta gamma delta epsilon zeta eta theta iota lambda",
    ]
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    out = minhash_lsh_pairs(
        rd.from_arrow(t), "text", "doc_id",
        threshold=0.5, concurrency=2, bucket_cap=512,
    ).to_pandas()
    pair = (n_skew, n_skew + 1)
    got = set(zip(out["a_id"], out["b_id"]))
    assert pair in got
    # nothing from the capped degenerate bucket
    assert all(a >= n_skew for a, _ in got)


def test_exact_jaccard_verify_rejects_and_keeps(ray_session, monkeypatch):
    """Candidates -> exact-Jaccard verify: a true near-dup pair passes
    with its EXACT jaccard value; a below-threshold candidate pair is
    rejected even though LSH proposed it."""
    import pyarrow as pa
    import ray.data as rd

    from multimedia_indexing_ray.stages.dedup import exact_jaccard_verify

    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array(
                [
                    "alpha beta gamma delta epsilon zeta",
                    "alpha beta gamma delta epsilon eta",  # near-dup of 1
                    "one two three four five six",
                    "completely different words here now",
                ],
                pa.string(),
            ),
        }
    )
    cands = pa.table(
        {
            "a_id": pa.array([1, 3], pa.int64()),
            "b_id": pa.array([2, 4], pa.int64()),
        }
    )
    # both paths: driver-side fast path and the distributed 2-shuffle path
    for forced in ("0", "1"):
        monkeypatch.setenv("GRAFT_FORCE_SCALE_PLAN", forced)
        out = (
            exact_jaccard_verify(
                rd.from_arrow(cands), rd.from_arrow(docs), "text", "doc_id",
                threshold=0.3,
            )
            .to_pandas()
            .sort_values(["a_id", "b_id"])
            .reset_index(drop=True)
        )
        assert out[["a_id", "b_id"]].values.tolist() == [[1, 2]], forced
        # shingles(1): {a b g, b g d, g d e, d e z}; shingles(2): 3 shared + {d e eta}
        assert abs(out["jaccard"][0] - 3 / 5) < 1e-15, forced


def test_anchor_jaccard_mass_duplicate_anchor_skew(ray_session):
    """One anchor shared by hundreds of docs (boilerplate header): the
    CSR-style in-block verify must return the exact pair set without a
    per-pair Python blowup; values must match a brute-force check."""
    import itertools
    import time

    import pyarrow as pa
    import ray.data as rd

    from multimedia_indexing_ray.stages.dedup import anchor_jaccard_pairs

    rng = np.random.default_rng(5)
    n = 400
    # every doc starts with the same boilerplate (shared min-shingle
    # anchor "AAA AAA AAA"), then differs
    texts = [
        "AAA AAA AAA " + " ".join(f"w{rng.integers(0, 50)}" for _ in range(10))
        for _ in range(n)
    ]
    texts[10] = texts[11]  # one exact dup pair
    docs = pa.table(
        {"doc_id": pa.array(np.arange(n, dtype=np.int64)), "text": pa.array(texts)}
    )
    t0 = time.perf_counter()
    out = (
        anchor_jaccard_pairs(
            rd.from_arrow(docs), "text", "doc_id", threshold=0.6
        )
        .to_pandas()
        .sort_values(["a_id", "b_id"])
        .reset_index(drop=True)
    )
    elapsed = time.perf_counter() - t0

    # brute-force truth over the 79800 pairs
    def shset(tx):
        toks = tx.split()
        return {" ".join(toks[i : i + 3]) for i in range(len(toks) - 2)}

    sets = [shset(tx) for tx in texts]
    truth = []
    for i, j in itertools.combinations(range(n), 2):
        inter = len(sets[i] & sets[j])
        jac = inter / len(sets[i] | sets[j])
        if jac > 0.6:
            truth.append((i, j, jac))
    assert [[a, b] for a, b, _ in truth] == out[["a_id", "b_id"]].values.tolist()
    np.testing.assert_allclose(out["jaccard"].to_numpy(), [j for _, _, j in truth], rtol=0, atol=0)
    assert (10, 11) in {(a, b) for a, b, _ in truth}
    assert elapsed < 60  # numpy-speed, not per-pair Python set ops


def test_exact_jaccard_verify_vectorized_matches_distributed(ray_session, monkeypatch):
    """The chunked vectorized fast-path intersect equals the distributed
    2-shuffle path on a randomized corpus (120 docs, 300 candidate
    pairs, shared vocabulary => nontrivial intersections)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from multimedia_indexing_ray.stages.dedup import exact_jaccard_verify

    rng = np.random.default_rng(5)
    vocab = [f"w{i}" for i in range(30)]
    texts = [
        " ".join(rng.choice(vocab, size=rng.integers(4, 15)))
        for _ in range(120)
    ]
    for i in range(20):  # planted near-dups: doc i+60 = doc i with a suffix
        texts[i + 60] = texts[i] + " tail"
    docs = pa.table(
        {
            "doc_id": pa.array(np.arange(120, dtype=np.int64)),
            "text": pa.array(texts, pa.string()),
        }
    )
    a = np.concatenate([rng.integers(0, 120, 300), np.arange(20)])
    b = np.concatenate([rng.integers(0, 120, 300), np.arange(20) + 60])
    keep = a != b
    cands = pa.table(
        {
            "a_id": pa.array(np.minimum(a, b)[keep].astype(np.int64)),
            "b_id": pa.array(np.maximum(a, b)[keep].astype(np.int64)),
        }
    )
    outs = []
    # threshold 0 keeps every distinct pair so the two paths' EXACT
    # jaccard values (not just the surviving set) must agree row-for-row
    for forced in ("0", "1"):
        monkeypatch.setenv("GRAFT_FORCE_SCALE_PLAN", forced)
        out = (
            exact_jaccard_verify(
                rd.from_arrow(cands), rd.from_arrow(docs), "text", "doc_id",
                threshold=0.0,
            )
            .to_pandas()
            .sort_values(["a_id", "b_id"])
            .reset_index(drop=True)
        )
        outs.append(out)
    assert len(outs[0]) == len(cands.to_pandas().drop_duplicates())
    assert outs[0].equals(outs[1])
    assert (outs[0]["jaccard"] > 0).sum() > 0  # some overlap exists


def test_containment_finds_subset_dup_jaccard_misses(ray_session):
    """The semantic point of the containment measure: doc A quoted
    verbatim inside a much longer doc B has Jaccard ~ |A|/|B| (below any
    useful threshold) but containment = 1.0 — `anchor_containment_pairs`
    must report the pair, `anchor_jaccard_pairs` at 0.3 must not."""
    import ray.data as rd

    from multimedia_indexing_ray.stages.dedup import (
        anchor_containment_pairs,
        anchor_jaccard_pairs,
    )

    rng = np.random.default_rng(11)
    quote = " ".join(f"q{i}" for i in range(12))  # 12 tokens, 10 shingles
    # B embeds A verbatim at the START so A's min shingles survive in B,
    # then adds 200 distinct tokens -> Jaccard = 10/~208, containment = 1
    long_tail = " ".join(f"t{rng.integers(0, 10_000)}_{i}" for i in range(200))
    noise = [
        " ".join(f"n{rng.integers(0, 500)}" for _ in range(30)) for _ in range(40)
    ]
    texts = [quote, quote + " " + long_tail] + noise
    docs = pa.table(
        {
            "doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
            "text": pa.array(texts),
        }
    )
    for coalesce in (True, False):
        cont = (
            anchor_containment_pairs(
                rd.from_arrow(docs), "text", "doc_id",
                threshold=0.8, coalesce=coalesce,
            )
            .to_pandas()
            .sort_values(["a_id", "b_id"])
            .reset_index(drop=True)
        )
        assert [0, 1] in cont[["a_id", "b_id"]].values.tolist(), coalesce
        row = cont[(cont.a_id == 0) & (cont.b_id == 1)].iloc[0]
        assert row["containment"] == 1.0, coalesce
    jac = anchor_jaccard_pairs(
        rd.from_arrow(docs), "text", "doc_id", threshold=0.3
    ).to_pandas()
    # symmetric Jaccard is blind to the subset dup (empty result = no
    # pairs at all, which also proves the point)
    if len(jac):
        assert jac[(jac["a_id"] == 0) & (jac["b_id"] == 1)].empty


def test_containment_brute_force_and_partition_invariance(ray_session, monkeypatch):
    """Pairs from `anchor_containment_pairs` must equal the brute-force
    containment over BRUTE-FORCE blocking with the same 2-anchor rule,
    identically at several input block counts (exchange plan forced)
    and on both plans."""
    import ray.data as rd

    from multimedia_indexing_ray.stages.dedup import anchor_containment_pairs

    rng = np.random.default_rng(7)
    texts = []
    for _ in range(120):
        toks = [f"w{rng.integers(0, 40)}" for _ in range(rng.integers(4, 25))]
        texts.append(" ".join(toks))
    texts[5] = texts[6]  # exact dup
    texts[9] = texts[8] + " extra tokens here now"  # prefix-subset dup
    docs = pa.table(
        {
            "doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
            "text": pa.array(texts),
        }
    )

    def shset(tx):
        toks = tx.split()
        if not toks:
            return set()
        if len(toks) < 3:
            return {" ".join(toks)}
        return {" ".join(toks[i : i + 3]) for i in range(len(toks) - 2)}

    sets = [shset(tx) for tx in texts]
    anchors = [tuple(sorted(s)[:2]) for s in sets]
    truth = set()
    for i in range(len(texts)):
        for j in range(i + 1, len(texts)):
            if not sets[i] or not sets[j]:
                continue
            if not (set(anchors[i]) & set(anchors[j])):
                continue
            c = len(sets[i] & sets[j]) / min(len(sets[i]), len(sets[j]))
            if c >= 0.8:
                truth.add((i, j))
    assert truth, "fixture must plant at least one pair"

    monkeypatch.setenv("GRAFT_FORCE_SCALE_PLAN", "1")
    for coalesce in (True, False):
        for nparts in (1, 3, 8):
            out = anchor_containment_pairs(
                rd.from_arrow(docs).repartition(nparts), "text", "doc_id",
                threshold=0.8, coalesce=coalesce,
            ).to_pandas()
            got = set(zip(out.a_id.tolist(), out.b_id.tolist()))
            assert got == truth, (coalesce, nparts)
            # exactly one row per pair (multi-anchor double-hit collapsed)
            assert len(out) == len(got), (coalesce, nparts)


def test_dup_span_scrub_planted_and_mass_conformance(ray_session, tmp_path, monkeypatch):
    """ExactSubstr removal: a paragraph repeated across two docs must be
    cut from both; unique docs come back verbatim; and per doc
    len(clean_text) == n_kept == n_chars - dup_chars (cross-operator
    conformance with q_dup_span_docs), on BOTH plans."""
    import os

    import pyarrow.parquet as papq

    from multimedia_indexing_ray.pipelines.queries import REGISTRY

    K = 16
    dup_para = "the exact same boilerplate paragraph repeated verbatim"
    assert len(dup_para) >= K
    texts = [
        "unique prefix one " + dup_para + " unique suffix one",
        "completely different start " + dup_para,
        "a fully unique document with no repeated grams at all here",
        "",  # empty doc -> clean '' / 0 kept
        "short",  # < K chars -> no grams -> kept verbatim
    ]
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
            "text": pa.array(texts),
            "n_chars": pa.array([len(s) for s in texts], pa.int64()),
        }
    )
    sf = str(tmp_path)
    papq.write_table(t, os.path.join(sf, "documents.parquet"))

    def run(name):
        res = REGISTRY[name].fn(sf)
        df = res.to_pandas()
        return df.sort_values("doc_id").reset_index(drop=True)

    for forced in ("0", "1"):
        monkeypatch.setenv("GRAFT_FORCE_SCALE_PLAN", forced)
        scrub = run("dup_span_scrub")
        span = run("dup_span_docs")
        # the repeated paragraph (and the spill of overlapping grams) is
        # gone from both carriers
        assert dup_para not in scrub.loc[0, "clean_text"], forced
        assert dup_para not in scrub.loc[1, "clean_text"], forced
        # unique / short / empty docs intact
        assert scrub.loc[2, "clean_text"] == texts[2], forced
        assert scrub.loc[3, "clean_text"] == "" and scrub.loc[3, "n_kept"] == 0, forced
        assert scrub.loc[4, "clean_text"] == "short", forced
        # n_kept == len(clean_text), and mass conformance vs dup_span_docs
        assert (scrub["n_kept"] == scrub["clean_text"].str.len()).all(), forced
        merged = scrub.merge(span, on="doc_id")
        assert (merged["n_kept"] == merged["n_chars"] - merged["dup_chars"]).all(), forced
