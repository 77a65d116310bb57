"""Scale rehearsal: prove every metadata-gated broadcast / coalesce fast
path flips to its distributed sibling under pressure WITHOUT changing one
bit of output, then run the dedup chain on a 10x-replicated corpus and
record partition-size histograms for the main keyed exchanges.

Two kinds of evidence (both demanded by VERDICT r3 item 5):

1. **Forced-gate equality** — every size gate goes through
   `stages.partition.fits`, and ``GRAFT_FORCE_SCALE_PLAN=1`` sets every
   cap to 0.  Each gated query runs twice in FRESH subprocesses (switch
   unset -> the in-process fast paths; switch on -> the at-scale plans)
   and the normalized results must hash-match.
2. **10x pressure run** — documents replicated 10x (exact-duplicate
   replicas: every text appears 10 times, so LSH buckets, pair sets and
   CC clusters all inflate) through minhash -> CC -> curation with
   DEFAULT gates, wall times + per-exchange partition-size histograms
   recorded (skew evidence: max/median partition rows).

Usage:
    python scripts/scale_rehearsal.py             # full rehearsal
    python scripts/scale_rehearsal.py --run NAME SF_DIR   # (internal)

Owns its Ray session(s) via subprocesses.  Results land in
SCALE_REHEARSAL.json (summarized into BASELINE.md).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
# gate-flip EQUALITY is a correctness property, not a perf one — check it
# at the small SF (fast subprocesses); the 10x pressure run uses SF_DIR
GATE_SF = os.environ.get("GRAFT_REHEARSAL_SF", "/root/testdata/sf0.01")

# every registry query with a size gate (found by recording each `fits`
# call over one run of the whole registry at sf0.001: 127 of 197 oracle
# queries call it with an input under its cap; every keyed stage does,
# through `map_partitions_by_key`'s `LOCAL_BYTES` gate)
GATED = (
    "asof_last3_purchases",
    "asof_nearest_purchase",
    "asof_next_purchase_after_error",
    "asof_purchase_before_error",
    "asof_purchase_before_error_1h",
    "backfill_purchase",
    "basket_part_pairs",
    "bm25_top_docs",
    "bpe_pair_counts",
    "bpe_train_merges",
    "chi2_term_lang",
    "churn_label_7d",
    "containment_neardup",
    "corpus_curation",
    "corpus_curation_v2",
    "cum_distinct_types_per_user",
    "daily_purchase_error_join",
    "daily_user_spend_rank",
    "dataset_card_by_source_lang",
    "dau_wau_stickiness",
    "debounce_events",
    "dedup_canonical_best",
    "dedup_clusters",
    "dedup_exact_docs",
    "dense_user_ids",
    "distinct_users",
    "distinct_users_hourly",
    "dup_cluster_size_hist",
    "dup_span_docs",
    "dup_span_scrub",
    "editdist_neardup",
    "embedding_neardup",
    "embedding_neardup_lsh",
    "event_transition_probs",
    "event_type_streak",
    "ewma_value_per_user",
    "fk_integrity_audit",
    "gini_by_type",
    "global_sliding_1h",
    "group_sample_k",
    "group_split_assign",
    "hourly_concurrent_sessions",
    "inverted_index_terms",
    "kcore_neardup",
    "key_skew_report",
    "labelprop_neardup",
    "lag_lead_value",
    "late_supplier_blame",
    "lm_perplexity_docs",
    "mad_outlier_per_type",
    "media_audio_dups",
    "media_mixed_dups",
    "media_phash_dups",
    "media_video_dups",
    "median_value_per_user",
    "minhash_dedup_docs",
    "mutual_knn_pairs",
    "nation_revenue_share",
    "new_user_rate_daily",
    "ngram_jaccard_pairs",
    "ntile_value_per_type",
    "nucleus_select_docs",
    "oov_rate_docs",
    "order_total_reconciliation",
    "orders_per_customer_hist",
    "outlier_events_p99",
    "pack_context_windows",
    "pagerank_neardup",
    "purchases_between_errors",
    "quantile_normalize_chars",
    "quantile_sketch_conformance",
    "range_join_purchases_near_errors",
    "region_revenue",
    "resample_1h_ffill",
    "resample_1h_interp",
    "retention_cohorts",
    "rolling_corr_3d",
    "rolling_iqr_1h",
    "rolling_median_1h",
    "rolling_minmax_1h",
    "rolling_mode_1h",
    "rolling_p90_1h",
    "rolling_pctrank_1h",
    "rolling_rowframe_5",
    "rrf_fusion_docs",
    "semdedup_docs",
    "session_day_split",
    "session_funnel",
    "session_length_hist",
    "session_stats_30m",
    "session_trigrams",
    "sessionize_30m",
    "shingle_novelty_docs",
    "shipping_priority",
    "sliding_1h",
    "sliding_distinct_users_1h",
    "small_quantity_parts",
    "snapshot_diff",
    "source_overlap_matrix",
    "spend_trend_per_user",
    "target_encode_user",
    "temporal_split_assign",
    "term_cooccurrence",
    "tfidf_top_terms",
    "time_in_state_by_type",
    "time_to_purchase_by_cohort",
    "token_shard_docs",
    "top_customers",
    "top_term_docs",
    "topk_per_user",
    "triangle_counts_neardup",
    "tumbling_1h",
    "turn_features",
    "tv_drift_by_type",
    "twa_value_1h",
    "type_diversity_per_user",
    "url_fetch_phash_dups",
    "user_feature_store",
    "user_session_profile",
    "user_tenure_features",
    "user_type_pivot",
    "user_type_unpivot",
    "users_without_high_value",
    "value_quantiles_by_type",
    "window_funnel_levels",
    "zscore_value_per_user",
    "zscore_value_pit",
)


def _result_hash(df) -> str:
    """Driver-compare-equivalent canonical hash: columns sorted by name,
    rows sorted by all columns, exact values."""
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if str(df[c].dtype).startswith("datetime"):
            df[c] = df[c].astype("datetime64[us]")
    df = df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)
    return hashlib.md5(df.to_csv(index=False).encode()).hexdigest()


def run_one(name: str, sf_dir: str) -> None:
    """(internal --run mode) execute one query, print a JSON line."""
    import ray

    ray.init(address="local", num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
             include_dashboard=False, logging_level="ERROR", log_to_driver=False)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)
    from multimedia_indexing_ray.pipelines.queries import REGISTRY

    t0 = time.perf_counter()
    res = REGISTRY[name].fn(sf_dir)
    df = res.to_pandas() if hasattr(res, "to_pandas") else res
    sec = time.perf_counter() - t0
    print(json.dumps({"name": name, "rows": len(df), "hash": _result_hash(df),
                      "sec": round(sec, 3)}))
    ray.shutdown()


def _spawn(name: str, sf_dir: str, forced: bool) -> dict:
    env = dict(os.environ, RAY_GRAFT_CPUS=os.environ.get("RAY_GRAFT_CPUS", "16"),
               GRAFT_FORCE_SCALE_PLAN="1" if forced else "0")
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--run", name, sf_dir],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def build_10x(src_sf: str, out_dir: str, replicas: int = 10) -> str:
    """documents.parquet replicated `replicas`x with distinct doc_ids and
    IDENTICAL text — maximal dup pressure for the LSH/CC/curation chain."""
    import pyarrow as pa
    import pyarrow.parquet as papq

    os.makedirs(out_dir, exist_ok=True)
    marker = os.path.join(out_dir, "_DONE")
    if os.path.exists(marker) and open(marker).read() == f"v1-{replicas}":
        return out_dir
    t = papq.read_table(os.path.join(src_sf, "documents.parquet"))
    ids = t["doc_id"].to_numpy()
    parts = []
    for r in range(replicas):
        t2 = t.set_column(
            t.schema.get_field_index("doc_id"), "doc_id",
            pa.array(ids + r * 100_000_000, pa.int64()),
        )
        parts.append(t2)
    papq.write_table(pa.concat_tables(parts), os.path.join(out_dir, "documents.parquet"))
    with open(marker, "w") as f:
        f.write(f"v1-{replicas}")
    return out_dir


def pressure_10x(out: dict) -> None:
    """Run the dedup chain over the 10x corpus with DEFAULT gates; record
    wall times and partition-size histograms of the main exchanges.

    Expected: `corpus_curation_v2` returns 0 rows HERE (and only here) —
    the 10x replication plants a benchmark copy (doc_id % 23 == 7) into
    ~43% of replica groups (id shift 100e6 ≡ 2 mod 23 walks the even
    residues), so the benchmark winnowing-fingerprint union covers ~all
    of the shared synthetic vocabulary's fingerprints (measured: 99.9%
    mean containment of non-benchmark docs); every document is >= 80%
    contained and decontamination correctly drops the whole corpus.
    That is the contamination rule working as specified, not a dedup
    failure — minhash/cc on the same corpus return full row counts."""
    import numpy as np
    import ray

    ray.init(address="local", num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
             include_dashboard=False, logging_level="ERROR", log_to_driver=False)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)

    d10 = build_10x(SF_DIR, "/tmp/graft_docs10x")
    from multimedia_indexing_ray.pipelines.queries import REGISTRY
    from multimedia_indexing_ray.stages.partition import stable_hash

    runs = {}
    for name in ("minhash_dedup_docs", "dedup_clusters", "corpus_curation_v2"):
        t0 = time.perf_counter()
        res = REGISTRY[name].fn(d10)
        df = res.to_pandas() if hasattr(res, "to_pandas") else res
        runs[name] = {"rows": len(df), "sec": round(time.perf_counter() - t0, 3)}

    # partition-size histogram of the LSH band-bucket exchange (the
    # chain's widest shuffle): rows per hash partition at 32 partitions
    from multimedia_indexing_ray.pipelines.queries import _rp
    from multimedia_indexing_ray.stages.dedup import MinHashSketcher

    docs = _rp(d10, "documents", ["doc_id", "text"])
    sk = MinHashSketcher("text", "doc_id")
    import pyarrow as pa

    sizes = np.zeros(32, dtype=np.int64)
    for b in docs.iter_batches(batch_size=2048, batch_format="pyarrow"):
        t = sk(b)
        h = stable_hash(t["band_hash"].to_numpy())
        sizes += np.bincount((h % np.uint64(32)).astype(np.int64), minlength=32)
    out["pressure_10x"] = {
        "docs": int(docs.count()),
        "runs": runs,
        "note": (
            "corpus_curation_v2 rows=0 is expected on THIS corpus: 10x "
            "replication plants benchmark copies into ~43% of replica "
            "groups, the benchmark fingerprint union covers ~99.9% of "
            "every doc's winnowed fingerprints (shared synthetic vocab), "
            "so the >=80% containment rule drops all docs — "
            "decontamination semantics, not a dedup failure"
        ),
        "band_bucket_exchange_partition_rows": {
            "min": int(sizes.min()), "median": float(np.median(sizes)),
            "max": int(sizes.max()),
            "max_over_median_skew": round(float(sizes.max() / max(np.median(sizes), 1)), 3),
        },
    }
    ray.shutdown()


def main() -> None:
    results = {"sf": SF_DIR, "gate_sf": GATE_SF, "gates": {}, "all_equal": True}
    for name in GATED:
        fast = _spawn(name, GATE_SF, False)
        slow = _spawn(name, GATE_SF, True)
        equal = fast["hash"] == slow["hash"] and fast["rows"] == slow["rows"]
        results["gates"][name] = {
            "rows": fast["rows"], "hash_equal": equal,
            "fast_path_sec": fast["sec"], "distributed_sec": slow["sec"],
        }
        results["all_equal"] &= equal
        print(f"{name:28s} rows={fast['rows']:7d} equal={equal} "
              f"fast={fast['sec']:6.2f}s forced={slow['sec']:6.2f}s", file=sys.stderr)
    pressure_10x(results)
    print(json.dumps(results))
    with open(os.path.join(REPO, "SCALE_REHEARSAL.json"), "w") as f:
        json.dump(results, f, indent=1)
    sys.exit(0 if results["all_equal"] else 1)


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--run":
        run_one(sys.argv[2], sys.argv[3])
    else:
        main()
