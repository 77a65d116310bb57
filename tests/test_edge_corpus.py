"""Adversarial document corpus: run the SQL-oracled document-family
queries against a synthetic edge-case corpus (empty text, whitespace-only,
unicode, exact chunk boundaries, one huge doc, mass-repeated tokens) and
compare with DuckDB exactly like the driver does.  The sf* testdata is
benign prose — this is where tokenizer/fingerprint/chunk boundary rules
actually get exercised."""

import os

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as papq
import pytest

EDGE_DOCS = [
    "",  # empty
    " ",  # whitespace-only
    "\t\n  \n",  # mixed whitespace only
    "a",  # single short token
    "abcdefgh",  # exactly one 8-gram
    "abcdefg",  # one char short of a gram
    " ".join(f"t{i}" for i in range(32)),  # exactly one full chunk
    " ".join(f"t{i}" for i in range(33)),  # chunk boundary + 1
    " ".join(f"t{i}" for i in range(64)),  # exactly two chunks
    "héllo wörld çafé naïve " * 3,  # accented latin
    "日本語 テスト 文書 です",  # CJK tokens
    "🎉 emoji 🚀 beyond 🌍 bmp",  # astral-plane codepoints
    "same same same same same same same same",  # mass-repeated token
    "x " * 500,  # many tiny tokens
    "longword" * 600,  # one 4800-char token, no spaces
    "alpha beta\tgamma\ndelta  epsilon",  # mixed separators
    "trailing spaces   ",
    "   leading spaces",
]

QUERIES = [
    "chunk_docs",
    "inverted_index_terms",
    "decontaminate_docs",
    "winnow_fingerprint_docs",
    "repetition_docs",
    "simhash_docs",
    "feature_hash_docs",
    "token_count_bpe",
    "text_quality",
    "dedup_exact_docs",
    "pagerank_neardup",
    "triangle_counts_neardup",
    "corpus_curation_v2",
    "contamination_score_docs",
    "tfidf_top_terms",
    "term_cooccurrence",
    "bpe_pair_counts",
    "lm_perplexity_docs",
    "dup_span_docs",
    "dsir_importance_docs",
    "bm25_top_docs",
    "editdist_neardup",
    "langid_confusion",
    "langid_class_metrics",
    "nucleus_select_docs",
    "bpe_train_merges",
    "source_overlap_matrix",
    "shingle_novelty_docs",
    "dataset_card_by_source_lang",
    "dup_cluster_size_hist",
    "tokenizer_fertility_by_lang",
    "quantile_normalize_chars",
    "oov_rate_docs",
    "dup_span_scrub",
]

# U+0000 is an ordinary code point to SQL length/substr: a padded numpy
# 'U' matrix would read it as padding and drop it
NUL_DOCS = [
    "\x00" * 20,  # 13 identical 8-grams: one fingerprint
    "the quick brown\x00fox jumps!",  # 26 chars, NUL inside
    "quick brown\x00fox jumps!\x00",  # trailing NUL; shares 16-grams
]

NUL_QUERIES = [
    "winnow_fingerprint_docs",
    "decontaminate_docs",
    "contamination_score_docs",
    "corpus_curation_v2",
    "dup_span_docs",
    "dup_span_scrub",
    "shingle_novelty_docs",
    "source_overlap_matrix",
]


def _write_corpus(d: str, docs, ids, sources) -> str:
    n = len(docs)
    t = pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "text": pa.array(docs, pa.string()),
            "lang": pa.array(["en"] * n, pa.string()),
            "source": pa.array(sources, pa.string()),
            "n_chars": pa.array([len(s) for s in docs], pa.int64()),
        }
    )
    papq.write_table(t, os.path.join(d, "documents.parquet"))
    return d


def _connect(d: str):
    c = duckdb.connect()
    c.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{d}/documents.parquet')"
    )
    return c


@pytest.fixture(scope="module")
def edge_dir(tmp_path_factory):
    n = len(EDGE_DOCS)
    # doc_ids cover the decontamination benchmark residue (% 23 == 7):
    # id 7 is the EMPTY doc (empty blocklist edge) and id 30 is a
    # content-bearing benchmark doc (30 % 23 == 7) whose fingerprints
    # actually contaminate the chunk-boundary siblings — both the
    # empty-blocklist and the real-intersection paths get exercised
    ids = np.arange(1, n + 1, dtype=np.int64) * 7
    ids[6] = 30  # the exactly-32-token doc shares 8-grams with docs 7/8
    return _write_corpus(
        str(tmp_path_factory.mktemp("edge_corpus")), EDGE_DOCS, ids, ["edge"] * n
    )


@pytest.fixture(scope="module")
def edge_con(edge_dir):
    return _connect(edge_dir)


@pytest.fixture(scope="module")
def nul_dir(tmp_path_factory):
    # id 7 (% 23 == 7) puts the all-NUL doc in the benchmark set
    return _write_corpus(
        str(tmp_path_factory.mktemp("nul_corpus")), NUL_DOCS, [7, 8, 9], ["s0", "s1", "s2"]
    )


@pytest.fixture(scope="module")
def nul_con(nul_dir):
    return _connect(nul_dir)


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def _check_parity(corpus_dir, con, name):
    import __ray_entry__ as e

    res = e.queries()[name](corpus_dir)
    mine = _normalize(res.to_pandas() if hasattr(res, "to_pandas") else res)
    theirs = _normalize(con.execute(e.oracle_sql()[name]).df())
    assert list(mine.columns) == list(theirs.columns), f"{name}: columns"
    assert len(mine) == len(theirs), f"{name}: rows {len(mine)} != {len(theirs)}"
    for c in mine.columns:
        a, b = mine[c], theirs[c]
        if a.dtype.kind in "fc" or b.dtype.kind in "fc":
            np.testing.assert_allclose(
                a.astype(float).fillna(0).to_numpy(),
                b.astype(float).fillna(0).to_numpy(),
                rtol=0,
                atol=0,
                err_msg=f"{name}.{c}",
            )
        else:
            assert a.tolist() == b.tolist(), f"{name}.{c}"


@pytest.mark.parametrize("name", QUERIES)
def test_edge_corpus_query_parity(ray_session, edge_dir, edge_con, name):
    _check_parity(edge_dir, edge_con, name)


@pytest.mark.parametrize("name", NUL_QUERIES)
def test_nul_corpus_query_parity(ray_session, nul_dir, nul_con, name):
    _check_parity(nul_dir, nul_con, name)


@pytest.mark.parametrize(
    "name", ["tfidf_top_terms", "top_term_docs", "lm_perplexity_docs"]
)
def test_vocab_cap_forces_distributed_path(
    ray_session, edge_dir, edge_con, name, monkeypatch
):
    """GRAFT_MAX_VOCAB_BROADCAST=0 forces the tf-idf family onto its
    at-scale plan (doc-token pairs hash-joined with the df table on
    token, then a doc-keyed top-k) — it must produce the identical
    result as the broadcast fast path / SQL oracle."""
    monkeypatch.setenv("GRAFT_MAX_VOCAB_BROADCAST", "0")
    import __ray_entry__ as e

    res = e.queries()[name](edge_dir)
    mine = _normalize(res.to_pandas() if hasattr(res, "to_pandas") else res)
    theirs = _normalize(edge_con.execute(e.oracle_sql()[name]).df())
    assert list(mine.columns) == list(theirs.columns), f"{name}: columns"
    assert len(mine) == len(theirs), f"{name}: rows {len(mine)} != {len(theirs)}"
    for c in mine.columns:
        assert mine[c].tolist() == theirs[c].tolist(), f"{name}.{c}"


def test_bpe_pair_counts_nul_in_token(ray_session, tmp_path):
    """U+0000 is NOT whitespace: a token may contain it, and the pair
    kernel must count pairs touching it (regression: a NUL join-sentinel
    silently dropped them)."""
    import duckdb

    d = tmp_path / "nul_corpus"
    d.mkdir()
    t = pa.table(
        {
            "doc_id": pa.array([1, 2], pa.int64()),
            "text": pa.array(["a\x00b cd", "plain text"], pa.string()),
            "lang": pa.array(["en", "en"], pa.string()),
            "source": pa.array(["t", "t"], pa.string()),
            "n_chars": pa.array([6, 10], pa.int64()),
        }
    )
    papq.write_table(t, str(d / "documents.parquet"))

    import __ray_entry__ as e

    mine = e.queries()["bpe_pair_counts"](str(d)).to_pandas()
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{d}/documents.parquet')"
    )
    theirs = con.execute(e.oracle_sql()["bpe_pair_counts"]).df()
    mine = mine.sort_values(["pair"]).reset_index(drop=True)
    theirs = theirs.sort_values(["pair"]).reset_index(drop=True)
    assert len(mine) == len(theirs)
    assert (mine["pair"].to_numpy() == theirs["pair"].to_numpy()).all()
    assert (mine["n"].to_numpy() == theirs["n"].to_numpy()).all()
    # the NUL-touching pairs are present
    assert "a\x00" in set(mine["pair"]) and "\x00b" in set(mine["pair"])
