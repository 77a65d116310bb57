"""Seeded input generators for the benchmark.

Everything the package under test sees is produced here from the run's
``--seed``: transcript Parquet files, point-in-time probe blocks and the
small star-schema tables behind the registry lines.  The same seed gives
byte-identical inputs.

The transcript shape follows ``multimedia_indexing_ray.fixtures``:
lognormal turns per conversation, a few hot conversations, exponential
inter-turn gaps with 5% session breaks, and a role / tool mix.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

ROLES = np.array(["user", "assistant", "system", "tool"])
ROLE_P = [0.4, 0.4, 0.05, 0.15]
TOOLS = np.array(["bash", "search", "edit", "read", "browser"])
WORDS = np.array(
    "alpha beta gamma delta epsilon zeta eta theta iota kappa lambda mu nu xi "
    "omicron pi rho sigma tau upsilon phi chi psi omega lorem ipsum dolor sit "
    "amet consectetur".split()
)
BASE_US = int(np.datetime64("2026-01-01T00:00:00", "us").astype(np.int64))
DAY_US = 86_400 * 1_000_000
HOUR_US = 3_600 * 1_000_000

TRANSCRIPT_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("role", pa.string()),
        ("text", pa.string()),
        ("tool", pa.string()),
        ("ts", pa.timestamp("us")),
    ]
)


def _texts(rng: np.random.Generator, n: int) -> list:
    words = WORDS[rng.integers(0, len(WORDS), 1 << 18)]
    corpus = " ".join(words.tolist())
    lengths = np.clip(rng.lognormal(4.0, 1.0, n), 0, 4096).astype(np.int64)
    lengths[rng.random(n) < 0.02] = 0
    offsets = rng.integers(0, len(corpus) - 4096, n)
    return [corpus[o : o + k] for o, k in zip(offsets.tolist(), lengths.tolist())]


def transcripts(
    seed: int, n_convs: int, n_cold_turns: int, n_hot: int, hot_turns: int
) -> pa.Table:
    """Shuffled transcript table: ``n_convs`` cold conversations with
    lognormal turn counts summing to exactly ``n_cold_turns`` (every seed
    does the same amount of work), plus ``n_hot`` conversations of
    exactly ``hot_turns`` turns."""
    rng = np.random.default_rng(seed)
    draw = np.clip(rng.lognormal(np.log(20.0), 0.9, n_convs), 1, 400)
    counts = np.maximum(1, np.floor(draw * n_cold_turns / draw.sum())).astype(np.int64)
    short = n_cold_turns - int(counts.sum())
    counts[np.argsort(-draw)[: abs(short)]] += np.sign(short)
    names = [f"c{seed}-{i:06d}" for i in range(n_convs)]
    names += [f"hot{seed}-{i}" for i in range(n_hot)]
    counts = np.concatenate([counts, np.full(n_hot, hot_turns, np.int64)])
    n = int(counts.sum())
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    turn_idx = np.arange(n) - np.repeat(starts, counts)

    role = ROLES[rng.choice(len(ROLES), n, p=ROLE_P)]
    tool = TOOLS[rng.integers(0, len(TOOLS), n)].astype(object)
    tool[~((role == "tool") | ((role == "assistant") & (rng.random(n) < 0.1)))] = None

    gaps = rng.exponential(45.0, n)
    brk = rng.random(n) < 0.05
    gaps[brk] = rng.uniform(2 * 3600.0, 48 * 3600.0, int(brk.sum()))
    gaps[rng.random(n) < 0.01] = 0.0  # 1% of turns share the previous turn's ts
    gaps[starts] = 0.0
    gaps_us = np.round(gaps * 1e6).astype(np.int64)
    csum = np.cumsum(gaps_us)
    rel = csum - np.repeat(csum[starts], counts)
    ts = np.repeat(BASE_US + rng.integers(0, 30 * DAY_US, len(counts)), counts) + rel

    table = pa.table(
        {
            "conv_id": pa.array(np.repeat(np.array(names, dtype=object), counts), pa.string()),
            "turn_idx": pa.array(turn_idx, pa.int32()),
            "role": pa.array(role, pa.string()),
            "text": pa.array(_texts(rng, n), pa.string()),
            "tool": pa.array(tool, pa.string()),
            "ts": pa.array(ts, pa.timestamp("us")),
        },
        schema=TRANSCRIPT_SCHEMA,
    )
    return table.take(pa.array(rng.permutation(n)))


def write_files(table: pa.Table, out_dir: str, n_files: int) -> None:
    os.makedirs(out_dir, exist_ok=True)
    bounds = np.linspace(0, table.num_rows, n_files + 1).astype(int)
    for i in range(n_files):
        part = table.slice(bounds[i], bounds[i + 1] - bounds[i])
        pq.write_table(part, os.path.join(out_dir, f"part-{i:03d}.parquet"))


def probes(table: pa.Table, seed: int, n_blocks: int) -> "list[pa.Table]":
    """(conv_id, ts) probes, split into ``n_blocks`` Arrow blocks: 1/8 of
    the turns, 90% of them shifted +1 s and 10% at the turn's exact ts
    (the turn itself is visible), plus 2% probes on unknown conversations
    and 2% probes an hour before a conversation's first turn (both must
    come back as typed nulls)."""
    rng = np.random.default_rng(seed + 1)
    n = table.num_rows
    pick = np.sort(rng.choice(n, n // 8, replace=False))
    conv = table["conv_id"].take(pa.array(pick)).to_numpy(zero_copy_only=False).astype(object)
    shift = np.where(rng.random(len(pick)) < 0.1, 0, 1_000_000)
    ts = table["ts"].cast(pa.int64()).to_numpy()[pick] + shift
    k = max(1, len(pick) // 50)
    unknown = np.array([f"unknown-{i}" for i in range(k)], dtype=object)
    first = pa.TableGroupBy(table.select(["conv_id", "ts"]), "conv_id").aggregate([("ts", "min")])
    sel = rng.choice(first.num_rows, min(k, first.num_rows), replace=False)
    early_conv = first["conv_id"].take(pa.array(sel)).to_numpy(zero_copy_only=False)
    early_ts = first["ts_min"].cast(pa.int64()).to_numpy()[sel] - HOUR_US
    conv = np.concatenate([conv, unknown, early_conv.astype(object)])
    ts = np.concatenate([ts, BASE_US + rng.integers(0, 30 * DAY_US, k), early_ts])
    perm = rng.permutation(len(conv))
    out = pa.table(
        {
            "conv_id": pa.array(conv[perm], pa.string()),
            "ts": pa.array(ts[perm], pa.timestamp("us")),
        }
    )
    bounds = np.linspace(0, out.num_rows, n_blocks + 1).astype(int)
    return [out.slice(a, b - a) for a, b in zip(bounds[:-1], bounds[1:])]


def _day_ts(rng, n: int, first: str, last: str) -> pa.Array:
    lo = np.datetime64(first, "D").astype(np.int64)
    hi = np.datetime64(last, "D").astype(np.int64)
    days = rng.integers(lo, hi + 1, n)
    return pa.array(days * DAY_US, pa.int64()).cast(pa.timestamp("us"))


def _money(rng, n: int, lo: float, hi: float) -> np.ndarray:
    return np.round(rng.uniform(lo, hi, n), 2)


def documents(seed: int, n_docs: int) -> pa.Table:
    """Word-salad documents over a 30-word vocabulary (so 16-char grams
    repeat across the corpus), 20 sources, 5 languages, ~0.2% exact
    duplicate texts."""
    rng = np.random.default_rng(seed + 2)
    n_words = rng.integers(8, 90, n_docs)
    words = WORDS[rng.integers(0, len(WORDS), int(n_words.sum()))].tolist()
    ends = np.cumsum(n_words).tolist()
    text, start = [], 0
    for end in ends:
        text.append(" ".join(words[start:end]))
        start = end
    dup = rng.choice(n_docs, max(1, n_docs // 500), replace=False)
    for i in dup.tolist():
        text[i] = text[(i + 1) % n_docs]
    return pa.table(
        {
            "doc_id": pa.array(np.arange(n_docs), pa.int64()),
            "text": pa.array(text, pa.string()),
            "lang": pa.array(
                np.array(["en", "zh", "es", "de", "fr"])[
                    rng.choice(5, n_docs, p=[0.44, 0.15, 0.14, 0.14, 0.13])
                ],
                pa.string(),
            ),
            "source": pa.array([f"src{i % 20}" for i in range(n_docs)], pa.string()),
            "n_chars": pa.array([len(t) for t in text], pa.int64()),
        }
    )


def star_tables(seed: int, n_orders: int, n_events: int) -> "dict[str, pa.Table]":
    """TPC-H-shaped region / nation / customer / orders / lineitem plus
    an ``events`` stream, with the column names and value domains the
    registry lines and their oracle SQL expect."""
    rng = np.random.default_rng(seed + 3)
    n_cust = max(10, n_orders // 10)
    n_li = 4 * n_orders
    n_users = max(10, n_events // 66)
    ev_ts = np.sort(BASE_US + rng.integers(0, 30 * DAY_US, n_events))
    return {
        "region": pa.table(
            {
                "r_regionkey": pa.array(np.arange(5), pa.int32()),
                "r_name": ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"],
            }
        ),
        "nation": pa.table(
            {
                "n_nationkey": pa.array(np.arange(25), pa.int32()),
                "n_name": [f"NATION_{i}" for i in range(25)],
                "n_regionkey": pa.array(np.arange(25) % 5, pa.int32()),
            }
        ),
        "customer": pa.table(
            {
                "c_custkey": pa.array(np.arange(n_cust), pa.int64()),
                "c_name": [f"Customer#{i:09d}" for i in range(n_cust)],
                "c_nationkey": pa.array(rng.integers(0, 25, n_cust), pa.int32()),
                "c_acctbal": _money(rng, n_cust, -999.0, 9999.0),
                "c_mktsegment": np.array(
                    ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
                )[rng.integers(0, 5, n_cust)],
            }
        ),
        "orders": pa.table(
            {
                "o_orderkey": pa.array(np.arange(n_orders), pa.int64()),
                "o_custkey": pa.array(rng.integers(0, n_cust, n_orders), pa.int64()),
                "o_orderstatus": np.array(["F", "O", "P"])[rng.integers(0, 3, n_orders)],
                "o_totalprice": _money(rng, n_orders, 1000.0, 500000.0),
                "o_orderdate": _day_ts(rng, n_orders, "1995-01-01", "2001-08-01"),
                "o_orderpriority": np.array(
                    ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
                )[rng.integers(0, 5, n_orders)],
            }
        ),
        "lineitem": pa.table(
            {
                "l_orderkey": pa.array(rng.integers(0, n_orders, n_li), pa.int64()),
                "l_partkey": pa.array(rng.integers(0, 2 * n_cust, n_li), pa.int64()),
                "l_suppkey": pa.array(rng.integers(0, 100, n_li), pa.int64()),
                "l_linenumber": pa.array(rng.integers(1, 8, n_li), pa.int32()),
                "l_quantity": rng.integers(1, 51, n_li).astype(np.float64),
                "l_extendedprice": _money(rng, n_li, 900.0, 100000.0),
                "l_discount": rng.integers(0, 11, n_li) / 100.0,
                "l_tax": rng.integers(0, 9, n_li) / 100.0,
                "l_returnflag": np.array(["A", "N", "R"])[rng.integers(0, 3, n_li)],
                "l_linestatus": np.array(["F", "O"])[rng.integers(0, 2, n_li)],
                "l_shipdate": _day_ts(rng, n_li, "1995-01-02", "2001-11-04"),
            }
        ),
        "events": pa.table(
            {
                "event_id": pa.array(np.arange(n_events), pa.int64()),
                "ts": pa.array(ev_ts, pa.timestamp("us")),
                "user_id": pa.array(rng.integers(0, n_users, n_events), pa.int64()),
                "event_type": np.array(["click", "error", "purchase", "signup", "view"])[
                    rng.integers(0, 5, n_events)
                ],
                "value": np.maximum(np.round(rng.lognormal(3.4, 1.0, n_events), 2), 0.01),
                "props": [f'{{"k": {k}}}' for k in rng.integers(10, 100, n_events).tolist()],
            }
        ),
    }


def write_tables(tables: "dict[str, pa.Table]", out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for name, t in tables.items():
        pq.write_table(t, os.path.join(out_dir, f"{name}.parquet"))
