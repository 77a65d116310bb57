"""The four benchmark workloads.

Each workload owns its seeded inputs under its own work directory and
offers:

- ``prepare()``: generate and write the inputs (the benchmark's own
  work, kept off the set-up clock);
- ``warm()``: ops on those inputs, untimed, so Ray's workers are started
  and the package is imported before anything is timed;
- ``setup()``: the package's own set-up for the workload, timed by
  itself and returned as ``{"s": seconds, "ok": ...}``; it is repeated
  and ``setup_s`` is the median;
- ``round()``: the ops of one closed-loop round, as ``(kind, fn)``
  pairs; ``fn()`` times its own critical section and returns
  ``{"s": seconds, "items": n}``, with any off-clock output check
  folded into ``"ok"``;
- ``final_check()``: off-clock checks over outputs kept from the loop;
  returns how many ops produced a wrong result, and why;
- ``layers()``: per-layer figures from the spans and Ray operator stats
  recorded during traced rounds (None where a figure could not be
  taken).

Sizes are for a one-core machine; ``scale`` shrinks them for the smoke
test.
"""

from __future__ import annotations

import os
import shutil
import time

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data

import gen
import spans
from multimedia_indexing_ray.pipelines.features import features_at
from multimedia_indexing_ray.pipelines.queries import REGISTRY
from multimedia_indexing_ray.sources.transcripts import read_transcripts
from multimedia_indexing_ray.specs import DEFAULT_SPECS
from multimedia_indexing_ray.stages.features import (
    WindowKernelFn,
    compute_features,
    prefeaturize,
)
from multimedia_indexing_ray.stages.hotkeys import CHUNK_COL, assign_chunks, build_split_plan
from multimedia_indexing_ray.stages.partition import (
    DEFAULT_NUM_PARTITIONS,
    multi_key_partition_ids,
    partition_ids,
)
from multimedia_indexing_ray.state.incremental import (
    IncrementalFeaturizer,
    sharded_incremental,
)

KEYS = ["conv_id", "ts", "turn_idx"]


def _median(xs) -> "float | None":
    """Median, or None when there is no value or one is missing."""
    if not len(xs) or any(x is None for x in xs):
        return None
    return float(np.median(xs))


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _sorted(t: pa.Table) -> pa.Table:
    return t.sort_by([(k, "ascending") for k in KEYS])


def _cols_equal(a: pa.Table, b: pa.Table, cols) -> "list[str]":
    """Names of columns whose values differ (nulls compare equal)."""
    bad = []
    for c in cols:
        x, y = a[c].combine_chunks(), b[c].combine_chunks()
        if len(x) != len(y) or not x.equals(y):
            bad.append(c)
    return bad


def _collect(ds) -> pa.Table:
    """A Dataset's rows as one table (Ray may add empty, schema-less
    blocks for empty partitions)."""
    return pa.concat_tables([t for t in ray.get(ds.to_arrow_refs()) if t.num_columns])


@ray.remote
def _count_rows(*tables: pa.Table) -> int:
    return sum(t.num_rows for t in tables)


def _first_file(src_dir: str) -> str:
    return os.path.join(src_dir, sorted(os.listdir(src_dir))[0])


def _feature_pipeline_kw(threshold: int) -> dict:
    return dict(split_hot=True, hot_threshold=threshold, target_chunk_rows=threshold // 2)


class Workload:
    name = ""
    min_rounds = 1  # rounds the measured loop runs even past its time
    setup_repeats = 3  # timed set-ups per session; setup_s is their median

    def __init__(self, root: str, seed: int, scale: float, tracer: "spans.Tracer"):
        self.root = os.path.join(root, self.name)
        self.dir = os.path.join(self.root, "work")
        self.seed = seed
        self.scale = scale
        self.tr = tracer

    def prepare(self) -> None:
        """Fresh inputs in a fresh directory."""
        shutil.rmtree(self.root, ignore_errors=True)
        os.makedirs(self.dir)
        self.generate()

    def _n(self, x: float, lo: int = 1) -> int:
        return max(lo, int(round(x * self.scale)))

    def coverage(self) -> "list[float | None]":
        """Shares of traced ops' wall time covered by the per-layer
        figures (only backfill is checked)."""
        return []

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


class Backfill(Workload):
    """read_transcripts -> compute_features(split_hot=True) -> write_parquet."""

    name = "backfill"

    def generate(self) -> None:
        self.hot_turns = self._n(5000, 40)
        self.table = gen.transcripts(
            self.seed, self._n(1500, 20), self._n(43000, 400), 3, self.hot_turns
        )
        self.src = os.path.join(self.dir, "in")
        self.out = os.path.join(self.dir, "out")
        gen.write_files(self.table, self.src, 8)
        self.kw = _feature_pipeline_kw(int(self.hot_turns * 0.8))

    def warm(self) -> None:
        # one input file is enough to start Ray's workers and import the
        # package in them
        ds = compute_features(read_transcripts(_first_file(self.src)), **self.kw)
        ds.write_parquet(os.path.join(self.dir, "warm"))

    def setup(self) -> dict:
        """One pass over the inputs into a fresh output directory: the
        time to the first full result."""
        return self._pass()

    def _pass(self) -> dict:
        shutil.rmtree(self.out, ignore_errors=True)
        tr = self.tr
        t0 = time.perf_counter()
        with tr.span("backfill.pass") as root:
            with tr.span("sources.read_transcripts"):
                src = read_transcripts(self.src)
            # the split plan executes eagerly inside compute_features;
            # everything else is lazy until the write
            with tr.span("stages.hotkeys.plan"):
                ds = compute_features(src, **self.kw)
            with tr.span("sink.write_parquet"):
                ds.write_parquet(self.out)
        s = time.perf_counter() - t0
        if tr.enabled:
            root["operators"] = spans.operators(ds._write_ds)
            root["spilled_bytes"] = spans.spilled_bytes(ds._write_ds)
        n_out = sum(
            pq.ParquetFile(os.path.join(self.out, f)).metadata.num_rows
            for f in os.listdir(self.out)
            if f.endswith(".parquet")
        )
        return {"s": s, "items": self.table.num_rows, "ok": n_out == self.table.num_rows}

    def round(self):
        return [("pass", self._pass)]

    def final_check(self) -> "tuple[int, list[str]]":
        """Last pass's output vs the incremental featurizer in batch
        visibility (an independent code path), on a fixed sample of
        conversations that includes a hot one."""
        convs = pc.unique(self.table["conv_id"]).to_pylist()
        rng = np.random.default_rng(self.seed + 5)
        cold = [c for c in convs if not c.startswith("hot")]
        sample = sorted(rng.choice(cold, min(30, len(cold)), replace=False).tolist())
        sample.append(f"hot{self.seed}-0")
        mask = pc.is_in(self.table["conv_id"], value_set=pa.array(sample))
        want = _sorted(
            IncrementalFeaturizer(DEFAULT_SPECS, equal_ts="batch").append_batch(
                self.table.filter(mask)
            )
        )
        got = pq.read_table(self.out, filters=[("conv_id", "in", sample)])
        got = _sorted(got.select(want.column_names))
        if got.num_rows != want.num_rows:
            return 1, [f"sample rows {got.num_rows} != {want.num_rows}"]
        bad = _cols_equal(got, want, want.column_names)
        return (1, [f"sample mismatch in {bad}"]) if bad else (0, [])

    def _pass_figures(self, p: dict) -> dict:
        """One traced pass's layer figures; None where the operator a
        figure is taken from is not in the executed plan."""
        ops = p["operators"]
        src = spans.fused_op(ops, "ReadParquet")
        sink = spans.fused_op(ops, "Write")
        ex = spans.exchange(ops)
        kids = {k["name"]: k["end"] - k["start"] for k in self.tr.children(p["id"])}
        return {
            "stages.hotkeys.plan_s": kids["stages.hotkeys.plan"],
            # the driver-side call plus the read operator's own task time
            "sources.read_s": src and kids["sources.read_transcripts"] + src["task_s"]
            - src["udf_s"],
            "stages.features.prefeaturize_task_s": src and src["udf_s"],
            "sink.write_s": sink and sink["task_s"] - sink["udf_s"],
            # the fused kernel + write operator's whole task time
            "sink.task_s": sink and sink["task_s"],
            **{f"stages.partition.{k}": ex and ex[k] for k in spans.EXCHANGE_FIGURES},
        }

    def _traced_passes(self) -> "list[dict]":
        return [s for s in self.tr.spans if s["name"] == "backfill.pass" and "operators" in s]

    def layers(self) -> dict:
        per = [self._pass_figures(p) for p in self._traced_passes()]
        out = {f"backfill.{k}": _median([d[k] for d in per]) for k in per[0]}
        del out["backfill.sink.task_s"]
        out["backfill.pass_s"] = _median(
            [p["end"] - p["start"] for p in self._traced_passes()]
        )

        # the window kernel alone, in-process, on the same partition
        # tables the exchange builds: prefeaturize, chunk by the split
        # plan, group by the partition id, run WindowKernelFn per group
        plan = build_split_plan(read_transcripts(self.src), DEFAULT_SPECS,
                                hot_threshold=self.kw["hot_threshold"],
                                target_chunk_rows=self.kw["target_chunk_rows"])
        pre = prefeaturize(self.table)
        if not plan.empty:
            pre = _collect(assign_chunks(ray.data.from_arrow(pre), plan))
        keys = ["conv_id", CHUNK_COL] if CHUNK_COL in pre.column_names else ["conv_id"]
        pid = multi_key_partition_ids(pre, keys, DEFAULT_NUM_PARTITIONS)
        order = np.argsort(pid, kind="stable")
        bounds = np.flatnonzero(np.r_[True, pid[order][1:] != pid[order][:-1], True])
        groups = [pre.take(pa.array(order[a:b])) for a, b in zip(bounds[:-1], bounds[1:])]
        kernel = WindowKernelFn(DEFAULT_SPECS)
        times = []
        for _ in range(3):
            _, s = _timed(lambda: [kernel(g) for g in groups])
            times.append(s)
        out["backfill.stages.features.kernel_s"] = _median(times)
        return out

    def coverage(self) -> "list[float | None]":
        """Share of each traced pass's wall time that the reported layer
        figures account for: the read call and read task time, the split
        plan, prefeaturize, the exchange's wall time and the fused
        kernel + write operator's task time.  What is left is Ray's own
        scheduling of tasks and operators."""
        shares = []
        for p in self._traced_passes():
            f = self._pass_figures(p)
            parts = [f["stages.hotkeys.plan_s"], f["sources.read_s"],
                     f["stages.features.prefeaturize_task_s"],
                     f["stages.partition.exchange_wall_s"], f["sink.task_s"]]
            shares.append(
                None if None in parts else sum(parts) / (p["end"] - p["start"])
            )
        return shares


class PitServe(Workload):
    """features_at(split_hot=True) over pre-split Arrow probe blocks."""

    name = "pit_serve"

    def generate(self) -> None:
        hot = self._n(5000, 40)
        self.table = gen.transcripts(self.seed, self._n(1000, 20), self._n(29000, 400), 3, hot)
        self.src = os.path.join(self.dir, "in")
        gen.write_files(self.table, self.src, 8)
        self.probes = gen.probes(self.table, self.seed, 8)
        self.n_probes = sum(p.num_rows for p in self.probes)
        self.kw = _feature_pipeline_kw(int(hot * 0.8))
        self.results: "list[pa.Table]" = []

    def warm(self) -> None:
        # one input file and one probe block start Ray's workers and
        # import the package in them
        probes = ray.data.from_arrow(self.probes[:1])
        features_at(_first_file(self.src), probes, **self.kw).materialize()

    def setup(self) -> dict:
        """One serving call on the inputs: the time to the first answer."""
        return self._serve()

    def _serve(self) -> dict:
        probes = ray.data.from_arrow(self.probes)
        tr = self.tr
        t0 = time.perf_counter()
        with tr.span("pit_serve.call") as root:
            with tr.span("stages.hotkeys.plan"):
                ds = features_at(self.src, probes, **self.kw)
            with tr.span("stages.asof_join.execute"):
                ds = ds.materialize()
        s = time.perf_counter() - t0
        if tr.enabled:
            root["operators"] = spans.operators(ds)
            root["spilled_bytes"] = spans.spilled_bytes(ds)
        res = _collect(ds)
        self.results.append(res)
        return {"s": s, "items": self.n_probes, "ok": res.num_rows == self.n_probes}

    def round(self):
        return [("serve", self._serve)]

    def final_check(self) -> "tuple[int, list[str]]":
        """Each probe's match is the last turn at or before it (ties to the
        highest turn_idx) and carries that turn's backfill row; unknown
        conversations and probes before the first turn give typed nulls."""
        backfill = _collect(compute_features(read_transcripts(self.src), **self.kw))
        turns = self.table.select(KEYS).to_pandas()
        turns["ts"] = turns["ts"].astype("datetime64[us]")
        turns = turns.sort_values(["ts", "turn_idx"], kind="mergesort")
        feat_cols = [c for c in backfill.column_names if c not in KEYS]
        ref = backfill.to_pandas().set_index(["conv_id", "turn_idx"])
        n_bad, why = 0, []
        for res in self.results:
            got = res.to_pandas()
            q = got[["conv_id", "ts"]].copy()
            q["ts"] = q["ts"].astype("datetime64[us]")
            q["__row"] = np.arange(len(q))
            exp = pd.merge_asof(
                q.sort_values("ts", kind="mergesort"),
                turns.rename(columns={"turn_idx": "exp_turn_idx"}),
                on="ts", by="conv_id", direction="backward",
            ).sort_values("__row")
            exp_ti = exp["exp_turn_idx"].to_numpy()
            got_ti = got["matched_turn_idx"].to_numpy()
            matched = ~pd.isna(exp_ti)
            problems = []
            if not np.array_equal(pd.isna(got_ti), ~matched) or not np.array_equal(
                got_ti[matched].astype(np.int64), exp_ti[matched].astype(np.int64)
            ):
                problems.append("matched_turn_idx")
            else:
                keys = list(zip(got["conv_id"][matched], got_ti[matched].astype(np.int64)))
                want = ref.loc[keys, feat_cols].to_numpy()
                have = got.loc[matched, [f"matched_{c}" for c in feat_cols]].to_numpy()
                if not np.array_equal(have.astype(np.float64), want.astype(np.float64)):
                    problems.append("matched features")
                nulls = got.loc[~matched, [f"matched_{c}" for c in feat_cols]]
                if nulls.notna().to_numpy().any():
                    problems.append("unmatched probes carry values")
                if any(
                    pa.types.is_null(res.schema.field(f"matched_{c}").type) for c in feat_cols
                ):
                    problems.append("untyped null columns")
            if problems:
                n_bad += 1
                why.append(f"serve call: {problems}")
        self.results = []
        return n_bad, why

    def layers(self) -> dict:
        calls = [s for s in self.tr.spans if s["name"] == "pit_serve.call" and "operators" in s]
        per = []
        for c in calls:
            ops = c["operators"]
            kids = {k["name"]: k["end"] - k["start"] for k in self.tr.children(c["id"])}
            serve = spans.fused_op(ops, "_serve")
            ex = spans.exchange(ops)
            per.append(
                {
                    "stages.hotkeys.plan_s": kids["stages.hotkeys.plan"],
                    "pipelines.features.serve_task_s": serve and serve["task_s"],
                    **{f"stages.partition.{k}": ex and ex[k] for k in spans.EXCHANGE_FIGURES},
                    "call_s": c["end"] - c["start"],
                }
            )
        return {f"pit_serve.{k}": _median([d[k] for d in per]) for k in per[0]}


class Online(Workload):
    """Arrival-ordered ingest into sharded_incremental actors, then
    closed-loop current() lookups of 16 conversations each."""

    name = "online"
    N_SHARDS = 2
    BATCH_ROWS = 2000
    LOOKUPS_PER_ROUND = 150
    CONVS_PER_LOOKUP = 16

    def __init__(self, *args):
        super().__init__(*args)
        self.rounds = 0
        # (conv ids, matched_* values as float64) per lookup: keeping the
        # Arrow results instead would grow the driver with every round
        self.lookups: "list[tuple[list, np.ndarray]]" = []
        self.actors = None

    def generate(self) -> None:
        t = gen.transcripts(self.seed, self._n(750, 40), self._n(22000, 400), 0, 0)
        self.table = t.sort_by(
            [("ts", "ascending"), ("conv_id", "ascending"), ("turn_idx", "ascending")]
        )
        ts = self.table["ts"].cast(pa.int64()).to_numpy()
        # cut only between distinct timestamps: an equal-ts run must reach
        # its shard in one append (batch visibility)
        cuts, last = [0], 0
        for i in range(self.BATCH_ROWS, len(ts), self.BATCH_ROWS):
            while i < len(ts) and ts[i] == ts[i - 1]:
                i += 1
            if i < len(ts) and i > last:
                cuts.append(i)
                last = i
        cuts.append(len(ts))
        self.cuts = cuts
        self.convs = np.array(pc.unique(self.table["conv_id"]).to_pylist(), dtype=object)
        self.rng = np.random.default_rng(self.seed + 9)

    def _kill_actors(self) -> None:
        for a in self.actors or []:
            ray.kill(a)
        self.actors = None

    def setup(self) -> dict:
        """Fresh shard actors, ready to answer, holding one ingested
        round: the time until the store can serve lookups."""
        self._kill_actors()
        t0 = time.perf_counter()
        self.actors, self.route = sharded_incremental(
            DEFAULT_SPECS, num_shards=self.N_SHARDS, equal_ts="batch"
        )
        ray.get([a.current.remote([]) for a in self.actors])
        start_s = time.perf_counter() - t0
        rec = self._ingest()
        return {"s": start_s + rec["s"], "ok": rec["ok"]}

    def warm(self) -> None:
        # every set-up starts new actor processes, so there is nothing
        # to warm that the set-ups themselves would not
        pass

    def _batches(self, prefix: str) -> "list[pa.Table]":
        conv = pc.binary_join_element_wise(prefix, self.table["conv_id"], "")
        t = self.table.set_column(0, "conv_id", conv)
        return [t.slice(a, b - a) for a, b in zip(self.cuts[:-1], self.cuts[1:])]

    def _ingest(self) -> dict:
        self.rounds += 1
        self.prefix = f"r{self.rounds}/"
        batches = self._batches(self.prefix)
        with self.tr.span("state.incremental.ingest"):
            t0 = time.perf_counter()
            refs = [r for b in batches for r in self.route(b)]
            ray.get([a.current.remote([]) for a in self.actors])
            s = time.perf_counter() - t0
        # count the output rows in a worker: fetching them here would grow
        # the driver's resident set with every round
        n_out = ray.get(_count_rows.remote(*refs))
        return {"s": s, "items": self.table.num_rows, "ok": n_out == self.table.num_rows}

    def _lookup(self) -> dict:
        ids = self.prefix + self.rng.choice(self.convs, self.CONVS_PER_LOOKUP, replace=False)
        shard = partition_ids(ids, self.N_SHARDS)
        with self.tr.span("state.incremental.lookup"):
            t0 = time.perf_counter()
            parts = ray.get(
                [
                    self.actors[s].current.remote(ids[shard == s].tolist())
                    for s in range(self.N_SHARDS)
                    if (shard == s).any()
                ]
            )
            s = time.perf_counter() - t0
        res = pa.concat_tables(parts)
        self.matched = [c for c in res.column_names if c.startswith("matched_")]
        values = np.column_stack(
            [
                res[c].cast(pa.int64() if c == "matched_ts" else pa.float64())
                .to_numpy(zero_copy_only=False)
                .astype(np.float64)
                for c in self.matched
            ]
        )
        self.lookups.append((res["conv_id"].to_pylist(), values))
        return {"s": s, "items": res.num_rows, "ok": res.num_rows == len(ids)}

    def round(self):
        return [("ingest", self._ingest)] + [("lookup", self._lookup)] * self.LOOKUPS_PER_ROUND

    def final_check(self) -> "tuple[int, list[str]]":
        """Every lookup row equals the last backfill row of its
        conversation (ingest rounds only rename the conversations)."""
        if not self.lookups:
            return 0, []
        bf = _collect(compute_features(ray.data.from_arrow(self.table))).to_pandas()
        last = bf.sort_values(KEYS, kind="mergesort").groupby("conv_id").tail(1)
        last = last.set_index("conv_id")
        ids = [c.split("/", 1)[1] for conv, _ in self.lookups for c in conv]
        have = np.concatenate([v for _, v in self.lookups])
        lookup_of_row = np.repeat(
            np.arange(len(self.lookups)), [len(conv) for conv, _ in self.lookups]
        )
        self.lookups = []
        exp = last.loc[ids, [c[len("matched_"):] for c in self.matched]].copy()
        exp["ts"] = exp["ts"].astype("datetime64[us]").astype(np.int64)
        bad_row = (have != exp.to_numpy(np.float64)).any(axis=1)
        n_bad = len(np.unique(lookup_of_row[bad_row]))
        return n_bad, ["lookups differ from the last backfill row"] if n_bad else []

    def layers(self) -> dict:
        batches = self._batches("layer/")
        inc = IncrementalFeaturizer(DEFAULT_SPECS, equal_ts="batch")
        _, s = _timed(lambda: [inc.append_batch(b) for b in batches])
        rpc = []
        for _ in range(200):
            _, dt = _timed(lambda: ray.get([a.current.remote([]) for a in self.actors]))
            rpc.append(dt)
        return {
            "online.state.incremental.append_us_per_row": s / self.table.num_rows * 1e6,
            "online.state.incremental.rpc_floor_ms": _median(rpc) * 1e3,
        }

    def close(self) -> None:
        self._kill_actors()
        super().close()


# registry lines: the fixed-cost lines run on the small table set, two
# text-kernel lines on a larger document set; bpe_train_merges stays on
# the small set because its DuckDB oracle costs ~12 ms per document, and
# source_overlap_matrix because it is quadratic in sources per gram
FIXED_LINES = [
    "sessionize_30m",
    "sliding_1h",
    "asof_purchase_before_error",
    "pricing_summary",
    "region_revenue",
    "dedup_exact_docs",
    "target_encode_user",
    "shipping_priority",
]
TEXT_LINES = ["dup_span_docs", "shingle_novelty_docs"]
SMALL_TEXT_LINES = ["bpe_train_merges", "source_overlap_matrix"]


class Registry(Workload):
    """A fixed list of registry queries in a seed-given order, each
    checked against DuckDB running its oracle SQL."""

    name = "registry"
    # two whole mixes at least, so every line's median has two samples
    # even when the machine is slow
    min_rounds = 2 * len(FIXED_LINES + TEXT_LINES + SMALL_TEXT_LINES)

    def generate(self) -> None:
        self.small = os.path.join(self.dir, "small")
        self.docs = os.path.join(self.dir, "docs")
        tables = gen.star_tables(self.seed, self._n(15000, 200), self._n(10000, 200))
        tables["documents"] = gen.documents(self.seed, self._n(200, 40))
        gen.write_tables(tables, self.small)
        gen.write_tables({"documents": gen.documents(self.seed + 1, self._n(1000, 40))}, self.docs)
        lines = FIXED_LINES + TEXT_LINES + SMALL_TEXT_LINES
        order = np.random.default_rng(self.seed + 4).permutation(len(lines))
        self.lines = [lines[i] for i in order]
        self.results: "dict[str, list]" = {n: [] for n in self.lines}
        self.next_line = -1

    def _dir(self, name: str) -> str:
        return self.docs if name in TEXT_LINES else self.small

    def warm(self) -> None:
        # the text-kernel lines once, so the measured loop starts warm;
        # the set-ups run the fixed-cost lines, and the median over the
        # repetitions leaves out each line's first, cold run
        for name in TEXT_LINES + SMALL_TEXT_LINES:
            self._query(name)()

    def setup(self) -> dict:
        """The fixed-cost lines once each, in a fixed order: what a
        caller pays before the first answers of a query mix, where Ray's
        fixed per-query cost is most of the time.  Each line's time is
        kept, so ``setup_s`` can sum the lines' medians over the
        repetitions, as ``mix_total_s`` does."""
        parts = {name: self._query(name)()["s"] for name in FIXED_LINES}
        return {"s": sum(parts.values()), "parts": parts}

    def _query(self, name: str):
        def run() -> dict:
            with self.tr.span(f"pipelines.queries.{name}"):
                t0 = time.perf_counter()
                res = REGISTRY[name].fn(self._dir(name))
                df = res.to_pandas() if hasattr(res, "to_pandas") else res
                s = time.perf_counter() - t0
            self.results[name].append(df)
            return {"s": s, "items": 1, "name": name}

        return run

    def round(self):
        """One query: the lines run in the seed-given order, cyclically."""
        self.next_line = (self.next_line + 1) % len(self.lines)
        return [("query", self._query(self.lines[self.next_line]))]

    def final_check(self) -> "tuple[int, list[str]]":
        n_bad, why = 0, []
        cons = {}
        for d in (self.small, self.docs):
            con = cons[d] = duckdb.connect()
            for f in sorted(os.listdir(d)):
                t = f[: -len(".parquet")]
                con.execute(
                    f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{os.path.join(d, f)}')"
                )
        for name, runs in self.results.items():
            if not runs:
                continue
            oracle = cons[self._dir(name)].execute(REGISTRY[name].sql).df()
            for df in runs:
                problem = compare(df, oracle)
                if problem:
                    n_bad += 1
                    why.append(f"{name}: {problem}")
        for con in cons.values():
            con.close()
        self.results = {n: [] for n in self.lines}
        return n_bad, why

    def layers(self) -> dict:
        floor = []
        for _ in range(10):
            _, s = _timed(lambda: ray.data.range(8).map_batches(lambda b: b).materialize())
            floor.append(s)
        out = {"registry.ray.floor_s": _median(floor)}
        for name in self.lines:
            out[f"registry.pipelines.queries.{name}_s"] = _median(
                self.tr.durations(f"pipelines.queries.{name}")
            )
        return out


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if str(df[c].dtype).startswith("datetime"):
            df[c] = df[c].astype("datetime64[us]")
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def compare(mine: pd.DataFrame, oracle: pd.DataFrame) -> "str | None":
    """None when ``mine`` equals the oracle result as a multiset of rows
    (columns by name, exact values, same numeric kinds); else why not."""
    if len(mine) != len(oracle):
        return f"rows {len(mine)} != {len(oracle)}"
    a, b = _normalize(mine), _normalize(oracle)
    if list(a.columns) != list(b.columns):
        return f"columns {list(a.columns)} != {list(b.columns)}"
    for c in a.columns:
        x, y = a[c], b[c]
        kinds = {x.dtype.kind, y.dtype.kind}
        if x.dtype.kind != y.dtype.kind and kinds <= {"i", "u", "f"}:
            return f"{c}: dtype {x.dtype} vs {y.dtype}"
        try:
            same = bool((x.values == y.values).all() or x.equals(y.astype(x.dtype)))
        except (TypeError, ValueError):
            same = x.astype(str).equals(y.astype(str))
        if not same:
            return f"{c}: values differ"
    return None


WORKLOADS = {w.name: w for w in (Backfill, PitServe, Online, Registry)}
