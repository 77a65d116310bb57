"""Ray-free contention probe: run the identical partition kernel in K
concurrent OS processes; report per-process wall time.  If per-process
time inflates with K, the slowdown is the box's memory system, not the
engine or Ray."""
import sys, time, os
import multiprocessing as mp

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def worker(q):
    import numpy as np, pyarrow as pa, pyarrow.parquet as pq, pyarrow.compute as pc
    from multimedia_indexing_ray.stages.partition import partition_ids
    from multimedia_indexing_ray.stages.features import prefeaturize, WindowKernelFn
    from multimedia_indexing_ray.specs import DEFAULT_SPECS

    t = pq.read_table("/tmp/graft_bench_transcripts/transcripts-0000.parquet")
    pre = prefeaturize(t)
    pids = partition_ids(pre["conv_id"].to_numpy(zero_copy_only=False), 8)
    part = pre.filter(pa.array(pids == 0))
    k = WindowKernelFn(DEFAULT_SPECS)
    k(part)  # warm
    t0 = time.perf_counter()
    for _ in range(10):
        k(part)
    q.put((time.perf_counter() - t0) / 10)


def run(K):
    q = mp.Queue()
    ps = [mp.Process(target=worker, args=(q,)) for _ in range(K)]
    for p in ps:
        p.start()
    times = [q.get() for _ in ps]
    for p in ps:
        p.join()
    import statistics
    return statistics.median(times)


if __name__ == "__main__":
    for K in (1, 4, 16, 32):
        print(f"K={K:2d} median per-process kernel time: {run(K)*1000:.0f} ms")
