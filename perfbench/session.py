"""One Ray session of a benchmark run (started and watched by run.py).

Reports to the parent as JSON lines on the file descriptor given by
``--events-fd``:

- ``start``: before every step the parent watches against the per-op
  time limit: Ray start-up, input generation, warm-up, each set-up
  repetition, each op of the loops, the checks and the per-layer
  measurements; any other event ends the step;
- ``ready``: Ray is up, with its start-up seconds;
- ``done``: one per op, set-up ops included (``phase`` "setup"), with
  the op's own timing and whether it succeeded;
- ``check``: ops whose outputs failed the off-clock correctness checks;
- ``rss``: the driver's peak anonymous resident memory over the
  measured loop;
- ``layers``: per-layer figures and the tracing overhead (traced runs).

On SIGUSR1 the Python stacks of every thread are appended to
``--stacks`` (faulthandler), so a stalled op leaves its stack behind.
"""

from __future__ import annotations

import argparse
import faulthandler
import itertools
import json
import os
import signal
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.getcwd())


class Session:
    def __init__(self, args):
        self.fd = args.events_fd
        self.op_timeout = args.op_timeout
        self.peak_anon_mb = 0.0

    def sample_memory(self) -> None:
        """Track the driver's peak anonymous resident memory.  Pages of
        Ray's shared object store are left out: they are mapped into the
        driver as the store fills, whatever the program does."""
        with open("/proc/self/status") as f:
            kb = next(int(line.split()[1]) for line in f if line.startswith("RssAnon:"))
        self.peak_anon_mb = max(self.peak_anon_mb, kb / 1024)

    def emit(self, **event) -> None:
        event["t"] = time.monotonic()
        os.write(self.fd, (json.dumps(event) + "\n").encode())

    def op(self, kind: str, phase: str, fn) -> bool:
        """Run ``fn`` as one watched op; its record (or its exception)
        becomes a ``done`` event.  False when it raised or was wrong."""
        self.emit(event="start", kind=kind, timeout=self.op_timeout)
        try:
            rec = fn() or {}
        except Exception as e:  # an op failure is counted, not fatal
            traceback.print_exc()
            self.emit(event="done", kind=kind, phase=phase, ok=False, error=repr(e)[:300])
            return False
        ok = bool(rec.pop("ok", True))
        self.emit(event="done", kind=kind, phase=phase, ok=ok, **rec)
        return ok

    def set_up(self, wl, repeats: int, phase: str = "setup") -> bool:
        """Inputs, warm-up and ``repeats`` timed set-ups, each a watched
        op; False as soon as one of them fails."""
        steps = [("prepare", wl.prepare), ("warm", wl.warm)]
        steps += [("setup", wl.setup)] * repeats
        return all(self.op(kind, phase, fn) for kind, fn in steps)

    def loop(self, wl, seconds: float, phase: str) -> None:
        """Closed loop: whole rounds, at least ``wl.min_rounds``, until
        ``seconds`` have passed."""
        t_end = time.perf_counter() + seconds
        for n in itertools.count(1):
            for kind, fn in wl.round():
                self.op(kind, phase, fn)
                self.sample_memory()
            if n >= wl.min_rounds and time.perf_counter() >= t_end:
                return

    def check(self, wl) -> None:
        self.emit(event="start", kind="check", timeout=self.op_timeout)
        try:
            n_bad, why = wl.final_check()
        except Exception as e:
            traceback.print_exc()
            n_bad, why = 1, [repr(e)[:300]]
        self.emit(event="check", failed=n_bad, why=why[:10])


def cpus() -> int:
    """The CPUs ``nproc`` reports (it honours OMP_NUM_THREADS, which is
    how a shared machine hands a container its share of the cores)."""
    try:
        return int(subprocess.check_output(["nproc"], text=True))
    except (OSError, subprocess.CalledProcessError, ValueError):
        return len(os.sched_getaffinity(0))


def init_ray(root: str) -> float:
    import ray

    t0 = time.perf_counter()
    temp = os.path.join(root, "ray")
    # Ray's socket paths must fit in 107 bytes; a deep checkout falls back
    # to Ray's default temporary directory
    kw = {"_temp_dir": temp} if len(temp) <= 44 else {}
    ray.init(
        address="local",
        num_cpus=cpus(),
        object_store_memory=512 * 1024**2,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        **kw,
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return time.perf_counter() - t0


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--root", required=True)
    p.add_argument("--events-fd", type=int, required=True)
    p.add_argument("--stacks", required=True)
    p.add_argument("--op-timeout", type=float, required=True)
    args = p.parse_args()

    stacks = open(args.stacks, "a")
    faulthandler.register(signal.SIGUSR1, file=stacks, all_threads=True)

    import ray

    import spans
    from workloads import WORKLOADS

    s = Session(args)
    s.emit(event="start", kind="ray_init", timeout=s.op_timeout)
    s.emit(event="ready", init_s=init_ray(args.root), cpus=cpus())
    try:
        tracer = spans.Tracer(False)
        wl = WORKLOADS[args.workload](args.root, args.seed, args.scale, tracer)
        if not s.set_up(wl, wl.setup_repeats):
            return 0
        s.loop(wl, args.seconds, "plain")
        s.emit(event="rss", mb=s.peak_anon_mb)
        s.check(wl)
        if args.trace:
            tracer.enabled = True
            s.loop(wl, args.seconds, "traced")
            s.check(wl)
            layers, coverage, others = {}, [], []

            def measure(w):
                # per-layer figures, themselves a watched op
                layers.update(w.layers())
                coverage.extend(w.coverage())

            s.op("layers", "traced", lambda: measure(wl))
            for name, cls in WORKLOADS.items():
                if name == args.workload:
                    continue
                other = cls(args.root, args.seed, args.scale, spans.Tracer(False))
                others.append(other)
                if s.set_up(other, 1, f"layers:{name}"):
                    other.tr.enabled = True
                    s.loop(other, 0.0, f"layers:{name}")
                    s.check(other)
                    s.op("layers", f"layers:{name}", lambda: measure(other))
                other.close()
            s.emit(
                event="layers",
                layers=layers,
                coverage=coverage,
                spans=tracer.spans + [sp for o in others for sp in o.tr.spans],
            )
        wl.close()
    finally:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
