"""Benchmark entry point.

    python3 perfbench/run.py --workload <backfill|pit_serve|online|registry>
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Starts one Ray session process
(session.py), watches every op against a time limit, and prints a
report line and then, as the last line of standard output, one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).

Watchdog: every step of a session -- Ray start-up, input generation,
warm-up, each set-up, each op, the checks and the per-layer
measurements -- has the ``--op-timeout`` limit.  A step that passes it
gets its Python stacks dumped into ``.perfbench/stacks-*.txt``; then the
session and every process it started are killed, the step counts as a
failed op, and a fresh session continues the measured loop for the time
that is left.  A run in which anything was attempted prints its
result, with None for a metric that was never measured.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_LIMIT_S = 170.0  # the whole run, set-up and checks included
MAX_SESSIONS = 3
# traced backfill: the reported layer figures must account for at least
# this share of each pass's wall time (the rest is Ray's scheduling of
# tasks and operators), and for no more than the pass's wall time times
# the CPUs, plus 5%
COVERAGE_MIN = 0.65
N_REGISTRY_LINES = 12


def _median(xs):
    return statistics.median(xs) if xs else None


def setup_seconds(setups: "list[dict]") -> "float | None":
    """Median set-up time.  A set-up made of named parts (the registry's
    lines) gives the sum of each part's median over the repetitions."""
    if not setups:
        return None
    if "parts" not in setups[0]:
        return _median([e["s"] for e in setups])
    return sum(_median([e["parts"][k] for e in setups]) for k in setups[0]["parts"])


def _session_pids(sid: int) -> "list[int]":
    pids = []
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # fields 3 and 6 of stat: state and session id; a zombie has
        # already ended
        if int(fields[3]) == sid and fields[0] != "Z":
            pids.append(int(d))
    return pids


def _stop_session(sid: int, grace_s: float = 10.0) -> None:
    """Wait for every process of the session to end; kill what is left."""
    t_end = time.monotonic() + grace_s
    while _session_pids(sid) and time.monotonic() < t_end:
        time.sleep(0.2)
    for pid in _session_pids(sid):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    while _session_pids(sid):
        time.sleep(0.1)


class Run:
    def __init__(self, args):
        self.args = args
        self.root = os.path.abspath(".perfbench")
        self.tag = f"{args.workload}-{args.seed}-t{args.trace}"
        self.stacks = os.path.join(self.root, f"stacks-{self.tag}.txt")
        self.t0 = time.monotonic()
        self.events: "list[dict]" = []
        self.timeouts = 0
        self.crashes = 0

    def session(self, seconds: float) -> None:
        """One session process, watched until it ends."""
        a = self.args
        r, w = os.pipe()
        cmd = [
            sys.executable, os.path.join(HERE, "session.py"),
            "--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(seconds), "--trace", str(a.trace),
            "--scale", str(a.scale), "--root", self.root,
            "--events-fd", str(w), "--stacks", self.stacks,
            "--op-timeout", str(a.op_timeout),
        ]
        proc = subprocess.Popen(
            cmd, pass_fds=(w,), start_new_session=True, stdout=sys.stderr
        )
        os.close(w)
        buf, current = b"", None
        try:
            while True:
                now = time.monotonic()
                limit = self.t0 + RUN_LIMIT_S
                if current is not None:
                    limit = min(limit, current[1])
                ready, _, _ = select.select([r], [], [], max(0.0, limit - now))
                if not ready:
                    self._stall(proc, current)
                    break
                chunk = os.read(r, 1 << 16)
                if not chunk:
                    if proc.wait() != 0:
                        self.crashes += 1
                        if current is not None:
                            self.events.append({"event": "done", "kind": current[0], "ok": False,
                                                "phase": "plain", "error": "session died"})
                    break
                buf += chunk
                *lines, buf = buf.split(b"\n")
                for line in lines:
                    ev = json.loads(line)
                    if ev["event"] == "start":
                        current = (ev["kind"], time.monotonic() + ev["timeout"])
                        continue
                    current = None
                    self.events.append(ev)
        finally:
            os.close(r)
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            _stop_session(proc.pid)

    def _stall(self, proc, current) -> None:
        """Dump the session's stacks, then count the op as failed."""
        os.kill(proc.pid, signal.SIGUSR1)
        time.sleep(1.0)
        kind = current[0] if current else "run"
        print(f"watchdog: {kind} passed its time limit; stacks in {self.stacks}",
              file=sys.stderr)
        self.timeouts += 1
        self.events.append({"event": "done", "kind": kind, "ok": False,
                            "phase": "plain", "error": "timeout"})

    def execute(self) -> None:
        self.session(self.args.seconds)
        n = 1
        while (self.timeouts or self.crashes) and n < MAX_SESSIONS:
            left = RUN_LIMIT_S - (time.monotonic() - self.t0)
            if left < 60:
                break
            # continue the measured loop for the time that is left in a
            # fresh Ray session
            spent = sum(
                e.get("s", 0) for e in self.events
                if e["event"] == "done" and e.get("phase") == "plain"
            )
            n += 1
            before = (self.timeouts, self.crashes)
            self.session(max(1.0, self.args.seconds - spent))
            if (self.timeouts, self.crashes) == before:
                break


def end_to_end(workload: str, events: "list[dict]", phase: str) -> dict:
    ops = [e for e in events if e["event"] == "done" and e.get("phase") == phase and e["ok"]]

    def of(kind):
        return [e for e in ops if e["kind"] == kind]

    if workload == "registry":
        names = sorted({e["name"] for e in of("query")})
        per_line = {n: _median([e["s"] for e in of("query") if e["name"] == n]) for n in names}
        mix = sum(per_line.values()) if len(names) == N_REGISTRY_LINES else None
        # the median over lines, not over executions: which lines ran one
        # extra time depends on the seed-given order
        p50 = _median(list(per_line.values()))
        return {
            "throughput_per_s": N_REGISTRY_LINES / mix if mix else None,
            "op_p50_ms": p50 * 1e3 if p50 else None,
            "report": {"mix_total_s": mix, "query_p50_s": p50,
                       "queries": len(of("query")), "per_line_s": per_line},
        }
    thr_kind, lat_kind, item = {
        "backfill": ("pass", "pass", "turns"),
        "pit_serve": ("serve", "serve", "probes"),
        "online": ("ingest", "lookup", "ingest_rows"),
    }[workload]
    rates = [e["items"] / e["s"] for e in of(thr_kind)]
    lat = sorted(e["s"] for e in of(lat_kind))
    report = {f"{item}_per_s": _median(rates), f"{thr_kind}_samples": len(rates),
              f"{lat_kind}_p50_ms": _median(lat) * 1e3 if lat else None,
              f"{lat_kind}_samples": len(lat)}
    # the highest percentile with at least ten samples beyond it
    for q in (99, 90):
        if len(lat) >= 10 * 100 // (100 - q):
            report[f"{lat_kind}_p{q}_ms"] = statistics.quantiles(lat, n=100)[q - 1] * 1e3
            break
    return {
        "throughput_per_s": _median(rates),
        "op_p50_ms": _median(lat) * 1e3 if lat else None,
        "report": report,
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["backfill", "pit_serve", "online", "registry"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="input size factor (the smoke test uses a small one)")
    p.add_argument("--op-timeout", type=float, default=60.0,
                   help="seconds one op may take before the watchdog kills it")
    args = p.parse_args()
    if not os.path.isdir("multimedia_indexing_ray"):
        print("run from the root of a checkout of the repository", file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    run = Run(args)
    os.makedirs(run.root, exist_ok=True)
    run.execute()
    if os.path.exists(run.stacks) and not os.path.getsize(run.stacks):
        os.remove(run.stacks)
    ev = run.events
    done = [e for e in ev if e["event"] == "done"]
    if not done:
        print("the session ended before it attempted anything", file=sys.stderr)
        return 3

    setups = [e for e in done if e["kind"] == "setup" and e["phase"] == "setup" and e["ok"]]
    ready = next((e for e in ev if e["event"] == "ready"), {})
    checks = [e for e in ev if e["event"] == "check"]
    attempted = len(done)
    failed = sum(not e["ok"] for e in done) + sum(e["failed"] for e in checks)
    plain = end_to_end(args.workload, ev, "plain")
    values = {
        "throughput_per_s": plain["throughput_per_s"],
        "peak_rss_mb": max((e["mb"] for e in ev if e["event"] == "rss"), default=None),
        "setup_s": setup_seconds(setups),
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        **plain["report"],
        "failed_frac": failed / max(attempted, 1),
        "ray_init_s": ready.get("init_s"),
        "setups_s": [e["s"] for e in setups],
        "timeouts": run.timeouts,
        # seconds since the run started at which each phase ended
        "phase_end_s": {
            e["event"]: round(e["t"] - run.t0, 2)
            for e in ev
            if e["event"] in ("ready", "rss", "check")
        } | {"total": round(time.monotonic() - run.t0, 2)},
        "why": [w for e in checks for w in e["why"]] + [e["error"] for e in done if "error" in e],
    }
    correct = failed == 0 and attempted > 0
    listed = spec["end_to_end"]

    if args.trace:
        listed = spec["per_layer"]
        layers = next((e for e in ev if e["event"] == "layers"), {"layers": {}, "coverage": []})
        traced = end_to_end(args.workload, ev, "traced")
        report["tracing_overhead"] = {
            k: traced[k] / plain[k] - 1.0
            for k in ("throughput_per_s", "op_p50_ms")
            if traced[k] and plain[k]
        }
        report["backfill_layer_coverage"] = layers["coverage"]
        top = 1.05 * ready.get("cpus", 1)
        covered = all(c is not None and COVERAGE_MIN <= c <= top for c in layers["coverage"])
        correct = correct and covered and bool(layers["coverage"])
        values = layers["layers"]
        # figures that give the listed ones their scale (wall time of a
        # traced pass or call), reported but not metrics
        names = {m["name"] for m in listed}
        report["layer_context"] = {k: v for k, v in values.items() if k not in names}
        with open(os.path.join(run.root, f"trace-{run.tag}.json"), "w") as f:
            json.dump({"report": report, **layers}, f)

    metrics = {}
    for m in listed:
        v = values.get(m["name"])
        if v is None or v != v:  # missing or NaN
            correct, v = False, None
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
