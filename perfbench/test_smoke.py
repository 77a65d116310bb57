"""Smoke test of the benchmark on tiny inputs.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload untraced, one traced run (which touches every
layer), the watchdog path on a stalled set-up and the refusal to run
outside a checkout, and checks the printed result against
BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(REPO, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(*args: str, cwd: str = REPO) -> "tuple[int, list[str]]":
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--scale", "0.05", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return p.returncode, p.stdout.strip().splitlines()


def result(lines: "list[str]") -> dict:
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    assert isinstance(res["failed"], int)
    for m in res["metrics"].values():
        assert set(m) == {"value", "unit"}
    return res


def expect_metrics(res: dict, listed: "list[dict]") -> None:
    assert {m["name"]: m["unit"] for m in listed} == {
        k: v["unit"] for k, v in res["metrics"].items()
    }
    for k, v in res["metrics"].items():
        assert isinstance(v["value"], float) and v["value"] == v["value"], k


# every workload the benchmark can run, also pit_serve and online, which
# BENCHMARK.json does not list but every traced run sets up
@pytest.mark.parametrize("workload", ["backfill", "pit_serve", "online", "registry"])
def test_untraced_run_prints_end_to_end_metrics(workload):
    code, lines = run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0")
    assert code == 0
    res = result(lines)
    assert res["correct"] and res["failed"] == 0, lines[-2]
    expect_metrics(res, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_run_prints_every_layer_metric():
    code, lines = run("--workload", "backfill", "--seed", "4", "--seconds", "1", "--trace", "1")
    assert code == 0
    res = result(lines)
    assert res["correct"] and res["failed"] == 0, lines[-2]
    expect_metrics(res, SPEC["per_layer"])
    report = json.loads(lines[-2])["report"]
    assert set(report["tracing_overhead"]) == {"throughput_per_s", "op_p50_ms"}
    assert os.path.exists(os.path.join(REPO, ".perfbench", "trace-backfill-4-t1.json"))


def test_watchdog_counts_a_stalled_set_up_and_still_prints_a_result():
    # a limit this short stalls the very first step (Ray's start-up) of
    # every session: the run must still end with a result
    stacks = os.path.join(REPO, ".perfbench", "stacks-backfill-5-t0.txt")
    if os.path.exists(stacks):
        os.remove(stacks)
    code, lines = run("--workload", "backfill", "--seed", "5", "--seconds", "1",
                      "--trace", "0", "--op-timeout", "0.01")
    assert code == 0
    res = result(lines)
    assert not res["correct"] and res["failed"] >= 1
    assert {m["name"] for m in SPEC["end_to_end"]} == set(res["metrics"])
    assert json.loads(lines[-2])["report"]["timeouts"] >= 1
    with open(stacks) as f:
        assert "in init_ray" in f.read()  # the stalled step's stack


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(os.path.join(REPO, "perfbench"), tmp_path / "perfbench")
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    code, lines = run("--workload", "backfill", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=str(tmp_path))
    assert code != 0 and not lines
