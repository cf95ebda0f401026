"""The harness, the spawner and the traced launcher, on tiny ops."""
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import run
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in BENCH["workloads"]] == [
        w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == [
        (name, unit) for name, (unit, _) in run.PER_LAYER.items()]
    setup_bound = next(m["bound"] for m in BENCH["end_to_end"]
                       if m["name"] == "setup_s")
    assert all(m["bound"] <= setup_bound for m in BENCH["end_to_end"])


def _run(ops, trace=False):
    spawner = run.Spawner(run.child_env())
    try:
        bench = run.Run("series-solve", 0, 0, trace, spawner)
        bench.ops = ops
        bench.measure_setup(0 if trace else 1)
        bench.measure()
    finally:
        spawner.close()
    return bench


def test_failed_op_is_counted():
    ok = ("table", "refined-pq", "--nmax", "3", "--budget", "1000")
    over_budget = ("table", "refined-pq", "--nmax", "6", "--budget", "10")
    bench = _run((ok, over_budget))
    assert bench.failed == 1
    failure = next(r["failure"] for r in bench.records if r["failure"])
    assert failure == "exit status 3"
    assert bench.end_to_end()["ok_ratio"]["value"] == 0.5


def test_traced_pass_gives_every_per_layer_metric():
    op = ("table", "refined-pq", "--nmax", "4", "--budget", "1000")
    bench = _run((op,), trace=True)
    assert bench.failed == 0
    metrics, absent = bench.per_layer()
    assert list(metrics) == list(run.PER_LAYER)
    assert set(absent) == {"paths.engine_hit_ratio"}
    assert metrics["lattice.elements"]["value"] == 1 + 2 + 5 + 14
    assert metrics["lattice.self_s"]["value"] > 0


def test_child_rss_excludes_the_harness():
    ballast = bytearray(128 << 20)
    ballast[::4096] = b"x" * len(range(0, len(ballast), 4096))
    spawner = run.Spawner(run.child_env())
    try:
        result = spawner.run([sys.executable, "-c", "pass"],
                             time.perf_counter() + 60)
    finally:
        spawner.close()
    assert result["status"] == 0
    assert result["rss_mb"] < 64


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "series-solve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout
