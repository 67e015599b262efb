"""Tests of the benchmark itself: seeded inputs, exact counts, tracing,
the BENCHMARK.json contract and the command line.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracing  # noqa: E402
from workloads import N_BLOCKS, WORKLOADS, make_edges  # noqa: E402

from repro.core.decompose import decompose  # noqa: E402
from repro.graphs.datasets import load, paper_figure2  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: (rounds, supersteps, messages, volume) at every seed. SL and AM are
#: EXPERIMENTS.md's Exp-3 rows (SL SC-B, AM AC-V).
EXACT = {
    "sl-sc-block-local": (49, 55, 160_618, 575_882),
    "am-ac-vertex-local": (24, 30, 190_075, 698_340),
    "fig2-sc-block-spark": (3, 9, 85, 136),
}


def _counts(res) -> tuple[int, int, int, int]:
    return (res.total_rounds,
            sum(len(s.msgs_per_round) for s in res.stats.values()),
            res.total_messages, res.total_volume)


def test_seed_zero_is_the_analog():
    assert make_edges(WORKLOADS["sl-sc-block-local"], 0) == list(load("SL"))
    assert make_edges(WORKLOADS["am-ac-vertex-local"], 0) == list(load("AM"))
    assert make_edges(WORKLOADS["fig2-sc-block-spark"], 0) == paper_figure2()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_relabel_keeps_blocks_and_degrees(name):
    def profile(edges):
        ind, outd = Counter(v for _, v in edges), Counter(u for u, _ in edges)
        return sorted((v % N_BLOCKS, ind[v], outd[v]) for v in set(ind) | set(outd))

    base, other = make_edges(WORKLOADS[name], 0), make_edges(WORKLOADS[name], 7)
    assert other != base
    assert other == make_edges(WORKLOADS[name], 7)
    assert len(set(other)) == len(other) == len(base)
    assert profile(other) == profile(base)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", sorted(EXACT))
def test_exact_counts(name, seed):
    w = WORKLOADS[name]
    res = decompose(None, make_edges(w, seed), algo=w.algo, mode=w.mode,
                    n_blocks=N_BLOCKS, engine="local")
    assert _counts(res) == EXACT[name]


def test_self_time_subtracts_children(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: float(next(ticks)))
    tr = tracing.Tracer()
    inner = tr.wrap("inner", lambda: None, keep=True)
    outer = tr.wrap("outer", lambda: (inner(), inner()), keep=True)
    outer()
    assert tr.agg["inner"] == [2, 2.0, 2.0]
    assert tr.agg["outer"] == [1, 5.0, 3.0]
    assert [(s[0], s[1]) for s in tr.spans] == [("outer", -1), ("inner", 0), ("inner", 0)]


def test_traced_call_restores_patches_and_reports_every_layer():
    import repro.core.skyline as skyline
    import repro.framework.local_engine as local_engine
    from repro.framework.partition import PARTITIONERS

    before = (skyline.n_order_d_index, local_engine.run_block_round,
              dict(PARTITIONERS), local_engine.LocalEngine.run)
    edges = list(load("WV"))
    plain = decompose(None, edges, algo="SC", mode="block", engine="local")
    tr = tracing.Tracer()
    res = tracing.traced(tr, decompose, None, edges, algo="SC", mode="block",
                         engine="local")
    assert before == (skyline.n_order_d_index, local_engine.run_block_round,
                      dict(PARTITIONERS), local_engine.LocalEngine.run)
    assert res.skyline == plain.skyline and _counts(res) == _counts(plain)

    m = tracing.layer_metrics(tr, res, {})
    wanted = {x["name"] for x in SPEC["per_layer"]}
    wanted -= {"trace.overhead_ratio", "dindex.hub_replay_s", "hindex.hub_replay_s"}
    assert wanted - set(m) == {n for n in wanted if n.startswith("phase.phase")}
    assert m["dindex.calls"] > 0 and m["hindex.calls"] > 0
    assert m["block_runtime.round_calls"] > 0 and m["engine.spark_jobs"] == 0
    # Coverage leaves out the root span and LocalEngine's own loop, which
    # is reported as route_s; the three shares make up the whole wall.
    root = tr.kept("decompose")[0]
    wall = root[3] - root[2]
    assert m["block_runtime.route_s"] > 0
    assert m["trace.coverage"] + (m["block_runtime.route_s"]
                                  + tr.self_time("decompose")) / wall == pytest.approx(1.0)
    assert 0.85 < m["trace.coverage"] < 1.0
    hubs = tracing.hub_inputs(tr, "dindex")
    assert len(hubs) == tracing.HUB_INPUTS
    assert tracing.replay_s(skyline.n_order_d_index, hubs, min_total_s=0) > 0


def test_benchmark_json_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def _run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name,trace", [("am-ac-vertex-local", 0),
                                        ("fig2-sc-block-spark", 1)])
def test_command_line(name, trace):
    proc = _run(["--workload", name, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace)], ROOT)
    assert proc.returncode == 0, proc.stderr[-3000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 2
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(out["metrics"]) == [m["name"] for m in listed]
    m = {k: v["value"] for k, v in out["metrics"].items()}
    if trace:
        assert m["engine.spark_jobs"] > 0 and m["engine.task_failures"] == 0
        assert m["engine.superstep_s"] > 0 and m["dindex.calls"] == 0
    else:
        rounds, supersteps, messages, volume = EXACT[name]
        assert (m["rounds"], m["supersteps"], m["messages"], m["volume_units"]) == (
            rounds, supersteps, messages, volume)
        assert m["decompose_s"] > 0 and m["setup_s"] > 0 and m["ok_rate"] == 1.0


def test_command_fails_without_the_program():
    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(["--workload", "am-ac-vertex-local", "--seed", "1",
                     "--seconds", "1", "--trace", "0"], Path(tmp))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
