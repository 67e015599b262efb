#!/usr/bin/env python3
"""Run every workload once per seed and report each metric's spread.

Usage, from the repository root::

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b]
        [--out .perfbench/spread.json]

Each run is a fresh ``perfbench/run.py`` process, seeds outermost so a
slow spell of the machine spreads over all workloads. For every metric
the table gives the median over the runs, the first and third quartiles
(``statistics.quantiles(values, n=4)``), and the spread: the distance
between the quartiles as a share of the median. Runs use ``--trace 0``,
so the metrics are the end-to-end ones; a metric whose spread exceeds a
third of its bound in BENCHMARK.json is flagged ``!``. The exit code is
1 if any run failed. ``--seeds 0`` gives one run per workload, i.e.
every end-to-end metric of every workload by name and unit.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import provenance

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out", default=str(ROOT / ".perfbench" / "spread.json"))
    args = ap.parse_args()

    workloads = args.workloads.split(",")
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    ok = True
    for seed in parse_seeds(args.seeds):
        for w in workloads:
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(args.seconds),
                                     "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                ok = False
                sys.stderr.write(f"{w} seed {seed}: exit {proc.returncode}\n"
                                 f"{proc.stderr[-2000:]}\n")
                continue
            result["seed"] = seed
            runs[w].append(result)
            print(f"{w} seed={seed} " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                if isinstance(v["value"], (int, float))), flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict[str, dict] = {}
    for w, results in runs.items():
        if not results:
            continue
        print(f"\n{w}: {len(results)} runs")
        print(f"  {'metric':36s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
              f"{'spread':>8s} {'bound':>6s} unit")
        summary[w] = {}
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else (values[0],) * 3)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds[name]
            flag = "!" if spread > bound / 3 else ""
            summary[w][name] = {"median": med, "q1": q1, "q3": q3,
                                "spread": spread, "unit": first["unit"],
                                "values": values}
            print(f"  {name:36s} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {bound:>6} "
                  f"{first['unit']}{flag}")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seeds": args.seeds, "seconds": args.seconds,
                               "provenance": provenance(),
                               "workloads": summary}, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
