"""Table 4 reproduction (Exp-1): iterations until convergence.

Runs AC-V / AC-B / SC-V / SC-B on each analog dataset and prints the
per-phase and total iteration counts, plus the paper's upper bound row
(the graph's maximum degree). With ``--convergence`` it additionally
prints Exp-2's convergence-rate table (Fig. 3) for the AM analog.

Iteration counts are engine-invariant (the Spark engine and the local
reference engine execute identical block semantics — asserted by the
test suite), so the default uses the fast local engine; pass
``--engine spark`` to run the distributed dataflow itself.

Usage: python jobs/table4_iterations.py [--datasets ...] [--engine local|spark]
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _common import get_spark, print_table  # noqa: E402

from repro.core.decompose import decompose  # noqa: E402
from repro.framework.local_engine import adjacency  # noqa: E402
from repro.graphs.datasets import PAPER_TABLE4, SPECS, load  # noqa: E402


def run_all(spark, names, engine: str, n_blocks: int = 8):
    """Returns {dataset: {algo-mode: DecomposeResult}} + upper bounds."""
    results, upper = {}, {}
    for name in names:
        edges = list(load(name))
        g = adjacency(edges)
        upper[name] = max(len(g.in_nbrs[v]) + len(g.out_nbrs[v]) for v in g.vertices)
        results[name] = {}
        for algo in ("AC", "SC"):
            for mode in ("vertex", "block"):
                res = decompose(
                    spark, edges, algo=algo, mode=mode,
                    partitioner="hash", n_blocks=n_blocks, engine=engine,
                )
                results[name][f"{algo}-{mode[0].upper()}"] = res
    return results, upper


def table4_rows(results, upper, names):
    rows = [["Upper Bound", ""] + [upper[n] for n in names]
            + [str(PAPER_TABLE4["upper_bound"])]]
    for key in ("AC-V", "AC-B"):
        for phase in ("phase1", "phase2", "phase3"):
            rows.append(
                [key, phase]
                + [results[n][key].rounds[phase] for n in names]
                + [str(PAPER_TABLE4[key][phase])]
            )
        rows.append(
            [key, "total"]
            + [results[n][key].total_rounds for n in names]
            + [str(PAPER_TABLE4[key]["total"])]
        )
    for key in ("SC-V", "SC-B"):
        rows.append(
            [key, "dindex"]
            + [results[n][key].rounds["dindex"] for n in names]
            + [str(PAPER_TABLE4[key])]
        )
    return rows


def convergence_rows(results, dataset="AM"):
    """Exp-2 (Fig. 3): % of vertices converged by round r, AM analog."""
    rows = []
    for key, res in results[dataset].items():
        # Convergence of the dominant phase (phase3 for AC, dindex for SC),
        # matching Fig. 3's per-algorithm convergence-rate curves.
        phase = "phase3" if key.startswith("AC") else "dindex"
        st = res.stats[phase]
        rows.append(
            [key] + [f"{100 * st.convergence_rate(r):.1f}%" for r in
                     (1, 2, 5, 8, 10, 15, 20)]
        )
    return rows


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--datasets", nargs="*", default=list(SPECS))
    ap.add_argument("--engine", choices=("local", "spark"), default="local")
    ap.add_argument("--n-blocks", type=int, default=8)
    ap.add_argument("--convergence", action="store_true")
    args = ap.parse_args()
    spark = get_spark("table4") if args.engine == "spark" else None
    results, upper = run_all(spark, args.datasets, args.engine, args.n_blocks)
    print_table(
        ["algorithm", "phase"] + args.datasets + ["paper"],
        table4_rows(results, upper, args.datasets),
    )
    if args.convergence and "AM" in args.datasets:
        print("\nExp-2 convergence rate on AM (fraction of vertices "
              "converged by round r):")
        print_table(
            ["algorithm", "r=1", "r=2", "r=5", "r=8", "r=10", "r=15", "r=20"],
            convergence_rows(results),
        )
    if spark is not None:
        spark.stop()


if __name__ == "__main__":
    main()
