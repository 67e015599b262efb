"""Table 3 reproduction: statistics of the synthetic analog datasets.

Prints |V|, |E|, deg_avg, k_max, l_max for each analog next to the
paper's numbers for the original graph.

Usage: python jobs/table3_stats.py [--datasets WV EE SL AM CT]
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _common import get_spark, print_table  # noqa: E402

from repro.graphs.datasets import PAPER_TABLE3, SPECS, load  # noqa: E402
from repro.graphs.generators import edges_to_spark  # noqa: E402
from repro.graphs.stats import core_limits, graph_summary  # noqa: E402


def table3_rows(spark, names: list[str]) -> list[list]:
    rows = []
    for name in names:
        edges = edges_to_spark(spark, list(load(name)))
        s = graph_summary(edges)
        c = core_limits(edges)
        p = PAPER_TABLE3[name]
        rows.append(
            [
                name,
                SPECS[name].paper_name,
                s["n_vertices"],
                s["n_edges"],
                f"{s['deg_avg']:.2f}",
                c["kmax"],
                c["lmax"],
                f"{p['V']}/{p['E']}/{p['deg_avg']}/{p['kmax']}/{p['lmax']}",
            ]
        )
    return rows


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--datasets", nargs="*", default=list(SPECS))
    args = ap.parse_args()
    spark = get_spark("table3")
    rows = table3_rows(spark, args.datasets)
    print_table(
        ["abbr", "dataset", "|V|", "|E|", "deg_avg", "kmax", "lmax",
         "paper(V/E/avg/kmax/lmax)"],
        rows,
    )
    spark.stop()


if __name__ == "__main__":
    main()
