"""Generic D-core decomposition entrypoint.

Decomposes a named analog dataset (or an edge parquet/CSV with columns
src, dst) and writes the anchored and skyline corenesses as parquet,
plus a JSON stats summary: per-phase rounds, messages and communication
volume (integer units, Fig. 4(b)), and their totals; per phase, the first
round that ran on the driver (null when every round ran on Spark), with
the frontier threshold that moves a Spark run's tail to the driver.

Usage:
  python jobs/run_decomposition.py --dataset WV --algo SC --mode block \
      --out /tmp/dcore_wv
  python jobs/run_decomposition.py --edges /path/edges.parquet --algo AC
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _common import get_spark  # noqa: E402

from repro.core.decompose import decompose  # noqa: E402
from repro.framework.engine import TAIL_FRONTIER  # noqa: E402
from repro.graphs.datasets import SPECS, load  # noqa: E402
from repro.graphs.generators import edges_to_spark  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser()
    src = ap.add_mutually_exclusive_group(required=True)
    src.add_argument("--dataset", choices=sorted(SPECS))
    src.add_argument("--edges", help="parquet/csv path with src,dst columns")
    ap.add_argument("--algo", choices=("AC", "SC"), default="SC")
    ap.add_argument("--mode", choices=("vertex", "block"), default="block")
    ap.add_argument("--partitioner", default="hash",
                    choices=("hash", "seg", "fennel", "metis"))
    ap.add_argument("--n-blocks", type=int, default=8)
    ap.add_argument("--engine", choices=("spark", "local"), default="spark")
    ap.add_argument("--out", default=None, help="output directory")
    args = ap.parse_args()

    spark = get_spark("run_decomposition")
    if args.dataset:
        edges_df = edges_to_spark(spark, list(load(args.dataset)))
    elif args.edges.endswith(".csv"):
        edges_df = spark.read.option("header", True).csv(args.edges)
    else:
        edges_df = spark.read.parquet(args.edges)

    res = decompose(
        spark, edges_df, algo=args.algo, mode=args.mode,
        partitioner=args.partitioner, n_blocks=args.n_blocks,
        engine=args.engine,
    )
    summary = {
        "algo": res.algo, "mode": res.mode, "rounds": res.rounds,
        "messages": {p: s.total_messages for p, s in res.stats.items()},
        "volume": {p: s.total_volume for p, s in res.stats.items()},
        "total_rounds": res.total_rounds,
        "total_messages": res.total_messages,
        "total_volume": res.total_volume,
        "driver_round": {p: s.driver_round for p, s in res.stats.items()},
        "tail_frontier": TAIL_FRONTIER,
        "wall_seconds": round(res.wall_seconds, 2),
        "n_vertices": len(res.anchored),
    }
    print(json.dumps(summary, indent=2))
    if args.out:
        out = Path(args.out)
        res.anchored_df(spark).write.mode("overwrite").parquet(
            str(out / "anchored")
        )
        res.skyline_df(spark).write.mode("overwrite").parquet(
            str(out / "skyline")
        )
        (out / "stats.json").parent.mkdir(parents=True, exist_ok=True)
        (out / "stats.json").write_text(json.dumps(summary, indent=2))
    spark.stop()


if __name__ == "__main__":
    main()
